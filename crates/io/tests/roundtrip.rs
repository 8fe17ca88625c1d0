//! Round-trip properties of the BLIF writer/reader pair:
//! `parse(emit(n))` preserves net, cell and flipflop counts and the
//! per-kind cell histogram, for both randomly grown netlists and the
//! workspace's arithmetic generators.

use glitch_arith::{
    AdderStyle, ArrayMultiplier, DirectionDetector, RippleCarryAdder, WallaceTreeMultiplier,
};
use glitch_io::{emit_blif, parse_blif, GateLibrary};
use glitch_netlist::{CellKind, NetId, Netlist};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grows a random, structurally valid netlist: every cell's inputs are
/// drawn from already-existing nets, so the circuit is a DAG by
/// construction; every driverless net is a primary input; every sink is
/// marked as a primary output.
fn random_netlist(seed: u64, inputs: usize, cells: usize) -> Netlist {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut nl = Netlist::new(format!("random_{seed}"));
    let mut nets: Vec<NetId> = (0..inputs)
        .map(|i| nl.add_input(format!("in{i}")))
        .collect();

    for c in 0..cells {
        let pick = |rng: &mut StdRng, nets: &[NetId]| nets[rng.gen_range(0..nets.len())];
        let choice = rng.gen_range(0..100u32);
        let new_nets: Vec<NetId> = match choice {
            0..=9 => {
                let a = pick(&mut rng, &nets);
                vec![nl.inv(a, &format!("n{c}"))]
            }
            10..=14 => {
                let a = pick(&mut rng, &nets);
                vec![nl.buf(a, &format!("n{c}"))]
            }
            15..=54 => {
                let kind = match rng.gen_range(0..6u32) {
                    0 => CellKind::And,
                    1 => CellKind::Or,
                    2 => CellKind::Nand,
                    3 => CellKind::Nor,
                    4 => CellKind::Xor,
                    _ => CellKind::Xnor,
                };
                let arity = rng.gen_range(2..5usize);
                let ins: Vec<NetId> = (0..arity).map(|_| pick(&mut rng, &nets)).collect();
                vec![nl.gate(kind, &ins, &format!("n{c}"))]
            }
            55..=64 => {
                let (s, a, b) = (
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                );
                vec![nl.mux2(s, a, b, &format!("n{c}"))]
            }
            65..=69 => {
                let (a, b, d) = (
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                );
                vec![nl.maj3(a, b, d, &format!("n{c}"))]
            }
            70..=79 => {
                let (a, b) = (pick(&mut rng, &nets), pick(&mut rng, &nets));
                let (s, carry) = nl.half_adder(a, b, &format!("n{c}"));
                vec![s, carry]
            }
            80..=89 => {
                let (a, b, cin) = (
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                    pick(&mut rng, &nets),
                );
                let (s, carry) = nl.full_adder(a, b, cin, &format!("n{c}"));
                vec![s, carry]
            }
            90..=96 => {
                let d = pick(&mut rng, &nets);
                vec![nl.dff(d, &format!("n{c}"))]
            }
            _ => {
                vec![nl.constant(rng.gen(), &format!("n{c}"))]
            }
        };
        nets.extend(new_nets);
    }

    // Every sink (net without loads) becomes a primary output so nothing
    // dangles from the BLIF reader's point of view.
    let sinks: Vec<NetId> = nl
        .nets()
        .filter(|(_, net)| net.loads().is_empty())
        .map(|(id, _)| id)
        .collect();
    for id in sinks {
        nl.mark_output(id);
    }
    nl
}

fn assert_preserved(original: &Netlist, round_tripped: &Netlist) {
    assert_eq!(round_tripped.net_count(), original.net_count(), "net count");
    assert_eq!(
        round_tripped.cell_count(),
        original.cell_count(),
        "cell count"
    );
    assert_eq!(
        round_tripped.dff_count(),
        original.dff_count(),
        "flipflop count"
    );
    assert_eq!(
        round_tripped.inputs().len(),
        original.inputs().len(),
        "input count"
    );
    assert_eq!(
        round_tripped.outputs().len(),
        original.outputs().len(),
        "output count"
    );
    assert_eq!(
        round_tripped.stats().cells_by_kind(),
        original.stats().cells_by_kind(),
        "per-kind cell histogram"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: emit → parse preserves all structural counts
    /// and the per-kind histogram, and a second round trip is a fixed
    /// point of the emitted text.
    #[test]
    fn blif_round_trip_preserves_structure(
        seed in 0u64..100_000,
        inputs in 1usize..12,
        cells in 1usize..60,
    ) {
        let library = GateLibrary::standard();
        let original = random_netlist(seed, inputs, cells);
        original.validate().expect("random netlists are valid by construction");

        let text = emit_blif(&original);
        let parsed = parse_blif(&text, &library).expect("emitted BLIF must parse");
        assert_preserved(&original, &parsed);

        let text_again = emit_blif(&parsed);
        prop_assert_eq!(&text_again, &text, "second emission must be a fixed point");
        let parsed_again = parse_blif(&text_again, &library).expect("re-emitted BLIF must parse");
        assert_preserved(&parsed, &parsed_again);
    }
}

#[test]
fn arithmetic_generators_round_trip() {
    let library = GateLibrary::standard();
    let circuits: Vec<Netlist> = vec![
        RippleCarryAdder::new(8, AdderStyle::CompoundCell).netlist,
        RippleCarryAdder::new(6, AdderStyle::Gates).netlist,
        WallaceTreeMultiplier::new(6, AdderStyle::CompoundCell).netlist,
        DirectionDetector::with_options(4, false, AdderStyle::CompoundCell).netlist,
    ];
    for original in circuits {
        let text = emit_blif(&original);
        let parsed = parse_blif(&text, &library)
            .unwrap_or_else(|e| panic!("{}: emitted BLIF must parse: {e}", original.name()));
        assert_preserved(&original, &parsed);
    }
}

#[test]
fn bundled_corpus_parses_and_round_trips() {
    let library = GateLibrary::standard();
    let data = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/data");
    let mut seen = 0usize;
    for entry in std::fs::read_dir(data).expect("tests/data must exist") {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("blif") {
            continue;
        }
        seen += 1;
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed =
            parse_blif(&text, &library).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let round = parse_blif(&emit_blif(&parsed), &library).unwrap();
        assert_preserved(&parsed, &round);
    }
    assert!(
        seen >= 3,
        "the bundled corpus must keep at least 3 BLIF circuits, found {seen}"
    );
}

/// The `{"fingerprint": "…", "cells": …, "nets": …}` entry for `file` in
/// glitchbench's fixture table.
fn pinned_fixture(table: &str, file: &str) -> (String, usize, usize) {
    let line = table
        .lines()
        .find(|line| line.contains(&format!("\"{file}\"")))
        .unwrap_or_else(|| panic!("fixtures.json has no entry for {file}"));
    let field = |key: &str| -> &str {
        let start = line.find(&format!("\"{key}\": ")).expect("field present") + key.len() + 4;
        line[start..]
            .split([',', '}'])
            .next()
            .expect("field value")
            .trim()
            .trim_matches('"')
    };
    (
        field("fingerprint").to_string(),
        field("cells").parse().expect("cell count"),
        field("nets").parse().expect("net count"),
    )
}

/// Every fixture glitchbench checks parses to the fingerprint, cell and
/// net counts it pins, and re-emits byte for byte: the fingerprint hashes
/// net order, net names and cell names, so any drift in the reader shows.
#[test]
fn benchmark_fixtures_parse_to_their_pinned_fingerprints() {
    let library = GateLibrary::standard();
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let table = std::fs::read_to_string(format!("{root}/glitchbench/fixtures.json"))
        .expect("glitchbench/fixtures.json must exist");
    let mut texts: Vec<(String, String)> = [4usize, 16, 32]
        .iter()
        .map(|&n| {
            let mult = ArrayMultiplier::new(n, AdderStyle::CompoundCell);
            (format!("mult{n}.blif"), emit_blif(&mult.netlist))
        })
        .collect();
    for file in ["c17.blif", "rca4.blif", "counter4.blif"] {
        let text = std::fs::read_to_string(format!("{root}/tests/data/{file}"))
            .unwrap_or_else(|e| panic!("{file}: {e}"));
        texts.push((file.to_string(), text));
    }
    for (file, text) in texts {
        let parsed = parse_blif(&text, &library).unwrap_or_else(|e| panic!("{file}: {e}"));
        let (fingerprint, cells, nets) = pinned_fixture(&table, &file);
        assert_eq!(
            format!("{:016x}", parsed.fingerprint()),
            fingerprint,
            "{file}"
        );
        assert_eq!(parsed.cell_count(), cells, "{file}");
        assert_eq!(parsed.net_count(), nets, "{file}");
        let emitted = emit_blif(&parsed);
        let reparsed = parse_blif(&emitted, &library).expect("re-emitted text parses");
        assert_eq!(
            emit_blif(&reparsed),
            emitted,
            "{file}: emit∘parse must be the identity"
        );
        if file.starts_with("mult") {
            assert_eq!(
                emitted, text,
                "{file}: re-emission must reproduce the input bytes"
            );
        }
    }
}
