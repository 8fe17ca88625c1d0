//! The oracle for [`EquivalenceChecker::check`]: the event-driven
//! co-simulation it replaced (`support::event_check`), kept as the
//! reference.
//!
//! `check` settles both netlists functionally on the compiled kernel; the
//! oracle steps one [`ClockedSimulator`] per side under the named delay
//! model and reads every output after each cycle has settled. Settled
//! values do not depend on the delays, so the two must agree on the whole
//! [`EquivalenceOutcome`] — cycles run, values compared, and the located
//! mismatch with both values — for every delay model, binary and `x_init`.
//! The 300-cycle cases outrun one 256-cycle block of the kernel settle: a
//! comparison window across the block boundary, a mismatch located past
//! it, and latencies as long as the run.

mod support;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_io::{parse_netlist, Format, GateLibrary};
use glitch_netlist::{CellKind, DffInit, Netlist};
use glitch_retime::{pipeline_netlist, PipelineOptions};
use glitch_sim::{DelayKind, SimOptions, Value};
use glitch_verify::{EquivalenceChecker, EquivalenceOutcome};
use support::event_check;

const CYCLES: u64 = 96;

fn corpus(file: &str) -> Netlist {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("corpus file readable");
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("corpus parses")
}

fn delays() -> Vec<DelayKind> {
    vec![
        DelayKind::Unit,
        DelayKind::Zero,
        DelayKind::RealisticAdderCells,
        DelayKind::Custom(GateLibrary::standard().cell_delay()),
    ]
}

/// Asserts that `check`, and every entry of `verify`'s matrix, equal
/// `event_check` for every delay model × {binary, `x_init`} over a few
/// seeds; returns the outcomes for further checks.
fn assert_matches_oracle(
    original: &Netlist,
    transformed: &Netlist,
    checker: &EquivalenceChecker<'_>,
) -> Vec<EquivalenceOutcome> {
    assert_matches_oracle_at(original, transformed, checker, CYCLES)
}

/// [`assert_matches_oracle`] over `cycles` cycles.
fn assert_matches_oracle_at(
    original: &Netlist,
    transformed: &Netlist,
    checker: &EquivalenceChecker<'_>,
    cycles: u64,
) -> Vec<EquivalenceOutcome> {
    let delays = delays();
    let mut outcomes = Vec::new();
    for seed in [1, 77, 12345] {
        let report = checker.verify(&delays, cycles, seed).unwrap();
        assert_eq!(report.checks.len(), delays.len() * 2);
        for (check, (delay, options)) in report.checks.iter().zip(delays.iter().flat_map(|delay| {
            [
                (delay, SimOptions::default()),
                (delay, SimOptions::x_init()),
            ]
        })) {
            let oracle =
                event_check(original, transformed, checker, delay, cycles, seed, options).unwrap();
            let fast = checker.check(delay, cycles, seed, options).unwrap();
            let context = format!(
                "{} vs {}: delay {delay:?}, {options:?}, seed {seed}",
                original.name(),
                transformed.name()
            );
            assert_eq!(fast, oracle, "check: {context}");
            assert_eq!(check.outcome, oracle, "verify: {context}");
            assert_eq!(check.x_init, options == SimOptions::x_init(), "{context}");
            outcomes.push(fast);
        }
    }
    outcomes
}

fn self_check(netlist: &Netlist) -> Vec<EquivalenceOutcome> {
    let checker = EquivalenceChecker::by_name(netlist, netlist, 0).unwrap();
    assert_matches_oracle(netlist, netlist, &checker)
}

#[test]
fn combinational_adder_matches_the_event_co_simulation() {
    let outcomes = self_check(&corpus("rca4.blif"));
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));
}

#[test]
fn sequential_counter_matches_the_event_co_simulation() {
    let outcomes = self_check(&corpus("counter4.blif"));
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));
}

#[test]
fn retimed_multiplier_matches_the_event_co_simulation() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell).netlist;
    for ranks in [2, 4] {
        let piped = pipeline_netlist(&mult, ranks, PipelineOptions::default()).unwrap();
        let map = &piped.map;
        let inputs = mult
            .inputs()
            .iter()
            .map(|&net| (net, map.new_net(net)))
            .collect::<Vec<_>>();
        let outputs = mult
            .outputs()
            .iter()
            .map(|&net| (net, map.output_net(net)))
            .collect::<Vec<_>>();
        let checker = EquivalenceChecker::new(
            &mult,
            &piped.netlist,
            inputs.clone(),
            outputs.clone(),
            map.latency(),
        )
        .unwrap();
        let outcomes = assert_matches_oracle(&mult, &piped.netlist, &checker);
        assert!(outcomes.iter().all(EquivalenceOutcome::passed));
        // A misdeclared latency diverges, at the same place on both paths.
        let short =
            EquivalenceChecker::new(&mult, &piped.netlist, inputs, outputs, map.latency() - 1)
                .unwrap();
        let outcomes = assert_matches_oracle(&mult, &piped.netlist, &short);
        assert!(outcomes.iter().all(|outcome| !outcome.passed()));
    }
}

/// The deliberately broken rewrite of the reduce oracle: an AND standing
/// in for an XOR behind the identity mapping.
#[test]
fn broken_rewrite_is_located_identically() {
    let mut original = Netlist::new("honest");
    let a = original.add_input("a");
    let b = original.add_input("b");
    let y = original.xor2(a, b, "y");
    original.mark_output(y);

    let mut broken = Netlist::new("honest");
    let a2 = broken.add_input("a");
    let b2 = broken.add_input("b");
    let y2 = broken.and2(a2, b2, "y");
    broken.mark_output(y2);

    let checker = EquivalenceChecker::by_name(&original, &broken, 0).unwrap();
    for outcome in assert_matches_oracle(&original, &broken, &checker) {
        let mismatch = outcome.mismatch.expect("an AND is not an XOR");
        assert_eq!(mismatch.output, "y");
        assert_eq!(outcome.cycles, mismatch.cycle + 1);
    }
}

/// A flipflop whose init differs only when uninitialised state powers on
/// `X`: the binary runs pass, the `x_init` runs diverge on an `X` value.
#[test]
fn unknown_flipflop_state_is_located_identically() {
    let build = |init: DffInit| {
        let mut nl = Netlist::new("reg");
        let a = nl.add_input("a");
        let q = nl.dff(a, "q");
        let cell = nl.dff_cells().next().unwrap();
        nl.set_dff_init(cell, init);
        let y = nl.and2(q, a, "y");
        nl.mark_output(y);
        nl
    };
    let original = build(DffInit::Zero);
    let transformed = build(DffInit::DontCare);
    let checker = EquivalenceChecker::by_name(&original, &transformed, 0).unwrap();
    let outcomes = assert_matches_oracle(&original, &transformed, &checker);
    assert!(outcomes.iter().any(EquivalenceOutcome::passed));
    assert!(outcomes.iter().any(|outcome| outcome
        .mismatch
        .as_ref()
        .is_some_and(|m| m.transformed == Value::X)));
}

/// Cycles of the cases that outrun one 256-lane block.
const LONG_CYCLES: u64 = 300;

/// `y = XOR(q8, a)` with `q` a free-running 9-bit counter whose flipflops
/// power on at `start`, and `y` observed through `latency` registers.
fn counter_xor(start: u64, latency: usize) -> Netlist {
    let mut nl = Netlist::new("counter xor");
    let a = nl.add_input("a");
    let q: Vec<_> = (0..9).map(|i| nl.add_net(format!("q{i}"))).collect();
    let mut carry = nl.constant(true, "one");
    for (i, &qi) in q.iter().enumerate() {
        let d = nl.xor2(qi, carry, &format!("d{i}"));
        carry = nl.and2(qi, carry, &format!("c{i}"));
        nl.add_cell(CellKind::Dff, format!("ff{i}"), vec![d], vec![qi])
            .expect("a counter bit");
    }
    let cells: Vec<_> = nl.dff_cells().collect();
    for (i, cell) in cells.into_iter().enumerate() {
        let init = if start >> i & 1 == 1 {
            DffInit::One
        } else {
            DffInit::Zero
        };
        nl.set_dff_init(cell, init);
    }
    let y = nl.xor2(q[8], a, "y");
    let observed = nl.dff_chain(y, latency, "y_pipe");
    nl.mark_output(observed);
    nl
}

/// A checker of `counter_xor(0, 0)` against `transformed` at `latency`.
fn counter_checker<'a>(
    original: &'a Netlist,
    transformed: &'a Netlist,
    latency: usize,
) -> EquivalenceChecker<'a> {
    let inputs = vec![(original.inputs()[0], transformed.inputs()[0])];
    let outputs = vec![(original.outputs()[0], transformed.outputs()[0])];
    EquivalenceChecker::new(original, transformed, inputs, outputs, latency).unwrap()
}

/// The transformed side's counter runs one count ahead, so the sides
/// first disagree at original cycle 255, the last lane of the first
/// block, compared two cycles later against transformed cycle 257, in
/// the second. The pipelined multiplier compares across the same
/// boundary and passes.
#[test]
fn a_latency_window_across_lane_256_matches_the_event_co_simulation() {
    let original = counter_xor(0, 0);
    let ahead = counter_xor(1, 2);
    let checker = counter_checker(&original, &ahead, 2);
    for outcome in assert_matches_oracle_at(&original, &ahead, &checker, LONG_CYCLES) {
        let mismatch = outcome.mismatch.expect("the counters disagree on bit 8");
        assert_eq!((mismatch.cycle, outcome.cycles), (255, 258));
        assert_eq!(outcome.compared, 256);
    }
    let in_step = counter_xor(0, 2);
    let checker = counter_checker(&original, &in_step, 2);
    let outcomes = assert_matches_oracle_at(&original, &in_step, &checker, LONG_CYCLES);
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));

    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell).netlist;
    let piped = pipeline_netlist(&mult, 4, PipelineOptions::default()).unwrap();
    let map = &piped.map;
    let checker = EquivalenceChecker::new(
        &mult,
        &piped.netlist,
        mult.inputs().iter().map(|&n| (n, map.new_net(n))).collect(),
        mult.outputs()
            .iter()
            .map(|&n| (n, map.output_net(n)))
            .collect(),
        map.latency(),
    )
    .unwrap();
    let outcomes = assert_matches_oracle_at(&mult, &piped.netlist, &checker, LONG_CYCLES);
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));
}

/// A latency at least as long as the run compares nothing; one just
/// short of it compares the few cycles left after settling the
/// transformed side through more than one block.
#[test]
fn a_latency_beyond_the_run_compares_nothing_like_the_event_co_simulation() {
    let original = counter_xor(0, 0);
    for latency in [280, 300, 301] {
        let delayed = counter_xor(0, latency);
        let checker = counter_checker(&original, &delayed, latency);
        for outcome in assert_matches_oracle_at(&original, &delayed, &checker, LONG_CYCLES) {
            assert!(outcome.passed(), "latency {latency}");
            assert_eq!(outcome.cycles, LONG_CYCLES);
            assert_eq!(
                outcome.compared,
                LONG_CYCLES.saturating_sub(latency as u64),
                "latency {latency}"
            );
        }
    }
}

/// Primary inputs of the wide cases: more than one 32-input stimulus bus.
const WIDE_INPUTS: usize = 40;

/// `y`, the XOR of all 40 inputs, and `z`, the AND of the last two (their
/// OR with `or_z`), with the inputs declared in reverse order when
/// `reversed`.
fn wide_xor(reversed: bool, or_z: bool) -> Netlist {
    let mut nl = Netlist::new("wide xor");
    let mut inputs: Vec<_> = (0..WIDE_INPUTS).collect();
    if reversed {
        inputs.reverse();
    }
    let mut nets = vec![None; WIDE_INPUTS];
    for i in inputs {
        nets[i] = Some(nl.add_input(format!("in{i}")));
    }
    let mut level: Vec<_> = nets.into_iter().map(Option::unwrap).collect();
    let last = (level[WIDE_INPUTS - 2], level[WIDE_INPUTS - 1]);
    let mut gate = 0;
    while level.len() > 1 {
        level = level
            .chunks(2)
            .map(|pair| match *pair {
                [a, b] => {
                    gate += 1;
                    nl.xor2(a, b, &format!("x{gate}"))
                }
                [a] => a,
                _ => unreachable!("chunks of two"),
            })
            .collect();
    }
    let y = nl.buf(level[0], "y");
    let z = if or_z {
        nl.or2(last.0, last.1, "z")
    } else {
        nl.and2(last.0, last.1, "z")
    };
    nl.mark_output(y);
    nl.mark_output(z);
    nl
}

/// Forty inputs are two stimulus buses, drawn a block of lane words at a
/// time: the transformed side, its inputs declared in reverse, must see
/// every drive on the net of the same name, and a difference on the
/// second bus is located where the event co-simulation locates it.
#[test]
fn inputs_beyond_one_stimulus_bus_match_the_event_co_simulation() {
    let original = wide_xor(false, false);
    let outcomes = self_check(&original);
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));

    let reversed = wide_xor(true, false);
    let checker = EquivalenceChecker::by_name(&original, &reversed, 0).unwrap();
    let outcomes = assert_matches_oracle_at(&original, &reversed, &checker, LONG_CYCLES);
    assert!(outcomes.iter().all(EquivalenceOutcome::passed));

    let or_z = wide_xor(true, true);
    let checker = EquivalenceChecker::by_name(&original, &or_z, 0).unwrap();
    for outcome in assert_matches_oracle_at(&original, &or_z, &checker, LONG_CYCLES) {
        let mismatch = outcome.mismatch.expect("an OR is not an AND");
        assert_eq!(mismatch.output, "z");
    }
}
