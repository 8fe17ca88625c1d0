//! The differential equivalence oracle: random sequential netlists,
//! random *accepted* move sequences, and the claim that original and
//! reduced outputs are bit-identical over random stimulus — across the
//! unit, zero, adder-cell and custom (library-style) delay models, both
//! for binary runs and for uninitialised-flipflop `x_init` runs.
//!
//! The move words are a proptest `vec` strategy, so a counterexample
//! shrinks to a **minimal move list**: proptest drops and simplifies
//! elements until the shortest sequence that still diverges remains.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_netlist::{NetId, Netlist};
use glitch_retime::{insert_buffer, pipeline_netlist, NetMap, PipelineOptions, Rewrite};
use glitch_sim::{CellDelay, DelayKind};
use glitch_verify::EquivalenceChecker;
use proptest::prelude::*;
use support::RandomNetlist;

/// The delay matrix the oracle sweeps: the built-in models plus a custom
/// table standing in for a characterised gate library.
fn oracle_delays() -> Vec<DelayKind> {
    vec![
        DelayKind::Unit,
        DelayKind::Zero,
        DelayKind::RealisticAdderCells,
        DelayKind::Custom(CellDelay::new().with_default(3)),
    ]
}

/// Applies the move encoded by `word` to `current`, or `None` when the
/// selected site is inapplicable (skipping keeps shrinking well-behaved:
/// removing earlier words never invalidates later ones).
fn apply_word(current: &Netlist, word: u64) -> Option<Rewrite> {
    match word % 2 {
        0 => {
            let nets: Vec<NetId> = current
                .nets()
                .filter(|(_, net)| !net.loads().is_empty())
                .map(|(id, _)| id)
                .collect();
            let &net = nets.get((word >> 8) as usize % nets.len().max(1))?;
            insert_buffer(current, net).ok()
        }
        _ => {
            if current.dff_count() > 0 {
                return None;
            }
            let ranks = 1 + ((word >> 8) % 3) as usize;
            pipeline_netlist(current, ranks, PipelineOptions::default()).ok()
        }
    }
}

/// Applies every applicable move in sequence, composing the mappings.
fn apply_moves(original: &Netlist, move_words: &[u64]) -> (Netlist, NetMap, Vec<String>) {
    let mut current = original.clone();
    let mut map = NetMap::identity(original);
    let mut applied = Vec::new();
    for &word in move_words {
        if let Some(rewrite) = apply_word(&current, word) {
            map = map.compose(&rewrite.map);
            applied.push(rewrite.description.clone());
            current = rewrite.netlist;
        }
    }
    (current, map, applied)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any accepted move sequence preserves the function, cycle for
    /// cycle, output for output, under every delay model and init mode.
    #[test]
    fn accepted_move_sequences_preserve_the_function(
        input_count in 1usize..5,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 2..28),
        move_words in proptest::collection::vec(0u64..u64::MAX, 0..6),
        stimulus_seed in 0u64..1_000_000,
    ) {
        let RandomNetlist { netlist, .. } = support::build_netlist(input_count, &gate_words);
        let (reduced, map, applied) = apply_moves(&netlist, &move_words);
        map.validate(&netlist, &reduced).expect("composed maps stay total");

        let inputs: Vec<(NetId, NetId)> = netlist
            .inputs()
            .iter()
            .map(|&net| (net, map.new_net(net)))
            .collect();
        let outputs: Vec<(NetId, NetId)> = netlist
            .outputs()
            .iter()
            .map(|&net| (net, map.output_net(net)))
            .collect();
        let checker = EquivalenceChecker::new(&netlist, &reduced, inputs, outputs, map.latency())
            .expect("mapped inputs stay primary inputs");
        let report = checker
            .verify(&oracle_delays(), 40, stimulus_seed)
            .expect("co-simulation settles");
        prop_assert!(
            report.passed(),
            "moves {applied:?} diverged: {:?}",
            report.first_failure()
        );
        // 4 delay models × binary + x_init.
        prop_assert_eq!(report.checks.len(), 8);
        prop_assert!(report.compared() > 0);
    }
}

/// The oracle catches what it is supposed to catch: a deliberately wrong
/// "move" (an AND standing in for an XOR, identity mapping) fails the
/// same verification the real moves pass.
#[test]
fn the_oracle_rejects_a_broken_rewrite() {
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
    let report = checker.verify(&oracle_delays(), 40, 7).unwrap();
    assert!(!report.passed(), "an AND is not an XOR");
    let failure = report.first_failure().unwrap();
    let mismatch = failure.outcome.mismatch.as_ref().unwrap();
    assert_eq!(mismatch.output, "y");
}
