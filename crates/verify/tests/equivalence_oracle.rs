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

mod support;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_io::{parse_netlist, Format, GateLibrary};
use glitch_netlist::{DffInit, Netlist};
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
    let delays = delays();
    let mut outcomes = Vec::new();
    for seed in [1, 77, 12345] {
        let report = checker.verify(&delays, CYCLES, seed).unwrap();
        assert_eq!(report.checks.len(), delays.len() * 2);
        for (check, (delay, options)) in report.checks.iter().zip(delays.iter().flat_map(|delay| {
            [
                (delay, SimOptions::default()),
                (delay, SimOptions::x_init()),
            ]
        })) {
            let oracle =
                event_check(original, transformed, checker, delay, CYCLES, seed, options).unwrap();
            let fast = checker.check(delay, CYCLES, seed, options).unwrap();
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
        let map = &piped.mapping;
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
