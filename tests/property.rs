//! Property-based tests over the cross-crate invariants the reproduction
//! relies on: functional correctness of the generated circuits, conservation
//! laws of the transition accounting, and delay-model independence of the
//! useful work.

use glitch_core::activity::ActivityReport;
use glitch_core::arith::{build_abs_diff, AdderStyle, RippleCarryAdder, WallaceTreeMultiplier};
use glitch_core::netlist::Netlist;
use glitch_core::sim::{
    ActivityProbe, CellDelay, ClockedSimulator, DelayKind, InputAssignment, SimSession, UnitDelay,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The 8-bit ripple-carry adder computes a + b + cin for arbitrary
    /// operand sequences, in both structural styles.
    #[test]
    fn rca_is_correct_for_random_sequences(
        inputs in proptest::collection::vec((0u64..256, 0u64..256, proptest::bool::ANY), 1..20),
        gates in proptest::bool::ANY,
    ) {
        let style = if gates { AdderStyle::Gates } else { AdderStyle::CompoundCell };
        let adder = RippleCarryAdder::new(8, style);
        let mut sim = ClockedSimulator::new(&adder.netlist, UnitDelay).unwrap();
        for &(a, b, cin) in &inputs {
            sim.step(
                InputAssignment::new()
                    .with_bus(&adder.a, a)
                    .with_bus(&adder.b, b)
                    .with(adder.cin, cin),
            )
            .unwrap();
            let sum = sim.bus_value(&adder.sum).unwrap();
            let cout = u64::from(sim.net_bool(adder.cout).unwrap());
            prop_assert_eq!(sum + (cout << 8), a + b + u64::from(cin));
        }
    }

    /// The Wallace multiplier agrees with `u64` multiplication for arbitrary
    /// operand sequences (glitches never corrupt the settled result).
    #[test]
    fn wallace_multiplier_is_correct_for_random_sequences(
        inputs in proptest::collection::vec((0u64..256, 0u64..256), 1..12),
    ) {
        let mult = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
        let mut sim = ClockedSimulator::new(&mult.netlist, UnitDelay).unwrap();
        for &(a, b) in &inputs {
            sim.step(InputAssignment::new().with_bus(&mult.x, a).with_bus(&mult.y, b)).unwrap();
            prop_assert_eq!(sim.bus_value(&mult.product).unwrap(), a * b);
        }
    }

    /// The absolute-difference block is exact for arbitrary widths up to 10
    /// bits and arbitrary operand pairs.
    #[test]
    fn abs_diff_is_exact(width in 2usize..10, pairs in proptest::collection::vec((0u64..1024, 0u64..1024), 1..10)) {
        let mut nl = Netlist::new("absdiff_prop");
        let a = nl.add_input_bus("a", width);
        let b = nl.add_input_bus("b", width);
        let ports = build_abs_diff(&mut nl, &a, &b, "d", AdderStyle::CompoundCell);
        nl.mark_output_bus(&ports.magnitude);
        let mask = (1u64 << width) - 1;
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        for &(x, y) in &pairs {
            let (x, y) = (x & mask, y & mask);
            sim.step(InputAssignment::new().with_bus(&a, x).with_bus(&b, y)).unwrap();
            prop_assert_eq!(sim.bus_value(&ports.magnitude).unwrap(), x.abs_diff(y));
        }
    }

    /// Conservation law: total transitions = useful + useless, and the
    /// useful count never exceeds one per node per cycle.
    #[test]
    fn activity_accounting_is_conserved(
        seed in 0u64..1000,
        cycles in 1u64..40,
    ) {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let stim = glitch_core::sim::RandomStimulus::new(
            vec![adder.a.clone(), adder.b.clone()],
            cycles,
            seed,
        )
        .hold(adder.cin, false);
        let mut session_report = SimSession::new(&adder.netlist)
            .stimulus(stim)
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        let trace = session_report.take_probe::<ActivityProbe>().unwrap().into_trace();
        let report = ActivityReport::new(&adder.netlist, &trace);
        let totals = report.totals();
        prop_assert_eq!(totals.transitions, totals.useful + totals.useless);
        prop_assert!(totals.useful <= cycles * ActivityReport::logic_nodes(&adder.netlist).len() as u64);
        prop_assert_eq!(totals.cycles, cycles);
    }

    /// Useful transitions are a property of the computation, not of the
    /// delay model: unit-delay, zero-delay and unbalanced-cell-delay
    /// simulations of the same circuit and stimulus agree on them.
    #[test]
    fn useful_transitions_are_delay_model_independent(seed in 0u64..500) {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let cycles = 25u64;
        let run = |useful_only: bool, which: u8| -> u64 {
            let stim = glitch_core::sim::RandomStimulus::new(
                vec![adder.a.clone(), adder.b.clone()],
                cycles,
                seed,
            )
            .hold(adder.cin, false);
            let delay = match which {
                0 => DelayKind::Unit,
                1 => DelayKind::Zero,
                _ => DelayKind::Custom(CellDelay::new().with_full_adder(5, 2)),
            };
            let mut report = SimSession::new(&adder.netlist)
                .delay(delay)
                .stimulus(stim)
                .probe(ActivityProbe::new())
                .run()
                .unwrap();
            let trace = report.take_probe::<ActivityProbe>().unwrap().into_trace();
            let totals = ActivityReport::new(&adder.netlist, &trace).totals();
            if useful_only {
                totals.useful
            } else {
                totals.useless
            }
        };
        let unit_useful = run(true, 0);
        let zero_useful = run(true, 1);
        let slow_useful = run(true, 2);
        prop_assert_eq!(unit_useful, zero_useful);
        prop_assert_eq!(unit_useful, slow_useful);
        // And the zero-delay reference never glitches.
        prop_assert_eq!(run(false, 1), 0);
    }
}
