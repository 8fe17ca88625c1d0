//! Scaled-down versions of the paper's experiments, asserting that the
//! *shapes* the paper reports hold in this reproduction. The full-size runs
//! (paper parameters, full vector counts) live in the `glitch-bench`
//! experiment binaries; these tests use smaller vector counts so the suite
//! stays fast.

use glitch_core::analytic::{transition_ratio_carry, transition_ratio_sum, AdderExpectation};
use glitch_core::arith::{
    AdderStyle, ArrayMultiplier, DirectionDetector, RippleCarryAdder, WallaceTreeMultiplier,
};
use glitch_core::netlist::Bus;
use glitch_core::{AnalysisConfig, DelayKind, GlitchAnalyzer, PowerExplorer};

fn detector_buses(det: &DirectionDetector) -> Vec<Bus> {
    let mut buses: Vec<Bus> = det.a.to_vec();
    buses.extend(det.b.iter().cloned());
    buses.push(det.threshold.clone());
    buses
}

/// E2 — the simulated per-bit transition ratios of a ripple-carry adder
/// follow equations 2 and 3 of the paper.
#[test]
fn rca_transition_ratios_match_the_closed_forms() {
    const CYCLES: u64 = 2000;
    let adder = RippleCarryAdder::new(12, AdderStyle::CompoundCell);
    let analysis = GlitchAnalyzer::new(AnalysisConfig {
        cycles: CYCLES,
        ..Default::default()
    })
    .analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )
    .unwrap();
    for bit in 0..12usize {
        let sum_sim = analysis
            .trace
            .node(adder.sum.bit(bit).index())
            .transitions() as f64
            / CYCLES as f64;
        let carry_sim = analysis
            .trace
            .node(adder.carries.bit(bit).index())
            .transitions() as f64
            / CYCLES as f64;
        let sum_expect = transition_ratio_sum(bit as u32);
        let carry_expect = transition_ratio_carry(bit as u32);
        assert!(
            (sum_sim - sum_expect).abs() < 0.1,
            "sum bit {bit}: simulated {sum_sim:.3} vs analytic {sum_expect:.3}"
        );
        assert!(
            (carry_sim - carry_expect).abs() < 0.1,
            "carry bit {bit}: simulated {carry_sim:.3} vs analytic {carry_expect:.3}"
        );
    }
}

/// E3 — the totals of the Figure 5 experiment (scaled down to 1000 vectors):
/// simulation and the closed-form expectation agree within a few percent and
/// the useless/useful ratio is close to the paper's 0.88.
#[test]
fn rca_totals_match_expectation_and_lf_ratio() {
    const CYCLES: u64 = 1000;
    let adder = RippleCarryAdder::new(16, AdderStyle::CompoundCell);
    let analysis = GlitchAnalyzer::new(AnalysisConfig {
        cycles: CYCLES,
        ..Default::default()
    })
    .analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )
    .unwrap();
    let totals = analysis.activity;
    let expect = AdderExpectation::ripple_carry(16, CYCLES);
    let rel = |sim: u64, exp: f64| (sim as f64 - exp).abs() / exp;
    assert!(rel(totals.transitions, expect.total_transitions()) < 0.05);
    assert!(rel(totals.useful, expect.total_useful()) < 0.05);
    assert!(rel(totals.useless, expect.total_useless()) < 0.10);
    let lf = totals.useless_to_useful();
    assert!((lf - 0.88).abs() < 0.1, "L/F = {lf:.3}");
}

/// E4 — Table 1's shape: the array multiplier produces far more useless
/// transitions than the Wallace tree of the same size, and the gap widens
/// at 16x16.
#[test]
fn array_multiplier_glitches_much_more_than_wallace() {
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 300,
        ..Default::default()
    });

    let array8 = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let wallace8 = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
    let a8 = analyzer
        .analyze(&array8.netlist, &[array8.x.clone(), array8.y.clone()], &[])
        .unwrap();
    let w8 = analyzer
        .analyze(
            &wallace8.netlist,
            &[wallace8.x.clone(), wallace8.y.clone()],
            &[],
        )
        .unwrap();
    let a8_lf = a8.activity.useless_to_useful();
    let w8_lf = w8.activity.useless_to_useful();
    assert!(
        a8_lf > 2.0 * w8_lf,
        "8x8: array L/F {a8_lf:.2} vs wallace {w8_lf:.2}"
    );
    assert!(a8.activity.useless > 2 * w8.activity.useless);

    let array16 = ArrayMultiplier::new(16, AdderStyle::CompoundCell);
    let wallace16 = WallaceTreeMultiplier::new(16, AdderStyle::CompoundCell);
    let a16 = analyzer
        .analyze(
            &array16.netlist,
            &[array16.x.clone(), array16.y.clone()],
            &[],
        )
        .unwrap();
    let w16 = analyzer
        .analyze(
            &wallace16.netlist,
            &[wallace16.x.clone(), wallace16.y.clone()],
            &[],
        )
        .unwrap();
    let a16_lf = a16.activity.useless_to_useful();
    let w16_lf = w16.activity.useless_to_useful();
    assert!(
        a16_lf > 3.0 * w16_lf,
        "16x16: array L/F {a16_lf:.2} vs wallace {w16_lf:.2}"
    );
    // The paper's Table 1: the array's L/F deteriorates from 8x8 to 16x16
    // while the Wallace tree's improves (or at least does not deteriorate as
    // fast).
    assert!(a16_lf > a8_lf);
    assert!(w16_lf < a16_lf);
}

/// E5 — Table 2's shape: making the full-adder sum output twice as slow as
/// the carry output increases the useless transitions of both multiplier
/// architectures while leaving useful transitions unchanged.
#[test]
fn slower_sum_outputs_worsen_the_useless_ratio() {
    let base = AnalysisConfig {
        cycles: 300,
        ..Default::default()
    };
    let realistic = AnalysisConfig {
        cycles: 300,
        delay: DelayKind::RealisticAdderCells,
        ..Default::default()
    };

    for (name, netlist, buses) in [
        {
            let m = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
            ("array", m.netlist.clone(), [m.x.clone(), m.y.clone()])
        },
        {
            let m = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
            ("wallace", m.netlist.clone(), [m.x.clone(), m.y.clone()])
        },
    ] {
        let unit = GlitchAnalyzer::new(base.clone())
            .analyze(&netlist, &buses, &[])
            .unwrap();
        let slow = GlitchAnalyzer::new(realistic.clone())
            .analyze(&netlist, &buses, &[])
            .unwrap();
        assert!(
            slow.activity.useless > unit.activity.useless,
            "{name}: useless must increase with the unbalanced cell delays"
        );
        assert_eq!(slow.activity.useful, unit.activity.useful, "{name}");
    }
}

/// E6 — the direction detector's combinational logic produces several
/// useless transitions per useful one (the paper reports L/F = 3.79, i.e. a
/// potential activity reduction of 4.8x from balancing).
#[test]
fn direction_detector_has_a_large_useless_ratio() {
    let det = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let analysis = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 500,
        ..Default::default()
    })
    .analyze(&det.netlist, &detector_buses(&det), &[])
    .unwrap();
    let lf = analysis.activity.useless_to_useful();
    assert!(lf > 1.5, "L/F = {lf:.2}");
    assert!(analysis.balance_reduction_factor() > 2.5);
}

/// E7 — the Table 3 / Figure 10 shape: pipelining the direction detector
/// reduces logic power severalfold, flipflop and clock power grow with the
/// flipflop count, and total power is minimised at an intermediate depth.
#[test]
fn retiming_sweep_shows_a_power_minimum() {
    let det = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 200,
        ..Default::default()
    });
    let explorer = PowerExplorer::new(analyzer);
    let buses: Vec<Bus> = det.a.iter().chain(det.b.iter()).cloned().collect();
    let held: Vec<_> = det.threshold.bits().iter().map(|&b| (b, false)).collect();
    let result = explorer
        .explore(&det.netlist, &[1, 2, 4, 8, 16], &buses, &held)
        .unwrap();
    let points = result.points();

    // Flipflop and clock power increase monotonically with the depth.
    for pair in points.windows(2) {
        assert!(pair[1].flipflops > pair[0].flipflops);
        assert!(pair[1].power.flipflop > pair[0].power.flipflop);
        assert!(pair[1].power.clock > pair[0].power.clock);
    }
    // Logic power falls substantially (paper: factor ~3.6 between the least
    // and most pipelined variants).
    let first = &points[0];
    let last = &points[points.len() - 1];
    assert!(
        first.power.logic > 1.8 * last.power.logic,
        "logic power should fall at least 1.8x, got {:.2} -> {:.2} mW",
        first.power.logic * 1e3,
        last.power.logic * 1e3
    );
    // The total-power optimum is at an intermediate pipelining depth.
    assert!(result.has_interior_minimum(), "{result}");
}
