//! Cross-crate integration tests: netlist generators, the event-driven
//! simulator, transition accounting, retiming/pipelining and the power model
//! working together through the `glitch-core` flows.

use glitch_core::activity::ActivityReport;
use glitch_core::arith::{AdderStyle, ArrayMultiplier, DirectionDetector, RippleCarryAdder};
use glitch_core::netlist::Bus;
use glitch_core::retime::{delay_imbalance, pipeline_netlist, PipelineOptions};
use glitch_core::sim::{
    ActivityProbe, ClockedSimulator, InputAssignment, RandomStimulus, SimSession, StimulusProgram,
    UnitDelay, VcdProbe, VcdRecorder, ZeroDelay,
};
use glitch_core::{AnalysisConfig, DelayKind, GlitchAnalyzer, PowerExplorer};

fn detector_buses(det: &DirectionDetector) -> Vec<Bus> {
    let mut buses: Vec<Bus> = det.a.to_vec();
    buses.extend(det.b.iter().cloned());
    buses.push(det.threshold.clone());
    buses
}

#[test]
fn analyzer_and_manual_simulation_agree() {
    let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
    let config = AnalysisConfig {
        cycles: 250,
        seed: 77,
        ..AnalysisConfig::default()
    };
    let analysis = GlitchAnalyzer::new(config.clone())
        .analyze(
            &adder.netlist,
            &[adder.a.clone(), adder.b.clone()],
            &[(adder.cin, false)],
        )
        .unwrap();

    // Re-run the same stimulus by hand through a bare session.
    let stim =
        RandomStimulus::new(vec![adder.a.clone(), adder.b.clone()], 250, 77).hold(adder.cin, false);
    let mut report = SimSession::new(&adder.netlist)
        .stimulus(stim)
        .probe(ActivityProbe::new())
        .run()
        .unwrap();
    let trace = report.take_probe::<ActivityProbe>().unwrap().into_trace();
    let manual = ActivityReport::new(&adder.netlist, &trace);

    assert_eq!(analysis.activity, manual.totals());
    assert_eq!(
        analysis.activity.transitions,
        manual.totals().useful + manual.totals().useless
    );
}

#[test]
fn zero_delay_reference_is_glitch_free_for_every_generator() {
    let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
    let mult = ArrayMultiplier::new(5, AdderStyle::CompoundCell);
    let det = DirectionDetector::with_options(4, false, AdderStyle::CompoundCell);

    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 100,
        delay: DelayKind::Zero,
        ..AnalysisConfig::default()
    });
    let adder_run = analyzer
        .analyze(
            &adder.netlist,
            &[adder.a.clone(), adder.b.clone()],
            &[(adder.cin, false)],
        )
        .unwrap();
    let mult_run = analyzer
        .analyze(&mult.netlist, &[mult.x.clone(), mult.y.clone()], &[])
        .unwrap();
    let det_run = analyzer
        .analyze(&det.netlist, &detector_buses(&det), &[])
        .unwrap();
    for run in [&adder_run, &mult_run, &det_run] {
        assert_eq!(run.activity.useless, 0, "zero delay cannot glitch");
        assert!(run.activity.useful > 0);
    }
}

#[test]
fn pipelined_direction_detector_computes_the_same_directions() {
    let det = DirectionDetector::with_options(6, false, AdderStyle::CompoundCell);
    let ranks = 3usize;
    let piped = pipeline_netlist(&det.netlist, ranks, PipelineOptions::default()).unwrap();
    piped.netlist.validate().unwrap();
    assert_eq!(piped.map.latency(), ranks);

    // Drive both implementations with the same vectors; the pipelined one
    // answers `ranks` cycles later.
    let mut flat_sim = ClockedSimulator::new(&det.netlist, UnitDelay).unwrap();
    let mut piped_sim = ClockedSimulator::new(&piped.netlist, UnitDelay).unwrap();

    let remap = |bus: &Bus| -> Bus {
        Bus::new(
            bus.bits()
                .iter()
                .map(|&b| piped.netlist.find_net(det.netlist.net(b).name()).unwrap())
                .collect(),
        )
    };
    let piped_inputs: Vec<Bus> = detector_buses(&det).iter().map(&remap).collect();
    let flat_inputs = detector_buses(&det);
    let piped_direction = Bus::new(
        det.direction
            .bits()
            .iter()
            .map(|&b| {
                let name = det.netlist.net(b).name();
                piped
                    .netlist
                    .outputs()
                    .iter()
                    .copied()
                    .find(|&o| {
                        let n = piped.netlist.net(o).name();
                        n == name || n.starts_with(&format!("{name}_pipe"))
                    })
                    .unwrap()
            })
            .collect(),
    );

    let mut gen_flat = RandomStimulus::new(flat_inputs, 40, 2024);
    let mut gen_piped = RandomStimulus::new(piped_inputs, 40, 2024);
    let mut flat_history = Vec::new();
    for cycle in 0..40usize {
        let vf = gen_flat.next_vector().unwrap();
        let vp = gen_piped.next_vector().unwrap();
        flat_sim.step(vf).unwrap();
        piped_sim.step(vp).unwrap();
        flat_history.push(flat_sim.bus_value(&det.direction).unwrap());
        if cycle >= ranks {
            let expected = flat_history[cycle - ranks];
            assert_eq!(
                piped_sim.bus_value(&piped_direction).unwrap(),
                expected,
                "cycle {cycle}"
            );
        }
    }
}

#[test]
fn pipelining_reduces_imbalance_and_glitches_together() {
    let det = DirectionDetector::with_options(6, false, AdderStyle::CompoundCell);
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 150,
        ..AnalysisConfig::default()
    });
    let explorer = PowerExplorer::new(analyzer);
    let buses = detector_buses(&det);
    let result = explorer
        .explore(&det.netlist, &[1, 6], &buses, &[])
        .unwrap();
    let shallow = &result.points()[0];
    let deep = &result.points()[1];
    assert!(deep.activity.useless < shallow.activity.useless);
    assert!(deep.flipflops > shallow.flipflops);
    assert!(deep.power.logic < shallow.power.logic);
    assert!(deep.gate_equivalents > shallow.gate_equivalents);

    // The structural imbalance metric falls as well.
    let piped1 = pipeline_netlist(&det.netlist, 1, PipelineOptions::default()).unwrap();
    let piped6 = pipeline_netlist(&det.netlist, 6, PipelineOptions::default()).unwrap();
    assert!(delay_imbalance(&piped6.netlist).unwrap() < delay_imbalance(&piped1.netlist).unwrap());
}

#[test]
fn vcd_recording_captures_activity_of_a_real_run() {
    let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
    let mut report = SimSession::new(&adder.netlist)
        .delay_model(UnitDelay)
        .probe(VcdProbe::new(VcdRecorder::new(100)))
        .stimulus([
            InputAssignment::new()
                .with_bus(&adder.a, 5)
                .with_bus(&adder.b, 9)
                .with(adder.cin, false),
            InputAssignment::new()
                .with_bus(&adder.a, 10)
                .with_bus(&adder.b, 6)
                .with(adder.cin, false),
        ])
        .run()
        .unwrap();
    let vcd = report.take_probe::<VcdProbe>().unwrap();
    assert!(vcd.change_count() > 10);
    let text = vcd.into_vcd();
    assert!(text.contains("$enddefinitions"));
    assert!(text.contains("#100"));
}

#[test]
fn report_totals_are_conserved_across_groupings() {
    use glitch_core::activity::GroupedActivity;
    let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
    let analysis = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 200,
        ..AnalysisConfig::default()
    })
    .analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )
    .unwrap();
    let sums = GroupedActivity::from_nets("sum", &adder.netlist, &analysis.trace, adder.sum.bits());
    let carries = GroupedActivity::from_nets(
        "carry",
        &adder.netlist,
        &analysis.trace,
        adder.carries.bits(),
    );
    // Sum and carry nets are exactly the non-input nets of the adder, so the
    // grouped totals must add up to the report totals.
    let totals = analysis.activity;
    assert_eq!(
        sums.total_transitions() + carries.total_transitions(),
        totals.transitions
    );
    assert_eq!(sums.total_useful() + carries.total_useful(), totals.useful);
    assert_eq!(
        sums.total_useless() + carries.total_useless(),
        totals.useless
    );
}

#[test]
fn gate_level_and_compound_cell_adders_have_identical_useful_activity() {
    // The two structural styles implement the same function, so the number
    // of useful transitions on the shared (sum) outputs must match exactly
    // for the same stimulus.
    let compound = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
    let gates = RippleCarryAdder::new(6, AdderStyle::Gates);
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 200,
        seed: 9,
        ..Default::default()
    });
    let a = analyzer
        .analyze(
            &compound.netlist,
            &[compound.a.clone(), compound.b.clone()],
            &[(compound.cin, false)],
        )
        .unwrap();
    let b = analyzer
        .analyze(
            &gates.netlist,
            &[gates.a.clone(), gates.b.clone()],
            &[(gates.cin, false)],
        )
        .unwrap();
    let sum_useful_a: u64 = compound
        .sum
        .bits()
        .iter()
        .map(|&n| a.trace.node(n.index()).useful())
        .sum();
    let sum_useful_b: u64 = gates
        .sum
        .bits()
        .iter()
        .map(|&n| b.trace.node(n.index()).useful())
        .sum();
    assert_eq!(sum_useful_a, sum_useful_b);
}

#[test]
fn zero_delay_equals_unit_delay_useful_counts() {
    // Delay models change *when* nodes switch inside the cycle but not the
    // final values, so useful transitions are delay-model-independent.
    let mult = ArrayMultiplier::new(6, AdderStyle::CompoundCell);
    let buses = [mult.x.clone(), mult.y.clone()];
    let base = AnalysisConfig {
        cycles: 150,
        seed: 4,
        ..AnalysisConfig::default()
    };
    let unit = GlitchAnalyzer::new(base.clone())
        .analyze(&mult.netlist, &buses, &[])
        .unwrap();
    let zero = GlitchAnalyzer::new(AnalysisConfig {
        delay: DelayKind::Zero,
        ..base
    })
    .analyze(&mult.netlist, &buses, &[])
    .unwrap();
    assert_eq!(unit.activity.useful, zero.activity.useful);
    assert!(unit.activity.useless > zero.activity.useless);
}

#[test]
fn zero_delay_simulation_matches_functional_model() {
    let mult = ArrayMultiplier::new(6, AdderStyle::CompoundCell);
    let mut sim = ClockedSimulator::new(&mult.netlist, ZeroDelay).unwrap();
    for (a, b) in [(0u64, 0u64), (63, 63), (17, 42), (5, 40)] {
        sim.step(
            InputAssignment::new()
                .with_bus(&mult.x, a)
                .with_bus(&mult.y, b),
        )
        .unwrap();
        assert_eq!(sim.bus_value(&mult.product).unwrap(), a * b);
    }
}
