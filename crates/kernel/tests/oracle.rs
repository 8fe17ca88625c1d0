//! Differential oracle: the compiled kernel against the event-driven
//! reference simulator, on random synchronous circuits.
//!
//! Two layers of evidence that the kernel is a faithful *functional*
//! model of `glitch_sim::ClockedSimulator`:
//!
//! * **Value identity.** For random feed-forward netlists and random
//!   stimuli, every net's end-of-cycle value out of [`KernelProgram::eval`]
//!   equals the settled value of a per-lane [`ClockedSimulator`] after
//!   `step` — every cycle, every lane, both for binary runs
//!   ([`SimOptions::default`]) and for uninitialised-flipflop three-valued
//!   runs ([`SimOptions::x_init`]). Lane counts cross the 64-bit word
//!   boundary (1, 2, 64, 100) so tail-masking is exercised.
//! * **Report identity.** The hybrid engine must be *bit-identical* to
//!   the queue engine, the event-driven reference, in everything it
//!   reports: `analyze --seeds` aggregates and `check` verification
//!   reports compare with `==` at any jobs count. The hybrid settles
//!   `analyze --seeds` jobs on the timed kernel, so the `analyze` cases
//!   compare the timed path against the event one; checks settle event
//!   by event under both.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::verify::{BudgetSpec, CheckSuite};
use glitch_core::{AnalysisConfig, EngineKind, GlitchAnalyzer};
use glitch_kernel::KernelProgram;
use glitch_netlist::{Bus, NetId, Netlist, Tri};
use glitch_sim::{kernel_eval_mode, ClockedSimulator, InputAssignment, SimOptions, UnitDelay};
use proptest::prelude::*;
use support::RandomNetlist;

/// Per-lane stimulus derived from the shared cycle words: rotate and
/// xor-mix by lane so lanes diverge, and clear the skip bit so every
/// input is assigned every cycle (held-over inputs are the event-driven
/// simulator's concern, not part of the functional contract under test).
fn lane_assignments(inputs: &[NetId], cycle_words: &[u64], lane: usize) -> Vec<InputAssignment> {
    let mixed: Vec<u64> = cycle_words
        .iter()
        .map(|&word| {
            (word.rotate_left(lane as u32 % 31)
                ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1))
                & !(1 << 63)
        })
        .collect();
    support::build_assignments(inputs, &mixed)
}

/// Runs `lanes` independent stimuli through one kernel state and through
/// `lanes` reference simulators, comparing every net after every cycle.
fn assert_kernel_matches_clocked(
    netlist: &Netlist,
    inputs: &[NetId],
    cycle_words: &[u64],
    lanes: usize,
    options: SimOptions,
) {
    let program = KernelProgram::compile(netlist).expect("support netlists are acyclic");
    let mode = kernel_eval_mode(options.x_eval);
    let mut state = program.new_state(lanes, Tri::from(options.dff_init));
    let per_lane: Vec<Vec<InputAssignment>> = (0..lanes)
        .map(|lane| lane_assignments(inputs, cycle_words, lane))
        .collect();
    let mut sims: Vec<ClockedSimulator<'_>> = (0..lanes)
        .map(|_| {
            ClockedSimulator::with_options(netlist, UnitDelay, options)
                .expect("support netlists validate")
        })
        .collect();

    for cycle in 0..cycle_words.len() {
        program.begin_cycle(&mut state);
        for (lane, assignments) in per_lane.iter().enumerate() {
            for &(net, value) in assignments[cycle].assignments() {
                state.set_bool(net, lane, value);
            }
        }
        program.eval(&mut state, mode);
        for (lane, sim) in sims.iter_mut().enumerate() {
            sim.step(per_lane[lane][cycle].clone())
                .expect("unit-delay settle fits the default budget");
            for index in 0..netlist.net_count() {
                let net = NetId::from_index(index);
                let expect = Tri::from(sim.net_value(net));
                let got = state.get(net, lane);
                assert_eq!(
                    got, expect,
                    "net {index} diverged: cycle {cycle}, lane {lane}/{lanes}, {options:?}"
                );
            }
        }
        program.latch(&mut state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// End-of-cycle value identity on random circuits, binary and
    /// three-valued, across word-boundary lane counts.
    #[test]
    fn kernel_values_match_the_event_driven_simulator(
        input_count in 1usize..6,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 1..48),
        cycle_words in proptest::collection::vec(0u64..u64::MAX, 4..10),
    ) {
        let RandomNetlist { netlist, inputs } = support::build_netlist(input_count, &gate_words);
        for lanes in [1usize, 2, 64, 100] {
            assert_kernel_matches_clocked(&netlist, &inputs, &cycle_words, lanes,
                SimOptions::default());
            assert_kernel_matches_clocked(&netlist, &inputs, &cycle_words, lanes,
                SimOptions::x_init());
        }
    }
}

fn analyzer(engine: EngineKind, cycles: u64, options: SimOptions) -> GlitchAnalyzer {
    GlitchAnalyzer::new(AnalysisConfig {
        cycles,
        engine,
        options,
        ..AnalysisConfig::default()
    })
}

/// The check fixture from `glitch-core`: a counter-like circuit whose
/// uninitialised flipflop reaches an output, so the X-propagation checker
/// has something to find.
fn x_bug_fixture() -> (Netlist, Vec<Bus>) {
    let mut nl = Netlist::new("oracle x fixture");
    let en = nl.add_input("en");
    let d = nl.add_input("d");
    let q = nl.dff(d, "q");
    let y = nl.xor2(en, q, "y");
    let z = nl.and2(en, q, "z");
    nl.mark_output(y);
    nl.mark_output(z);
    let buses = vec![Bus::new(nl.inputs().to_vec())];
    (nl, buses)
}

#[test]
fn hybrid_analyze_is_bit_identical_to_queue() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let seeds = [3u64, 5, 8, 13];
    for jobs in [1usize, 3] {
        let queue = analyzer(EngineKind::Queue, 80, SimOptions::default())
            .analyze_seeds(
                &mult.netlist,
                &buses,
                &[],
                &seeds,
                jobs,
                &|_| Vec::new(),
                None,
            )
            .expect("queue analysis runs")
            .0;
        let hybrid = analyzer(EngineKind::Hybrid, 80, SimOptions::default())
            .analyze_seeds(
                &mult.netlist,
                &buses,
                &[],
                &seeds,
                jobs,
                &|_| Vec::new(),
                None,
            )
            .expect("hybrid analysis runs")
            .0;
        assert_eq!(hybrid.aggregate, queue.aggregate, "jobs={jobs}");
        assert_eq!(hybrid.power(), queue.power(), "jobs={jobs}");
        assert_eq!(hybrid.seeds, queue.seeds, "jobs={jobs}");
        assert_eq!(hybrid.trace(), queue.trace(), "jobs={jobs}");
        assert_eq!(hybrid.activity(), queue.activity(), "jobs={jobs}");
        assert!(hybrid.kernel.is_none(), "hybrid has no kernel telemetry");
        assert!(queue.kernel.is_none(), "queue has no kernel telemetry");
    }
}

#[test]
fn hybrid_analyze_matches_queue_on_random_sequential_circuits() {
    // A fixed handful of generator words: sequential (DFF-bearing) random
    // circuits under the x-init preset, the adversarial case for the timed
    // kernel's flipflop start states.
    let gate_words: Vec<u64> = (0..24)
        .map(|i: u64| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (i << 11))
        .collect();
    let RandomNetlist { netlist, inputs } = support::build_netlist(4, &gate_words);
    let buses = vec![Bus::new(inputs)];
    let seeds = [21u64, 34, 55];
    for options in [SimOptions::default(), SimOptions::x_init()] {
        let queue = analyzer(EngineKind::Queue, 60, options)
            .analyze_seeds(&netlist, &buses, &[], &seeds, 2, &|_| Vec::new(), None)
            .expect("queue analysis runs")
            .0;
        let hybrid = analyzer(EngineKind::Hybrid, 60, options)
            .analyze_seeds(&netlist, &buses, &[], &seeds, 2, &|_| Vec::new(), None)
            .expect("hybrid analysis runs")
            .0;
        assert_eq!(hybrid.aggregate, queue.aggregate, "{options:?}");
        assert_eq!(hybrid.power(), queue.power(), "{options:?}");
        assert_eq!(hybrid.trace(), queue.trace(), "{options:?}");
        assert_eq!(hybrid.activity(), queue.activity(), "{options:?}");
    }
}

#[test]
fn hybrid_check_report_is_bit_identical_to_queue() {
    let (nl, buses) = x_bug_fixture();
    let budgets = BudgetSpec::parse_list("*=cycle")
        .expect("literal spec parses")
        .resolve(&nl)
        .expect("fixture nets resolve");
    let suite = CheckSuite::new()
        .with_x_propagation()
        .with_budgets(budgets)
        .with_hazards();
    let seeds = [7u64, 8, 9, 10];
    for jobs in [1usize, 2] {
        let queue = analyzer(EngineKind::Queue, 60, SimOptions::x_init())
            .check_seeds(&nl, &buses, &[], &suite, &seeds, jobs)
            .expect("queue check runs");
        let hybrid = analyzer(EngineKind::Hybrid, 60, SimOptions::x_init())
            .check_seeds(&nl, &buses, &[], &suite, &seeds, jobs)
            .expect("hybrid check runs");
        assert_eq!(hybrid.report, queue.report, "jobs={jobs}");
        assert_eq!(
            hybrid.analysis.aggregate, queue.analysis.aggregate,
            "jobs={jobs}"
        );
        // The fixture's bug must actually be found, under either engine.
        assert!(!queue.report.passed(), "the uninitialised q reaches y");
    }
}
