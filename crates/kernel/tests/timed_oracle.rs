//! Differential oracle: batch jobs settled on the timed kernel against the
//! event-driven session.
//!
//! `ParallelRunner::run_jobs` settles every job that qualifies on the
//! timed kernel. Its report must equal `ParallelRunner::run_sessions` (a
//! `SimSession::run` per job) on every deterministic field: the cycle
//! count, every cycle's `CycleStats`, the final net values, the activity
//! trace with its per-net rising counts, the power report, the stats probe
//! and the queue statistics. Cases cover random sequential circuits and
//! the 8-bit compound-cell multiplier under unit, zero, realistic-adder,
//! library and two custom delay models, binary and X-init options, cycle
//! counts around the 64-lane word boundary, and held inputs. The routing
//! cases pin the jobs that must stay on the event path.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_io::GateLibrary;
use glitch_kernel::KernelProgram;
use glitch_netlist::{Bus, CellKind, NetId, Netlist};
use glitch_sim::{
    ActivityProbe, CellDelay, DelayKind, ParallelRunner, PowerProbe, SessionReport, SimError,
    SimJob, SimOptions, StatsProbe,
};
use proptest::prelude::*;
use support::RandomNetlist;

const CYCLE_COUNTS: [u64; 5] = [1, 63, 64, 65, 200];

fn delay_models() -> Vec<DelayKind> {
    vec![
        DelayKind::Unit,
        DelayKind::Zero,
        DelayKind::RealisticAdderCells,
        DelayKind::Custom(GateLibrary::standard().cell_delay()),
        DelayKind::Custom(CellDelay::new().with_full_adder(4, 1)),
        DelayKind::Custom(CellDelay::new().with_default(9)),
    ]
}

/// Asserts two reports agree on every field of the timed contract.
fn assert_same_report(netlist: &Netlist, event: &SessionReport, timed: &SessionReport, case: &str) {
    assert_eq!(event.cycles(), timed.cycles(), "cycles: {case}");
    assert_eq!(
        event.cycle_stats(),
        timed.cycle_stats(),
        "cycle stats: {case}"
    );
    assert_eq!(
        event.queue_stats(),
        timed.queue_stats(),
        "queue stats: {case}"
    );
    for index in 0..netlist.net_count() {
        let net = NetId::from_index(index);
        assert_eq!(
            event.net_value(net),
            timed.net_value(net),
            "final value of net {index}: {case}"
        );
    }
    let (ea, ta) = (
        event.probe::<ActivityProbe>().expect("standard probes"),
        timed.probe::<ActivityProbe>().expect("standard probes"),
    );
    assert_eq!(ea.trace(), ta.trace(), "activity trace: {case}");
    for index in 0..netlist.net_count() {
        let net = NetId::from_index(index);
        assert_eq!(
            ea.rising_transitions(net),
            ta.rising_transitions(net),
            "rises on net {index}: {case}"
        );
    }
    assert_eq!(
        event.probe::<PowerProbe>().and_then(PowerProbe::report),
        timed.probe::<PowerProbe>().and_then(PowerProbe::report),
        "power report: {case}"
    );
    assert_eq!(
        event.probe::<StatsProbe>(),
        timed.probe::<StatsProbe>(),
        "stats probe: {case}"
    );
}

/// Runs `job` both ways and compares; `timed` says whether the routed run
/// must have settled on the timed kernel.
fn check_job(job: &SimJob<'_>, program: &KernelProgram, timed: bool, case: &str) {
    let runner = ParallelRunner::new(1);
    let jobs = std::slice::from_ref(job);
    assert_eq!(
        job.timed_schedule(program).is_some(),
        timed,
        "routing: {case}"
    );
    let routed = runner.run_jobs(jobs, program);
    let event = runner.run_sessions(jobs);
    match (event, routed) {
        (Ok(mut event), Ok(mut routed)) => {
            let (event, routed) = (event.remove(0), routed.remove(0));
            assert_eq!(routed.timed_work().is_some(), timed, "settle path: {case}");
            assert!(event.timed_work().is_none());
            assert_same_report(job.netlist, &event, &routed, case);
        }
        (Err(event), Err(routed)) => assert_eq!(event, routed, "error: {case}"),
        (event, routed) => panic!(
            "outcomes differ ({case}): event {:?}, routed {:?}",
            event.map(|_| ()),
            routed.map(|_| ())
        ),
    }
}

/// Every delay model × option set × cycle count on one circuit.
fn check_all(netlist: &Netlist, buses: &[Bus], held: &[(NetId, bool)], seed: u64) {
    let program = KernelProgram::compile(netlist).expect("acyclic");
    for delay in delay_models() {
        for options in [SimOptions::default(), SimOptions::x_init()] {
            for cycles in CYCLE_COUNTS {
                let job = SimJob::new(netlist, buses.to_vec(), cycles, seed)
                    .with_delay(delay.clone())
                    .with_held(held.to_vec())
                    .with_options(options);
                let case = format!("{} {delay:?} {options:?} {cycles} cycles", netlist.name());
                check_job(&job, &program, true, &case);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random sequential circuits: some inputs random, the rest held.
    #[test]
    fn timed_jobs_match_the_event_path_on_random_circuits(
        input_count in 1usize..6,
        held_count in 0usize..3,
        gate_words in proptest::collection::vec(0u64..u64::MAX, 1..40),
        seed in 0u64..1000,
    ) {
        let RandomNetlist { netlist, inputs } = support::build_netlist(input_count, &gate_words);
        let held_count = held_count.min(inputs.len() - 1);
        let (held, random) = inputs.split_at(held_count);
        let held: Vec<(NetId, bool)> =
            held.iter().enumerate().map(|(i, &net)| (net, (seed >> i) & 1 == 1)).collect();
        check_all(&netlist, &[Bus::new(random.to_vec())], &held, seed);
    }
}

#[test]
fn timed_jobs_match_the_event_path_on_the_8_bit_multiplier() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    check_all(
        &mult.netlist,
        &[mult.x.clone(), mult.y.clone()],
        &[],
        0xDA7E_1995,
    );
}

#[test]
fn an_input_driven_twice_per_cycle_counts_every_drive() {
    let RandomNetlist { netlist, inputs } = support::build_netlist(3, &[3, 1 << 8, 5 << 20, 6]);
    // The held value is driven after the random one, so in about half the
    // cycles the input is scheduled twice and may end where it started.
    let held = vec![(inputs[0], true)];
    let program = KernelProgram::compile(&netlist).expect("acyclic");
    for delay in [DelayKind::Unit, DelayKind::Zero] {
        let job = SimJob::new(&netlist, vec![Bus::new(inputs.clone())], 70, 9)
            .with_delay(delay.clone())
            .with_held(held.clone());
        check_job(&job, &program, true, &format!("double drive {delay:?}"));
    }
}

#[test]
fn a_zero_delay_cell_in_a_timed_model_takes_the_event_path() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let RandomNetlist { netlist, inputs } = support::build_netlist(
        4,
        &(0..30u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9))
            .collect::<Vec<_>>(),
    );
    let mixed = DelayKind::Custom(CellDelay::new().with_kind(CellKind::Inv, 0));
    for (nl, buses) in [
        (&mult.netlist, vec![mult.x.clone(), mult.y.clone()]),
        (&netlist, vec![Bus::new(inputs.clone())]),
    ] {
        let program = KernelProgram::compile(nl).expect("acyclic");
        let has_inv = nl.cells().any(|(_, cell)| cell.kind() == CellKind::Inv);
        let job = SimJob::new(nl, buses, 65, 4).with_delay(mixed.clone());
        check_job(&job, &program, !has_inv, "zero-delay Inv");
    }
}

#[test]
fn a_budget_below_the_horizon_takes_the_event_path() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let unit = SimJob::new(&mult.netlist, buses.clone(), 20, 1);
    let horizon = unit
        .timed_schedule(&program)
        .expect("unit delay qualifies")
        .horizon();
    for budget in [3, horizon - 1] {
        let job = unit.clone().with_options(SimOptions {
            settle_budget: budget,
            ..SimOptions::default()
        });
        check_job(&job, &program, false, &format!("budget {budget}"));
    }
    let tight = unit.with_options(SimOptions {
        settle_budget: 3,
        ..SimOptions::default()
    });
    assert!(matches!(
        ParallelRunner::new(1).run_jobs(&[tight], &program),
        Err(SimError::DidNotSettle { .. })
    ));
}

#[test]
fn a_non_input_drive_fails_like_the_event_path() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let output = mult.product.bit(0);
    let job = SimJob::new(
        &mult.netlist,
        vec![mult.x.clone(), Bus::new(vec![output])],
        5,
        1,
    );
    check_job(&job, &program, true, "non-input drive");
}
