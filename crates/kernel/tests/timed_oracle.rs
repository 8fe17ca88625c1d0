//! Differential oracle: batch jobs settled on the timed kernel against the
//! event-driven session.
//!
//! `ParallelRunner::run_jobs` settles every job that qualifies on the
//! timed kernel. Its report must equal `ParallelRunner::run_sessions` (a
//! `SimSession::run` per job) on every deterministic field: the cycle
//! count, every cycle's `CycleStats`, the final net values, the activity
//! trace with its per-net rising counts, the power report priced from it,
//! the run totals and the queue statistics. Cases cover random sequential circuits and
//! the 8-bit compound-cell multiplier under unit, zero, realistic-adder,
//! library and two custom delay models, binary and X-init options, cycle
//! counts around the 64-lane word boundary, and held inputs; the
//! multiplier and the corpus counter also run cycle counts around the
//! 256-lane block boundary (a one-lane tail block included), each with and
//! without statistics and with and without the hazard planes; the corpus
//! counter and the multiplier pipelined to 4 ranks run 300 and 600
//! cycles, so their flipflop state carries across blocks of lanes. Every case
//! also attaches a `HazardChecker`, an `XPropagationChecker` and an
//! X-propagation + hazard checker suite to both paths, which the routed run fills in bulk, and compares
//! their findings; hand cases pin a net that goes `X` late in a hazardous
//! cycle and a net stuck at `X`. The routing cases pin the jobs that must
//! stay on the event path. The flip cases run input-flipped jobs
//! (`SimJob::with_flips`) on the corpus adder, multiplier and counter and
//! compare both paths against a plain session over the
//! `DeltaStimulus::apply_to`-merged assignments, including a counter
//! `en` flip whose flipflop divergence lasts to the end of the run. The
//! output-record case compares every primary output's end-of-cycle
//! values (`OutputProbe`) on the corpus adder and counter, the multiplier
//! and its 4-rank pipelined form.

#[path = "../../sim/tests/support/mod.rs"]
#[allow(dead_code)]
mod support;

use glitch_arith::{AdderStyle, ArrayMultiplier};
use glitch_core::retime::{pipeline_netlist, PipelineOptions};
use glitch_io::{parse_netlist, Format, GateLibrary};
use glitch_kernel::KernelProgram;
use glitch_netlist::{Bus, CellKind, NetId, Netlist};
use glitch_sim::{
    ActivityProbe, AggregateReport, CellDelay, DelayKind, DeltaStimulus, OutputProbe,
    ParallelRunner, Probe, SessionReport, SimBaseline, SimError, SimJob, SimOptions, SimSession,
    Value,
};
use glitch_verify::{
    BudgetSpec, CheckSuite, CheckerProbe, HazardChecker, VerifyReport, XPropagationChecker,
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
    assert_same_results(netlist, event, timed, case);
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
    let totals = |report: &SessionReport| {
        (
            report.total_transitions(),
            report.total_events(),
            report.total_cell_evals(),
            report.max_settle_time(),
        )
    };
    assert_eq!(totals(event), totals(timed), "run totals: {case}");
}

/// Asserts two reports agree on every field but the per-cycle statistics
/// and queue traffic: what a run settled without them still reports.
fn assert_same_results(
    netlist: &Netlist,
    event: &SessionReport,
    timed: &SessionReport,
    case: &str,
) {
    assert_eq!(event.cycles(), timed.cycles(), "cycles: {case}");
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
    let power = ea.power(netlist);
    assert!(power.is_some(), "priced activity: {case}");
    assert_eq!(power, ta.power(netlist), "power report: {case}");
}

/// The hazard and X-propagation checkers every oracle case attaches: two
/// on their own, to read their per-net findings, and a suite.
fn checker_probes(_job: usize) -> Vec<Box<dyn Probe>> {
    vec![
        Box::new(HazardChecker::new()),
        Box::new(
            CheckSuite::new()
                .with_x_propagation()
                .with_hazards()
                .build(),
        ),
        Box::new(XPropagationChecker::new()),
    ]
}

/// The suite report of a run with [`checker_probes`] attached.
fn verify_report(netlist: &Netlist, report: &SessionReport) -> VerifyReport {
    report
        .probe::<CheckerProbe>()
        .expect("checker probes attached")
        .report(netlist)
}

/// Asserts the [`checker_probes`] of two runs found the same.
fn assert_same_checks(netlist: &Netlist, event: &SessionReport, timed: &SessionReport, case: &str) {
    let (eh, th) = (
        event.probe::<HazardChecker>().expect("hazard checker"),
        timed.probe::<HazardChecker>().expect("hazard checker"),
    );
    assert_eq!(eh.totals(), th.totals(), "hazard totals: {case}");
    let (ex, tx) = (
        event.probe::<XPropagationChecker>().expect("x checker"),
        timed.probe::<XPropagationChecker>().expect("x checker"),
    );
    for index in 0..netlist.net_count() {
        let net = NetId::from_index(index);
        assert_eq!(
            eh.hazards_on(net),
            th.hazards_on(net),
            "hazards on net {index}: {case}"
        );
        assert_eq!(
            ex.first_x_cycle(net),
            tx.first_x_cycle(net),
            "first X of net {index}: {case}"
        );
    }
    assert_eq!(ex.clear_cycle(), tx.clear_cycle(), "clear cycle: {case}");
    assert_eq!(
        verify_report(netlist, event),
        verify_report(netlist, timed),
        "verify report: {case}"
    );
}

/// Runs `job` both ways and compares; `timed` says whether the routed run
/// must have settled on the timed kernel. The routed run goes with and
/// without the [`checker_probes`] (the hazard planes), each with and
/// without statistics; the event run goes with them.
fn check_job(job: &SimJob<'_>, program: &KernelProgram, timed: bool, case: &str) {
    let runner = ParallelRunner::new(1);
    let jobs = std::slice::from_ref(job);
    assert_eq!(
        job.timed_schedule(program).is_some(),
        timed,
        "routing: {case}"
    );
    let routed = runner.run_jobs(jobs, program, &checker_probes);
    let bare = runner.run_jobs(jobs, program, &|_| Vec::new());
    let unmetered = [job.clone().with_statistics(false)];
    let quiet = runner.run_jobs(&unmetered, program, &checker_probes);
    let plain = runner.run_jobs(&unmetered, program, &|_| Vec::new());
    let event = runner.run_sessions_with(jobs, &checker_probes);
    match (event, routed, bare, quiet, plain) {
        (Ok(mut event), Ok(mut routed), Ok(mut bare), Ok(mut quiet), Ok(mut plain)) => {
            let (event, routed, bare, quiet, plain) = (
                event.remove(0),
                routed.remove(0),
                bare.remove(0),
                quiet.remove(0),
                plain.remove(0),
            );
            assert_eq!(routed.timed_work().is_some(), timed, "settle path: {case}");
            assert_eq!(
                bare.timed_work().is_some(),
                timed,
                "bare settle path: {case}"
            );
            assert_eq!(
                quiet.timed_work().is_some(),
                timed,
                "quiet settle path: {case}"
            );
            assert_eq!(
                plain.timed_work().is_some(),
                timed,
                "plain settle path: {case}"
            );
            assert!(event.timed_work().is_none());
            assert_same_report(job.netlist, &event, &routed, case);
            assert_same_report(job.netlist, &event, &bare, case);
            assert_same_checks(job.netlist, &event, &routed, case);
            // Without statistics: every other field as with them, and as
            // on the event path; no statistics to read zeros from.
            assert_same_results(job.netlist, &routed, &quiet, case);
            assert_same_results(job.netlist, &event, &quiet, case);
            assert_same_checks(job.netlist, &event, &quiet, case);
            assert_same_results(job.netlist, &event, &plain, case);
            if timed {
                assert!(!quiet.has_statistics(), "{case}");
                assert!(!plain.has_statistics(), "{case}");
            } else {
                // The event path always counts.
                assert_same_report(job.netlist, &event, &quiet, case);
                assert_same_report(job.netlist, &event, &plain, case);
            }
        }
        (Err(event), Err(routed), Err(bare), Err(quiet), Err(plain)) => {
            assert_eq!(event, routed, "error: {case}");
            assert_eq!(event, bare, "bare error: {case}");
            assert_eq!(event, quiet, "quiet error: {case}");
            assert_eq!(event, plain, "plain error: {case}");
        }
        (event, routed, bare, quiet, plain) => panic!(
            "outcomes differ ({case}): event {:?}, routed {:?}, bare {:?}, quiet {:?}, plain {:?}",
            event.map(|_| ()),
            routed.map(|_| ()),
            bare.map(|_| ()),
            quiet.map(|_| ()),
            plain.map(|_| ())
        ),
    }
}

/// Every delay model × option set × cycle count on one circuit.
fn check_all(netlist: &Netlist, buses: &[Bus], held: &[(NetId, bool)], seed: u64) {
    check_cycles(netlist, buses, held, seed, &CYCLE_COUNTS);
}

/// Every delay model × option set on one circuit, for each of `cycle_counts`.
fn check_cycles(
    netlist: &Netlist,
    buses: &[Bus],
    held: &[(NetId, bool)],
    seed: u64,
    cycle_counts: &[u64],
) {
    let program = KernelProgram::compile(netlist).expect("acyclic");
    for delay in delay_models() {
        for options in [SimOptions::default(), SimOptions::x_init()] {
            for &cycles in cycle_counts {
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

/// Runs longer than one block of lanes: the flipflop state settled in one
/// block must carry into the next.
const CROSS_BLOCK_CYCLES: [u64; 2] = [300, 600];

/// A netlist of the bundled corpus.
fn corpus(file: &str) -> Netlist {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).expect("corpus file readable");
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("parses")
}

#[test]
fn timed_jobs_match_the_event_path_on_the_counter_across_blocks() {
    let counter = corpus("counter4.blif");
    let buses = [Bus::new(counter.inputs().to_vec())];
    check_cycles(&counter, &buses, &[], 0xC0DE, &CROSS_BLOCK_CYCLES);
}

#[test]
fn timed_jobs_match_the_event_path_on_the_pipelined_multiplier_across_blocks() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let piped = pipeline_netlist(&mult.netlist, 4, PipelineOptions::default()).expect("pipelines");
    let buses: Vec<Bus> = [&mult.x, &mult.y]
        .into_iter()
        .map(|bus| Bus::new(bus.iter().map(|&net| piped.map.new_net(net)).collect()))
        .collect();
    check_cycles(
        &piped.netlist,
        &buses,
        &[],
        0xDA7E_1995,
        &CROSS_BLOCK_CYCLES,
    );
}

/// Cycle counts around the 256-lane block: within one word, at and
/// around the word and block boundaries, a partial tail block one lane
/// long, and several blocks.
const BLOCK_BOUNDARY_CYCLES: [u64; 8] = [1, 63, 64, 65, 255, 256, 257, 1000];

#[test]
fn timed_jobs_match_the_event_path_at_block_boundaries() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let counter = corpus("counter4.blif");
    let circuits = [
        (&mult.netlist, vec![mult.x.clone(), mult.y.clone()]),
        (&counter, vec![Bus::new(counter.inputs().to_vec())]),
    ];
    for (netlist, buses) in circuits {
        let program = KernelProgram::compile(netlist).expect("acyclic");
        for delay in [
            DelayKind::Unit,
            DelayKind::Zero,
            DelayKind::RealisticAdderCells,
        ] {
            for cycles in BLOCK_BOUNDARY_CYCLES {
                let job =
                    SimJob::new(netlist, buses.clone(), cycles, 0xB10C).with_delay(delay.clone());
                let case = format!("{} {delay:?} {cycles} cycles", netlist.name());
                check_job(&job, &program, true, &case);
            }
        }
    }
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
        ParallelRunner::new(1).run_jobs(&[tight], &program, &|_| Vec::new()),
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

/// `y = AND(XNOR(a, buf²(a)), OR(q, NOT³ a))`, `q` a flipflop that holds
/// itself and so stays `X` under x-init. In a cycle where `a` rises, `y`
/// goes `1 → 0 → 1` and then `X`, once the slow inverter chain stops
/// masking `q`: two switching transitions back to the start level, but an
/// `X` end, which is no hazard. Its dual `z = OR(XOR(a, buf²(a)),
/// AND(q, NOT³ a))` goes `0 → 1 → 0 → X` where `a` falls. Returns the
/// netlist, `a`, `q`, `y` and `z`.
fn late_x_circuit() -> (Netlist, NetId, NetId, NetId, NetId) {
    let mut nl = Netlist::new("late x");
    let a = nl.add_input("a");
    let b1 = nl.buf(a, "b1");
    let b2 = nl.buf(b1, "b2");
    let same = nl.xnor2(a, b2, "same");
    let q = nl.add_net("q");
    nl.add_cell(CellKind::Dff, "ff", vec![q], vec![q])
        .expect("a flipflop may hold itself");
    let n1 = nl.inv(a, "n1");
    let n2 = nl.inv(n1, "n2");
    let n3 = nl.inv(n2, "n3");
    let gate = nl.or2(q, n3, "gate");
    let y = nl.and2(same, gate, "y");
    let differ = nl.xor2(a, b2, "differ");
    let pass = nl.and2(q, n3, "pass");
    let z = nl.or2(differ, pass, "z");
    nl.mark_output(y);
    nl.mark_output(z);
    (nl, a, q, y, z)
}

#[test]
fn a_net_going_x_after_a_round_trip_counts_no_hazard() {
    let (nl, a, _, y, z) = late_x_circuit();
    let program = KernelProgram::compile(&nl).expect("acyclic");
    let job = SimJob::new(&nl, vec![Bus::new(vec![a])], 200, 7).with_options(SimOptions::x_init());
    check_job(&job, &program, true, "late X");
    let routed = ParallelRunner::new(1)
        .run_jobs(&[job], &program, &checker_probes)
        .expect("settles")
        .remove(0);
    let activity = routed.probe::<ActivityProbe>().expect("standard probes");
    let hazards = routed.probe::<HazardChecker>().expect("attached");
    for net in [y, z] {
        let round_trips = activity.trace().node(net.index()).useless();
        assert!(round_trips > 0, "net {net:?} makes round trips");
        assert_eq!(hazards.hazards_on(net), 0, "net {net:?}");
    }
}

#[test]
fn a_net_stuck_at_x_never_clears_on_either_path() {
    let (nl, a, q, _, _) = late_x_circuit();
    let program = KernelProgram::compile(&nl).expect("acyclic");
    for cycles in [1, 70] {
        let job =
            SimJob::new(&nl, vec![Bus::new(vec![a])], cycles, 3).with_options(SimOptions::x_init());
        check_job(&job, &program, true, &format!("stuck X, {cycles} cycles"));
        let routed = ParallelRunner::new(1)
            .run_jobs(&[job], &program, &checker_probes)
            .expect("settles")
            .remove(0);
        let report = verify_report(&nl, &routed);
        let xprop = report.outcome("x-propagation").expect("suite checker");
        assert!(xprop.metric("stuck_x_nets").expect("metric") > 0);
        assert_eq!(xprop.metric("x_cleared"), Some(0));
        assert_eq!(
            routed
                .probe::<XPropagationChecker>()
                .expect("attached")
                .first_x_cycle(q),
            Some(0)
        );
    }
}

#[test]
fn a_settle_budget_suite_takes_the_event_path() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let budgets = BudgetSpec::parse_list("outputs=4")
        .and_then(|spec| spec.resolve(&mult.netlist))
        .expect("valid budgets");
    let suite = CheckSuite::new()
        .with_x_propagation()
        .with_hazards()
        .with_budgets(budgets);
    let factory = |_: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(suite.build())] };
    let job = SimJob::new(&mult.netlist, vec![mult.x.clone(), mult.y.clone()], 65, 3);
    assert!(job.timed_schedule(&program).is_some(), "delays qualify");
    let runner = ParallelRunner::new(1);
    let routed = runner
        .run_jobs(std::slice::from_ref(&job), &program, &factory)
        .expect("settles")
        .remove(0);
    let event = runner
        .run_sessions_with(std::slice::from_ref(&job), &factory)
        .expect("settles")
        .remove(0);
    assert!(
        routed.timed_work().is_none(),
        "budgets need every transition"
    );
    assert_eq!(
        verify_report(&mult.netlist, &routed),
        verify_report(&mult.netlist, &event)
    );
}

/// The cycle count of the flip cases: more than one block of lanes.
const FLIP_CYCLES: u64 = 300;

/// One flip case: its name, options, and the final net values of the
/// flipped and the configured run.
type FlipCase = (String, SimOptions, Vec<Value>, Vec<Value>);

/// Runs `job` flipped by `delta` on both paths under every delay model and
/// option set, and compares each with a plain session over the merged
/// assignments. Returns each case's options with the final net values of
/// the flipped and the configured run, for callers that check divergence.
fn check_flips(job: &SimJob<'_>, delta: &DeltaStimulus) -> Vec<FlipCase> {
    let netlist = job.netlist;
    let program = KernelProgram::compile(netlist).expect("acyclic");
    let runner = ParallelRunner::new(1);
    let mut finals = Vec::new();
    for delay in delay_models() {
        for options in [SimOptions::default(), SimOptions::x_init()] {
            let base = job.clone().with_delay(delay.clone()).with_options(options);
            let flipped = base.clone().with_flips(delta.clone());
            let case = format!("{} flip {delay:?} {options:?}", netlist.name());
            // The routed (hybrid) and event (queue) runs agree...
            check_job(&flipped, &program, true, &case);
            // ...and equal a session driven by the merged assignments.
            let merged: Vec<_> = base
                .stimulus()
                .zip(0..)
                .map(|(assignment, cycle)| delta.apply_to(cycle, &assignment))
                .collect();
            assert_ne!(
                merged,
                base.stimulus().collect::<Vec<_>>(),
                "the flip changes the stimulus: {case}"
            );
            let reference = SimSession::new(netlist)
                .delay(delay.clone())
                .options(options)
                .stimulus(merged)
                .probe(ActivityProbe::priced(base.technology, base.frequency))
                .run()
                .expect("settles");
            let run = |job: &SimJob<'_>| {
                runner
                    .run_jobs(std::slice::from_ref(job), &program, &|_| Vec::new())
                    .expect("settles")
                    .remove(0)
            };
            let routed = run(&flipped);
            assert!(routed.timed_work().is_some(), "settles timed: {case}");
            assert_same_report(netlist, &reference, &routed, &case);
            let values = |report: &SessionReport| {
                (0..netlist.net_count())
                    .map(|i| report.net_value(NetId::from_index(i)))
                    .collect()
            };
            finals.push((case, options, values(&routed), values(&run(&base))));
        }
    }
    finals
}

#[test]
fn flipped_jobs_match_the_merged_stimulus_on_the_adder() {
    let rca = corpus("rca4.blif");
    let a1 = rca.find_net("a1").expect("input a1");
    let cin = rca.find_net("cin").expect("input cin");
    let job = SimJob::new(
        &rca,
        vec![Bus::new(rca.inputs().to_vec())],
        FLIP_CYCLES,
        0xF11,
    );
    let delta = DeltaStimulus::new()
        .set(40, a1, true)
        .set(40, cin, false)
        .set(299, a1, false);
    check_flips(&job, &delta);
}

#[test]
fn flipped_jobs_match_the_merged_stimulus_on_the_multiplier() {
    let mult = corpus("mult4.blif");
    let x1 = mult.find_net("x[1]").expect("input x[1]");
    let y3 = mult.find_net("y[3]").expect("input y[3]");
    let job = SimJob::new(
        &mult,
        vec![Bus::new(mult.inputs().to_vec())],
        FLIP_CYCLES,
        0xF12,
    );
    // Both values at the 64-lane block boundary, so one of them flips.
    let delta = DeltaStimulus::new()
        .set(63, x1, true)
        .set(64, x1, false)
        .set(150, y3, true);
    check_flips(&job, &delta);
}

#[test]
fn a_counter_enable_flip_diverges_to_the_end_of_the_run() {
    let counter = corpus("counter4.blif");
    let en = counter.find_net("en").expect("input en");
    let job = SimJob::new(
        &counter,
        vec![Bus::new(counter.inputs().to_vec())],
        FLIP_CYCLES,
        0xC0DE,
    );
    let value = SimBaseline::of(&job).input_value(100, en) != Value::One;
    let finals = check_flips(&job, &DeltaStimulus::new().set(100, en, value));
    // One extra (or one missing) count never reconverges: with binary
    // state the flipped counter ends on a different value under every
    // delay model. Under x-init the state is X throughout.
    for (case, options, flipped, configured) in finals {
        if options == SimOptions::default() {
            assert_ne!(flipped, configured, "{case}");
        }
    }
}

/// The 4-bit multiplier's unit-delay jobs settled on the timed kernel
/// without statistics, with their reports.
fn settled_without_statistics(mult: &ArrayMultiplier) -> (Vec<SimJob<'_>>, Vec<SessionReport>) {
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let jobs: Vec<SimJob<'_>> = [3, 4]
        .into_iter()
        .map(|seed| {
            SimJob::new(
                &mult.netlist,
                vec![mult.x.clone(), mult.y.clone()],
                65,
                seed,
            )
            .with_statistics(false)
        })
        .collect();
    let reports = ParallelRunner::new(1)
        .run_jobs(&jobs, &program, &|_| Vec::new())
        .expect("settles");
    assert!(reports.iter().all(|report| report.timed_work().is_some()));
    (jobs, reports)
}

#[test]
#[should_panic(expected = "without per-cycle statistics")]
fn a_report_settled_without_statistics_refuses_its_cycle_stats() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let (_, reports) = settled_without_statistics(&mult);
    let _ = reports[0].cycle_stats();
}

#[test]
#[should_panic(expected = "without per-cycle statistics")]
fn a_report_settled_without_statistics_refuses_its_queue_traffic() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let (_, reports) = settled_without_statistics(&mult);
    let _ = reports[0].queue_stats();
}

#[test]
#[should_panic(expected = "without per-cycle statistics")]
fn an_aggregate_of_runs_without_statistics_refuses_its_event_total() {
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);
    let (jobs, mut reports) = settled_without_statistics(&mult);
    let aggregate = AggregateReport::reduce(&mult.netlist, &jobs, &mut reports);
    assert_eq!(aggregate.total_cycles(), 130, "cycles are always counted");
    let _ = aggregate.total_events();
}

/// The output record a run settled on the timed kernel copies from its
/// settled planes equals the one the event path builds from its
/// transitions: every primary output at every cycle end, `X` included.
#[test]
fn the_timed_output_record_equals_the_event_paths() {
    let rca = corpus("rca4.blif");
    let counter = corpus("counter4.blif");
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let piped = pipeline_netlist(&mult.netlist, 4, PipelineOptions::default()).expect("pipelines");
    let piped_buses: Vec<Bus> = [&mult.x, &mult.y]
        .into_iter()
        .map(|bus| Bus::new(bus.iter().map(|&net| piped.map.new_net(net)).collect()))
        .collect();
    let circuits = [
        (&rca, vec![Bus::new(rca.inputs().to_vec())]),
        (&mult.netlist, vec![mult.x.clone(), mult.y.clone()]),
        (&counter, vec![Bus::new(counter.inputs().to_vec())]),
        (&piped.netlist, piped_buses),
    ];
    let recorder = |_job: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(OutputProbe::new())] };
    let record = |report: &SessionReport| {
        report
            .probe::<OutputProbe>()
            .expect("output probe attached")
            .record()
            .clone()
    };
    let runner = ParallelRunner::new(1);
    for (netlist, buses) in circuits {
        let program = KernelProgram::compile(netlist).expect("acyclic");
        for delay in [
            DelayKind::Unit,
            DelayKind::Zero,
            DelayKind::RealisticAdderCells,
        ] {
            for options in [SimOptions::default(), SimOptions::x_init()] {
                let job = SimJob::new(netlist, buses.clone(), 300, 0x0E7D)
                    .with_delay(delay.clone())
                    .with_options(options)
                    .with_statistics(false);
                let case = format!("{} {delay:?} {options:?}", netlist.name());
                let jobs = std::slice::from_ref(&job);
                let timed = runner.run_jobs(jobs, &program, &recorder).expect("settles");
                let event = runner.run_sessions_with(jobs, &recorder).expect("settles");
                assert!(timed[0].timed_work().is_some(), "settled timed: {case}");
                let (timed, event) = (record(&timed[0]), record(&event[0]));
                assert_eq!(timed.cycles(), 300, "{case}");
                assert_eq!(timed.outputs(), netlist.outputs().len(), "{case}");
                assert_eq!(timed, event, "output record: {case}");
            }
        }
    }
}
