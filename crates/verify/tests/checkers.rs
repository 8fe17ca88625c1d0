//! Integration tests of the verification subsystem: each checker against
//! hand-built circuits with known behaviour, plus the two determinism
//! guarantees — shard merges are bit-identical at any worker count, and
//! a flipped job (`--flip`) produces the same report as a plain session
//! over the merged stimulus.

use glitch_netlist::{Bus, DffInit, NetId, Netlist};
use glitch_sim::{
    DeltaStimulus, InputAssignment, MergeableProbe, ParallelRunner, Probe, SimJob, SimOptions,
    SimSession, XEval,
};
use glitch_verify::{
    BudgetSpec, BudgetTarget, BudgetValue, CheckSuite, CheckerProbe, CycleFilter, Verdict,
    VerifyReport,
};

/// A circuit with one uninitialised flipflop feeding an XOR to output
/// `bad`, and one properly reset flipflop feeding an AND to output `good`.
fn xinit_circuit() -> (Netlist, NetId) {
    let mut nl = Netlist::new("xinit");
    let d = nl.add_input("d");
    let en = nl.add_input("en");
    let q_bad = nl.dff(d, "q_bad"); // DontCare init -> X under x-init
    let q_good = nl.dff_with_init(d, "q_good", DffInit::Zero);
    let bad = nl.xor2(en, q_bad, "bad");
    let good = nl.xor2(en, q_good, "good");
    nl.mark_output(bad);
    nl.mark_output(good);
    (nl, d)
}

fn toggling(inputs: &[NetId], cycles: u64) -> Vec<InputAssignment> {
    (0..cycles)
        .map(|c| {
            let mut a = InputAssignment::new();
            for (i, &net) in inputs.iter().enumerate() {
                a.set(net, (c + i as u64).is_multiple_of(2));
            }
            a
        })
        .collect()
}

fn check_once(nl: &Netlist, suite: &CheckSuite, options: SimOptions, cycles: u64) -> VerifyReport {
    let inputs = nl.inputs().to_vec();
    let report = SimSession::new(nl)
        .options(options)
        .stimulus(toggling(&inputs, cycles))
        .probe(suite.build())
        .run()
        .unwrap();
    report.probe::<CheckerProbe>().unwrap().report(nl)
}

#[test]
fn xprop_flags_the_uninitialised_output_and_clears_the_reset_one() {
    let (nl, _) = xinit_circuit();
    let suite = CheckSuite::new().with_x_propagation();
    let report = check_once(&nl, &suite, SimOptions::x_init(), 8);
    assert!(!report.passed());
    let xprop = report.outcome("x-propagation").unwrap();
    assert_eq!(xprop.verdict, Verdict::Fail);
    // Exactly one output (`bad`) sees X; the reset path stays clean. The
    // XOR feedback-free pipeline keeps it X every cycle of the run.
    assert_eq!(xprop.metric("outputs_ever_x"), Some(1));
    assert_eq!(xprop.total_violations, 1);
    let violation = xprop.violations[0];
    assert_eq!(nl.net(violation.net).name(), "bad");
    assert_eq!(violation.cycle, 0, "unknown from the first cycle end");
    // q_bad flushes after one sample, so `bad` clears from cycle 1 on:
    // it spends exactly one cycle end unknown.
    assert_eq!(violation.time, 1);
    assert_eq!(xprop.metric("x_cleared"), Some(1));
    assert!(xprop.summary.contains("bad"), "{}", xprop.summary);

    // Under the default reset policy (all flipflops settle to 0) the same
    // circuit is clean.
    let clean = check_once(&nl, &suite, SimOptions::default(), 8);
    assert!(clean.passed());
    let xprop = clean.outcome("x-propagation").unwrap();
    assert_eq!(xprop.metric("outputs_ever_x"), Some(0));
    assert_eq!(xprop.metric("x_clear_cycle"), Some(0));
}

#[test]
fn xprop_reports_stuck_x_when_feedback_never_flushes() {
    // q feeds itself through an XOR: q' = q ^ d. Starting X, the state can
    // never become known — the bug x-init simulation exists to find.
    let mut nl = Netlist::new("stuck");
    let d = nl.add_input("d");
    let q = nl.add_net("q");
    let fb = nl.xor2(q, d, "fb");
    nl.add_cell(glitch_netlist::CellKind::Dff, "ff", vec![fb], vec![q])
        .unwrap();
    let y = nl.xor2(q, d, "y");
    nl.mark_output(y);
    let suite = CheckSuite::new().with_x_propagation();
    let report = check_once(&nl, &suite, SimOptions::x_init(), 12);
    let xprop = report.outcome("x-propagation").unwrap();
    assert_eq!(xprop.verdict, Verdict::Fail);
    assert_eq!(xprop.metric("x_cleared"), Some(0), "X never clears");
    assert!(xprop.metric("stuck_x_nets").unwrap() > 0);
    assert!(xprop.summary.contains("saw X"), "{}", xprop.summary);
}

#[test]
fn settle_budget_locates_late_transitions() {
    // A 5-deep inverter chain: the last net settles at t=5 under unit
    // delay. A budget of 3 on everything must flag the two last stages,
    // with exact locations.
    let mut nl = Netlist::new("chain");
    let a = nl.add_input("a");
    let mut cur = a;
    for i in 0..5 {
        cur = nl.inv(cur, &format!("n{i}"));
    }
    nl.mark_output(cur);
    let budgets = BudgetSpec::new()
        .with(BudgetTarget::All, BudgetValue::Units(3))
        .resolve(&nl)
        .unwrap();
    let suite = CheckSuite::new().with_budgets(budgets);
    let report = check_once(&nl, &suite, SimOptions::default(), 4);
    let budget = report.outcome("settle-budget").unwrap();
    assert_eq!(budget.verdict, Verdict::Fail);
    // Cycles 1..3 toggle `a` (cycle 0 is X-initialisation, whose changes
    // also count as settling activity): nets n3 (t=4) and n4 (t=5) are
    // late every cycle.
    assert_eq!(budget.metric("nets_over_budget"), Some(2));
    assert_eq!(budget.metric("worst_excess"), Some(2));
    assert_eq!(budget.metric("max_settle_time"), Some(5));
    let worst = budget
        .violations
        .iter()
        .find(|v| nl.net(v.net).name() == "n4")
        .expect("the output stage is late");
    assert_eq!(worst.time, 5);
    assert_eq!(worst.budget, 3);

    // `*=cycle` resolves to the combinational depth (5), which this chain
    // exactly meets — no violation.
    let relaxed = BudgetSpec::parse_list("*=cycle")
        .unwrap()
        .resolve(&nl)
        .unwrap();
    let report = check_once(
        &nl,
        &CheckSuite::new().with_budgets(relaxed),
        SimOptions::default(),
        4,
    );
    assert!(report.passed());
}

#[test]
fn budget_checker_reports_retained_and_dropped_past_the_cap() {
    // A pathological run: budget 0 on a 5-deep chain makes every stage a
    // violation every toggling cycle, far past the retention cap. The full
    // count, the retained count and the dropped count must all be honest.
    let mut nl = Netlist::new("cap");
    let a = nl.add_input("a");
    let mut cur = a;
    for i in 0..5 {
        cur = nl.inv(cur, &format!("n{i}"));
    }
    nl.mark_output(cur);
    let budgets = BudgetSpec::new()
        .with(BudgetTarget::All, BudgetValue::Units(0))
        .resolve(&nl)
        .unwrap();
    let suite = CheckSuite::new().with_budgets(budgets).with_timing();
    let report = check_once(&nl, &suite, SimOptions::default(), 40);
    let budget = report.outcome("settle-budget").unwrap();
    assert_eq!(budget.verdict, Verdict::Fail);
    let cap = glitch_verify::VIOLATION_CAP as u64;
    assert!(
        budget.total_violations > cap,
        "the run must overflow the cap"
    );
    assert_eq!(budget.violations.len() as u64, cap);
    assert_eq!(budget.metric("violations_retained"), Some(cap));
    assert_eq!(
        budget.metric("violations_dropped"),
        Some(budget.total_violations - cap)
    );
    assert!(
        budget.summary.contains("dropped past the cap"),
        "{}",
        budget.summary
    );
    assert_eq!(report.retained_violations(), cap);
    assert_eq!(report.dropped_violations(), budget.total_violations - cap);
}

#[test]
fn timed_probes_accumulate_checker_wall_time_without_changing_verdicts() {
    let (nl, _) = xinit_circuit();
    let suite = CheckSuite::new().with_x_propagation().with_hazards();
    let inputs = nl.inputs().to_vec();
    let run = |timed: bool| {
        let suite = if timed {
            suite.clone().with_timing()
        } else {
            suite.clone()
        };
        let report = SimSession::new(&nl)
            .options(SimOptions::x_init())
            .stimulus(toggling(&inputs, 64))
            .probe(suite.build())
            .run()
            .unwrap();
        let probe = report.probe::<CheckerProbe>().unwrap();
        (probe.report(&nl), probe.checker_micros())
    };
    let (timed_report, timed_micros) = run(true);
    let (plain_report, plain_micros) = run(false);
    // Verdicts and evidence are identical; only the telemetry differs.
    assert_eq!(timed_report, plain_report);
    assert_eq!(timed_micros.len(), 2);
    assert_eq!(timed_micros[0].0, "x-propagation");
    assert_eq!(timed_micros[1].0, "hazard");
    assert!(plain_micros.iter().all(|&(_, micros)| micros == 0));
}

#[test]
fn budget_spec_parsing_resolution_and_precedence() {
    let mut nl = Netlist::new("spec");
    let a = nl.add_input("a");
    let y = nl.inv(a, "y");
    let z = nl.inv(y, "z");
    nl.mark_output(z);

    // File form with comments; CLI list appended afterwards overrides.
    let mut spec =
        BudgetSpec::parse_file("# settle budgets\n\"*\" = 9\n\ny = 4   # the mid net\n").unwrap();
    spec.extend(BudgetSpec::parse_list("outputs=7,y=5").unwrap());
    let resolved = spec.resolve(&nl).unwrap();
    assert_eq!(resolved.budget(a), Some(9), "catch-all");
    assert_eq!(resolved.budget(z), Some(7), "outputs beats *");
    assert_eq!(
        resolved.budget(y),
        Some(5),
        "named net beats both; last wins"
    );
    assert_eq!(resolved.budgeted_count(), nl.net_count());

    // Errors are located.
    assert!(BudgetSpec::parse_list("y=abc").is_err());
    assert!(BudgetSpec::parse_list("nope").is_err());
    let unknown = BudgetSpec::parse_list("ghost=3").unwrap().resolve(&nl);
    assert!(matches!(
        unknown,
        Err(glitch_verify::BudgetError::UnknownNet(name)) if name == "ghost"
    ));
}

#[test]
fn hazard_checker_classifies_static_and_counts_nothing_at_zero_delay() {
    // y = a XOR delayed(b): flipping both inputs together glitches y — a
    // static hazard (equal endpoints, two transitions).
    let mut nl = Netlist::new("hazard");
    let a = nl.add_input("a");
    let b = nl.add_input("b");
    let mut cur = b;
    for i in 0..3 {
        cur = nl.inv(cur, &format!("i{i}"));
    }
    let y = nl.xor2(a, cur, "y");
    nl.mark_output(y);
    let stimulus = vec![
        InputAssignment::new().with(a, false).with(b, false),
        InputAssignment::new().with(a, true).with(b, true),
        InputAssignment::new().with(a, false).with(b, false),
    ];
    let suite = CheckSuite::new().with_hazards();
    let run = |options: SimOptions| {
        let report = SimSession::new(&nl)
            .options(options)
            .stimulus(stimulus.clone())
            .probe(suite.build())
            .run()
            .unwrap();
        report.probe::<CheckerProbe>().unwrap().report(&nl)
    };
    let report = run(SimOptions::default());
    let hazard = report.outcome("hazard").unwrap();
    assert_eq!(hazard.verdict, Verdict::Pass, "informational");
    let static_total = hazard.metric("static0").unwrap() + hazard.metric("static1").unwrap();
    assert!(
        static_total >= 2,
        "y glitches in cycles 1 and 2: {hazard:?}"
    );
    assert!(hazard.metric("hazard_cycles").unwrap() >= 2);
    assert!(hazard.summary.contains("hazards"), "{}", hazard.summary);
}

#[test]
fn stability_checker_watches_only_matching_cycles() {
    let mut nl = Netlist::new("stab");
    let a = nl.add_input("a");
    let y = nl.inv(a, "y");
    nl.mark_output(y);
    // y toggles every cycle; watching cycles 2..=3 must flag exactly 2.
    let suite = CheckSuite::new().with_stability(y, CycleFilter::Range { from: 2, to: 3 });
    let report = check_once(&nl, &suite, SimOptions::default(), 6);
    let stab = report.outcome("stability").unwrap();
    assert_eq!(stab.verdict, Verdict::Fail);
    assert_eq!(stab.total_violations, 2);
    assert_eq!(stab.metric("watched_cycles"), Some(2));
    assert!(stab.violations.iter().all(|v| (2..=3).contains(&v.cycle)));

    // A quiet net passes under CycleFilter::All.
    let mut quiet_nl = Netlist::new("quiet");
    let b = quiet_nl.add_input("b");
    let held = quiet_nl.inv(b, "held");
    quiet_nl.mark_output(held);
    let suite = CheckSuite::new().with_stability(held, CycleFilter::All);
    let inputs = vec![InputAssignment::new().with(b, true); 5];
    let report = SimSession::new(&quiet_nl)
        .stimulus(inputs)
        .probe(suite.build())
        .run()
        .unwrap();
    let report = report.probe::<CheckerProbe>().unwrap().report(&quiet_nl);
    assert!(report.passed());
}

/// The full suite on the x-init circuit, sharded across seeds.
fn sharded_report(nl: &Netlist, seeds: &[u64], workers: usize) -> VerifyReport {
    let budgets = BudgetSpec::parse_list("*=cycle")
        .unwrap()
        .resolve(nl)
        .unwrap();
    let outputs: Vec<NetId> = nl.outputs().to_vec();
    let suite = CheckSuite::new()
        .with_x_propagation()
        .with_budgets(budgets)
        .with_hazards()
        .with_stability(outputs[0], CycleFilter::Range { from: 3, to: 4 });
    let buses: Vec<glitch_netlist::Bus> = vec![glitch_netlist::Bus::new(nl.inputs().to_vec())];
    let jobs: Vec<SimJob<'_>> = seeds
        .iter()
        .map(|&seed| SimJob::new(nl, buses.clone(), 40, seed).with_options(SimOptions::x_init()))
        .collect();
    let factory = |_: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(suite.build())] };
    let mut reports = ParallelRunner::new(workers)
        .run_sessions_with(&jobs, &factory)
        .unwrap();
    let mut merged = CheckerProbe::default();
    for report in &mut reports {
        merged.merge(report.take_probe::<CheckerProbe>().unwrap());
    }
    merged.report(nl)
}

#[test]
fn sharded_verdicts_are_bit_identical_at_any_worker_count() {
    let (nl, _) = xinit_circuit();
    let seeds = [11u64, 22, 33, 44, 55];
    let serial = sharded_report(&nl, &seeds, 1);
    for workers in [2, 4, 8] {
        assert_eq!(
            sharded_report(&nl, &seeds, workers),
            serial,
            "worker count {workers} changed the report"
        );
    }
    // The merged x-propagation outcome aggregates every shard.
    let xprop = serial.outcome("x-propagation").unwrap();
    assert_eq!(xprop.metric("cycles"), Some(5 * 40));
    assert_eq!(xprop.metric("outputs_ever_x"), Some(1));
}

/// A flipped job (the `incremental` module's `DeltaStimulus`) checks
/// exactly like a plain session over the merged stimulus.
#[test]
fn incremental_check_is_bit_identical_to_full_resimulation() {
    let (nl, d) = xinit_circuit();
    let budgets = BudgetSpec::parse_list("*=cycle")
        .unwrap()
        .resolve(&nl)
        .unwrap();
    let suite = CheckSuite::new()
        .with_x_propagation()
        .with_budgets(budgets)
        .with_hazards();
    let options = SimOptions {
        x_eval: XEval::TriTable,
        ..SimOptions::default()
    };
    let job = SimJob::new(&nl, vec![Bus::new(nl.inputs().to_vec())], 30, 5).with_options(options);
    let delta = DeltaStimulus::new().set(12, d, false).set(13, d, true);
    let flipped = job.clone().with_flips(delta.clone());

    let mut reports = ParallelRunner::new(1)
        .run_sessions_with(std::slice::from_ref(&flipped), &|_| {
            vec![Box::new(suite.build()) as Box<dyn Probe>]
        })
        .unwrap();
    let flipped_report = reports[0].take_probe::<CheckerProbe>().unwrap().report(&nl);

    let merged: Vec<InputAssignment> = job
        .stimulus()
        .zip(0..)
        .map(|(base, cycle)| delta.apply_to(cycle, &base))
        .collect();
    assert_ne!(
        merged,
        job.stimulus().collect::<Vec<_>>(),
        "the flip changes bits"
    );
    let full = SimSession::new(&nl)
        .options(options)
        .stimulus(merged)
        .probe(suite.build())
        .run()
        .unwrap();
    let full_report = full.probe::<CheckerProbe>().unwrap().report(&nl);

    assert_eq!(flipped_report, full_report);
}

#[test]
fn merging_mismatched_checker_probes_panics() {
    let (nl, _) = xinit_circuit();
    let xprop_only = CheckSuite::new().with_x_propagation();
    let hazards_only = CheckSuite::new().with_hazards();
    let run = |suite: &CheckSuite| {
        let report = SimSession::new(&nl)
            .stimulus(toggling(nl.inputs(), 2))
            .probe(suite.build())
            .run()
            .unwrap();
        let mut report = report;
        report.take_probe::<CheckerProbe>().unwrap()
    };
    let mut a = run(&xprop_only);
    let b = run(&hazards_only);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| a.merge(b)));
    assert!(
        result.is_err(),
        "mismatched checker lists must not merge silently"
    );
}
