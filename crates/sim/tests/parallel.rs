//! Determinism of the sharded parallel layer: a parallel multi-seed run's
//! aggregate must equal the fold of the corresponding serial per-seed runs
//! **bit for bit** — activity totals, per-net histograms, power, statistics.

use glitch_netlist::{Bus, Netlist};
use glitch_power::{estimate_power, Technology};
use glitch_sim::{
    ActivityProbe, AggregateReport, DelayKind, MergeableProbe, ParallelRunner, RandomStimulus,
    SimJob, SimSession, WindowedActivityProbe,
};

/// A glitchy sequential circuit: an XOR tree with unbalanced input arrival
/// times feeding a register bank — enough structure for non-trivial
/// activity, power and window statistics.
fn glitchy_netlist() -> (Netlist, Vec<Bus>) {
    let mut nl = Netlist::new("parallel test circuit");
    let a = nl.add_input_bus("a", 8);
    let b = nl.add_input_bus("b", 8);
    let mut sums = Vec::new();
    for i in 0..8 {
        // Unbalanced paths: bit i of `b` goes through i inverters first.
        let mut delayed = b.bit(i);
        for k in 0..i {
            delayed = nl.inv(delayed, &format!("d{i}_{k}"));
        }
        let x = nl.xor2(a.bit(i), delayed, &format!("x{i}"));
        let y = nl.and2(x, a.bit((i + 1) % 8), &format!("y{i}"));
        sums.push(y);
    }
    // Reduce pairwise so glitches propagate through a small tree.
    let mut layer = sums;
    let mut level = 0;
    while layer.len() > 1 {
        layer = layer
            .chunks(2)
            .enumerate()
            .map(|(i, pair)| {
                if pair.len() == 2 {
                    nl.xor2(pair[0], pair[1], &format!("t{level}_{i}"))
                } else {
                    pair[0]
                }
            })
            .collect();
        level += 1;
    }
    let q = nl.dff(layer[0], "q");
    nl.mark_output(q);
    (nl, vec![a, b])
}

fn jobs<'a>(netlist: &'a Netlist, buses: &[Bus], seeds: &[u64]) -> Vec<SimJob<'a>> {
    seeds
        .iter()
        .map(|&seed| SimJob::new(netlist, buses.to_vec(), 120, seed))
        .collect()
}

#[test]
fn parallel_aggregate_is_bit_identical_to_the_serial_fold() {
    let (nl, buses) = glitchy_netlist();
    let seeds = RandomStimulus::shard_seeds(0xDA7E_1995, 6);

    // Parallel run: four workers.
    let mut parallel_reports = ParallelRunner::new(4)
        .run_sessions(&jobs(&nl, &buses, &seeds))
        .expect("settles");
    let parallel = AggregateReport::reduce(&nl, &jobs(&nl, &buses, &seeds), &mut parallel_reports);

    // Serial reference: one worker, identical jobs.
    let mut serial_reports = ParallelRunner::new(1)
        .run_sessions(&jobs(&nl, &buses, &seeds))
        .expect("settles");
    let serial = AggregateReport::reduce(&nl, &jobs(&nl, &buses, &seeds), &mut serial_reports);

    // The aggregates (per-net traces, activity totals, power reports with
    // every f64, per-shard summaries) compare equal structurally.
    assert_eq!(parallel, serial);

    // And against a completely independent hand fold of single-seed
    // sessions (no runner involved at all).
    let mut folded_activity = ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6);
    let (mut cycles, mut events, mut max_settle_time) = (0, 0, 0);
    for &seed in &seeds {
        let mut report = SimSession::new(&nl)
            .delay(DelayKind::Unit)
            .stimulus(RandomStimulus::new(buses.clone(), 120, seed))
            .probe(ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6))
            .run()
            .expect("settles");
        cycles += report.cycles();
        events += report.total_events();
        max_settle_time = max_settle_time.max(report.max_settle_time());
        folded_activity.merge(report.take_probe::<ActivityProbe>().unwrap());
    }
    assert_eq!(parallel.merged_trace(), folded_activity.trace());
    assert_eq!(
        parallel.merged_power(),
        &folded_activity.power(&nl).expect("priced")
    );
    assert_eq!(parallel.total_cycles(), cycles);
    assert_eq!(parallel.total_events(), events);
    assert_eq!(parallel.max_settle_time(), max_settle_time);
    assert_eq!(parallel.total_cycles(), 6 * 120);

    // The spread is over real per-seed variation.
    let glitches = parallel.glitch_spread();
    assert!(glitches.min <= glitches.mean && glitches.mean <= glitches.max);
    assert!(parallel.merged_totals().useless > 0, "circuit glitches");
    let power = parallel.power_spread();
    assert!(power.mean > 0.0);
}

#[test]
fn merged_power_probe_matches_the_trace_based_estimate_bit_for_bit() {
    // The merged priced activity probe prices the fold of the shards'
    // traces: its report must equal `glitch_power::estimate_power` over
    // the merged activity trace, f64 for f64, and so must each shard's.
    let (nl, buses) = glitchy_netlist();
    let seeds = RandomStimulus::shard_seeds(7, 4);
    let job_list = jobs(&nl, &buses, &seeds);
    let mut reports = ParallelRunner::new(2)
        .run_sessions(&job_list)
        .expect("settles");
    let tech = Technology::cmos_0p8um_5v();
    let mut merged = ActivityProbe::new();
    for (shard, mut report) in ParallelRunner::new(2)
        .run_sessions(&job_list)
        .expect("settles")
        .into_iter()
        .enumerate()
    {
        let probe = report.take_probe::<ActivityProbe>().unwrap();
        let own = estimate_power(&nl, probe.trace(), &tech, 5e6);
        assert_eq!(probe.power(&nl), Some(own.clone()), "shard {shard}");
        merged.merge(probe);
    }
    let aggregate = AggregateReport::reduce(&nl, &job_list, &mut reports);
    let reference = estimate_power(&nl, aggregate.merged_trace(), &tech, 5e6);
    assert_eq!(aggregate.merged_power(), &reference);
    assert_eq!(merged.power(&nl), Some(reference));
}

#[test]
fn multi_delay_jobs_run_in_one_batch() {
    let (nl, buses) = glitchy_netlist();
    let delays = [
        ("unit", DelayKind::Unit),
        ("zero", DelayKind::Zero),
        ("adder", DelayKind::RealisticAdderCells),
    ];
    let job_list: Vec<SimJob<'_>> = delays
        .iter()
        .map(|(label, delay)| {
            SimJob::new(&nl, buses.clone(), 80, 11)
                .with_delay(delay.clone())
                .with_label(*label)
        })
        .collect();
    let mut reports = ParallelRunner::new(3)
        .run_sessions(&job_list)
        .expect("settles");
    let aggregate = AggregateReport::reduce(&nl, &job_list, &mut reports);
    let shards = aggregate.shards();
    assert_eq!(shards.len(), 3);
    assert_eq!(shards[0].label, "unit");
    assert_eq!(shards[1].delay, DelayKind::Zero);
    // Zero delay is the glitch-free reference; unit delay glitches.
    assert_eq!(shards[1].activity.useless, 0);
    assert!(shards[0].activity.useless > 0);
    // Same useful work under every delay model (same stimulus, same seed).
    assert_eq!(shards[0].activity.useful, shards[1].activity.useful);
    assert_eq!(shards[0].activity.useful, shards[2].activity.useful);
}

#[test]
fn extra_probe_factory_yields_mergeable_window_heatmaps() {
    let (nl, buses) = glitchy_netlist();
    let seeds = RandomStimulus::shard_seeds(3, 3);
    let job_list = jobs(&nl, &buses, &seeds);
    let mut reports = ParallelRunner::new(3)
        .run_sessions_with(&job_list, &|_| {
            vec![Box::new(WindowedActivityProbe::new(30)) as Box<_>]
        })
        .expect("settles");
    let mut merged: Option<WindowedActivityProbe> = None;
    for report in &mut reports {
        let window = report
            .take_probe::<WindowedActivityProbe>()
            .expect("factory attached a window probe");
        assert_eq!(window.windows().len(), 4, "120 cycles / K=30");
        match merged.as_mut() {
            None => merged = Some(window),
            Some(m) => m.merge(window),
        }
    }
    let merged = merged.unwrap();
    // Each merged window covers 3 shards × 30 cycles.
    assert!(merged.windows().iter().all(|w| w.cycles == 90));
    let total: u64 = merged.windows().iter().map(|w| w.transitions).sum();
    assert!(total > 0);
}

#[test]
fn shard_statistics_are_deterministic_across_worker_counts() {
    // The runner docs promise job-order determinism for every aggregate;
    // activity and power are pinned above, this pins the statistics each
    // shard reads off its report: their fold must be bit-identical at any
    // worker count, and equal to an independent serial fold.
    let (nl, buses) = glitchy_netlist();
    let seeds = RandomStimulus::shard_seeds(0x57A7, 5);
    let job_list = jobs(&nl, &buses, &seeds);

    let mut serial = (0, 0, 0, 0, 0);
    for &seed in &seeds {
        let report = SimSession::new(&nl)
            .delay(DelayKind::Unit)
            .stimulus(RandomStimulus::new(buses.clone(), 120, seed))
            .run()
            .expect("settles");
        serial.0 += report.cycles();
        serial.1 += report.total_transitions();
        serial.2 += report.total_events();
        serial.3 += report.total_cell_evals();
        serial.4 = serial.4.max(report.max_settle_time());
    }

    for workers in [1, 2, 4, 8] {
        let mut reports = ParallelRunner::new(workers)
            .run_sessions(&job_list)
            .expect("settles");
        let transitions: u64 = reports.iter().map(|r| r.total_transitions()).sum();
        let aggregate = AggregateReport::reduce(&nl, &job_list, &mut reports);
        let folded = (
            aggregate.total_cycles(),
            transitions,
            aggregate.total_events(),
            aggregate.total_cell_evals(),
            aggregate.max_settle_time(),
        );
        assert_eq!(
            folded, serial,
            "{workers} workers must fold statistics bit-identically"
        );
    }
    assert_eq!(serial.0, 5 * 120);
    assert!(serial.2 > 0);
    assert!(serial.4 > 0);
}

#[test]
fn first_failing_job_error_is_deterministic() {
    let (nl, buses) = glitchy_netlist();
    let tight = glitch_sim::SimOptions {
        settle_budget: 0,
        ..Default::default()
    };
    // Job 1 (of 0..4) gets an impossible settle budget; the batch must
    // report that job's failure no matter how the workers interleave.
    let job_list: Vec<SimJob<'_>> = (0..4u64)
        .map(|i| {
            let job = SimJob::new(&nl, buses.clone(), 50, i);
            if i == 1 {
                job.with_options(tight)
            } else {
                job
            }
        })
        .collect();
    for workers in [1, 4] {
        let err = ParallelRunner::new(workers)
            .run_sessions(&job_list)
            .expect_err("job 1 cannot settle");
        assert!(matches!(err, glitch_sim::SimError::DidNotSettle { .. }));
    }
}
