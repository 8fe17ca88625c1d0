//! The timed-kernel regression gate: CI runs this (release, `--ignored`)
//! beside the other timing gates and fails the build if settling the
//! 32-bit array multiplier's batch jobs on the timed kernel takes more
//! than a quarter of the event-driven session's time.
//!
//! `ParallelRunner::run_jobs` settles a job on the timed kernel,
//! word-wide across 64 cycles per lane word, when its extra probes can be
//! filled in bulk; the same job through `ParallelRunner::run_sessions_with`
//! settles event by event. Both produce the same report (pinned by
//! `crates/kernel/tests/timed_oracle.rs`), so the ratio is pure execution
//! cost. Four jobs are gated: the standard probe set alone without
//! per-cycle statistics (`SimJob::with_statistics(false)`, the path of a
//! sweep without `--metrics`), the same counting them (the path of
//! `analyze` and of every daemon job), the standard probe set with the
//! X-propagation + hazard checker suite of `check --hazards` attached,
//! and the standard probe set on the multiplier pipelined to 4 register
//! ranks, whose flipflop state each block settles by fixpoint
//! (`KernelProgram::settle_cycles`); the last two count statistics, as
//! `check` does. The unit and realistic-adder models are the two timed
//! schedules of the default sweep.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test timed_gate -- --ignored
//! ```

use std::time::{Duration, Instant};

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::retime::{pipeline_netlist, PipelineOptions};
use glitch_core::sim::{DelayKind, ParallelRunner, Probe, SimJob};
use glitch_core::verify::CheckSuite;
use glitch_core::KernelProgram;

const CYCLES: u64 = 200;
const SEED: u64 = 0xDA7E_1995;
const MAX_RATIO: f64 = 0.25;

/// A per-job probe factory, as `run_jobs` takes it.
type Probes<'a> = &'a (dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync);

/// Median wall time of `runs` executions of `f`.
fn median_time(runs: usize, mut f: impl FnMut() -> u64) -> Duration {
    let mut times: Vec<Duration> = (0..runs)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The 32-bit multiplier and its operand buses.
fn multiplier() -> (Netlist, Vec<Bus>) {
    let mult = ArrayMultiplier::new(32, AdderStyle::CompoundCell);
    (mult.netlist, vec![mult.x, mult.y])
}

/// Gates the jobs on `netlist` with `extra` probes under both timed delay
/// models; `statistics` says whether the timed jobs count their per-cycle
/// statistics (the event-driven sessions always do).
fn gate(case: &str, netlist: &Netlist, buses: &[Bus], extra: Probes<'_>, statistics: bool) {
    let program = KernelProgram::compile(netlist).expect("the netlist compiles");
    let runner = ParallelRunner::new(1);
    for delay in [DelayKind::Unit, DelayKind::RealisticAdderCells] {
        let jobs = [SimJob::new(netlist, buses.to_vec(), CYCLES, SEED).with_delay(delay.clone())];
        assert!(
            jobs[0].timed_schedule(&program).is_some(),
            "{delay:?} qualifies"
        );
        let timed_jobs = [jobs[0].clone().with_statistics(statistics)];
        let timed = median_time(3, || {
            let reports = runner
                .run_jobs(&timed_jobs, &program, extra)
                .expect("settles");
            assert!(
                reports[0].timed_work().is_some(),
                "settled on the timed kernel"
            );
            if statistics {
                reports[0].total_events()
            } else {
                reports[0].cycles()
            }
        });
        let event = median_time(3, || {
            runner.run_sessions_with(&jobs, extra).expect("settles")[0].total_events()
        });
        let ratio = timed.as_secs_f64() / event.as_secs_f64().max(1e-9);
        println!(
            "timed gate ({case}, {delay:?}): timed {timed:?}, event {event:?}, \
             timed/event {ratio:.3} (maximum {MAX_RATIO})"
        );
        assert!(
            ratio <= MAX_RATIO,
            "timed settle regressed ({case}, {delay:?}): {ratio:.3}x the event-driven session \
             > {MAX_RATIO}x (timed {timed:?} vs event {event:?})"
        );
    }
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn timed_jobs_take_at_most_a_quarter_of_the_event_driven_settle() {
    let (netlist, buses) = multiplier();
    gate("standard probes", &netlist, &buses, &|_| Vec::new(), false);
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn timed_jobs_with_statistics_take_at_most_a_quarter_of_the_event_driven_settle() {
    let (netlist, buses) = multiplier();
    gate(
        "standard probes with statistics",
        &netlist,
        &buses,
        &|_| Vec::new(),
        true,
    );
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn timed_checker_jobs_take_at_most_a_quarter_of_the_event_driven_settle() {
    let (netlist, buses) = multiplier();
    let suite = CheckSuite::new().with_x_propagation().with_hazards();
    gate(
        "x-propagation + hazards",
        &netlist,
        &buses,
        &|_| -> Vec<Box<dyn Probe>> { vec![Box::new(suite.build())] },
        true,
    );
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn timed_pipelined_jobs_take_at_most_a_quarter_of_the_event_driven_settle() {
    let (netlist, buses) = multiplier();
    let piped = pipeline_netlist(&netlist, 4, PipelineOptions::default())
        .expect("the multiplier pipelines");
    let buses: Vec<Bus> = buses
        .iter()
        .map(|bus| Bus::new(bus.iter().map(|&net| piped.map.new_net(net)).collect()))
        .collect();
    gate(
        "pipelined to 4 ranks",
        &piped.netlist,
        &buses,
        &|_| Vec::new(),
        true,
    );
}
