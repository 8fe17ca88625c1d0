//! The timed-kernel regression gate: CI runs this (release, `--ignored`)
//! beside the other timing gates and fails the build if settling the
//! 32-bit array multiplier's batch jobs on the timed kernel takes more
//! than a quarter of the event-driven session's time.
//!
//! `ParallelRunner::run_jobs` settles a standard-probe job on the timed
//! kernel, word-wide across 64 cycles per lane word; the same job through
//! `ParallelRunner::run_sessions` settles event by event. Both produce the
//! same report (pinned by `crates/kernel/tests/timed_oracle.rs`), so the
//! ratio is pure execution cost. The unit and realistic-adder models are
//! the two timed schedules of the default sweep.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test timed_gate -- --ignored
//! ```

use std::time::{Duration, Instant};

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::sim::{DelayKind, ParallelRunner, SimJob};
use glitch_core::KernelProgram;

const CYCLES: u64 = 200;
const SEED: u64 = 0xDA7E_1995;
const MAX_RATIO: f64 = 0.25;

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

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn timed_jobs_take_at_most_a_quarter_of_the_event_driven_settle() {
    let mult = ArrayMultiplier::new(32, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let program = KernelProgram::compile(&mult.netlist).expect("the multiplier compiles");
    let runner = ParallelRunner::new(1);
    for delay in [DelayKind::Unit, DelayKind::RealisticAdderCells] {
        let jobs =
            [SimJob::new(&mult.netlist, buses.clone(), CYCLES, SEED).with_delay(delay.clone())];
        assert!(
            jobs[0].timed_schedule(&program).is_some(),
            "{delay:?} qualifies"
        );
        let timed = median_time(3, || {
            let reports = runner.run_jobs(&jobs, &program).expect("settles");
            assert!(
                reports[0].timed_work().is_some(),
                "settled on the timed kernel"
            );
            reports[0].total_events()
        });
        let event = median_time(3, || {
            runner.run_sessions(&jobs).expect("settles")[0].total_events()
        });
        let ratio = timed.as_secs_f64() / event.as_secs_f64().max(1e-9);
        println!(
            "timed gate ({delay:?}): timed {timed:?}, event {event:?}, timed/event {ratio:.3} \
             (maximum {MAX_RATIO})"
        );
        assert!(
            ratio <= MAX_RATIO,
            "timed settle regressed for {delay:?}: {ratio:.3}x the event-driven session > \
             {MAX_RATIO}x (timed {timed:?} vs event {event:?})"
        );
    }
}
