//! The compiled-kernel regression gate: CI runs this (release,
//! `--ignored`) after the `kernel_vs_queue` bench group and fails the
//! build if bit-parallel functional evaluation of a 64-seed batch on the
//! 8-bit array multiplier is less than 10x faster than running the same
//! batch through the event-driven queue — the margin that makes the
//! `kernel` engine and the reducer's batch screen worthwhile.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test kernel_gate -- --ignored
//! ```

use std::time::{Duration, Instant};

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::sim::{kernel_prepass, RandomStimulus, SimJob, SimSession};
use glitch_core::KernelProgram;

const CYCLES: u64 = 200;
const SEEDS: u64 = 64;
const SEED0: u64 = 0xA5A5;
const MIN_SPEEDUP: f64 = 10.0;

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
fn kernel_functional_eval_is_at_least_ten_times_faster_than_queue() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let jobs: Vec<SimJob> = (0..SEEDS)
        .map(|s| SimJob::new(&mult.netlist, buses.clone(), CYCLES, SEED0 + s))
        .collect();

    let kernel = median_time(5, || {
        kernel_prepass(&mult.netlist, &program, &jobs)
            .expect("inputs only")
            .functional_transitions()
    });
    let queue = median_time(5, || {
        (0..SEEDS)
            .map(|s| {
                SimSession::new(&mult.netlist)
                    .stimulus(RandomStimulus::new(buses.clone(), CYCLES, SEED0 + s))
                    .run()
                    .expect("settles")
                    .total_transitions()
            })
            .sum::<u64>()
    });

    let speedup = queue.as_secs_f64() / kernel.as_secs_f64().max(1e-9);
    println!(
        "kernel gate: queue {queue:?}, kernel {kernel:?}, \
         speedup {speedup:.1}x (minimum {MIN_SPEEDUP}x)"
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "compiled kernel regressed: {speedup:.2}x < {MIN_SPEEDUP}x \
         (queue {queue:?} vs kernel {kernel:?})"
    );
}
