//! The event-queue regression gate: CI runs this (release, `--ignored`)
//! beside the other timing gates and fails the build if settling the
//! 32-bit array multiplier under zero delay takes more than 2x as long as
//! under unit delay.
//!
//! Zero delay settles every cycle in one time point, so it does no more
//! work per event than unit delay. A settle loop that costs more than
//! `O(1)` per event within a time point (a linear scan de-duplicating the
//! nets that changed, say) makes exactly that time point quadratic, and
//! this ratio is where it shows.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test queue_gate -- --ignored
//! ```

use std::time::{Duration, Instant};

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::sim::{DelayKind, RandomStimulus, SimSession};

const CYCLES: u64 = 100;
const SEED: u64 = 0x5E77;
const MAX_RATIO: f64 = 2.0;

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
fn zero_delay_settle_is_at_most_twice_unit_delay_settle() {
    let mult = ArrayMultiplier::new(32, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let settle = |delay: DelayKind| {
        median_time(3, || {
            SimSession::new(&mult.netlist)
                .delay(delay.clone())
                .stimulus(RandomStimulus::new(buses.clone(), CYCLES, SEED))
                .run()
                .expect("settles")
                .total_transitions()
        })
    };

    let unit = settle(DelayKind::Unit);
    let zero = settle(DelayKind::Zero);
    let ratio = zero.as_secs_f64() / unit.as_secs_f64().max(1e-9);
    println!(
        "queue gate: unit {unit:?}, zero {zero:?}, zero/unit {ratio:.2} (maximum {MAX_RATIO})"
    );
    assert!(
        ratio <= MAX_RATIO,
        "zero-delay settle regressed: {ratio:.2}x unit delay > {MAX_RATIO}x \
         (unit {unit:?} vs zero {zero:?})"
    );
}
