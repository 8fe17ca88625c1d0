//! The metrics-overhead gate: a run plus
//! [`glitch_core::sim::SessionReport::record_metrics`] into an enabled
//! registry must cost less than 5% over the bare run — the guarantee that
//! `--metrics` reads the finished report instead of slowing the engine.
//!
//! Ignored by default so plain `cargo test` stays timing-free; run with
//!
//! ```text
//! cargo test --release -p glitch-bench --test metrics_gate -- --ignored
//! ```

use std::time::{Duration, Instant};

use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::sim::{RandomStimulus, SimSession};
use glitch_obs::MetricsRegistry;

const CYCLES: u64 = 300;
const SEED: u64 = 0x0B5;
const RUNS: usize = 9;
const MAX_OVERHEAD: f64 = 1.05;

fn run(netlist: &Netlist, buses: &[Bus], metered: bool) -> u64 {
    let report = SimSession::new(netlist)
        .stimulus(RandomStimulus::new(buses.to_vec(), CYCLES, SEED))
        .run()
        .expect("settles");
    if metered {
        let mut registry = MetricsRegistry::new();
        report.record_metrics(&mut registry);
        std::hint::black_box(&registry);
    }
    report.total_transitions()
}

/// Median wall times of `RUNS` interleaved bare/metered executions —
/// interleaving decorrelates clock-frequency drift from the comparison.
fn measure(netlist: &Netlist, buses: &[Bus]) -> (Duration, Duration) {
    let time = |metered: bool| {
        let start = Instant::now();
        std::hint::black_box(run(netlist, buses, metered));
        start.elapsed()
    };
    let mut bare_times = Vec::with_capacity(RUNS);
    let mut metered_times = Vec::with_capacity(RUNS);
    for _ in 0..RUNS {
        bare_times.push(time(false));
        metered_times.push(time(true));
    }
    bare_times.sort_unstable();
    metered_times.sort_unstable();
    (bare_times[RUNS / 2], metered_times[RUNS / 2])
}

#[test]
#[ignore = "timing gate; run explicitly in CI with --release"]
fn recording_metrics_costs_less_than_five_percent() {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];

    // Warm caches and the allocator before timing anything.
    std::hint::black_box(run(&mult.netlist, &buses, true));

    // Timing gates are noisy; allow one re-measurement before failing.
    let mut verdict = (Duration::ZERO, Duration::ZERO, f64::MAX);
    for attempt in 0..2 {
        let (bare, metered) = measure(&mult.netlist, &buses);
        let ratio = metered.as_secs_f64() / bare.as_secs_f64().max(1e-9);
        println!(
            "metrics_overhead gate (attempt {attempt}): bare {bare:?}, \
             run+record {metered:?}, ratio {ratio:.3} (maximum {MAX_OVERHEAD})"
        );
        verdict = (bare, metered, ratio);
        if ratio < MAX_OVERHEAD {
            break;
        }
    }
    let (bare, metered, ratio) = verdict;
    assert!(
        ratio < MAX_OVERHEAD,
        "metrics recording overhead regressed: {ratio:.3} >= {MAX_OVERHEAD} \
         (bare {bare:?} vs run+record {metered:?})"
    );
}
