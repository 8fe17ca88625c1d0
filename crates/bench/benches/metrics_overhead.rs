//! Overhead of the observability layer on the simulation hot loop.
//!
//! Two rungs on the same multiplier workload:
//!
//! - `bare`: the run alone — the untouched engine path, and what the CLI
//!   runs when no telemetry flag is given.
//! - `enabled_registry`: the run plus
//!   [`glitch_core::sim::SessionReport::record_metrics`] into an enabled
//!   registry (counters, gauges and per-cycle histograms) — what
//!   `--metrics` adds, and the cost the `metrics_gate` test pins below
//!   5%.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::sim::{RandomStimulus, SessionReport, SimSession};
use glitch_obs::MetricsRegistry;

const CYCLES: u64 = 50;
const SEED: u64 = 7;

fn stimulus(buses: &[Bus]) -> RandomStimulus {
    RandomStimulus::new(buses.to_vec(), CYCLES, SEED)
}

fn run(netlist: &Netlist, buses: &[Bus]) -> SessionReport {
    SimSession::new(netlist)
        .stimulus(stimulus(buses))
        .run()
        .expect("settles")
}

fn with_metrics(netlist: &Netlist, buses: &[Bus]) -> MetricsRegistry {
    let mut registry = MetricsRegistry::new();
    run(netlist, buses).record_metrics(&mut registry);
    registry
}

fn bench_metrics_overhead(c: &mut Criterion) {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];

    let mut group = c.benchmark_group("metrics_overhead");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("bare", |b| {
        b.iter(|| run(&mult.netlist, &buses).total_transitions())
    });
    group.bench_function("enabled_registry", |b| {
        b.iter(|| with_metrics(&mult.netlist, &buses))
    });
    group.finish();
}

criterion_group!(benches, bench_metrics_overhead);
criterion_main!(benches);
