//! Criterion benchmarks of the one-pass session API against the seed's
//! two-pass style: the session must deliver activity + power + waveform
//! from a single simulation at roughly the cost of the cheapest single-
//! artefact run, where the pre-session code paid one full simulation per
//! artefact.
//!
//! The `parallel_multi_seed` group measures the sharded executor: an
//! 8-seed sweep of a multiplier-class circuit run serially (1 worker)
//! versus fanned across 4 workers. On multi-core hardware the 4-worker
//! run should be comfortably > 1.5× faster; the reduction is bit-identical
//! either way (see `crates/sim/tests/parallel.rs`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::power::Technology;
use glitch_core::sim::{
    ActivityProbe, AggregateReport, ParallelRunner, RandomStimulus, SimJob, SimSession, VcdProbe,
};

const CYCLES: u64 = 50;
const SEED: u64 = 7;

fn stimulus(buses: &[Bus]) -> RandomStimulus {
    RandomStimulus::new(buses.to_vec(), CYCLES, SEED)
}

/// Bare simulation, no observers: the floor the probe overhead is measured
/// against.
fn bare(netlist: &Netlist, buses: &[Bus]) -> u64 {
    let report = SimSession::new(netlist)
        .stimulus(stimulus(buses))
        .run()
        .expect("settles");
    report.total_transitions()
}

/// The new way: one pass, three observers.
fn one_pass_session(netlist: &Netlist, buses: &[Bus]) -> u64 {
    let report = SimSession::new(netlist)
        .stimulus(stimulus(buses))
        .probe(ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6))
        .probe(VcdProbe::default())
        .run()
        .expect("settles");
    report.total_transitions()
}

/// The seed's way: one full simulation per artefact (activity+power pass,
/// then a separate waveform pass).
fn two_pass_seed_style(netlist: &Netlist, buses: &[Bus]) -> u64 {
    let analysis_pass = SimSession::new(netlist)
        .stimulus(stimulus(buses))
        .probe(ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6))
        .run()
        .expect("settles");
    let vcd_pass = SimSession::new(netlist)
        .stimulus(stimulus(buses))
        .probe(VcdProbe::default())
        .run()
        .expect("settles");
    analysis_pass.total_transitions() + vcd_pass.total_transitions()
}

fn bench_session(c: &mut Criterion) {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];

    let mut group = c.benchmark_group("session_vs_seed");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("bare_simulation", |b| {
        b.iter(|| bare(&mult.netlist, &buses))
    });
    group.bench_function("one_pass_session_3_probes", |b| {
        b.iter(|| one_pass_session(&mult.netlist, &buses))
    });
    group.bench_function("two_pass_seed_style", |b| {
        b.iter(|| two_pass_seed_style(&mult.netlist, &buses))
    });
    group.finish();
}

const SWEEP_SEEDS: usize = 8;
const SWEEP_CYCLES: u64 = 150;

/// An 8-seed multiplier sweep reduced to its aggregate, on `workers`
/// worker threads. Serial (1) vs parallel (4) is the speedup headline.
fn multi_seed_sweep(netlist: &Netlist, buses: &[Bus], workers: usize) -> u64 {
    let jobs: Vec<SimJob<'_>> = RandomStimulus::shard_seeds(SEED, SWEEP_SEEDS)
        .into_iter()
        .map(|seed| SimJob::new(netlist, buses.to_vec(), SWEEP_CYCLES, seed))
        .collect();
    let mut reports = ParallelRunner::new(workers)
        .run_sessions(&jobs)
        .expect("settles");
    let aggregate = AggregateReport::reduce(netlist, &jobs, &mut reports);
    aggregate.merged_totals().transitions
}

fn bench_parallel(c: &mut Criterion) {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];

    let mut group = c.benchmark_group("parallel_multi_seed");
    group.throughput(Throughput::Elements(SWEEP_SEEDS as u64 * SWEEP_CYCLES));
    group.bench_function("serial_1_worker", |b| {
        b.iter(|| multi_seed_sweep(&mult.netlist, &buses, 1))
    });
    group.bench_function("parallel_4_workers", |b| {
        b.iter(|| multi_seed_sweep(&mult.netlist, &buses, 4))
    });
    group.finish();
}

criterion_group!(benches, bench_session, bench_parallel);
criterion_main!(benches);
