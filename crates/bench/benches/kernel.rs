//! The compiled bit-parallel kernel against the event-driven queue on
//! the workload the `kernel` engine targets: functional (end-of-cycle)
//! evaluation of a 64-seed batch on the paper's 8-bit array multiplier.
//! The `timed_block` group times one shard of the delay-model sweep on
//! the timed kernel: the 32-bit array multiplier, 200 cycles, no
//! per-cycle statistics, one job per delay model.
//!
//! The kernel packs all 64 seeds into the lanes of one `u64` word per
//! net, so one straight-line pass over the levelized program evaluates
//! the whole batch; the queue side runs the same 64 stimuli through the
//! reference event-driven simulator one session at a time. The
//! `kernel_gate` test enforces the minimum ratio in CI; this group
//! records both sides (plus the one-off compile cost) in
//! `BENCH_summary.json`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::sim::{
    kernel_prepass, DelayKind, ParallelRunner, RandomStimulus, SimJob, SimSession,
};
use glitch_core::KernelProgram;

const CYCLES: u64 = 200;
const SEEDS: u64 = 64;
const SEED0: u64 = 0xA5A5;

fn bench_kernel(c: &mut Criterion) {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let jobs: Vec<SimJob> = (0..SEEDS)
        .map(|s| SimJob::new(&mult.netlist, buses.clone(), CYCLES, SEED0 + s))
        .collect();

    let mut group = c.benchmark_group("kernel_vs_queue");
    group.throughput(Throughput::Elements(SEEDS * CYCLES));
    group.bench_function("kernel_64_seeds", |b| {
        b.iter(|| {
            kernel_prepass(&mult.netlist, &program, &jobs)
                .expect("inputs only")
                .functional_transitions()
        })
    });
    group.bench_function("queue_64_seeds", |b| {
        b.iter(|| {
            (0..SEEDS)
                .map(|s| {
                    SimSession::new(&mult.netlist)
                        .stimulus(RandomStimulus::new(buses.clone(), CYCLES, SEED0 + s))
                        .run()
                        .expect("settles")
                        .total_transitions()
                })
                .sum::<u64>()
        })
    });
    group.bench_function("compile", |b| {
        b.iter(|| {
            KernelProgram::compile(&mult.netlist)
                .expect("acyclic")
                .op_count()
        })
    });
    group.finish();
}

fn bench_timed_block(c: &mut Criterion) {
    let mult = ArrayMultiplier::new(32, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let program = KernelProgram::compile(&mult.netlist).expect("acyclic");
    let runner = ParallelRunner::new(1);
    let mut group = c.benchmark_group("timed_block");
    group.throughput(Throughput::Elements(CYCLES));
    for (name, delay) in [
        ("unit", DelayKind::Unit),
        ("zero", DelayKind::Zero),
        ("adder", DelayKind::RealisticAdderCells),
    ] {
        let job = SimJob::new(&mult.netlist, buses.clone(), CYCLES, SEED0)
            .with_delay(delay)
            .with_statistics(false);
        let jobs = std::slice::from_ref(&job);
        group.bench_function(name, |b| {
            b.iter(|| {
                runner
                    .run_jobs(jobs, &program, &|_| Vec::new())
                    .expect("inputs only")[0]
                    .timed_work()
                    .expect("settled timed")
                    .op_evals
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_kernel, bench_timed_block);
criterion_main!(benches);
