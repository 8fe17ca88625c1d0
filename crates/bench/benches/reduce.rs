//! Criterion benchmarks of the reduction loop: the full greedy descent
//! (measure → propose → confirm and screen → verify) on mult4 and in the
//! reduce-mult16 workload's shape, the co-simulated candidate screen on
//! its own through both backends, the final equivalence check against the
//! event-driven co-simulation it replaced, one scoring pass on the event
//! queue and on the timed kernel, one proposal round on mult16, and one
//! clone of mult32.

#[path = "../../verify/tests/support/mod.rs"]
mod event_equivalence;

use criterion::{criterion_group, criterion_main, Criterion};
use glitch_core::arith::{AdderStyle, ArrayMultiplier, RippleCarryAdder};
use glitch_core::retime::{insert_buffer, pipeline_netlist, PipelineOptions};
use glitch_core::{AnalysisConfig, EngineKind, ReduceSession};
use glitch_reduce::{proposals, screen_candidate, ReduceOptions, Reducer, ScreenBackend};
use glitch_sim::{DelayKind, SimOptions};
use glitch_verify::EquivalenceChecker;

fn bench_reduce(c: &mut Criterion) {
    let rca = RippleCarryAdder::new(6, AdderStyle::Gates);
    let mult = ArrayMultiplier::new(4, AdderStyle::CompoundCell);

    let mut group = c.benchmark_group("reduce_loop");
    group.sample_size(10);

    // The full descent on the paper's multiplier: analysis passes
    // dominate, so this tracks the cost of one accepted move end to end.
    group.bench_function("mult4_full_descent", |b| {
        let buses = vec![mult.x.clone(), mult.y.clone()];
        b.iter(|| {
            let session = ReduceSession::new(
                AnalysisConfig {
                    cycles: 64,
                    ..AnalysisConfig::default()
                },
                vec![1],
                1,
            );
            let options = ReduceOptions {
                max_iters: 1,
                equivalence_cycles: 64,
                pipeline: PipelineOptions::default(),
                ..ReduceOptions::default()
            };
            Reducer::new(session, options)
                .run(&mult.netlist, &buses, &[])
                .expect("reduction runs")
                .moves
                .len()
        })
    });

    // The whole descent as the reduce-mult16 workload runs it: mult16,
    // 200 cycles, the timed kernel, one seed, default options.
    let mult16 = ArrayMultiplier::new(16, AdderStyle::CompoundCell);
    group.bench_function("mult16_descent", |b| {
        let buses = vec![mult16.x.clone(), mult16.y.clone()];
        b.iter(|| {
            let session = ReduceSession::new(
                AnalysisConfig {
                    cycles: 200,
                    engine: EngineKind::Hybrid,
                    ..AnalysisConfig::default()
                },
                vec![1],
                1,
            );
            Reducer::new(session, ReduceOptions::default())
                .run(&mult16.netlist, &buses, &[])
                .expect("reduction runs")
                .moves
                .len()
        })
    });

    // Batch screening through the compiled kernel must stay well ahead
    // of per-lane queue screening — the batch screen is the reason the
    // kernel exists in the loop.
    let hot = rca
        .netlist
        .nets()
        .find(|(_, net)| !net.loads().is_empty())
        .map(|(id, _)| id)
        .expect("the adder has loaded nets");
    let rewrite = insert_buffer(&rca.netlist, hot).expect("buffer applies");
    for (label, backend) in [
        ("screen_kernel", ScreenBackend::Kernel),
        ("screen_queue", ScreenBackend::Queue),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                screen_candidate(&rca.netlist, &rewrite, backend, 48, 64, 7)
                    .expect("screen runs")
                    .accepted
            })
        });
    }

    // The final equivalence check: a multiplier against its pipelined
    // form, settled on the kernel, must beat the event co-simulation.
    let mult8 = ArrayMultiplier::new(8, AdderStyle::CompoundCell).netlist;
    let piped = pipeline_netlist(&mult8, 4, PipelineOptions::default()).expect("pipelines");
    let map = &piped.map;
    let checker = EquivalenceChecker::new(
        &mult8,
        &piped.netlist,
        mult8
            .inputs()
            .iter()
            .map(|&n| (n, map.new_net(n)))
            .collect(),
        mult8
            .outputs()
            .iter()
            .map(|&n| (n, map.output_net(n)))
            .collect(),
        map.latency(),
    )
    .expect("total mapping");
    group.bench_function("equivalence_kernel", |b| {
        b.iter(|| {
            checker
                .check(&DelayKind::Unit, 256, 7, SimOptions::default())
                .expect("check runs")
                .passed()
        })
    });
    group.bench_function("equivalence_queue", |b| {
        b.iter(|| {
            event_equivalence::event_check(
                &mult8,
                &piped.netlist,
                &checker,
                &DelayKind::Unit,
                256,
                7,
                SimOptions::default(),
            )
            .expect("co-simulation runs")
            .passed()
        })
    });

    // One confirm-grade scoring pass (the descent's inner-loop cost).
    group.bench_function("score_pass", |b| {
        let session = ReduceSession::new(
            AnalysisConfig {
                cycles: 64,
                engine: EngineKind::Queue,
                ..AnalysisConfig::default()
            },
            vec![1],
            1,
        );
        let buses = vec![rca.a.clone(), rca.b.clone()];
        let held = [(rca.cin, false)];
        b.iter(|| {
            session
                .score(&rca.netlist, &buses, &held)
                .expect("scoring runs")
                .glitch_power
        })
    });

    // The same pass as the reduce-mult16 workload scores it: mult16, 200
    // cycles, settled on the timed kernel.
    group.bench_function("score_mult16", |b| {
        let session = ReduceSession::new(
            AnalysisConfig {
                cycles: 200,
                engine: EngineKind::Hybrid,
                ..AnalysisConfig::default()
            },
            vec![1],
            1,
        );
        let buses = vec![mult16.x.clone(), mult16.y.clone()];
        b.iter(|| {
            session
                .score(&mult16.netlist, &buses, &[])
                .expect("scoring runs")
                .glitch_power
        })
    });

    // One proposal round as the descent's first iteration runs it on
    // mult16: rank the hot nets of the baseline score, then build each
    // candidate (four buffers, three retimes) and drop it before the next.
    group.bench_function("candidates_mult16", |b| {
        let session = ReduceSession::new(
            AnalysisConfig {
                cycles: 200,
                engine: EngineKind::Hybrid,
                ..AnalysisConfig::default()
            },
            vec![1],
            1,
        );
        let buses = vec![mult16.x.clone(), mult16.y.clone()];
        let score = session
            .score(&mult16.netlist, &buses, &[])
            .expect("scoring runs");
        let options = ReduceOptions::default();
        b.iter(|| {
            proposals(
                &mult16.netlist,
                &score,
                &options.moves,
                options.per_kind,
                options.pipeline,
            )
            .map(|candidate| candidate.rewrite.netlist.cell_count())
            .sum::<usize>()
        })
    });

    group.finish();

    // A clone (and drop) of the sweep workload's netlist: a handful of
    // buffers copied and freed, whatever the netlist's size.
    let mut group = c.benchmark_group("netlist");
    let mult32 = ArrayMultiplier::new(32, AdderStyle::CompoundCell).netlist;
    mult32.validate().expect("mult32 is valid");
    group.bench_function("clone_mult32", |b| b.iter(|| mult32.clone().net_count()));
    group.finish();
}

criterion_group!(benches, bench_reduce);
criterion_main!(benches);
