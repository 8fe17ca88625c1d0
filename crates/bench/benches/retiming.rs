//! Criterion benchmarks of cutset pipelining and the delay-imbalance metric.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use glitch_core::arith::{AdderStyle, ArrayMultiplier, DirectionDetector};
use glitch_core::retime::{delay_imbalance, pipeline_netlist, PipelineOptions};

fn bench_retiming(c: &mut Criterion) {
    let det = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);

    let mut group = c.benchmark_group("pipelining");
    for ranks in [1usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("direction_detector", ranks),
            &ranks,
            |b, &r| {
                b.iter(|| {
                    pipeline_netlist(&det.netlist, r, PipelineOptions::default())
                        .expect("pipelines")
                        .netlist
                        .dff_count()
                })
            },
        );
    }
    group.finish();

    c.bench_function("delay_imbalance_array8", |b| {
        b.iter(|| delay_imbalance(&mult.netlist).expect("valid"))
    });
}

criterion_group!(benches, bench_retiming);
criterion_main!(benches);
