//! Criterion benchmarks of the transition-accounting and power-estimation
//! layers (independent of simulation time).

use criterion::{criterion_group, criterion_main, Criterion};
use glitch_core::activity::{split_by_parity, ActivityReport, ActivityTrace};
use glitch_core::arith::{AdderStyle, WallaceTreeMultiplier};
use glitch_core::power::{estimate_power, Technology};
use glitch_core::sim::{ActivityProbe, RandomStimulus, SimSession};

fn bench_analysis(c: &mut Criterion) {
    // Pre-simulate once; the benchmarks measure the pure analysis cost.
    let mult = WallaceTreeMultiplier::new(16, AdderStyle::CompoundCell);
    let mut report = SimSession::new(&mult.netlist)
        .stimulus(RandomStimulus::new(
            vec![mult.x.clone(), mult.y.clone()],
            100,
            3,
        ))
        .probe(ActivityProbe::new())
        .run()
        .expect("settles");
    let trace = report
        .take_probe::<ActivityProbe>()
        .expect("probe attached")
        .into_trace();

    c.bench_function("parity_classification_1M", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for count in 0..1_000_000u64 {
                acc += split_by_parity(count % 7).useless;
            }
            acc
        })
    });

    c.bench_function("activity_report_wallace16", |b| {
        b.iter(|| ActivityReport::new(&mult.netlist, &trace).totals())
    });

    c.bench_function("power_estimate_wallace16", |b| {
        let tech = Technology::cmos_0p8um_5v();
        b.iter(|| {
            estimate_power(&mult.netlist, &trace, &tech, 5e6)
                .breakdown
                .total()
        })
    });

    c.bench_function("trace_recording_1k_cycles", |b| {
        let counts = vec![2u32; 2000];
        b.iter(|| {
            let mut t = ActivityTrace::new(2000);
            for _ in 0..1000 {
                t.record_cycle(&counts);
            }
            t.totals().transitions
        })
    });
}

criterion_group!(benches, bench_analysis);
criterion_main!(benches);
