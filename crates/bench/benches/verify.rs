//! Criterion benchmarks of checker overhead — the `verify_overhead`
//! regression group.
//!
//! The verification subsystem attaches its checkers to the *same* one-pass
//! session the analyzer runs, so the cost of checking is the per-event
//! work of the checker hooks, not an extra simulation. This group
//! measures that margin on the 8-bit array multiplier: a bare analysis
//! session (a priced activity probe) against the same session
//! with the full checker suite (X-propagation, settle budgets on every
//! net, hazard classification) attached, and prints the observed
//! overhead ratio. The ROADMAP target is to *report* the ratio; there is
//! no hard gate yet.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use glitch_core::arith::{AdderStyle, ArrayMultiplier};
use glitch_core::netlist::Netlist;
use glitch_core::power::Technology;
use glitch_core::sim::{ActivityProbe, InputAssignment, RandomStimulus, SimSession};
use glitch_core::verify::{BudgetSpec, CheckSuite};

const CYCLES: u64 = 300;
const SEED: u64 = 0x5EED;

struct Workload {
    netlist: Netlist,
    stimulus: Vec<InputAssignment>,
    suite: CheckSuite,
}

fn workload() -> Workload {
    let mult = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let buses = vec![mult.x.clone(), mult.y.clone()];
    let stimulus: Vec<InputAssignment> = RandomStimulus::new(buses, CYCLES, SEED).collect();
    let budgets = BudgetSpec::parse_list("*=cycle")
        .unwrap()
        .resolve(&mult.netlist)
        .unwrap();
    let suite = CheckSuite::new()
        .with_x_propagation()
        .with_budgets(budgets)
        .with_hazards();
    Workload {
        netlist: mult.netlist,
        stimulus,
        suite,
    }
}

fn bare_session(w: &Workload) -> u64 {
    let report = SimSession::new(&w.netlist)
        .stimulus(w.stimulus.clone())
        .probe(ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6))
        .run()
        .expect("settles");
    report.total_transitions()
}

fn checked_session(w: &Workload) -> u64 {
    let report = SimSession::new(&w.netlist)
        .stimulus(w.stimulus.clone())
        .probe(ActivityProbe::priced(Technology::cmos_0p8um_5v(), 5e6))
        .probe(w.suite.build())
        .run()
        .expect("settles");
    report.total_transitions()
}

/// Wall-clock of `n` runs of `f`, in seconds.
fn time_runs(n: u32, mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    for _ in 0..n {
        std::hint::black_box(f());
    }
    start.elapsed().as_secs_f64()
}

fn bench_verify_overhead(c: &mut Criterion) {
    let w = workload();
    // Checking must not perturb the analysis itself.
    assert_eq!(bare_session(&w), checked_session(&w));

    // The reported figure: checker overhead as a ratio over the bare
    // session (ROADMAP asks for the ratio, not a gate).
    let bare = time_runs(5, || bare_session(&w));
    let checked = time_runs(5, || checked_session(&w));
    println!(
        "verify_overhead: bare {:.3}s, checked {:.3}s -> {:.2}x \
         (full suite: x-propagation + budgets on every net + hazards)",
        bare,
        checked,
        checked / bare
    );

    let mut group = c.benchmark_group("verify_overhead");
    group.throughput(Throughput::Elements(CYCLES));
    group.bench_function("bare_analysis_session", |b| b.iter(|| bare_session(&w)));
    group.bench_function("checked_analysis_session", |b| {
        b.iter(|| checked_session(&w))
    });
    group.finish();
}

criterion_group!(benches, bench_verify_overhead);
criterion_main!(benches);
