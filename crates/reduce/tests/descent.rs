//! Pins the reducer's headline guarantees:
//!
//! * **monotonic descent** — the reported glitch power is non-increasing
//!   across accepted iterations (each acceptance requires a strict
//!   improvement);
//! * **determinism** — the same inputs produce the same report at any
//!   worker count, bit for bit in every floating-point figure;
//! * **the CI gate** — on `mult4.blif` the default configuration lowers
//!   glitch power by at least 10% with the equivalence check passing.

use glitch_core::{AnalysisConfig, EngineKind, ReduceSession};
use glitch_io::{parse_netlist, Format, GateLibrary};
use glitch_netlist::{Bus, Netlist};
use glitch_reduce::{MoveKind, ProgressEvent, ProgressSink, ReduceOptions, ReduceReport, Reducer};

fn load(file: &str) -> Netlist {
    let path = format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).expect("corpus file exists");
    parse_netlist(&text, Format::Blif, &GateLibrary::standard()).expect("corpus parses")
}

fn input_buses(netlist: &Netlist) -> Vec<Bus> {
    netlist
        .inputs()
        .chunks(32)
        .map(|chunk| Bus::new(chunk.to_vec()))
        .collect()
}

fn reduce(file: &str, engine: EngineKind, jobs: usize, options: ReduceOptions) -> ReduceReport {
    let netlist = load(file);
    let buses = input_buses(&netlist);
    let session = ReduceSession::new(
        AnalysisConfig {
            cycles: 192,
            engine,
            ..AnalysisConfig::default()
        },
        vec![11, 17],
        jobs,
    );
    Reducer::new(session, options)
        .run(&netlist, &buses, &[])
        .expect("reduction runs")
}

/// Everything the report derives its claims from, in a comparable form.
fn fingerprint(report: &ReduceReport) -> Vec<String> {
    let mut lines = vec![
        format!("headline {}", report.headline()),
        format!(
            "power {:x} -> {:x}",
            report.initial_glitch_power.to_bits(),
            report.final_glitch_power.to_bits()
        ),
        format!(
            "counts {} {} {} {}",
            report.iterations, report.proposed, report.screened, report.confirmed
        ),
        format!("latency {}", report.latency),
    ];
    for value in &report.glitch_history {
        lines.push(format!("history {:x}", value.to_bits()));
    }
    for m in &report.moves {
        lines.push(format!(
            "move {} {} {} {:x}",
            m.iteration,
            m.kind,
            m.description,
            m.glitch_power_after.to_bits()
        ));
    }
    lines
}

#[test]
fn mult4_meets_the_ci_reduction_gate() {
    let report = reduce("mult4.blif", EngineKind::Queue, 2, ReduceOptions::default());
    assert!(
        report.reduction_percent() >= 10.0,
        "mult4 must lose at least 10% glitch power, got {:.1}%",
        report.reduction_percent()
    );
    assert!(report.equivalence.passed(), "equal function is mandatory");
    assert!(!report.moves.is_empty());
    assert!(report.headline().starts_with("glitch power -"));
}

#[test]
fn descent_is_monotonic_and_fully_accounted() {
    for file in ["mult4.blif", "rca4.blif"] {
        let report = reduce(file, EngineKind::Queue, 1, ReduceOptions::default());
        assert!(
            report.glitch_history.windows(2).all(|w| w[1] <= w[0]),
            "{file}: glitch power must never increase across accepted moves"
        );
        assert_eq!(report.glitch_history.len(), report.moves.len() + 1);
        assert_eq!(
            report.glitch_history[0].to_bits(),
            report.initial_glitch_power.to_bits()
        );
        assert_eq!(
            report.glitch_history.last().unwrap().to_bits(),
            report.final_glitch_power.to_bits()
        );
        assert!(report.screened <= report.proposed);
        assert!(report.confirmed <= report.screened);
        // The composed mapping stays total over the original.
        let original = load(file);
        report.map.validate(&original, &report.netlist).unwrap();
    }
}

#[test]
fn reports_are_identical_at_any_worker_count() {
    let serial = reduce("mult4.blif", EngineKind::Queue, 1, ReduceOptions::default());
    let parallel = reduce("mult4.blif", EngineKind::Queue, 4, ReduceOptions::default());
    assert_eq!(fingerprint(&serial), fingerprint(&parallel));
}

#[test]
fn hybrid_engine_reduces_identically_to_queue() {
    // Hybrid scoring settles on the timed kernel, hazard checker included
    // — every figure must match the queue run.
    let queue = reduce("mult4.blif", EngineKind::Queue, 2, ReduceOptions::default());
    let hybrid = reduce(
        "mult4.blif",
        EngineKind::Hybrid,
        2,
        ReduceOptions::default(),
    );
    assert_eq!(fingerprint(&queue), fingerprint(&hybrid));
}

#[test]
fn the_target_stops_the_descent_early() {
    let modest = ReduceOptions {
        target_percent: Some(5.0),
        ..ReduceOptions::default()
    };
    let report = reduce("mult4.blif", EngineKind::Queue, 2, modest);
    assert!(report.reduction_percent() >= 5.0);
    // A 5% target is met by the first accepted move here; the unbounded
    // run must not have stopped earlier than the targeted one.
    let unbounded = reduce("mult4.blif", EngineKind::Queue, 2, ReduceOptions::default());
    assert!(unbounded.moves.len() >= report.moves.len());
}

#[test]
fn progress_sink_observes_every_iteration_without_changing_the_report() {
    struct Collect(Vec<(usize, bool, u64)>);
    impl ProgressSink for Collect {
        fn iteration(&mut self, event: &ProgressEvent<'_>) {
            self.0.push((
                event.iteration,
                event.accepted.is_some(),
                event.glitch_power.to_bits(),
            ));
        }
    }
    let netlist = load("rca4.blif");
    let buses = input_buses(&netlist);
    let options = ReduceOptions {
        max_iters: 2,
        ..ReduceOptions::default()
    };
    let session = || {
        ReduceSession::new(
            AnalysisConfig {
                cycles: 192,
                engine: EngineKind::Queue,
                ..AnalysisConfig::default()
            },
            vec![11, 17],
            1,
        )
    };
    let plain = Reducer::new(session(), options.clone())
        .run(&netlist, &buses, &[])
        .expect("reduction runs");
    let mut sink = Collect(Vec::new());
    let observed = Reducer::new(session(), options)
        .run_with_progress(&netlist, &buses, &[], &mut sink)
        .expect("reduction runs");

    // One event per iteration, accepted events first, in loop order.
    assert_eq!(sink.0.len(), observed.iterations);
    assert_eq!(
        sink.0.iter().filter(|(_, accepted, _)| *accepted).count(),
        observed.moves.len()
    );
    for (event, m) in sink.0.iter().zip(&observed.moves) {
        assert_eq!(event.0, m.iteration);
        assert!(event.1);
        assert_eq!(event.2, m.glitch_power_after.to_bits());
    }
    // The sink is observe-only: both reports are identical.
    assert_eq!(fingerprint(&plain), fingerprint(&observed));
}

#[test]
fn restricted_move_sets_are_honoured() {
    let buffers_only = ReduceOptions {
        moves: vec![MoveKind::Buffer],
        max_iters: 2,
        ..ReduceOptions::default()
    };
    let report = reduce("rca4.blif", EngineKind::Queue, 2, buffers_only);
    assert!(report.moves.iter().all(|m| m.kind == MoveKind::Buffer));
    assert_eq!(report.latency, 0, "buffer moves add no latency");
    assert!(report.equivalence.passed());
}
