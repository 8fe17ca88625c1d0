//! End-to-end tests of the CLI telemetry surface: `--metrics[=FILE]`,
//! `--metrics-json` and `--trace-out FILE`.
//!
//! The load-bearing assertion is jobs-invariance: the merged metrics
//! registry is folded in seed order, so the `--metrics-json` dump must be
//! byte-identical at any `--jobs` count (the CLI-level face of the
//! `MergeableProbe` discipline pinned in `glitch-sim` and `glitch-obs`).

use std::path::PathBuf;
use std::process::{Command, Output};

fn data(file: &str) -> String {
    format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
        .args(args)
        .output()
        .expect("the binary must spawn")
}

fn stdout_of(args: &[&str]) -> String {
    let output = run(args);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("output is UTF-8")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("glitch_telemetry_{}_{name}", std::process::id()))
}

#[test]
fn metrics_json_is_bit_identical_across_jobs() {
    let last_line = |jobs: &str| -> String {
        stdout_of(&[
            "analyze",
            &data("counter4.blif"),
            "--cycles",
            "120",
            "--seeds",
            "4",
            "--jobs",
            jobs,
            "--metrics-json",
        ])
        .lines()
        .last()
        .expect("metrics line")
        .to_string()
    };
    let serial = last_line("1");
    assert!(serial.starts_with('{') && serial.ends_with('}'));
    assert!(
        serial.contains("\"sim.cycles\":480"),
        "4 seeds x 120 cycles must aggregate: {serial}"
    );
    for jobs in ["2", "8"] {
        assert_eq!(last_line(jobs), serial, "--jobs {jobs} changed the metrics");
    }
}

#[test]
fn metrics_json_is_the_final_stdout_line_with_the_expected_sections() {
    let text = stdout_of(&[
        "analyze",
        &data("c17.blif"),
        "--cycles",
        "100",
        "--metrics-json",
    ]);
    let last = text.lines().last().unwrap();
    assert!(last.starts_with("{\"counters\":{"), "got: {last}");
    for section in ["\"gauges\":{", "\"histograms\":{", "\"sim.cell_evals\""] {
        assert!(last.contains(section), "missing {section}: {last}");
    }
    // The human report still precedes it.
    assert!(text.contains("power @"));
}

#[test]
fn trace_out_writes_chrome_trace_events_for_every_phase() {
    let trace_path = tmp("analyze.trace.json");
    stdout_of(&[
        "analyze",
        &data("counter4.blif"),
        "--cycles",
        "100",
        "--seeds",
        "3",
        "--jobs",
        "2",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();
    let trimmed = trace.trim();
    assert!(trimmed.starts_with('[') && trimmed.ends_with(']'));
    for needle in [
        "\"ph\":\"X\"",
        "\"cat\":\"glitch\"",
        "\"name\":\"parse\"",
        "\"name\":\"cone-index\"",
        "\"name\":\"simulate\"",
        "\"name\":\"shard ",
        "\"name\":\"merge\"",
    ] {
        assert!(trimmed.contains(needle), "missing {needle} in {trimmed}");
    }
}

#[test]
fn check_telemetry_reports_checker_spans_and_violation_counters() {
    let trace_path = tmp("check.trace.json");
    let text = stdout_of(&[
        "check",
        &data("counter4.blif"),
        "--x-init",
        "--cycles",
        "80",
        "--seeds",
        "2",
        "--metrics",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();
    assert!(trace.contains("\"name\":\"checker:x-propagation\""));
    // The human metrics dump follows the report, counters included.
    assert!(text.contains("check.violations_total"));
    assert!(text.contains("check.x-propagation.violations"));
    assert!(text.contains("spans (wall clock, non-deterministic):"));
}

#[test]
fn metrics_file_option_writes_the_dump_instead_of_stdout() {
    let metrics_path = tmp("metrics.txt");
    let arg = format!("--metrics={}", metrics_path.display());
    let text = stdout_of(&["power", &data("c17.blif"), "--cycles", "50", &arg]);
    let dump = std::fs::read_to_string(&metrics_path).expect("metrics file written");
    std::fs::remove_file(&metrics_path).ok();
    assert!(dump.contains("sim.cycles"));
    assert!(!text.contains("sim.cycles"), "dump must not hit stdout");
    // A bare `--metrics out.txt` must not swallow `out.txt`: the value is
    // only attached with `=`.
    let output = run(&["power", &data("c17.blif"), "--metrics", "nonsense.txt"]);
    assert!(!output.status.success(), "two positional args must fail");
}

#[test]
fn telemetry_off_keeps_the_bare_output_clean() {
    let text = stdout_of(&["analyze", &data("c17.blif"), "--cycles", "50"]);
    assert!(!text.contains("counters"));
    assert!(!text.contains("spans (wall clock"));
}

/// The value of counter `name` in a `--metrics-json` line.
fn counter<'a>(line: &'a str, name: &str) -> &'a str {
    let key = format!("\"{name}\":");
    let start = line
        .find(&key)
        .map(|at| at + key.len())
        .unwrap_or_else(|| panic!("no {name}: {line}"));
    let len = line[start..].find([',', '}']).expect("a terminated value");
    &line[start..start + len]
}

#[test]
fn sweep_metrics_count_the_timed_shards_and_keep_the_engine_counters() {
    let trace_path = tmp("sweep.trace.json");
    let timed = stdout_of(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--delays",
        "unit,zero",
        "--metrics-json",
        "--trace-out",
        trace_path.to_str().unwrap(),
    ]);
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();
    assert!(
        trace.contains("(timed)\""),
        "timed shards are marked: {trace}"
    );
    let timed = timed.lines().last().expect("metrics line");
    assert_eq!(counter(timed, "timed.shards"), "2");
    assert_eq!(counter(timed, "timed.lanes"), "200");
    assert_ne!(counter(timed, "timed.op_evals"), "0");
    assert_ne!(counter(timed, "timed.horizon"), "0");
    // The event path counts the same engine work and no timed shard.
    let event = stdout_of(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--delays",
        "unit,zero",
        "--engine",
        "hybrid",
        "--metrics-json",
    ]);
    let event = event.lines().last().expect("metrics line");
    assert!(!event.contains("timed."), "{event}");
    for name in [
        "sim.cycles",
        "sim.events",
        "sim.cell_evals",
        "sim.max_settle_time",
        "queue.pushes",
        "queue.pops",
        "queue.peak_depth",
    ] {
        assert_eq!(counter(timed, name), counter(event, name), "{name}");
    }
}
