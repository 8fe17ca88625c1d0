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

/// `text` with every `timed.*` metric removed — the only entries in which
/// a hybrid run's metrics may differ from the queue reference's.
fn without_timed(text: &str) -> String {
    let mut out = String::new();
    let mut rest = text;
    while let Some(at) = rest.find("\"timed.") {
        out.push_str(&rest[..at]);
        let entry = &rest[at..];
        let end = entry.find([',', '}']).expect("a terminated value");
        rest = entry[end..].strip_prefix(',').unwrap_or(&entry[end..]);
    }
    out.push_str(rest);
    out.replace(",}", "}")
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
    assert_eq!(counter(timed, "timed.fallbacks"), "0");
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
        "queue",
        "--metrics-json",
    ]);
    let event = event.lines().last().expect("metrics line");
    assert!(!event.contains("timed."), "{event}");
    assert_eq!(without_timed(timed), event);
    // Metered analyses keep the engine counters too, at any seed and
    // worker count: the metrics are read off the finished reports, so
    // each seed settles timed.
    let rca = data("rca4.blif");
    for command in ["analyze", "power"] {
        for seeds in ["1", "3"] {
            for jobs in [None, Some("1"), Some("2")] {
                let mut args = vec![
                    command,
                    rca.as_str(),
                    "--cycles",
                    "60",
                    "--seeds",
                    seeds,
                    "--metrics-json",
                ];
                args.extend(jobs.map(|jobs| ["--jobs", jobs]).into_iter().flatten());
                let case = args.join(" ");
                let timed = run(&args);
                // `power` takes no `--engine`; its reference is the queue
                // `analyze` of the same seeds, which runs the same jobs.
                args[0] = "analyze";
                args.extend(["--engine", "queue"]);
                let event = run(&args);
                // A single seed refuses any `--jobs` — identically.
                let accepted = jobs.is_none() || seeds != "1";
                assert_eq!(timed.status.success(), accepted, "{case}");
                assert_eq!(timed.status.code(), event.status.code(), "{case}");
                assert_eq!(timed.stderr, event.stderr, "{case}");
                if !accepted {
                    continue;
                }
                let timed = String::from_utf8(timed.stdout).expect("output is UTF-8");
                let event = String::from_utf8(event.stdout).expect("output is UTF-8");
                let line = timed.lines().last().expect("metrics line");
                assert_eq!(counter(line, "timed.shards"), seeds, "{case}");
                assert_eq!(counter(line, "timed.fallbacks"), "0", "{case}");
                assert!(!event.contains("timed."), "{case}: {event}");
                if command == "analyze" {
                    assert_eq!(without_timed(&timed), event, "{case}");
                } else {
                    let reference = event.lines().last().expect("metrics line");
                    assert_eq!(without_timed(line), reference, "{case}");
                }
            }
        }
    }
}

#[test]
fn sweep_and_reduce_metrics_equal_the_queue_reference() {
    // Without a registry a sweep's timed shards count no per-cycle
    // statistics; with one they count them, so the engine counters of a
    // metered run are the queue reference's whatever the bare run skips.
    for file in ["mult4.blif", "counter4.blif"] {
        let path = data(file);
        for command in ["sweep", "reduce"] {
            let args = [command, path.as_str(), "--cycles", "100", "--metrics-json"];
            let timed = stdout_of(&args);
            let event = stdout_of(&[&args[..], &["--engine", "queue"]].concat());
            let (timed, event) = (
                timed.lines().last().expect("metrics line"),
                event.lines().last().expect("metrics line"),
            );
            let case = format!("{command} {file}");
            // `reduce` records no engine counters: its scores read none.
            assert_eq!(
                timed.contains("\"sim.events\""),
                command == "sweep",
                "{case}: {timed}"
            );
            assert_eq!(without_timed(timed), event, "{case}");
        }
        // A traced sweep records spans but no counters.
        let trace_path = tmp(&format!("{file}.sweep.trace.json"));
        let traced = stdout_of(&[
            "sweep",
            &path,
            "--cycles",
            "100",
            "--json",
            "--trace-out",
            trace_path.to_str().unwrap(),
        ]);
        std::fs::remove_file(&trace_path).ok();
        let bare = stdout_of(&["sweep", &path, "--cycles", "100", "--json"]);
        assert_eq!(traced.lines().next(), bare.lines().next(), "{file}");
    }
}

#[test]
fn hybrid_batches_count_the_shards_that_fall_back_to_the_event_path() {
    // The windowed activity probe needs every transition, so both seeds
    // of a `--window` run settle event by event.
    let line = stdout_of(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "60",
        "--seeds",
        "2",
        "--window",
        "8",
        "--metrics-json",
    ]);
    let line = line.lines().last().expect("metrics line");
    assert_eq!(counter(line, "timed.fallbacks"), "2");
    assert_eq!(counter(line, "timed.shards"), "0");
}

/// The names of the shard bars that `args` plus `--trace-out` records.
fn shard_bars(name: &str, args: &[&str]) -> Vec<String> {
    let trace_path = tmp(name);
    let mut args = args.to_vec();
    args.extend(["--trace-out", trace_path.to_str().unwrap()]);
    stdout_of(&args);
    let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
    std::fs::remove_file(&trace_path).ok();
    trace
        .split("\"name\":\"")
        .skip(1)
        .filter(|rest| rest.starts_with("shard "))
        .map(|rest| rest[..rest.find('"').expect("a closed name")].to_string())
        .collect()
}

#[test]
fn single_seed_analyze_rides_the_engine_dispatch() {
    let rca = data("rca4.blif");
    let base = ["analyze", rca.as_str(), "--cycles", "60"];
    let routed = shard_bars("single.trace.json", &base);
    assert_eq!(routed.len(), 1, "{routed:?}");
    assert!(routed[0].ends_with(" (timed)"), "{routed:?}");
    // The queue reference, and a windowed probe that needs every
    // transition, settle event by event.
    for (name, extra) in [
        ("single.queue.trace.json", ["--engine", "queue"]),
        ("single.window.trace.json", ["--window", "8"]),
    ] {
        let mut args = base.to_vec();
        args.extend(extra);
        let event = shard_bars(name, &args);
        assert_eq!(event.len(), 1, "{args:?}: {event:?}");
        assert!(!event[0].contains("(timed)"), "{args:?}: {event:?}");
    }
    // Metrics are read off the finished report, so a metered run settles
    // where the bare run does, and the hybrid counters say so.
    let mut args = base.to_vec();
    args.push("--metrics-json");
    let line = stdout_of(&args);
    let line = line.lines().last().expect("metrics line");
    assert_eq!(counter(line, "timed.shards"), "1");
    assert_eq!(counter(line, "timed.fallbacks"), "0");
}

#[test]
fn hazard_checks_settle_timed_unless_a_budget_needs_every_transition() {
    let rca = data("rca4.blif");
    let base = ["check", rca.as_str(), "--hazards", "--metrics-json"];
    let line = stdout_of(&base);
    let line = line.lines().last().expect("metrics line");
    assert_eq!(counter(line, "timed.shards"), "1");
    assert_eq!(counter(line, "timed.fallbacks"), "0");
    // The settle-budget checker reads each transition's settle time.
    let mut args = base.to_vec();
    args.extend(["--budget", "outputs=4"]);
    let line = stdout_of(&args);
    let line = line.lines().last().expect("metrics line");
    assert_eq!(counter(line, "timed.shards"), "0");
    assert_eq!(counter(line, "timed.fallbacks"), "1");
}
