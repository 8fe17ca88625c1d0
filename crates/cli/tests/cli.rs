//! End-to-end tests of the `glitch-cli` binary over the bundled corpus:
//! the full parse → validate → simulate → classify-glitches → power
//! pipeline must run on every shipped circuit, including the sequential
//! counter, and the exporters must produce well-formed artefacts.

use std::path::PathBuf;
use std::process::{Command, Output};

use glitch_serve::jsonin::{parse_json, JsonValue};

fn data(file: &str) -> String {
    format!("{}/../../tests/data/{file}", env!("CARGO_MANIFEST_DIR"))
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
        .args(args)
        .output()
        .expect("the binary must spawn")
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

#[test]
fn analyze_runs_the_full_pipeline_on_every_bundled_blif() {
    // The acceptance bar: parse → validate → simulate → classify → power
    // on at least 3 bundled circuits, one of them sequential.
    let circuits = ["c17.blif", "rca4.blif", "counter4.blif", "alu_slice.blif"];
    let mut sequential_seen = false;
    for circuit in circuits {
        let output = run(&["analyze", &data(circuit), "--cycles", "200"]);
        assert!(output.status.success(), "{circuit}: {}", stderr(&output));
        let text = stdout(&output);
        assert!(
            text.contains("transition activity"),
            "{circuit}: no activity section"
        );
        assert!(
            text.contains("useless/useful ratio L/F"),
            "{circuit}: no classification"
        );
        assert!(text.contains("power @"), "{circuit}: no power section");
        if text.contains("flipflops: 4") {
            sequential_seen = true;
            assert!(
                text.contains("flipflop"),
                "{circuit}: sequential power must show up"
            );
        }
    }
    assert!(
        sequential_seen,
        "counter4.blif must be analyzed as a sequential circuit"
    );
}

#[test]
fn analyze_accepts_verilog_input() {
    let output = run(&["analyze", &data("c17.v"), "--cycles", "100"]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("`c17`"));
}

#[test]
fn delay_models_change_glitching_but_not_useful_work() {
    let unit = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "300",
        "--delay",
        "unit",
    ]);
    let zero = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "300",
        "--delay",
        "zero",
    ]);
    assert!(unit.status.success() && zero.status.success());
    let useful = |text: &str| -> u64 {
        // "total 1287 (useful 843 / useless 444), ..."
        let at = text.find("useful ").expect("activity line") + "useful ".len();
        text[at..]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert_eq!(useful(&stdout(&unit)), useful(&stdout(&zero)));
    assert!(
        stdout(&zero).contains("useless 0)"),
        "zero delay cannot glitch"
    );
}

#[test]
fn parse_emits_blif_and_dot() {
    let dir = std::env::temp_dir().join("glitch_cli_test_parse");
    std::fs::create_dir_all(&dir).unwrap();
    let blif_out = dir.join("rt.blif");
    let dot_out = dir.join("rt.dot");
    let output = run(&[
        "parse",
        &data("counter4.blif"),
        "--emit-blif",
        blif_out.to_str().unwrap(),
        "--dot",
        dot_out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("4 flipflops"));
    let emitted = std::fs::read_to_string(&blif_out).unwrap();
    assert!(emitted.contains(".latch"));
    let dot = std::fs::read_to_string(&dot_out).unwrap();
    assert!(dot.starts_with("digraph"));

    // The emitted file must itself be accepted.
    let reparse = run(&["parse", blif_out.to_str().unwrap()]);
    assert!(reparse.status.success(), "{}", stderr(&reparse));
    assert!(stdout(&reparse).contains("4 flipflops"));
}

#[test]
fn simulate_writes_a_vcd() {
    let dir = std::env::temp_dir().join("glitch_cli_test_vcd");
    std::fs::create_dir_all(&dir).unwrap();
    let vcd_out: PathBuf = dir.join("c17.vcd");
    let output = run(&[
        "simulate",
        &data("c17.blif"),
        "--cycles",
        "20",
        "--vcd",
        vcd_out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let vcd = std::fs::read_to_string(&vcd_out).unwrap();
    assert!(vcd.contains("$timescale"));
    assert!(vcd.contains("$enddefinitions"));
}

#[test]
fn analyze_produces_every_artefact_from_one_simulation_pass() {
    // The acceptance bar of the session redesign: `analyze --vcd --csv`
    // (plus the per-transition CSV) costs exactly one simulation pass.
    let dir = std::env::temp_dir().join("glitch_cli_test_one_pass");
    std::fs::create_dir_all(&dir).unwrap();
    let vcd_out = dir.join("out.vcd");
    let csv_out = dir.join("out.csv");
    let wave_out = dir.join("wave.csv");
    let output = run(&[
        "analyze",
        &data("c17.blif"),
        "--cycles",
        "200",
        "--vcd",
        vcd_out.to_str().unwrap(),
        "--csv",
        csv_out.to_str().unwrap(),
        "--wave-csv",
        wave_out.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(
        text.contains("one simulation pass: 200 cycles"),
        "missing one-pass marker: {text}"
    );
    let vcd = std::fs::read_to_string(&vcd_out).unwrap();
    assert!(vcd.contains("$enddefinitions"));
    let csv = std::fs::read_to_string(&csv_out).unwrap();
    assert!(csv.lines().count() > 1, "activity CSV has rows");
    let wave = std::fs::read_to_string(&wave_out).unwrap();
    assert!(wave.starts_with("cycle,time,net,value,kind"));
    assert!(wave.lines().count() > 1, "wave CSV has rows");
}

#[test]
fn analyze_json_emits_a_machine_readable_report() {
    let output = run(&["analyze", &data("c17.blif"), "--cycles", "150", "--json"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    let json = text.trim();
    assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    assert!(json.contains("\"netlist\":\"c17\""), "{json}");
    assert!(json.contains("\"cycles\":150"), "{json}");
    assert!(json.contains("\"passes\":1"), "{json}");
    assert!(json.contains("\"activity\":{"), "{json}");
    assert!(json.contains("\"power\":{"), "{json}");
    assert!(json.contains("\"lf_ratio\":"), "{json}");
    // JSON mode suppresses the human-readable report.
    assert!(!text.contains("transition activity"), "{text}");
}

#[test]
fn stats_json_emits_the_histogram() {
    let output = run(&["stats", &data("counter4.blif"), "--json"]);
    assert!(output.status.success(), "{}", stderr(&output));
    let json = stdout(&output);
    assert!(json.contains("\"netlist\":\"counter4\""), "{json}");
    assert!(json.contains("\"flipflops\":4"), "{json}");
    assert!(json.contains("\"cells_by_kind\":{"), "{json}");
    assert!(json.contains("\"DFF\":4"), "{json}");
}

#[test]
fn retime_reports_a_comparison_table() {
    let output = run(&[
        "retime",
        &data("rca4.blif"),
        "--ranks",
        "2",
        "--cycles",
        "200",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("original"));
    assert!(text.contains("retimed"));
    assert!(text.contains("register rank(s)"));
}

#[test]
fn retime_rejects_sequential_circuits() {
    let output = run(&["retime", &data("counter4.blif")]);
    assert!(!output.status.success());
    assert!(stderr(&output).contains("cannot retime"));
}

#[test]
fn parse_errors_carry_file_and_location() {
    let dir = std::env::temp_dir().join("glitch_cli_test_err");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.blif");
    std::fs::write(
        &bad,
        ".model t\n.inputs a\n.outputs y\n.subckt nope a=a y=y\n.end\n",
    )
    .unwrap();
    let output = run(&["parse", bad.to_str().unwrap()]);
    assert!(!output.status.success());
    let err = stderr(&output);
    assert!(err.contains("bad.blif"), "{err}");
    assert!(err.contains("line 4"), "{err}");
    assert!(err.contains("unknown cell `nope`"), "{err}");
}

#[test]
fn usage_errors_print_usage() {
    let output = run(&["frobnicate"]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("usage: glitch-cli"));

    let help = run(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("analyze"));
}

#[test]
fn power_command_reports_the_three_components() {
    let output = run(&[
        "power",
        &data("counter4.blif"),
        "--cycles",
        "100",
        "--tech",
        "65nm",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("logic"));
    assert!(text.contains("flipflop"));
    assert!(text.contains("clock"));
}

#[test]
fn multi_seed_analyze_aggregate_is_independent_of_the_worker_count() {
    // `--seeds N --jobs J`: the aggregate (text and JSON) must be
    // bit-identical for J = 1 and J = 4 — parallelism must never change
    // results.
    let base = [
        "analyze",
        &data("counter4.blif"),
        "--cycles",
        "150",
        "--seeds",
        "4",
    ];
    let mut serial_args: Vec<&str> = base.to_vec();
    serial_args.extend(["--jobs", "1", "--json"]);
    let mut parallel_args: Vec<&str> = base.to_vec();
    parallel_args.extend(["--jobs", "4", "--json"]);
    let serial = run(&serial_args);
    let parallel = run(&parallel_args);
    assert!(serial.status.success(), "{}", stderr(&serial));
    assert!(parallel.status.success(), "{}", stderr(&parallel));
    // Everything except the echoed worker count must match bit for bit.
    assert_eq!(
        stdout(&serial).replace("\"jobs\":1,", "\"jobs\":-,"),
        stdout(&parallel).replace("\"jobs\":4,", "\"jobs\":-,")
    );
    let json = stdout(&parallel);
    assert!(json.contains("\"seeds\":4"), "{json}");
    assert!(json.contains("\"total_cycles\":600"), "{json}");
    assert!(json.contains("\"spread\""), "{json}");
    assert!(json.contains("\"per_seed\":["), "{json}");

    // The human-readable form reports the per-seed spread.
    let text_run = run(&[
        "analyze",
        &data("counter4.blif"),
        "--cycles",
        "150",
        "--seeds",
        "4",
        "--jobs",
        "2",
    ]);
    assert!(text_run.status.success(), "{}", stderr(&text_run));
    let text = stdout(&text_run);
    assert!(
        text.contains("parallel sweep: 4 seeds x 150 cycles"),
        "{text}"
    );
    assert!(text.contains("per-seed spread"), "{text}");
    assert!(
        text.contains("aggregate over the combined activity"),
        "{text}"
    );
}

#[test]
fn windowed_activity_csv_covers_the_run() {
    let dir = std::env::temp_dir().join("glitch-cli-window-test");
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("windows.csv");
    let output = run(&[
        "analyze",
        &data("counter4.blif"),
        "--cycles",
        "100",
        "--window",
        "20",
        "--window-csv",
        csv_path.to_str().unwrap(),
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    assert!(stdout(&output).contains("windowed activity: 5 windows of 20 cycles"));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    assert!(csv.starts_with("window,start_cycle,cycles,transitions,useful,useless,glitches"));
    assert_eq!(csv.lines().count(), 1 + 5, "{csv}");
    // The windows jointly cover all 100 cycles.
    let total_cycles: u64 = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total_cycles, 100);

    // Window flags compose with the multi-seed path (merged heatmap).
    let merged = run(&[
        "analyze",
        &data("counter4.blif"),
        "--cycles",
        "100",
        "--seeds",
        "3",
        "--jobs",
        "2",
        "--window",
        "20",
        "--window-csv",
        csv_path.to_str().unwrap(),
    ]);
    assert!(merged.status.success(), "{}", stderr(&merged));
    let csv = std::fs::read_to_string(&csv_path).unwrap();
    let total_cycles: u64 = csv
        .lines()
        .skip(1)
        .map(|l| l.split(',').nth(2).unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(total_cycles, 300, "3 seeds x 100 cycles merged");
}

#[test]
fn sweep_compares_delay_models_on_identical_seeds() {
    let output = run(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--seeds",
        "2",
        "--jobs",
        "2",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("delay-model sweep"), "{text}");
    for model in ["unit", "zero", "adder"] {
        assert!(text.contains(model), "{text}");
    }
    // The zero-delay row is the glitch-free reference.
    let zero_row = text
        .lines()
        .find(|l| l.trim_start().starts_with("zero"))
        .expect("zero-delay row");
    assert!(zero_row.contains("0.0 +/- 0.0"), "{zero_row}");

    let json_run = run(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--seeds",
        "2",
        "--delays",
        "unit,zero",
        "--json",
    ]);
    assert!(json_run.status.success(), "{}", stderr(&json_run));
    let json = stdout(&json_run);
    assert!(json.contains("\"points\":["), "{json}");
    assert!(json.contains("\"delay\":\"unit\""), "{json}");
    assert!(json.contains("\"glitch_spread\""), "{json}");
}

#[test]
fn multi_seed_power_reports_the_spread() {
    let output = run(&[
        "power",
        &data("counter4.blif"),
        "--cycles",
        "100",
        "--seeds",
        "3",
        "--jobs",
        "2",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("aggregate of 3 seeds"), "{text}");
    assert!(text.contains("per-seed total power"), "{text}");
    assert!(text.contains("300 cycles of activity"), "{text}");
}

#[test]
fn analyze_flip_reports_the_baseline_and_flipped_runs() {
    let output = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "200",
        "--flip",
        "50:a1,120:b2=1",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("flip: `b2` -> 1 in cycle 120"), "{text}");
    assert!(text.contains("baseline"), "{text}");
    assert!(text.contains("flipped"), "{text}");

    let json_run = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "150",
        "--flip",
        "30:cin",
        "--json",
    ]);
    assert!(json_run.status.success(), "{}", stderr(&json_run));
    let json = stdout(&json_run);
    assert!(
        json.contains("\"flips\":[{\"net\":\"cin\",\"cycle\":30"),
        "{json}"
    );
    assert!(json.contains("\"baseline\":{\"activity\""), "{json}");
    assert!(json.contains("\"delta\":{\"activity\""), "{json}");
}

#[test]
fn analyze_flip_settles_both_runs_on_the_timed_kernel() {
    let output = run(&[
        "analyze",
        &data("mult4.blif"),
        "--cycles",
        "100",
        "--flip",
        "10:x[1]",
        "--metrics-json",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    let metrics = parse_json(text.lines().last().expect("a metrics line")).expect("JSON");
    // The configured run and the flipped run, both on the timed kernel.
    assert_eq!(
        field(&metrics, &["counters", "timed.shards"]).as_u64(),
        Some(2)
    );
    assert_eq!(
        field(&metrics, &["counters", "timed.fallbacks"]).as_u64(),
        Some(0)
    );
    assert_eq!(
        field(&metrics, &["counters", "timed.lanes"]).as_u64(),
        Some(200)
    );
}

#[test]
fn analyze_flip_rejects_bad_specs() {
    let bad_net = run(&["analyze", &data("rca4.blif"), "--flip", "10:nope"]);
    assert!(!bad_net.status.success());
    assert!(stderr(&bad_net).contains("no net named `nope`"));

    let not_input = run(&["analyze", &data("rca4.blif"), "--flip", "10:s0"]);
    assert_eq!(not_input.status.code(), Some(2));
    assert!(stderr(&not_input).contains("not a primary input"));

    let bad_cycle = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "50",
        "--flip",
        "50:a1",
    ]);
    assert_eq!(bad_cycle.status.code(), Some(2));
    assert!(stderr(&bad_cycle).contains("beyond the 50-cycle run"));

    let with_seeds = run(&[
        "analyze",
        &data("rca4.blif"),
        "--flip",
        "1:a1",
        "--seeds",
        "2",
    ]);
    assert_eq!(with_seeds.status.code(), Some(2));
    assert!(stderr(&with_seeds).contains("--flip applies to single-seed runs"));
}

#[test]
fn sweep_flip_inputs_reports_sensitivity_per_input() {
    let output = run(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "150",
        "--flip-inputs",
        "all",
        "--flip-cycle",
        "40",
        "--jobs",
        "2",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("input-flip sensitivity sweep"), "{text}");
    assert!(text.contains("against a baseline of 150 cycles"), "{text}");
    // One row per primary input of rca4.
    for input in ["a0", "b3", "cin"] {
        assert!(text.contains(input), "missing row for {input}: {text}");
    }

    // Worker count must not change the rows.
    let serial = run(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "150",
        "--flip-inputs",
        "all",
        "--flip-cycle",
        "40",
        "--jobs",
        "1",
        "--json",
    ]);
    let parallel = run(&[
        "sweep",
        &data("rca4.blif"),
        "--cycles",
        "150",
        "--flip-inputs",
        "all",
        "--flip-cycle",
        "40",
        "--jobs",
        "3",
        "--json",
    ]);
    assert!(serial.status.success() && parallel.status.success());
    assert_eq!(
        stdout(&serial).replace("\"jobs\":1,", "\"jobs\":-,"),
        stdout(&parallel).replace("\"jobs\":3,", "\"jobs\":-,")
    );
    let json = stdout(&parallel);
    assert!(json.contains("\"points\":[{\"input\":\"a0\""), "{json}");

    let with_delays = run(&[
        "sweep",
        &data("rca4.blif"),
        "--flip-inputs",
        "all",
        "--delays",
        "unit,zero",
    ]);
    assert_eq!(with_delays.status.code(), Some(2));
    assert!(stderr(&with_delays).contains("does not combine"));
}

/// The field at `path` of a parsed JSON report.
fn field<'a>(root: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(root, |value, key| match value {
        JsonValue::Object(map) => map
            .get(*key)
            .unwrap_or_else(|| panic!("missing field `{key}` in {value:?}")),
        other => panic!("expected an object at `{key}`, got {other:?}"),
    })
}

#[test]
fn sweep_flip_rows_equal_analyze_flip_after_figures_at_any_jobs_count() {
    let mult = data("mult4.blif");
    let inputs = ["x[0]", "x[1]", "x[2]", "x[3]"];
    let sweep = |jobs: &str| {
        let output = run(&[
            "sweep",
            &mult,
            "--cycles",
            "120",
            "--flip-inputs",
            &inputs.join(","),
            "--flip-cycle",
            "60",
            "--jobs",
            jobs,
            "--json",
        ]);
        assert!(output.status.success(), "{}", stderr(&output));
        parse_json(&stdout(&output)).expect("sweep --json parses")
    };
    let serial = sweep("1");
    let parallel = sweep("3");
    // The worker count changes nothing but the `jobs` field.
    for key in ["baseline", "points"] {
        assert_eq!(field(&serial, &[key]), field(&parallel, &[key]), "{key}");
    }
    assert!(field(&serial, &["baseline", "activity", "useful"]).as_u64() > Some(0));
    let JsonValue::Array(rows) = field(&parallel, &["points"]) else {
        panic!("points must be an array")
    };
    assert_eq!(rows.len(), inputs.len());
    for (row, input) in rows.iter().zip(inputs) {
        assert_eq!(field(row, &["input"]).as_str(), Some(input));
        assert!(field(row, &["power_total_w"])
            .as_f64()
            .is_some_and(|w| w > 0.0));
        assert!(field(row, &["useful"]).as_u64() > Some(0));

        // Each row is the after-figures of `analyze --flip` of that input.
        let output = run(&[
            "analyze",
            &mult,
            "--cycles",
            "120",
            "--flip",
            &format!("60:{input}"),
            "--json",
        ]);
        assert!(output.status.success(), "{}", stderr(&output));
        let flip = parse_json(&stdout(&output)).expect("analyze --flip --json parses");
        let JsonValue::Array(applied) = field(&flip, &["flips"]) else {
            panic!("flips must be an array")
        };
        assert_eq!(field(&applied[0], &["value"]), field(row, &["flipped_to"]));
        assert_eq!(field(&flip, &["baseline"]), field(&parallel, &["baseline"]));
        for key in ["useful", "useless", "glitches"] {
            assert_eq!(
                field(&flip, &["delta", "activity", key]),
                field(row, &[key]),
                "{input} {key}"
            );
        }
        assert_eq!(
            field(&flip, &["delta", "power", "total_w"]),
            field(row, &["power_total_w"])
        );
    }
}

#[test]
fn per_seed_artefact_flags_reject_multi_seed_runs() {
    let output = run(&[
        "analyze",
        &data("c17.blif"),
        "--seeds",
        "2",
        "--vcd",
        "/tmp/never-written.vcd",
    ]);
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr(&output).contains("--vcd applies to single-seed runs"));

    let bad_window = run(&[
        "analyze",
        &data("c17.blif"),
        "--window-csv",
        "/tmp/never-written.csv",
    ]);
    assert_eq!(bad_window.status.code(), Some(2));
    assert!(stderr(&bad_window).contains("--window-csv requires --window"));
}

// ------------------------------------------------------------------ check

#[test]
fn check_detects_the_seeded_x_propagation_bug() {
    // The seeded bug: an uninitialised latch in an XOR feedback loop —
    // its X reaches output `y` and never clears.
    let bug = run(&[
        "check",
        &data("xinit_bug.blif"),
        "--x-init",
        "--cycles",
        "60",
    ]);
    assert!(bug.status.success(), "{}", stderr(&bug));
    let text = stdout(&bug);
    assert!(text.contains("x-propagation"), "{text}");
    assert!(text.contains("verdict: FAIL"), "{text}");
    assert!(text.contains("`y`: first X at cycle end 0"), "{text}");

    // The well-initialised reference passes: explicit latch inits clear
    // the unknown region within the first cycle.
    let ok = run(&[
        "check",
        &data("xinit_ok.blif"),
        "--x-init",
        "--cycles",
        "60",
    ]);
    assert!(ok.status.success(), "{}", stderr(&ok));
    let text = stdout(&ok);
    assert!(text.contains("verdict: PASS"), "{text}");
    assert!(text.contains("X cleared within the first cycle"), "{text}");

    // --strict turns the failing verdict into a nonzero exit.
    let strict = run(&[
        "check",
        &data("xinit_bug.blif"),
        "--x-init",
        "--cycles",
        "60",
        "--strict",
    ]);
    assert_eq!(strict.status.code(), Some(1));
    assert!(stderr(&strict).contains("verification verdict: FAIL"));
    let strict_ok = run(&[
        "check",
        &data("xinit_ok.blif"),
        "--x-init",
        "--cycles",
        "60",
        "--strict",
    ]);
    assert!(strict_ok.status.success());
}

#[test]
fn check_detects_the_seeded_settle_budget_violation() {
    // The 4-bit multiplier's sum outputs settle as late as t=8 under unit
    // delay; a 4-unit output budget is the seeded violation.
    let output = run(&[
        "check",
        &data("mult4.blif"),
        "--budget",
        "outputs=4",
        "--cycles",
        "60",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    assert!(text.contains("settle-budget"), "{text}");
    assert!(text.contains("verdict: FAIL"), "{text}");
    assert!(text.contains("budget 4"), "{text}");

    // `*=cycle` (the combinational depth) is met by construction.
    let relaxed = run(&[
        "check",
        &data("mult4.blif"),
        "--budget",
        "*=cycle",
        "--cycles",
        "60",
    ]);
    assert!(relaxed.status.success());
    assert!(
        stdout(&relaxed).contains("verdict: PASS"),
        "{}",
        stdout(&relaxed)
    );

    // Budget files load, and bad specs are rejected with locations.
    let from_file = run(&[
        "check",
        &data("rca4.blif"),
        "--budgets",
        &data("budgets.toml"),
        "--cycles",
        "40",
    ]);
    assert!(from_file.status.success(), "{}", stderr(&from_file));
    assert!(stdout(&from_file).contains("settle-budget"));
    let bad = run(&["check", &data("rca4.blif"), "--budget", "cout=abc"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("budget entries"), "{}", stderr(&bad));
    let unknown = run(&["check", &data("rca4.blif"), "--budget", "ghost=3"]);
    assert!(!unknown.status.success());
    assert!(stderr(&unknown).contains("ghost"), "{}", stderr(&unknown));
}

#[test]
fn check_verdicts_are_bit_identical_at_any_jobs_count() {
    let run_jobs = |jobs: &str| {
        let output = run(&[
            "check",
            &data("counter4.blif"),
            "--x-init",
            "--hazards",
            "--budget",
            "*=cycle",
            "--cycles",
            "80",
            "--seeds",
            "4",
            "--jobs",
            jobs,
            "--json",
        ]);
        assert!(output.status.success(), "{}", stderr(&output));
        stdout(&output)
    };
    let serial = run_jobs("1");
    // counter4's latches carry init digit 2 (don't care): under x-init the
    // state is genuinely uninitialised and the verdict must say so.
    assert!(serial.contains("\"verdict\":\"fail\""), "{serial}");
    assert!(serial.contains("\"name\":\"x-propagation\""), "{serial}");
    for jobs in ["2", "8"] {
        let parallel = run_jobs(jobs);
        // Bit-identical stdout apart from the jobs count itself.
        let normalize = |s: &str| {
            s.replace(&format!("\"jobs\":{jobs},"), "\"jobs\":N,")
                .replace("\"jobs\":1,", "\"jobs\":N,")
        };
        assert_eq!(normalize(&parallel), normalize(&serial), "jobs={jobs}");
    }
}

#[test]
fn check_stability_assertions_flag_watched_cycles() {
    let output = run(&[
        "check",
        &data("counter4.blif"),
        "--stable",
        "q3@0..2",
        "--cycles",
        "40",
    ]);
    assert!(output.status.success(), "{}", stderr(&output));
    let text = stdout(&output);
    // q3 cannot toggle before cycle 8 (it is the high counter bit), so the
    // assertion over cycles 0..=2 holds.
    assert!(text.contains("stability"), "{text}");
    assert!(text.contains("verdict: PASS"), "{text}");

    // q0 toggles constantly whenever en is high: watching all cycles fails.
    let failing = run(&[
        "check",
        &data("counter4.blif"),
        "--stable",
        "q0",
        "--cycles",
        "40",
    ]);
    assert!(failing.status.success());
    assert!(
        stdout(&failing).contains("verdict: FAIL"),
        "{}",
        stdout(&failing)
    );

    let bad = run(&["check", &data("counter4.blif"), "--stable", "q0@5"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(stderr(&bad).contains("net@from..to"), "{}", stderr(&bad));

    // An inverted range would be a vacuous always-pass assertion; reject
    // it at parse time.
    let inverted = run(&["check", &data("counter4.blif"), "--stable", "q0@10..2"]);
    assert_eq!(inverted.status.code(), Some(2));
    assert!(
        stderr(&inverted).contains("empty cycle range 10..2"),
        "{}",
        stderr(&inverted)
    );
}

#[test]
fn check_flip_reports_both_verdicts_and_replays_no_op_flips() {
    // Both runs fail on the uninitialised flipflop, flipped or not.
    let json_run = run(&[
        "check",
        &data("xinit_bug.blif"),
        "--x-init",
        "--cycles",
        "40",
        "--flip",
        "10:en",
        "--json",
    ]);
    assert!(json_run.status.success(), "{}", stderr(&json_run));
    let json = stdout(&json_run);
    assert!(
        json.contains("\"baseline\":{\"verdict\":\"fail\""),
        "{json}"
    );
    assert!(json.contains("\"flipped\":{\"verdict\":\"fail\""), "{json}");

    // Forcing `en` to the value it already has in cycle 10 leaves the
    // stimulus unchanged, so the flipped verdict is the baseline's.
    let verdicts = |flip: &str| {
        let output = run(&[
            "check",
            &data("xinit_bug.blif"),
            "--x-init",
            "--hazards",
            "--cycles",
            "40",
            "--flip",
            flip,
            "--json",
        ]);
        assert!(output.status.success(), "{}", stderr(&output));
        let report = parse_json(&stdout(&output)).expect("check --json parses");
        (
            field(&report, &["baseline"]).clone(),
            field(&report, &["flipped"]).clone(),
            field(&report, &["flips"]).clone(),
        )
    };
    let (_, _, JsonValue::Array(applied)) = verdicts("10:en") else {
        panic!("flips must be an array")
    };
    let held = 1 - field(&applied[0], &["value"])
        .as_u64()
        .expect("a 0/1 value");
    let (baseline, flipped, _) = verdicts(&format!("10:en={held}"));
    assert_eq!(baseline, flipped);

    let text_run = run(&[
        "check",
        &data("xinit_ok.blif"),
        "--x-init",
        "--cycles",
        "40",
        "--flip",
        "10:en",
    ]);
    assert!(text_run.status.success(), "{}", stderr(&text_run));
    let text = stdout(&text_run);
    assert!(text.contains("baseline verdict: PASS"), "{text}");
    assert!(text.contains("flipped verdict:  PASS"), "{text}");

    // Duplicate cycle:net pairs in the flip list are rejected, located.
    let dup = run(&[
        "check",
        &data("xinit_ok.blif"),
        "--cycles",
        "40",
        "--flip",
        "10:en,10:en=1",
    ]);
    assert_eq!(dup.status.code(), Some(2));
    assert!(
        stderr(&dup).contains("duplicate override for `en` in cycle 10"),
        "{}",
        stderr(&dup)
    );
}

#[test]
fn check_flip_follows_the_analyze_flip_seed_and_job_rules() {
    let rca = data("rca4.blif");
    for command in ["analyze", "check"] {
        let flip = |extra: &[&str]| {
            let mut args = vec![command, &rca, "--cycles", "60", "--flip", "10:a1", "--json"];
            args.extend_from_slice(extra);
            run(&args)
        };
        let plain = flip(&[]);
        assert!(plain.status.success(), "{command}: {}", stderr(&plain));
        // One seed is the flip's own run.
        let one_seed = flip(&["--seeds", "1"]);
        assert!(
            one_seed.status.success(),
            "{command}: {}",
            stderr(&one_seed)
        );
        assert_eq!(stdout(&one_seed), stdout(&plain), "{command}");
        // A single-seed replay has nothing to parallelise.
        let jobs = flip(&["--jobs", "4"]);
        assert_eq!(jobs.status.code(), Some(2), "{command}");
        assert!(
            stderr(&jobs).contains("--jobs has nothing to parallelise here"),
            "{command}: {}",
            stderr(&jobs)
        );
        let seeds = flip(&["--seeds", "2"]);
        assert_eq!(seeds.status.code(), Some(2), "{command}");
        assert!(stderr(&seeds).contains("--flip applies to single-seed runs"));
    }
}

#[test]
fn analyze_flip_rejects_duplicate_flips_with_location() {
    let dup = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--flip",
        "40:a1,40:a1=0",
    ]);
    assert_eq!(dup.status.code(), Some(2));
    let err = stderr(&dup);
    assert!(
        err.contains("duplicate override for `a1` in cycle 40"),
        "{err}"
    );
    // Same net in different cycles — or different nets in the same cycle —
    // stay legal.
    let ok = run(&[
        "analyze",
        &data("rca4.blif"),
        "--cycles",
        "100",
        "--flip",
        "40:a1,41:a1,40:b1",
    ]);
    assert!(ok.status.success(), "{}", stderr(&ok));
}

#[test]
fn reports_match_the_event_path_on_every_bundled_netlist() {
    let mut netlists: Vec<PathBuf> = std::fs::read_dir(data(""))
        .expect("the corpus directory lists")
        .map(|entry| entry.expect("a corpus entry").path())
        .filter(|path| {
            matches!(
                path.extension().and_then(|e| e.to_str()),
                Some("blif" | "v")
            )
        })
        .collect();
    netlists.sort();
    assert!(netlists.len() >= 8, "{netlists:?}");
    for path in &netlists {
        let file = path.to_str().expect("UTF-8 corpus paths");
        let batch: &[Option<&str>] = &[Some("1"), Some("2")];
        let commands: [(&[&str], &[Option<&str>]); 7] = [
            (
                &["sweep", file, "--delays", "unit,zero,adder,library"],
                batch,
            ),
            (&["analyze", file, "--seeds", "3"], batch),
            // A single seed rejects --jobs.
            (&["analyze", file], &[None]),
            (&["reduce", file], &[None]),
            (&["reduce", file, "--seeds", "2"], batch),
            (&["check", file, "--hazards"], &[None]),
            (
                &["check", file, "--x-init", "--hazards", "--seeds", "3"],
                batch,
            ),
        ];
        for (command, job_counts) in commands {
            for jobs in job_counts {
                let mut args = command.to_vec();
                args.extend(["--cycles", "130", "--json"]);
                if let Some(jobs) = jobs {
                    args.extend(["--jobs", jobs]);
                }
                let routed = run(&args);
                assert!(routed.status.success(), "{args:?}: {}", stderr(&routed));
                args.extend(["--engine", "queue"]);
                let event = run(&args);
                assert!(event.status.success(), "{args:?}: {}", stderr(&event));
                assert_eq!(stdout(&routed), stdout(&event), "{args:?}");
            }
        }
    }
}

/// The default engine runs `analyze --flip`, `check --flip` and
/// `sweep --flip-inputs`; `--engine kernel`, whose zero-delay runs have no
/// glitches to compare, refuses each of them as a usage error.
#[test]
fn flips_run_under_the_default_engine_and_are_refused_under_kernel() {
    let rca = data("rca4.blif");
    let commands: [&[&str]; 3] = [
        &["analyze", &rca, "--cycles", "60", "--flip", "10:cin"],
        &["check", &rca, "--cycles", "60", "--flip", "10:cin"],
        &["sweep", &rca, "--cycles", "60", "--flip-inputs", "cin"],
    ];
    for command in commands {
        let default = run(command);
        assert!(
            default.status.success(),
            "{command:?}: {}",
            stderr(&default)
        );
        let mut args = command.to_vec();
        args.extend(["--engine", "kernel"]);
        let refused = run(&args);
        assert_eq!(refused.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&refused).contains("drop --engine kernel"),
            "{args:?}: {}",
            stderr(&refused)
        );
        assert!(
            stdout(&refused).is_empty(),
            "{args:?}: {}",
            stdout(&refused)
        );
    }
}

/// The kernel engine has no delays: an explicit timed delay model, or a
/// settle-budget or hazard check, would report zero-delay figures as if
/// they were timed (a `check` would pass vacuously), so both are refused.
#[test]
fn the_kernel_engine_refuses_timed_delays_and_timing_checks() {
    let mult = data("mult4.blif");
    let refused: [(&[&str], &str); 4] = [
        (
            &[
                "check",
                &mult,
                "--budget",
                "outputs=4",
                "--delay",
                "adder",
                "--engine",
                "kernel",
            ],
            "zero delay only",
        ),
        (
            &[
                "check",
                &mult,
                "--budget",
                "outputs=4",
                "--engine",
                "kernel",
            ],
            "pass vacuously",
        ),
        (
            &["check", &mult, "--hazards", "--engine", "kernel"],
            "pass vacuously",
        ),
        (
            &[
                "analyze",
                &data("rca4.blif"),
                "--engine",
                "kernel",
                "--delay",
                "adder",
            ],
            "zero delay only",
        ),
    ];
    for (args, message) in refused {
        let output = run(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(
            stderr(&output).contains(message),
            "{args:?}: {}",
            stderr(&output)
        );
        assert!(stdout(&output).is_empty(), "{args:?}");
    }
    // The queue engine finds the violations the kernel would have hidden.
    let timed = run(&[
        "check",
        &mult,
        "--budget",
        "outputs=4",
        "--delay",
        "adder",
        "--cycles",
        "100",
    ]);
    assert!(
        stdout(&timed).contains("verdict: FAIL"),
        "{}",
        stdout(&timed)
    );
    // Zero delay, or no delay at all, stays the kernel's to run.
    for args in [
        &["analyze", &mult, "--engine", "kernel", "--cycles", "50"][..],
        &[
            "analyze", &mult, "--engine", "kernel", "--delay", "zero", "--cycles", "50",
        ],
        &[
            "check",
            &data("counter4.blif"),
            "--engine",
            "kernel",
            "--cycles",
            "50",
        ],
    ] {
        let output = run(args);
        assert!(output.status.success(), "{args:?}: {}", stderr(&output));
    }
}

/// A reader that closes standard output at once (`glitch-cli … | head
/// -1`) ends the output quietly: no panic, no status 101, and the files
/// the command writes are still written.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let csv = std::env::temp_dir().join(format!("glitch_cli_{}_closed.csv", std::process::id()));
    let cases: [&[&str]; 3] = [
        &[
            "analyze",
            &data("rca4.blif"),
            "--csv",
            csv.to_str().unwrap(),
        ],
        &["reduce", &data("mult4.blif"), "--cycles", "100"],
        &["reduce", &data("mult4.blif"), "--cycles", "100", "--json"],
    ];
    for args in cases {
        let mut child = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
            .args(args)
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::piped())
            .spawn()
            .expect("the binary must spawn");
        drop(child.stdout.take());
        let output = child.wait_with_output().expect("the binary ends");
        let err = stderr(&output);
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_ne!(output.status.code(), Some(101), "{args:?}: {err}");
        assert!(output.status.success(), "{args:?}: {err}");
    }
    let written = std::fs::read_to_string(&csv).expect("the CSV is written");
    std::fs::remove_file(&csv).ok();
    assert!(written.lines().count() > 1, "{written}");
}

/// `reduce --target` is a percent of the baseline glitch power: NaN,
/// negative and above-100 targets are usage errors before any output,
/// and 100 itself runs.
#[test]
fn reduce_refuses_a_target_outside_0_to_100() {
    let rca = data("rca4.blif");
    for target in ["nan", "-5", "101"] {
        let output = run(&["reduce", &rca, "--cycles", "50", "--target", target]);
        assert_eq!(output.status.code(), Some(2), "--target {target}");
        assert!(
            stderr(&output).contains("--target must be a percent from 0 to 100"),
            "--target {target}: {}",
            stderr(&output)
        );
        assert!(stdout(&output).is_empty(), "--target {target}");
    }
    let full = run(&["reduce", &rca, "--cycles", "50", "--target", "100"]);
    assert!(full.status.success(), "{}", stderr(&full));
    assert!(
        stdout(&full).contains("equivalence: PASS"),
        "{}",
        stdout(&full)
    );
}

/// The move vocabulary is `buffer` and `retime`; any other name,
/// `duplicate` included, is a usage error that names both.
#[test]
fn reduce_refuses_an_unknown_move() {
    let output = run(&[
        "reduce",
        &data("rca4.blif"),
        "--cycles",
        "50",
        "--moves",
        "duplicate",
    ]);
    assert_eq!(output.status.code(), Some(2));
    let err = stderr(&output);
    assert!(
        err.contains("unknown move `duplicate` (expected `buffer` or `retime`)"),
        "{err}"
    );
    assert!(stdout(&output).is_empty());
}
