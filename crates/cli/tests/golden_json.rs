//! Golden-file tests for the CLI outputs: the exact `--json` bytes of
//! `sweep`, `analyze`, `check` and `reduce`, the text reports of
//! `analyze` and `power`, and the `analyze --csv` file are pinned under
//! `tests/golden/`, so neither the formats nor the deterministic seeded
//! numbers can drift silently.
//!
//! The simulations are fully deterministic (fixed seeds, IEEE-754
//! arithmetic, round-tripping float formatting), so byte-for-byte
//! comparison is stable across runs and platforms.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p glitch-cli --test golden_json
//! ```

use std::path::PathBuf;
use std::process::Command;

/// The corpus directory. The binary runs from there and names its
/// netlist by bare file name, so the `"file"` value in every report is
/// independent of where the repository is checked out.
fn data_dir() -> PathBuf {
    PathBuf::from(format!("{}/../../tests/data", env!("CARGO_MANIFEST_DIR")))
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(format!(
        "{}/tests/golden/{name}",
        env!("CARGO_MANIFEST_DIR")
    ))
}

fn run_stdout(args: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_glitch-cli"))
        .args(args)
        .current_dir(data_dir())
        .output()
        .expect("the binary must spawn");
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("JSON output is UTF-8")
}

fn assert_matches_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden file; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn sweep_json_matches_golden() {
    let out = run_stdout(&[
        "sweep",
        "rca4.blif",
        "--cycles",
        "120",
        "--seeds",
        "2",
        "--jobs",
        "1",
        "--delays",
        "unit,zero,adder",
        "--json",
    ]);
    assert_matches_golden("sweep_rca4.json", &out);
}

#[test]
fn sweep_flip_inputs_json_matches_golden() {
    let out = run_stdout(&[
        "sweep",
        "rca4.blif",
        "--cycles",
        "120",
        "--flip-inputs",
        "all",
        "--flip-cycle",
        "60",
        "--jobs",
        "1",
        "--json",
    ]);
    assert_matches_golden("sweep_flips_rca4.json", &out);
}

#[test]
fn analyze_window_json_matches_golden() {
    let out = run_stdout(&[
        "analyze",
        "counter4.blif",
        "--cycles",
        "120",
        "--window",
        "30",
        "--json",
    ]);
    assert_matches_golden("analyze_window_counter4.json", &out);
}

#[test]
fn analyze_multi_seed_window_json_matches_golden() {
    let out = run_stdout(&[
        "analyze",
        "counter4.blif",
        "--cycles",
        "100",
        "--seeds",
        "3",
        "--jobs",
        "1",
        "--window",
        "25",
        "--json",
    ]);
    assert_matches_golden("analyze_seeds_window_counter4.json", &out);
}

#[test]
fn check_json_matches_golden() {
    // The full checker suite on the counter (whose don't-care latch inits
    // make x-init fail honestly), multi-seed: pins the `check --json`
    // schema — verdicts, per-checker metrics and located violations.
    let out = run_stdout(&[
        "check",
        "counter4.blif",
        "--x-init",
        "--hazards",
        "--budget",
        "*=cycle",
        "--stable",
        "q3@0..2",
        "--cycles",
        "80",
        "--seeds",
        "2",
        "--jobs",
        "1",
        "--json",
    ]);
    assert_matches_golden("check_counter4.json", &out);
}

#[test]
fn check_flip_json_matches_golden() {
    // The incremental check path: baseline + flipped verdicts plus the
    // replay accounting.
    let out = run_stdout(&[
        "check",
        "xinit_ok.blif",
        "--x-init",
        "--hazards",
        "--cycles",
        "60",
        "--flip",
        "20:en=1",
        "--json",
    ]);
    assert_matches_golden("check_flip_xinit_ok.json", &out);
}

#[test]
fn analyze_flip_json_matches_golden() {
    let out = run_stdout(&[
        "analyze",
        "rca4.blif",
        "--cycles",
        "120",
        "--flip",
        "40:a1,90:cin=1",
        "--json",
    ]);
    assert_matches_golden("analyze_flip_rca4.json", &out);
}

#[test]
fn reduce_json_matches_golden() {
    // The full reduction loop: move list, descent history, equivalence
    // verdict. Runs twice — the report must be byte-identical before it
    // is compared against the pinned golden bytes.
    let args = [
        "reduce",
        "rca4.blif",
        "--cycles",
        "96",
        "--seeds",
        "2",
        "--jobs",
        "1",
        "--json",
    ];
    let first = run_stdout(&args);
    let second = run_stdout(&args);
    assert_eq!(first, second, "reduce --json must be deterministic");
    assert_matches_golden("reduce_rca4.json", &first);
}

#[test]
fn analyze_text_matches_golden() {
    let out = run_stdout(&["analyze", "rca4.blif"]);
    assert_matches_golden("analyze_rca4.txt", &out);
}

#[test]
fn analyze_multi_seed_text_matches_golden() {
    let out = run_stdout(&["analyze", "counter4.blif", "--seeds", "3", "--jobs", "2"]);
    assert_matches_golden("analyze_seeds_counter4.txt", &out);
}

#[test]
fn power_text_matches_golden() {
    let out = run_stdout(&["power", "rca4.blif"]);
    assert_matches_golden("power_rca4.txt", &out);
}

#[test]
fn analyze_csv_matches_golden() {
    let csv = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden_analyze_rca4.csv");
    let csv_arg = csv.to_str().expect("the target directory path is UTF-8");
    let out = run_stdout(&["analyze", "rca4.blif", "--csv", csv_arg]);
    assert!(out.ends_with(&format!("wrote {csv_arg}\n")), "{out}");
    let written = std::fs::read_to_string(&csv).expect("--csv writes its file");
    assert_matches_golden("analyze_rca4.csv", &written);
}
