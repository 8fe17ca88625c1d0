//! Golden-file error tests: each malformed BLIF under `tests/data/bad/`
//! must fail with the expected diagnostic — the exact error class, the
//! offending name, and (for located errors) the right source line. The
//! inline cases pin exact messages, lines and columns where the tokenizer
//! decides them: repeated tokens, tabs, `\` continuations and upper-case
//! model and pin names.

use glitch_io::{parse_blif, GateLibrary, IoError};

fn parse_bad(file: &str) -> IoError {
    let path = format!("{}/tests/data/bad/{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    parse_blif(&text, &GateLibrary::standard()).expect_err("malformed input must not parse")
}

#[test]
fn unknown_cell_names_the_model_and_line() {
    let err = parse_bad("unknown_cell.blif");
    match &err {
        IoError::UnknownCell { loc, name } => {
            assert_eq!(name, "frobnicator");
            assert_eq!(loc.line, 4);
        }
        other => panic!("expected UnknownCell, got {other}"),
    }
    assert_eq!(
        err.to_string(),
        "line 4, column 9: unknown cell `frobnicator` (not in the gate library)"
    );
}

#[test]
fn dangling_net_names_the_floating_net() {
    let err = parse_bad("dangling_net.blif");
    assert_eq!(
        err,
        IoError::DanglingNet {
            net: "phantom".into()
        }
    );
    assert_eq!(
        err.to_string(),
        "net `phantom` is used but never driven (dangling)"
    );
}

#[test]
fn duplicate_driver_names_the_overdriven_net_and_second_site() {
    let err = parse_bad("duplicate_driver.blif");
    match &err {
        IoError::DuplicateDriver { loc, net } => {
            assert_eq!(net, "y");
            assert_eq!(loc.line, 6, "the *second* driver is the error site");
        }
        other => panic!("expected DuplicateDriver, got {other}"),
    }
}

#[test]
fn cover_width_mismatch_reports_both_widths() {
    let err = parse_bad("bad_cover_width.blif");
    match &err {
        IoError::WidthMismatch {
            loc, expected, got, ..
        } => {
            assert_eq!((*expected, *got), (2, 3));
            assert_eq!(loc.line, 5);
        }
        other => panic!("expected WidthMismatch, got {other}"),
    }
}

#[test]
fn combinational_loop_is_caught_by_validation() {
    let err = parse_bad("combinational_loop.blif");
    assert!(
        matches!(err, IoError::InvalidNetlist { .. }),
        "expected InvalidNetlist, got {err}"
    );
    assert!(err.to_string().contains("combinational loop"), "{err}");
}

/// Parses inline BLIF text that must fail, returning the error.
fn parse_text(text: &str) -> IoError {
    parse_blif(text, &GateLibrary::standard()).expect_err("malformed input must not parse")
}

/// The error's location as `(line, column)`.
fn at(err: &IoError) -> (usize, usize) {
    let loc = err.loc().expect("a located error");
    (loc.line, loc.col)
}

#[test]
fn repeated_token_is_located_at_its_own_occurrence() {
    // The second `a` is the duplicate, not the first.
    let err = parse_text(".model t\n.inputs a b a\n.outputs y\n.names a y\n1 1\n.end\n");
    assert_eq!(at(&err), (2, 13));
    assert_eq!(
        err.to_string(),
        "line 2, column 13: `duplicate primary input `a`` is not declared"
    );
    let err = parse_text(
        ".model t\n.inputs p\n.outputs s co\n.subckt $fa a=p b=p b=p b=p cin=p sum=s carry=co b\n.end\n",
    );
    assert_eq!(at(&err), (4, 50));
    assert_eq!(
        err.to_string(),
        "line 4, column 50: expected formal=actual, found `b`"
    );
}

#[test]
fn tab_separated_tokens_count_one_column_per_tab() {
    let err = parse_text(
        ".model t\n.inputs a b c\n.outputs s co\n.subckt\t$fa\ta=a\tb=b\tcin=c\tsum=s\tcarry=co\tqq=a\n.end\n",
    );
    assert_eq!(at(&err), (4, 42));
    assert_eq!(
        err.to_string(),
        "line 4, column 42: cell `$fa` has no pin `qq`"
    );
    let err = parse_text(".model t\n.inputs\ta\n.outputs y\n.names\ta\ty\n1\t2\n.end\n");
    assert_eq!(at(&err), (5, 3));
    assert_eq!(
        err.to_string(),
        "line 5, column 3: cover output must be 0 or 1, found `2`"
    );
}

#[test]
fn continuation_errors_name_the_physical_line() {
    // The error sits on the second physical line of a `\` continuation.
    let err = parse_text(
        ".model t\n.inputs a b c\n.outputs s co\n.subckt $fa a=a b=b \\\n   cin=c sum=s carry=co zz=b\n.end\n",
    );
    assert_eq!(at(&err), (5, 25));
    assert_eq!(
        err.to_string(),
        "line 5, column 25: cell `$fa` has no pin `zz`"
    );
    // A line-level error reports the logical line's first physical line.
    let err = parse_text(".model t\n.inputs d\n.outputs q\n.latch d \\\n q re clk 9\n.end\n");
    assert_eq!(at(&err), (5, 11));
    assert_eq!(
        err.to_string(),
        "line 5, column 11: latch init value must be 0..3, found `9`"
    );
    let err = parse_text(".model t\n.inputs a\n.outputs y\n.latch \\\n a \\\n y a b c d\n.end\n");
    assert_eq!(at(&err), (4, 1));
}

#[test]
fn upper_case_models_and_pins_resolve() {
    let text =
        ".model t\n.inputs a b c\n.outputs s co\n.subckt $FA A=a B=b CIN=c SUM=s Carry=co\n.end\n";
    let netlist = parse_blif(text, &GateLibrary::standard()).expect("upper-case names resolve");
    assert_eq!(netlist.cell_count(), 1);
    assert_eq!(
        netlist.cell(glitch_netlist::CellId::from_index(0)).name(),
        "u_$FA_0"
    );
    let err = parse_text(
        ".model t\n.inputs a b c\n.outputs s co\n.subckt $FA A=a B=b CIN=c SUM=s BOGUS=co\n.end\n",
    );
    assert_eq!(at(&err), (4, 33));
    assert_eq!(
        err.to_string(),
        "line 4, column 33: cell `$FA` has no pin `BOGUS`"
    );
    let err = parse_text(".model t\n.inputs a\n.outputs y\n.GATE NAND2 A=a y=y\n.end\n");
    assert_eq!(at(&err), (4, 1));
    assert_eq!(
        err.to_string(),
        "line 4, column 1: unknown directive `.GATE`"
    );
}
