//! Closed-form versus simulated transition activity of a ripple-carry adder
//! (equations 2–7 and Figure 5 of the paper).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p glitch-core --example adder_analytics
//! ```

use glitch_core::activity::GroupedActivity;
use glitch_core::analytic::AdderExpectation;
use glitch_core::arith::{AdderStyle, RippleCarryAdder};
use glitch_core::{AnalysisConfig, GlitchAnalyzer, TextTable};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const BITS: usize = 16;
    const VECTORS: u64 = 4000;

    let adder = RippleCarryAdder::new(BITS, AdderStyle::CompoundCell);
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: VECTORS,
        ..AnalysisConfig::default()
    });
    let analysis = analyzer.analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )?;

    let expectation = AdderExpectation::ripple_carry(BITS as u32, VECTORS);
    let sums = GroupedActivity::from_nets("sum", &adder.netlist, &analysis.trace, adder.sum.bits());
    let carries = GroupedActivity::from_nets(
        "carry",
        &adder.netlist,
        &analysis.trace,
        adder.carries.bits(),
    );

    let mut table = TextTable::new(vec![
        "bit",
        "sum useful (sim)",
        "sum useful (eq.4)",
        "sum useless (sim)",
        "sum useless (eq.5)",
        "carry useless (sim)",
        "carry useless (eq.7)",
    ]);
    for bit in 0..BITS {
        table.add_row(vec![
            bit.to_string(),
            sums.bits()[bit].activity.useful().to_string(),
            format!("{:.0}", expectation.bits()[bit].sum_useful),
            sums.bits()[bit].activity.useless().to_string(),
            format!("{:.0}", expectation.bits()[bit].sum_useless),
            carries.bits()[bit].activity.useless().to_string(),
            format!("{:.0}", expectation.bits()[bit].carry_useless),
        ]);
    }
    println!("16-bit ripple-carry adder, {VECTORS} random vectors\n");
    println!("{table}");

    let totals = analysis.activity;
    println!(
        "simulated totals: {} transitions, {} useful, {} useless, L/F = {:.2}",
        totals.transitions,
        totals.useful,
        totals.useless,
        totals.useless_to_useful()
    );
    println!(
        "closed forms    : {:.0} transitions, {:.0} useful, {:.0} useless, L/F = {:.2}",
        expectation.total_transitions(),
        expectation.total_useful(),
        expectation.total_useless(),
        expectation.useless_to_useful()
    );
    Ok(())
}
