//! Quickstart: build a small datapath, count its glitches, estimate power.
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p glitch-core --example quickstart
//! ```

use glitch_core::activity::ActivityReport;
use glitch_core::arith::{AdderStyle, RippleCarryAdder};
use glitch_core::{AnalysisConfig, DelayKind, GlitchAnalyzer};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build a circuit: a 16-bit ripple-carry adder whose operands are new
    //    every clock cycle (a typical multiplexed datapath element).
    let adder = RippleCarryAdder::new(16, AdderStyle::CompoundCell);
    println!("{}", adder.netlist.stats());

    // 2. Analyse it: simulate 4000 random input vectors under a unit-delay
    //    model, count every node's transitions and classify them into useful
    //    transitions and glitches by parity evaluation.
    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 4000,
        delay: DelayKind::Unit,
        ..AnalysisConfig::default()
    });
    let analysis = analyzer.analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )?;

    println!("{}", ActivityReport::new(&adder.netlist, &analysis.trace));
    println!("{}", analysis.power);
    println!(
        "balancing all delay paths would reduce combinational activity by a factor of {:.2}",
        analysis.balance_reduction_factor()
    );

    // 3. Compare against the ideal, glitch-free reference.
    let ideal = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 4000,
        delay: DelayKind::Zero,
        ..AnalysisConfig::default()
    })
    .analyze(
        &adder.netlist,
        &[adder.a.clone(), adder.b.clone()],
        &[(adder.cin, false)],
    )?;
    println!(
        "glitch-free logic power would be {:.2} mW instead of {:.2} mW",
        ideal.power.breakdown.logic * 1e3,
        analysis.power.breakdown.logic * 1e3
    );
    Ok(())
}
