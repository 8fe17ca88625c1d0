//! Array versus Wallace-tree multipliers: how delay imbalance creates
//! glitches (the section 4.1 experiment of the paper).
//!
//! Run with:
//!
//! ```text
//! cargo run --release -p glitch-core --example multiplier_showdown
//! ```

use glitch_core::arith::{AdderStyle, ArrayMultiplier, WallaceTreeMultiplier};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::retime::delay_imbalance;
use glitch_core::{AnalysisConfig, DelayKind, GlitchAnalyzer, TextTable};

struct Candidate {
    name: &'static str,
    netlist: Netlist,
    operands: Vec<Bus>,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut candidates = Vec::new();
    for bits in [8usize, 16] {
        let array = ArrayMultiplier::new(bits, AdderStyle::CompoundCell);
        candidates.push(Candidate {
            name: if bits == 8 {
                "array 8x8"
            } else {
                "array 16x16"
            },
            operands: vec![array.x.clone(), array.y.clone()],
            netlist: array.netlist,
        });
        let wallace = WallaceTreeMultiplier::new(bits, AdderStyle::CompoundCell);
        candidates.push(Candidate {
            name: if bits == 8 {
                "wallace 8x8"
            } else {
                "wallace 16x16"
            },
            operands: vec![wallace.x.clone(), wallace.y.clone()],
            netlist: wallace.netlist,
        });
    }

    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: 500,
        delay: DelayKind::Unit,
        ..AnalysisConfig::default()
    });

    let mut table = TextTable::new(vec![
        "multiplier",
        "total",
        "useful F",
        "useless L",
        "L/F",
        "imbalance",
        "logic mW",
    ]);
    for candidate in &candidates {
        let analysis = analyzer.analyze(&candidate.netlist, &candidate.operands, &[])?;
        let totals = analysis.activity;
        table.add_row(vec![
            candidate.name.to_string(),
            totals.transitions.to_string(),
            totals.useful.to_string(),
            totals.useless.to_string(),
            format!("{:.2}", totals.useless_to_useful()),
            delay_imbalance(&candidate.netlist)?.to_string(),
            format!("{:.2}", analysis.power.breakdown.logic * 1e3),
        ]);
    }
    println!("transition activity for 500 random inputs (unit delay)\n");
    println!("{table}");
    println!("The balanced Wallace tree produces a small fraction of the array's glitches,");
    println!("exactly the effect Table 1 of the paper reports.");
    Ok(())
}
