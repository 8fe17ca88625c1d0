//! Ablation A1 — "choosing different architectures": glitch behaviour of
//! ripple-carry, carry-lookahead and carry-select adders of the same width.
//!
//! The paper reduces glitches either by inserting flipflops or by choosing a
//! better-balanced architecture; this ablation quantifies the second lever
//! for adders, complementing the multiplier comparison of Table 1.

use glitch_core::arith::{AdderStyle, CarryLookaheadAdder, CarrySelectAdder, RippleCarryAdder};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::retime::delay_imbalance;
use glitch_core::{AnalysisConfig, GlitchAnalyzer, TextTable};

struct Candidate {
    name: String,
    netlist: Netlist,
    a: Bus,
    b: Bus,
    cin: glitch_core::netlist::NetId,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const BITS: usize = 16;
    const CYCLES: u64 = 2000;

    let mut candidates = Vec::new();
    let rca = RippleCarryAdder::new(BITS, AdderStyle::CompoundCell);
    candidates.push(Candidate {
        name: "ripple-carry".into(),
        a: rca.a.clone(),
        b: rca.b.clone(),
        cin: rca.cin,
        netlist: rca.netlist,
    });
    let cla = CarryLookaheadAdder::new(BITS);
    candidates.push(Candidate {
        name: "carry-lookahead (4-bit blocks)".into(),
        a: cla.a.clone(),
        b: cla.b.clone(),
        cin: cla.cin,
        netlist: cla.netlist,
    });
    for block in [2usize, 4, 8] {
        let csla = CarrySelectAdder::new(BITS, block, AdderStyle::CompoundCell);
        candidates.push(Candidate {
            name: format!("carry-select (blocks of {block})"),
            a: csla.a.clone(),
            b: csla.b.clone(),
            cin: csla.cin,
            netlist: csla.netlist,
        });
    }

    let analyzer = GlitchAnalyzer::new(AnalysisConfig {
        cycles: CYCLES,
        ..Default::default()
    });
    let mut table = TextTable::new(vec![
        "architecture",
        "cells",
        "depth",
        "imbalance",
        "total",
        "useful F",
        "useless L",
        "L/F",
    ]);
    for c in &candidates {
        let analysis =
            analyzer.analyze(&c.netlist, &[c.a.clone(), c.b.clone()], &[(c.cin, false)])?;
        let totals = analysis.activity;
        table.add_row(vec![
            c.name.clone(),
            c.netlist.cell_count().to_string(),
            c.netlist.combinational_depth()?.to_string(),
            delay_imbalance(&c.netlist)?.to_string(),
            totals.transitions.to_string(),
            totals.useful.to_string(),
            totals.useless.to_string(),
            format!("{:.2}", totals.useless_to_useful()),
        ]);
    }
    println!("A1: adder architecture ablation — {BITS}-bit adders, {CYCLES} random vectors, unit delay\n");
    println!("{table}");
    println!("Shorter, better-balanced carry paths (lookahead, select) trade extra gates for");
    println!("fewer useless transitions, the architectural lever of the paper's conclusions.");
    Ok(())
}
