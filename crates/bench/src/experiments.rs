//! One function per table or figure of the paper.

use glitch_core::activity::{ActivityTotals, GroupedActivity};
use glitch_core::analytic::{worst_case_probability, worst_case_transitions, AdderExpectation};
use glitch_core::arith::{
    AdderStyle, ArrayMultiplier, DirectionDetector, RippleCarryAdder, WallaceTreeMultiplier,
};
use glitch_core::netlist::{Bus, Netlist};
use glitch_core::sim::{ActivityProbe, ClockedSimulator, InputAssignment, UnitDelay};
use glitch_core::{
    AnalysisConfig, DelayKind, ExplorationResult, GlitchAnalyzer, PowerExplorer, TextTable,
};

/// Default random seed shared by all experiments so every run is
/// reproducible.
pub const SEED: u64 = 0x1995_0306;

fn analyzer(cycles: u64, delay: DelayKind) -> GlitchAnalyzer {
    GlitchAnalyzer::new(AnalysisConfig {
        cycles,
        seed: SEED,
        delay,
        ..AnalysisConfig::default()
    })
}

/// One row of a multiplier activity table (Tables 1 and 2).
#[derive(Debug, Clone)]
pub struct MultiplierRow {
    /// Architecture and configuration label.
    pub name: String,
    /// Combinational-node activity totals.
    pub totals: ActivityTotals,
}

fn analyze_multiplier(
    name: &str,
    netlist: &Netlist,
    operands: &[Bus],
    cycles: u64,
    delay: DelayKind,
) -> MultiplierRow {
    let analysis = analyzer(cycles, delay)
        .analyze(netlist, operands, &[])
        .expect("multiplier netlists are valid and settle");
    MultiplierRow {
        name: name.to_string(),
        totals: analysis.activity,
    }
}

/// Renders a list of multiplier rows in the layout of Table 1/2.
#[must_use]
pub fn multiplier_table(rows: &[MultiplierRow]) -> TextTable {
    let mut table = TextTable::new(vec![
        "architecture",
        "total",
        "useful F",
        "useless L",
        "L/F",
    ]);
    for row in rows {
        table.add_row(vec![
            row.name.clone(),
            row.totals.transitions.to_string(),
            row.totals.useful.to_string(),
            row.totals.useless.to_string(),
            format!("{:.2}", row.totals.useless_to_useful()),
        ]);
    }
    table
}

/// Table 1: transition activity of 8x8 and 16x16 array versus Wallace-tree
/// multipliers under a unit-delay model.
#[must_use]
pub fn table1(cycles: u64) -> Vec<MultiplierRow> {
    let mut rows = Vec::new();
    for bits in [8usize, 16] {
        let array = ArrayMultiplier::new(bits, AdderStyle::CompoundCell);
        rows.push(analyze_multiplier(
            &format!("array {bits}x{bits}"),
            &array.netlist,
            &[array.x.clone(), array.y.clone()],
            cycles,
            DelayKind::Unit,
        ));
        let wallace = WallaceTreeMultiplier::new(bits, AdderStyle::CompoundCell);
        rows.push(analyze_multiplier(
            &format!("wallace {bits}x{bits}"),
            &wallace.netlist,
            &[wallace.x.clone(), wallace.y.clone()],
            cycles,
            DelayKind::Unit,
        ));
    }
    rows
}

/// Table 2: the 8x8 architectures with equal cell delays versus
/// `d_sum = 2 · d_carry`.
#[must_use]
pub fn table2(cycles: u64) -> Vec<MultiplierRow> {
    let mut rows = Vec::new();
    let array = ArrayMultiplier::new(8, AdderStyle::CompoundCell);
    let wallace = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
    for (delay, tag) in [
        (DelayKind::Unit, "d_sum = d_carry"),
        (DelayKind::RealisticAdderCells, "d_sum = 2*d_carry"),
    ] {
        rows.push(analyze_multiplier(
            &format!("array 8x8, {tag}"),
            &array.netlist,
            &[array.x.clone(), array.y.clone()],
            cycles,
            delay.clone(),
        ));
        rows.push(analyze_multiplier(
            &format!("wallace 8x8, {tag}"),
            &wallace.netlist,
            &[wallace.x.clone(), wallace.y.clone()],
            cycles,
            delay,
        ));
    }
    rows
}

/// Result of the Figure 5 experiment: per-bit useful/useless histograms of a
/// ripple-carry adder, simulated and analytic.
#[derive(Debug, Clone)]
pub struct Figure5 {
    /// Per-bit activity of the sum outputs (simulated).
    pub sums: GroupedActivity,
    /// Per-bit activity of the carry outputs (simulated).
    pub carries: GroupedActivity,
    /// Closed-form expectation (equations 2–7).
    pub expectation: AdderExpectation,
    /// Simulated combinational totals.
    pub totals: ActivityTotals,
}

impl Figure5 {
    /// Renders the per-bit histogram as a table.
    #[must_use]
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "bit",
            "sum useful",
            "sum useless",
            "carry useful",
            "carry useless",
            "sum useful (analytic)",
            "sum useless (analytic)",
            "carry useful (analytic)",
            "carry useless (analytic)",
        ]);
        for (bit, expect) in self.expectation.bits().iter().enumerate() {
            table.add_row(vec![
                bit.to_string(),
                self.sums.bits()[bit].activity.useful().to_string(),
                self.sums.bits()[bit].activity.useless().to_string(),
                self.carries.bits()[bit].activity.useful().to_string(),
                self.carries.bits()[bit].activity.useless().to_string(),
                format!("{:.0}", expect.sum_useful),
                format!("{:.0}", expect.sum_useless),
                format!("{:.0}", expect.carry_useful),
                format!("{:.0}", expect.carry_useless),
            ]);
        }
        table
    }
}

/// Figure 5: per-bit useful/useless transition histogram of an N-bit
/// ripple-carry adder under random inputs.
#[must_use]
pub fn figure5(bits: usize, vectors: u64) -> Figure5 {
    let adder = RippleCarryAdder::new(bits, AdderStyle::CompoundCell);
    let analysis = analyzer(vectors, DelayKind::Unit)
        .analyze(
            &adder.netlist,
            &[adder.a.clone(), adder.b.clone()],
            &[(adder.cin, false)],
        )
        .expect("adder simulates");
    let sums = GroupedActivity::from_nets("sum", &adder.netlist, &analysis.trace, adder.sum.bits());
    let carries = GroupedActivity::from_nets(
        "carry",
        &adder.netlist,
        &analysis.trace,
        adder.carries.bits(),
    );
    Figure5 {
        sums,
        carries,
        expectation: AdderExpectation::ripple_carry(bits as u32, vectors),
        totals: analysis.activity,
    }
}

/// Equations 2–7: per-bit simulated versus analytic transition ratios.
#[must_use]
pub fn rca_ratio_table(bits: usize, vectors: u64) -> TextTable {
    let fig = figure5(bits, vectors);
    let mut table = TextTable::new(vec![
        "bit",
        "TR(S) sim",
        "TR(S) eq.3",
        "TR(C) sim",
        "TR(C) eq.2",
        "ULTR(S) sim",
        "ULTR(S) eq.5",
        "ULTR(C) sim",
        "ULTR(C) eq.7",
    ]);
    let v = vectors as f64;
    for (bit, expect) in fig.expectation.bits().iter().enumerate() {
        let sum = &fig.sums.bits()[bit].activity;
        let carry = &fig.carries.bits()[bit].activity;
        table.add_row(vec![
            bit.to_string(),
            format!("{:.3}", sum.transitions() as f64 / v),
            format!("{:.3}", expect.sum_transitions / v),
            format!("{:.3}", carry.transitions() as f64 / v),
            format!("{:.3}", expect.carry_transitions / v),
            format!("{:.3}", sum.useless() as f64 / v),
            format!("{:.3}", expect.sum_useless / v),
            format!("{:.3}", carry.useless() as f64 / v),
            format!("{:.3}", expect.carry_useless / v),
        ]);
    }
    table
}

/// Result of the worst-case experiment (Figure 3 / section 3.1).
#[derive(Debug, Clone, Copy)]
pub struct WorstCase {
    /// Adder width.
    pub bits: usize,
    /// Largest number of transitions observed on the most significant sum
    /// output in a single cycle, over all input pairs tried.
    pub observed_max: u32,
    /// The paper's bound (`N`).
    pub bound: u32,
    /// Fraction of tried input pairs that hit the bound.
    pub hit_fraction: f64,
    /// The paper's probability estimate `3 · (1/8)^N`.
    pub predicted_probability: f64,
}

/// Figure 3 / §3.1: search for the worst-case transition count of an N-bit
/// ripple-carry adder by simulating consecutive input pairs.
///
/// For `bits <= 5` the search is exhaustive over all `16^bits` pairs of
/// operand vectors; for wider adders a pseudo-random sample of
/// `sample_pairs` pairs is used.
#[must_use]
pub fn worst_case(bits: usize, sample_pairs: u64) -> WorstCase {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let adder = RippleCarryAdder::new(bits, AdderStyle::CompoundCell);
    let msb_sum = adder.sum.bit(bits - 1);
    let mut observed_max = 0u32;
    let mut hits = 0u64;
    let mut tried = 0u64;

    let exhaustive = bits <= 5;
    let total_pairs: u64 = if exhaustive {
        1u64 << (4 * bits)
    } else {
        sample_pairs
    };
    let mut rng = StdRng::seed_from_u64(SEED);

    for index in 0..total_pairs {
        let (a0, b0, a1, b1) = if exhaustive {
            let mask = (1u64 << bits) - 1;
            (
                index & mask,
                (index >> bits) & mask,
                (index >> (2 * bits)) & mask,
                (index >> (3 * bits)) & mask,
            )
        } else {
            let mask = (1u64 << bits) - 1;
            (
                rng.gen::<u64>() & mask,
                rng.gen::<u64>() & mask,
                rng.gen::<u64>() & mask,
                rng.gen::<u64>() & mask,
            )
        };
        let mut sim = ClockedSimulator::new(&adder.netlist, UnitDelay).expect("valid adder");
        sim.attach_probe(Box::new(ActivityProbe::new()));
        let msb_transitions = |sim: &ClockedSimulator<'_>| {
            sim.probe_ref::<ActivityProbe>()
                .expect("probe attached")
                .trace()
                .node(msb_sum.index())
                .transitions()
        };
        sim.step(
            InputAssignment::new()
                .with_bus(&adder.a, a0)
                .with_bus(&adder.b, b0)
                .with(adder.cin, false),
        )
        .expect("settles");
        let after_first = msb_transitions(&sim);
        sim.step(
            InputAssignment::new()
                .with_bus(&adder.a, a1)
                .with_bus(&adder.b, b1)
                .with(adder.cin, false),
        )
        .expect("settles");
        // Transitions of the MSB sum during the second cycle only.
        let second_cycle = (msb_transitions(&sim) - after_first) as u32;
        observed_max = observed_max.max(second_cycle);
        if second_cycle >= bits as u32 {
            hits += 1;
        }
        tried += 1;
    }

    WorstCase {
        bits,
        observed_max,
        bound: worst_case_transitions(bits as u32),
        hit_fraction: hits as f64 / tried as f64,
        predicted_probability: worst_case_probability(bits as u32),
    }
}

/// Result of the section 4.2 direction-detector experiment.
#[derive(Debug, Clone)]
pub struct DirectionDetectorActivity {
    /// Combinational activity totals.
    pub totals: ActivityTotals,
    /// Achievable activity reduction `1 + L/F` from perfect balancing.
    pub balance_reduction_factor: f64,
    /// Number of combinational cells in the detector.
    pub cells: usize,
}

/// §4.2: transition activity of the direction detector under random inputs.
#[must_use]
pub fn direction_detector_activity(cycles: u64) -> DirectionDetectorActivity {
    let det = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let mut buses: Vec<Bus> = det.a.to_vec();
    buses.extend(det.b.iter().cloned());
    buses.push(det.threshold.clone());
    let analysis = analyzer(cycles, DelayKind::Unit)
        .analyze(&det.netlist, &buses, &[])
        .expect("settles");
    DirectionDetectorActivity {
        totals: analysis.activity,
        balance_reduction_factor: analysis.balance_reduction_factor(),
        cells: det.netlist.cell_count(),
    }
}

/// Table 3 / Figure 10: the pipelining-depth power sweep of the direction
/// detector.
#[must_use]
pub fn table3_power_sweep(cycles: u64, ranks: &[usize]) -> ExplorationResult {
    let det = DirectionDetector::with_options(8, false, AdderStyle::CompoundCell);
    let buses: Vec<Bus> = det.a.iter().chain(det.b.iter()).cloned().collect();
    // Hold the match threshold at a constant mid-range value of 8.
    let held: Vec<_> = det
        .threshold
        .bits()
        .iter()
        .enumerate()
        .map(|(i, &b)| (b, (8 >> i) & 1 == 1))
        .collect();
    let config = AnalysisConfig {
        cycles,
        seed: SEED,
        frequency: 5e6,
        ..AnalysisConfig::default()
    };
    PowerExplorer::new(GlitchAnalyzer::new(config))
        .explore(&det.netlist, ranks, &buses, &held)
        .expect("sweep succeeds")
}

/// Result of the Figure 9 demonstration.
#[derive(Debug, Clone, Copy)]
pub struct Figure9 {
    /// Useless transitions on the operation output with unbalanced inputs.
    pub unbalanced_useless: u64,
    /// Useless transitions after retiming flipflops onto the inputs.
    pub balanced_useless: u64,
    /// Useful transitions (identical in both variants).
    pub useful: u64,
}

/// Figure 9: an operation node fed by paths of unequal delay glitches; after
/// inserting input-aligning flipflops (retiming) it does not.
#[must_use]
pub fn figure9(cycles: u64) -> Figure9 {
    // The "operation" is a bitwise XOR of two 8-bit operands (one gate per
    // bit, so the operation itself is free of internal imbalance); one
    // operand arrives directly, the other through a long buffer chain — the
    // unbalanced delay paths of Figure 9.
    fn build(balanced: bool) -> (Netlist, Bus, Bus, Bus) {
        let mut nl = Netlist::new(if balanced {
            "fig9_balanced"
        } else {
            "fig9_unbalanced"
        });
        let a = nl.add_input_bus("a", 8);
        let b = nl.add_input_bus("b", 8);
        let slow_b = Bus::new(
            b.bits()
                .iter()
                .enumerate()
                .map(|(i, &bit)| {
                    let mut cur = bit;
                    for stage in 0..6 {
                        cur = nl.buf(cur, &format!("slow{i}_{stage}"));
                    }
                    cur
                })
                .collect(),
        );
        let (left, right) = if balanced {
            // Retiming: align both operands with flipflops just before the
            // operation node.
            let left = Bus::new(
                a.bits()
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| nl.dff(x, &format!("a_q{i}")))
                    .collect(),
            );
            let right = Bus::new(
                slow_b
                    .bits()
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| nl.dff(x, &format!("b_q{i}")))
                    .collect(),
            );
            (left, right)
        } else {
            (a.clone(), slow_b)
        };
        let outputs = Bus::new(
            (0..8)
                .map(|i| nl.xor2(left.bit(i), right.bit(i), &format!("op[{i}]")))
                .collect(),
        );
        nl.mark_output_bus(&outputs);
        (nl, a, b, outputs)
    }

    let measure = |balanced: bool| -> (u64, u64) {
        let (nl, a, b, outputs) = build(balanced);
        let analysis = analyzer(cycles, DelayKind::Unit)
            .analyze(&nl, &[a, b], &[])
            .expect("fig9 circuit settles");
        let useless: u64 = outputs
            .bits()
            .iter()
            .map(|&n| analysis.trace.node(n.index()).useless())
            .sum();
        let useful: u64 = outputs
            .bits()
            .iter()
            .map(|&n| analysis.trace.node(n.index()).useful())
            .sum();
        (useless, useful)
    };
    let (unbalanced_useless, useful) = measure(false);
    let (balanced_useless, _) = measure(true);
    Figure9 {
        unbalanced_useless,
        balanced_useless,
        useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_small_run_has_the_right_ordering() {
        let rows = table1(60);
        assert_eq!(rows.len(), 4);
        let lf = |name: &str| {
            rows.iter()
                .find(|r| r.name.starts_with(name))
                .unwrap()
                .totals
                .useless_to_useful()
        };
        assert!(lf("array 8x8") > lf("wallace 8x8"));
        assert!(lf("array 16x16") > lf("wallace 16x16"));
        let table = multiplier_table(&rows).to_string();
        assert!(table.contains("useless L"));
    }

    #[test]
    fn table2_delay_imbalance_increases_useless() {
        let rows = table2(60);
        assert_eq!(rows.len(), 4);
        let find = |name: &str| rows.iter().find(|r| r.name == name).unwrap();
        assert!(
            find("array 8x8, d_sum = 2*d_carry").totals.useless
                > find("array 8x8, d_sum = d_carry").totals.useless
        );
        assert!(
            find("wallace 8x8, d_sum = 2*d_carry").totals.useless
                > find("wallace 8x8, d_sum = d_carry").totals.useless
        );
    }

    #[test]
    fn figure5_small_run_matches_expectation_roughly() {
        let fig = figure5(8, 400);
        let sim = fig.totals.transitions as f64;
        let expect = fig.expectation.total_transitions();
        assert!(
            (sim - expect).abs() / expect < 0.1,
            "sim {sim} vs expected {expect}"
        );
        assert!(fig.to_table().row_count() == 8);
        assert!(rca_ratio_table(8, 200).row_count() == 8);
    }

    #[test]
    fn worst_case_is_reached_exhaustively_for_small_adders() {
        let result = worst_case(3, 0);
        assert_eq!(result.observed_max, 3);
        assert_eq!(result.bound, 3);
        assert!(result.hit_fraction > 0.0);
        assert!(result.predicted_probability > 0.0);
    }

    #[test]
    fn figure9_retiming_removes_all_glitches() {
        let fig = figure9(80);
        assert!(fig.unbalanced_useless > 0);
        assert_eq!(fig.balanced_useless, 0);
        assert!(fig.useful > 0);
    }

    #[test]
    fn direction_detector_small_run() {
        let result = direction_detector_activity(80);
        assert!(result.totals.useless_to_useful() > 1.0);
        assert!(result.cells > 100);
        assert!(result.balance_reduction_factor > 2.0);
    }

    #[test]
    fn power_sweep_small_run_has_falling_logic_power() {
        let sweep = table3_power_sweep(60, &[1, 4, 8]);
        let points = sweep.points();
        assert_eq!(points.len(), 3);
        assert!(points[2].power.logic < points[0].power.logic);
        assert!(points[2].power.flipflop > points[0].power.flipflop);
    }
}
