//! The retiming-for-power exploration of section 5 of the paper.

use std::fmt;

use glitch_activity::ActivityTotals;
use glitch_netlist::{Bus, NetId, Netlist};
use glitch_power::PowerBreakdown;
use glitch_retime::{pipeline_netlist, PipelineOptions, RetimeError, Rewrite};
use glitch_sim::SimError;

use crate::analyzer::{Analysis, GlitchAnalyzer};
use crate::table::TextTable;

/// One retiming variant of the explored circuit (one row of Table 3).
#[derive(Debug, Clone)]
pub struct ExplorationPoint {
    /// Number of register ranks inserted.
    pub ranks: usize,
    /// Total flipflops in the pipelined circuit.
    pub flipflops: usize,
    /// Power decomposition at the configured frequency.
    pub power: PowerBreakdown,
    /// Clock-line capacitance, in farads.
    pub clock_capacitance: f64,
    /// Transition-activity totals of the combinational nets.
    pub activity: ActivityTotals,
    /// Gate-equivalent area of the variant (grows with the flipflop count —
    /// the paper's area column).
    pub gate_equivalents: f64,
}

/// Result of a [`PowerExplorer::explore`] sweep.
#[derive(Debug, Clone)]
pub struct ExplorationResult {
    points: Vec<ExplorationPoint>,
}

impl ExplorationResult {
    /// The explored variants, in the order of the requested rank counts.
    #[must_use]
    pub fn points(&self) -> &[ExplorationPoint] {
        &self.points
    }

    /// Index of the variant with the lowest total power — the paper's
    /// optimum retiming for power dissipation.
    ///
    /// # Panics
    ///
    /// Panics if the exploration is empty.
    #[must_use]
    pub fn optimum(&self) -> usize {
        self.points
            .iter()
            .enumerate()
            .min_by(|a, b| {
                a.1.power
                    .total()
                    .partial_cmp(&b.1.power.total())
                    .expect("finite power")
            })
            .map(|(i, _)| i)
            .expect("exploration must contain at least one point")
    }

    /// The optimum point itself.
    ///
    /// # Panics
    ///
    /// Panics if the exploration is empty.
    #[must_use]
    pub fn optimum_point(&self) -> &ExplorationPoint {
        &self.points[self.optimum()]
    }

    /// `true` when the total-power minimum is at neither end of the sweep —
    /// the paper's headline observation that an intermediate amount of
    /// pipelining is optimal.
    #[must_use]
    pub fn has_interior_minimum(&self) -> bool {
        let best = self.optimum();
        best != 0 && best != self.points.len() - 1
    }

    /// Renders the sweep as a Table-3-style text table (power in mW).
    #[must_use]
    pub fn to_table(&self) -> TextTable {
        let mut table = TextTable::new(vec![
            "ranks",
            "flipflops",
            "clock cap (pF)",
            "logic (mW)",
            "flipflop (mW)",
            "clock (mW)",
            "total (mW)",
            "L/F",
        ]);
        for p in &self.points {
            table.add_row(vec![
                p.ranks.to_string(),
                p.flipflops.to_string(),
                format!("{:.1}", p.clock_capacitance * 1e12),
                format!("{:.2}", p.power.logic * 1e3),
                format!("{:.2}", p.power.flipflop * 1e3),
                format!("{:.2}", p.power.clock * 1e3),
                format!("{:.2}", p.power.total() * 1e3),
                format!("{:.2}", p.activity.useless_to_useful()),
            ]);
        }
        table
    }
}

impl fmt::Display for ExplorationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_table())
    }
}

/// Errors from a power exploration.
#[derive(Debug)]
pub enum ExploreError {
    /// Pipelining the netlist failed.
    Retime(RetimeError),
    /// Simulating one of the variants failed.
    Sim(SimError),
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::Retime(e) => write!(f, "pipelining failed: {e}"),
            ExploreError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ExploreError {}

impl From<RetimeError> for ExploreError {
    fn from(e: RetimeError) -> Self {
        ExploreError::Retime(e)
    }
}

impl From<SimError> for ExploreError {
    fn from(e: SimError) -> Self {
        ExploreError::Sim(e)
    }
}

/// Sweeps pipelining depth on a combinational datapath and evaluates the
/// three power components for every variant — the reproduction of Table 3 /
/// Figure 10 of the paper.
#[derive(Debug, Clone, Default)]
pub struct PowerExplorer {
    analyzer: GlitchAnalyzer,
}

impl PowerExplorer {
    /// Creates an explorer that analyses every variant with the given
    /// analyzer configuration.
    #[must_use]
    pub fn new(analyzer: GlitchAnalyzer) -> Self {
        PowerExplorer { analyzer }
    }

    /// Pipelines `combinational` with each of the requested `ranks` and
    /// carries the stimulus nets into every variant through the
    /// rewrite's map.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] if pipelining fails.
    fn prepare_variants(
        &self,
        combinational: &Netlist,
        ranks: &[usize],
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<Vec<Variant>, ExploreError> {
        ranks
            .iter()
            .map(|&rank| {
                let piped = pipeline_netlist(combinational, rank, PipelineOptions::default())?;
                let buses = random_buses
                    .iter()
                    .map(|b| Bus::new(b.bits().iter().map(|&n| piped.map.new_net(n)).collect()))
                    .collect();
                let held = held
                    .iter()
                    .map(|&(net, v)| (piped.map.new_net(net), v))
                    .collect();
                Ok(Variant {
                    rank,
                    piped,
                    buses,
                    held,
                })
            })
            .collect()
    }

    /// Simulates one prepared variant and distils its exploration point.
    fn evaluate_variant(&self, variant: &Variant) -> Result<ExplorationPoint, ExploreError> {
        let analysis: Analysis =
            self.analyzer
                .analyze(&variant.piped.netlist, &variant.buses, &variant.held)?;
        Ok(ExplorationPoint {
            ranks: variant.rank,
            flipflops: variant.piped.netlist.dff_count(),
            power: analysis.power.breakdown,
            clock_capacitance: analysis.power.clock_capacitance,
            activity: analysis.activity,
            gate_equivalents: variant.piped.netlist.gate_equivalents(),
        })
    }

    /// Pipelines `combinational` with each of the requested `ranks`,
    /// simulates each variant with the same random stimulus and returns the
    /// power curve.
    ///
    /// `random_buses` and `held` refer to nets of the *original* netlist;
    /// each pipelined variant reads them at their same-stage copies.
    ///
    /// # Errors
    ///
    /// Returns an [`ExploreError`] if pipelining or simulation of any
    /// variant fails.
    pub fn explore(
        &self,
        combinational: &Netlist,
        ranks: &[usize],
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<ExplorationResult, ExploreError> {
        let points = self
            .prepare_variants(combinational, ranks, random_buses, held)?
            .iter()
            .map(|variant| self.evaluate_variant(variant))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExplorationResult { points })
    }
}

/// A prepared pipelined variant: the netlist plus its remapped stimulus.
struct Variant {
    rank: usize,
    piped: Rewrite,
    buses: Vec<Bus>,
    held: Vec<(NetId, bool)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalysisConfig;
    use glitch_arith::{AdderStyle, ArrayMultiplier};

    #[test]
    fn sweep_produces_monotone_flipflops_and_falling_logic_power() {
        let mult = ArrayMultiplier::new(6, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 150,
            ..Default::default()
        });
        let explorer = PowerExplorer::new(analyzer);
        let result = explorer
            .explore(
                &mult.netlist,
                &[1, 2, 4, 8],
                &[mult.x.clone(), mult.y.clone()],
                &[],
            )
            .unwrap();
        let points = result.points();
        assert_eq!(points.len(), 4);
        for pair in points.windows(2) {
            assert!(pair[1].flipflops > pair[0].flipflops);
            assert!(pair[1].power.flipflop > pair[0].power.flipflop);
            assert!(pair[1].power.clock > pair[0].power.clock);
        }
        // Deep pipelining removes most glitches: logic power at 8 ranks is
        // well below the single-rank figure.
        assert!(points[3].power.logic < points[0].power.logic);
        assert!(points[3].activity.useless_to_useful() < points[0].activity.useless_to_useful());
        let table = result.to_table().to_string();
        assert!(table.contains("flipflops"));
        let _ = result.optimum_point();
    }

    #[test]
    fn pipelining_does_not_change_useful_work() {
        let mult = ArrayMultiplier::new(5, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 100,
            ..Default::default()
        });
        let explorer = PowerExplorer::new(analyzer);
        let result = explorer
            .explore(
                &mult.netlist,
                &[0, 6],
                &[mult.x.clone(), mult.y.clone()],
                &[],
            )
            .unwrap();
        let unpiped = &result.points()[0];
        let piped = &result.points()[1];
        // Pipeline registers delay the data but the same computation happens,
        // so useful transitions stay within a few percent (boundary effects
        // from the one-cycle-later arrival of results).
        let ratio = piped.activity.useful as f64 / unpiped.activity.useful as f64;
        assert!(
            (0.9..=1.1).contains(&ratio),
            "useful-transition ratio {ratio}"
        );
        // Useless transitions drop dramatically.
        assert!(piped.activity.useless < unpiped.activity.useless / 2);
    }
}
