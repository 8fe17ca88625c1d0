//! The scoring half of the reduction loop: one multi-seed analysis pass
//! that prices a netlist in glitch power and locates *where* the hazards
//! are.
//!
//! The paper's reduction flow (section 5) alternates two activities:
//! measure a network's useless switching activity, then apply a structural
//! move (register ranks, delay insertion) where the measurement
//! says it pays. [`ReduceSession`] is the measurement half, shared by the
//! `glitch-reduce` optimizer and the CLI/daemon front-ends:
//!
//! * the standard [`GlitchAnalyzer`] multi-seed pass (activity + power,
//!   deterministic at any worker count) for the *figures*. Under the
//!   `hybrid` engine each seed whose delays qualify settles on the timed
//!   kernel, hazards included; under `queue` each settles event by event,
//!   with the same score;
//! * a [`HazardChecker`] riding the same pass for the *locations* — per-net
//!   static/dynamic hazard counts, folded across seeds in seed order;
//! * an [`OutputProbe`] beside it for the *function* — every primary
//!   output's value at every cycle end, one record per seed, which the
//!   reduction loop compares between a candidate and the netlist it
//!   rewrites;
//! * a glitch-power distillation: the combinational power attributable to
//!   **useless** transitions alone, priced through the same capacitance
//!   model as the total. This is the objective the reduction loop
//!   descends on, and the `−N%` in "glitch power −N% at equal function".

use glitch_netlist::{Bus, NetId, Netlist};
use glitch_power::estimate_power_from_counts;
use glitch_sim::{MergeableProbe, OutputProbe, OutputRecord, Probe, SimError};
use glitch_verify::HazardChecker;

use crate::analyzer::{AggregateAnalysis, AnalysisConfig, GlitchAnalyzer};

/// One priced netlist: the aggregate analysis plus the reduction loop's
/// derived objective and per-net hazard locations.
#[derive(Debug, Clone)]
pub struct ReduceScore {
    /// The full multi-seed aggregate (activity, power, spreads). Kernel
    /// telemetry appears only under [`crate::EngineKind::Kernel`], which
    /// has no glitch model to score with and which `reduce` refuses.
    /// Seeds settled on the timed kernel count no per-cycle statistics
    /// ([`GlitchAnalyzer::with_statistics`]), so its shards refuse to be
    /// read for them.
    pub analysis: AggregateAnalysis,
    /// Hazards per net across all seeds, index-aligned with the netlist's
    /// nets — the candidate-ranking signal.
    pub hazards: Vec<u64>,
    /// Combinational power attributable to useless transitions alone, in
    /// watts: the objective the reduction descends on.
    pub glitch_power: f64,
    /// Total dynamic power (logic + flipflop + clock), in watts.
    pub total_power: f64,
    /// Every primary output's end-of-cycle values, one record per seed in
    /// seed order: what a rewrite of this netlist must reproduce.
    pub outputs: Vec<OutputRecord>,
}

impl ReduceScore {
    /// Useless transitions summed over every net.
    #[must_use]
    pub fn useless_transitions(&self) -> u64 {
        self.analysis.activity().useless
    }

    /// Hazards summed over every net.
    #[must_use]
    pub fn total_hazards(&self) -> u64 {
        self.hazards.iter().sum()
    }

    /// Nets ranked by hazard count (descending), ties broken by useless
    /// transitions (descending) then net id (ascending) — a deterministic
    /// hot list for candidate generation. Nets with neither hazards nor
    /// useless transitions are omitted.
    #[must_use]
    pub fn hot_nets(&self) -> Vec<NetId> {
        let trace = self.analysis.trace();
        let mut ranked: Vec<(NetId, u64, u64)> = self
            .hazards
            .iter()
            .enumerate()
            .map(|(index, &hazards)| {
                let useless = trace.node(index).useless();
                (NetId::from_index(index), hazards, useless)
            })
            .filter(|&(_, hazards, useless)| hazards > 0 || useless > 0)
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(b.2.cmp(&a.2)).then(a.0.cmp(&b.0)));
        ranked.into_iter().map(|(net, _, _)| net).collect()
    }

    /// The relative glitch-power change from `baseline` to this score, in
    /// percent — negative is an improvement. Zero when the baseline had no
    /// glitch power to begin with.
    #[must_use]
    pub fn glitch_power_change_percent(&self, baseline: &ReduceScore) -> f64 {
        if baseline.glitch_power <= 0.0 {
            return 0.0;
        }
        (self.glitch_power - baseline.glitch_power) / baseline.glitch_power * 100.0
    }
}

/// Drives analyze → move → re-score measurement passes for the reduction
/// loop; see the module docs.
#[derive(Debug, Clone)]
pub struct ReduceSession {
    analyzer: GlitchAnalyzer,
    seeds: Vec<u64>,
    jobs: usize,
}

impl ReduceSession {
    /// Creates a session: `config` fixes cycles/delay/engine/technology,
    /// `seeds` the stimulus batch (scores aggregate over all of them),
    /// `jobs` the worker count (figures are worker-count invariant).
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn new(config: AnalysisConfig, seeds: Vec<u64>, jobs: usize) -> Self {
        assert!(!seeds.is_empty(), "at least one seed is required");
        ReduceSession {
            // A score reads no per-cycle statistics.
            analyzer: GlitchAnalyzer::new(config).with_statistics(false),
            seeds,
            jobs: jobs.max(1),
        }
    }

    /// The underlying analysis configuration.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        self.analyzer.config()
    }

    /// The stimulus seeds every score aggregates over.
    #[must_use]
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }

    /// Prices one netlist: a multi-seed analysis pass with a hazard checker
    /// and an output recorder riding along, distilled into a
    /// [`ReduceScore`].
    ///
    /// Scores of different netlists are comparable when produced by the
    /// same session — same cycles, seeds, delay model, options and
    /// technology — which is exactly how the reduction loop uses them.
    ///
    /// # Errors
    ///
    /// Returns the first failing seed's [`SimError`] (in seed order).
    pub fn score(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<ReduceScore, SimError> {
        let factory = |_seed_index: usize| -> Vec<Box<dyn Probe>> {
            vec![Box::new(HazardChecker::new()), Box::new(OutputProbe::new())]
        };
        let (analysis, mut reports) = self.analyzer.analyze_seeds(
            netlist,
            random_buses,
            held,
            &self.seeds,
            self.jobs,
            &factory,
            None,
        )?;
        // Fold the per-seed hazard checkers in seed order — the same
        // deterministic reduction the suite path performs.
        let mut merged = HazardChecker::new();
        let mut outputs = Vec::with_capacity(reports.len());
        for report in &mut reports {
            let checker = report
                .take_probe::<HazardChecker>()
                .expect("the factory attached a hazard checker to every seed");
            merged.merge(checker);
            let recorder = report
                .take_probe::<OutputProbe>()
                .expect("the factory attached an output probe to every seed");
            outputs.push(recorder.into_record());
        }
        let hazards = merged.per_net().to_vec();
        let trace = analysis.trace();
        let useless: Vec<u64> = (0..netlist.net_count())
            .map(|index| trace.node(index).useless())
            .collect();
        let config = self.analyzer.config();
        let glitch_power = estimate_power_from_counts(
            netlist,
            &useless,
            trace.cycles(),
            &config.technology,
            config.frequency,
        )
        .breakdown
        .logic;
        let total_power = analysis.power().breakdown.total();
        Ok(ReduceScore {
            analysis,
            hazards,
            glitch_power,
            total_power,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::EngineKind;
    use glitch_arith::{AdderStyle, RippleCarryAdder};

    fn session(engine: EngineKind, jobs: usize) -> ReduceSession {
        ReduceSession::new(
            AnalysisConfig {
                cycles: 120,
                engine,
                ..AnalysisConfig::default()
            },
            vec![1, 2, 3],
            jobs,
        )
    }

    #[test]
    fn scoring_prices_glitch_power_below_total() {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let score = session(EngineKind::Queue, 1)
            .score(
                &adder.netlist,
                &[adder.a.clone(), adder.b.clone()],
                &[(adder.cin, false)],
            )
            .unwrap();
        assert!(score.glitch_power > 0.0, "ripple carry glitches");
        assert!(score.glitch_power < score.total_power);
        assert!(score.useless_transitions() > 0);
        assert_eq!(score.hazards.len(), adder.netlist.net_count());
        assert!(score.total_hazards() > 0);
        // The hot list leads with the most hazardous net.
        let hot = score.hot_nets();
        assert!(!hot.is_empty());
        assert_eq!(
            score.hazards[hot[0].index()],
            score.hazards.iter().copied().max().unwrap()
        );
    }

    #[test]
    fn scores_are_worker_count_and_engine_invariant() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        // The sequential shape the reducer scores after a retime move.
        let pipelined = glitch_retime::pipeline_netlist(&adder.netlist, 2, Default::default())
            .unwrap()
            .netlist;
        assert!(pipelined.dff_count() > 0);
        let cases = [
            (
                &adder.netlist,
                vec![adder.a.clone(), adder.b.clone()],
                vec![(adder.cin, false)],
            ),
            (
                &pipelined,
                vec![Bus::new(pipelined.inputs().to_vec())],
                vec![],
            ),
        ];
        for (netlist, buses, held) in &cases {
            let serial = session(EngineKind::Queue, 1)
                .score(netlist, buses, held)
                .unwrap();
            let parallel = session(EngineKind::Queue, 4)
                .score(netlist, buses, held)
                .unwrap();
            let hybrid = session(EngineKind::Hybrid, 2)
                .score(netlist, buses, held)
                .unwrap();
            assert!(serial.total_hazards() > 0, "{}", netlist.name());
            for other in [&parallel, &hybrid] {
                assert_eq!(serial.hazards, other.hazards);
                assert_eq!(serial.glitch_power.to_bits(), other.glitch_power.to_bits());
                assert_eq!(serial.total_power.to_bits(), other.total_power.to_bits());
                assert_eq!(serial.hot_nets(), other.hot_nets());
                assert_eq!(serial.outputs, other.outputs);
            }
            let timed = |score: &ReduceScore| {
                let shards = score.analysis.aggregate.shards();
                shards.iter().filter(|shard| shard.timed.is_some()).count()
            };
            assert_eq!(timed(&hybrid), 3, "every hybrid seed settles timed");
            assert_eq!(timed(&serial) + timed(&parallel), 0, "no queue seed does");
        }
    }

    #[test]
    fn change_percent_is_signed_and_guarded() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let score = session(EngineKind::Queue, 1)
            .score(
                &adder.netlist,
                &[adder.a.clone(), adder.b.clone()],
                &[(adder.cin, false)],
            )
            .unwrap();
        assert_eq!(score.glitch_power_change_percent(&score), 0.0);
        let mut zero = score.clone();
        zero.glitch_power = 0.0;
        assert_eq!(score.glitch_power_change_percent(&zero), 0.0);
        assert!(zero.glitch_power_change_percent(&score) < 0.0);
    }
}
