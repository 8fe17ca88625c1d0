//! Verification entry point on [`GlitchAnalyzer`]: run a
//! [`glitch_verify::CheckSuite`] against the configured stimulus.
//!
//! Checking composes with the existing execution layers rather than
//! duplicating them: [`GlitchAnalyzer::check_seeds`] rides the sharded
//! parallel runner (one fresh checker set per seed, folded in seed
//! order, so the verdict is bit-identical at any `--jobs` count). An
//! input-flip re-check is the same call on a configuration with
//! [`crate::AnalysisConfig::flips`] set.

use glitch_netlist::{Bus, NetId, Netlist};
use glitch_sim::{Probe, SimError};
use glitch_verify::{CheckSuite, CheckerProbe, VerifyReport};

use crate::analyzer::{AggregateAnalysis, GlitchAnalyzer};

/// Result of a multi-seed [`GlitchAnalyzer::check_seeds`] run: the merged
/// verification report plus the standard multi-seed analysis (the checkers
/// ride the same sessions, so both come from one simulation pass per
/// seed).
#[derive(Debug, Clone)]
pub struct CheckAnalysis {
    /// The merged verification report (deterministic seed-order fold).
    pub report: VerifyReport,
    /// The standard multi-seed activity/power aggregate of the same runs.
    pub analysis: AggregateAnalysis,
    /// Cumulative wall-clock time inside each checker's hooks, summed over
    /// seeds, as `(name, micros)` pairs. All zeros unless the suite was
    /// built with [`CheckSuite::with_timing`]. Telemetry only — never part
    /// of the determinism-checked report.
    pub checker_micros: Vec<(String, u64)>,
}

impl GlitchAnalyzer {
    /// Runs the checker suite once per seed — fanned across `jobs` worker
    /// threads — and folds the per-seed checkers in seed order. The
    /// configured [`crate::AnalysisConfig::options`] select the reset /
    /// X-evaluation policy ([`glitch_sim::SimOptions::x_init`] for
    /// uninitialised-state checking). The engine dispatch is
    /// [`GlitchAnalyzer::analyze_seeds`]': under [`crate::EngineKind::Hybrid`]
    /// a suite of X-propagation and hazard checkers settles each
    /// qualifying seed on the timed kernel, while settle budgets and
    /// stability assertions need each transition and settle event by
    /// event; [`crate::EngineKind::Kernel`] runs the functional kernel.
    /// The hybrid verdict is bit-identical to the queue one.
    ///
    /// # Errors
    ///
    /// Returns the first failing seed's [`SimError`] (in seed order), or
    /// [`SimError::InvalidNetlist`] if kernel compilation fails.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn check_seeds(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
        suite: &CheckSuite,
        seeds: &[u64],
        jobs: usize,
    ) -> Result<CheckAnalysis, SimError> {
        let factory = |_seed: usize| -> Vec<Box<dyn Probe>> { vec![Box::new(suite.build())] };
        let (analysis, mut reports) =
            self.analyze_seeds(netlist, random_buses, held, seeds, jobs, &factory, None)?;
        let mut merged = CheckerProbe::default();
        for report in &mut reports {
            let probe = report
                .take_probe::<CheckerProbe>()
                .expect("check sessions carry a CheckerProbe");
            glitch_sim::MergeableProbe::merge(&mut merged, probe);
        }
        Ok(CheckAnalysis {
            report: merged.report(netlist),
            checker_micros: merged.checker_micros(),
            analysis,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::{AnalysisConfig, EngineKind};
    use glitch_netlist::Bus;
    use glitch_sim::{DeltaStimulus, InputAssignment, SimOptions, SimSession};
    use glitch_verify::BudgetSpec;

    /// A counter-like circuit with one uninitialised flipflop.
    fn fixture() -> (Netlist, Vec<Bus>) {
        let mut nl = Netlist::new("check fixture");
        let en = nl.add_input("en");
        let d = nl.add_input("d");
        let q = nl.dff(d, "q");
        let y = nl.xor2(en, q, "y");
        let z = nl.and2(en, q, "z");
        nl.mark_output(y);
        nl.mark_output(z);
        let buses = vec![Bus::new(nl.inputs().to_vec())];
        (nl, buses)
    }

    fn x_analyzer(cycles: u64) -> GlitchAnalyzer {
        GlitchAnalyzer::new(AnalysisConfig {
            cycles,
            options: SimOptions::x_init(),
            ..Default::default()
        })
    }

    fn full_suite(nl: &Netlist) -> CheckSuite {
        let budgets = BudgetSpec::parse_list("*=cycle")
            .unwrap()
            .resolve(nl)
            .unwrap();
        CheckSuite::new()
            .with_x_propagation()
            .with_budgets(budgets)
            .with_hazards()
    }

    #[test]
    fn check_seeds_is_jobs_invariant_and_detects_the_x_bug() {
        let (nl, buses) = fixture();
        let analyzer = x_analyzer(60);
        let suite = full_suite(&nl);
        let seeds = [7u64, 8, 9, 10];
        let serial = analyzer
            .check_seeds(&nl, &buses, &[], &suite, &seeds, 1)
            .unwrap();
        assert!(!serial.report.passed(), "the uninitialised q reaches y");
        assert_eq!(serial.report.failed_checkers(), 1);
        for jobs in [2, 4, 8] {
            let parallel = analyzer
                .check_seeds(&nl, &buses, &[], &suite, &seeds, jobs)
                .unwrap();
            assert_eq!(parallel.report, serial.report, "jobs={jobs}");
            assert_eq!(parallel.analysis.aggregate, serial.analysis.aggregate);
        }
        // The checkers ride the analysis sessions: the aggregate covers
        // every seed's cycles.
        assert_eq!(serial.analysis.total_cycles(), 4 * 60);
        let xprop = serial.report.outcome("x-propagation").unwrap();
        assert_eq!(xprop.metric("cycles"), Some(4 * 60));
    }

    #[test]
    fn hybrid_x_and_hazard_checks_settle_timed_and_match_the_queue() {
        let adder = glitch_arith::RippleCarryAdder::new(4, glitch_arith::AdderStyle::CompoundCell);
        let pipelined = glitch_retime::pipeline_netlist(&adder.netlist, 2, Default::default())
            .unwrap()
            .netlist;
        let pipelined_buses = vec![Bus::new(pipelined.inputs().to_vec())];
        let suite = CheckSuite::new().with_x_propagation().with_hazards();
        let seeds = [7u64, 8, 9];
        for (nl, buses) in [fixture(), (pipelined, pipelined_buses)] {
            let check = |engine| {
                GlitchAnalyzer::new(AnalysisConfig {
                    cycles: 70,
                    engine,
                    options: SimOptions::x_init(),
                    ..Default::default()
                })
                .check_seeds(&nl, &buses, &[], &suite, &seeds, 2)
                .unwrap()
            };
            let queue = check(EngineKind::Queue);
            let hybrid = check(EngineKind::Hybrid);
            assert_eq!(hybrid.report, queue.report, "{}", nl.name());
            assert_eq!(hybrid.analysis.aggregate, queue.analysis.aggregate);
            let shards = |checked: &CheckAnalysis| {
                let shards = checked.analysis.aggregate.shards();
                shards.iter().filter(|shard| shard.timed.is_some()).count()
            };
            assert_eq!(
                shards(&hybrid),
                seeds.len(),
                "every hybrid seed settles timed"
            );
            assert_eq!(shards(&queue), 0, "queue seeds never do");
        }
    }

    #[test]
    fn flipped_check_equals_a_full_check_of_the_merged_stimulus() {
        let (nl, buses) = fixture();
        let analyzer = x_analyzer(40);
        let suite = full_suite(&nl);
        let (_, baseline) = analyzer.analyze_baseline(&nl, &buses, &[]).unwrap();
        let en = nl.find_net("en").unwrap();
        let flip_to = baseline.input_value(15, en) != glitch_sim::Value::One;
        let delta = DeltaStimulus::new().set(15, en, flip_to);

        let flipped = GlitchAnalyzer::new(AnalysisConfig {
            flips: delta.clone(),
            ..analyzer.config().clone()
        })
        .check_seeds(&nl, &buses, &[], &suite, &[baseline.seed()], 1)
        .unwrap();

        // Full reference: simulate the merged stimulus from scratch with a
        // fresh checker set.
        let merged: Vec<InputAssignment> = analyzer
            .job(&nl, &buses, &[], baseline.seed())
            .stimulus()
            .zip(0..)
            .map(|(assignment, cycle)| delta.apply_to(cycle, &assignment))
            .collect();
        let full = SimSession::new(&nl)
            .delay(analyzer.config().delay.clone())
            .options(analyzer.config().options)
            .stimulus(merged)
            .probe(suite.build())
            .run()
            .unwrap();
        let full_report = full.probe::<CheckerProbe>().unwrap().report(&nl);
        assert_eq!(flipped.report, full_report);
    }

    #[test]
    fn baseline_check_report_matches_a_plain_run() {
        let (nl, buses) = fixture();
        let analyzer = x_analyzer(30);
        let suite = full_suite(&nl);
        let (analysis, baseline) = analyzer.analyze_baseline(&nl, &buses, &[]).unwrap();
        assert_eq!(baseline.cycle_count(), 30);
        assert_eq!(analysis.cycles, 30);
        // The verdict of a plain checked run of the same stimulus.
        let plain = analyzer
            .session(&nl, &buses, &[])
            .probe(suite.build())
            .run()
            .unwrap();
        let from_run = plain.probe::<CheckerProbe>().unwrap().report(&nl);
        // The configured check of the baseline's seed reproduces it.
        let checked = analyzer
            .check_seeds(&nl, &buses, &[], &suite, &[baseline.seed()], 1)
            .unwrap();
        assert_eq!(checked.report, from_run);
        assert_eq!(checked.analysis.trace(), &analysis.trace);
    }
}
