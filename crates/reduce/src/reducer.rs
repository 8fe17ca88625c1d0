//! The greedy descent: analyze → propose → confirm (scored and screened
//! in one pass) → accept.
//!
//! Each iteration proposes candidates at the hazard-hot sites of the
//! current netlist's [`ReduceSession`] score (glitch power + per-net
//! hazards), builds each candidate just before scoring it with a full
//! analysis pass on the same stimulus (and drops it unless it is the best
//! so far), and accepts the single best strictly-improving move
//! among those whose outputs matched. The functional screen is read off
//! the scores: each records every primary output at every cycle end, so
//! [`screen_scores`] compares the candidate's outputs with the current
//! netlist's through the rewrite's mapping and latency, with no
//! simulation of its own. The loop stops at the `--target` reduction,
//! when no candidate improves, or at `--max-iters`.
//!
//! Every figure is deterministic: scoring is worker-count invariant,
//! screening compares seeded scores, candidate ranking is a pure function
//! of the score. Two runs with the same inputs produce byte-identical
//! reports.
//!
//! The headline — *glitch power −N% at equal function* — is only claimed
//! after a final differential equivalence verification of the reduced
//! netlist against the **original** through the composed move mapping,
//! under the configured delay model, both binary and `x_init`.

use glitch_core::{ReduceScore, ReduceSession};
use glitch_netlist::{Bus, NetId, Netlist};
use glitch_retime::{NetMap, PipelineOptions};
use glitch_verify::{EquivalenceChecker, EquivalenceReport};

use crate::compare::screen_scores;
use crate::error::ReduceError;
use crate::moves::{proposals, Candidate, MoveKind};
use crate::progress::{NullProgress, ProgressEvent, ProgressSink};

/// Knobs of the reduction loop; see the field docs for defaults.
#[derive(Debug, Clone)]
pub struct ReduceOptions {
    /// Enabled move kinds, in generation order.
    pub moves: Vec<MoveKind>,
    /// Stop once glitch power has dropped by at least this percent of the
    /// baseline; `None` descends until no move improves.
    pub target_percent: Option<f64>,
    /// Maximum accepted moves.
    pub max_iters: usize,
    /// Candidates proposed per move kind per iteration.
    pub per_kind: usize,
    /// Cycles of a co-simulated screen ([`crate::screen_candidate`]). The
    /// reducer screens from its scores and does not read this; it is kept
    /// only for the benchmark's reduce mirror, which screens on its own.
    pub screen_cycles: u64,
    /// Stimulus lanes of a co-simulated screen. The reducer does not read
    /// this either; kept only for the benchmark's reduce mirror.
    pub screen_lanes: usize,
    /// Cycles of the final equivalence verification.
    pub equivalence_cycles: u64,
    /// Pipelining options for [`MoveKind::Retime`] candidates.
    pub pipeline: PipelineOptions,
}

impl Default for ReduceOptions {
    fn default() -> Self {
        ReduceOptions {
            moves: MoveKind::all().to_vec(),
            target_percent: None,
            max_iters: 8,
            per_kind: 4,
            screen_cycles: 48,
            screen_lanes: 64,
            equivalence_cycles: 256,
            pipeline: PipelineOptions::default(),
        }
    }
}

/// One accepted move, with the glitch power it bought.
#[derive(Debug, Clone)]
pub struct AcceptedMove {
    /// 1-based iteration that accepted this move.
    pub iteration: usize,
    /// The move's kind.
    pub kind: MoveKind,
    /// The rewrite's human-readable description.
    pub description: String,
    /// Glitch power before the move, in watts.
    pub glitch_power_before: f64,
    /// Glitch power after the move, in watts.
    pub glitch_power_after: f64,
    /// Clock cycles of latency the move added.
    pub latency_added: usize,
}

/// The complete result of one reduction run.
#[derive(Debug, Clone)]
pub struct ReduceReport {
    /// Name of the circuit that was reduced.
    pub circuit: String,
    /// Iterations executed (including the final no-improvement one).
    pub iterations: usize,
    /// Candidates proposed across all iterations.
    pub proposed: usize,
    /// Candidates whose outputs matched the current netlist's in their
    /// confirm score (the functional screen).
    pub screened: usize,
    /// Candidates whose confirm score competed for acceptance: those that
    /// passed the screen, so always equal to `screened`.
    pub confirmed: usize,
    /// The accepted moves, in acceptance order.
    pub moves: Vec<AcceptedMove>,
    /// Baseline glitch power, in watts.
    pub initial_glitch_power: f64,
    /// Final glitch power, in watts.
    pub final_glitch_power: f64,
    /// Baseline total dynamic power, in watts.
    pub initial_total_power: f64,
    /// Final total dynamic power, in watts.
    pub final_total_power: f64,
    /// Glitch power after the baseline and after each accepted move —
    /// non-increasing by construction (each accepted move is a strict
    /// improvement).
    pub glitch_history: Vec<f64>,
    /// Total latency the accepted moves added, in clock cycles.
    pub latency: usize,
    /// The final equivalence verification against the original netlist,
    /// through the composed mapping: configured delay model, binary and
    /// `x_init`. Always present and always passing — a failure aborts the
    /// run with [`ReduceError::NotEquivalent`] instead.
    pub equivalence: EquivalenceReport,
    /// The reduced netlist.
    pub netlist: Netlist,
    /// The composed original → reduced mapping.
    pub map: NetMap,
}

impl ReduceReport {
    /// The headline reduction, in percent of the baseline glitch power
    /// (positive = improvement). Zero when the baseline had none.
    #[must_use]
    pub fn reduction_percent(&self) -> f64 {
        if self.initial_glitch_power <= 0.0 {
            return 0.0;
        }
        (self.initial_glitch_power - self.final_glitch_power) / self.initial_glitch_power * 100.0
    }

    /// The one-line claim: `glitch power -37.4% at equal function`.
    #[must_use]
    pub fn headline(&self) -> String {
        format!(
            "glitch power -{:.1}% at equal function",
            self.reduction_percent()
        )
    }
}

/// Runs the greedy reduction loop; see the module docs.
#[derive(Debug, Clone)]
pub struct Reducer {
    session: ReduceSession,
    options: ReduceOptions,
}

impl Reducer {
    /// Builds a reducer: `session` prices netlists (cycles, seeds, delay,
    /// engine, technology), `options` shape the descent.
    #[must_use]
    pub fn new(session: ReduceSession, options: ReduceOptions) -> Self {
        Reducer { session, options }
    }

    /// Reduces `netlist`: descends on glitch power with the enabled moves
    /// and returns the full report. `random_buses`/`held` describe the
    /// stimulus in **original** netlist coordinates; the reducer remaps
    /// them through each accepted rewrite.
    ///
    /// # Errors
    ///
    /// * [`ReduceError::Sim`] — a scoring simulation failed;
    /// * [`ReduceError::NotEquivalent`] — the final verification found a
    ///   divergence (a rewrite bug; accepted moves are pre-screened).
    pub fn run(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<ReduceReport, ReduceError> {
        self.run_with_progress(netlist, random_buses, held, &mut NullProgress)
    }

    /// [`Reducer::run`] with a [`ProgressSink`] observing one event per
    /// loop iteration (the accepted move, or the rejection that ends the
    /// descent) and the start and end of each phase: the baseline
    /// `reduce.score`, per iteration `reduce.candidates` and
    /// `reduce.confirm`, then `reduce.equivalence`. `reduce.candidates`
    /// covers only the ranking of the hot nets; `reduce.confirm` covers
    /// building each candidate ([`proposals`]), scoring it, screening it
    /// and dropping it. The sink is an observer only: the returned report
    /// is byte-identical to a sink-less run.
    ///
    /// # Errors
    ///
    /// Exactly as [`Reducer::run`].
    pub fn run_with_progress(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
        progress: &mut dyn ProgressSink,
    ) -> Result<ReduceReport, ReduceError> {
        progress.phase_start("reduce.score");
        let baseline = self.session.score(netlist, random_buses, held)?;
        progress.phase_end("reduce.score");

        let mut current = netlist.clone();
        let mut map = NetMap::identity(netlist);
        let mut buses = random_buses.to_vec();
        let mut held = held.to_vec();
        let mut score = baseline.clone();
        let mut glitch_history = vec![baseline.glitch_power];
        let mut moves: Vec<AcceptedMove> = Vec::new();
        let (mut proposed, mut screened) = (0usize, 0usize);
        let mut iterations = 0usize;

        while moves.len() < self.options.max_iters {
            if let Some(target) = self.options.target_percent {
                let reduced = (baseline.glitch_power - score.glitch_power)
                    / baseline.glitch_power.max(f64::MIN_POSITIVE)
                    * 100.0;
                if reduced >= target {
                    break;
                }
            }
            iterations += 1;
            progress.phase_start("reduce.candidates");
            let round = proposals(
                &current,
                &score,
                &self.options.moves,
                self.options.per_kind,
                self.options.pipeline,
            );
            progress.phase_end("reduce.candidates");
            // Confirm: build each candidate in turn, give it a full
            // glitch-power pass on the current stimulus, screen it by its
            // outputs and keep the best; every other candidate is dropped
            // before the next is built.
            progress.phase_start("reduce.confirm");
            type Confirmed = (Candidate, ReduceScore, Vec<Bus>, Vec<(NetId, bool)>);
            let mut best: Option<Confirmed> = None;
            let (mut iter_proposed, mut iter_screened) = (0usize, 0usize);
            for candidate in round {
                iter_proposed += 1;
                let next_buses: Vec<Bus> = buses
                    .iter()
                    .map(|bus| {
                        Bus::new(
                            bus.iter()
                                .map(|&net| candidate.rewrite.map.new_net(net))
                                .collect(),
                        )
                    })
                    .collect();
                let next_held: Vec<(NetId, bool)> = held
                    .iter()
                    .map(|&(net, value)| (candidate.rewrite.map.new_net(net), value))
                    .collect();
                let next_score =
                    self.session
                        .score(&candidate.rewrite.netlist, &next_buses, &next_held)?;
                if !screen_scores(&current, &score, &candidate.rewrite, &next_score).accepted {
                    continue;
                }
                iter_screened += 1;
                let improves = next_score.glitch_power < score.glitch_power;
                let beats_best = best
                    .as_ref()
                    .is_none_or(|(_, s, _, _)| next_score.glitch_power < s.glitch_power);
                if improves && beats_best {
                    best = Some((candidate, next_score, next_buses, next_held));
                }
            }
            progress.phase_end("reduce.confirm");
            proposed += iter_proposed;
            screened += iter_screened;
            let Some((winner, winner_score, winner_buses, winner_held)) = best else {
                progress.iteration(&ProgressEvent {
                    iteration: iterations,
                    proposed: iter_proposed,
                    screened: iter_screened,
                    accepted: None,
                    glitch_power: score.glitch_power,
                    baseline_glitch_power: baseline.glitch_power,
                });
                break;
            };
            moves.push(AcceptedMove {
                iteration: iterations,
                kind: winner.kind,
                description: winner.rewrite.description.clone(),
                glitch_power_before: score.glitch_power,
                glitch_power_after: winner_score.glitch_power,
                latency_added: winner.rewrite.map.latency(),
            });
            progress.iteration(&ProgressEvent {
                iteration: iterations,
                proposed: iter_proposed,
                screened: iter_screened,
                accepted: moves.last(),
                glitch_power: winner_score.glitch_power,
                baseline_glitch_power: baseline.glitch_power,
            });
            map = map.compose(&winner.rewrite.map);
            current = winner.rewrite.netlist;
            buses = winner_buses;
            held = winner_held;
            score = winner_score;
            glitch_history.push(score.glitch_power);
        }

        // The headline's "at equal function": verify the reduced netlist
        // against the ORIGINAL through the composed mapping.
        progress.phase_start("reduce.equivalence");
        let equivalence = self.verify_equivalence(netlist, &current, &map)?;
        progress.phase_end("reduce.equivalence");

        Ok(ReduceReport {
            circuit: netlist.name().to_string(),
            iterations,
            proposed,
            screened,
            confirmed: screened,
            moves,
            initial_glitch_power: baseline.glitch_power,
            final_glitch_power: score.glitch_power,
            initial_total_power: baseline.total_power,
            final_total_power: score.total_power,
            glitch_history,
            latency: map.latency(),
            equivalence,
            netlist: current,
            map,
        })
    }

    /// The final differential verification: configured delay model, both
    /// binary and `x_init`, through the composed mapping.
    fn verify_equivalence(
        &self,
        original: &Netlist,
        reduced: &Netlist,
        map: &NetMap,
    ) -> Result<EquivalenceReport, ReduceError> {
        let inputs: Vec<(NetId, NetId)> = original
            .inputs()
            .iter()
            .map(|&net| (net, map.new_net(net)))
            .collect();
        let outputs: Vec<(NetId, NetId)> = original
            .outputs()
            .iter()
            .map(|&net| (net, map.output_net(net)))
            .collect();
        let checker = EquivalenceChecker::new(original, reduced, inputs, outputs, map.latency())?;
        let config = self.session.config();
        let report = checker.verify(
            std::slice::from_ref(&config.delay),
            self.options.equivalence_cycles,
            config.seed,
        )?;
        if let Some(check) = report.first_failure() {
            let mismatch = check
                .outcome
                .mismatch
                .as_ref()
                .expect("failing checks carry a mismatch");
            return Err(ReduceError::NotEquivalent {
                detail: format!(
                    "delay {} (x_init={}): output `{}` at cycle {}: {:?} vs {:?}",
                    check.delay,
                    check.x_init,
                    mismatch.output,
                    mismatch.cycle,
                    mismatch.original,
                    mismatch.transformed
                ),
            });
        }
        Ok(report)
    }
}
