//! The single-circuit analysis flow: one simulation session → count →
//! classify → power.

use std::fmt;
use std::str::FromStr;

use glitch_activity::{ActivityReport, ActivityTrace};
use glitch_netlist::{Bus, ConeIndex, NetId, Netlist};
use glitch_power::{PowerReport, Technology};
use glitch_sim::{
    kernel_prepass, run_kernel_jobs, ActivityProbe, AggregateReport, DelayKind, DeltaStimulus,
    IncrementalSession, IncrementalStats, KernelPrepass, KernelProgram, ParallelRunner, PowerProbe,
    Probe, RandomStimulus, SessionReport, SimBaseline, SimError, SimJob, SimSession, Spread,
};

/// Which execution backend the multi-seed analysis entry points drive.
///
/// All three produce their figures through the same probe pipeline; they
/// differ in *how* net values are computed per cycle:
///
/// * [`EngineKind::Queue`] — the event-driven simulator with the
///   configured delay model. The reference engine: models glitches. Its
///   batch jobs that carry only the standard probes settle on the timed
///   kernel ([`ParallelRunner::run_jobs`]) whenever their delays are all
///   ≥ 1 (or all 0) on non-constant cells and their static horizon fits
///   the settle budget — with reports equal to the event-driven ones.
/// * [`EngineKind::Kernel`] — the compiled bit-parallel kernel only.
///   Functional (zero-delay) semantics: activity and power equal a
///   [`DelayKind::Zero`] queue run bit for bit, 64 seeds per machine word,
///   no event queue. No glitch modelling.
/// * [`EngineKind::Hybrid`] — a kernel prepass classifies every
///   `(seed, cycle)` pair as provably quiet or possibly active; only the
///   active cycles pay for the event-driven settle, and quiet cycles
///   replay as empty. Every job settles event by event, so reports are
///   bit-identical to [`EngineKind::Queue`] at any worker count by the
///   timed kernel's contract, which makes this engine its cross-check.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Event-driven simulation with the configured delay model.
    #[default]
    Queue,
    /// Compiled bit-parallel kernel, functional (zero-delay) semantics.
    Kernel,
    /// Kernel prepass pruning + event-driven settle of active cycles.
    Hybrid,
}

impl EngineKind {
    /// The engine's command-line name (`queue`, `kernel`, `hybrid`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EngineKind::Queue => "queue",
            EngineKind::Kernel => "kernel",
            EngineKind::Hybrid => "hybrid",
        }
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for EngineKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "queue" => Ok(EngineKind::Queue),
            "kernel" => Ok(EngineKind::Kernel),
            "hybrid" => Ok(EngineKind::Hybrid),
            other => Err(format!(
                "unknown engine `{other}` (expected `queue`, `kernel` or `hybrid`)"
            )),
        }
    }
}

/// Work accounting of the compiled-kernel side of a run — attached to
/// [`AggregateAnalysis::kernel`] whenever the engine was not pure
/// [`EngineKind::Queue`]. Telemetry only: never part of the
/// determinism-checked figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTelemetry {
    /// The engine that produced this run. A delay sweep compares delay
    /// models, which the functional kernel cannot evaluate, so
    /// [`EngineKind::Kernel`] degrades to [`EngineKind::Hybrid`] there.
    /// (Queue-engine sweeps settle on the timed kernel instead and carry
    /// no telemetry here; see [`glitch_sim::ShardSummary::timed`].)
    pub engine: EngineKind,
    /// Lanes (seeds) the kernel batch packed.
    pub lanes: usize,
    /// Total `(seed, cycle)` pairs the prepass covered.
    pub total_cycles: u64,
    /// `(seed, cycle)` pairs proved quiet — skipped by the queue engine
    /// under [`EngineKind::Hybrid`]. Zero for [`EngineKind::Kernel`] runs
    /// (nothing is dispatched to the queue at all).
    pub quiet_cycles: u64,
    /// Total `(seed, source-cone)` pairs classified, one cone per primary
    /// input or flipflop output. Zero when no prepass ran.
    pub total_pairs: u64,
    /// `(seed, source-cone)` pairs in which no cone net ever changed —
    /// provably inert for that seed under any delay assignment.
    pub quiet_pairs: u64,
    /// Functional (zero-delay) switching transitions counted word-wide.
    pub functional_transitions: u64,
    /// Kernel op evaluations performed (`ops × lanes × cycles`).
    pub functional_cell_evals: u64,
    /// Straight-line ops in the compiled program.
    pub program_ops: usize,
    /// In-memory size of the compiled program, in bytes.
    pub program_bytes: usize,
}

impl KernelTelemetry {
    /// Distils a hybrid prepass into its telemetry: per-cycle quiet counts
    /// straight off the prepass, plus the `(seed, source-cone)`
    /// classification — one fanout cone per primary input or flipflop
    /// output, quiet when no net in the cone changed after the
    /// initialisation transient of that seed's lane.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the cone index cannot be
    /// built.
    pub fn from_prepass(
        netlist: &Netlist,
        program: &KernelProgram,
        prepass: &KernelPrepass,
    ) -> Result<KernelTelemetry, SimError> {
        let index = ConeIndex::build(netlist)?;
        let mut total_pairs = 0u64;
        let mut quiet_pairs = 0u64;
        for root in program.source_nets() {
            let cone = index.cone([root]);
            for lane in 0..prepass.lanes() {
                total_pairs += 1;
                let active = cone
                    .nets()
                    .iter()
                    .any(|&net| prepass.net_changed(net, lane));
                quiet_pairs += u64::from(!active);
            }
        }
        Ok(KernelTelemetry {
            engine: EngineKind::Hybrid,
            lanes: prepass.lanes(),
            total_cycles: prepass.total_cycles(),
            quiet_cycles: prepass.quiet_cycle_count(),
            total_pairs,
            quiet_pairs,
            functional_transitions: prepass.functional_transitions(),
            functional_cell_evals: prepass.functional_cell_evals(),
            program_ops: program.op_count(),
            program_bytes: program.byte_size(),
        })
    }
}

/// Configuration of a [`GlitchAnalyzer`].
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisConfig {
    /// Number of random input vectors (clock cycles) to simulate.
    pub cycles: u64,
    /// Seed of the random stimulus.
    pub seed: u64,
    /// Clock frequency used for the power estimate, in hertz.
    pub frequency: f64,
    /// Technology used for the power estimate.
    pub technology: Technology,
    /// Delay model used for the simulation.
    pub delay: DelayKind,
    /// Execution backend for the multi-seed entry points
    /// ([`GlitchAnalyzer::analyze_seeds`], [`GlitchAnalyzer::sweep_delays_compiled`]
    /// and the check flow riding them). Single-session entry points
    /// ([`GlitchAnalyzer::analyze`], the incremental layer) always use the
    /// queue engine.
    pub engine: EngineKind,
    /// Simulator options (settle budget, flipflop reset policy, X
    /// evaluation mode). The defaults are the analysis defaults; the
    /// verification flow (`glitch-cli check --x-init`) swaps in
    /// [`glitch_sim::SimOptions::x_init`] to simulate uninitialised-state
    /// reachability.
    pub options: glitch_sim::SimOptions,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            cycles: 1000,
            seed: 0xDA7E_1995,
            frequency: 5e6,
            technology: Technology::cmos_0p8um_5v(),
            delay: DelayKind::Unit,
            engine: EngineKind::Queue,
            options: glitch_sim::SimOptions::default(),
        }
    }
}

/// Result of one [`GlitchAnalyzer::analyze`] run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Per-node transition activity with useful/useless classification.
    pub activity: ActivityReport,
    /// Three-component dynamic power estimate.
    pub power: PowerReport,
    /// The raw per-net trace (node indices are net indices), for custom
    /// post-processing such as per-bit grouping.
    pub trace: ActivityTrace,
    /// Number of cycles that were simulated.
    pub cycles: u64,
}

impl Analysis {
    /// Convenience accessor: the achievable combinational-activity reduction
    /// factor `1 + L/F` if all delay paths were balanced.
    #[must_use]
    pub fn balance_reduction_factor(&self) -> f64 {
        self.activity.totals().balance_reduction_factor()
    }
}

/// Result of a multi-seed (parallel) analysis: the merged figures plus the
/// per-seed spread that quantifies how confident the estimates are.
///
/// Glitch counts under random vectors are statistical estimates; a single
/// seed gives a point estimate with unknown error. A multi-seed aggregate
/// reports the mean and the min/max/standard deviation across seeds — the
/// honest form of the paper's Figure 5 / Table 3 numbers. The aggregate is
/// deterministic: it is bit-identical to the serial fold of the per-seed
/// runs regardless of the worker count.
#[derive(Debug, Clone)]
pub struct AggregateAnalysis {
    /// Per-node activity report over the **combined** activity of every
    /// seed, with useful/useless classification.
    pub activity: ActivityReport,
    /// Power estimate over the combined activity of every seed.
    pub power: PowerReport,
    /// The seeds that were simulated, in shard order.
    pub seeds: Vec<u64>,
    /// The underlying shard aggregate (per-seed summaries + spreads).
    pub aggregate: AggregateReport,
    /// Kernel-side work accounting when the run used the compiled kernel
    /// ([`EngineKind::Kernel`] or [`EngineKind::Hybrid`]); `None` for pure
    /// queue runs. Telemetry only — the analysis figures above are
    /// engine-invariant for `Hybrid` vs `Queue`.
    pub kernel: Option<KernelTelemetry>,
}

impl AggregateAnalysis {
    /// Distils a reduced shard aggregate into the analysis form.
    fn from_aggregate(netlist: &Netlist, seeds: &[u64], aggregate: AggregateReport) -> Self {
        AggregateAnalysis {
            activity: ActivityReport::from_trace(netlist, aggregate.merged_trace()),
            power: aggregate.merged_power().clone(),
            seeds: seeds.to_vec(),
            aggregate,
            kernel: None,
        }
    }

    /// The merged raw per-net trace (node indices are net indices), for
    /// custom post-processing such as per-bit grouping.
    #[must_use]
    pub fn trace(&self) -> &ActivityTrace {
        self.aggregate.merged_trace()
    }

    /// Total cycles simulated across all seeds.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.aggregate.total_cycles()
    }

    /// Spread of per-seed complete-glitch counts.
    #[must_use]
    pub fn glitch_spread(&self) -> Spread {
        self.aggregate.glitch_spread()
    }

    /// Spread of per-seed useless-transition counts.
    #[must_use]
    pub fn useless_spread(&self) -> Spread {
        self.aggregate.useless_spread()
    }

    /// Spread of per-seed total power, in watts.
    #[must_use]
    pub fn power_spread(&self) -> Spread {
        self.aggregate.power_spread()
    }

    /// Mean ± stddev of the per-seed `L/F` ratio.
    #[must_use]
    pub fn lf_ratio_spread(&self) -> Spread {
        self.aggregate.spread_of(|s| s.activity.useless_to_useful())
    }
}

/// Result of one incremental delta re-analysis
/// ([`GlitchAnalyzer::analyze_delta`]): the same figures a full
/// [`Analysis`] carries — bit-identical to a full re-simulation of the
/// merged stimulus — plus the incremental work accounting.
#[derive(Debug, Clone)]
pub struct DeltaAnalysis {
    /// Activity, power and trace of the delta run.
    pub analysis: Analysis,
    /// How much of the baseline's work the delta run actually redid.
    pub incremental: IncrementalStats,
}

/// One point of a delay-model sweep: the delay kind under test and the
/// multi-seed aggregate simulated under it.
#[derive(Debug, Clone)]
pub struct DelaySweepPoint {
    /// Human-readable name of the delay model (e.g. `unit`, `zero`).
    pub label: String,
    /// The delay model this point was simulated with.
    pub delay: DelayKind,
    /// The multi-seed aggregate under this delay model.
    pub analysis: AggregateAnalysis,
}

/// Simulates a netlist with seeded random stimuli and produces the paper's
/// transition-activity and power figures — in **one simulation pass**.
///
/// The analyzer is a thin configuration layer over [`SimSession`]: it
/// attaches an [`ActivityProbe`] and a [`PowerProbe`] to a single session
/// and distils their outputs into an [`Analysis`]. Callers that need more
/// observables (a waveform, a transition CSV) add probes to the same
/// session via [`GlitchAnalyzer::session`] and still pay for one pass.
///
/// ```
/// use glitch_core::{AnalysisConfig, GlitchAnalyzer};
/// use glitch_core::arith::{AdderStyle, RippleCarryAdder};
/// use glitch_core::sim::VcdProbe;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
/// let analyzer = GlitchAnalyzer::new(AnalysisConfig { cycles: 50, ..Default::default() });
/// // One pass: activity + power + waveform.
/// let mut report = analyzer
///     .session(&adder.netlist, &[adder.a.clone(), adder.b.clone()], &[(adder.cin, false)])
///     .probe(VcdProbe::default())
///     .run()?;
/// let vcd = report.take_probe::<VcdProbe>().unwrap().into_vcd();
/// let analysis = GlitchAnalyzer::analysis(&adder.netlist, report);
/// assert!(vcd.contains("$enddefinitions"));
/// assert!(analysis.activity.totals().transitions > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GlitchAnalyzer {
    config: AnalysisConfig,
}

impl GlitchAnalyzer {
    /// Creates an analyzer with the given configuration.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        GlitchAnalyzer { config }
    }

    /// The analyzer's configuration.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Builds the configured one-pass session: the seeded random stimulus,
    /// the configured delay model, and the activity + power probes. Attach
    /// further probes before calling [`SimSession::run`].
    #[must_use]
    pub fn session<'a>(
        &self,
        netlist: &'a Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> SimSession<'a> {
        let mut stimulus =
            RandomStimulus::new(random_buses.to_vec(), self.config.cycles, self.config.seed);
        for &(net, value) in held {
            stimulus = stimulus.hold(net, value);
        }
        SimSession::new(netlist)
            .delay(self.config.delay.clone())
            .options(self.config.options)
            .stimulus(stimulus)
            .probe(ActivityProbe::new())
            .probe(PowerProbe::new(
                self.config.technology,
                self.config.frequency,
            ))
    }

    /// Distils a finished session report (as built by
    /// [`GlitchAnalyzer::session`]) into an [`Analysis`].
    ///
    /// # Panics
    ///
    /// Panics if the report is missing the analyzer's activity or power
    /// probe (i.e. it did not come from [`GlitchAnalyzer::session`]).
    #[must_use]
    pub fn analysis(netlist: &Netlist, mut report: SessionReport) -> Analysis {
        let trace = report
            .take_probe::<ActivityProbe>()
            .expect("analysis sessions carry an ActivityProbe")
            .into_trace();
        let power = report
            .take_probe::<PowerProbe>()
            .expect("analysis sessions carry a PowerProbe")
            .into_report();
        let activity = ActivityReport::from_trace(netlist, &trace);
        Analysis {
            activity,
            power,
            trace,
            cycles: report.cycles(),
        }
    }

    /// Simulates `netlist` once for the configured number of cycles,
    /// driving `random_buses` with uniform random values each cycle and
    /// holding the `held` single-bit inputs constant.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] if the netlist is structurally invalid or the
    /// simulation fails to settle.
    pub fn analyze(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<Analysis, SimError> {
        let report = self.session(netlist, random_buses, held).run()?;
        Ok(Self::analysis(netlist, report))
    }

    /// Like [`GlitchAnalyzer::analyze`], but additionally records a
    /// replayable [`SimBaseline`] of the run — the anchor for
    /// [`GlitchAnalyzer::analyze_delta`] / [`GlitchAnalyzer::analyze_deltas`]
    /// re-analyses of *nearby* stimuli (a few changed input bits).
    ///
    /// # Errors
    ///
    /// As for [`GlitchAnalyzer::analyze`].
    pub fn analyze_baseline(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> Result<(Analysis, SimBaseline), SimError> {
        let (report, baseline) = self
            .session(netlist, random_buses, held)
            .record_baseline()?;
        Ok((Self::analysis(netlist, report), baseline))
    }

    /// Re-analyses the baseline under a [`DeltaStimulus`] incrementally:
    /// cycles untouched by the delta replay from the baseline, dirty
    /// fanout cones re-simulate. The returned figures are bit-identical to
    /// a full [`GlitchAnalyzer::analyze`]-style run of the merged stimulus
    /// (pinned by the differential oracle in `glitch-sim`); the delay
    /// model and simulator options come from the baseline.
    ///
    /// # Errors
    ///
    /// Returns a [`SimError`] for deltas beyond the baseline, overrides of
    /// non-input nets, or any simulation failure in a dirty cycle.
    pub fn analyze_delta(
        &self,
        netlist: &Netlist,
        baseline: &SimBaseline,
        delta: &DeltaStimulus,
    ) -> Result<DeltaAnalysis, SimError> {
        self.analyze_delta_with_index(netlist, baseline, delta, None)
    }

    /// [`GlitchAnalyzer::analyze_delta`] with an optional pre-built
    /// [`ConeIndex`] to reuse across calls. Long-lived callers (the
    /// serving layer's warm cache, [`GlitchAnalyzer::analyze_deltas`])
    /// amortise the index build over many deltas this way; the index is
    /// deterministic for a netlist, so the figures are identical either
    /// way.
    ///
    /// # Errors
    ///
    /// As for [`GlitchAnalyzer::analyze_delta`].
    pub fn analyze_delta_with_index(
        &self,
        netlist: &Netlist,
        baseline: &SimBaseline,
        delta: &DeltaStimulus,
        index: Option<&ConeIndex>,
    ) -> Result<DeltaAnalysis, SimError> {
        let mut session = IncrementalSession::new(netlist, baseline)
            .probe(ActivityProbe::new())
            .probe(PowerProbe::new(
                self.config.technology,
                self.config.frequency,
            ))
            .delta(delta.clone());
        if let Some(index) = index {
            session = session.cone_index(index);
        }
        let report = session.run().map_err(SimError::from)?;
        let incremental = report.stats();
        Ok(DeltaAnalysis {
            analysis: Self::analysis(netlist, report.into_session()),
            incremental,
        })
    }

    /// Re-analyses many *nearby* deltas against one shared baseline,
    /// fanned across `jobs` worker threads. The fanout/level cone index is
    /// built once and shared by every job, and results come back in delta
    /// order — bit-identical at any worker count, in the
    /// [`GlitchAnalyzer::analyze_seeds`] tradition.
    ///
    /// # Errors
    ///
    /// Returns the first failing delta's [`SimError`] in delta order.
    pub fn analyze_deltas(
        &self,
        netlist: &Netlist,
        baseline: &SimBaseline,
        deltas: &[DeltaStimulus],
        jobs: usize,
    ) -> Result<Vec<DeltaAnalysis>, SimError> {
        let index = ConeIndex::build(netlist).map_err(SimError::from)?;
        ParallelRunner::new(jobs)
            .map(deltas.iter().collect(), |_, delta: &DeltaStimulus| {
                self.analyze_delta_with_index(netlist, baseline, delta, Some(&index))
            })
            .into_iter()
            .collect()
    }

    /// The shard job for one seed, configured like
    /// [`GlitchAnalyzer::session`]: the input for the parallel runner and
    /// the compiled kernel.
    #[must_use]
    pub fn job<'a>(
        &self,
        netlist: &'a Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
        seed: u64,
    ) -> SimJob<'a> {
        SimJob::new(netlist, random_buses.to_vec(), self.config.cycles, seed)
            .with_delay(self.config.delay.clone())
            .with_held(held.to_vec())
            .with_power(self.config.technology, self.config.frequency)
            .with_options(self.config.options)
    }

    /// Simulates the netlist once per seed — fanned across `jobs` worker
    /// threads — and reduces the per-seed results into an
    /// [`AggregateAnalysis`] with per-seed spread. Each seed runs the
    /// configured number of cycles, so the aggregate covers
    /// `seeds.len() * config.cycles` cycles in total.
    ///
    /// The reduction is deterministic (seeded shards, folded in seed
    /// order): any worker count produces the same aggregate bit for bit as
    /// `jobs = 1`.
    ///
    /// `extra_probes(seed_index)` builds further probes for each seed's
    /// session. The returned [`SessionReport`]s (one per seed, in seed
    /// order) have had the standard activity/power/stats probes consumed
    /// but still carry the extra probes, ready for the caller to take and
    /// fold (e.g. with [`glitch_sim::MergeableProbe`]).
    ///
    /// `program` is an optional precompiled [`KernelProgram`] to reuse.
    /// Long-lived callers (the serving layer's content-addressed program
    /// cache) amortise the one-time compile this way; a program is
    /// deterministic for a netlist, so the figures are identical either
    /// way. Under [`EngineKind::Queue`], when no extra probe is attached,
    /// the program drives the timed kernel that settles every qualifying
    /// seed ([`ParallelRunner::run_jobs`]); it is compiled on demand when
    /// absent.
    ///
    /// # Errors
    ///
    /// Returns the first failing seed's [`SimError`] (in seed order), or
    /// [`SimError::InvalidNetlist`] if kernel compilation fails.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty, or if a supplied `program` was compiled
    /// from a different netlist.
    #[allow(clippy::too_many_arguments)]
    pub fn analyze_seeds(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
        seeds: &[u64],
        jobs: usize,
        extra_probes: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
        program: Option<&KernelProgram>,
    ) -> Result<(AggregateAnalysis, Vec<SessionReport>), SimError> {
        assert!(!seeds.is_empty(), "at least one seed is required");
        let mut job_list: Vec<SimJob<'_>> = seeds
            .iter()
            .map(|&seed| self.job(netlist, random_buses, held, seed))
            .collect();
        let telemetry = match self.config.engine {
            // Jobs with only the standard probes settle on the timed kernel
            // where their delays allow it; extra probes need the
            // per-transition hooks of a session.
            EngineKind::Queue => {
                let reports = if (0..job_list.len()).all(|index| extra_probes(index).is_empty()) {
                    run_routed(netlist, &job_list, jobs, program)?
                } else {
                    ParallelRunner::new(jobs).run_sessions_with(&job_list, extra_probes)?
                };
                return Ok(reduce_seeds(netlist, seeds, &job_list, reports));
            }
            EngineKind::Kernel => {
                let compiled;
                let program = match program {
                    Some(program) => program,
                    None => {
                        compiled = KernelProgram::compile(netlist)?;
                        &compiled
                    }
                };
                let mut reports = run_kernel_jobs(netlist, program, &job_list, extra_probes)?;
                let aggregate = AggregateReport::reduce(netlist, &job_list, &mut reports);
                let mut analysis = AggregateAnalysis::from_aggregate(netlist, seeds, aggregate);
                analysis.kernel = Some(KernelTelemetry {
                    engine: EngineKind::Kernel,
                    lanes: job_list.len(),
                    total_cycles: job_list.len() as u64 * self.config.cycles,
                    quiet_cycles: 0,
                    total_pairs: 0,
                    quiet_pairs: 0,
                    functional_transitions: analysis.activity.totals().transitions,
                    functional_cell_evals: program.op_count() as u64
                        * job_list.len() as u64
                        * self.config.cycles,
                    program_ops: program.op_count(),
                    program_bytes: program.byte_size(),
                });
                return Ok((analysis, reports));
            }
            EngineKind::Hybrid => {
                let compiled;
                let program = match program {
                    Some(program) => program,
                    None => {
                        compiled = KernelProgram::compile(netlist)?;
                        &compiled
                    }
                };
                let prepass = kernel_prepass(netlist, program, &job_list)?;
                job_list = job_list
                    .into_iter()
                    .enumerate()
                    .map(|(lane, job)| job.with_quiet_cycles(prepass.quiet_cycles(lane)))
                    .collect();
                KernelTelemetry::from_prepass(netlist, program, &prepass)?
            }
        };
        let reports = ParallelRunner::new(jobs).run_sessions_with(&job_list, extra_probes)?;
        let (mut analysis, reports) = reduce_seeds(netlist, seeds, &job_list, reports);
        analysis.kernel = Some(telemetry);
        Ok((analysis, reports))
    }

    /// Sweeps a set of delay models, simulating every `(delay, seed)`
    /// combination in **one** parallel batch across `jobs` workers and
    /// reducing per delay model. `labels_and_delays` pairs a display name
    /// with each model; the configured delay of the analyzer is ignored.
    ///
    /// This is the cheap way to compare how sensitive glitch counts are to
    /// the delay-modeling choice (cf. Függer et al. on glitch-propagation
    /// model fidelity): every model sees the same seeds, so differences are
    /// purely model-induced.
    ///
    /// `program` is an optional precompiled [`KernelProgram`] to reuse (see
    /// [`GlitchAnalyzer::analyze_seeds`]). Under [`EngineKind::Queue`] every
    /// combination whose delays qualify settles on the timed kernel, with
    /// the event-driven session's figures. Under a non-queue engine the
    /// kernel prepass runs **once** per seed batch — quiet cycles are a
    /// functional property of the stimulus, so the same masks prune every
    /// delay model's chunk. A sweep exists to compare delay models, which
    /// the delay-less kernel cannot evaluate, so [`EngineKind::Kernel`]
    /// degrades to the hybrid here.
    ///
    /// # Errors
    ///
    /// Returns the first failing combination's [`SimError`] in batch order
    /// (delay-major, then seed), or [`SimError::InvalidNetlist`] if kernel
    /// compilation fails.
    ///
    /// # Panics
    ///
    /// Panics if `labels_and_delays` or `seeds` is empty, or if a supplied
    /// `program` was compiled from a different netlist.
    #[allow(clippy::too_many_arguments)]
    pub fn sweep_delays_compiled(
        &self,
        netlist: &Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
        labels_and_delays: &[(String, DelayKind)],
        seeds: &[u64],
        jobs: usize,
        program: Option<&KernelProgram>,
    ) -> Result<Vec<DelaySweepPoint>, SimError> {
        assert!(
            !labels_and_delays.is_empty(),
            "at least one delay model is required"
        );
        assert!(!seeds.is_empty(), "at least one seed is required");
        let mut job_list: Vec<SimJob<'_>> = labels_and_delays
            .iter()
            .flat_map(|(label, delay)| {
                seeds.iter().map(move |&seed| {
                    self.job(netlist, random_buses, held, seed)
                        .with_delay(delay.clone())
                        .with_label(label.clone())
                })
            })
            .collect();
        let mut telemetry = None;
        let reports = if self.config.engine == EngineKind::Queue {
            run_routed(netlist, &job_list, jobs, program)?
        } else {
            let compiled;
            let program = match program {
                Some(program) => program,
                None => {
                    compiled = KernelProgram::compile(netlist)?;
                    &compiled
                }
            };
            let base: Vec<SimJob<'_>> = seeds
                .iter()
                .map(|&seed| self.job(netlist, random_buses, held, seed))
                .collect();
            let prepass = kernel_prepass(netlist, program, &base)?;
            telemetry = Some(KernelTelemetry::from_prepass(netlist, program, &prepass)?);
            // Delay-major batch: job i drives seed i % seeds.len(), and the
            // kernel ignores delay, so one mask set prunes every chunk.
            job_list = job_list
                .into_iter()
                .enumerate()
                .map(|(i, job)| job.with_quiet_cycles(prepass.quiet_cycles(i % seeds.len())))
                .collect();
            ParallelRunner::new(jobs).run_sessions(&job_list)?
        };
        // Chunk the flat batch back into one aggregate per delay model.
        let mut points = Vec::with_capacity(labels_and_delays.len());
        let mut reports = reports.into_iter();
        for (chunk, (label, delay)) in job_list.chunks(seeds.len()).zip(labels_and_delays) {
            let mut chunk_reports: Vec<_> = reports.by_ref().take(seeds.len()).collect();
            let aggregate = AggregateReport::reduce(netlist, chunk, &mut chunk_reports);
            let mut analysis = AggregateAnalysis::from_aggregate(netlist, seeds, aggregate);
            analysis.kernel = telemetry.clone();
            points.push(DelaySweepPoint {
                label: label.clone(),
                delay: delay.clone(),
                analysis,
            });
        }
        Ok(points)
    }
}

/// Runs a queue-engine batch with the standard probes through
/// [`ParallelRunner::run_jobs`], which settles every qualifying job on the
/// timed kernel. A netlist that does not compile fails the validation
/// its sessions would fail, with the same error.
fn run_routed(
    netlist: &Netlist,
    jobs: &[SimJob<'_>],
    workers: usize,
    program: Option<&KernelProgram>,
) -> Result<Vec<SessionReport>, SimError> {
    let compiled;
    let program = match program {
        Some(program) => program,
        None => {
            compiled = KernelProgram::compile(netlist)?;
            &compiled
        }
    };
    ParallelRunner::new(workers).run_jobs(jobs, program)
}

/// Folds a seed batch's reports into the aggregate analysis, handing the
/// reports (stripped of the standard probes) back.
fn reduce_seeds(
    netlist: &Netlist,
    seeds: &[u64],
    jobs: &[SimJob<'_>],
    mut reports: Vec<SessionReport>,
) -> (AggregateAnalysis, Vec<SessionReport>) {
    let aggregate = AggregateReport::reduce(netlist, jobs, &mut reports);
    (
        AggregateAnalysis::from_aggregate(netlist, seeds, aggregate),
        reports,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_arith::{AdderStyle, RippleCarryAdder, WallaceTreeMultiplier};
    use glitch_sim::CellDelay;

    #[test]
    fn analyzer_reports_activity_and_power() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 300,
            ..Default::default()
        });
        let analysis = analyzer
            .analyze(
                &adder.netlist,
                &[adder.a.clone(), adder.b.clone()],
                &[(adder.cin, false)],
            )
            .unwrap();
        let totals = analysis.activity.totals();
        assert_eq!(totals.cycles, 300);
        assert!(totals.useful > 0);
        assert!(totals.useless > 0);
        assert!(analysis.power.breakdown.logic > 0.0);
        assert!(analysis.balance_reduction_factor() > 1.0);
        assert_eq!(analysis.cycles, 300);
        assert_eq!(analyzer.config().cycles, 300);
    }

    #[test]
    fn zero_delay_reference_has_no_glitches() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 200,
            delay: DelayKind::Zero,
            ..Default::default()
        });
        let analysis = analyzer
            .analyze(
                &adder.netlist,
                &[adder.a.clone(), adder.b.clone()],
                &[(adder.cin, false)],
            )
            .unwrap();
        assert_eq!(analysis.activity.totals().useless, 0);
        assert!(analysis.activity.totals().useful > 0);
    }

    #[test]
    fn unbalanced_cell_delays_increase_glitching() {
        let mult = WallaceTreeMultiplier::new(8, AdderStyle::CompoundCell);
        let buses = [mult.x.clone(), mult.y.clone()];
        let unit = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 200,
            ..Default::default()
        })
        .analyze(&mult.netlist, &buses, &[])
        .unwrap();
        let realistic = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 200,
            delay: DelayKind::RealisticAdderCells,
            ..Default::default()
        })
        .analyze(&mult.netlist, &buses, &[])
        .unwrap();
        // Table 2: making the sum output slower than the carry output adds
        // delay imbalance and therefore useless transitions.
        assert!(realistic.activity.totals().useless > unit.activity.totals().useless);
        // The useful work is unchanged by the delay model.
        assert_eq!(
            realistic.activity.totals().useful,
            unit.activity.totals().useful
        );
    }

    #[test]
    fn custom_delay_model_is_accepted() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 50,
            delay: DelayKind::Custom(CellDelay::new().with_full_adder(3, 1)),
            ..Default::default()
        });
        let analysis = analyzer
            .analyze(
                &adder.netlist,
                &[adder.a.clone(), adder.b.clone()],
                &[(adder.cin, false)],
            )
            .unwrap();
        assert!(analysis.activity.totals().transitions > 0);
    }

    #[test]
    fn multi_seed_aggregate_equals_serial_fold_and_reports_spread() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 80,
            ..Default::default()
        });
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let seeds = [11u64, 22, 33, 44];
        let parallel = analyzer
            .analyze_seeds(
                &adder.netlist,
                &buses,
                &held,
                &seeds,
                4,
                &|_| Vec::new(),
                None,
            )
            .unwrap()
            .0;
        let serial = analyzer
            .analyze_seeds(
                &adder.netlist,
                &buses,
                &held,
                &seeds,
                1,
                &|_| Vec::new(),
                None,
            )
            .unwrap()
            .0;
        assert_eq!(parallel.aggregate, serial.aggregate);
        assert_eq!(parallel.trace(), serial.trace());
        assert_eq!(parallel.power, serial.power);
        assert_eq!(parallel.total_cycles(), 4 * 80);
        assert_eq!(parallel.seeds, seeds);
        // The merged activity equals the sum of per-seed single analyses.
        let mut expected_useless = 0;
        for &seed in &seeds {
            let single = GlitchAnalyzer::new(AnalysisConfig {
                cycles: 80,
                seed,
                ..Default::default()
            })
            .analyze(&adder.netlist, &buses, &held)
            .unwrap();
            expected_useless += single.activity.totals().useless;
        }
        assert_eq!(parallel.activity.totals().useless, expected_useless);
        let spread = parallel.glitch_spread();
        assert!(spread.min <= spread.mean && spread.mean <= spread.max);
        assert!(parallel.power_spread().mean > 0.0);
        assert!(parallel.useless_spread().mean > 0.0);
        assert!(parallel.lf_ratio_spread().mean > 0.0);
    }

    #[test]
    fn delay_sweep_compares_models_on_identical_seeds() {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 60,
            ..Default::default()
        });
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let models = vec![
            ("unit".to_string(), DelayKind::Unit),
            ("zero".to_string(), DelayKind::Zero),
        ];
        let points = analyzer
            .sweep_delays_compiled(&adder.netlist, &buses, &held, &models, &[5, 6, 7], 3, None)
            .unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label, "unit");
        assert_eq!(points[1].delay, DelayKind::Zero);
        // Zero delay is glitch-free; unit delay glitches; the useful work
        // is the same because both saw identical stimuli.
        assert_eq!(points[1].analysis.activity.totals().useless, 0);
        assert!(points[0].analysis.activity.totals().useless > 0);
        assert_eq!(
            points[0].analysis.activity.totals().useful,
            points[1].analysis.activity.totals().useful
        );
        assert_eq!(points[0].analysis.total_cycles(), 3 * 60);
    }

    #[test]
    fn empty_delta_replays_the_baseline_bit_for_bit() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 120,
            ..Default::default()
        });
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let (analysis, baseline) = analyzer
            .analyze_baseline(&adder.netlist, &buses, &held)
            .unwrap();
        assert_eq!(baseline.cycle_count(), 120);
        assert!(baseline.total_cell_evals() > 0);

        let replay = analyzer
            .analyze_delta(&adder.netlist, &baseline, &DeltaStimulus::new())
            .unwrap();
        assert_eq!(replay.incremental.replayed_cycles, 120);
        assert_eq!(replay.incremental.cells_evaluated, 0);
        assert_eq!(replay.analysis.trace, analysis.trace);
        assert_eq!(replay.analysis.power, analysis.power);
    }

    #[test]
    fn delta_analysis_matches_a_full_rerun_and_parallel_deltas_are_deterministic() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 100,
            ..Default::default()
        });
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let (_, baseline) = analyzer
            .analyze_baseline(&adder.netlist, &buses, &held)
            .unwrap();

        let flip_net = adder.a.bit(3);
        let flip_to = baseline.input_value(40, flip_net) != glitch_sim::Value::One;
        let delta = DeltaStimulus::new().set(40, flip_net, flip_to);

        // Full reference: simulate the merged stimulus from scratch.
        let merged: Vec<glitch_sim::InputAssignment> = (0..baseline.cycle_count())
            .map(|c| delta.apply_to(c, baseline.assignment(c)))
            .collect();
        let full_report = SimSession::new(&adder.netlist)
            .delay(analyzer.config().delay.clone())
            .stimulus(merged)
            .probe(ActivityProbe::new())
            .probe(PowerProbe::new(
                analyzer.config().technology,
                analyzer.config().frequency,
            ))
            .run()
            .unwrap();
        let full = GlitchAnalyzer::analysis(&adder.netlist, full_report);

        let incremental = analyzer
            .analyze_delta(&adder.netlist, &baseline, &delta)
            .unwrap();
        assert_eq!(incremental.analysis.trace, full.trace);
        assert_eq!(incremental.analysis.power, full.power);
        assert!(incremental.incremental.replayed_cycles >= 90);
        assert!(incremental.incremental.evaluated_fraction() < 0.5);

        // Fanning nearby deltas across workers is deterministic and equals
        // the one-by-one runs.
        let deltas: Vec<DeltaStimulus> = (0..4)
            .map(|bit| {
                let net = adder.a.bit(bit);
                let to = baseline.input_value(20, net) != glitch_sim::Value::One;
                DeltaStimulus::new().set(20, net, to)
            })
            .collect();
        let parallel = analyzer
            .analyze_deltas(&adder.netlist, &baseline, &deltas, 4)
            .unwrap();
        let serial = analyzer
            .analyze_deltas(&adder.netlist, &baseline, &deltas, 1)
            .unwrap();
        assert_eq!(parallel.len(), 4);
        for (p, s) in parallel.iter().zip(&serial) {
            assert_eq!(p.analysis.trace, s.analysis.trace);
            assert_eq!(p.analysis.power, s.analysis.power);
            assert_eq!(p.incremental, s.incremental);
        }
        for (p, delta) in parallel.iter().zip(&deltas) {
            let single = analyzer
                .analyze_delta(&adder.netlist, &baseline, delta)
                .unwrap();
            assert_eq!(p.analysis.trace, single.analysis.trace);
            assert_eq!(p.incremental, single.incremental);
        }
    }

    #[test]
    fn engine_kind_parses_round_trip() {
        for kind in [EngineKind::Queue, EngineKind::Kernel, EngineKind::Hybrid] {
            assert_eq!(kind.as_str().parse::<EngineKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("express".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::default(), EngineKind::Queue);
    }

    #[test]
    fn hybrid_engine_is_bit_identical_to_the_queue_engine() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let seeds = [3u64, 5, 8, 13];
        let queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 60,
            ..Default::default()
        })
        .analyze_seeds(
            &adder.netlist,
            &buses,
            &held,
            &seeds,
            2,
            &|_| Vec::new(),
            None,
        )
        .unwrap()
        .0;
        let hybrid = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 60,
            engine: EngineKind::Hybrid,
            ..Default::default()
        })
        .analyze_seeds(
            &adder.netlist,
            &buses,
            &held,
            &seeds,
            2,
            &|_| Vec::new(),
            None,
        )
        .unwrap()
        .0;
        assert_eq!(hybrid.aggregate, queue.aggregate);
        assert_eq!(hybrid.trace(), queue.trace());
        assert_eq!(hybrid.power, queue.power);
        assert!(queue.kernel.is_none());
        let telemetry = hybrid.kernel.expect("hybrid runs carry kernel telemetry");
        assert_eq!(telemetry.engine, EngineKind::Hybrid);
        assert_eq!(telemetry.lanes, seeds.len());
        assert_eq!(telemetry.total_cycles, 4 * 60);
        assert!(telemetry.total_pairs > 0);
        assert!(telemetry.program_ops > 0);
        assert!(telemetry.program_bytes > 0);
    }

    #[test]
    fn hybrid_engine_prunes_quiet_cycles_under_held_inputs() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let mut held = vec![(adder.cin, false)];
        for bit in 0..4 {
            held.push((adder.a.bit(bit), bit % 2 == 0));
            held.push((adder.b.bit(bit), bit % 3 == 0));
        }
        let seeds = [1u64, 2];
        let queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 20,
            ..Default::default()
        })
        .analyze_seeds(&adder.netlist, &[], &held, &seeds, 1, &|_| Vec::new(), None)
        .unwrap()
        .0;
        let hybrid = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 20,
            engine: EngineKind::Hybrid,
            ..Default::default()
        })
        .analyze_seeds(&adder.netlist, &[], &held, &seeds, 1, &|_| Vec::new(), None)
        .unwrap()
        .0;
        assert_eq!(hybrid.aggregate, queue.aggregate);
        let telemetry = hybrid.kernel.unwrap();
        // A combinational circuit under constant inputs is quiet in every
        // cycle after the first, and every source cone is inert.
        assert_eq!(telemetry.quiet_cycles, 2 * 19);
        assert_eq!(telemetry.quiet_pairs, telemetry.total_pairs);
    }

    #[test]
    fn kernel_engine_matches_a_zero_delay_queue_run() {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let seeds = [21u64, 42, 63];
        let zero_queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 50,
            delay: DelayKind::Zero,
            ..Default::default()
        })
        .analyze_seeds(
            &adder.netlist,
            &buses,
            &held,
            &seeds,
            1,
            &|_| Vec::new(),
            None,
        )
        .unwrap()
        .0;
        // The kernel ignores the configured delay model: semantics are
        // functional, i.e. zero-delay.
        let kernel = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 50,
            delay: DelayKind::Unit,
            engine: EngineKind::Kernel,
            ..Default::default()
        })
        .analyze_seeds(
            &adder.netlist,
            &buses,
            &held,
            &seeds,
            1,
            &|_| Vec::new(),
            None,
        )
        .unwrap()
        .0;
        assert_eq!(kernel.trace(), zero_queue.trace());
        assert_eq!(kernel.power, zero_queue.power);
        assert_eq!(
            kernel.activity.totals().transitions,
            zero_queue.activity.totals().transitions
        );
        let telemetry = kernel.kernel.unwrap();
        assert_eq!(telemetry.engine, EngineKind::Kernel);
        assert!(telemetry.functional_cell_evals > 0);
    }

    #[test]
    fn hybrid_delay_sweep_matches_the_queue_sweep() {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let models = vec![
            ("unit".to_string(), DelayKind::Unit),
            ("zero".to_string(), DelayKind::Zero),
        ];
        let seeds = [5u64, 6, 7];
        let queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 40,
            ..Default::default()
        })
        .sweep_delays_compiled(&adder.netlist, &buses, &held, &models, &seeds, 3, None)
        .unwrap();
        // `kernel` degrades to the hybrid for sweeps: the comparison under
        // test is between delay models, which need the queue.
        for engine in [EngineKind::Hybrid, EngineKind::Kernel] {
            let swept = GlitchAnalyzer::new(AnalysisConfig {
                cycles: 40,
                engine,
                ..Default::default()
            })
            .sweep_delays_compiled(&adder.netlist, &buses, &held, &models, &seeds, 3, None)
            .unwrap();
            assert_eq!(swept.len(), queue.len());
            for (h, q) in swept.iter().zip(&queue) {
                assert_eq!(h.label, q.label);
                assert_eq!(h.analysis.aggregate, q.analysis.aggregate);
                let telemetry = h.analysis.kernel.as_ref().unwrap();
                assert_eq!(telemetry.engine, EngineKind::Hybrid);
                assert_eq!(telemetry.lanes, seeds.len());
            }
        }
    }

    #[test]
    fn explicit_delay_model_overrides_the_configured_kind() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let analyzer = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 50,
            delay: DelayKind::Unit,
            ..Default::default()
        });
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let report = analyzer
            .session(&adder.netlist, &buses, &held)
            .delay_model(glitch_sim::ZeroDelay)
            .run()
            .unwrap();
        let zero = GlitchAnalyzer::analysis(&adder.netlist, report);
        assert_eq!(zero.activity.totals().useless, 0);
    }
}
