//! The single-circuit analysis flow: one simulation session → count →
//! classify → power.

use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;

use glitch_activity::{ActivityReport, ActivityTotals, ActivityTrace};
use glitch_netlist::{Bus, ConeIndex, NetId, Netlist};
use glitch_power::{PowerReport, Technology};
use glitch_sim::{
    run_kernel_jobs, ActivityProbe, AggregateReport, DelayKind, DeltaStimulus, IncrementalStats,
    KernelProgram, ParallelRunner, Probe, SessionReport, SimBaseline, SimError, SimJob, SimSession,
    Spread,
};

/// Which execution backend the analysis entry points drive.
///
/// All three produce their figures through the same probe pipeline; they
/// differ in *how* net values are computed per cycle:
///
/// * [`EngineKind::Queue`] — the event-driven simulator with the
///   configured delay model. The reference engine: models glitches, and
///   settles every job event by event.
/// * [`EngineKind::Kernel`] — the compiled bit-parallel kernel only.
///   Functional (zero-delay) semantics: activity and power equal a
///   [`DelayKind::Zero`] queue run bit for bit, 64 seeds per machine word,
///   no event queue. No glitch modelling, so a delay sweep runs as
///   [`EngineKind::Hybrid`].
/// * [`EngineKind::Hybrid`] — the default. Jobs whose extra probes all
///   [`Probe::settles_timed`] (none, or X-propagation and hazard
///   checkers) settle on the timed kernel
///   ([`ParallelRunner::run_jobs`]) whenever their delays are all ≥ 1 (or
///   all 0) on non-constant cells and their static horizon fits the
///   settle budget ([`SimJob::timed_schedule`]); every other job settles
///   event by event. Reports are bit-identical to [`EngineKind::Queue`]
///   at any worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Event-driven simulation with the configured delay model.
    Queue,
    /// Compiled bit-parallel kernel, functional (zero-delay) semantics.
    Kernel,
    /// Timed-kernel settle of qualifying batch jobs, event-driven settle
    /// of the rest.
    #[default]
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

/// Work accounting of an [`EngineKind::Kernel`] run, attached to
/// [`AggregateAnalysis::kernel`]. Telemetry only: never part of the
/// determinism-checked figures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelTelemetry {
    /// Lanes (seeds) the kernel batch packed.
    pub lanes: usize,
    /// Total `(seed, cycle)` pairs the kernel evaluated.
    pub total_cycles: u64,
    /// Functional (zero-delay) switching transitions.
    pub functional_transitions: u64,
    /// Kernel op evaluations performed (`ops × lanes × cycles`).
    pub functional_cell_evals: u64,
    /// Straight-line ops in the compiled program.
    pub program_ops: usize,
    /// In-memory size of the compiled program, in bytes.
    pub program_bytes: usize,
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
    /// Execution backend of [`GlitchAnalyzer::analyze`],
    /// [`GlitchAnalyzer::analyze_seeds`],
    /// [`GlitchAnalyzer::sweep_delays_compiled`] and the check flow riding
    /// them.
    pub engine: EngineKind,
    /// Simulator options (settle budget, flipflop reset policy, X
    /// evaluation mode). The defaults are the analysis defaults; the
    /// verification flow (`glitch-cli check --x-init`) swaps in
    /// [`glitch_sim::SimOptions::x_init`] to simulate uninitialised-state
    /// reachability.
    pub options: glitch_sim::SimOptions,
    /// Input bits overridden on top of the random stimulus, applied to
    /// every seed's job ([`SimJob::with_flips`]). Empty for the configured
    /// run; an input-flip study runs the same configuration again with
    /// its flips here, so the flipped run settles like any other.
    pub flips: DeltaStimulus,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            cycles: 1000,
            seed: 0xDA7E_1995,
            frequency: 5e6,
            technology: Technology::cmos_0p8um_5v(),
            delay: DelayKind::Unit,
            engine: EngineKind::default(),
            options: glitch_sim::SimOptions::default(),
            flips: DeltaStimulus::new(),
        }
    }
}

/// Result of one [`GlitchAnalyzer::analyze`] run.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Combinational-logic transition totals with the useful/useless
    /// classification (over [`ActivityReport::logic_nodes`]; render the
    /// per-node report with [`ActivityReport::new`] over
    /// [`Analysis::trace`]).
    pub activity: ActivityTotals,
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
        self.activity.balance_reduction_factor()
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
    /// The seeds that were simulated, in shard order.
    pub seeds: Vec<u64>,
    /// The underlying shard aggregate (per-seed summaries + spreads, the
    /// merged trace, its totals and its power report).
    pub aggregate: AggregateReport,
    /// Kernel-side work accounting of an [`EngineKind::Kernel`] run;
    /// `None` for every other engine. Telemetry only — the analysis
    /// figures above are engine-invariant for `Hybrid` vs `Queue`.
    pub kernel: Option<KernelTelemetry>,
}

impl AggregateAnalysis {
    /// Distils a reduced shard aggregate into the analysis form.
    fn from_aggregate(seeds: &[u64], aggregate: AggregateReport) -> Self {
        AggregateAnalysis {
            seeds: seeds.to_vec(),
            aggregate,
            kernel: None,
        }
    }

    /// Combinational-logic transition totals over the **combined**
    /// activity of every seed, with the useful/useless classification.
    #[must_use]
    pub fn activity(&self) -> ActivityTotals {
        self.aggregate.merged_totals()
    }

    /// Power estimate over the combined activity of every seed.
    #[must_use]
    pub fn power(&self) -> &PowerReport {
        self.aggregate.merged_power()
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

/// Result of one flipped re-analysis
/// ([`GlitchAnalyzer::analyze_delta_with_index`]).
#[derive(Debug, Clone)]
pub struct DeltaAnalysis {
    /// Activity, power and trace of the flipped run.
    pub analysis: Analysis,
    /// The flipped run's cycles, all simulated.
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
/// The analyzer is a thin configuration layer over the simulator: every
/// analysis, one seed or many, settles through the configured engine in
/// [`GlitchAnalyzer::analyze_seeds`], and the priced activity probe's
/// trace is distilled into an [`Analysis`]. Callers that need more
/// observables (a waveform, a transition CSV) add probes to the
/// event-driven session of [`GlitchAnalyzer::session`] and still pay for
/// one pass.
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
/// assert!(analysis.activity.transitions > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct GlitchAnalyzer {
    config: AnalysisConfig,
    statistics: bool,
}

impl Default for GlitchAnalyzer {
    fn default() -> Self {
        GlitchAnalyzer::new(AnalysisConfig::default())
    }
}

impl GlitchAnalyzer {
    /// Creates an analyzer with the given configuration.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        GlitchAnalyzer {
            config,
            statistics: true,
        }
    }

    /// Says whether the runs of [`GlitchAnalyzer::analyze_seeds`],
    /// [`GlitchAnalyzer::check_seeds`] and
    /// [`GlitchAnalyzer::sweep_delays_compiled`] count their per-cycle
    /// statistics and queue traffic ([`SimJob::statistics`]; builder
    /// style). On by default. A caller that never reads them turns them
    /// off to spare the timed kernel the accounting; the shard summaries
    /// of such runs then panic when asked for events, cell evaluations,
    /// settle times or queue traffic. [`GlitchAnalyzer::analyze`], whose
    /// [`Analysis`] holds none of them, never counts them.
    #[must_use]
    pub fn with_statistics(mut self, statistics: bool) -> Self {
        self.statistics = statistics;
        self
    }

    /// The analyzer's configuration.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// Builds the configured one-pass session: the seeded random stimulus,
    /// the configured delay model, and an activity probe priced at the
    /// configured operating point ([`ActivityProbe::priced`]). Attach
    /// further probes before calling [`SimSession::run`].
    #[must_use]
    pub fn session<'a>(
        &self,
        netlist: &'a Netlist,
        random_buses: &[Bus],
        held: &[(NetId, bool)],
    ) -> SimSession<'a> {
        let job = self.job(netlist, random_buses, held, self.config.seed);
        SimSession::new(netlist)
            .delay(self.config.delay.clone())
            .options(self.config.options)
            .stimulus(job.stimulus())
            .probe(ActivityProbe::priced(
                self.config.technology,
                self.config.frequency,
            ))
    }

    /// Distils a finished session report (as built by
    /// [`GlitchAnalyzer::session`]) into an [`Analysis`].
    ///
    /// # Panics
    ///
    /// Panics if the report is missing the analyzer's priced activity
    /// probe (i.e. it did not come from [`GlitchAnalyzer::session`]).
    #[must_use]
    pub fn analysis(netlist: &Netlist, mut report: SessionReport) -> Analysis {
        let probe = report
            .take_probe::<ActivityProbe>()
            .expect("analysis sessions carry an ActivityProbe");
        let power = probe
            .power(netlist)
            .expect("analysis sessions price their activity");
        let trace = probe.into_trace();
        Analysis {
            activity: trace.totals_for(ActivityReport::logic_nodes(netlist)),
            power,
            trace,
            cycles: report.cycles(),
        }
    }

    /// Simulates `netlist` once for the configured number of cycles,
    /// driving `random_buses` with uniform random values each cycle and
    /// holding the `held` single-bit inputs constant.
    ///
    /// This is [`GlitchAnalyzer::analyze_seeds`] over the configured seed
    /// on one worker, with no extra probe and the program compiled on
    /// demand, so the configured engine settles it.
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
        let (seed, _) = self.clone().with_statistics(false).analyze_seeds(
            netlist,
            random_buses,
            held,
            &[self.config.seed],
            1,
            &|_| Vec::new(),
            None,
        )?;
        Ok(Analysis {
            activity: seed.activity(),
            power: seed.power().clone(),
            cycles: seed.total_cycles(),
            trace: seed.aggregate.into_merged_trace(),
        })
    }

    /// [`GlitchAnalyzer::analyze`] plus the run's [`SimBaseline`]: its
    /// stimulus, the anchor [`GlitchAnalyzer::analyze_delta_with_index`]
    /// flips.
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
        let baseline = SimBaseline::of(&self.job(netlist, random_buses, held, self.config.seed));
        Ok((self.analyze(netlist, random_buses, held)?, baseline))
    }

    /// Analyses the baseline's run again with `delta`'s input bits
    /// overridden: the configuration with [`AnalysisConfig::flips`] set,
    /// one more full run that settles like any other.
    ///
    /// `index` is ignored. A flipped run simulates every cycle, so there
    /// is no fanout cone to bound; the parameter stays for existing
    /// callers.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOutOfRange`] for overrides beyond the run,
    /// or any simulation failure (such as [`SimError::NotAnInput`] for an
    /// override of a non-input net).
    pub fn analyze_delta_with_index(
        &self,
        netlist: &Netlist,
        baseline: &SimBaseline,
        delta: &DeltaStimulus,
        _index: Option<&ConeIndex>,
    ) -> Result<DeltaAnalysis, SimError> {
        let flipped = GlitchAnalyzer::new(AnalysisConfig {
            cycles: baseline.cycle_count(),
            seed: baseline.seed(),
            flips: delta.clone(),
            ..self.config.clone()
        });
        let analysis = flipped.analyze(netlist, baseline.random_buses(), baseline.held())?;
        Ok(DeltaAnalysis {
            incremental: IncrementalStats {
                replayed_cycles: 0,
                simulated_cycles: analysis.cycles,
            },
            analysis,
        })
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
            .with_flips(self.config.flips.clone())
    }

    /// Simulates the netlist once per seed — fanned across `jobs` worker
    /// threads — and reduces the per-seed results into an
    /// [`AggregateAnalysis`] with per-seed spread. Each seed runs the
    /// configured number of cycles, so the aggregate covers
    /// `seeds.len() * config.cycles` cycles in total.
    ///
    /// The reduction is deterministic (seeded shards, folded in seed
    /// order): any worker count produces the same aggregate bit for bit as
    /// `jobs = 1`. [`GlitchAnalyzer::analyze`] is the one-seed form, so the
    /// engine dispatch below is the only one an analysis goes through.
    ///
    /// `extra_probes(seed_index)` builds further probes for each seed's
    /// session. The returned [`SessionReport`]s (one per seed, in seed
    /// order) have had the standard activity probe consumed
    /// but still carry the extra probes, ready for the caller to take and
    /// fold (e.g. with [`glitch_sim::MergeableProbe`]).
    ///
    /// `program` is an optional precompiled [`KernelProgram`] to reuse.
    /// Long-lived callers (the serving layer's content-addressed program
    /// cache) amortise the one-time compile this way; a program is
    /// deterministic for a netlist, so the figures are identical either
    /// way. Under [`EngineKind::Hybrid`] the program drives the timed
    /// kernel that settles every seed whose delays qualify and whose extra
    /// probes all [`Probe::settles_timed`] ([`ParallelRunner::run_jobs`]);
    /// the other seeds settle event by event. Under [`EngineKind::Kernel`]
    /// the program runs every seed. It is compiled on demand when absent.
    /// Under [`EngineKind::Queue`] every seed settles event by event.
    /// Every seed counts its per-cycle statistics unless the analyzer was
    /// made [`GlitchAnalyzer::with_statistics`]`(false)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DeltaOutOfRange`] if [`AnalysisConfig::flips`]
    /// targets a cycle beyond the run, the first failing seed's
    /// [`SimError`] (in seed order), or [`SimError::InvalidNetlist`] if
    /// kernel compilation fails.
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
        let job_list: Vec<SimJob<'_>> = seeds
            .iter()
            .map(|&seed| {
                self.job(netlist, random_buses, held, seed)
                    .with_statistics(self.statistics)
            })
            .collect();
        let reports = match self.config.engine {
            EngineKind::Kernel => {
                let program = program_or_compile(netlist, program)?;
                let mut reports = run_kernel_jobs(netlist, &program, &job_list, extra_probes)?;
                let aggregate = AggregateReport::reduce(netlist, &job_list, &mut reports);
                let mut analysis = AggregateAnalysis::from_aggregate(seeds, aggregate);
                let total_cycles = job_list.len() as u64 * self.config.cycles;
                analysis.kernel = Some(KernelTelemetry {
                    lanes: job_list.len(),
                    total_cycles,
                    functional_transitions: analysis.activity().transitions,
                    functional_cell_evals: program.op_count() as u64 * total_cycles,
                    program_ops: program.op_count(),
                    program_bytes: program.byte_size(),
                });
                return Ok((analysis, reports));
            }
            EngineKind::Hybrid => run_routed(netlist, &job_list, jobs, program, extra_probes)?,
            EngineKind::Queue => {
                ParallelRunner::new(jobs).run_sessions_with(&job_list, extra_probes)?
            }
        };
        Ok(reduce_seeds(netlist, seeds, &job_list, reports))
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
    /// [`GlitchAnalyzer::analyze_seeds`]). Under [`EngineKind::Hybrid`]
    /// every combination whose delays qualify settles on the timed kernel,
    /// with the event-driven session's figures; under
    /// [`EngineKind::Queue`] every combination settles event by event. A
    /// sweep exists to compare delay models, which the delay-less kernel
    /// cannot evaluate, so [`EngineKind::Kernel`] runs as the hybrid here.
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
        let job_list: Vec<SimJob<'_>> = labels_and_delays
            .iter()
            .flat_map(|(label, delay)| {
                seeds.iter().map(move |&seed| {
                    self.job(netlist, random_buses, held, seed)
                        .with_delay(delay.clone())
                        .with_label(label.clone())
                        .with_statistics(self.statistics)
                })
            })
            .collect();
        let reports = if self.config.engine == EngineKind::Queue {
            ParallelRunner::new(jobs).run_sessions(&job_list)?
        } else {
            run_routed(netlist, &job_list, jobs, program, &|_| Vec::new())?
        };
        // Chunk the flat batch back into one aggregate per delay model.
        let mut points = Vec::with_capacity(labels_and_delays.len());
        let mut reports = reports.into_iter();
        for (chunk, (label, delay)) in job_list.chunks(seeds.len()).zip(labels_and_delays) {
            let mut chunk_reports: Vec<_> = reports.by_ref().take(seeds.len()).collect();
            let aggregate = AggregateReport::reduce(netlist, chunk, &mut chunk_reports);
            points.push(DelaySweepPoint {
                label: label.clone(),
                delay: delay.clone(),
                analysis: AggregateAnalysis::from_aggregate(seeds, aggregate),
            });
        }
        Ok(points)
    }
}

/// Runs a hybrid-engine batch through [`ParallelRunner::run_jobs`], which
/// settles every qualifying job on the timed kernel. A netlist that does
/// not compile fails the validation its sessions would fail, with the
/// same error.
fn run_routed(
    netlist: &Netlist,
    jobs: &[SimJob<'_>],
    workers: usize,
    program: Option<&KernelProgram>,
    extra_probes: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
) -> Result<Vec<SessionReport>, SimError> {
    let program = program_or_compile(netlist, program)?;
    ParallelRunner::new(workers).run_jobs(jobs, &program, extra_probes)
}

/// The supplied program, or one compiled from `netlist` when none is.
fn program_or_compile<'p>(
    netlist: &Netlist,
    program: Option<&'p KernelProgram>,
) -> Result<Cow<'p, KernelProgram>, SimError> {
    Ok(match program {
        Some(program) => Cow::Borrowed(program),
        None => Cow::Owned(KernelProgram::compile(netlist)?),
    })
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
    (AggregateAnalysis::from_aggregate(seeds, aggregate), reports)
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
        let totals = analysis.activity;
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
        assert_eq!(analysis.activity.useless, 0);
        assert!(analysis.activity.useful > 0);
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
        assert!(realistic.activity.useless > unit.activity.useless);
        // The useful work is unchanged by the delay model.
        assert_eq!(realistic.activity.useful, unit.activity.useful);
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
        assert!(analysis.activity.transitions > 0);
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
        assert_eq!(parallel.power(), serial.power());
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
            expected_useless += single.activity.useless;
        }
        assert_eq!(parallel.activity().useless, expected_useless);
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
        assert_eq!(points[1].analysis.activity().useless, 0);
        assert!(points[0].analysis.activity().useless > 0);
        assert_eq!(
            points[0].analysis.activity().useful,
            points[1].analysis.activity().useful
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
        assert_eq!(baseline.held(), held);

        let replay = analyzer
            .analyze_delta_with_index(&adder.netlist, &baseline, &DeltaStimulus::new(), None)
            .unwrap();
        assert_eq!(replay.incremental.replayed_cycles, 0);
        assert_eq!(replay.incremental.simulated_cycles, 120);
        assert_eq!(replay.analysis.trace, analysis.trace);
        assert_eq!(replay.analysis.power, analysis.power);
    }

    #[test]
    fn delta_analysis_matches_a_full_rerun() {
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
        let merged: Vec<glitch_sim::InputAssignment> = analyzer
            .job(&adder.netlist, &buses, &held, baseline.seed())
            .stimulus()
            .zip(0..)
            .map(|(assignment, cycle)| delta.apply_to(cycle, &assignment))
            .collect();
        let full_report = SimSession::new(&adder.netlist)
            .delay(analyzer.config().delay.clone())
            .stimulus(merged)
            .probe(ActivityProbe::priced(
                analyzer.config().technology,
                analyzer.config().frequency,
            ))
            .run()
            .unwrap();
        let full = GlitchAnalyzer::analysis(&adder.netlist, full_report);

        let flipped = analyzer
            .analyze_delta_with_index(&adder.netlist, &baseline, &delta, None)
            .unwrap();
        assert_eq!(flipped.analysis.trace, full.trace);
        assert_eq!(flipped.analysis.power, full.power);

        // The cone index changes nothing.
        let index = ConeIndex::build(&adder.netlist).unwrap();
        let indexed = analyzer
            .analyze_delta_with_index(&adder.netlist, &baseline, &delta, Some(&index))
            .unwrap();
        assert_eq!(indexed.analysis.trace, flipped.analysis.trace);
        assert_eq!(indexed.analysis.power, flipped.analysis.power);
        assert_eq!(indexed.incremental, flipped.incremental);

        // A flip beyond the run is refused rather than silently dropped.
        let late = DeltaStimulus::new().set(100, flip_net, true);
        assert_eq!(
            analyzer
                .analyze_delta_with_index(&adder.netlist, &baseline, &late, None)
                .unwrap_err(),
            SimError::DeltaOutOfRange {
                cycle: 100,
                baseline_cycles: 100
            }
        );
    }

    #[test]
    fn engine_kind_parses_round_trip() {
        for kind in [EngineKind::Queue, EngineKind::Kernel, EngineKind::Hybrid] {
            assert_eq!(kind.as_str().parse::<EngineKind>(), Ok(kind));
            assert_eq!(kind.to_string(), kind.as_str());
        }
        assert!("express".parse::<EngineKind>().is_err());
        assert_eq!(EngineKind::default(), EngineKind::Hybrid);
    }

    #[test]
    fn hybrid_engine_is_bit_identical_to_the_queue_engine() {
        let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let seeds = [3u64, 5, 8, 13];
        let queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 60,
            engine: EngineKind::Queue,
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
        assert_eq!(hybrid.power(), queue.power());
        assert!(queue.kernel.is_none());
        assert!(hybrid.kernel.is_none());
        // The single-seed entry point rides the same dispatch.
        let analyze = |engine| {
            GlitchAnalyzer::new(AnalysisConfig {
                cycles: 60,
                seed: seeds[0],
                engine,
                ..Default::default()
            })
            .analyze(&adder.netlist, &buses, &held)
            .unwrap()
        };
        let (queue, hybrid) = (analyze(EngineKind::Queue), analyze(EngineKind::Hybrid));
        assert_eq!(hybrid.activity, queue.activity);
        assert_eq!(hybrid.power, queue.power);
        assert_eq!(hybrid.trace, queue.trace);
        assert_eq!(hybrid.cycles, queue.cycles);
    }

    #[test]
    fn hybrid_engine_matches_the_queue_under_held_inputs() {
        let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
        let mut held = vec![(adder.cin, false)];
        for bit in 0..4 {
            held.push((adder.a.bit(bit), bit % 2 == 0));
            held.push((adder.b.bit(bit), bit % 3 == 0));
        }
        let seeds = [1u64, 2];
        let queue = GlitchAnalyzer::new(AnalysisConfig {
            cycles: 20,
            engine: EngineKind::Queue,
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
            engine: EngineKind::Queue,
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
        assert_eq!(kernel.power(), zero_queue.power());
        assert_eq!(
            kernel.activity().transitions,
            zero_queue.activity().transitions
        );
        let telemetry = kernel.kernel.unwrap();
        assert_eq!(telemetry.lanes, seeds.len());
        assert_eq!(telemetry.total_cycles, 3 * 50);
        assert!(telemetry.functional_cell_evals > 0);
        assert!(telemetry.program_ops > 0);
        assert!(telemetry.program_bytes > 0);
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
            engine: EngineKind::Queue,
            ..Default::default()
        })
        .sweep_delays_compiled(&adder.netlist, &buses, &held, &models, &seeds, 3, None)
        .unwrap();
        // `kernel` degrades to the hybrid for sweeps: the comparison under
        // test is between delay models, which the functional kernel lacks.
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
            }
        }
    }

    #[test]
    fn a_sweep_without_statistics_keeps_every_figure_and_refuses_the_counts() {
        let adder = RippleCarryAdder::new(6, AdderStyle::CompoundCell);
        let buses = [adder.a.clone(), adder.b.clone()];
        let held = [(adder.cin, false)];
        let models = vec![
            ("unit".to_string(), DelayKind::Unit),
            ("zero".to_string(), DelayKind::Zero),
            ("adder".to_string(), DelayKind::RealisticAdderCells),
        ];
        let seeds = [5u64, 6];
        let config = AnalysisConfig {
            cycles: 70,
            ..Default::default()
        };
        let sweep = |statistics: bool| {
            GlitchAnalyzer::new(config.clone())
                .with_statistics(statistics)
                .sweep_delays_compiled(&adder.netlist, &buses, &held, &models, &seeds, 2, None)
                .unwrap()
        };
        let (counted, quiet) = (sweep(true), sweep(false));
        for (c, q) in counted.iter().zip(&quiet) {
            assert_eq!(c.analysis.trace(), q.analysis.trace(), "{}", c.label);
            assert_eq!(c.analysis.power(), q.analysis.power(), "{}", c.label);
            assert_eq!(c.analysis.total_cycles(), q.analysis.total_cycles());
            assert_eq!(c.analysis.glitch_spread(), q.analysis.glitch_spread());
            assert_eq!(c.analysis.power_spread(), q.analysis.power_spread());
            assert!(q
                .analysis
                .aggregate
                .shards()
                .iter()
                .all(|s| s.timed.is_some()));
        }
        let read = std::panic::catch_unwind(|| quiet[0].analysis.aggregate.total_events());
        let message = read.expect_err("a quiet shard refuses its events");
        let message = message
            .downcast_ref::<String>()
            .expect("a formatted panic message");
        assert!(
            message.contains("without per-cycle statistics"),
            "{message}"
        );
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
        assert_eq!(zero.activity.useless, 0);
    }
}
