//! The one job executor behind both front ends.
//!
//! [`exec`] runs one analysis job — `analyze`, `flip`, `check`, `sweep`
//! or `reduce` — from a [`JobRequest`] and a parsed netlist to a
//! [`JobOutput`]. The daemon calls it after its cache lookup and
//! fingerprint check; the one-shot CLI calls it after mapping its flags
//! onto the same [`JobRequest`]. [`JobOutput::json`] renders the report
//! line for both, so a daemon response equals the matching one-shot
//! `--json` output because both are the same call.
//!
//! The two front ends differ only in what they hand in:
//!
//! - [`Resources`]: where the compiled kernel program, the cone index and
//!   the flip baseline come from — the daemon's warm cache, or built
//!   fresh on demand by the CLI.
//! - [`Sink`]: where the deterministic counters (and the CLI's wall-clock
//!   phase spans) go. [`Sink::off`] is the bare path: no metrics probe,
//!   no kernel classification, no registry work.
//! - [`Hooks`]: the CLI-only extras (artefact probes, a budgets file) and
//!   the reduce progress observer.

use std::sync::Arc;

use glitch_core::netlist::{Bus, ConeIndex, Netlist};
use glitch_core::sim::{
    kernel_prepass, run_kernel_jobs, MergeableProbe, MetricsProbe, Probe, SessionReport,
    SimOptions, TimedWork, WindowedActivityProbe,
};
use glitch_core::verify::VerifyReport;
use glitch_core::{
    AggregateAnalysis, AggregateReport, Analysis, AnalysisConfig, CheckAnalysis, DelaySweepPoint,
    DeltaAnalysis, DeltaCheck, DeltaStimulus, EngineKind, GlitchAnalyzer, IncrementalStats,
    KernelProgram, KernelTelemetry, ShardSummary, SimBaseline,
};
use glitch_obs::{MetricsRegistry, Span, SpanLog};
use glitch_reduce::{ProgressEvent, ProgressSink, ReduceOptions, ReduceReport, Reducer};

use crate::cache::BaselineEntry;
use crate::params::{self, AppliedFlip, ParamError};
use crate::protocol::{JobKind, JobRequest};
use crate::report;

/// A probe factory: the probes to attach to the session of seed (or
/// lane) `index`.
pub type ProbeFactory = dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync;

/// Where a job's reusable inputs come from. The executor asks for each
/// only when the job needs it.
pub trait Resources {
    /// The circuit's compiled kernel program (non-queue engines).
    ///
    /// # Errors
    ///
    /// Returns a one-line message when the netlist does not compile.
    fn program(&self) -> Result<Arc<KernelProgram>, String>;

    /// The circuit's fanout/level cone index (incremental replays).
    ///
    /// # Errors
    ///
    /// Returns a one-line message for cyclic netlists.
    fn cone_index(&self) -> Result<Arc<ConeIndex>, String>;

    /// The recorded `flip` baseline of `analyzer`'s configured run, with
    /// its before-figures. [`record_baseline`] records one and
    /// [`replay_baseline`] recovers the figures of a stored one;
    /// [`params::baseline_mismatch`] decides whether a stored one fits.
    ///
    /// # Errors
    ///
    /// Returns a one-line message when recording, loading or validating
    /// fails.
    fn baseline(&self, analyzer: &GlitchAnalyzer) -> Result<Arc<BaselineEntry>, String>;
}

/// Records the configured run of `netlist` as a replayable baseline.
///
/// # Errors
///
/// Returns `simulation failed: …` when the run fails.
pub fn record_baseline(
    analyzer: &GlitchAnalyzer,
    netlist: &Netlist,
) -> Result<(Analysis, SimBaseline), String> {
    analyzer
        .analyze_baseline(netlist, &params::input_buses(netlist), &[])
        .map_err(|e| format!("simulation failed: {e}"))
}

/// Recovers a stored baseline's before-figures by an empty-delta replay —
/// O(transitions), zero cell evaluations, bit-identical to the recording.
///
/// # Errors
///
/// Returns `baseline replay failed: …` when the replay fails.
pub fn replay_baseline(
    analyzer: &GlitchAnalyzer,
    netlist: &Netlist,
    baseline: &SimBaseline,
) -> Result<Analysis, String> {
    analyzer
        .analyze_delta(netlist, baseline, &DeltaStimulus::new())
        .map(|delta| delta.analysis)
        .map_err(|e| format!("baseline replay failed: {e}"))
}

/// Where one job's telemetry goes: deterministic counters into a
/// [`MetricsRegistry`] (folded in job order, so the result is identical at
/// any worker count) and, optionally, wall-clock phase spans into a
/// [`SpanLog`]. A sink that is [`Sink::off`] records nothing and makes the
/// executor skip every piece of telemetry-only work.
pub struct Sink<'a> {
    registry: Option<&'a mut MetricsRegistry>,
    spans: Option<&'a SpanLog>,
}

impl<'a> Sink<'a> {
    /// The bare path: no telemetry at all.
    #[must_use]
    pub fn off() -> Sink<'a> {
        Sink {
            registry: None,
            spans: None,
        }
    }

    /// Records counters into `registry` and, when given, phase spans into
    /// `spans`.
    #[must_use]
    pub fn new(registry: &'a mut MetricsRegistry, spans: Option<&'a SpanLog>) -> Sink<'a> {
        Sink {
            registry: Some(registry),
            spans,
        }
    }

    /// `true` unless this is [`Sink::off`].
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    fn now(&self) -> u64 {
        self.spans.map_or(0, |spans| spans.clock().now_micros())
    }

    fn span(&self, name: &str) -> Option<Span<'_>> {
        self.spans.map(|spans| spans.span(name))
    }

    fn span_since(&self, name: &str, start: u64) {
        if let Some(spans) = self.spans {
            let dur = self.now().saturating_sub(start);
            spans.record(name.to_string(), 0, start, dur);
        }
    }

    /// One trace bar per shard of a reduced batch, each on its own track:
    /// it starts at `batch_start` plus the shard's queue wait and spans
    /// its session wall time. Shards settled on the timed kernel are
    /// marked `(timed)`.
    fn shards(&self, batch_start: u64, shards: &[ShardSummary]) {
        let Some(spans) = self.spans else { return };
        for (index, shard) in shards.iter().enumerate() {
            let mut name = if shard.label.is_empty() {
                format!("shard seed={}", shard.seed)
            } else {
                format!("shard {} seed={}", shard.label, shard.seed)
            };
            if shard.timed.is_some() {
                name.push_str(" (timed)");
            }
            spans.record(
                name,
                index as u64 + 1,
                batch_start + shard.queue_wait_micros,
                shard.wall_micros,
            );
        }
    }

    fn add(&mut self, name: &str, n: u64) {
        if let Some(registry) = self.registry.as_deref_mut() {
            let handle = registry.counter(name);
            registry.add(handle, n);
        }
    }

    fn gauge_max(&mut self, name: &str, value: u64) {
        if let Some(registry) = self.registry.as_deref_mut() {
            let handle = registry.gauge(name);
            registry.observe_max(handle, value);
        }
    }

    /// Folds a finished session's [`MetricsProbe`] (if any) into the
    /// registry, with the session's event-queue traffic attributed to it.
    fn absorb(&mut self, report: &mut SessionReport) {
        if let Some(mut probe) = report.take_probe::<MetricsProbe>() {
            probe.record_queue_stats(report.queue_stats());
            if let Some(registry) = self.registry.as_deref_mut() {
                registry.merge(probe.into_registry());
            }
        }
    }

    /// `sim.*` and `queue.*` of a reduced batch, for the paths that cannot
    /// attach per-session probes (`check`, `sweep`).
    fn aggregate(&mut self, aggregate: &AggregateReport) {
        self.add("sim.cycles", aggregate.total_cycles());
        self.add("sim.events", aggregate.total_events());
        self.add("sim.cell_evals", aggregate.total_cell_evals());
        self.gauge_max("sim.max_settle_time", aggregate.max_settle_time());
        let queue = aggregate.queue_stats();
        self.add("queue.pushes", queue.pushes);
        self.add("queue.pops", queue.pops);
        self.gauge_max("queue.peak_depth", queue.peak_depth);
    }

    /// `timed.*`: the shards of a batch that settled on the timed kernel,
    /// their lanes (cycles), deepest horizon and word-wide op evaluations.
    /// Nothing is recorded for a batch without timed shards.
    fn timed(&mut self, shards: &[ShardSummary]) {
        let work: Vec<TimedWork> = shards.iter().filter_map(|shard| shard.timed).collect();
        if work.is_empty() {
            return;
        }
        self.add("timed.shards", work.len() as u64);
        self.add("timed.lanes", work.iter().map(|w| w.lanes).sum());
        self.gauge_max(
            "timed.horizon",
            work.iter().map(|w| w.horizon).max().unwrap_or(0),
        );
        self.add("timed.op_evals", work.iter().map(|w| w.op_evals).sum());
    }

    /// `kernel.*`: the lane/cycle/pair classification and functional work
    /// of a compiled-kernel or hybrid run.
    fn kernel(&mut self, kernel: &KernelTelemetry) {
        self.add("kernel.lanes", kernel.lanes as u64);
        self.add("kernel.cycles_total", kernel.total_cycles);
        self.add("kernel.cycles_quiet", kernel.quiet_cycles);
        self.add("kernel.pairs_total", kernel.total_pairs);
        self.add("kernel.pairs_quiet", kernel.quiet_pairs);
        self.add(
            "kernel.functional_transitions",
            kernel.functional_transitions,
        );
        self.add("kernel.functional_cell_evals", kernel.functional_cell_evals);
        self.gauge_max("kernel.program_ops", kernel.program_ops as u64);
        self.gauge_max("kernel.program_bytes", kernel.program_bytes as u64);
    }

    /// `incremental.*`: the work accounting of one dirty-region replay.
    pub fn incremental(&mut self, stats: &IncrementalStats) {
        self.add("incremental.replayed_cycles", stats.replayed_cycles);
        self.add("incremental.simulated_cycles", stats.simulated_cycles);
        self.add("incremental.cells_evaluated", stats.cells_evaluated);
        self.add(
            "incremental.dff_divergence_reseeds",
            stats.dff_divergence_reseeds,
        );
        self.gauge_max(
            "incremental.peak_dirty_cone_nets",
            stats.peak_dirty_cone_nets,
        );
    }

    /// `check.*` violation counters, plus one `checker:NAME` span per
    /// checker from its accumulated wall time.
    fn check(&mut self, report: &VerifyReport, checker_micros: &[(String, u64)]) {
        if !self.enabled() {
            return;
        }
        self.add("check.violations_total", report.total_violations());
        self.add("check.violations_retained", report.retained_violations());
        self.add("check.violations_dropped", report.dropped_violations());
        for outcome in report.outcomes() {
            self.add(
                &format!("check.{}.violations", outcome.checker),
                outcome.total_violations,
            );
        }
        if let Some(spans) = self.spans {
            let mut cursor = self.now();
            for (name, micros) in checker_micros {
                spans.record(format!("checker:{name}"), 0, cursor, *micros);
                cursor += micros;
            }
        }
    }
}

/// The front-end extras a job may carry beyond its [`JobRequest`].
#[derive(Default)]
pub struct Hooks<'a> {
    /// Extra probes for every `analyze` session. A
    /// [`WindowedActivityProbe`] among them lands in the report's
    /// `windows`.
    pub probes: Option<&'a ProbeFactory>,
    /// Sees the finished single-seed `analyze` session before it is
    /// distilled, to take its extra probes.
    pub finished: Option<&'a mut dyn FnMut(&mut SessionReport)>,
    /// Renders each `reduce` iteration as a progress line.
    pub progress: Option<ProgressLines<'a>>,
    /// A settle-time budgets file for `check`: display name and contents.
    pub budgets_file: Option<(&'a str, &'a str)>,
}

/// A [`ProgressSink`] that renders each iteration as one progress line —
/// tagged with the request `id` when the daemon streams it — and hands it
/// to `emit`.
pub struct ProgressLines<'a> {
    /// The netlist file named in every line.
    pub file: &'a str,
    /// The daemon's request id; `None` for the one-shot CLI.
    pub id: Option<u64>,
    /// Where each rendered line goes.
    pub emit: &'a dyn Fn(String),
}

impl ProgressSink for ProgressLines<'_> {
    fn iteration(&mut self, event: &ProgressEvent<'_>) {
        (self.emit)(report::reduce_progress_json(self.file, event, self.id));
    }
}

/// The result of one job, ready for [`JobOutput::json`] or a front end's
/// own text rendering.
pub enum JobOutput {
    /// Single-seed `analyze`.
    Analyze {
        /// Activity, power and trace of the run.
        analysis: Analysis,
        /// Simulation passes.
        passes: u64,
        /// Events processed.
        events: u64,
        /// Worst settle time.
        max_settle: u64,
        /// Cell evaluations.
        cell_evals: u64,
        /// The windowed heatmap, when a windowed probe was attached.
        windowed: Option<WindowedActivityProbe>,
    },
    /// Multi-seed `analyze`.
    Aggregate {
        /// Seeds simulated.
        seeds: usize,
        /// Worker threads.
        jobs: usize,
        /// Cycles per seed.
        cycles: u64,
        /// The reduced aggregate.
        aggregate: AggregateAnalysis,
        /// The seed-order merge of the per-seed windowed heatmaps.
        windowed: Option<WindowedActivityProbe>,
    },
    /// `flip` (`analyze --flip`).
    Flip {
        /// The flips as applied to the baseline.
        applied: Vec<AppliedFlip>,
        /// The baseline and its before-figures.
        baseline: Arc<BaselineEntry>,
        /// The incremental after-figures.
        after: DeltaAnalysis,
    },
    /// Multi-seed `check`.
    Check {
        /// Seeds simulated.
        seeds: usize,
        /// Worker threads.
        jobs: usize,
        /// Cycles per seed.
        cycles: u64,
        /// Whether flipflops powered on X.
        x_init: bool,
        /// Checkers in the suite.
        checkers: usize,
        /// Verdict plus the analysis of the same runs.
        checked: CheckAnalysis,
    },
    /// `check` with `flips`.
    CheckFlip {
        /// Cycles in the baseline.
        cycles: u64,
        /// Whether flipflops powered on X.
        x_init: bool,
        /// Checkers in the suite.
        checkers: usize,
        /// The flips as applied to the baseline.
        applied: Vec<AppliedFlip>,
        /// The baseline verdict.
        base_report: VerifyReport,
        /// The incremental re-check.
        flipped: DeltaCheck,
    },
    /// Delay-model `sweep`.
    Sweep {
        /// Seeds per delay model.
        seeds: usize,
        /// Worker threads.
        jobs: usize,
        /// Cycles per seed.
        cycles: u64,
        /// One aggregate per delay model.
        points: Vec<DelaySweepPoint>,
    },
    /// `reduce`.
    Reduce {
        /// Seeds per score.
        seeds: usize,
        /// Worker threads.
        jobs: usize,
        /// Cycles per seed.
        cycles: u64,
        /// The reduction report.
        report: ReduceReport,
    },
}

impl JobOutput {
    /// The one-line JSON report, naming the netlist as `file`.
    #[must_use]
    pub fn json(&self, file: &str, netlist: &Netlist) -> String {
        match self {
            JobOutput::Analyze {
                analysis,
                passes,
                events,
                max_settle,
                cell_evals,
                windowed,
            } => report::analyze_json(
                file,
                netlist,
                analysis,
                *passes,
                *events,
                *max_settle,
                *cell_evals,
                windowed.as_ref(),
            ),
            JobOutput::Aggregate {
                seeds,
                jobs,
                cycles,
                aggregate,
                windowed,
            } => report::analyze_aggregate_json(
                file,
                netlist,
                *seeds,
                *jobs,
                *cycles,
                aggregate,
                windowed.as_ref(),
            ),
            JobOutput::Flip {
                applied,
                baseline,
                after,
            } => report::analyze_flip_json(
                file,
                netlist,
                baseline.baseline.cycle_count(),
                applied,
                &after.incremental,
                &baseline.before,
                &after.analysis,
            ),
            JobOutput::Check {
                seeds,
                jobs,
                cycles,
                x_init,
                checked,
                ..
            } => report::check_json(file, netlist, *cycles, *seeds, *jobs, *x_init, checked),
            JobOutput::CheckFlip {
                cycles,
                x_init,
                applied,
                base_report,
                flipped,
                ..
            } => report::check_flip_json(
                file,
                netlist,
                *cycles,
                *x_init,
                applied,
                base_report,
                flipped,
            ),
            JobOutput::Sweep {
                seeds,
                jobs,
                cycles,
                points,
            } => report::sweep_json(file, netlist, *seeds, *jobs, *cycles, points),
            JobOutput::Reduce {
                seeds,
                jobs,
                cycles,
                report,
            } => report::reduce_json(file, report, *seeds, *jobs, *cycles),
        }
    }
}

fn run(message: String) -> ParamError {
    ParamError::Run(message)
}

fn usage(message: &str) -> ParamError {
    ParamError::Usage(message.to_string())
}

const KERNEL_DELAY: &str = "the kernel engine simulates zero delay only; \
     drop --delay (or pass --delay zero), or use --engine queue";
const KERNEL_TIMING_CHECK: &str = "--budget and --hazards check settle timing, which the \
     zero-delay kernel engine cannot see (they would pass vacuously); use --engine queue or hybrid";
const SINGLE_SEED_FLIP: &str = "--flip applies to single-seed runs; drop --seeds or --flip";
const QUEUE_ONLY_FLIP: &str = "--flip rides the incremental queue replay; drop --engine or --flip";

/// Runs one job against `netlist`. Parameters resolve exactly as the
/// CLI's flags do (same defaults, same messages); the engine defaults to
/// `queue`.
///
/// # Errors
///
/// [`ParamError::Usage`] for malformed or contradictory parameters,
/// [`ParamError::Run`] for parameters that do not fit the circuit and for
/// simulation, replay and reduction failures.
pub fn exec(
    kind: JobKind,
    job: &JobRequest,
    netlist: &Netlist,
    resources: &dyn Resources,
    sink: &mut Sink<'_>,
    hooks: Hooks<'_>,
) -> Result<JobOutput, ParamError> {
    let library = params::library_for_tech(job.tech.as_deref())?;
    if kind == JobKind::Sweep && job.delay.is_some() {
        return Err(usage(
            "the delay-model sweep takes --delays <list>, not --delay \
             (--delay selects the model of a --flip-inputs sweep)",
        ));
    }
    let mut config = params::analysis_config(
        &library,
        job.cycles,
        job.seed,
        job.frequency_mhz,
        job.delay.as_deref(),
        job.engine.as_deref(),
    )?;
    if config.engine == EngineKind::Kernel {
        if job.delay.as_deref().is_some_and(|delay| delay != "zero") {
            return Err(usage(KERNEL_DELAY));
        }
        let timing_check = job.budget.is_some() || hooks.budgets_file.is_some() || job.hazards;
        if kind == JobKind::Check && timing_check {
            return Err(usage(KERNEL_TIMING_CHECK));
        }
    }
    let buses = params::input_buses(netlist);
    match kind {
        JobKind::Analyze => analyze(job, netlist, &buses, config, resources, sink, hooks),
        JobKind::Flip => {
            let (seeds, _) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
            if seeds > 1 {
                return Err(usage(SINGLE_SEED_FLIP));
            }
            if config.engine != EngineKind::Queue {
                return Err(usage(QUEUE_ONLY_FLIP));
            }
            let flips = params::parse_flips(job.flips.as_deref().unwrap_or_default(), netlist)?;
            // The run length is known before simulating anything; an
            // out-of-range flip must not cost a baseline pass first.
            params::check_flip_cycles(&flips, config.cycles)?;
            let analyzer = GlitchAnalyzer::new(config);
            let baseline = {
                let _span = sink.span("simulate");
                resources.baseline(&analyzer).map_err(run)?
            };
            let (delta, applied) = params::flips_to_delta(&flips, &baseline.baseline)?;
            let index = resources.cone_index().map_err(run)?;
            let after = {
                let _span = sink.span("incremental");
                analyzer
                    .analyze_delta_with_index(netlist, &baseline.baseline, &delta, Some(&index))
                    .map_err(|e| run(format!("incremental simulation failed: {e}")))?
            };
            sink.incremental(&after.incremental);
            Ok(JobOutput::Flip {
                applied,
                baseline,
                after,
            })
        }
        JobKind::Check => {
            if job.x_init {
                config.options = SimOptions::x_init();
            }
            let mut suite = params::build_check_suite(
                netlist,
                job.budget.as_deref(),
                hooks.budgets_file,
                job.hazards,
                job.stable.as_deref(),
            )?;
            // Checker wall time only feeds the `checker:*` spans.
            if sink.spans.is_some() {
                suite = suite.with_timing();
            }
            let checkers = suite.checker_count();
            let analyzer = GlitchAnalyzer::new(config.clone());
            if let Some(spec) = job.flips.as_deref() {
                if job.seeds.is_some() {
                    return Err(usage(SINGLE_SEED_FLIP));
                }
                if config.engine != EngineKind::Queue {
                    return Err(usage(QUEUE_ONLY_FLIP));
                }
                let flips = params::parse_flips(spec, netlist)?;
                params::check_flip_cycles(&flips, config.cycles)?;
                let (base_report, _, baseline) = {
                    let _span = sink.span("simulate");
                    analyzer
                        .check_baseline(netlist, &buses, &[], &suite)
                        .map_err(|e| run(format!("simulation failed: {e}")))?
                };
                let (delta, applied) = params::flips_to_delta(&flips, &baseline)?;
                let flipped = {
                    let _span = sink.span("incremental");
                    analyzer
                        .check_delta(netlist, &baseline, &delta, &suite)
                        .map_err(|e| run(format!("incremental simulation failed: {e}")))?
                };
                sink.incremental(&flipped.incremental);
                sink.check(&flipped.report, &[]);
                return Ok(JobOutput::CheckFlip {
                    cycles: baseline.cycle_count(),
                    x_init: job.x_init,
                    checkers,
                    applied,
                    base_report,
                    flipped,
                });
            }
            let (seeds, jobs) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
            let seed_list = params::stimulus_seeds(config.seed, seeds);
            let program = compiled(config.engine, resources, sink)?;
            let batch_start = sink.now();
            let checked = {
                let _span = sink.span("simulate");
                analyzer
                    .check_seeds_compiled(
                        netlist,
                        &buses,
                        &[],
                        &suite,
                        &seed_list,
                        jobs,
                        program.as_deref(),
                    )
                    .map_err(|e| run(format!("simulation failed: {e}")))?
            };
            sink.shards(batch_start, checked.analysis.aggregate.shards());
            if let Some(kernel) = &checked.analysis.kernel {
                sink.kernel(kernel);
            }
            let merge_start = sink.now();
            sink.aggregate(&checked.analysis.aggregate);
            sink.check(&checked.report, &checked.checker_micros);
            sink.span_since("merge", merge_start);
            Ok(JobOutput::Check {
                seeds,
                jobs,
                cycles: config.cycles,
                x_init: job.x_init,
                checkers,
                checked,
            })
        }
        JobKind::Sweep => {
            let models = params::delay_sweep_models(job.delays.as_deref(), &library)?;
            let (seeds, jobs) = params::seeds_and_jobs(job.seeds, job.jobs, models.len())?;
            let seed_list = params::stimulus_seeds(config.seed, seeds);
            let program = compiled(config.engine, resources, sink)?;
            let batch_start = sink.now();
            let points = {
                let _span = sink.span("simulate");
                GlitchAnalyzer::new(config.clone())
                    .sweep_delays_compiled(
                        netlist,
                        &buses,
                        &[],
                        &models,
                        &seed_list,
                        jobs,
                        program.as_deref(),
                    )
                    .map_err(|e| run(format!("simulation failed: {e}")))?
            };
            let merge_start = sink.now();
            // One prepass serves the whole sweep, so its classification is
            // recorded once (every point carries the same copy).
            if let Some(kernel) = points.first().and_then(|p| p.analysis.kernel.as_ref()) {
                sink.kernel(kernel);
            }
            for point in &points {
                sink.aggregate(&point.analysis.aggregate);
                sink.timed(point.analysis.aggregate.shards());
                sink.shards(batch_start, point.analysis.aggregate.shards());
            }
            sink.span_since("merge", merge_start);
            Ok(JobOutput::Sweep {
                seeds,
                jobs,
                cycles: config.cycles,
                points,
            })
        }
        JobKind::Reduce => {
            if config.engine == EngineKind::Kernel {
                return Err(usage(
                    "the kernel engine has no glitch model to score moves with; \
                     use --engine queue or hybrid",
                ));
            }
            let (seeds, jobs) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
            let seed_list = params::stimulus_seeds(config.seed, seeds);
            let moves = glitch_reduce::parse_moves(job.moves.as_deref().unwrap_or_default())
                .map_err(|e| ParamError::Usage(e.to_string()))?;
            let defaults = ReduceOptions::default();
            let options = ReduceOptions {
                moves,
                target_percent: job.target,
                max_iters: job.max_iters.unwrap_or(defaults.max_iters),
                ..defaults
            };
            let cycles = config.cycles;
            let session = glitch_core::ReduceSession::new(config, seed_list, jobs);
            let reducer = Reducer::new(session, options);
            let start = sink.now();
            let report = match hooks.progress {
                Some(mut lines) => reducer.run_with_progress(netlist, &buses, &[], &mut lines),
                None => reducer.run(netlist, &buses, &[]),
            }
            .map_err(|e| run(format!("reduction failed: {e}")))?;
            sink.span_since("reduce", start);
            sink.add("reduce.iterations", report.iterations as u64);
            sink.add("reduce.proposed", report.proposed as u64);
            sink.add("reduce.screened", report.screened as u64);
            sink.add("reduce.confirmed", report.confirmed as u64);
            sink.add("reduce.accepted", report.moves.len() as u64);
            Ok(JobOutput::Reduce {
                seeds,
                jobs,
                cycles,
                report,
            })
        }
    }
}

/// The compiled kernel program a non-queue `engine` needs, fetched under
/// its own span.
fn compiled(
    engine: EngineKind,
    resources: &dyn Resources,
    sink: &Sink<'_>,
) -> Result<Option<Arc<KernelProgram>>, ParamError> {
    if engine == EngineKind::Queue {
        return Ok(None);
    }
    let _span = sink.span("kernel-compile");
    resources.program().map(Some).map_err(run)
}

/// `analyze`: one session (queue, hybrid-pruned queue or compiled kernel)
/// for a single seed, or the multi-seed aggregate.
fn analyze(
    job: &JobRequest,
    netlist: &Netlist,
    buses: &[Bus],
    config: AnalysisConfig,
    resources: &dyn Resources,
    sink: &mut Sink<'_>,
    hooks: Hooks<'_>,
) -> Result<JobOutput, ParamError> {
    let (seeds, jobs) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
    let with_metrics = sink.enabled();
    let extra = hooks.probes;
    let factory = move |index: usize| -> Vec<Box<dyn Probe>> {
        let mut probes = extra.map_or_else(Vec::new, |extra| extra(index));
        if with_metrics {
            probes.push(Box::new(MetricsProbe::new()));
        }
        probes
    };
    let program = compiled(config.engine, resources, sink)?;
    let analyzer = GlitchAnalyzer::new(config.clone());
    if seeds > 1 {
        let seed_list = params::stimulus_seeds(config.seed, seeds);
        let batch_start = sink.now();
        let (aggregate, mut reports) = {
            let _span = sink.span("simulate");
            analyzer
                .analyze_seeds(
                    netlist,
                    buses,
                    &[],
                    &seed_list,
                    jobs,
                    &factory,
                    program.as_deref(),
                )
                .map_err(|e| run(format!("simulation failed: {e}")))?
        };
        sink.shards(batch_start, aggregate.aggregate.shards());
        if let Some(kernel) = &aggregate.kernel {
            sink.kernel(kernel);
        }
        // Fold the per-seed window heatmaps (aligned: every seed starts at
        // cycle 0) and the per-seed metrics registries in seed order — the
        // `--jobs`-invariance discipline.
        let merge_start = sink.now();
        let mut windowed: Option<WindowedActivityProbe> = None;
        for report in &mut reports {
            if let Some(probe) = report.take_probe::<WindowedActivityProbe>() {
                match windowed.as_mut() {
                    None => windowed = Some(probe),
                    Some(merged) => merged.merge(probe),
                }
            }
            sink.absorb(report);
        }
        sink.span_since("merge", merge_start);
        return Ok(JobOutput::Aggregate {
            seeds,
            jobs,
            cycles: config.cycles,
            aggregate,
            windowed,
        });
    }
    let sim_job = analyzer.job(netlist, buses, &[], config.seed);
    let mut report = match program.as_deref() {
        Some(program) if config.engine == EngineKind::Kernel => {
            let _span = sink.span("simulate");
            run_kernel_jobs(netlist, program, std::slice::from_ref(&sim_job), &factory)
                .map_err(|e| run(format!("simulation failed: {e}")))?
                .into_iter()
                .next()
                .expect("one job in, one report out")
        }
        _ => {
            let mut session = analyzer.session(netlist, buses, &[]);
            for probe in factory(0) {
                session = session.boxed_probe(probe);
            }
            if let Some(program) = program.as_deref() {
                // Hybrid: one functional kernel pass marks the provably
                // quiet cycles; the queue replays those and settles only
                // the rest.
                let prepass = {
                    let _span = sink.span("kernel-prepass");
                    kernel_prepass(netlist, program, std::slice::from_ref(&sim_job))
                        .map_err(|e| run(format!("kernel prepass failed: {e}")))?
                };
                if sink.enabled() {
                    let kernel = KernelTelemetry::from_prepass(netlist, program, &prepass)
                        .map_err(|e| run(format!("kernel prepass failed: {e}")))?;
                    sink.kernel(&kernel);
                }
                session = session.quiet_cycles(prepass.quiet_cycles(0));
            }
            let _span = sink.span("simulate");
            session
                .run()
                .map_err(|e| run(format!("simulation failed: {e}")))?
        }
    };
    sink.absorb(&mut report);
    let windowed = report.take_probe::<WindowedActivityProbe>();
    if let Some(finished) = hooks.finished {
        finished(&mut report);
    }
    let passes = report.passes();
    let events = report.total_events();
    let max_settle = report.max_settle_time();
    let cell_evals = report.total_cell_evals();
    let analysis = GlitchAnalyzer::analysis(netlist, report);
    if let Some(program) = program
        .as_deref()
        .filter(|_| config.engine == EngineKind::Kernel)
    {
        sink.kernel(&KernelTelemetry {
            engine: EngineKind::Kernel,
            lanes: 1,
            total_cycles: config.cycles,
            quiet_cycles: 0,
            total_pairs: 0,
            quiet_pairs: 0,
            functional_transitions: analysis.activity.totals().transitions,
            functional_cell_evals: program.op_count() as u64 * config.cycles,
            program_ops: program.op_count(),
            program_bytes: program.byte_size(),
        });
    }
    Ok(JobOutput::Analyze {
        analysis,
        passes,
        events,
        max_settle,
        cell_evals,
        windowed,
    })
}
