//! The one job executor behind both front ends.
//!
//! [`exec`] runs one analysis job — `analyze`, `flip`, `check`, the
//! delay-model or input-flip `sweep`, or `reduce` — from a [`JobRequest`]
//! and a parsed netlist to a [`JobOutput`]. The daemon calls it after its cache lookup and
//! fingerprint check; the one-shot CLI calls it after mapping its flags
//! onto the same [`JobRequest`]. [`JobOutput::json`] renders the report
//! line for both, so a daemon response equals the matching one-shot
//! `--json` output because both are the same call.
//!
//! The two front ends differ only in what they hand in:
//!
//! - [`Resources`]: where the compiled kernel program comes from — the
//!   daemon's warm cache, or compiled fresh on demand by the CLI.
//! - [`Sink`]: where the deterministic counters (and the CLI's wall-clock
//!   phase spans) go. [`Sink::off`] is the bare path: no registry work.
//! - [`Hooks`]: the CLI-only extras (artefact probes, a budgets file) and
//!   the reduce progress observer.
//!
//! An input flip (`flip`, `check` with flips, the input-flip sweep) is
//! the configured run plus one more run of the same configuration with
//! [`AnalysisConfig::flips`] set, each settled like any other run.

use std::sync::Arc;

use glitch_core::netlist::{Bus, Netlist};
use glitch_core::sim::{
    MergeableProbe, Probe, SessionReport, SimOptions, TimedWork, WindowedActivityProbe,
};
use glitch_core::verify::VerifyReport;
use glitch_core::{
    AggregateAnalysis, AggregateReport, AnalysisConfig, CheckAnalysis, DelaySweepPoint,
    DeltaStimulus, EngineKind, GlitchAnalyzer, KernelProgram, KernelTelemetry, ParallelRunner,
    ShardSummary, SimBaseline,
};
use glitch_obs::{MetricsRegistry, Span, SpanLog};
use glitch_reduce::{ProgressEvent, ProgressSink, ReduceOptions, ReduceReport, Reducer};

use crate::params::{self, AppliedFlip, FlipSpec, ParamError};
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
}

/// Where one job's telemetry goes: deterministic counters into a
/// [`MetricsRegistry`] (folded in job order, so the result is identical at
/// any worker count) and wall-clock phase spans into a [`SpanLog`], each
/// optional. Counters are read off finished reports, so a job settles on
/// the same path with or without a sink; [`Sink::off`] records nothing and
/// makes the executor skip every piece of telemetry-only work. A registry
/// reads the runs' per-cycle statistics, so with one every run counts
/// them; without one only the runs whose report prints them do.
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

    /// Records counters into `registry` and phase spans into `spans`, each
    /// when given.
    #[must_use]
    pub fn new(registry: Option<&'a mut MetricsRegistry>, spans: Option<&'a SpanLog>) -> Sink<'a> {
        Sink { registry, spans }
    }

    /// Whether counters are recorded, which read every run's statistics.
    fn counts(&self) -> bool {
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

    /// `sim.*`, `cycle.*` and `queue.*` of one finished session.
    fn session(&mut self, report: &SessionReport) {
        if let Some(registry) = self.registry.as_deref_mut() {
            report.record_metrics(registry);
        }
    }

    /// `sim.*` and `queue.*` of a reduced batch, for the paths that get no
    /// per-session reports back (`check`, `sweep`).
    fn aggregate(&mut self, aggregate: &AggregateReport) {
        if !self.counts() {
            return;
        }
        self.add("sim.cycles", aggregate.total_cycles());
        self.add("sim.events", aggregate.total_events());
        self.add("sim.cell_evals", aggregate.total_cell_evals());
        self.gauge_max("sim.max_settle_time", aggregate.max_settle_time());
        let queue = aggregate.queue_stats();
        self.add("queue.pushes", queue.pushes);
        self.add("queue.pops", queue.pops);
        self.gauge_max("queue.peak_depth", queue.peak_depth);
    }

    /// `timed.*` of a hybrid batch: the shards that settled on the timed
    /// kernel, their lanes (cycles), deepest horizon and word-wide op
    /// evaluations, and the shards that fell back to the event path.
    fn timed(&mut self, shards: &[ShardSummary]) {
        let work: Vec<TimedWork> = shards.iter().filter_map(|shard| shard.timed).collect();
        self.add("timed.shards", work.len() as u64);
        self.add("timed.fallbacks", (shards.len() - work.len()) as u64);
        self.add("timed.lanes", work.iter().map(|w| w.lanes).sum());
        self.gauge_max(
            "timed.horizon",
            work.iter().map(|w| w.horizon).max().unwrap_or(0),
        );
        self.add("timed.op_evals", work.iter().map(|w| w.op_evals).sum());
    }

    /// The counters of a finished analysis: `timed.*` under the hybrid
    /// engine, then each run's session counters.
    fn runs(
        &mut self,
        engine: EngineKind,
        analysis: &AggregateAnalysis,
        reports: &[SessionReport],
    ) {
        if engine == EngineKind::Hybrid {
            self.timed(analysis.aggregate.shards());
        }
        for report in reports {
            self.session(report);
        }
    }

    /// The counters of a finished batch that hands no session reports
    /// back: `timed.*` under the hybrid engine, then `sim.*` and `queue.*`.
    fn batch(&mut self, engine: EngineKind, aggregate: &AggregateReport) {
        if engine == EngineKind::Hybrid {
            self.timed(aggregate.shards());
        }
        self.aggregate(aggregate);
    }

    /// `kernel.*`: the lanes, cycles and functional work of a
    /// compiled-kernel run.
    fn kernel(&mut self, kernel: &KernelTelemetry) {
        self.add("kernel.lanes", kernel.lanes as u64);
        self.add("kernel.cycles_total", kernel.total_cycles);
        self.add(
            "kernel.functional_transitions",
            kernel.functional_transitions,
        );
        self.add("kernel.functional_cell_evals", kernel.functional_cell_evals);
        self.gauge_max("kernel.program_ops", kernel.program_ops as u64);
        self.gauge_max("kernel.program_bytes", kernel.program_bytes as u64);
    }

    /// `check.*` violation counters, plus one `checker:NAME` span per
    /// checker from its accumulated wall time.
    fn check(&mut self, report: &VerifyReport, checker_micros: &[(String, u64)]) {
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
    /// Sees each finished `analyze` session, in seed order, after the
    /// aggregate is reduced, to take its extra probes.
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

/// What watches a `reduce` run: the progress lines, when asked for, and
/// one span per loop phase (`reduce.score`, `reduce.candidates`,
/// `reduce.confirm`, `reduce.equivalence`) when the sink logs spans. The
/// phases follow one another, so they fall inside the `reduce` span.
struct ReduceWatch<'s, 'a> {
    lines: Option<ProgressLines<'a>>,
    spans: Option<&'s SpanLog>,
    /// The start of the open phase.
    started: u64,
}

impl ProgressSink for ReduceWatch<'_, '_> {
    fn iteration(&mut self, event: &ProgressEvent<'_>) {
        if let Some(lines) = &mut self.lines {
            lines.iteration(event);
        }
    }

    fn phase_start(&mut self, _name: &'static str) {
        if let Some(spans) = self.spans {
            self.started = spans.clock().now_micros();
        }
    }

    fn phase_end(&mut self, name: &'static str) {
        if let Some(spans) = self.spans {
            let dur = spans.clock().now_micros().saturating_sub(self.started);
            spans.record(name, 0, self.started, dur);
        }
    }
}

/// The result of one job, ready for [`JobOutput::json`] or a front end's
/// own text rendering.
pub enum JobOutput {
    /// `analyze` at any seed count; one seed renders as a single run,
    /// more as the aggregate with its spread.
    Analyze {
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
        /// The flips as applied to the configured run.
        applied: Vec<AppliedFlip>,
        /// The configured run.
        before: Box<AggregateAnalysis>,
        /// The flipped run.
        after: Box<AggregateAnalysis>,
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
        /// Cycles of the run.
        cycles: u64,
        /// Whether flipflops powered on X.
        x_init: bool,
        /// Checkers in the suite.
        checkers: usize,
        /// The flips as applied to the configured run.
        applied: Vec<AppliedFlip>,
        /// The configured run's verdict.
        base_report: VerifyReport,
        /// The flipped run's check.
        flipped: CheckAnalysis,
    },
    /// `sweep` with `flip_inputs`: one flipped run per input.
    SweepFlips {
        /// The cycle every input is flipped in.
        cycle: u64,
        /// Worker threads.
        jobs: usize,
        /// The flips, one per input, as applied to the configured run.
        applied: Vec<AppliedFlip>,
        /// The configured run.
        before: AggregateAnalysis,
        /// The flipped runs, in input order.
        points: Vec<AggregateAnalysis>,
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
                seeds: 1,
                aggregate,
                windowed,
                ..
            } => report::analyze_json(file, netlist, aggregate, windowed.as_ref()),
            JobOutput::Analyze {
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
                before,
                after,
            } => report::analyze_flip_json(file, netlist, applied, before, after),
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
            JobOutput::SweepFlips {
                cycle,
                jobs,
                applied,
                before,
                points,
            } => report::sweep_flips_json(file, netlist, *cycle, *jobs, applied, before, points),
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
/// The refusal of an input flip (`--flip`, `--flip-inputs`) under
/// `--engine kernel`, whose zero-delay figures have no glitches to compare.
const KERNEL_FLIP: &str = "an input flip compares glitch figures, and the zero-delay \
     kernel engine has no glitches to compare; drop --engine kernel";
/// The refusal of a reduce `--target` that is not a percent of the
/// baseline glitch power (NaN, infinite, negative or above 100).
const TARGET_RANGE: &str = "--target must be a percent from 0 to 100";

/// Runs one job against `netlist`. Parameters resolve exactly as the
/// CLI's flags do (same defaults, same messages); the engine defaults to
/// `hybrid`.
///
/// # Errors
///
/// [`ParamError::Usage`] for malformed or contradictory parameters,
/// [`ParamError::Run`] for parameters that do not fit the circuit and for
/// simulation and reduction failures.
pub fn exec(
    kind: JobKind,
    job: &JobRequest,
    netlist: &Netlist,
    resources: &dyn Resources,
    sink: &mut Sink<'_>,
    hooks: Hooks<'_>,
) -> Result<JobOutput, ParamError> {
    let library = params::library_for_tech(job.tech.as_deref())?;
    let flip_inputs = job
        .flip_inputs
        .as_deref()
        .filter(|_| kind == JobKind::Sweep);
    if kind == JobKind::Sweep && flip_inputs.is_none() {
        if job.flip_cycle.is_some() {
            return Err(usage("--flip-cycle requires --flip-inputs <list|all>"));
        }
        if job.delay.is_some() {
            return Err(usage(
                "the delay-model sweep takes --delays <list>, not --delay \
                 (--delay selects the model of a --flip-inputs sweep)",
            ));
        }
    }
    let mut config = params::analysis_config(
        &library,
        job.cycles,
        job.seed,
        job.frequency_mhz,
        job.delay.as_deref(),
        job.engine.as_deref(),
    )?;
    if let Some(list) = flip_inputs {
        return sweep_flips(job, list, netlist, config, resources, sink);
    }
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
            let flips = flip_specs(job, netlist, &config)?;
            let (delta, applied) =
                params::flips_to_delta(&flips, &baseline(netlist, &buses, &config))?;
            let program = compiled(config.engine, resources, sink)?;
            let before = run_once(netlist, &buses, &config, program.as_deref(), sink)?;
            let after = run_once(
                netlist,
                &buses,
                &flipped(&config, delta),
                program.as_deref(),
                sink,
            )?;
            Ok(JobOutput::Flip {
                applied,
                before: Box::new(before),
                after: Box::new(after),
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
            // The check report prints the runs' settle time and cell
            // evaluations: the analyzer counts statistics by default.
            let analyzer = GlitchAnalyzer::new(config.clone());
            if job.flips.is_some() {
                let flips = flip_specs(job, netlist, &config)?;
                let (delta, applied) =
                    params::flips_to_delta(&flips, &baseline(netlist, &buses, &config))?;
                // The flip report prints verdicts only.
                let check = |config: &AnalysisConfig, sink: &mut Sink<'_>| {
                    let checked = {
                        let _span = sink.span("simulate");
                        GlitchAnalyzer::new(config.clone())
                            .with_statistics(sink.counts())
                            .check_seeds(netlist, &buses, &[], &suite, &[config.seed], 1)
                            .map_err(|e| run(format!("simulation failed: {e}")))?
                    };
                    sink.batch(config.engine, &checked.analysis.aggregate);
                    Ok::<_, ParamError>(checked)
                };
                let base_report = check(&config, sink)?.report;
                let flipped = check(&flipped(&config, delta), sink)?;
                sink.check(&flipped.report, &flipped.checker_micros);
                return Ok(JobOutput::CheckFlip {
                    cycles: config.cycles,
                    x_init: job.x_init,
                    checkers,
                    applied,
                    base_report,
                    flipped,
                });
            }
            let (seeds, jobs) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
            let seed_list = params::stimulus_seeds(config.seed, seeds);
            let batch_start = sink.now();
            let checked = {
                let _span = sink.span("simulate");
                analyzer
                    .check_seeds(netlist, &buses, &[], &suite, &seed_list, jobs)
                    .map_err(|e| run(format!("simulation failed: {e}")))?
            };
            sink.shards(batch_start, checked.analysis.aggregate.shards());
            if let Some(kernel) = &checked.analysis.kernel {
                sink.kernel(kernel);
            }
            let merge_start = sink.now();
            sink.batch(config.engine, &checked.analysis.aggregate);
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
                // The sweep report prints no per-cycle statistics.
                GlitchAnalyzer::new(config.clone())
                    .with_statistics(sink.counts())
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
            for point in &points {
                sink.aggregate(&point.analysis.aggregate);
                // `kernel` sweeps run as hybrid ones.
                if config.engine != EngineKind::Queue {
                    sink.timed(point.analysis.aggregate.shards());
                }
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
            if job.target.is_some_and(|t| !(0.0..=100.0).contains(&t)) {
                return Err(usage(TARGET_RANGE));
            }
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
            let mut watch = ReduceWatch {
                lines: hooks.progress,
                spans: sink.spans,
                started: start,
            };
            let report = reducer
                .run_with_progress(netlist, &buses, &[], &mut watch)
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

/// The `flips` of a `flip` or `check` job, checked against the configured
/// run before anything is simulated: the single-seed rule, the kernel
/// refusal, the parsed entries and their cycle range.
fn flip_specs(
    job: &JobRequest,
    netlist: &Netlist,
    config: &AnalysisConfig,
) -> Result<Vec<FlipSpec>, ParamError> {
    let (seeds, _) = params::seeds_and_jobs(job.seeds, job.jobs, 1)?;
    if seeds > 1 {
        return Err(usage(SINGLE_SEED_FLIP));
    }
    if config.engine == EngineKind::Kernel {
        return Err(usage(KERNEL_FLIP));
    }
    let flips = params::parse_flips(job.flips.as_deref().unwrap_or_default(), netlist)?;
    // An out-of-range flip must not cost a baseline pass first.
    params::check_flip_cycles(&flips, config.cycles)?;
    Ok(flips)
}

/// The configured run's stimulus, which flips are resolved against.
fn baseline(netlist: &Netlist, buses: &[Bus], config: &AnalysisConfig) -> SimBaseline {
    SimBaseline::of(&GlitchAnalyzer::new(config.clone()).job(netlist, buses, &[], config.seed))
}

/// `config` with `delta`'s input bits overridden: the flipped run.
fn flipped(config: &AnalysisConfig, delta: DeltaStimulus) -> AnalysisConfig {
    AnalysisConfig {
        flips: delta,
        ..config.clone()
    }
}

/// One single-seed run of `config` (configured or flipped) under the
/// `simulate` span, with its counters in `sink`. The flip reports print
/// no per-cycle statistics, so the run counts them for the registry only.
fn run_once(
    netlist: &Netlist,
    buses: &[Bus],
    config: &AnalysisConfig,
    program: Option<&KernelProgram>,
    sink: &mut Sink<'_>,
) -> Result<AggregateAnalysis, ParamError> {
    let (analysis, reports) = {
        let _span = sink.span("simulate");
        single_run(netlist, buses, config, program, sink.counts())
            .map_err(|e| run(format!("simulation failed: {e}")))?
    };
    sink.runs(config.engine, &analysis, &reports);
    Ok(analysis)
}

/// [`GlitchAnalyzer::analyze_seeds`] over `config`'s own seed on one
/// worker, with no extra probe, counting the per-cycle statistics when
/// `statistics` is set.
fn single_run(
    netlist: &Netlist,
    buses: &[Bus],
    config: &AnalysisConfig,
    program: Option<&KernelProgram>,
    statistics: bool,
) -> Result<(AggregateAnalysis, Vec<SessionReport>), glitch_core::sim::SimError> {
    GlitchAnalyzer::new(config.clone())
        .with_statistics(statistics)
        .analyze_seeds(
            netlist,
            buses,
            &[],
            &[config.seed],
            1,
            &|_| Vec::new(),
            program,
        )
}

/// `sweep` with `flip_inputs`: the configured run, then one inverting
/// flip per listed input in `flip_cycle`, each one more run of the same
/// configuration, fanned across `jobs` workers; rows come back in input
/// order at any worker count.
fn sweep_flips(
    job: &JobRequest,
    list: &str,
    netlist: &Netlist,
    config: AnalysisConfig,
    resources: &dyn Resources,
    sink: &mut Sink<'_>,
) -> Result<JobOutput, ParamError> {
    if config.engine == EngineKind::Kernel {
        return Err(usage(KERNEL_FLIP));
    }
    if job.seeds.is_some() || job.delays.is_some() {
        return Err(usage(
            "--flip-inputs sweeps one stimulus; it does not combine with --seeds or --delays",
        ));
    }
    let cycle = job.flip_cycle.unwrap_or(0);
    let (flips, jobs) = params::flip_inputs(list, cycle, config.cycles, job.jobs, netlist)?;
    let buses = params::input_buses(netlist);
    let baseline = baseline(netlist, &buses, &config);
    let mut configs = Vec::with_capacity(flips.len());
    let mut applied = Vec::with_capacity(flips.len());
    for flip in &flips {
        let (delta, one) = params::flips_to_delta(std::slice::from_ref(flip), &baseline)?;
        configs.push(flipped(&config, delta));
        applied.extend(one);
    }
    let program = compiled(config.engine, resources, sink)?;
    let before = run_once(netlist, &buses, &config, program.as_deref(), sink)?;
    let statistics = sink.counts();
    let runs = {
        let _span = sink.span("simulate");
        ParallelRunner::new(jobs)
            .map(configs, |_, config| {
                single_run(netlist, &buses, &config, program.as_deref(), statistics)
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| run(format!("simulation failed: {e}")))?
    };
    let mut points = Vec::with_capacity(runs.len());
    for (analysis, reports) in runs {
        sink.runs(config.engine, &analysis, &reports);
        points.push(analysis);
    }
    Ok(JobOutput::SweepFlips {
        cycle,
        jobs,
        applied,
        before,
        points,
    })
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

/// `analyze`: every seed through [`GlitchAnalyzer::analyze_seeds`], whose
/// engine dispatch settles it; the seed count only picks the report form.
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
    let no_probes = |_: usize| -> Vec<Box<dyn Probe>> { Vec::new() };
    let factory: &ProbeFactory = hooks.probes.unwrap_or(&no_probes);
    let program = compiled(config.engine, resources, sink)?;
    let seed_list = params::stimulus_seeds(config.seed, seeds);
    let batch_start = sink.now();
    let (aggregate, mut reports) = {
        let _span = sink.span("simulate");
        // The analyze report prints the runs' events and settle time: the
        // analyzer counts statistics by default.
        GlitchAnalyzer::new(config.clone())
            .analyze_seeds(
                netlist,
                buses,
                &[],
                &seed_list,
                jobs,
                factory,
                program.as_deref(),
            )
            .map_err(|e| run(format!("simulation failed: {e}")))?
    };
    sink.shards(batch_start, aggregate.aggregate.shards());
    if let Some(kernel) = &aggregate.kernel {
        sink.kernel(kernel);
    }
    if config.engine == EngineKind::Hybrid {
        sink.timed(aggregate.aggregate.shards());
    }
    // Fold the per-seed window heatmaps (aligned: every seed starts at
    // cycle 0) and the per-seed metrics in seed order — the
    // `--jobs`-invariance discipline.
    let merge_start = sink.now();
    let mut windowed: Option<WindowedActivityProbe> = None;
    let mut finished = hooks.finished;
    for report in &mut reports {
        if let Some(probe) = report.take_probe::<WindowedActivityProbe>() {
            match windowed.as_mut() {
                None => windowed = Some(probe),
                Some(merged) => merged.merge(probe),
            }
        }
        sink.session(report);
        if let Some(finished) = finished.as_mut() {
            finished(report);
        }
    }
    sink.span_since("merge", merge_start);
    Ok(JobOutput::Analyze {
        seeds,
        jobs,
        cycles: config.cycles,
        aggregate,
        windowed,
    })
}
