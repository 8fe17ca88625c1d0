//! Sharded parallel execution of simulation sessions.
//!
//! The paper's power and glitch figures come from long uniformly-random
//! stimulus runs, and sweeping them over seeds, delay models or circuit
//! variants is embarrassingly parallel: every `(netlist, seed, delay)`
//! tuple is an independent one-pass [`crate::SimSession`]. This module adds
//! the executor for exactly that shape of work:
//!
//! * [`ParallelRunner`] — a scoped-thread work-stealing executor with a
//!   deterministic generic [`ParallelRunner::map`] (results come back in
//!   item order regardless of scheduling);
//! * [`SimJob`] — the description of one shard: a netlist reference, a
//!   stimulus seed, a cycle budget, a delay model and a power operating
//!   point;
//! * [`ParallelRunner::run_sessions`] — fans a batch of jobs across the
//!   workers, each worker running a session with an activity probe priced
//!   at the job's operating point (plus any caller-supplied probes);
//! * [`AggregateReport`] — the deterministic reduction of the per-shard
//!   reports: probes folded with [`MergeableProbe`] in shard order, plus
//!   per-shard scalars and their [`Spread`] (min / mean / max / standard
//!   deviation) for honest multi-seed reporting.
//!
//! Determinism is the load-bearing property: every shard is seeded, the
//! fold happens in job order, and merging integer counters is exact — so a
//! parallel run's aggregate is **bit-identical** to the serial fold of the
//! same jobs run one by one. Worker count only affects wall-clock time,
//! never results. This holds for every [`MergeableProbe`] — activity
//! and windowed heatmaps alike — and each is individually pinned against
//! its serial fold by `tests/parallel.rs` (it is a property of the job-order fold,
//! not something a probe gets for free: a probe whose `merge` depended on
//! arrival order would silently break it).
//!
//! Threading uses `std::thread::scope` only — no external thread-pool
//! dependency — so jobs may borrow their netlists from the caller's stack.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use glitch_activity::{ActivityReport, ActivityTotals, ActivityTrace};
use glitch_kernel::KernelProgram;
use glitch_netlist::{Bus, NetId, Netlist};
use glitch_power::{PowerReport, Technology};

use crate::clocked::{InputAssignment, SimOptions};
use crate::delay::DelayKind;
use crate::engine::QueueStats;
use crate::error::SimError;
use crate::incremental::DeltaStimulus;
use crate::probe::{ActivityProbe, MergeableProbe, Probe};
use crate::session::{SessionReport, SimSession};
use crate::stimulus::RandomStimulus;
use crate::timed::TimedWork;

/// A scoped-thread executor for embarrassingly parallel simulation work.
///
/// The runner owns nothing but a worker count; every call to
/// [`ParallelRunner::map`] or [`ParallelRunner::run_sessions`] spins up a
/// fresh `std::thread::scope`, so borrowed job data (netlist references in
/// particular) works without `'static` bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    workers: usize,
}

impl Default for ParallelRunner {
    /// One worker per available hardware thread (falling back to 1 when
    /// the parallelism is unknown).
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        ParallelRunner::new(workers)
    }
}

impl ParallelRunner {
    /// Creates a runner with the given number of worker threads (clamped to
    /// at least one). One worker degenerates to a serial loop on the
    /// calling thread — the reference against which parallel determinism is
    /// tested.
    #[must_use]
    pub fn new(workers: usize) -> Self {
        ParallelRunner {
            workers: workers.max(1),
        }
    }

    /// The configured worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every item on the worker pool and returns the results
    /// **in item order** — scheduling is work-stealing (an atomic cursor),
    /// but the output permutation is always the identity, which is what
    /// keeps reductions over the results deterministic.
    ///
    /// `f` receives the item index alongside the item. A panicking `f`
    /// propagates the panic to the caller once the scope joins.
    pub fn map<I, R, F>(&self, items: Vec<I>, f: F) -> Vec<R>
    where
        I: Send,
        R: Send,
        F: Fn(usize, I) -> R + Sync,
    {
        let n = items.len();
        if self.workers == 1 || n <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(index, item)| f(index, item))
                .collect();
        }
        let cursor = AtomicUsize::new(0);
        let items: Vec<Mutex<Option<I>>> = items
            .into_iter()
            .map(|item| Mutex::new(Some(item)))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let item = items[index]
                        .lock()
                        .expect("item slot poisoned")
                        .take()
                        .expect("each item is claimed exactly once");
                    let result = f(index, item);
                    *slots[index].lock().expect("result slot poisoned") = Some(result);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("scope joined, so every slot is filled")
            })
            .collect()
    }

    /// Runs every job in its own one-pass session and returns the per-job
    /// [`SessionReport`]s in job order. Each session carries an
    /// [`ActivityProbe`] priced at the job's operating point
    /// ([`ActivityProbe::priced`]).
    ///
    /// # Errors
    ///
    /// Returns a failing job's [`SimError`]. Successful batches are fully
    /// deterministic; on failure, jobs not yet started are skipped (no
    /// point simulating shards whose results will be dropped), so *which*
    /// failure is reported can depend on scheduling when several jobs fail
    /// — but any reported error is a genuine one, and it is the earliest
    /// in job order among the jobs that ran.
    pub fn run_sessions(&self, jobs: &[SimJob<'_>]) -> Result<Vec<SessionReport>, SimError> {
        self.run_sessions_with(jobs, &|_| Vec::new())
    }

    /// Like [`ParallelRunner::run_sessions`], additionally attaching the
    /// probes built by `extra_probes(job_index)` to each job's session —
    /// the *probe factory* side of the mergeable-probe design: the factory
    /// constructs a fresh probe per shard, the caller folds the finished
    /// shard probes with [`MergeableProbe::merge`].
    ///
    /// # Errors
    ///
    /// As for [`ParallelRunner::run_sessions`].
    pub fn run_sessions_with(
        &self,
        jobs: &[SimJob<'_>],
        extra_probes: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
    ) -> Result<Vec<SessionReport>, SimError> {
        self.run_batch(jobs, &|index, job| job.run_with(extra_probes(index)))
    }

    /// Runs every job with the standard probe set plus the probes built
    /// by `extra_probes(job_index)`, like
    /// [`ParallelRunner::run_sessions_with`], settling each job on the
    /// timed kernel when it qualifies ([`SimJob::timed_schedule`]) and
    /// every extra probe [`Probe::settles_timed`], and through a session
    /// otherwise. The reports are the sessions' reports in every
    /// deterministic field; a timed one also carries its
    /// [`SessionReport::timed_work`]. `program` must be compiled from the
    /// jobs' netlist.
    ///
    /// # Errors
    ///
    /// As for [`ParallelRunner::run_sessions`].
    pub fn run_jobs(
        &self,
        jobs: &[SimJob<'_>],
        program: &KernelProgram,
        extra_probes: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
    ) -> Result<Vec<SessionReport>, SimError> {
        self.run_batch(jobs, &|index, job| {
            let extra = extra_probes(index);
            match job.timed_schedule(program) {
                Some(schedule) if extra.iter().all(|probe| probe.settles_timed()) => {
                    crate::timed::run_timed(job, &schedule, extra)
                }
                _ => job.run_with(extra),
            }
        })
    }

    /// Runs `run(index, job)` for every job on the pool, timing each one.
    fn run_batch(
        &self,
        jobs: &[SimJob<'_>],
        run: &(dyn Fn(usize, &SimJob<'_>) -> Result<SessionReport, SimError> + Sync),
    ) -> Result<Vec<SessionReport>, SimError> {
        // One failure aborts the whole batch, so once a job errors, workers
        // stop claiming new jobs instead of simulating shards whose results
        // would be dropped anyway.
        let failed = AtomicBool::new(false);
        let batch_start = std::time::Instant::now();
        let results = self.map(jobs.iter().collect(), |index, job: &SimJob<'_>| {
            if failed.load(Ordering::Relaxed) {
                return None;
            }
            // Queue wait: how long this shard sat behind others before a
            // worker picked it up. Wall-clock only — never merged into
            // deterministic aggregates.
            let queue_wait = as_micros(batch_start.elapsed());
            let job_start = std::time::Instant::now();
            let mut result = job.check_flips().and_then(|()| run(index, job));
            if let Ok(report) = result.as_mut() {
                report.set_timing(as_micros(job_start.elapsed()), queue_wait);
            } else {
                failed.store(true, Ordering::Relaxed);
            }
            Some(result)
        });
        let mut reports = Vec::with_capacity(results.len());
        let mut skipped = false;
        for result in results {
            match result {
                Some(Ok(report)) => reports.push(report),
                Some(Err(error)) => return Err(error),
                None => skipped = true,
            }
        }
        // A skip only happens after some job stored its error, and the
        // scope joins every worker, so a skipped batch always contains an
        // `Err` slot and returns above before reaching this point.
        debug_assert!(!skipped, "skipped jobs imply an error in the batch");
        Ok(reports)
    }
}

/// Saturating duration → microsecond conversion for timing fields.
fn as_micros(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

/// One shard of a parallel run: a `(netlist, seed, delay)` tuple plus the
/// stimulus shape and the power operating point.
#[derive(Debug, Clone)]
pub struct SimJob<'a> {
    /// The circuit to simulate (shared immutably across workers).
    pub netlist: &'a Netlist,
    /// Free-form label carried into the shard summary (defaults to the
    /// netlist name; delay-model sweeps override it per variant).
    pub label: String,
    /// Seed of the random stimulus.
    pub seed: u64,
    /// Number of random vectors (clock cycles) to simulate.
    pub cycles: u64,
    /// Delay model of this shard.
    pub delay: DelayKind,
    /// Input buses driven with uniform random values each cycle.
    pub random_buses: Vec<Bus>,
    /// Single-bit inputs held constant every cycle.
    pub held: Vec<(NetId, bool)>,
    /// Technology the activity is priced at.
    pub technology: Technology,
    /// Clock frequency the activity is priced at, in hertz.
    pub frequency: f64,
    /// Simulator options (settle budget, flipflop reset default).
    pub options: SimOptions,
    /// Input bits overridden on top of the random stimulus
    /// ([`DeltaStimulus::apply_to`], cycle by cycle); empty for the
    /// configured run.
    pub flips: DeltaStimulus,
    /// Whether the run counts its per-cycle statistics and queue traffic
    /// ([`SessionReport::cycle_stats`], [`SessionReport::queue_stats`]).
    /// Only the timed kernel ([`ParallelRunner::run_jobs`]) honours `false`,
    /// which spares it the accounting; the event queue and the functional
    /// kernel always count. On by default.
    pub statistics: bool,
}

impl<'a> SimJob<'a> {
    /// A unit-delay job at the default power operating point (the paper's
    /// 0.8 µm process at 5 MHz).
    #[must_use]
    pub fn new(netlist: &'a Netlist, random_buses: Vec<Bus>, cycles: u64, seed: u64) -> Self {
        SimJob {
            netlist,
            label: netlist.name().to_string(),
            seed,
            cycles,
            delay: DelayKind::Unit,
            random_buses,
            held: Vec::new(),
            technology: Technology::cmos_0p8um_5v(),
            frequency: 5e6,
            options: SimOptions::default(),
            flips: DeltaStimulus::new(),
            statistics: true,
        }
    }

    /// Selects the delay model (builder style).
    #[must_use]
    pub fn with_delay(mut self, delay: DelayKind) -> Self {
        self.delay = delay;
        self
    }

    /// Holds single-bit inputs constant every cycle (builder style).
    #[must_use]
    pub fn with_held(mut self, held: Vec<(NetId, bool)>) -> Self {
        self.held = held;
        self
    }

    /// Sets the power operating point (builder style).
    #[must_use]
    pub fn with_power(mut self, technology: Technology, frequency: f64) -> Self {
        self.technology = technology;
        self.frequency = frequency;
        self
    }

    /// Overrides the shard label (builder style).
    #[must_use]
    pub fn with_label(mut self, label: impl Into<String>) -> Self {
        self.label = label.into();
        self
    }

    /// Overrides the simulator options (builder style).
    #[must_use]
    pub fn with_options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Overrides input bits of the stimulus (builder style): the flipped
    /// run of an input-flip study.
    #[must_use]
    pub fn with_flips(mut self, flips: DeltaStimulus) -> Self {
        self.flips = flips;
        self
    }

    /// Says whether the run counts its per-cycle statistics (builder
    /// style); see [`SimJob::statistics`].
    #[must_use]
    pub fn with_statistics(mut self, statistics: bool) -> Self {
        self.statistics = statistics;
        self
    }

    /// Refuses flips beyond the run, which would silently change nothing.
    pub(crate) fn check_flips(&self) -> Result<(), SimError> {
        match self.flips.max_cycle() {
            Some(cycle) if cycle >= self.cycles => Err(SimError::DeltaOutOfRange {
                cycle,
                baseline_cycles: self.cycles,
            }),
            _ => Ok(()),
        }
    }

    /// The job's stimulus, one assignment per cycle: its random buses plus
    /// the held inputs, with the flips applied. The event queue and the
    /// functional kernel engine read it; the timed kernel draws the same
    /// values a block of cycles at a time, straight into lane words
    /// ([`RandomStimulus`]'s `next_lanes`).
    pub fn stimulus(&self) -> impl Iterator<Item = InputAssignment> {
        let flips = self.flips.clone();
        random_stimulus(&self.random_buses, &self.held, self.cycles, self.seed)
            .zip(0..)
            .map(move |(assignment, cycle)| {
                if flips.is_empty() {
                    assignment
                } else {
                    flips.apply_to(cycle, &assignment)
                }
            })
    }

    /// Runs this job as a one-pass session with the standard probe set plus
    /// `extra` probes.
    fn run_with(&self, extra: Vec<Box<dyn Probe>>) -> Result<SessionReport, SimError> {
        let mut session = SimSession::new(self.netlist)
            .delay(self.delay.clone())
            .options(self.options)
            .stimulus(self.stimulus())
            .probe(ActivityProbe::priced(self.technology, self.frequency));
        for probe in extra {
            session = session.boxed_probe(probe);
        }
        session.run()
    }
}

/// Random values on `buses` plus the `held` inputs, every cycle.
pub(crate) fn random_stimulus(
    buses: &[Bus],
    held: &[(NetId, bool)],
    cycles: u64,
    seed: u64,
) -> RandomStimulus {
    let mut stimulus = RandomStimulus::new(buses.to_vec(), cycles, seed);
    for &(net, value) in held {
        stimulus = stimulus.hold(net, value);
    }
    stimulus
}

/// Per-shard scalars extracted from one job's finished session.
///
/// Equality compares only the *results* — the wall-clock timing fields
/// ([`ShardSummary::wall_micros`], [`ShardSummary::queue_wait_micros`])
/// vary run to run and [`ShardSummary::timed`] only says which settle
/// path ran, so all three are excluded and the parallel-equals-serial and
/// timed-equals-event assertions upstream hold with them set.
#[derive(Debug, Clone)]
pub struct ShardSummary {
    /// The job's label.
    pub label: String,
    /// The shard's stimulus seed.
    pub seed: u64,
    /// The shard's delay model.
    pub delay: DelayKind,
    /// Completed cycles.
    pub cycles: u64,
    /// Combinational-logic activity totals (primary inputs and flipflop
    /// outputs excluded, as in [`ActivityReport`]).
    pub activity: ActivityTotals,
    /// The shard's power report.
    pub power: PowerReport,
    /// The shard's run statistics and event-queue traffic (deterministic:
    /// pushes, pops, peak depth are functions of the stimulus, not of
    /// scheduling); `None` when it settled without them. Read through
    /// [`ShardSummary::events`] and its siblings.
    statistics: Option<ShardStatistics>,
    /// The timed kernel's work when the shard settled there rather than
    /// on the event queue. Describes how the shard ran, not what it found,
    /// so equality ignores it.
    pub timed: Option<TimedWork>,
    /// Wall-clock time this shard's session took, in microseconds.
    /// Non-deterministic; display and trace export only.
    pub wall_micros: u64,
    /// Wall-clock delay between batch start and this shard starting, in
    /// microseconds. Non-deterministic; display and trace export only.
    pub queue_wait_micros: u64,
}

impl PartialEq for ShardSummary {
    fn eq(&self, other: &Self) -> bool {
        self.label == other.label
            && self.seed == other.seed
            && self.delay == other.delay
            && self.cycles == other.cycles
            && self.activity == other.activity
            && self.power == other.power
            && self.statistics == other.statistics
    }
}

impl ShardSummary {
    /// The shard's statistics.
    ///
    /// # Panics
    ///
    /// Panics when the shard settled without them ([`SimJob::statistics`]).
    fn statistics(&self) -> &ShardStatistics {
        self.statistics.as_ref().unwrap_or_else(|| {
            panic!(
                "shard `{}` (seed {}) was settled without per-cycle statistics; \
                 build its job with `SimJob::with_statistics(true)` to read them",
                self.label, self.seed
            )
        })
    }

    /// Simulator events processed.
    ///
    /// # Panics
    ///
    /// Panics when the shard settled without statistics
    /// ([`SimJob::statistics`]).
    #[must_use]
    pub fn events(&self) -> u64 {
        self.statistics().events
    }

    /// Worst intra-cycle settle time.
    ///
    /// # Panics
    ///
    /// As for [`ShardSummary::events`].
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.statistics().max_settle_time
    }

    /// Combinational cell evaluations performed.
    ///
    /// # Panics
    ///
    /// As for [`ShardSummary::events`].
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.statistics().cell_evals
    }

    /// Cumulative event-queue traffic.
    ///
    /// # Panics
    ///
    /// As for [`ShardSummary::events`].
    #[must_use]
    pub fn queue(&self) -> QueueStats {
        self.statistics().queue
    }
}

/// The totals a shard's [`SessionReport`] statistics come to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardStatistics {
    transitions: u64,
    events: u64,
    cell_evals: u64,
    max_settle_time: u64,
    queue: QueueStats,
}

impl ShardStatistics {
    /// The report's totals; `None` when it was settled without statistics.
    fn of(report: &SessionReport) -> Option<Self> {
        report.has_statistics().then(|| ShardStatistics {
            transitions: report.total_transitions(),
            events: report.total_events(),
            cell_evals: report.total_cell_evals(),
            max_settle_time: report.max_settle_time(),
            queue: report.queue_stats(),
        })
    }
}

/// The power report of a runner session's activity probe.
fn priced(activity: &ActivityProbe, netlist: &Netlist) -> PowerReport {
    activity
        .power(netlist)
        .expect("runner sessions price their activity")
}

/// Minimum / mean / maximum / standard deviation of a per-shard series —
/// the honest way to report glitch counts estimated from random vectors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// Mean of the samples.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
    /// Population standard deviation of the samples.
    pub stddev: f64,
}

impl Spread {
    /// Computes the spread of a sample series (all zeros when empty).
    #[must_use]
    pub fn of(samples: &[f64]) -> Spread {
        if samples.is_empty() {
            return Spread::default();
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let variance = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n;
        Spread {
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            mean,
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            stddev: variance.sqrt(),
        }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ± {:.3} (min {:.3}, max {:.3})",
            self.mean, self.stddev, self.min, self.max
        )
    }
}

/// The deterministic reduction of a batch of shard reports: merged probes
/// plus per-shard scalars and their spreads.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateReport {
    shards: Vec<ShardSummary>,
    merged_trace: ActivityTrace,
    merged_totals: ActivityTotals,
    merged_power: PowerReport,
}

impl AggregateReport {
    /// Reduces per-job session reports (as returned by
    /// [`ParallelRunner::run_sessions`]) into one aggregate, folding the
    /// activity probes in job order, pricing each shard's trace and the
    /// merged one, and keeping each shard's statistics in its summary.
    /// The activity probes are *taken out* of the reports; caller-attached
    /// extra probes remain in place for retrieval afterwards.
    ///
    /// All jobs must target the same `netlist`; heterogeneous batches
    /// (multi-circuit serving, retiming sweeps) reduce per circuit instead.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` and `reports` have different lengths, if the batch
    /// is empty, or if a report is missing the priced activity probe
    /// (i.e. it did not come from a runner session). A report settled
    /// without statistics reduces to a shard whose statistics refuse to
    /// be read.
    #[must_use]
    pub fn reduce(
        netlist: &Netlist,
        jobs: &[SimJob<'_>],
        reports: &mut [SessionReport],
    ) -> AggregateReport {
        assert_eq!(jobs.len(), reports.len(), "one report per job is required");
        assert!(!reports.is_empty(), "cannot reduce an empty batch");
        let logic = ActivityReport::logic_nodes(netlist);
        let mut shards = Vec::with_capacity(reports.len());
        let mut merged_activity: Option<ActivityProbe> = None;
        for (job, report) in jobs.iter().zip(reports) {
            let activity = report
                .take_probe::<ActivityProbe>()
                .expect("runner sessions carry an ActivityProbe");
            shards.push(ShardSummary {
                label: job.label.clone(),
                seed: job.seed,
                delay: job.delay.clone(),
                cycles: report.cycles(),
                activity: activity.trace().totals_for(logic.iter().copied()),
                power: priced(&activity, netlist),
                statistics: ShardStatistics::of(report),
                timed: report.timed_work(),
                wall_micros: report.wall_micros(),
                queue_wait_micros: report.queue_wait_micros(),
            });
            match merged_activity.as_mut() {
                None => merged_activity = Some(activity),
                Some(merged) => merged.merge(activity),
            }
        }
        let merged_activity = merged_activity.expect("non-empty batch");
        let merged_power = priced(&merged_activity, netlist);
        let merged_totals = merged_activity.trace().totals_for(logic.iter().copied());
        AggregateReport {
            shards,
            merged_trace: merged_activity.into_trace(),
            merged_totals,
            merged_power,
        }
    }

    /// Consumes the aggregate, returning the merged trace.
    #[must_use]
    pub fn into_merged_trace(self) -> ActivityTrace {
        self.merged_trace
    }

    /// Per-shard summaries, in job order.
    #[must_use]
    pub fn shards(&self) -> &[ShardSummary] {
        &self.shards
    }

    /// The fold of every shard's per-net activity trace.
    #[must_use]
    pub fn merged_trace(&self) -> &ActivityTrace {
        &self.merged_trace
    }

    /// Combinational-logic activity totals of the merged trace.
    #[must_use]
    pub fn merged_totals(&self) -> ActivityTotals {
        self.merged_totals
    }

    /// The power report over the combined activity of every shard.
    #[must_use]
    pub fn merged_power(&self) -> &PowerReport {
        &self.merged_power
    }

    /// Total cycles simulated across all shards.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.shards.iter().map(|shard| shard.cycles).sum()
    }

    /// Total simulator events across all shards.
    ///
    /// # Panics
    ///
    /// Panics when a shard settled without statistics
    /// ([`SimJob::statistics`]), as do the three readers below.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.shards.iter().map(ShardSummary::events).sum()
    }

    /// Worst settle time across all shards.
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.shards
            .iter()
            .map(ShardSummary::max_settle_time)
            .max()
            .unwrap_or(0)
    }

    /// Total combinational cell evaluations across all shards.
    #[must_use]
    pub fn total_cell_evals(&self) -> u64 {
        self.shards.iter().map(ShardSummary::cell_evals).sum()
    }

    /// Event-queue traffic summed (pushes, pops) and maxed (peak depth)
    /// over all shards. Deterministic, like every merged aggregate.
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        let mut total = QueueStats::default();
        for shard in &self.shards {
            total.merge(shard.queue());
        }
        total
    }

    /// Load-imbalance ratio of the batch: slowest shard wall time divided
    /// by the mean shard wall time (1.0 = perfectly balanced). Returns 1.0
    /// for batches without timing data. Wall-clock derived — display only,
    /// never part of deterministic aggregates.
    #[must_use]
    pub fn imbalance_ratio(&self) -> f64 {
        let walls: Vec<f64> = self
            .shards
            .iter()
            .map(|s| s.wall_micros as f64)
            .filter(|&w| w > 0.0)
            .collect();
        if walls.is_empty() {
            return 1.0;
        }
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        walls.iter().copied().fold(f64::NEG_INFINITY, f64::max) / mean
    }

    /// Spread of per-shard complete-glitch counts.
    #[must_use]
    pub fn glitch_spread(&self) -> Spread {
        self.spread_of(|s| s.activity.glitches() as f64)
    }

    /// Spread of per-shard useless-transition counts.
    #[must_use]
    pub fn useless_spread(&self) -> Spread {
        self.spread_of(|s| s.activity.useless as f64)
    }

    /// Spread of per-shard combinational transition counts.
    #[must_use]
    pub fn transitions_spread(&self) -> Spread {
        self.spread_of(|s| s.activity.transitions as f64)
    }

    /// Spread of per-shard total power, in watts.
    #[must_use]
    pub fn power_spread(&self) -> Spread {
        self.spread_of(|s| s.power.breakdown.total())
    }

    /// Spread of per-shard combinational-logic power, in watts.
    #[must_use]
    pub fn logic_power_spread(&self) -> Spread {
        self.spread_of(|s| s.power.breakdown.logic)
    }

    /// Spread of an arbitrary per-shard scalar.
    #[must_use]
    pub fn spread_of(&self, f: impl Fn(&ShardSummary) -> f64) -> Spread {
        let samples: Vec<f64> = self.shards.iter().map(f).collect();
        Spread::of(&samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_item_order_under_parallel_scheduling() {
        let runner = ParallelRunner::new(4);
        let items: Vec<u64> = (0..100).collect();
        let results = runner.map(items, |index, item| {
            assert_eq!(index as u64, item);
            item * 2
        });
        assert_eq!(results, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        assert_eq!(runner.workers(), 4);
    }

    #[test]
    fn zero_workers_clamp_to_one_and_run_serially() {
        let runner = ParallelRunner::new(0);
        assert_eq!(runner.workers(), 1);
        assert_eq!(runner.map(vec![1, 2, 3], |_, x| x + 1), vec![2, 3, 4]);
        assert!(ParallelRunner::default().workers() >= 1);
    }

    #[test]
    fn shard_equality_ignores_wall_clock_fields() {
        let runner = ParallelRunner::new(2);
        let mut nl = glitch_netlist::Netlist::new("pair");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.xor2(a, b, "y");
        nl.mark_output(y);
        let buses = vec![Bus::new(vec![a, b])];
        let jobs: Vec<SimJob<'_>> = (0..3)
            .map(|seed| SimJob::new(&nl, buses.clone(), 16, seed))
            .collect();
        let mut first = runner.run_sessions(&jobs).unwrap();
        let mut second = runner.run_sessions(&jobs).unwrap();
        let agg_a = AggregateReport::reduce(&nl, &jobs, &mut first);
        let agg_b = AggregateReport::reduce(&nl, &jobs, &mut second);
        // Wall times differ between the two batches, but equality (and so
        // the upstream determinism asserts) only sees deterministic fields.
        assert_eq!(agg_a, agg_b);
        assert_eq!(agg_a.shards(), agg_b.shards());
        let shard = &agg_a.shards()[0];
        assert!(shard.cell_evals() > 0);
        assert!(shard.queue().pops > 0);
        assert!(agg_a.total_cell_evals() >= shard.cell_evals());
        assert!(agg_a.queue_stats().pushes >= shard.queue().pushes);
        assert!(agg_a.imbalance_ratio() >= 1.0);
    }

    #[test]
    fn reduce_totals_follow_the_report_node_rule() {
        // A pipelined circuit: the flipflop outputs toggle, and must stay
        // out of the totals like the primary inputs.
        let mut nl = glitch_netlist::Netlist::new("piped");
        let a = nl.add_input_bus("a", 3);
        let x = nl.xor2(a.bit(0), a.bit(1), "x");
        let q = nl.dff(x, "q");
        let r = nl.dff(a.bit(2), "r");
        let y = nl.and2(q, r, "y");
        let z = nl.dff(y, "z");
        nl.mark_output(z);
        let jobs: Vec<SimJob<'_>> = (0..3)
            .map(|seed| SimJob::new(&nl, vec![a.clone()], 40, seed))
            .collect();
        let runner = ParallelRunner::new(1);
        let mut reports = runner.run_sessions(&jobs).unwrap();
        let aggregate = AggregateReport::reduce(&nl, &jobs, &mut reports);
        for (shard, mut report) in aggregate
            .shards()
            .iter()
            .zip(runner.run_sessions(&jobs).unwrap())
        {
            let activity = report.take_probe::<ActivityProbe>().unwrap();
            let expected = ActivityReport::new(&nl, activity.trace()).totals();
            assert_eq!(shard.activity, expected);
            assert_ne!(expected, activity.trace().totals());
        }
        let merged = ActivityReport::new(&nl, aggregate.merged_trace()).totals();
        assert_eq!(aggregate.merged_totals(), merged);
        assert!(merged.transitions > 0);
    }

    #[test]
    fn spread_of_samples() {
        let spread = Spread::of(&[1.0, 3.0, 5.0, 7.0]);
        assert_eq!(spread.min, 1.0);
        assert_eq!(spread.max, 7.0);
        assert_eq!(spread.mean, 4.0);
        assert!((spread.stddev - 5.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(Spread::of(&[]), Spread::default());
        assert!(spread.to_string().contains("±"));
    }
}
