//! The [`Checker`] trait, its verdict/violation vocabulary, and the
//! [`CheckerProbe`] adapter that attaches a set of checkers to any
//! simulation session.
//!
//! A checker is a [`glitch_sim::Probe`] — it observes a run's transition
//! stream and cycle statistics — but where other probes accumulate an
//! *artefact* (a trace, a waveform, an energy figure), a checker
//! accumulates *evidence for a verdict*: located [`Violation`] records
//! plus summary metrics. Every checker is a
//! [`glitch_sim::MergeableProbe`], and the fold is performed in shard
//! order, so a multi-seed parallel check is bit-identical to the serial
//! fold of its shards at any worker count.

use std::any::Any;

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{CycleStats, MergeableProbe, Probe, TimedRun, Transition};

/// Upper bound on the located [`Violation`] records a checker *retains*
/// (the `total_violations` count keeps counting past it). A pathological
/// run — every net over budget every cycle — must not turn the report into
/// a memory hog; the retained records are the first
/// [`VIOLATION_CAP`] in observation order (shard order across a parallel
/// fold), which keeps the truncation deterministic.
pub const VIOLATION_CAP: usize = 64;

/// The outcome of a check: pass or fail.
///
/// Checkers that only *measure* (hazard classification) always pass;
/// their findings live in the metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// No violation observed.
    Pass,
    /// At least one violation observed.
    Fail,
}

impl Verdict {
    /// `true` for [`Verdict::Pass`].
    #[must_use]
    pub fn passed(self) -> bool {
        matches!(self, Verdict::Pass)
    }

    /// The conjunction of two verdicts: fails if either fails.
    #[must_use]
    pub fn and(self, other: Verdict) -> Verdict {
        if self.passed() && other.passed() {
            Verdict::Pass
        } else {
            Verdict::Fail
        }
    }

    /// Renders as `pass` / `fail` (the `--json` spelling).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Pass => "pass",
            Verdict::Fail => "fail",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One located check violation.
///
/// The fields are the settle-budget reading — *net `net` was still
/// switching at `time` in `cycle`, over its budget of `budget`* — and the
/// other checkers reuse the shape with documented meanings:
///
/// * X-propagation: `cycle` is the first cycle the output ended unknown,
///   `time` the number of cycle ends it spent unknown, `budget` 0;
/// * stability: `cycle`/`time` locate the forbidden transition, `budget`
///   is 0 (no switching allowed at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Violation {
    /// The offending net.
    pub net: NetId,
    /// The clock cycle of the violation.
    pub cycle: u64,
    /// The intra-cycle settle time (delay units) of the violation.
    pub time: u64,
    /// The budget that was exceeded.
    pub budget: u64,
}

/// Appends a violation under the [`VIOLATION_CAP`] retention rule.
pub(crate) fn push_capped(violations: &mut Vec<Violation>, violation: Violation) {
    if violations.len() < VIOLATION_CAP {
        violations.push(violation);
    }
}

/// Merges another shard's retained violations (shard order, capped).
pub(crate) fn merge_capped(violations: &mut Vec<Violation>, other: Vec<Violation>) {
    for violation in other {
        push_capped(violations, violation);
    }
}

/// A finished checker's structured result: the verdict, the retained
/// violations, the full violation count, and ordered summary metrics.
///
/// Outcomes are plain data with a stable field order, so two runs that
/// observed the same evidence produce equal (`==`) outcomes — this is the
/// object the determinism guarantees ("bit-identical at any `--jobs`,
/// bit-identical between the timed and event settle paths") are stated
/// over.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// The checker's name (e.g. `x-propagation`).
    pub checker: String,
    /// Pass or fail.
    pub verdict: Verdict,
    /// The retained violations, at most [`VIOLATION_CAP`].
    pub violations: Vec<Violation>,
    /// The full violation count (never truncated).
    pub total_violations: u64,
    /// Ordered `(name, value)` summary metrics.
    pub metrics: Vec<(String, u64)>,
    /// One human-readable summary line.
    pub summary: String,
}

impl CheckOutcome {
    /// Looks up a metric by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<u64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// An object-safe assertion checker over a simulation run: a [`Probe`]
/// that also names itself, distils its evidence into a [`CheckOutcome`]
/// and folds another shard's instance behind a `Box<dyn Checker>`.
///
/// A checker watches the run through its [`Probe`] hooks (and, when it
/// [`settles_timed`](Probe::settles_timed), reads a timed-kernel run's
/// bulk results in [`Probe::record_timed`]), so it can ride a session on
/// its own or inside a [`CheckerProbe`]. Its shard fold is its
/// [`MergeableProbe::merge`]; [`Checker::merge_boxed`] downcasts and calls
/// it, which is what lets a suite fold checkers it only knows as trait
/// objects.
pub trait Checker: Probe {
    /// Short stable name (`x-propagation`, `settle-budget`, `hazard`,
    /// `stability`) — used in reports, JSON output and merge assertions.
    fn name(&self) -> &'static str;

    /// Distils the accumulated evidence into a [`CheckOutcome`].
    fn outcome(&self, netlist: &Netlist) -> CheckOutcome;

    /// Folds another shard's instance of this checker into `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is a different checker type (the suite builder
    /// guarantees positional alignment, so this indicates caller error).
    fn merge_boxed(&mut self, other: Box<dyn Checker>);
}

/// Downcasts a boxed checker to a concrete type for merging.
///
/// # Panics
///
/// Panics when the types differ.
pub(crate) fn downcast_checker<T: Checker>(other: Box<dyn Checker>) -> T {
    let name = other.name();
    let any: Box<dyn Any> = other;
    *any.downcast::<T>()
        .unwrap_or_else(|_| panic!("cannot merge checker `{name}` into a different checker type"))
}

/// The [`Probe`] adapter that runs a set of checkers inside any simulation
/// session — [`glitch_sim::SimSession`] and [`glitch_sim::ParallelRunner`]
/// shards alike. An input-flip re-check (`--flip`) is one more such run,
/// of the flipped stimulus, so its report is a full run's by construction.
#[derive(Default)]
pub struct CheckerProbe {
    checkers: Vec<Box<dyn Checker>>,
    /// When set, every hook fan-out is timed per checker. Off by default —
    /// the untimed path does not touch the clock at all, so checking
    /// without telemetry pays nothing.
    timed: bool,
    /// Cumulative wall-clock nanoseconds per checker (index-aligned with
    /// `checkers`). Non-deterministic; never part of [`CheckOutcome`] or
    /// [`crate::VerifyReport`], so the determinism guarantees stated over
    /// those objects are unaffected.
    elapsed_nanos: Vec<u64>,
}

impl CheckerProbe {
    /// Wraps a list of checkers; they observe events in list order.
    #[must_use]
    pub fn new(checkers: Vec<Box<dyn Checker>>) -> Self {
        let elapsed_nanos = vec![0; checkers.len()];
        CheckerProbe {
            checkers,
            timed: false,
            elapsed_nanos,
        }
    }

    /// Enables per-checker wall-clock timing (builder style). Retrieve the
    /// accumulated figures with [`CheckerProbe::checker_micros`].
    #[must_use]
    pub fn timed(mut self) -> Self {
        self.timed = true;
        self
    }

    /// Cumulative wall-clock time spent inside each checker's hooks, in
    /// microseconds, as `(name, micros)` pairs in checker order. All zeros
    /// unless the probe was built with [`CheckerProbe::timed`]. Display
    /// and trace export only — wall-clock figures are not deterministic.
    #[must_use]
    pub fn checker_micros(&self) -> Vec<(String, u64)> {
        self.checkers
            .iter()
            .zip(&self.elapsed_nanos)
            .map(|(c, &nanos)| (c.name().to_string(), nanos / 1_000))
            .collect()
    }

    /// Number of wrapped checkers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.checkers.len()
    }

    /// `true` when no checker is attached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.checkers.is_empty()
    }

    /// Distils every checker into a [`crate::VerifyReport`].
    #[must_use]
    pub fn report(&self, netlist: &Netlist) -> crate::VerifyReport {
        crate::VerifyReport::new(self.checkers.iter().map(|c| c.outcome(netlist)).collect())
    }

    /// Fans one hook call across the checkers, timing each when enabled.
    fn fan_out(&mut self, mut f: impl FnMut(&mut dyn Checker)) {
        if self.timed {
            for (checker, nanos) in self.checkers.iter_mut().zip(&mut self.elapsed_nanos) {
                let start = std::time::Instant::now();
                f(checker.as_mut());
                *nanos += u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            }
        } else {
            for checker in &mut self.checkers {
                f(checker.as_mut());
            }
        }
    }
}

impl std::fmt::Debug for CheckerProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CheckerProbe")
            .field("checkers", &self.checkers.len())
            .finish()
    }
}

impl Probe for CheckerProbe {
    fn on_run_start(&mut self, netlist: &Netlist) {
        self.fan_out(|checker| checker.on_run_start(netlist));
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        self.fan_out(|checker| checker.on_cycle_start(cycle));
    }

    fn on_transition(&mut self, transition: &Transition) {
        self.fan_out(|checker| checker.on_transition(transition));
    }

    fn on_cycle_end(&mut self, cycle: u64, stats: &CycleStats) {
        self.fan_out(|checker| checker.on_cycle_end(cycle, stats));
    }

    fn on_run_end(&mut self, netlist: &Netlist) {
        self.fan_out(|checker| checker.on_run_end(netlist));
    }

    /// Only when every checker does.
    fn settles_timed(&self) -> bool {
        self.checkers.iter().all(|checker| checker.settles_timed())
    }

    fn record_timed(&mut self, run: &TimedRun<'_>) {
        self.fan_out(|checker| checker.record_timed(run));
    }
}

impl MergeableProbe for CheckerProbe {
    /// Folds another shard's checkers into this probe, pairwise by
    /// position. Suites build shards from the same [`crate::CheckSuite`],
    /// so positions align; the fold is exact for every built-in checker
    /// (counts add, minima/maxima combine, retained violations concatenate
    /// in fold order under the cap).
    ///
    /// # Panics
    ///
    /// Panics if the two probes carry different checker lists.
    fn merge(&mut self, other: CheckerProbe) {
        if self.checkers.is_empty() {
            *self = other;
            return;
        }
        if other.checkers.is_empty() {
            return;
        }
        assert_eq!(
            self.checkers.len(),
            other.checkers.len(),
            "cannot merge checker probes with different checker lists"
        );
        for (mine, theirs) in self.checkers.iter_mut().zip(other.checkers) {
            assert_eq!(
                mine.name(),
                theirs.name(),
                "cannot merge checker probes with different checker lists"
            );
            mine.merge_boxed(theirs);
        }
        self.timed |= other.timed;
        for (mine, theirs) in self.elapsed_nanos.iter_mut().zip(&other.elapsed_nanos) {
            *mine += theirs;
        }
    }
}
