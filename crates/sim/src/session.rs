//! One-pass simulation sessions: configure a run once, observe many things.
//!
//! [`SimSession`] is the high-level entry point of the crate: it bundles a
//! netlist, a delay model, a stimulus program and any number of [`Probe`]
//! observers, runs the stimulus through the event-driven simulator exactly
//! once, and returns a [`SessionReport`] aggregating every probe's output.
//! Consumers that used to re-simulate per artefact (activity, then VCD,
//! then power) now pay for a single pass.

use std::any::Any;

use glitch_netlist::{Bus, NetId, Netlist};

use crate::clocked::{ClockedSimulator, CycleStats, InputAssignment, SimOptions};
use crate::delay::{DelayKind, DelayModel};
use crate::engine::QueueStats;
use crate::error::SimError;
use crate::probe::Probe;
use crate::timed::TimedWork;
use crate::value::Value;

/// Builder for a single simulation pass with pluggable observers.
///
/// ```
/// use glitch_netlist::Netlist;
/// use glitch_sim::{ActivityProbe, DelayKind, InputAssignment, SimSession, VcdProbe};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("session demo");
/// let a = nl.add_input("a");
/// let b = nl.add_input("b");
/// let y = nl.xor2(a, b, "y");
/// nl.mark_output(y);
///
/// // One pass produces both the transition trace and the waveform.
/// let report = SimSession::new(&nl)
///     .delay(DelayKind::Unit)
///     .stimulus((0..8u64).map(|i| {
///         InputAssignment::new().with(a, i & 1 != 0).with(b, i & 2 != 0)
///     }))
///     .probe(ActivityProbe::new())
///     .probe(VcdProbe::default())
///     .run()?;
///
/// assert_eq!(report.cycles(), 8);
/// let trace = report.probe::<ActivityProbe>().unwrap().trace();
/// assert!(trace.node(y.index()).transitions() > 0);
/// assert!(report.probe::<VcdProbe>().unwrap().vcd().is_some());
/// # Ok(())
/// # }
/// ```
pub struct SimSession<'a> {
    netlist: &'a Netlist,
    delay: Box<dyn DelayModel + 'a>,
    /// The data-only description of `delay`, kept while the model came from
    /// a [`DelayKind`]; [`SimSession::record_baseline`] needs it so the
    /// recorded baseline can reconstruct the same model for re-runs.
    delay_kind: Option<DelayKind>,
    options: SimOptions,
    probes: Vec<Box<dyn Probe>>,
    stimulus: Option<Box<dyn Iterator<Item = InputAssignment> + 'a>>,
    quiet_cycles: Option<std::sync::Arc<Vec<bool>>>,
}

impl<'a> SimSession<'a> {
    /// Starts a session on a netlist with the unit-delay model, no probes
    /// and an empty stimulus.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        SimSession {
            netlist,
            delay: DelayKind::Unit.into_model(),
            delay_kind: Some(DelayKind::Unit),
            options: SimOptions::default(),
            probes: Vec::new(),
            stimulus: None,
            quiet_cycles: None,
        }
    }

    /// Selects one of the standard delay models.
    #[must_use]
    pub fn delay(mut self, kind: DelayKind) -> Self {
        self.delay = kind.clone().into_model();
        self.delay_kind = Some(kind);
        self
    }

    /// Uses an arbitrary delay model (the trait is dyn-compatible, so the
    /// session owns it type-erased). Sessions configured this way cannot
    /// [`SimSession::record_baseline`] — express custom tables as
    /// [`DelayKind::Custom`] instead when a replayable baseline is needed.
    #[must_use]
    pub fn delay_model(mut self, model: impl DelayModel + 'a) -> Self {
        self.delay = Box::new(model);
        self.delay_kind = None;
        self
    }

    /// Overrides the simulator options (settle budget, default flipflop
    /// reset value).
    #[must_use]
    pub fn options(mut self, options: SimOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the stimulus program: one [`InputAssignment`] per clock cycle.
    #[must_use]
    pub fn stimulus<I>(mut self, stimulus: I) -> Self
    where
        I: IntoIterator<Item = InputAssignment>,
        I::IntoIter: 'a,
    {
        self.stimulus = Some(Box::new(stimulus.into_iter()));
        self
    }

    /// Marks cycles proven *functionally quiet* by a kernel prepass
    /// ([`crate::kernel_prepass`]): cycle `c` with `quiet[c] == true` is
    /// replayed as an empty cycle — the stimulus vector is still drawn
    /// (the PRNG stream stays aligned with a full run), but the event
    /// queue never runs and the probes observe zero transitions with
    /// [`CycleStats::default`]. Soundness is the caller's responsibility:
    /// a flag may only be set when no constant, primary input or flipflop
    /// output changes at that cycle boundary, which is exactly what the
    /// prepass proves. Cycles beyond the flag vector run normally.
    #[must_use]
    pub fn quiet_cycles(mut self, quiet: std::sync::Arc<Vec<bool>>) -> Self {
        self.quiet_cycles = Some(quiet);
        self
    }

    /// Attaches an observer; probes see events in attachment order.
    #[must_use]
    pub fn probe(mut self, probe: impl Probe) -> Self {
        self.probes.push(Box::new(probe));
        self
    }

    /// Attaches an already-boxed observer (for probe lists built at
    /// runtime).
    #[must_use]
    pub fn boxed_probe(mut self, probe: Box<dyn Probe>) -> Self {
        self.probes.push(probe);
        self
    }

    /// Runs the stimulus through the simulator exactly once and collects
    /// every probe's output.
    ///
    /// # Errors
    ///
    /// Returns a [`SessionError`] wrapping [`SimError::InvalidNetlist`] if
    /// the netlist fails structural validation, or wrapping the first cycle
    /// error ([`SimError::NotAnInput`], [`SimError::DidNotSettle`])
    /// otherwise. The error carries a [`SessionReport`] with everything the
    /// probes observed before the failure — the cycles leading up to a
    /// non-settling cycle are usually exactly the diagnostics needed.
    pub fn run(self) -> Result<SessionReport, SessionError> {
        let mut sim = match ClockedSimulator::with_options(self.netlist, self.delay, self.options) {
            Ok(sim) => sim,
            Err(error) => {
                // Construction failed before the probes were started; hand
                // them back untouched (no `on_run_start`, no `on_run_end`).
                return Err(SessionError {
                    error,
                    report: Box::new(SessionReport {
                        cycles: 0,
                        cycle_stats: Vec::new(),
                        final_values: vec![Value::X; self.netlist.net_count()],
                        probes: self.probes,
                        queue: QueueStats::default(),
                        timed: None,
                        wall_micros: 0,
                        queue_wait_micros: 0,
                    }),
                });
            }
        };
        let started = std::time::Instant::now();
        for probe in self.probes {
            sim.attach_probe(probe);
        }
        let mut cycle_stats = Vec::new();
        let mut failure = None;
        if let Some(stimulus) = self.stimulus {
            let quiet = self.quiet_cycles;
            for (cycle, assignment) in stimulus.enumerate() {
                let skip = quiet
                    .as_ref()
                    .is_some_and(|q| q.get(cycle).copied().unwrap_or(false));
                if skip {
                    // The vector was drawn (keeping the stimulus PRNG in
                    // step with a full run) but provably changes nothing:
                    // replay the cycle empty instead of settling it.
                    drop(assignment);
                    sim.replay_cycle(&[], &CycleStats::default());
                    cycle_stats.push(CycleStats::default());
                    continue;
                }
                match sim.step(assignment) {
                    Ok(stats) => cycle_stats.push(stats),
                    Err(error) => {
                        failure = Some(error);
                        break;
                    }
                }
            }
        }
        let queue = sim.queue_stats();
        let probes = sim.detach_probes();
        let final_values = (0..self.netlist.net_count())
            .map(|i| sim.net_value(NetId::from_index(i)))
            .collect();
        let report = SessionReport {
            cycles: sim.cycle_count(),
            cycle_stats,
            final_values,
            probes,
            queue,
            timed: None,
            wall_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            queue_wait_micros: 0,
        };
        match failure {
            None => Ok(report),
            Some(error) => Err(SessionError {
                error,
                report: Box::new(report),
            }),
        }
    }

    /// Runs the session exactly like [`SimSession::run`] while additionally
    /// recording a [`crate::SimBaseline`]: the per-cycle stimulus,
    /// transition stream and statistics an [`crate::IncrementalSession`]
    /// needs to later re-simulate *nearby* stimuli by replaying unchanged
    /// cycles and re-evaluating only dirty fanout cones.
    ///
    /// # Errors
    ///
    /// As for [`SimSession::run`]; a failed run yields no baseline.
    ///
    /// # Panics
    ///
    /// Panics if the session's delay model was installed with
    /// [`SimSession::delay_model`] — the baseline must be able to
    /// reconstruct the model, so use [`SimSession::delay`] with a
    /// [`DelayKind`] (including [`DelayKind::Custom`]) instead.
    pub fn record_baseline(self) -> Result<(SessionReport, crate::SimBaseline), SessionError> {
        let delay_kind = self.delay_kind.expect(
            "record_baseline requires a DelayKind-configured session; \
             use SimSession::delay (DelayKind::Custom covers custom tables)",
        );
        crate::incremental::record_baseline(
            self.netlist,
            delay_kind,
            self.options,
            self.probes,
            self.stimulus,
        )
    }
}

/// A failed [`SimSession::run`], carrying everything observed before the
/// failure.
///
/// The probes in [`SessionError::report`] have had their `on_run_end`
/// hooks fired (unless the simulator could not even be constructed), so
/// their artefacts — the waveform of the cycles leading up to a
/// non-settling cycle, say — are fully rendered and retrievable. The
/// conversion into [`SimError`] drops the report, which keeps `?` working
/// in code that only cares about the error.
#[derive(Debug)]
pub struct SessionError {
    /// The simulator error that stopped the run.
    pub error: SimError,
    /// Everything the probes observed up to the failing cycle (boxed to
    /// keep the `Err` variant small on the happy path).
    pub report: Box<SessionReport>,
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} complete cycles observed before the failure)",
            self.error,
            self.report.cycles()
        )
    }
}

impl std::error::Error for SessionError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<SessionError> for SimError {
    fn from(e: SessionError) -> Self {
        e.error
    }
}

impl std::fmt::Debug for SimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSession")
            .field("netlist", &self.netlist.name())
            .field("probes", &self.probes.len())
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

/// The aggregated result of one [`SimSession::run`]: per-cycle statistics,
/// final net values and every attached probe, retrievable by type.
pub struct SessionReport {
    cycles: u64,
    cycle_stats: Vec<CycleStats>,
    final_values: Vec<Value>,
    probes: Vec<Box<dyn Probe>>,
    queue: QueueStats,
    timed: Option<TimedWork>,
    wall_micros: u64,
    queue_wait_micros: u64,
}

impl SessionReport {
    /// Assembles a report from its parts — for in-crate drivers (baseline
    /// recording, incremental re-simulation) that step the simulator
    /// themselves instead of going through [`SimSession::run`].
    pub(crate) fn from_parts(
        cycles: u64,
        cycle_stats: Vec<CycleStats>,
        final_values: Vec<Value>,
        probes: Vec<Box<dyn Probe>>,
    ) -> Self {
        SessionReport {
            cycles,
            cycle_stats,
            final_values,
            probes,
            queue: QueueStats::default(),
            timed: None,
            wall_micros: 0,
            queue_wait_micros: 0,
        }
    }

    /// Attaches the simulator's cumulative event-queue statistics — for
    /// in-crate drivers assembling reports via
    /// [`SessionReport::from_parts`].
    pub(crate) fn set_queue_stats(&mut self, queue: QueueStats) {
        self.queue = queue;
    }

    /// Marks the report as settled on the timed kernel, with its work.
    pub(crate) fn set_timed_work(&mut self, work: TimedWork) {
        self.timed = Some(work);
    }

    /// Records the run's observed timing (for the parallel runner, which
    /// measures each shard on the worker thread): the wall-clock duration
    /// and how long the job waited from batch start to being picked up.
    pub(crate) fn set_timing(&mut self, wall_micros: u64, queue_wait_micros: u64) {
        self.wall_micros = wall_micros;
        self.queue_wait_micros = queue_wait_micros;
    }

    /// Number of clock cycles the single pass simulated.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Number of simulation passes behind this report. A session runs its
    /// stimulus exactly once, so this is always 1 — the invariant the
    /// session API exists to enforce.
    #[must_use]
    pub fn passes(&self) -> u64 {
        1
    }

    /// Per-cycle statistics, in cycle order.
    #[must_use]
    pub fn cycle_stats(&self) -> &[CycleStats] {
        &self.cycle_stats
    }

    /// Total signal transitions over all cycles.
    #[must_use]
    pub fn total_transitions(&self) -> u64 {
        self.cycle_stats.iter().map(|s| s.transitions).sum()
    }

    /// Total simulator events processed over all cycles.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.cycle_stats.iter().map(|s| s.events).sum()
    }

    /// The worst intra-cycle settle time observed.
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.cycle_stats
            .iter()
            .map(|s| s.settle_time)
            .max()
            .unwrap_or(0)
    }

    /// Total combinational cell evaluations over all cycles.
    #[must_use]
    pub fn total_cell_evals(&self) -> u64 {
        self.cycle_stats.iter().map(|s| s.cell_evals).sum()
    }

    /// Cumulative event-queue traffic of the run (deterministic).
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        self.queue
    }

    /// The timed kernel's work when the run settled there instead of on
    /// the event queue ([`crate::ParallelRunner::run_jobs`]); `None` for
    /// an event-driven run. Deterministic, but it describes how the run
    /// executed, not what it found.
    #[must_use]
    pub fn timed_work(&self) -> Option<TimedWork> {
        self.timed
    }

    /// Wall-clock duration of the simulation pass, in microseconds.
    /// Non-deterministic — display and trace material, never folded into
    /// equality-checked aggregates.
    #[must_use]
    pub fn wall_micros(&self) -> u64 {
        self.wall_micros
    }

    /// How long the run waited before starting, in microseconds: 0 for a
    /// direct run, the time from batch start to worker pickup for a shard
    /// of a parallel batch. Non-deterministic, like
    /// [`SessionReport::wall_micros`].
    #[must_use]
    pub fn queue_wait_micros(&self) -> u64 {
        self.queue_wait_micros
    }

    /// The value a net held when the run ended.
    #[must_use]
    pub fn net_value(&self, net: NetId) -> Value {
        self.final_values[net.index()]
    }

    /// Final value of a net as a `bool`, or `None` when it is `X`.
    #[must_use]
    pub fn net_bool(&self, net: NetId) -> Option<bool> {
        self.net_value(net).to_bool()
    }

    /// Final value of a bus as an unsigned integer (LSB first), or `None`
    /// if any bit is `X`.
    #[must_use]
    pub fn bus_value(&self, bus: &Bus) -> Option<u64> {
        let mut out = 0u64;
        for (i, &bit) in bus.bits().iter().enumerate() {
            match self.net_value(bit) {
                Value::One => out |= 1 << i,
                Value::Zero => {}
                Value::X => return None,
            }
        }
        Some(out)
    }

    /// Borrows the first attached probe of type `T`.
    #[must_use]
    pub fn probe<T: Probe>(&self) -> Option<&T> {
        self.probes.iter().find_map(|p| {
            let any: &dyn Any = p.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// Mutably borrows the first attached probe of type `T`.
    #[must_use]
    pub fn probe_mut<T: Probe>(&mut self) -> Option<&mut T> {
        self.probes.iter_mut().find_map(|p| {
            let any: &mut dyn Any = p.as_mut();
            any.downcast_mut::<T>()
        })
    }

    /// Removes and returns the first attached probe of type `T`.
    #[must_use]
    pub fn take_probe<T: Probe>(&mut self) -> Option<T> {
        let index = self.probes.iter().position(|p| {
            let any: &dyn Any = p.as_ref();
            any.is::<T>()
        })?;
        let probe: Box<dyn Any> = self.probes.remove(index);
        Some(*probe.downcast::<T>().expect("type checked above"))
    }

    /// Number of probes still held by the report.
    #[must_use]
    pub fn probe_count(&self) -> usize {
        self.probes.len()
    }
}

impl std::fmt::Debug for SessionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionReport")
            .field("cycles", &self.cycles)
            .field("probes", &self.probes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::CellDelay;
    use crate::probe::{ActivityProbe, VcdProbe};
    use crate::stimulus::RandomStimulus;

    fn xor_netlist() -> (Netlist, Bus) {
        let mut nl = Netlist::new("s");
        let a = nl.add_input_bus("a", 4);
        let b = nl.add_input_bus("b", 4);
        let mut outs = Vec::new();
        for i in 0..4 {
            outs.push(nl.xor2(a.bit(i), b.bit(i), &format!("y{i}")));
        }
        for &y in &outs {
            nl.mark_output(y);
        }
        let mut bits = a.bits().to_vec();
        bits.extend_from_slice(b.bits());
        (nl, Bus::new(bits))
    }

    #[test]
    fn session_runs_once_and_aggregates_probe_outputs() {
        let (nl, inputs) = xor_netlist();
        let report = SimSession::new(&nl)
            .delay(DelayKind::Unit)
            .stimulus(RandomStimulus::new(vec![inputs], 20, 11))
            .probe(ActivityProbe::new())
            .probe(VcdProbe::default())
            .run()
            .unwrap();
        assert_eq!(report.cycles(), 20);
        assert_eq!(report.passes(), 1);
        assert_eq!(report.cycle_stats().len(), 20);
        assert!(report.total_transitions() > 0);
        assert!(report.total_events() > 0);
        assert!(report.max_settle_time() >= 1);
        assert_eq!(report.probe_count(), 2);
        assert_eq!(
            report.probe::<ActivityProbe>().unwrap().trace().cycles(),
            20
        );
    }

    #[test]
    fn report_carries_queue_stats_and_wall_time() {
        let (nl, inputs) = xor_netlist();
        let report = SimSession::new(&nl)
            .delay(DelayKind::Unit)
            .stimulus(RandomStimulus::new(vec![inputs], 20, 11))
            .run()
            .unwrap();
        let queue = report.queue_stats();
        assert!(queue.pushes > 0);
        assert_eq!(
            queue.pops,
            report.total_events(),
            "every event delivered to the delta loop was popped"
        );
        assert!(queue.peak_depth >= 1);
        assert!(report.total_cell_evals() > 0);
        assert_eq!(report.queue_wait_micros(), 0, "direct runs never wait");
        // Wall time is non-deterministic; only its presence is asserted.
        let _ = report.wall_micros();
    }

    #[test]
    fn queue_stats_are_deterministic_across_runs() {
        let (nl, inputs) = xor_netlist();
        let run = || {
            SimSession::new(&nl)
                .delay(DelayKind::Unit)
                .stimulus(RandomStimulus::new(vec![inputs.clone()], 30, 7))
                .run()
                .unwrap()
                .queue_stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn take_probe_removes_and_returns_typed_probe() {
        let (nl, inputs) = xor_netlist();
        let mut report = SimSession::new(&nl)
            .stimulus(RandomStimulus::new(vec![inputs], 5, 3))
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        let probe = report.take_probe::<ActivityProbe>().unwrap();
        assert_eq!(probe.trace().cycles(), 5);
        assert!(report.take_probe::<ActivityProbe>().is_none());
        assert!(report.probe::<VcdProbe>().is_none());
        assert_eq!(report.probe_count(), 0);
    }

    #[test]
    fn custom_delay_model_by_value_is_accepted() {
        let (nl, inputs) = xor_netlist();
        let report = SimSession::new(&nl)
            .delay_model(CellDelay::new().with_default(3))
            .stimulus(RandomStimulus::new(vec![inputs], 4, 9))
            .run()
            .unwrap();
        // Every XOR settles after exactly one 3-unit gate delay.
        assert_eq!(report.max_settle_time(), 3);
    }

    #[test]
    fn final_values_are_readable_from_the_report() {
        let mut nl = Netlist::new("f");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let report = SimSession::new(&nl)
            .stimulus([InputAssignment::new().with(a, true)])
            .run()
            .unwrap();
        assert_eq!(report.net_bool(a), Some(true));
        assert_eq!(report.net_bool(y), Some(false));
        assert_eq!(report.bus_value(&Bus::new(vec![a])), Some(1));
    }

    #[test]
    fn empty_stimulus_is_a_zero_cycle_run() {
        let (nl, _) = xor_netlist();
        let report = SimSession::new(&nl)
            .probe(ActivityProbe::new())
            .run()
            .unwrap();
        assert_eq!(report.cycles(), 0);
        assert_eq!(report.total_transitions(), 0);
        assert!(format!("{report:?}").contains("SessionReport"));
    }

    #[test]
    fn invalid_netlist_fails_at_run() {
        let mut nl = Netlist::new("bad");
        let floating = nl.add_net("floating");
        let y = nl.inv(floating, "y");
        nl.mark_output(y);
        let err = SimSession::new(&nl)
            .probe(ActivityProbe::new())
            .run()
            .unwrap_err();
        assert!(matches!(err.error, SimError::InvalidNetlist(_)));
        // The probes come back even though the simulator never ran.
        assert_eq!(err.report.probe_count(), 1);
        assert!(!SimError::from(err).to_string().is_empty());
    }

    #[test]
    fn failed_run_keeps_the_cycles_observed_so_far() {
        // An inverter chain that needs 5 time units against a budget of 3:
        // the first (empty) cycle settles instantly, the second errors.
        let mut nl = Netlist::new("slow");
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..5 {
            cur = nl.inv(cur, &format!("i{i}"));
        }
        nl.mark_output(cur);
        let options = crate::SimOptions {
            settle_budget: 3,
            ..Default::default()
        };
        let err = SimSession::new(&nl)
            .options(options)
            .probe(ActivityProbe::new())
            .probe(VcdProbe::default())
            .stimulus([InputAssignment::new(), InputAssignment::new().with(a, true)])
            .run()
            .unwrap_err();
        assert!(matches!(err.error, SimError::DidNotSettle { .. }));
        assert!(err.to_string().contains("1 complete cycles"));
        let report = err.report;
        assert_eq!(report.cycles(), 1, "one cycle completed before failing");
        assert_eq!(report.cycle_stats().len(), 1);
        // The probes survived and ran their on_run_end hooks: the activity
        // trace covers the completed cycle only, and the VCD is rendered.
        let trace = report.probe::<ActivityProbe>().unwrap().trace();
        assert_eq!(trace.cycles(), 1);
        assert!(report.probe::<VcdProbe>().unwrap().vcd().is_some());
    }

    #[test]
    fn failed_cycle_does_not_leak_counts_into_the_next_one() {
        // A fast path (one inverter) next to a slow path (a deep chain)
        // that busts the settle budget when its input leaves X. The failed
        // cycle makes *countable* transitions on the fast path before the
        // slow path errors; they must not leak into the next recorded
        // cycle.
        let mut nl = Netlist::new("leak");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let fast = nl.inv(a, "fast");
        nl.mark_output(fast);
        let mut cur = b;
        for i in 0..5 {
            cur = nl.inv(cur, &format!("i{i}"));
        }
        nl.mark_output(cur);
        let options = crate::SimOptions {
            settle_budget: 3,
            ..Default::default()
        };
        let mut sim = ClockedSimulator::with_options(&nl, crate::UnitDelay, options).unwrap();
        sim.attach_probe(Box::new(ActivityProbe::new()));
        // Cycle 1: only the fast path initialises out of X; settles at t=1.
        sim.step(InputAssignment::new().with(a, true)).unwrap();
        // Cycle 2: the fast path toggles (counted at t=0/t=1) and the slow
        // path's X-propagation exceeds the budget — the cycle errors.
        let err = sim
            .step(InputAssignment::new().with(a, false).with(b, true))
            .unwrap_err();
        assert!(matches!(err, SimError::DidNotSettle { .. }));
        // Cycle 3: nothing changes; settles instantly with zero activity.
        sim.step(InputAssignment::new()).unwrap();
        let probe = sim.probe_ref::<ActivityProbe>().unwrap();
        assert_eq!(probe.trace().cycles(), 2, "only completed cycles record");
        assert_eq!(
            probe.trace().totals().transitions,
            0,
            "the failed cycle's partial transitions must not be recorded"
        );
        assert_eq!(probe.rising_transitions(fast), 0);
    }
}
