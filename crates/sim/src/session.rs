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
    options: SimOptions,
    probes: Vec<Box<dyn Probe>>,
    stimulus: Option<Box<dyn Iterator<Item = InputAssignment> + 'a>>,
}

impl<'a> SimSession<'a> {
    /// Starts a session on a netlist with the unit-delay model, no probes
    /// and an empty stimulus.
    #[must_use]
    pub fn new(netlist: &'a Netlist) -> Self {
        SimSession {
            netlist,
            delay: DelayKind::Unit.into_model(),
            options: SimOptions::default(),
            probes: Vec::new(),
            stimulus: None,
        }
    }

    /// Selects one of the standard delay models.
    #[must_use]
    pub fn delay(mut self, kind: DelayKind) -> Self {
        self.delay = kind.into_model();
        self
    }

    /// Uses an arbitrary delay model (the trait is dyn-compatible, so the
    /// session owns it type-erased).
    #[must_use]
    pub fn delay_model(mut self, model: impl DelayModel + 'a) -> Self {
        self.delay = Box::new(model);
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
    /// Returns [`SimError::InvalidNetlist`] if the netlist fails structural
    /// validation, or the first cycle error ([`SimError::NotAnInput`],
    /// [`SimError::DidNotSettle`]) otherwise.
    pub fn run(self) -> Result<SessionReport, SimError> {
        let mut sim = ClockedSimulator::with_options(self.netlist, self.delay, self.options)?;
        let started = std::time::Instant::now();
        for probe in self.probes {
            sim.attach_probe(probe);
        }
        let mut cycle_stats = Vec::new();
        if let Some(stimulus) = self.stimulus {
            for assignment in stimulus {
                cycle_stats.push(sim.step(assignment)?);
            }
        }
        let queue = sim.queue_stats();
        let probes = sim.detach_probes();
        let final_values = (0..self.netlist.net_count())
            .map(|i| sim.net_value(NetId::from_index(i)))
            .collect();
        Ok(SessionReport {
            cycles: sim.cycle_count(),
            statistics: Some(Statistics {
                cycles: cycle_stats,
                queue,
            }),
            final_values,
            probes,
            timed: None,
            wall_micros: u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX),
            queue_wait_micros: 0,
        })
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
///
/// A job settled on the timed kernel without statistics
/// ([`crate::SimJob::statistics`]) has none, and its statistics readers
/// ([`SessionReport::cycle_stats`] and the totals and queue traffic derived
/// from it) panic rather than report zeros.
pub struct SessionReport {
    cycles: u64,
    statistics: Option<Statistics>,
    final_values: Vec<Value>,
    probes: Vec<Box<dyn Probe>>,
    timed: Option<TimedWork>,
    wall_micros: u64,
    queue_wait_micros: u64,
}

/// What a run counted beside its results: each cycle's statistics and
/// the event-queue traffic.
#[derive(Debug, Default)]
struct Statistics {
    cycles: Vec<CycleStats>,
    queue: QueueStats,
}

impl SessionReport {
    /// Assembles a report from its parts — for in-crate drivers (the timed
    /// and functional kernels) that settle cycles themselves instead of
    /// going through [`SimSession::run`]. `statistics` holds the per-cycle
    /// statistics and the queue traffic, when the run counted them.
    pub(crate) fn from_parts(
        cycles: u64,
        statistics: Option<(Vec<CycleStats>, QueueStats)>,
        final_values: Vec<Value>,
        probes: Vec<Box<dyn Probe>>,
    ) -> Self {
        SessionReport {
            cycles,
            statistics: statistics.map(|(cycles, queue)| Statistics { cycles, queue }),
            final_values,
            probes,
            timed: None,
            wall_micros: 0,
            queue_wait_micros: 0,
        }
    }

    /// The run's statistics.
    ///
    /// # Panics
    ///
    /// Panics when the run was settled without them.
    fn statistics(&self) -> &Statistics {
        self.statistics.as_ref().expect(
            "this run was settled on the timed kernel without per-cycle statistics \
             (events, cell evaluations, settle times, queue traffic); build its job \
             with `SimJob::with_statistics(true)` to read them",
        )
    }

    /// Whether the run counted its per-cycle statistics and queue traffic
    /// ([`crate::SimJob::statistics`]), so that their readers below may be
    /// called.
    #[must_use]
    pub fn has_statistics(&self) -> bool {
        self.statistics.is_some()
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
    ///
    /// # Panics
    ///
    /// Panics when the run was settled without statistics
    /// ([`crate::SimJob::statistics`]), as do the five readers below.
    #[must_use]
    pub fn cycle_stats(&self) -> &[CycleStats] {
        &self.statistics().cycles
    }

    /// Total signal transitions over all cycles.
    #[must_use]
    pub fn total_transitions(&self) -> u64 {
        self.cycle_stats().iter().map(|s| s.transitions).sum()
    }

    /// Total simulator events processed over all cycles.
    #[must_use]
    pub fn total_events(&self) -> u64 {
        self.cycle_stats().iter().map(|s| s.events).sum()
    }

    /// The worst intra-cycle settle time observed.
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.cycle_stats()
            .iter()
            .map(|s| s.settle_time)
            .max()
            .unwrap_or(0)
    }

    /// Total combinational cell evaluations over all cycles.
    #[must_use]
    pub fn total_cell_evals(&self) -> u64 {
        self.cycle_stats().iter().map(|s| s.cell_evals).sum()
    }

    /// Cumulative event-queue traffic of the run (deterministic).
    #[must_use]
    pub fn queue_stats(&self) -> QueueStats {
        self.statistics().queue
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
        assert!(matches!(err, SimError::InvalidNetlist(_)));
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn failed_run_returns_the_cycle_error() {
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
        assert!(
            matches!(err, SimError::DidNotSettle { cycle: 1, .. }),
            "{err}"
        );
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
