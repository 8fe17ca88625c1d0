//! Input flips: the configured run's stimulus with a few bits changed.
//!
//! An input-flip study asks how the paper's per-net transition counts
//! change when the stimulus differs in a handful of bits. The answer is
//! one more ordinary run:
//!
//! * [`SimBaseline`] — the configured run's stimulus (random buses, held
//!   inputs, seed and cycle count), which flips are resolved against;
//! * [`DeltaStimulus`] — the changed input bits, per cycle;
//!   [`DeltaStimulus::apply_to`] defines the flipped stimulus cycle by
//!   cycle, and [`crate::SimJob::with_flips`] applies it to a job's
//!   stimulus, so the flipped run settles on the event queue or the timed
//!   kernel like any other job.
//!
//! Nothing is replayed or pruned: the flipped run simulates every cycle,
//! so it cannot drift from a full simulation of the flipped stimulus.
//! *Unfaithful Glitch Propagation in Existing Binary Circuit Models*
//! (Függer, Nowak, Schmid) documents how easily event-pruning shortcuts
//! silently change glitch behaviour.

use glitch_netlist::{Bus, NetId};

use crate::clocked::InputAssignment;
use crate::error::SimError;
use crate::parallel::{random_stimulus, SimJob};
use crate::value::Value;

// ---------------------------------------------------------------- baseline

/// The stimulus of a configured run, the anchor input flips are resolved
/// against (an unforced flip inverts the baseline's value).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimBaseline {
    random_buses: Vec<Bus>,
    held: Vec<(NetId, bool)>,
    cycles: u64,
    seed: u64,
}

impl SimBaseline {
    /// The stimulus `job` runs, without its flips.
    #[must_use]
    pub fn of(job: &SimJob<'_>) -> Self {
        SimBaseline {
            random_buses: job.random_buses.clone(),
            held: job.held.clone(),
            cycles: job.cycles,
            seed: job.seed,
        }
    }

    /// Number of cycles of the run.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// The input buses driven with random values.
    #[must_use]
    pub fn random_buses(&self) -> &[Bus] {
        &self.random_buses
    }

    /// The single-bit inputs held constant every cycle.
    #[must_use]
    pub fn held(&self) -> &[(NetId, bool)] {
        &self.held
    }

    /// The stimulus seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The value a primary input takes during `cycle` (the last cycle for
    /// any later one), or [`Value::X`] if the stimulus never drives it.
    #[must_use]
    pub fn input_value(&self, cycle: u64, net: NetId) -> Value {
        let upto = cycle.min(self.cycles.saturating_sub(1));
        random_stimulus(&self.random_buses, &self.held, self.cycles, self.seed)
            .nth(upto as usize)
            .and_then(|assignment| {
                assignment
                    .assignments()
                    .iter()
                    .rev()
                    .find(|&&(assigned, _)| assigned == net)
                    .map(|&(_, value)| Value::from(value))
            })
            .unwrap_or(Value::X)
    }
}

// ------------------------------------------------------------------- delta

/// The input bits a flipped run overrides, per cycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaStimulus {
    sets: Vec<(u64, NetId, bool)>,
}

impl DeltaStimulus {
    /// An empty delta (the flipped run is the configured run).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
    /// Overrides one input bit in one cycle (builder style).
    ///
    /// # Panics
    ///
    /// Panics if the same `(cycle, net)` pair is already overridden — a
    /// silent last-write-wins would discard the earlier value. Use
    /// [`DeltaStimulus::try_set`] to handle the duplicate as a recoverable
    /// error (CLI flip lists do).
    #[must_use]
    pub fn set(self, cycle: u64, net: NetId, value: bool) -> Self {
        match self.try_set(cycle, net, value) {
            Ok(delta) => delta,
            Err(error) => panic!("{error}"),
        }
    }

    /// Overrides one input bit in one cycle, rejecting duplicates.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::DuplicateDelta`] (with the offending cycle and
    /// net) if this `(cycle, net)` pair already has an override.
    pub fn try_set(mut self, cycle: u64, net: NetId, value: bool) -> Result<Self, SimError> {
        if self.overrides(cycle, net) {
            return Err(SimError::DuplicateDelta { cycle, net });
        }
        self.sets.push((cycle, net, value));
        Ok(self)
    }

    /// Whether an override for `(cycle, net)` already exists.
    #[must_use]
    pub fn overrides(&self, cycle: u64, net: NetId) -> bool {
        self.sets.iter().any(|&(c, n, _)| c == cycle && n == net)
    }

    /// `true` when the delta changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }

    /// The overrides as `(cycle, net, value)`, in insertion order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u64, NetId, bool)> + '_ {
        self.sets.iter().copied()
    }

    /// The largest cycle any override targets.
    #[must_use]
    pub fn max_cycle(&self) -> Option<u64> {
        self.sets.iter().map(|&(c, _, _)| c).max()
    }

    /// Applies the delta to one cycle's assignment, producing the
    /// assignment the flipped stimulus uses for that cycle: overridden
    /// nets are replaced in place (every occurrence), in insertion order,
    /// and overrides of nets the cycle does not assign are appended.
    ///
    /// This is the *definition* of the flipped stimulus.
    #[must_use]
    pub fn apply_to(&self, cycle: u64, base: &InputAssignment) -> InputAssignment {
        let mut entries: Vec<(NetId, bool)> = base.assignments().to_vec();
        for &(_, net, value) in self.sets.iter().filter(|&&(c, _, _)| c == cycle) {
            let mut found = false;
            for entry in &mut entries {
                if entry.0 == net {
                    entry.1 = value;
                    found = true;
                }
            }
            if !found {
                entries.push((net, value));
            }
        }
        let mut merged = InputAssignment::new();
        for (net, value) in entries {
            merged.set(net, value);
        }
        merged
    }
}

// ----------------------------------------------------------------- stats

/// The work split of a flipped run. Every cycle of it is simulated, so
/// `replayed_cycles` is always 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IncrementalStats {
    /// Cycles served without simulating them (none).
    pub replayed_cycles: u64,
    /// Cycles simulated.
    pub simulated_cycles: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_netlist::Netlist;

    fn xor_pair() -> (Netlist, NetId, NetId, NetId) {
        let mut nl = Netlist::new("inc unit");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.xor2(a, b, "y");
        nl.mark_output(y);
        (nl, a, b, y)
    }

    #[test]
    fn baseline_input_value_resolves_held_over_assignments() {
        let (nl, a, b, _) = xor_pair();
        let job = SimJob::new(&nl, vec![Bus::new(vec![a])], 6, 7).with_held(vec![(b, true)]);
        let baseline = SimBaseline::of(&job);
        assert_eq!(baseline.cycle_count(), 6);
        let stimulus: Vec<InputAssignment> = job.stimulus().collect();
        for (cycle, assignment) in stimulus.iter().enumerate() {
            let drawn = Value::from(assignment.assignments()[0].1);
            assert_eq!(baseline.input_value(cycle as u64, a), drawn);
            assert_eq!(baseline.input_value(cycle as u64, b), Value::One, "held");
        }
        // Cycles past the run read its last cycle.
        assert_eq!(
            baseline.input_value(99, a),
            Value::from(stimulus[5].assignments()[0].1)
        );
        let (_, _, _, y) = xor_pair();
        assert_eq!(baseline.input_value(0, y), Value::X, "never driven");
    }

    /// The activity trace of each job of `jobs`, run on the event path.
    fn traces(jobs: &[SimJob<'_>]) -> Result<Vec<glitch_activity::ActivityTrace>, SimError> {
        let reports = crate::ParallelRunner::new(1).run_sessions(jobs)?;
        Ok(reports
            .iter()
            .map(|r| r.probe::<crate::ActivityProbe>().unwrap().trace().clone())
            .collect())
    }

    #[test]
    fn flip_equal_to_the_baseline_value_is_a_full_replay() {
        let (nl, a, b, _) = xor_pair();
        let job = SimJob::new(&nl, vec![Bus::new(vec![a, b])], 12, 3);
        let held = SimBaseline::of(&job).input_value(4, a) == Value::One;
        let same = job.clone().with_flips(DeltaStimulus::new().set(4, a, held));
        let flipped = job
            .clone()
            .with_flips(DeltaStimulus::new().set(4, a, !held));
        let traces = traces(&[job, same, flipped]).unwrap();
        assert_eq!(traces[1], traces[0], "a no-op flip reproduces the run");
        assert_ne!(traces[2], traces[0], "a real flip changes it");
    }

    #[test]
    fn delta_beyond_the_baseline_is_an_error() {
        let (nl, a, b, _) = xor_pair();
        let job = SimJob::new(&nl, vec![Bus::new(vec![a, b])], 5, 1)
            .with_flips(DeltaStimulus::new().set(5, a, true));
        let err = traces(&[job]).unwrap_err();
        assert_eq!(
            err,
            SimError::DeltaOutOfRange {
                cycle: 5,
                baseline_cycles: 5
            }
        );
        assert!(err.to_string().contains("the run has only 5 cycles"));
    }

    #[test]
    fn delta_on_a_non_input_is_an_error() {
        let (nl, a, b, y) = xor_pair();
        let job = SimJob::new(&nl, vec![Bus::new(vec![a, b])], 5, 1)
            .with_flips(DeltaStimulus::new().set(1, y, true));
        assert_eq!(traces(&[job]).unwrap_err(), SimError::NotAnInput(y));
    }

    #[test]
    fn duplicate_delta_overrides_are_rejected_with_location() {
        let (_, a, b, _) = xor_pair();
        let delta = DeltaStimulus::new().set(3, a, true);
        assert!(delta.overrides(3, a));
        assert!(!delta.overrides(3, b));
        assert!(!delta.overrides(2, a));
        // Same cycle:net again — even with the same value — is an error.
        let err = delta.clone().try_set(3, a, true).unwrap_err();
        assert_eq!(err, SimError::DuplicateDelta { cycle: 3, net: a });
        assert!(err.to_string().contains("twice in cycle 3"));
        // A different cycle or net is fine.
        let delta = delta.try_set(4, a, false).unwrap();
        let delta = delta.try_set(3, b, false).unwrap();
        assert_eq!(delta.max_cycle(), Some(4));
    }

    #[test]
    #[should_panic(expected = "twice in cycle 7")]
    fn duplicate_set_panics_in_builder_form() {
        let (_, a, _, _) = xor_pair();
        let _ = DeltaStimulus::new().set(7, a, true).set(7, a, false);
    }

    #[test]
    fn delta_builders_and_apply_to() {
        let (_, a, b, _) = xor_pair();
        let delta = DeltaStimulus::new().set(2, b, true).set(2, a, false);
        assert!(!delta.is_empty());
        assert_eq!(delta.max_cycle(), Some(2));
        let base = InputAssignment::new().with(a, true).with(b, false);
        // Cycle 2: both overrides apply, replacing in place.
        let merged = delta.apply_to(2, &base);
        assert_eq!(merged.assignments(), [(a, false), (b, true)]);
        // Other cycles: nothing applies.
        let merged = delta.apply_to(0, &base);
        assert_eq!(merged.assignments(), base.assignments());
        // Overrides of unassigned nets append.
        let merged = delta.apply_to(2, &InputAssignment::new().with(b, false));
        assert_eq!(merged.assignments(), [(b, true), (a, false)]);
        assert!(DeltaStimulus::new().is_empty());
        assert_eq!(DeltaStimulus::new().max_cycle(), None);
    }
}
