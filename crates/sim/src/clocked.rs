//! The synchronous, cycle-by-cycle simulation driver.

use glitch_netlist::{Bus, CellId, CellKind, DffInit, NetId, Netlist, Tri};

use crate::delay::DelayModel;
use crate::engine::EventQueue;
use crate::error::SimError;
use crate::probe::{Probe, Transition, TransitionKind};
use crate::stimulus::bit_of;
use crate::value::Value;

/// How combinational cells evaluate when one of their inputs is `X`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum XEval {
    /// Any `X` input forces every (non-constant) output to `X` — the
    /// fastest, maximally conservative rule. `X` only occurs before a net's
    /// first assignment under the default reset policy, so this is the
    /// right default for analysis runs.
    #[default]
    Coarse,
    /// Per-kind three-valued truth tables
    /// ([`CellKind::try_evaluate_tri_into`]): controlling known inputs
    /// dominate unknowns (`AND(0, X) = 0`, `OR(1, X) = 1`, a majority of
    /// two agreeing inputs, …), so `X` regions shrink to the nets whose
    /// value genuinely depends on unknown state. This is what
    /// X-propagation *checking* (`glitch_verify`) runs under: combined
    /// with an all-`X` flipflop reset it simulates uninitialised-state
    /// reachability instead of assuming it away. Evaluation is monotone in
    /// the information order, so every concrete value of a Tri run is
    /// correct for *any* resolution of the unknowns.
    TriTable,
}

/// Options controlling a [`ClockedSimulator`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Value a flipflop without an explicit netlist init state
    /// ([`DffInit::DontCare`]) holds before the first clock cycle.
    pub dff_init: Value,
    /// Maximum settling time (in delay units) allowed per cycle before the
    /// simulator gives up with [`SimError::DidNotSettle`].
    pub settle_budget: u64,
    /// How cells evaluate `X` inputs; see [`XEval`].
    pub x_eval: XEval,
}

impl SimOptions {
    /// The verification preset: flipflops without a netlist-specified init
    /// value power on as `X` and cells evaluate through the three-valued
    /// tables — uninitialised-state reachability is simulated, not
    /// assumed. This is what `glitch-cli check --x-init` runs under.
    #[must_use]
    pub fn x_init() -> Self {
        SimOptions {
            dff_init: Value::X,
            x_eval: XEval::TriTable,
            ..SimOptions::default()
        }
    }
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            dff_init: Value::Zero,
            settle_budget: 1_000_000,
            x_eval: XEval::default(),
        }
    }
}

/// New values for primary inputs, applied at the beginning of a clock cycle.
///
/// Inputs not mentioned keep their previous value (or stay `X` if never
/// assigned).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InputAssignment {
    sets: Vec<(NetId, bool)>,
}

impl InputAssignment {
    /// An assignment that changes nothing.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a single-bit assignment (builder style).
    #[must_use]
    pub fn with(mut self, net: NetId, value: bool) -> Self {
        self.set(net, value);
        self
    }

    /// Adds an unsigned value across a bus, least-significant bit first
    /// (builder style). Bits beyond the bus width are ignored; bus bits
    /// from index 64 on are driven to 0.
    #[must_use]
    pub fn with_bus(mut self, bus: &Bus, value: u64) -> Self {
        self.set_bus(bus, value);
        self
    }

    /// Adds a single-bit assignment.
    pub fn set(&mut self, net: NetId, value: bool) {
        self.sets.push((net, value));
    }

    /// Adds an unsigned value across a bus (LSB first); bits from index
    /// 64 on are driven to 0.
    pub fn set_bus(&mut self, bus: &Bus, value: u64) {
        for (i, &bit) in bus.bits().iter().enumerate() {
            self.set(bit, bit_of(value, i));
        }
    }

    /// The individual bit assignments, in insertion order.
    #[must_use]
    pub fn assignments(&self) -> &[(NetId, bool)] {
        &self.sets
    }

    /// Number of driven bits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sets.len()
    }

    /// `true` when no bit is driven.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sets.is_empty()
    }
}

/// Statistics of one simulated clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CycleStats {
    /// Total signal transitions on all nets during the cycle.
    pub transitions: u64,
    /// Time (in delay units) at which the last event settled.
    pub settle_time: u64,
    /// Number of events processed during the cycle.
    pub events: u64,
    /// Number of combinational cell evaluations the cycle performed.
    pub cell_evals: u64,
}

#[derive(Debug, Clone)]
struct DffInfo {
    d: NetId,
    q: NetId,
    init: Value,
}

/// Event-driven simulator for a single-clock synchronous netlist.
///
/// This is the low-level driver: it resolves a [`DelayModel`] into a
/// per-cell delay table once, at construction, dispatches every observable
/// event to the attached [`Probe`]s, and knows nothing about activity
/// traces, waveforms or power — those are probes.
/// Most callers should use [`crate::SimSession`] instead and only drop down
/// to `ClockedSimulator` for cycle-by-cycle control.
///
/// See the crate-level documentation for the simulation semantics and an
/// example.
pub struct ClockedSimulator<'a> {
    netlist: &'a Netlist,
    options: SimOptions,
    /// Propagation delay of each combinational cell's output pins, indexed
    /// by cell: the delay model's answers, resolved once.
    delays: Vec<[u64; 2]>,
    values: Vec<Value>,
    pending: Vec<Value>,
    /// Net values when the current cycle began; a failed `step` restores
    /// them.
    cycle_start: Vec<Value>,
    dffs: Vec<DffInfo>,
    dff_state: Vec<Value>,
    constants: Vec<(NetId, Value)>,
    cycles: u64,
    queue: EventQueue,
    probes: Vec<Box<dyn Probe>>,
    // Settle-loop scratch, reused across cycles so settling allocates
    // nothing once warmed up.
    events: Vec<(NetId, Value)>,
    changed_nets: Vec<NetId>,
    step_changed: Vec<(NetId, Value)>,
    scratch_cells: Vec<CellId>,
    /// Generation marks de-duplicating nets per time point and cells per
    /// delta iteration; `mark_generation` only grows, so no reset is needed.
    net_mark: Vec<u64>,
    cell_mark: Vec<u64>,
    mark_generation: u64,
}

impl<'a> ClockedSimulator<'a> {
    /// Creates a simulator with default [`SimOptions`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the netlist fails structural
    /// validation (floating nets, combinational loops, …).
    pub fn new(netlist: &'a Netlist, delay: impl DelayModel + 'a) -> Result<Self, SimError> {
        Self::with_options(netlist, delay, SimOptions::default())
    }

    /// Creates a simulator with explicit options.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidNetlist`] if the netlist fails structural
    /// validation.
    pub fn with_options(
        netlist: &'a Netlist,
        delay: impl DelayModel + 'a,
        options: SimOptions,
    ) -> Result<Self, SimError> {
        netlist.validate()?;
        let n = netlist.net_count();
        let dffs: Vec<DffInfo> = netlist
            .dff_cells()
            .map(|id| {
                let cell = netlist.cell(id);
                DffInfo {
                    d: cell.inputs()[0],
                    q: cell.outputs()[0],
                    init: match cell.dff_init() {
                        DffInit::Zero => Value::Zero,
                        DffInit::One => Value::One,
                        DffInit::DontCare => options.dff_init,
                    },
                }
            })
            .collect();
        let dff_state = dffs.iter().map(|ff| ff.init).collect();
        let constants: Vec<(NetId, Value)> = netlist
            .cells()
            .filter_map(|(_, cell)| match cell.kind() {
                CellKind::Const(v) => Some((cell.outputs()[0], Value::from(v))),
                _ => None,
            })
            .collect();
        let delays: Vec<[u64; 2]> = netlist
            .cells()
            .map(|(_, cell)| {
                let mut pins = [0; 2];
                if !cell.is_sequential() {
                    let kind = cell.kind();
                    for (pin, slot) in pins.iter_mut().enumerate().take(kind.output_count()) {
                        *slot = delay.delay(kind, pin);
                    }
                }
                pins
            })
            .collect();
        let horizon = delays.iter().flatten().copied().max().unwrap_or(0);
        Ok(ClockedSimulator {
            netlist,
            options,
            delays,
            values: vec![Value::X; n],
            pending: vec![Value::X; n],
            cycle_start: vec![Value::X; n],
            dffs,
            dff_state,
            constants,
            cycles: 0,
            queue: EventQueue::new(horizon, options.settle_budget),
            probes: Vec::new(),
            events: Vec::new(),
            changed_nets: Vec::new(),
            step_changed: Vec::new(),
            scratch_cells: Vec::new(),
            net_mark: vec![0; n],
            cell_mark: vec![0; netlist.cell_count()],
            mark_generation: 0,
        })
    }

    /// Attaches an observer; its `on_run_start` hook fires immediately.
    pub fn attach_probe(&mut self, mut probe: Box<dyn Probe>) {
        probe.on_run_start(self.netlist);
        self.probes.push(probe);
    }

    /// Detaches every probe, firing each one's `on_run_end` hook.
    pub fn detach_probes(&mut self) -> Vec<Box<dyn Probe>> {
        let mut probes = std::mem::take(&mut self.probes);
        for probe in &mut probes {
            probe.on_run_end(self.netlist);
        }
        probes
    }

    /// Borrows the first attached probe of type `T` (e.g. to inspect an
    /// accumulating trace mid-run).
    #[must_use]
    pub fn probe_ref<T: Probe>(&self) -> Option<&T> {
        self.probes.iter().find_map(|p| {
            let any: &dyn std::any::Any = p.as_ref();
            any.downcast_ref::<T>()
        })
    }

    /// The attached probes, in attachment order.
    #[must_use]
    pub fn probes(&self) -> &[Box<dyn Probe>] {
        &self.probes
    }

    /// The netlist being simulated.
    #[must_use]
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Number of clock cycles simulated so far.
    #[must_use]
    pub fn cycle_count(&self) -> u64 {
        self.cycles
    }

    /// Current value of a net.
    #[must_use]
    pub fn net_value(&self, net: NetId) -> Value {
        self.values[net.index()]
    }

    /// Current value of a net as a `bool`, or `None` when it is `X`.
    #[must_use]
    pub fn net_bool(&self, net: NetId) -> Option<bool> {
        self.values[net.index()].to_bool()
    }

    /// Current value of a bus as an unsigned integer (LSB first), or `None`
    /// if any bit is `X`.
    #[must_use]
    pub fn bus_value(&self, bus: &Bus) -> Option<u64> {
        let mut out = 0u64;
        for (i, &bit) in bus.bits().iter().enumerate() {
            match self.values[bit.index()] {
                Value::One => out |= 1 << i,
                Value::Zero => {}
                Value::X => return None,
            }
        }
        Some(out)
    }

    /// Returns the simulator to its power-on state: every net `X`, every
    /// flipflop back at its netlist init state (or the [`SimOptions`]
    /// default), and the cycle counter at zero. Attached probes are kept
    /// and see the next `step` as a fresh cycle sequence.
    pub fn reset(&mut self) {
        self.values.iter_mut().for_each(|v| *v = Value::X);
        self.pending.iter_mut().for_each(|v| *v = Value::X);
        for (state, ff) in self.dff_state.iter_mut().zip(&self.dffs) {
            *state = ff.init;
        }
        self.queue.clear();
        self.queue.reset_stats();
        self.cycles = 0;
    }

    /// Cumulative event-queue traffic (pushes, pops, peak depth) since
    /// construction or the last [`ClockedSimulator::reset`]. Deterministic:
    /// a pure function of netlist, stimulus and delay model.
    #[must_use]
    pub fn queue_stats(&self) -> crate::QueueStats {
        self.queue.stats()
    }

    /// Simulates one clock cycle: applies the input assignment and the
    /// flipflop outputs at time 0, lets the combinational logic settle and
    /// reports every net transition to the attached probes.
    ///
    /// A failed step leaves the simulator as it found it: the assignment
    /// is validated before anything is scheduled, and a cycle that does not
    /// settle (or fails to evaluate a cell) is rolled back to the net
    /// values it started from, so repeating it fails again. The probes have
    /// seen its `on_cycle_start` and any transitions before the failure,
    /// but no `on_cycle_end`.
    ///
    /// # Errors
    ///
    /// * [`SimError::NotAnInput`] if the assignment drives a non-input net.
    /// * [`SimError::DidNotSettle`] if the logic does not settle within the
    ///   configured budget.
    /// * [`SimError::CellEval`] if a cell cannot be evaluated.
    pub fn step(&mut self, inputs: InputAssignment) -> Result<CycleStats, SimError> {
        let netlist = self.netlist;
        if let Some(&(net, _)) = inputs
            .assignments()
            .iter()
            .find(|&&(net, _)| !netlist.net(net).is_primary_input())
        {
            return Err(SimError::NotAnInput(net));
        }

        self.queue.clear();
        self.cycle_start.copy_from_slice(&self.values);
        for probe in &mut self.probes {
            probe.on_cycle_start(self.cycles);
        }

        // Constant drivers assert their value at the start of every cycle;
        // after the first cycle this is a no-op because the scheduled value
        // never changes.
        for &(net, value) in &self.constants {
            schedule(&mut self.pending, &mut self.queue, 0, net, value);
        }
        for &(net, value) in inputs.assignments() {
            schedule(
                &mut self.pending,
                &mut self.queue,
                0,
                net,
                Value::from(value),
            );
        }
        for (ff, &value) in self.dffs.iter().zip(&self.dff_state) {
            schedule(&mut self.pending, &mut self.queue, 0, ff.q, value);
        }

        let stats = match self.settle() {
            Ok(stats) => stats,
            Err(error) => {
                // Every cycle starts with `pending == values` (a net's
                // events pop in schedule order, as it has a single
                // driver), so the snapshot restores both.
                self.queue.clear();
                self.values.copy_from_slice(&self.cycle_start);
                self.pending.copy_from_slice(&self.cycle_start);
                return Err(error);
            }
        };

        // Sample flipflop inputs at the end of the cycle; they appear on the
        // Q outputs at the start of the next cycle.
        self.sample_dffs();
        for probe in &mut self.probes {
            probe.on_cycle_end(self.cycles, &stats);
        }
        self.cycles += 1;
        Ok(stats)
    }

    /// Delivers the queued events in time order until the logic settles,
    /// reporting each time point's transitions to the probes.
    fn settle(&mut self) -> Result<CycleStats, SimError> {
        let netlist = self.netlist;
        let mut stats = CycleStats::default();
        while let Some(time) = self.queue.earliest_time() {
            stats.settle_time = time;
            // Nets that changed during this time point, with the value they
            // held when it began (marked with `step_mark`): a net
            // transitions at most once per simulated time point, no matter
            // how many zero-delay delta iterations it takes to settle it.
            self.mark_generation += 1;
            let step_mark = self.mark_generation;
            self.step_changed.clear();

            // Delta loop: zero-delay cells keep scheduling at the same time
            // point until the values stabilise.
            while self.queue.pop_at(time, &mut self.events) {
                self.changed_nets.clear();
                for &(net, value) in &self.events {
                    stats.events += 1;
                    let idx = net.index();
                    let old = self.values[idx];
                    if old == value {
                        continue;
                    }
                    if self.net_mark[idx] != step_mark {
                        self.net_mark[idx] = step_mark;
                        self.step_changed.push((net, old));
                    }
                    self.values[idx] = value;
                    self.changed_nets.push(net);
                }

                // Collect combinational cells affected by the changed nets,
                // de-duplicated via a generation-marking trick.
                self.mark_generation += 1;
                self.scratch_cells.clear();
                for &net in &self.changed_nets {
                    for load in netlist.net(net).loads() {
                        let cell = load.cell;
                        if netlist.cell(cell).is_sequential() {
                            continue;
                        }
                        if self.cell_mark[cell.index()] != self.mark_generation {
                            self.cell_mark[cell.index()] = self.mark_generation;
                            self.scratch_cells.push(cell);
                        }
                    }
                }

                let affected = std::mem::take(&mut self.scratch_cells);
                let evaluated = affected.iter().try_for_each(|&cell_id| {
                    stats.cell_evals += 1;
                    self.evaluate_and_schedule(cell_id, time)
                });
                self.scratch_cells = affected;
                evaluated?;
            }

            // Report one transition per net that ended the time step with a
            // different value than it started with.
            for &(net, old) in &self.step_changed {
                let new = self.values[net.index()];
                if old == new {
                    continue;
                }
                let kind = if old.transitions_to(new) {
                    stats.transitions += 1;
                    if old.is_rising_to(new) {
                        TransitionKind::Rise
                    } else {
                        TransitionKind::Fall
                    }
                } else {
                    TransitionKind::Unknown
                };
                let event = Transition {
                    net,
                    cycle: self.cycles,
                    time,
                    value: new,
                    kind,
                };
                for probe in &mut self.probes {
                    probe.on_transition(&event);
                }
            }
        }

        // Every in-budget event has been delivered; an event past the
        // budget means the logic is still moving.
        if self.queue.exceeded_budget() {
            return Err(SimError::DidNotSettle {
                cycle: self.cycles,
                budget: self.options.settle_budget,
            });
        }
        Ok(stats)
    }

    fn sample_dffs(&mut self) {
        for (state, ff) in self.dff_state.iter_mut().zip(&self.dffs) {
            *state = self.values[ff.d.index()];
        }
    }

    fn evaluate_and_schedule(&mut self, cell_id: CellId, time: u64) -> Result<(), SimError> {
        if self.options.x_eval == XEval::TriTable {
            return self.evaluate_and_schedule_tri(cell_id, time);
        }
        let cell = self.netlist.cell(cell_id);
        let kind = cell.kind();
        let delays = self.delays[cell_id.index()];

        // Gather input values; any X makes the (non-constant) outputs X.
        let mut any_x = false;
        let mut input_bits: [bool; 8] = [false; 8];
        let mut input_vec: Vec<bool>;
        let inputs = cell.inputs();
        let bits: &mut [bool] = if inputs.len() <= 8 {
            &mut input_bits[..inputs.len()]
        } else {
            input_vec = vec![false; inputs.len()];
            &mut input_vec
        };
        for (slot, &net) in bits.iter_mut().zip(inputs) {
            match self.values[net.index()] {
                Value::One => *slot = true,
                Value::Zero => *slot = false,
                Value::X => any_x = true,
            }
        }

        if any_x && !matches!(kind, CellKind::Const(_)) {
            for (&out, d) in cell.outputs().iter().zip(delays) {
                schedule(&mut self.pending, &mut self.queue, time + d, out, Value::X);
            }
            return Ok(());
        }

        let mut out_bits = [false; 2];
        kind.try_evaluate_into(bits, &mut out_bits[..kind.output_count()])
            .map_err(|error| SimError::CellEval {
                cell: cell.name().to_string(),
                error,
            })?;
        for ((&out, d), bit) in cell.outputs().iter().zip(delays).zip(out_bits) {
            schedule(
                &mut self.pending,
                &mut self.queue,
                time + d,
                out,
                Value::from(bit),
            );
        }
        Ok(())
    }

    /// The [`XEval::TriTable`] evaluation path: cells evaluate through the
    /// netlist's three-valued tables, so controlling known inputs dominate
    /// unknowns instead of any `X` forcing every output `X`.
    fn evaluate_and_schedule_tri(&mut self, cell_id: CellId, time: u64) -> Result<(), SimError> {
        let cell = self.netlist.cell(cell_id);
        let kind = cell.kind();
        let inputs = cell.inputs();
        let mut input_tris: [Tri; 8] = [Tri::X; 8];
        let mut input_vec: Vec<Tri>;
        let tris: &mut [Tri] = if inputs.len() <= 8 {
            &mut input_tris[..inputs.len()]
        } else {
            input_vec = vec![Tri::X; inputs.len()];
            &mut input_vec
        };
        for (slot, &net) in tris.iter_mut().zip(inputs) {
            *slot = Tri::from(self.values[net.index()]);
        }
        let mut out_tris = [Tri::X; 2];
        kind.try_evaluate_tri_into(tris, &mut out_tris[..kind.output_count()])
            .map_err(|error| SimError::CellEval {
                cell: cell.name().to_string(),
                error,
            })?;
        let delays = self.delays[cell_id.index()];
        for ((&out, d), tri) in cell.outputs().iter().zip(delays).zip(out_tris) {
            schedule(
                &mut self.pending,
                &mut self.queue,
                time + d,
                out,
                Value::from(tri),
            );
        }
        Ok(())
    }

    /// Runs one cycle per assignment and returns the per-cycle statistics.
    ///
    /// # Errors
    ///
    /// Stops at and returns the first cycle error; cycles before the error
    /// remain observed by the probes.
    pub fn run<I>(&mut self, vectors: I) -> Result<Vec<CycleStats>, SimError>
    where
        I: IntoIterator<Item = InputAssignment>,
    {
        let mut stats = Vec::new();
        for assignment in vectors {
            stats.push(self.step(assignment)?);
        }
        Ok(stats)
    }
}

/// Queues `value` on `net` at `time` unless it is already the net's last
/// scheduled value.
fn schedule(pending: &mut [Value], queue: &mut EventQueue, time: u64, net: NetId, value: Value) {
    if pending[net.index()] != value {
        pending[net.index()] = value;
        queue.push(time, net, value);
    }
}

impl std::fmt::Debug for ClockedSimulator<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClockedSimulator")
            .field("netlist", &self.netlist.name())
            .field("cycles", &self.cycles)
            .field("probes", &self.probes.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::{CellDelay, UnitDelay, ZeroDelay};
    use crate::probe::ActivityProbe;

    fn xor_chain(depth: usize) -> (Netlist, NetId, NetId, NetId) {
        // y = a ^ a ^ ... via a chain that creates unbalanced paths.
        let mut nl = Netlist::new("chain");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let mut cur = b;
        for i in 0..depth {
            cur = nl.inv(cur, &format!("i{i}"));
        }
        let y = nl.xor2(a, cur, "y");
        nl.mark_output(y);
        (nl, a, b, y)
    }

    fn with_activity<'a>(nl: &'a Netlist, delay: impl DelayModel + 'a) -> ClockedSimulator<'a> {
        let mut sim = ClockedSimulator::new(nl, delay).unwrap();
        sim.attach_probe(Box::new(ActivityProbe::new()));
        sim
    }

    fn activity<'s>(sim: &'s ClockedSimulator<'_>) -> &'s ActivityProbe {
        sim.probe_ref::<ActivityProbe>().expect("probe attached")
    }

    #[test]
    fn combinational_logic_settles_to_correct_value() {
        let mut nl = Netlist::new("fa");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let (s, c) = nl.full_adder(a, b, cin, "fa");
        nl.mark_output(s);
        nl.mark_output(c);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        for bits in 0..8u8 {
            let inputs = InputAssignment::new()
                .with(a, bits & 1 != 0)
                .with(b, bits & 2 != 0)
                .with(cin, bits & 4 != 0);
            sim.step(inputs).unwrap();
            let expect = (bits & 1) + ((bits >> 1) & 1) + ((bits >> 2) & 1);
            let got = u8::from(sim.net_bool(s).unwrap()) + 2 * u8::from(sim.net_bool(c).unwrap());
            assert_eq!(got, expect, "bits {bits:03b}");
        }
        assert_eq!(sim.cycle_count(), 8);
    }

    #[test]
    fn glitch_appears_with_unbalanced_paths_and_not_with_zero_delay() {
        // XOR of a and a delayed copy of b: if b toggles while a toggles,
        // the inverter chain delays one input and the XOR output glitches.
        let (nl, a, b, y) = xor_chain(3);
        let mut unit = with_activity(&nl, UnitDelay);
        // Cycle 1: a=0,b=0 -> settle (y = 0 ^ !!!0 = 1).
        unit.step(InputAssignment::new().with(a, false).with(b, false))
            .unwrap();
        // Cycle 2: flip both inputs; the XOR sees a change immediately and
        // the chain output three units later: a glitch on y.
        unit.step(InputAssignment::new().with(a, true).with(b, true))
            .unwrap();
        let y_node = *activity(&unit).trace().node(y.index());
        assert!(
            y_node.useless() >= 2,
            "expected a glitch on y, trace: {y_node:?}"
        );

        let mut ideal = with_activity(&nl, ZeroDelay);
        ideal
            .step(InputAssignment::new().with(a, false).with(b, false))
            .unwrap();
        ideal
            .step(InputAssignment::new().with(a, true).with(b, true))
            .unwrap();
        let y_node = *activity(&ideal).trace().node(y.index());
        assert_eq!(y_node.useless(), 0, "zero delay cannot glitch");
    }

    #[test]
    fn flipflop_pipelining_delays_data_by_one_cycle() {
        let mut nl = Netlist::new("reg");
        let d = nl.add_input("d");
        let q = nl.dff(d, "q");
        nl.mark_output(q);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        sim.step(InputAssignment::new().with(d, true)).unwrap();
        // Q still holds the initial value (0) during the first cycle.
        assert_eq!(sim.net_bool(q), Some(false));
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        // Now Q shows the value captured at the end of cycle 1.
        assert_eq!(sim.net_bool(q), Some(true));
        sim.step(InputAssignment::new()).unwrap();
        assert_eq!(sim.net_bool(q), Some(false));
    }

    #[test]
    fn dff_init_states_from_the_netlist_are_honoured() {
        let mut nl = Netlist::new("init");
        let d = nl.add_input("d");
        let q1 = nl.dff_with_init(d, "q1", DffInit::One);
        let q0 = nl.dff_with_init(d, "q0", DffInit::Zero);
        let qd = nl.dff(d, "qd");
        nl.mark_output(q1);
        nl.mark_output(q0);
        nl.mark_output(qd);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        // During the first cycle every Q shows its init state.
        assert_eq!(sim.net_bool(q1), Some(true));
        assert_eq!(sim.net_bool(q0), Some(false));
        assert_eq!(sim.net_bool(qd), Some(false), "DontCare uses the default");
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        assert_eq!(sim.net_bool(q1), Some(false));
    }

    #[test]
    fn dont_care_init_follows_sim_options_default() {
        let mut nl = Netlist::new("init_opt");
        let d = nl.add_input("d");
        let q = nl.dff(d, "q");
        nl.mark_output(q);
        let options = SimOptions {
            dff_init: Value::One,
            ..SimOptions::default()
        };
        let mut sim = ClockedSimulator::with_options(&nl, UnitDelay, options).unwrap();
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        assert_eq!(sim.net_bool(q), Some(true));
    }

    #[test]
    fn reset_restores_the_power_on_state() {
        let mut nl = Netlist::new("rst");
        let d = nl.add_input("d");
        let q = nl.dff_with_init(d, "q", DffInit::One);
        nl.mark_output(q);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        assert_eq!(sim.net_bool(q), Some(false));
        assert_eq!(sim.cycle_count(), 2);
        sim.reset();
        assert_eq!(sim.cycle_count(), 0);
        assert_eq!(sim.net_value(q), Value::X);
        sim.step(InputAssignment::new().with(d, false)).unwrap();
        assert_eq!(sim.net_bool(q), Some(true), "init state restored");
    }

    #[test]
    fn per_output_delays_are_honoured() {
        let mut nl = Netlist::new("fa_delay");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let cin = nl.add_input("cin");
        let (s, c) = nl.full_adder(a, b, cin, "fa");
        nl.mark_output(s);
        nl.mark_output(c);
        let model = CellDelay::new().with_full_adder(4, 1);
        let mut sim = ClockedSimulator::new(&nl, model).unwrap();
        let stats = sim
            .step(
                InputAssignment::new()
                    .with(a, true)
                    .with(b, false)
                    .with(cin, false),
            )
            .unwrap();
        // The slowest event is the sum output at t = 4.
        assert_eq!(stats.settle_time, 4);
        assert_eq!(sim.net_bool(s), Some(true));
        assert_eq!(sim.net_bool(c), Some(false));
    }

    #[test]
    fn bus_value_reads_back_inputs() {
        let mut nl = Netlist::new("bus");
        let a = nl.add_input_bus("a", 8);
        let regs = nl.register_bus(&a, "q");
        nl.mark_output_bus(&regs);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        sim.step(InputAssignment::new().with_bus(&a, 0xA5)).unwrap();
        assert_eq!(sim.bus_value(&a), Some(0xA5));
        // Registered copy appears one cycle later.
        assert_eq!(sim.bus_value(&regs), Some(0));
        sim.step(InputAssignment::new().with_bus(&a, 0xA5)).unwrap();
        assert_eq!(sim.bus_value(&regs), Some(0xA5));
    }

    #[test]
    fn driving_non_input_is_an_error() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        let err = sim.step(InputAssignment::new().with(y, true)).unwrap_err();
        assert!(matches!(err, SimError::NotAnInput(_)));
    }

    #[test]
    fn a_rejected_assignment_leaves_the_simulator_untouched() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let mut sim = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        sim.step(InputAssignment::new().with(a, false)).unwrap();
        let err = sim
            .step(InputAssignment::new().with(a, true).with(y, true))
            .unwrap_err();
        assert_eq!(err, SimError::NotAnInput(y));
        assert_eq!(sim.cycle_count(), 1);
        assert_eq!(sim.net_bool(a), Some(false));
        // The valid half of the rejected assignment was not half-applied:
        // driving it now still changes the input.
        let stats = sim.step(InputAssignment::new().with(a, true)).unwrap();
        assert_eq!(stats.transitions, 2);
        assert_eq!(sim.net_bool(a), Some(true));
        assert_eq!(sim.net_bool(y), Some(false));
    }

    /// Six inverters need six delay units against a budget of three.
    fn slow_chain() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("slow");
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..6 {
            cur = nl.inv(cur, &format!("i{i}"));
        }
        nl.mark_output(cur);
        (nl, a, cur)
    }

    fn budget_3() -> SimOptions {
        SimOptions {
            settle_budget: 3,
            ..SimOptions::default()
        }
    }

    #[test]
    fn a_cycle_that_does_not_settle_is_rolled_back() {
        let (nl, a, y) = slow_chain();
        let mut sim = ClockedSimulator::with_options(&nl, UnitDelay, budget_3()).unwrap();
        let drive = || InputAssignment::new().with(a, true);
        let expected = SimError::DidNotSettle {
            cycle: 0,
            budget: 3,
        };
        assert_eq!(sim.step(drive()).unwrap_err(), expected);
        assert_eq!(sim.net_value(a), Value::X, "the failed cycle is undone");
        // The same input fails again instead of "settling" with nothing to
        // do on top of the abandoned cycle's half-propagated state.
        assert_eq!(sim.step(drive()).unwrap_err(), expected);
        assert_eq!(sim.net_value(y), Value::X);
        assert_eq!(sim.cycle_count(), 0);
        // A cycle that changes nothing settles, from the pre-failure state.
        let idle = sim.step(InputAssignment::new()).unwrap();
        assert_eq!(idle.events, 0);
        assert_eq!(sim.net_value(a), Value::X);
        // With room to settle, the same input goes through.
        let mut roomy = ClockedSimulator::new(&nl, UnitDelay).unwrap();
        assert_eq!(roomy.step(drive()).unwrap().settle_time, 6);
        assert_eq!(roomy.net_bool(y), Some(true));
    }

    #[test]
    fn did_not_settle_follows_every_in_budget_transition() {
        /// Records the time of every transition it sees.
        #[derive(Default)]
        struct Times(Vec<u64>);
        impl Probe for Times {
            fn on_transition(&mut self, t: &Transition) {
                self.0.push(t.time);
            }
        }
        let (nl, a, _) = slow_chain();
        let mut sim = ClockedSimulator::with_options(&nl, UnitDelay, budget_3()).unwrap();
        sim.attach_probe(Box::<Times>::default());
        let err = sim.step(InputAssignment::new().with(a, true)).unwrap_err();
        assert!(matches!(err, SimError::DidNotSettle { .. }));
        // a at 0 and the first three inverters at 1..=3 were delivered
        // before the event at t = 4 ended the cycle.
        assert_eq!(sim.probe_ref::<Times>().unwrap().0, vec![0, 1, 2, 3]);
        assert_eq!(sim.queue_stats().pops, 4);
        assert_eq!(sim.queue_stats().pushes, 5);
    }

    #[test]
    fn unassigned_inputs_propagate_x() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.and2(a, b, "y");
        nl.mark_output(y);
        let mut sim = with_activity(&nl, UnitDelay);
        sim.step(InputAssignment::new().with(a, true)).unwrap();
        assert_eq!(sim.net_value(y), Value::X);
        assert_eq!(sim.bus_value(&Bus::new(vec![y])), None);
        // X-related changes are not counted as transitions.
        assert_eq!(activity(&sim).trace().node(y.index()).transitions(), 0);
    }

    #[test]
    fn invalid_netlist_is_rejected() {
        let mut nl = Netlist::new("bad");
        let floating = nl.add_net("floating");
        let y = nl.inv(floating, "y");
        nl.mark_output(y);
        assert!(matches!(
            ClockedSimulator::new(&nl, UnitDelay),
            Err(SimError::InvalidNetlist(_))
        ));
    }

    #[test]
    fn run_consumes_a_stimulus_program() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let mut sim = with_activity(&nl, UnitDelay);
        let vectors = vec![
            InputAssignment::new().with(a, false),
            InputAssignment::new().with(a, true),
            InputAssignment::new().with(a, false),
        ];
        let stats = sim.run(vectors).unwrap();
        assert_eq!(stats.len(), 3);
        assert_eq!(sim.cycle_count(), 3);
        // y toggles in cycles 2 and 3 (cycle 1 is initialisation from X).
        assert_eq!(activity(&sim).trace().node(y.index()).transitions(), 2);
        assert_eq!(activity(&sim).rising_transitions(y), 1);
    }

    #[test]
    fn transition_counts_match_useful_definition_for_settled_logic() {
        // A single gate with balanced inputs never glitches: every counted
        // transition must be useful.
        let mut nl = Netlist::new("bal");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let y = nl.xor2(a, b, "y");
        nl.mark_output(y);
        let mut sim = with_activity(&nl, UnitDelay);
        for i in 0..16u64 {
            sim.step(
                InputAssignment::new()
                    .with(a, i & 1 != 0)
                    .with(b, i & 2 != 0),
            )
            .unwrap();
        }
        let node = *activity(&sim).trace().node(y.index());
        assert_eq!(node.useless(), 0);
        assert_eq!(node.transitions(), node.useful());
    }

    #[test]
    fn tri_table_mode_lets_controlling_values_dominate_unknown_state() {
        // y = a AND q, with q an uninitialised flipflop. Under the x-init
        // preset q powers on as X; driving a = 0 makes y known (0) through
        // the three-valued AND table, while the coarse rule keeps y at X.
        let build = || {
            let mut nl = Netlist::new("xinit");
            let a = nl.add_input("a");
            let d = nl.add_input("d");
            let q = nl.dff(d, "q");
            let y = nl.and2(a, q, "y");
            nl.mark_output(y);
            (nl, a, d, y)
        };
        let (nl, a, d, y) = build();
        let tri_opts = SimOptions::x_init();
        assert_eq!(tri_opts.dff_init, Value::X);
        assert_eq!(tri_opts.x_eval, XEval::TriTable);
        let mut tri = ClockedSimulator::with_options(&nl, UnitDelay, tri_opts).unwrap();
        tri.step(InputAssignment::new().with(a, false).with(d, true))
            .unwrap();
        assert_eq!(tri.net_value(y), Value::Zero, "AND(0, X) = 0");

        let (nl2, a2, d2, y2) = build();
        let coarse_opts = SimOptions {
            dff_init: Value::X,
            ..SimOptions::default()
        };
        let mut coarse = ClockedSimulator::with_options(&nl2, UnitDelay, coarse_opts).unwrap();
        coarse
            .step(InputAssignment::new().with(a2, false).with(d2, true))
            .unwrap();
        assert_eq!(coarse.net_value(y2), Value::X, "coarse: any X input => X");

        // Next cycle the flipflop has sampled d = 1, so both modes agree on
        // a fully-known evaluation: y = a AND 1.
        tri.step(InputAssignment::new().with(a, true).with(d, true))
            .unwrap();
        assert_eq!(tri.net_value(y), Value::One);
    }

    #[test]
    fn tri_table_mode_keeps_genuinely_unknown_nets_x() {
        // y = a XOR q: XOR has no controlling value, so the uninitialised
        // flipflop keeps the output unknown until the state is known.
        let mut nl = Netlist::new("xinit xor");
        let a = nl.add_input("a");
        let d = nl.add_input("d");
        let q = nl.dff(d, "q");
        let y = nl.xor2(a, q, "y");
        nl.mark_output(y);
        let mut sim = ClockedSimulator::with_options(&nl, UnitDelay, SimOptions::x_init()).unwrap();
        sim.step(InputAssignment::new().with(a, true).with(d, false))
            .unwrap();
        assert_eq!(sim.net_value(y), Value::X);
        sim.step(InputAssignment::new().with(a, true).with(d, false))
            .unwrap();
        assert_eq!(sim.net_value(y), Value::One, "q known after one sample");
    }

    #[test]
    fn tri_table_mode_matches_coarse_once_no_x_remains() {
        // With concrete flipflop resets both modes see only known values
        // after the first settle, so an identical stimulus produces
        // identical per-cycle statistics from cycle 1 on.
        let (nl, a, b, _) = xor_chain(3);
        let run = |x_eval: XEval| -> Vec<CycleStats> {
            let options = SimOptions {
                x_eval,
                ..SimOptions::default()
            };
            let mut sim = ClockedSimulator::with_options(&nl, UnitDelay, options).unwrap();
            (0..8u64)
                .map(|i| {
                    sim.step(
                        InputAssignment::new()
                            .with(a, i % 2 == 0)
                            .with(b, i % 3 == 0),
                    )
                    .unwrap()
                })
                .collect()
        };
        let coarse = run(XEval::Coarse);
        let tri = run(XEval::TriTable);
        assert_eq!(coarse[1..], tri[1..]);
    }

    #[test]
    fn detach_probes_fires_run_end_and_empties_the_simulator() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let mut sim = with_activity(&nl, UnitDelay);
        sim.step(InputAssignment::new().with(a, true)).unwrap();
        assert_eq!(sim.probes().len(), 1);
        let probes = sim.detach_probes();
        assert_eq!(probes.len(), 1);
        assert!(sim.probes().is_empty());
        assert!(sim.probe_ref::<ActivityProbe>().is_none());
        assert!(format!("{sim:?}").contains("ClockedSimulator"));
    }
}
