//! The observer side of a simulation: the [`Probe`] trait and the built-in
//! probes.
//!
//! The paper's methodology is *simulate once, observe many things*: one
//! clocked run feeds transition counts (Fig. 5), glitch classification and
//! the capacitance-weighted power estimate (Table 3). A [`Probe`] is an
//! object-safe observer attached to a [`crate::SimSession`] (or directly to
//! a [`crate::ClockedSimulator`]): the simulator calls its hooks as the run
//! unfolds, and the probe accumulates whatever artefact it is responsible
//! for. Adding a new observable is a one-file probe, not a simulator fork.
//!
//! Built-in probes:
//!
//! * [`ActivityProbe`] — the per-net transition trace (useful/useless
//!   classification input);
//! * [`VcdProbe`] — a value-change dump for waveform viewers;
//! * [`PowerProbe`] — streaming switched-energy accumulation and the
//!   three-component power report;
//! * [`WaveCsvProbe`] — per-transition CSV rows for spreadsheet analysis.

use std::any::Any;
use std::fmt::Write as _;

use glitch_activity::ActivityTrace;
use glitch_netlist::{NetId, Netlist};
use glitch_power::{estimate_power_from_counts, CapacitanceModel, PowerReport, Technology};

use crate::clocked::CycleStats;
use crate::value::Value;
use crate::vcd::VcdRecorder;

/// What kind of net-value change a [`Transition`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// A charging 0 → 1 transition.
    Rise,
    /// A discharging 1 → 0 transition.
    Fall,
    /// A change into or out of `X` — initialisation, not switching activity.
    Unknown,
}

impl TransitionKind {
    /// `true` for real switching activity (0→1 or 1→0); `false` for
    /// `X`-related initialisation changes.
    #[must_use]
    pub fn is_switching(self) -> bool {
        !matches!(self, TransitionKind::Unknown)
    }
}

/// One net-value change, as reported to [`Probe::on_transition`].
///
/// A net changes at most once per simulated time point; `value` is the value
/// the net settled to at `time` within `cycle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// The net that changed.
    pub net: NetId,
    /// The clock cycle (0-based) in which the change happened.
    pub cycle: u64,
    /// The intra-cycle settle time (in delay units) of the change.
    pub time: u64,
    /// The new value of the net.
    pub value: Value,
    /// Rise, fall, or an `X`-related initialisation change.
    pub kind: TransitionKind,
}

/// An object-safe simulation observer.
///
/// Hooks are called in order: `on_run_start` once when the probe is
/// attached, then per cycle `on_cycle_start` → any number of
/// `on_transition` → `on_cycle_end`, and finally `on_run_end` once when the
/// probes are detached (a [`crate::SimSession`] does this automatically).
/// All hooks have empty default bodies, so a probe only implements what it
/// observes.
///
/// The `Any` supertrait lets a [`crate::SessionReport`] hand typed probes
/// back to the caller; see [`crate::SessionReport::probe`]. The `Send`
/// supertrait lets finished probes travel back from worker threads, which
/// is what makes sharded parallel execution
/// ([`crate::ParallelRunner`]) possible; probes are plain accumulators, so
/// this costs implementations nothing.
///
/// ```
/// use glitch_netlist::Netlist;
/// use glitch_sim::{InputAssignment, Probe, SimSession, Transition};
///
/// /// Counts switching transitions — a complete custom probe.
/// #[derive(Default)]
/// struct ToggleCounter {
///     toggles: u64,
/// }
///
/// impl Probe for ToggleCounter {
///     fn on_transition(&mut self, transition: &Transition) {
///         if transition.kind.is_switching() {
///             self.toggles += 1;
///         }
///     }
/// }
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut nl = Netlist::new("demo");
/// let a = nl.add_input("a");
/// let y = nl.inv(a, "y");
/// nl.mark_output(y);
/// let report = SimSession::new(&nl)
///     .probe(ToggleCounter::default())
///     .stimulus((0..4).map(|i| InputAssignment::new().with(a, i % 2 == 0)))
///     .run()?;
/// assert!(report.probe::<ToggleCounter>().unwrap().toggles > 0);
/// # Ok(())
/// # }
/// ```
pub trait Probe: Any + Send {
    /// Called once, before any cycle, with the netlist under simulation.
    fn on_run_start(&mut self, _netlist: &Netlist) {}

    /// Called at the beginning of clock cycle `cycle` (0-based).
    fn on_cycle_start(&mut self, _cycle: u64) {}

    /// Called once per net-value change, in settle-time order within the
    /// cycle.
    fn on_transition(&mut self, _transition: &Transition) {}

    /// Called after the cycle's logic has settled, with its statistics.
    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {}

    /// Called once after the last cycle; render final artefacts here.
    fn on_run_end(&mut self, _netlist: &Netlist) {}
}

/// A probe whose accumulated state can be folded with another instance's —
/// the reduction side of sharded parallel simulation.
///
/// A parallel run (see [`crate::ParallelRunner`]) gives every shard its own
/// fresh probe instance; once the shards finish, the per-shard probes are
/// folded pairwise with [`MergeableProbe::merge`] into one probe that is
/// indistinguishable from a probe that observed every shard serially,
/// *provided the shards are independent runs* (per-seed shards). The
/// built-in implementations ([`ActivityProbe`], [`PowerProbe`],
/// [`StatsProbe`], [`crate::WindowedActivityProbe`]) all guarantee that the
/// fold is exact: counts add, maxima combine, and derived reports are
/// recomputed from the merged counts.
///
/// Merging is defined on *finished* probes (after `on_run_end`); merge
/// order must not matter for the accumulated counts, which is what makes
/// the parallel fold deterministic when performed in shard order.
pub trait MergeableProbe: Probe + Sized {
    /// Folds `other`'s accumulated observations into `self`.
    ///
    /// Both probes must have observed the same netlist (or one of them must
    /// be freshly created and empty); implementations panic on shape
    /// mismatches, mirroring [`glitch_activity::ActivityTrace::merge`].
    fn merge(&mut self, other: Self);
}

// ---------------------------------------------------------------- activity

/// Accumulates the per-net transition trace — the observable behind every
/// useful/useless classification in the paper.
///
/// Replaces the `ActivityTrace` that used to be hardwired into the
/// simulator; attach it only when transition accounting is needed.
#[derive(Debug, Clone, Default)]
pub struct ActivityProbe {
    counts: Vec<u32>,
    pending_rising: Vec<u32>,
    rising: Vec<u64>,
    trace: ActivityTrace,
}

impl ActivityProbe {
    /// Creates an activity probe; sizing happens at run start.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated per-net transition trace.
    #[must_use]
    pub fn trace(&self) -> &ActivityTrace {
        &self.trace
    }

    /// Consumes the probe, returning the trace.
    #[must_use]
    pub fn into_trace(self) -> ActivityTrace {
        self.trace
    }

    /// Folds `cycles` whole cycles in at once from per-net totals, as the
    /// timed kernel produces them: the bulk equivalent of the per-cycle
    /// hooks. Call between `on_run_start` and `on_run_end`.
    pub(crate) fn record_totals(
        &mut self,
        cycles: u64,
        transitions: &[u64],
        useful: &[u64],
        rises: &[u64],
    ) {
        self.trace.record_totals(cycles, transitions, useful);
        for (total, &r) in self.rising.iter_mut().zip(rises) {
            *total += r;
        }
    }

    /// Total power-consuming (0→1) transitions recorded on a net so far.
    #[must_use]
    pub fn rising_transitions(&self, net: NetId) -> u64 {
        self.rising.get(net.index()).copied().unwrap_or(0)
    }
}

impl Probe for ActivityProbe {
    fn on_run_start(&mut self, netlist: &Netlist) {
        let n = netlist.net_count();
        self.counts = vec![0; n];
        self.pending_rising = vec![0; n];
        self.rising = vec![0; n];
        self.trace = ActivityTrace::new(n);
    }

    // Per-cycle counts are cleared at cycle *start*, not end: a cycle that
    // errors mid-settle never reaches `on_cycle_end`, and its partial
    // counts must not leak into the next recorded cycle.
    fn on_cycle_start(&mut self, _cycle: u64) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.pending_rising.iter_mut().for_each(|c| *c = 0);
    }

    fn on_transition(&mut self, transition: &Transition) {
        match transition.kind {
            TransitionKind::Rise => {
                self.counts[transition.net.index()] += 1;
                self.pending_rising[transition.net.index()] += 1;
            }
            TransitionKind::Fall => {
                self.counts[transition.net.index()] += 1;
            }
            TransitionKind::Unknown => {}
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {
        self.trace.record_cycle(&self.counts);
        for (total, &pending) in self.rising.iter_mut().zip(&self.pending_rising) {
            *total += u64::from(pending);
        }
    }
}

impl MergeableProbe for ActivityProbe {
    /// Folds another shard's trace and rising-transition totals into this
    /// probe. The merged trace equals the trace a single probe would have
    /// accumulated observing both runs back to back.
    fn merge(&mut self, other: ActivityProbe) {
        if self.rising.is_empty() {
            // `self` never ran; adopt the other probe wholesale.
            *self = other;
            return;
        }
        if other.rising.is_empty() {
            return;
        }
        assert_eq!(
            self.rising.len(),
            other.rising.len(),
            "cannot merge activity probes of different netlists"
        );
        self.trace.merge(&other.trace);
        for (total, theirs) in self.rising.iter_mut().zip(&other.rising) {
            *total += theirs;
        }
    }
}

// --------------------------------------------------------------------- vcd

/// Records every net-value change (including `X` initialisation) as a VCD
/// waveform; the standard-format text is rendered at run end.
#[derive(Debug, Clone)]
pub struct VcdProbe {
    recorder: VcdRecorder,
    text: Option<String>,
}

impl Default for VcdProbe {
    fn default() -> Self {
        VcdProbe::new(VcdRecorder::default())
    }
}

impl VcdProbe {
    /// Wraps a configured [`VcdRecorder`] (e.g. with a custom cycle period).
    #[must_use]
    pub fn new(recorder: VcdRecorder) -> Self {
        VcdProbe {
            recorder,
            text: None,
        }
    }

    /// Number of value changes recorded so far.
    #[must_use]
    pub fn change_count(&self) -> usize {
        self.recorder.change_count()
    }

    /// The rendered VCD text; `None` until the run has ended.
    #[must_use]
    pub fn vcd(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// Consumes the probe, returning the rendered VCD text.
    ///
    /// # Panics
    ///
    /// Panics if the run has not ended (no `on_run_end` yet).
    #[must_use]
    pub fn into_vcd(self) -> String {
        self.text
            .expect("VcdProbe::into_vcd called before the run ended")
    }
}

impl Probe for VcdProbe {
    fn on_transition(&mut self, transition: &Transition) {
        self.recorder.change(
            transition.cycle,
            transition.time,
            transition.net,
            transition.value,
        );
    }

    fn on_run_end(&mut self, netlist: &Netlist) {
        self.text = Some(self.recorder.to_vcd(netlist));
    }
}

// ------------------------------------------------------------------- power

/// Streams per-transition switched energy and produces the paper's
/// three-component power report at run end.
///
/// Energy accounting mirrors `glitch_power::estimate_power`: every switching
/// transition on a net that is neither a primary input nor a flipflop output
/// charges or discharges that net's load capacitance at a cost of
/// `½·C·V²`; the final report is numerically identical to the trace-based
/// estimate.
#[derive(Debug, Clone)]
pub struct PowerProbe {
    tech: Technology,
    frequency: f64,
    counts: Vec<u64>,
    pending_counts: Vec<u32>,
    pending_energy: f64,
    caps: Vec<f64>,
    eligible: Vec<bool>,
    flipflops: usize,
    cycles: u64,
    energy_joules: f64,
    report: Option<PowerReport>,
}

impl PowerProbe {
    /// Creates a power probe for a technology and clock frequency (hertz).
    #[must_use]
    pub fn new(tech: Technology, frequency: f64) -> Self {
        PowerProbe {
            tech,
            frequency,
            counts: Vec::new(),
            pending_counts: Vec::new(),
            pending_energy: 0.0,
            caps: Vec::new(),
            eligible: Vec::new(),
            flipflops: 0,
            cycles: 0,
            energy_joules: 0.0,
            report: None,
        }
    }

    /// Recomputes the power report from the accumulated counts using the
    /// capacitance and eligibility tables captured at run start. Delegates
    /// to `glitch_power::estimate_power_from_parts` — the same single
    /// implementation `estimate_power_from_counts` funnels through — so a
    /// merged probe's report is bit-identical to the report a single run
    /// over the combined activity would have produced.
    fn compute_report(&self) -> PowerReport {
        glitch_power::estimate_power_from_parts(
            &self.counts,
            &self.caps,
            &self.eligible,
            self.flipflops,
            self.cycles,
            &self.tech,
            self.frequency,
        )
    }

    /// Folds `cycles` whole cycles in at once from per-net switching
    /// totals (the timed kernel's bulk path). The report is the same;
    /// [`PowerProbe::energy_joules`] sums in another order, so it may
    /// differ from a per-transition run in its last bits.
    pub(crate) fn record_totals(&mut self, cycles: u64, transitions: &[u64]) {
        let half_v2 = 0.5 * self.tech.vdd * self.tech.vdd;
        for (index, (total, &count)) in self.counts.iter_mut().zip(transitions).enumerate() {
            *total += count;
            if self.eligible[index] && count > 0 {
                self.energy_joules += count as f64 * self.caps[index] * half_v2;
            }
        }
        self.cycles += cycles;
    }

    /// Switched energy in the combinational logic so far, in joules.
    ///
    /// A run settled on the timed kernel sums this per net rather than
    /// per transition, so it may differ from an event-driven run of the
    /// same job in its last bits; the power report, computed from the
    /// integer counts, does not.
    #[must_use]
    pub fn energy_joules(&self) -> f64 {
        self.energy_joules
    }

    /// The finished power report; `None` until the run has ended.
    #[must_use]
    pub fn report(&self) -> Option<&PowerReport> {
        self.report.as_ref()
    }

    /// Consumes the probe, returning the power report.
    ///
    /// # Panics
    ///
    /// Panics if the run has not ended (no `on_run_end` yet).
    #[must_use]
    pub fn into_report(self) -> PowerReport {
        self.report
            .expect("PowerProbe::into_report called before the run ended")
    }
}

impl Probe for PowerProbe {
    fn on_run_start(&mut self, netlist: &Netlist) {
        let n = netlist.net_count();
        self.counts = vec![0; n];
        self.pending_counts = vec![0; n];
        self.pending_energy = 0.0;
        self.cycles = 0;
        self.energy_joules = 0.0;
        self.report = None;
        let caps = CapacitanceModel::new(netlist, self.tech);
        self.caps = netlist
            .nets()
            .map(|(id, _)| caps.net_capacitance(id))
            .collect();
        // Primary inputs are driven by the environment; flipflop output nets
        // are covered by the per-flipflop power figure.
        self.eligible = netlist
            .nets()
            .map(|(_, net)| !net.is_primary_input())
            .collect();
        for cell_id in netlist.dff_cells() {
            for &out in netlist.cell(cell_id).outputs() {
                self.eligible[out.index()] = false;
            }
        }
        self.flipflops = netlist.dff_count();
    }

    // Like the activity probe, transitions are staged per cycle and only
    // committed in `on_cycle_end`, so a cycle that errors mid-settle does
    // not inflate the energy accounting.
    fn on_cycle_start(&mut self, _cycle: u64) {
        self.pending_counts.iter_mut().for_each(|c| *c = 0);
        self.pending_energy = 0.0;
    }

    fn on_transition(&mut self, transition: &Transition) {
        if !transition.kind.is_switching() {
            return;
        }
        let idx = transition.net.index();
        self.pending_counts[idx] += 1;
        if self.eligible[idx] {
            self.pending_energy += 0.5 * self.caps[idx] * self.tech.vdd * self.tech.vdd;
        }
    }

    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {
        for (total, &pending) in self.counts.iter_mut().zip(&self.pending_counts) {
            *total += u64::from(pending);
        }
        self.energy_joules += self.pending_energy;
        self.cycles += 1;
    }

    fn on_run_end(&mut self, netlist: &Netlist) {
        self.report = Some(estimate_power_from_counts(
            netlist,
            &self.counts,
            self.cycles,
            &self.tech,
            self.frequency,
        ));
    }
}

impl MergeableProbe for PowerProbe {
    /// Folds another shard's transition counts, cycle count and streamed
    /// energy into this probe and recomputes the report over the combined
    /// activity. The merged report equals
    /// `glitch_power::estimate_power_from_counts` over the summed counts
    /// bit for bit (covered by `tests/parallel.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the probes observed netlists of different sizes or were
    /// configured with different technologies or clock frequencies.
    fn merge(&mut self, other: PowerProbe) {
        if self.counts.is_empty() {
            *self = other;
            return;
        }
        if other.counts.is_empty() {
            return;
        }
        assert_eq!(
            self.counts.len(),
            other.counts.len(),
            "cannot merge power probes of different netlists"
        );
        assert!(
            self.tech == other.tech && self.frequency == other.frequency,
            "cannot merge power probes with different operating points"
        );
        for (total, &theirs) in self.counts.iter_mut().zip(&other.counts) {
            *total += theirs;
        }
        self.cycles += other.cycles;
        self.energy_joules += other.energy_joules;
        self.report = Some(self.compute_report());
    }
}

// ------------------------------------------------------------------- stats

/// Accumulates whole-run cycle statistics: cycle, transition and event
/// totals plus the worst settle time — the mergeable counterpart of
/// [`crate::SessionReport::cycle_stats`] for sharded runs, at `O(1)` memory
/// instead of one [`CycleStats`] per cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsProbe {
    cycles: u64,
    transitions: u64,
    events: u64,
    cell_evals: u64,
    max_settle_time: u64,
}

impl StatsProbe {
    /// Creates an empty statistics probe.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of completed cycles observed.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Total signal transitions over all observed cycles.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total simulator events over all observed cycles.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total combinational cell evaluations over all observed cycles — the
    /// work metric the incremental layer reports its savings against.
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.cell_evals
    }

    /// The worst intra-cycle settle time observed.
    #[must_use]
    pub fn max_settle_time(&self) -> u64 {
        self.max_settle_time
    }
}

impl Probe for StatsProbe {
    fn on_cycle_end(&mut self, _cycle: u64, stats: &CycleStats) {
        self.cycles += 1;
        self.transitions += stats.transitions;
        self.events += stats.events;
        self.cell_evals += stats.cell_evals;
        self.max_settle_time = self.max_settle_time.max(stats.settle_time);
    }
}

impl MergeableProbe for StatsProbe {
    fn merge(&mut self, other: StatsProbe) {
        self.cycles += other.cycles;
        self.transitions += other.transitions;
        self.events += other.events;
        self.cell_evals += other.cell_evals;
        self.max_settle_time = self.max_settle_time.max(other.max_settle_time);
    }
}

// --------------------------------------------------------------- wave csv

/// Records every transition as a CSV row
/// (`cycle,time,net,value,kind`), rendered with net names at run end.
#[derive(Debug, Clone, Default)]
pub struct WaveCsvProbe {
    events: Vec<Transition>,
    text: Option<String>,
}

impl WaveCsvProbe {
    /// Creates an empty wave-CSV probe.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded transitions.
    #[must_use]
    pub fn row_count(&self) -> usize {
        self.events.len()
    }

    /// The rendered CSV text; `None` until the run has ended.
    #[must_use]
    pub fn csv(&self) -> Option<&str> {
        self.text.as_deref()
    }

    /// Consumes the probe, returning the rendered CSV text.
    ///
    /// # Panics
    ///
    /// Panics if the run has not ended (no `on_run_end` yet).
    #[must_use]
    pub fn into_csv(self) -> String {
        self.text
            .expect("WaveCsvProbe::into_csv called before the run ended")
    }
}

impl Probe for WaveCsvProbe {
    fn on_transition(&mut self, transition: &Transition) {
        self.events.push(*transition);
    }

    fn on_run_end(&mut self, netlist: &Netlist) {
        let mut out = String::from("cycle,time,net,value,kind\n");
        for event in &self.events {
            let kind = match event.kind {
                TransitionKind::Rise => "rise",
                TransitionKind::Fall => "fall",
                TransitionKind::Unknown => "init",
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                event.cycle,
                event.time,
                csv_escape(netlist.net(event.net).name()),
                event.value,
                kind
            );
        }
        self.text = Some(out);
    }
}

/// Quotes a CSV field when it contains a delimiter, quote or newline.
fn csv_escape(field: &str) -> String {
    if field.contains([',', '"', '\n']) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clocked::InputAssignment;
    use crate::session::SimSession;

    fn inv_netlist() -> (Netlist, NetId, NetId) {
        let mut nl = Netlist::new("probe test");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        (nl, a, y)
    }

    fn toggling(a: NetId, cycles: u64) -> impl Iterator<Item = InputAssignment> {
        (0..cycles).map(move |i| InputAssignment::new().with(a, i % 2 == 0))
    }

    #[test]
    fn activity_probe_counts_switching_only() {
        let (nl, a, y) = inv_netlist();
        let report = SimSession::new(&nl)
            .probe(ActivityProbe::new())
            .stimulus(toggling(a, 4))
            .run()
            .unwrap();
        let probe = report.probe::<ActivityProbe>().unwrap();
        // Cycle 1 initialises out of X (uncounted); cycles 2..4 each toggle.
        assert_eq!(probe.trace().node(y.index()).transitions(), 3);
        assert_eq!(probe.trace().cycles(), 4);
        assert!(probe.rising_transitions(y) >= 1);
    }

    #[test]
    fn vcd_probe_records_all_changes_and_renders_at_run_end() {
        let (nl, a, _) = inv_netlist();
        let report = SimSession::new(&nl)
            .probe(VcdProbe::default())
            .stimulus(toggling(a, 3))
            .run()
            .unwrap();
        let probe = report.probe::<VcdProbe>().unwrap();
        // a and y each change every cycle (the first is X-initialisation).
        assert_eq!(probe.change_count(), 6);
        let text = probe.vcd().expect("rendered after run end");
        assert!(text.contains("$enddefinitions"));
    }

    #[test]
    fn power_probe_streams_energy_and_reports() {
        let (nl, a, _) = inv_netlist();
        let tech = Technology::cmos_0p8um_5v();
        let report = SimSession::new(&nl)
            .probe(PowerProbe::new(tech, 5e6))
            .stimulus(toggling(a, 10))
            .run()
            .unwrap();
        let probe = report.probe::<PowerProbe>().unwrap();
        assert!(probe.energy_joules() > 0.0);
        let power = probe.report().expect("report after run end");
        assert!(power.breakdown.logic > 0.0);
        assert_eq!(power.cycles, 10);
        // Streaming energy equals the report's per-cycle switched
        // capacitance scaled back to joules.
        let expected = power.switched_cap_per_cycle * tech.vdd * tech.vdd * power.cycles as f64;
        assert!((probe.energy_joules() - expected).abs() <= 1e-12 * expected.abs());
    }

    #[test]
    fn wave_csv_probe_renders_named_rows() {
        let (nl, a, _) = inv_netlist();
        let report = SimSession::new(&nl)
            .probe(WaveCsvProbe::new())
            .stimulus(toggling(a, 2))
            .run()
            .unwrap();
        let probe = report.probe::<WaveCsvProbe>().unwrap();
        assert_eq!(probe.row_count(), 4);
        let csv = probe.csv().unwrap();
        assert!(csv.starts_with("cycle,time,net,value,kind\n"));
        assert!(csv.contains(",a,"));
        assert!(csv.contains(",y,"));
        assert!(csv.contains("init"));
        assert!(csv.contains("rise") || csv.contains("fall"));
    }

    #[test]
    fn csv_escape_quotes_delimiters() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }
}
