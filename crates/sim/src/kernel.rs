//! Lane-packed execution of parallel job batches on the compiled
//! bit-parallel kernel (`glitch_kernel`), plus the session-level glue that
//! lets the event-driven engine skip cycles the kernel proved quiet.
//!
//! Two entry points:
//!
//! * [`kernel_prepass`] — runs a whole `&[SimJob]` batch through the
//!   kernel at once (job `i` occupies lane `i`), recording which cycles of
//!   which lanes are *functionally quiet* — no primary input or flipflop
//!   output changes at the cycle boundary, so the event-driven engine
//!   would schedule zero events — and which nets changed at all per lane.
//!   The hybrid engine feeds the quiet flags back into the same jobs via
//!   [`SimJob::with_quiet_cycles`], so the expensive timed settle only
//!   runs on the cycles that can produce events, with bit-identical
//!   results.
//! * [`run_kernel_jobs`] — the pure-kernel engine: one [`SessionReport`]
//!   per job with the standard probe set attached, and no event queue
//!   anywhere. Semantics are functional (zero delay): activity, power and
//!   per-cycle transition counts equal a [`crate::DelayKind::Zero`] queue
//!   run bit for bit, while `events` counts changed nets and `cell_evals`
//!   counts straight-line kernel ops per cycle (there is no queue traffic
//!   to count, and the job's delay model is ignored).
//!
//! ## Why a quiet cycle may be skipped
//!
//! The event-driven [`crate::ClockedSimulator`] schedules work at a cycle
//! boundary only for nets whose scheduled value differs from their
//! currently pending value: constants (settled after cycle 0), primary
//! inputs, and flipflop Q outputs. If every one of those *source nets*
//! keeps its end-of-previous-cycle value, the queue stays empty and the
//! cycle's statistics are exactly [`CycleStats::default()`] with zero
//! queue traffic — which is precisely what replaying an empty cycle
//! produces. The kernel evaluates the same source nets functionally, so
//! the comparison is sound for any delay model; cycle 0 is never quiet
//! (constant drivers and `X`-initialisation fire there).

use std::sync::Arc;

use glitch_kernel::{EvalMode, KernelProgram, KernelState};
use glitch_netlist::{NetId, Netlist, Tri};

use crate::clocked::{CycleStats, InputAssignment, XEval};
use crate::error::SimError;
use crate::parallel::SimJob;
use crate::probe::{ActivityProbe, PowerProbe, Probe, StatsProbe, Transition, TransitionKind};
use crate::session::SessionReport;
use crate::stimulus::{RandomStimulus, StimulusProgram};
use crate::value::Value;

/// Maps the event-driven simulator's X-evaluation policy onto the
/// kernel's plane-formula mode. The two pairs are pinned bit-identical by
/// the kernel crate's exhaustive tests.
#[must_use]
pub fn kernel_eval_mode(x_eval: XEval) -> EvalMode {
    match x_eval {
        XEval::Coarse => EvalMode::Coarse,
        XEval::TriTable => EvalMode::TriTable,
    }
}

/// The result of a lane-packed functional prepass over a job batch: which
/// cycles of which jobs are provably quiet, which nets changed at all,
/// and the batch's functional activity totals.
#[derive(Debug, Clone)]
pub struct KernelPrepass {
    lanes: usize,
    words: usize,
    cycles: u64,
    quiet: Vec<Arc<Vec<bool>>>,
    quiet_count: u64,
    /// Lane masks of nets that changed in at least one cycle, word-major
    /// per net (same layout as [`KernelState`] planes).
    changed: Vec<u64>,
    transitions: u64,
    cell_evals: u64,
}

impl KernelPrepass {
    /// Number of lanes (jobs) the prepass covered.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Cycles simulated per lane.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// The per-cycle quiet flags of one lane, shareable with
    /// [`SimJob::with_quiet_cycles`] without copying.
    #[must_use]
    pub fn quiet_cycles(&self, lane: usize) -> Arc<Vec<bool>> {
        Arc::clone(&self.quiet[lane])
    }

    /// Total quiet `(lane, cycle)` pairs across the batch.
    #[must_use]
    pub fn quiet_cycle_count(&self) -> u64 {
        self.quiet_count
    }

    /// Total `(lane, cycle)` pairs across the batch.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.lanes as u64 * self.cycles
    }

    /// Did `net` change value in any cycle of `lane` after the
    /// initialisation transient (cycle 0, in which every net leaves its
    /// reset state)? `false` means the net was provably inert for the rest
    /// of that job: under *any* delay assignment the event-driven engine
    /// cannot produce a post-reset transition on it.
    #[must_use]
    pub fn net_changed(&self, net: NetId, lane: usize) -> bool {
        debug_assert!(lane < self.lanes);
        let word = self.changed[net.index() * self.words + lane / 64];
        word >> (lane % 64) & 1 == 1
    }

    /// Total functional (zero-delay) switching transitions across all
    /// lanes and cycles, counted with word-wide popcounts.
    #[must_use]
    pub fn functional_transitions(&self) -> u64 {
        self.transitions
    }

    /// Total kernel op evaluations performed (`op_count × lanes ×
    /// cycles`) — the work metric to compare against the queue engine's
    /// `cell_evals`.
    #[must_use]
    pub fn functional_cell_evals(&self) -> u64 {
        self.cell_evals
    }
}

/// Per-lane random stimuli mirroring [`SimJob`]'s own construction, so a
/// lane draws exactly the vectors the job's queue session would draw.
fn build_stimuli(jobs: &[SimJob<'_>]) -> Vec<RandomStimulus> {
    jobs.iter().map(SimJob::stimulus).collect()
}

/// Draws every lane's next input vector and applies it to the state.
/// Returns the assignments for callers that need them afterwards.
fn apply_stimuli(
    netlist: &Netlist,
    stimuli: &mut [RandomStimulus],
    state: &mut KernelState,
) -> Result<(), SimError> {
    for (lane, stimulus) in stimuli.iter_mut().enumerate() {
        let Some(assignment) = stimulus.next_vector() else {
            continue;
        };
        apply_assignment(netlist, &assignment, state, lane)?;
    }
    Ok(())
}

fn apply_assignment(
    netlist: &Netlist,
    assignment: &InputAssignment,
    state: &mut KernelState,
    lane: usize,
) -> Result<(), SimError> {
    for &(net, value) in assignment.assignments() {
        if !netlist.net(net).is_primary_input() {
            return Err(SimError::NotAnInput(net));
        }
        state.set_bool(net, lane, value);
    }
    Ok(())
}

/// Checks the batch is uniform in the fields the lane-packed kernel state
/// shares across lanes. The drivers in `glitch-core` always build uniform
/// batches; heterogeneous ones must fall back to per-job sessions.
fn assert_uniform(jobs: &[SimJob<'_>]) {
    assert!(!jobs.is_empty(), "kernel batches need at least one job");
    let first = &jobs[0];
    assert!(
        jobs.iter()
            .all(|j| j.cycles == first.cycles && j.options == first.options),
        "kernel batches must share cycle count and simulator options"
    );
}

/// Runs a uniform job batch through the compiled kernel, lane-packed, and
/// classifies every `(job, cycle)` pair as provably quiet or possibly
/// active. See the module documentation for the soundness argument.
///
/// # Errors
///
/// Returns [`SimError::NotAnInput`] if a job drives a non-input net.
///
/// # Panics
///
/// Panics if the batch is empty or the jobs disagree on cycle count or
/// simulator options (the lane-packed state shares both across lanes).
pub fn kernel_prepass(
    netlist: &Netlist,
    program: &KernelProgram,
    jobs: &[SimJob<'_>],
) -> Result<KernelPrepass, SimError> {
    assert_uniform(jobs);
    let options = jobs[0].options;
    let cycles = jobs[0].cycles;
    let lanes = jobs.len();
    let mode = kernel_eval_mode(options.x_eval);
    let mut state = program.new_state(lanes, Tri::from(options.dff_init));
    let mut prev = state.clone();
    let words = state.words();
    let mut stimuli = build_stimuli(jobs);
    let n = netlist.net_count();
    let source: Vec<NetId> = program.source_nets().collect();
    let mut changed = vec![0u64; n * words];
    let mut quiet: Vec<Vec<bool>> = vec![Vec::with_capacity(cycles as usize); lanes];
    let mut quiet_mask = vec![0u64; words];
    let mut quiet_count = 0u64;
    let mut transitions = 0u64;
    for cycle in 0..cycles {
        program.begin_cycle(&mut state);
        apply_stimuli(netlist, &mut stimuli, &mut state)?;
        if cycle == 0 {
            // Constant drivers and X-initialisation fire in cycle 0; it is
            // never quiet.
            quiet_mask.fill(0);
        } else {
            for (w, mask) in quiet_mask.iter_mut().enumerate() {
                *mask = state.word_mask(w);
            }
            for &net in &source {
                for (w, mask) in quiet_mask.iter_mut().enumerate() {
                    *mask &= !state.diff_word(&prev, net, w);
                }
            }
        }
        program.eval(&mut state, mode);
        let (pv, pm) = (prev.val_planes(), prev.msk_planes());
        let (cv, cm) = (state.val_planes(), state.msk_planes());
        for i in 0..n * words {
            // The `changed` masks classify post-reset inertness, so the
            // cycle-0 transient (every net leaves its reset state) is
            // excluded; the transition popcount covers every cycle.
            if cycle > 0 {
                changed[i] |= (pv[i] ^ cv[i]) | (pm[i] ^ cm[i]);
            }
            // Known in both cycles and toggled: a real switching transition.
            transitions += u64::from(((pv[i] ^ cv[i]) & !pm[i] & !cm[i]).count_ones());
        }
        for (lane, flags) in quiet.iter_mut().enumerate() {
            let is_quiet = quiet_mask[lane / 64] >> (lane % 64) & 1 == 1;
            flags.push(is_quiet);
            quiet_count += u64::from(is_quiet);
        }
        program.latch(&mut state);
        prev.clone_from(&state);
    }
    Ok(KernelPrepass {
        lanes,
        words,
        cycles,
        quiet: quiet.into_iter().map(Arc::new).collect(),
        quiet_count,
        changed,
        transitions,
        cell_evals: program.op_count() as u64 * lanes as u64 * cycles,
    })
}

/// Runs a uniform job batch entirely on the compiled kernel and returns
/// per-job [`SessionReport`]s carrying the standard probe set
/// ([`ActivityProbe`], [`PowerProbe`], [`StatsProbe`]) plus any probes the
/// factory supplies — the same shape
/// [`crate::ParallelRunner::run_sessions_with`] produces, so
/// [`crate::AggregateReport::reduce`] works unchanged.
///
/// Transitions are synthesised from per-cycle plane diffs in net-id order
/// at time 0: known→known changes count as rises/falls, changes into or
/// out of `X` are reported as [`TransitionKind::Unknown`] (uncounted),
/// mirroring [`Value::transitions_to`].
///
/// # Errors
///
/// Returns [`SimError::NotAnInput`] if a job drives a non-input net.
///
/// # Panics
///
/// Panics if the batch is empty or non-uniform (see [`kernel_prepass`]).
pub fn run_kernel_jobs(
    netlist: &Netlist,
    program: &KernelProgram,
    jobs: &[SimJob<'_>],
    extra_probes: &(dyn Fn(usize) -> Vec<Box<dyn Probe>> + Sync),
) -> Result<Vec<SessionReport>, SimError> {
    assert_uniform(jobs);
    let options = jobs[0].options;
    let cycles = jobs[0].cycles;
    let lanes = jobs.len();
    let mode = kernel_eval_mode(options.x_eval);
    let mut state = program.new_state(lanes, Tri::from(options.dff_init));
    let mut prev = state.clone();
    let mut stimuli = build_stimuli(jobs);
    let n = netlist.net_count();
    let op_count = program.op_count() as u64;

    let mut probes: Vec<Vec<Box<dyn Probe>>> = jobs
        .iter()
        .enumerate()
        .map(|(index, job)| {
            let mut set: Vec<Box<dyn Probe>> = vec![
                Box::new(ActivityProbe::new()),
                Box::new(PowerProbe::new(job.technology, job.frequency)),
                Box::new(StatsProbe::new()),
            ];
            set.extend(extra_probes(index));
            for probe in &mut set {
                probe.on_run_start(netlist);
            }
            set
        })
        .collect();
    let mut cycle_stats: Vec<Vec<CycleStats>> = vec![Vec::with_capacity(cycles as usize); lanes];

    for cycle in 0..cycles {
        program.begin_cycle(&mut state);
        apply_stimuli(netlist, &mut stimuli, &mut state)?;
        program.eval(&mut state, mode);
        for (lane, lane_probes) in probes.iter_mut().enumerate() {
            for probe in lane_probes.iter_mut() {
                probe.on_cycle_start(cycle);
            }
            let mut transitions = 0u64;
            let mut events = 0u64;
            for index in 0..n {
                let net = NetId::from_index(index);
                let old = Value::from(prev.get(net, lane));
                let new = Value::from(state.get(net, lane));
                if old == new {
                    continue;
                }
                events += 1;
                let kind = if old.transitions_to(new) {
                    transitions += 1;
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
                    cycle,
                    time: 0,
                    value: new,
                    kind,
                };
                for probe in lane_probes.iter_mut() {
                    probe.on_transition(&event);
                }
            }
            let stats = CycleStats {
                transitions,
                settle_time: 0,
                events,
                cell_evals: op_count,
            };
            for probe in lane_probes.iter_mut() {
                probe.on_cycle_end(cycle, &stats);
            }
            cycle_stats[lane].push(stats);
        }
        program.latch(&mut state);
        prev.clone_from(&state);
    }

    let mut reports = Vec::with_capacity(lanes);
    for (lane, (mut lane_probes, stats)) in probes.drain(..).zip(cycle_stats.drain(..)).enumerate()
    {
        for probe in &mut lane_probes {
            probe.on_run_end(netlist);
        }
        let final_values = (0..n)
            .map(|index| Value::from(state.get(NetId::from_index(index), lane)))
            .collect();
        reports.push(SessionReport::from_parts(
            cycles,
            stats,
            final_values,
            lane_probes,
        ));
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayKind;
    use crate::parallel::{AggregateReport, ParallelRunner};
    use glitch_netlist::{Bus, Netlist};

    /// A small sequential netlist: registered XOR/AND mix with a constant.
    fn pipeline_netlist() -> (Netlist, Bus) {
        let mut nl = Netlist::new("kernel glue");
        let a = nl.add_input_bus("a", 4);
        let one = nl.constant(true, "one");
        let x0 = nl.xor2(a.bit(0), a.bit(1), "x0");
        let x1 = nl.and2(a.bit(2), one, "x1");
        let q0 = nl.dff(x0, "q0");
        let q1 = nl.dff(x1, "q1");
        let y = nl.or2(q0, q1, "y");
        let z = nl.xor2(y, a.bit(3), "z");
        nl.mark_output(z);
        (nl, a)
    }

    #[test]
    fn prepass_marks_held_input_cycles_quiet() {
        let (nl, a) = pipeline_netlist();
        let program = KernelProgram::compile(&nl).unwrap();
        // No random buses: every input held constant, so after the
        // initialisation transient every cycle is provably quiet.
        let job = SimJob::new(&nl, Vec::new(), 10, 1).with_held(vec![
            (a.bit(0), true),
            (a.bit(1), false),
            (a.bit(2), true),
            (a.bit(3), false),
        ]);
        let prepass = kernel_prepass(&nl, &program, std::slice::from_ref(&job)).unwrap();
        assert_eq!(prepass.lanes(), 1);
        assert_eq!(prepass.cycles(), 10);
        let quiet = prepass.quiet_cycles(0);
        assert!(!quiet[0], "cycle 0 is never quiet");
        assert!(!quiet[1], "flipflops still settle in cycle 1");
        assert!(quiet[3..].iter().all(|&q| q), "steady state is quiet");
        assert!(prepass.quiet_cycle_count() >= 7);
        assert_eq!(prepass.total_cycles(), 10);
        assert!(prepass.functional_cell_evals() > 0);
    }

    #[test]
    fn quiet_skip_is_bit_identical_to_the_full_queue_run() {
        let (nl, a) = pipeline_netlist();
        let program = KernelProgram::compile(&nl).unwrap();
        let jobs: Vec<SimJob<'_>> = (0..5)
            .map(|seed| SimJob::new(&nl, vec![a.clone()], 40, seed))
            .collect();
        let prepass = kernel_prepass(&nl, &program, &jobs).unwrap();
        let pruned: Vec<SimJob<'_>> = jobs
            .iter()
            .enumerate()
            .map(|(lane, job)| job.clone().with_quiet_cycles(prepass.quiet_cycles(lane)))
            .collect();
        let runner = ParallelRunner::new(1);
        let mut full = runner.run_sessions(&jobs).unwrap();
        let mut skipped = runner.run_sessions(&pruned).unwrap();
        for (f, s) in full.iter().zip(&skipped) {
            assert_eq!(f.cycle_stats(), s.cycle_stats());
            assert_eq!(f.queue_stats(), s.queue_stats());
        }
        let agg_full = AggregateReport::reduce(&nl, &jobs, &mut full);
        let agg_skip = AggregateReport::reduce(&nl, &pruned, &mut skipped);
        assert_eq!(agg_full, agg_skip);
    }

    #[test]
    fn pure_kernel_matches_a_zero_delay_queue_run() {
        let (nl, a) = pipeline_netlist();
        let program = KernelProgram::compile(&nl).unwrap();
        let jobs: Vec<SimJob<'_>> = (0..3)
            .map(|seed| SimJob::new(&nl, vec![a.clone()], 25, seed).with_delay(DelayKind::Zero))
            .collect();
        let mut queue = ParallelRunner::new(1).run_sessions(&jobs).unwrap();
        let mut kernel = run_kernel_jobs(&nl, &program, &jobs, &|_| Vec::new()).unwrap();
        for (q, k) in queue.iter().zip(&kernel) {
            assert_eq!(q.cycles(), k.cycles());
            // Per-cycle switching transitions agree exactly; events and
            // cell_evals are engine-specific work metrics.
            let q_trans: Vec<u64> = q.cycle_stats().iter().map(|s| s.transitions).collect();
            let k_trans: Vec<u64> = k.cycle_stats().iter().map(|s| s.transitions).collect();
            assert_eq!(q_trans, k_trans);
            for index in 0..nl.net_count() {
                let net = NetId::from_index(index);
                assert_eq!(q.net_value(net), k.net_value(net));
            }
        }
        // The merged activity and power artefacts agree bit for bit.
        let agg_q = AggregateReport::reduce(&nl, &jobs, &mut queue);
        let agg_k = AggregateReport::reduce(&nl, &jobs, &mut kernel);
        assert_eq!(agg_q.merged_trace(), agg_k.merged_trace());
        assert_eq!(agg_q.merged_totals(), agg_k.merged_totals());
        assert_eq!(agg_q.merged_power(), agg_k.merged_power());
    }

    #[test]
    fn kernel_jobs_reject_non_input_drives() {
        let mut nl = Netlist::new("bad drive");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let program = KernelProgram::compile(&nl).unwrap();
        let job = SimJob::new(&nl, vec![Bus::new(vec![y])], 2, 0);
        let err = run_kernel_jobs(&nl, &program, std::slice::from_ref(&job), &|_| Vec::new())
            .unwrap_err();
        assert!(matches!(err, SimError::NotAnInput(_)));
    }
}
