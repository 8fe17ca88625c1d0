//! Batch jobs settled on the timed kernel (`glitch_kernel`'s
//! [`TimedSchedule`]) instead of the event queue.
//!
//! The timed kernel reproduces per-net transition counts with their
//! parity split and hazard classification, the nets left `X` at every
//! cycle end and the final values, and — only when the job asks for them
//! ([`SimJob::statistics`]) — the per-cycle statistics and queue traffic.
//! A [`SimJob`] whose extra probes can all be filled from those
//! ([`Probe::settles_timed`]; the standard probe set always can), whose
//! delays resolve to a timed schedule (every non-constant output delay
//! ≥ 1, or all of them 0) and whose static horizon fits the settle budget
//! gets from [`run_timed`] the same [`SessionReport`] the event-driven
//! session would, field for field; without statistics the report has no
//! [`crate::StatsProbe`] and refuses to be read for them
//! ([`SessionReport::cycle_stats`]):
//!
//! - every cycle is one lane, 64 to a word, in blocks of up to 256;
//! - a lane starts from the previous cycle's functional settled state,
//!   which [`KernelProgram::settle_cycles`] provides for the whole block
//!   at once: one evaluation without flipflops, one per register rank
//!   (plus one) through a pipeline, the flipflop state carried from block
//!   to block;
//! - the probes are filled in bulk, with no per-transition hook dispatch:
//!   the extra ones through [`Probe::record_timed`] with a [`TimedRun`].
//!
//! The only figure that may differ is [`crate::PowerProbe::energy_joules`],
//! whose float sum runs in another order; no report prints it.

use glitch_kernel::{CycleLanes, KernelProgram, KernelState, TimedSchedule, TimedTally};
use glitch_netlist::{NetId, Tri};

use crate::clocked::CycleStats;
use crate::engine::QueueStats;
use crate::error::SimError;
use crate::kernel::kernel_eval_mode;
use crate::parallel::SimJob;
use crate::probe::{ActivityProbe, PowerProbe, Probe, StatsProbe};
use crate::session::SessionReport;
use crate::value::Value;

/// Deterministic work accounting of one job settled on the timed kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimedWork {
    /// Lanes stepped: one per clock cycle.
    pub lanes: u64,
    /// The static settle horizon of the job's delay model.
    pub horizon: u64,
    /// Word-wide output-pin evaluations: every pin at every time point
    /// of its arrival window, per 64-lane word (two pins with one delay
    /// count once).
    pub op_evals: u64,
}

/// What a job settled on the timed kernel found, in bulk: what
/// [`Probe::record_timed`] fills a probe from in place of the per-cycle
/// hooks.
#[derive(Debug, Clone, Copy)]
pub struct TimedRun<'a> {
    /// Cycles settled.
    pub cycles: u64,
    /// Per-net transition and hazard totals
    /// ([`TimedTally::with_hazards`]).
    pub tally: &'a TimedTally,
    /// Per net, the cycle ends at which it was `X`.
    pub x_ends: &'a [XEnds],
    /// The first cycle at whose end no net was `X`, if any.
    pub clear_cycle: Option<u64>,
    /// Every net's value at the end of the run.
    pub final_values: &'a [Value],
}

/// The cycle ends at which one net was `X`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct XEnds {
    /// How many cycle ends the net was `X` at (0: never).
    pub count: u64,
    /// The first such cycle; meaningful when `count > 0`.
    pub first: u64,
    /// The last such cycle; meaningful when `count > 0`.
    pub last: u64,
}

impl SimJob<'_> {
    /// The timed schedule this job settles on, or `None` when it must run
    /// on the event queue: its resolved delays mix zero and non-zero
    /// values on non-constant cells (or exceed the kernel's bounds), or its
    /// static horizon exceeds the settle budget. `program` must be
    /// compiled from the job's netlist.
    #[must_use]
    pub fn timed_schedule<'p>(&self, program: &'p KernelProgram) -> Option<TimedSchedule<'p>> {
        if program.net_count() != self.netlist.net_count() {
            return None;
        }
        let model = self.delay.clone().into_model();
        TimedSchedule::new(program, |kind, pin| model.delay(kind, pin))
            .filter(|schedule| schedule.horizon() <= self.options.settle_budget)
    }
}

/// Runs `job` on the timed kernel with the standard probe set
/// ([`ActivityProbe`], [`PowerProbe`], and [`StatsProbe`] when the job
/// asks for statistics) plus `extra_probes`, each of which must settle
/// timed ([`Probe::settles_timed`]). The hazard planes and `X` cycle ends
/// are kept only when there are extra probes to fill, the per-cycle
/// statistics and queue traffic only when [`SimJob::statistics`] is set.
///
/// # Errors
///
/// Returns [`SimError::NotAnInput`] for the first assignment that drives
/// a non-input net, as the event-driven session does.
pub(crate) fn run_timed(
    job: &SimJob<'_>,
    schedule: &TimedSchedule<'_>,
    extra_probes: Vec<Box<dyn Probe>>,
) -> Result<SessionReport, SimError> {
    debug_assert!(extra_probes.iter().all(|probe| probe.settles_timed()));
    let netlist = job.netlist;
    let program = schedule.program();
    let n = netlist.net_count();
    let mode = kernel_eval_mode(job.options.x_eval);
    let dff_init = Tri::from(job.options.dff_init);
    let inputs = program.inputs();
    let mut input_slot = vec![u32::MAX; n];
    for (slot, net) in inputs.iter().enumerate() {
        input_slot[net.index()] = slot as u32;
    }

    // Input values carried across cycles, and per-cycle scheduling scratch.
    let mut value = vec![Tri::X; inputs.len()];
    let mut start = vec![Tri::X; inputs.len()];
    let mut pushes = vec![0u32; inputs.len()];
    let mut touched = Vec::new();
    // The flipflop state entering each block's first cycle.
    let mut carry = program.power_on_state(dff_init);
    let mut before = program.new_state(1, Tri::X);
    let bulk = !extra_probes.is_empty();
    let mut tally = TimedTally::new(n);
    let mut x_ends = Vec::new();
    if bulk {
        tally = tally.with_hazards();
        x_ends = vec![XEnds::default(); n];
    }
    let mut clear_cycle = None;
    let mut cycles = 0u64;
    let mut lanes = Vec::new();
    let mut stimulus = job.stimulus();
    loop {
        let assignments: Vec<_> = (0..TimedSchedule::BLOCK_LANES)
            .map_while(|_| stimulus.next())
            .collect();
        if assignments.is_empty() {
            break;
        }
        let mut settled = program.new_state(assignments.len(), dff_init);
        let words = settled.words();
        let mut driven = vec![0u64; inputs.len() * words];
        let mut extra = vec![0u32; assignments.len()];
        for (lane, assignment) in assignments.iter().enumerate() {
            if let Some(&(net, _)) = assignment
                .assignments()
                .iter()
                .find(|&&(net, _)| input_slot[net.index()] == u32::MAX)
            {
                return Err(SimError::NotAnInput(net));
            }
            // The queue schedules an input whenever it is driven away from
            // its last scheduled value, once per such drive.
            for &(net, bit) in assignment.assignments() {
                let slot = input_slot[net.index()] as usize;
                let bit = Tri::from(bit);
                if value[slot] != bit {
                    if pushes[slot] == 0 {
                        touched.push(slot);
                        start[slot] = value[slot];
                    }
                    pushes[slot] += 1;
                    value[slot] = bit;
                }
            }
            for slot in touched.drain(..) {
                driven[slot * words + lane / 64] |= 1 << (lane % 64);
                extra[lane] += pushes[slot] - u32::from(value[slot] != start[slot]);
                pushes[slot] = 0;
            }
            for (&net, &bit) in inputs.iter().zip(&value) {
                settled.set(net, lane, bit);
            }
        }
        carry = program.settle_cycles(&mut settled, &carry, mode).next_state;
        let cycle_lanes = CycleLanes {
            before: &before,
            settled: &settled,
            driven: &driven,
            extra_events: &extra,
        };
        let stats = job.statistics.then_some(&mut lanes);
        schedule.run_block(&cycle_lanes, mode, &mut tally, stats);
        if bulk {
            fold_x_ends(&settled, cycles, &mut x_ends, &mut clear_cycle);
        }
        cycles += assignments.len() as u64;
        before.copy_lane(0, &settled, assignments.len() - 1);
    }

    let mut activity = ActivityProbe::new();
    let mut power = PowerProbe::new(job.technology, job.frequency);
    activity.on_run_start(netlist);
    power.on_run_start(netlist);
    activity.record_totals(cycles, &tally.transitions, &tally.useful, &tally.rises);
    power.record_totals(cycles, &tally.transitions);
    let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(activity), Box::new(power)];
    let statistics = job.statistics.then(|| {
        let mut queue = QueueStats::default();
        let cycle_stats: Vec<CycleStats> = lanes
            .iter()
            .map(|lane| {
                queue.pushes += lane.events;
                queue.pops += lane.events;
                queue.peak_depth = queue.peak_depth.max(lane.peak_depth);
                CycleStats {
                    transitions: lane.transitions,
                    settle_time: lane.settle_time,
                    events: lane.events,
                    cell_evals: lane.cell_evals,
                }
            })
            .collect();
        let mut stats = StatsProbe::new();
        stats.on_run_start(netlist);
        for (cycle, cycle_stat) in cycle_stats.iter().enumerate() {
            stats.on_cycle_end(cycle as u64, cycle_stat);
        }
        probes.push(Box::new(stats));
        (cycle_stats, queue)
    });
    let final_values: Vec<Value> = (0..n)
        .map(|index| Value::from(before.get(NetId::from_index(index), 0)))
        .collect();
    let run = TimedRun {
        cycles,
        tally: &tally,
        x_ends: &x_ends,
        clear_cycle,
        final_values: &final_values,
    };
    for mut probe in extra_probes {
        probe.on_run_start(netlist);
        probe.record_timed(&run);
        probes.push(probe);
    }
    for probe in &mut probes {
        probe.on_run_end(netlist);
    }
    let mut report = SessionReport::from_parts(cycles, statistics, final_values, probes);
    report.set_timed_work(TimedWork {
        lanes: cycles,
        horizon: schedule.horizon(),
        op_evals: tally.op_evals,
    });
    Ok(report)
}

/// Folds one block's settled `X` planes, whose lane 0 is cycle
/// `first_cycle`, into the per-net `X` cycle ends and the first cycle
/// that ended with no net `X`.
fn fold_x_ends(
    settled: &KernelState,
    first_cycle: u64,
    x_ends: &mut [XEnds],
    clear_cycle: &mut Option<u64>,
) {
    let words = settled.words();
    let mut any = vec![0u64; words];
    for (ends, planes) in x_ends.iter_mut().zip(settled.msk_planes().chunks(words)) {
        for (w, &x) in planes.iter().enumerate() {
            if x == 0 {
                continue;
            }
            any[w] |= x;
            let base = first_cycle + 64 * w as u64;
            if ends.count == 0 {
                ends.first = base + u64::from(x.trailing_zeros());
            }
            ends.last = base + 63 - u64::from(x.leading_zeros());
            ends.count += u64::from(x.count_ones());
        }
    }
    if clear_cycle.is_none() {
        *clear_cycle = any.iter().enumerate().find_map(|(w, &x)| {
            let clear = !x & settled.word_mask(w);
            (clear != 0).then(|| first_cycle + 64 * w as u64 + u64::from(clear.trailing_zeros()))
        });
    }
}
