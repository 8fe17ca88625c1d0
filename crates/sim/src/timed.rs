//! Batch jobs settled on the timed kernel (`glitch_kernel`'s
//! [`TimedSchedule`]) instead of the event queue.
//!
//! A [`SimJob`] with the standard probe set asks for exactly what the
//! timed kernel can reproduce: per-net transition counts with their
//! parity split, per-cycle statistics, queue traffic and final values. For
//! a job whose delays resolve to a timed schedule (every non-constant
//! output delay ≥ 1, or all of them 0) and whose static horizon fits the
//! settle budget, [`run_timed`] produces the same [`SessionReport`] the
//! event-driven session would, field for field:
//!
//! - every cycle is one lane, 64 to a word, in blocks of up to 256;
//! - a lane starts from the previous cycle's functional settled state,
//!   which one pass of the functional kernel provides (sequentially for
//!   the flipflop states, lane-parallel for everything else);
//! - the probes are filled in bulk, with no per-transition hook dispatch.
//!
//! The only figure that may differ is [`crate::PowerProbe::energy_joules`],
//! whose float sum runs in another order; no report prints it.

use glitch_kernel::{CycleLanes, KernelProgram, TimedSchedule, TimedTally};
use glitch_netlist::{NetId, Tri};

use crate::clocked::CycleStats;
use crate::engine::QueueStats;
use crate::error::SimError;
use crate::kernel::kernel_eval_mode;
use crate::parallel::SimJob;
use crate::probe::{ActivityProbe, PowerProbe, Probe, StatsProbe};
use crate::session::SessionReport;
use crate::stimulus::StimulusProgram;
use crate::value::Value;

/// Deterministic work accounting of one job settled on the timed kernel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimedWork {
    /// Lanes stepped: one per clock cycle.
    pub lanes: u64,
    /// The static settle horizon of the job's delay model.
    pub horizon: u64,
    /// Word-wide op evaluations (op × time point × 64-lane word).
    pub op_evals: u64,
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
/// ([`ActivityProbe`], [`PowerProbe`], [`StatsProbe`]).
///
/// # Errors
///
/// Returns [`SimError::NotAnInput`] for the first assignment that drives
/// a non-input net, as the event-driven session does.
pub(crate) fn run_timed(
    job: &SimJob<'_>,
    schedule: &TimedSchedule<'_>,
) -> Result<SessionReport, SimError> {
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
    // The sequential functional pass that yields each cycle's flipflop
    // outputs; combinational circuits need none.
    let mut sequential = (!program.dffs().is_empty()).then(|| program.new_state(1, dff_init));
    let mut before = program.new_state(1, Tri::X);
    let mut tally = TimedTally::new(n);
    let mut lanes = Vec::new();
    let mut stimulus = job.stimulus();
    let block = schedule.block_lanes();
    loop {
        let assignments: Vec<_> = (0..block).map_while(|_| stimulus.next_vector()).collect();
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
            if let Some(state) = sequential.as_mut() {
                program.begin_cycle(state);
                for dff in program.dffs() {
                    settled.set(dff.q(), lane, state.get(dff.q(), 0));
                }
                for (&net, &bit) in inputs.iter().zip(&value) {
                    state.set(net, 0, bit);
                }
                program.eval(state, mode);
                program.latch(state);
            }
        }
        program.eval(&mut settled, mode);
        let cycle_lanes = CycleLanes {
            before: &before,
            settled: &settled,
            driven: &driven,
            extra_events: &extra,
        };
        schedule.run_block(&cycle_lanes, mode, &mut tally, &mut lanes);
        before.copy_lane(0, &settled, assignments.len() - 1);
    }

    let cycles = lanes.len() as u64;
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
    let mut activity = ActivityProbe::new();
    let mut power = PowerProbe::new(job.technology, job.frequency);
    let mut stats = StatsProbe::new();
    activity.on_run_start(netlist);
    power.on_run_start(netlist);
    stats.on_run_start(netlist);
    activity.record_totals(cycles, &tally.transitions, &tally.useful, &tally.rises);
    power.record_totals(cycles, &tally.transitions);
    for (cycle, cycle_stat) in cycle_stats.iter().enumerate() {
        stats.on_cycle_end(cycle as u64, cycle_stat);
    }
    let mut probes: Vec<Box<dyn Probe>> =
        vec![Box::new(activity), Box::new(power), Box::new(stats)];
    for probe in &mut probes {
        probe.on_run_end(netlist);
    }
    let final_values = (0..n)
        .map(|index| Value::from(before.get(NetId::from_index(index), 0)))
        .collect();
    let mut report = SessionReport::from_parts(cycles, cycle_stats, final_values, probes);
    report.set_queue_stats(queue);
    report.set_timed_work(TimedWork {
        lanes: cycles,
        horizon: schedule.horizon(),
        op_evals: tally.op_evals,
    });
    Ok(report)
}
