//! Batch jobs settled on the timed kernel (`glitch_kernel`'s
//! [`TimedSchedule`]) instead of the event queue.
//!
//! The timed kernel reproduces per-net transition counts with their
//! parity split and hazard classification, the nets left `X` at every
//! cycle end, every primary output's value at every cycle end
//! ([`crate::OutputRecord`]) and the final values, and — only when the
//! job asks for them
//! ([`SimJob::statistics`]) — the per-cycle statistics and queue traffic.
//! A [`SimJob`] whose extra probes can all be filled from those
//! ([`Probe::settles_timed`]; the standard probe set always can), whose
//! delays resolve to a timed schedule (every non-constant output delay
//! ≥ 1, or all of them 0) and whose static horizon fits the settle budget
//! gets from [`run_timed`] the same [`SessionReport`] the event-driven
//! session would, field for field; without statistics the report refuses
//! to be read for them ([`SessionReport::cycle_stats`]):
//!
//! - every cycle is one lane, 64 to a word, in blocks of up to 256;
//! - the stimulus enters a block and a word at a time: the job's random
//!   stream is drawn straight into each input's lane words
//!   ([`RandomStimulus::next_lanes`], the same draws in the same order as
//!   the per-cycle [`SimJob::stimulus`] the event queue reads), flips are
//!   written over them, and the lanes in which the queue would schedule an
//!   input come from comparing each lane with the one before;
//! - a lane starts from the previous cycle's functional settled state,
//!   which [`KernelProgram::settle_cycles`] provides for the whole block
//!   at once: one evaluation per word without flipflops or through a
//!   register pipeline, a per-word fixpoint only around feedback, the
//!   flipflop state carried from block to block;
//! - the probes are filled in bulk, with no per-transition hook dispatch:
//!   the extra ones through [`Probe::record_timed`] with a [`TimedRun`].

use glitch_kernel::{CycleLanes, KernelProgram, KernelState, TimedSchedule, TimedTally};
use glitch_netlist::{NetId, Tri};

use crate::clocked::CycleStats;
use crate::engine::QueueStats;
use crate::error::SimError;
use crate::kernel::kernel_eval_mode;
use crate::outputs::OutputRecord;
use crate::parallel::{random_stimulus, SimJob};
use crate::probe::{ActivityProbe, Probe};
use crate::session::SessionReport;
use crate::stimulus::RandomStimulus;
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
    /// Every primary output's value at every cycle end.
    pub outputs: &'a OutputRecord,
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

/// Runs `job` on the timed kernel with the standard probe (an
/// [`ActivityProbe`] priced at the job's operating point) plus
/// `extra_probes`, each of which must settle timed
/// ([`Probe::settles_timed`]). The hazard planes and `X` cycle ends
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
    let mut fill = InputFill::new(job, program.inputs())?;

    // The flipflop state entering each block's first cycle.
    let mut carry = program.power_on_state(dff_init);
    let mut before = program.new_state(1, Tri::X);
    let bulk = !extra_probes.is_empty();
    let mut tally = TimedTally::new(n);
    let mut x_ends = Vec::new();
    let mut outputs = OutputRecord::default();
    if bulk {
        tally = tally.with_hazards();
        x_ends = vec![XEnds::default(); n];
        outputs = OutputRecord::new(netlist.outputs().len());
    }
    let mut clear_cycle = None;
    let mut cycles = 0u64;
    let mut lanes = Vec::new();
    let mut block = FilledBlock::new(program);
    while fill.next_block(program, &before, dff_init, &mut block) {
        let settled = &mut block.settled;
        carry = program.settle_cycles(settled, &carry, mode).next_state;
        let cycle_lanes = CycleLanes {
            before: &before,
            settled,
            driven: &block.driven,
            extra_events: &block.extra_events,
        };
        let stats = job.statistics.then_some(&mut lanes);
        schedule.run_block(&cycle_lanes, mode, &mut tally, stats);
        if bulk {
            fold_x_ends(settled, cycles, &mut x_ends, &mut clear_cycle);
            outputs.push_words(settled.lanes(), |output, w| {
                settled.word(netlist.outputs()[output], w)
            });
        }
        cycles += settled.lanes() as u64;
        before.copy_lane(0, settled, settled.lanes() - 1);
    }

    let mut activity = ActivityProbe::priced(job.technology, job.frequency);
    activity.on_run_start(netlist);
    activity.record_totals(cycles, &tally.transitions, &tally.useful, &tally.rises);
    let mut probes: Vec<Box<dyn Probe>> = vec![Box::new(activity)];
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
        (cycle_stats, queue)
    });
    let final_values: Vec<Value> = (0..n)
        .map(|index| Value::from(before.get(NetId::from_index(index), 0)))
        .collect();
    let run = TimedRun {
        cycles,
        tally: &tally,
        x_ends: &x_ends,
        outputs: &outputs,
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

/// A job's stimulus as the timed kernel takes it, a block of cycles at a
/// time: every primary input's value words, the lanes in which the event
/// queue would schedule it, and the time-0 events beyond one per changed
/// input.
///
/// The random buses and held nets arrive as one word per drive of a
/// cycle ([`RandomStimulus::next_lanes`]). A flip then replaces every
/// drive of its net in its cycle, or drives a net nothing else drives, as
/// [`crate::DeltaStimulus::apply_to`] defines. A net takes its last
/// drive's value. The queue schedules it once for every drive that moves
/// it away from its pending value, so a net driven once per cycle is
/// scheduled exactly where it changes, and only a net driven more than
/// once per cycle (a held net that is also a bus bit) can cost more.
struct InputFill {
    stimulus: RandomStimulus,
    /// Per primary input (in program order), the drives that set it every
    /// cycle, in drive order.
    drives_of: Vec<Vec<usize>>,
    /// The flips as `(cycle, input, value)`, by cycle.
    flips: Vec<(u64, usize, bool)>,
    /// The first flip not yet applied.
    next_flip: usize,
    /// The first cycle of the next block.
    cycle: u64,
    /// Per drive, its lane words in the current block.
    planes: Vec<u64>,
}

/// One block of cycles from [`InputFill::next_block`]. A job fills one
/// block after the other into the same buffers.
struct FilledBlock {
    /// Every primary input's value in every lane; every other net `X`.
    settled: KernelState,
    /// [`CycleLanes::driven`].
    driven: Vec<u64>,
    /// [`CycleLanes::extra_events`].
    extra_events: Vec<u32>,
}

impl FilledBlock {
    /// Buffers for the blocks of `program`, before the first fill.
    fn new(program: &KernelProgram) -> Self {
        FilledBlock {
            settled: program.new_state(1, Tri::X),
            driven: Vec::new(),
            extra_events: Vec::new(),
        }
    }
}

impl InputFill {
    /// The fill of `job`'s stimulus onto the primary inputs `inputs`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::NotAnInput`] for the first net, in stimulus
    /// order, that the job drives but that is not a primary input.
    fn new(job: &SimJob<'_>, inputs: &[NetId]) -> Result<Self, SimError> {
        let mut input_of = vec![usize::MAX; job.netlist.net_count()];
        for (input, net) in inputs.iter().enumerate() {
            input_of[net.index()] = input;
        }
        let stimulus = random_stimulus(&job.random_buses, &job.held, job.cycles, job.seed);
        let mut flips: Vec<_> = job.flips.entries().collect();
        flips.sort_by_key(|&(cycle, _, _)| cycle);
        if job.cycles > 0 {
            if let Some(net) = stimulus
                .drives()
                .chain(flips.iter().map(|&(_, net, _)| net))
                .find(|net| input_of[net.index()] == usize::MAX)
            {
                return Err(SimError::NotAnInput(net));
            }
        }
        // Without cycles nothing is drawn, so no drive can be refused.
        let mut drives_of = vec![Vec::new(); inputs.len()];
        for (drive, net) in stimulus.drives().enumerate() {
            if let Some(drives) = drives_of.get_mut(input_of[net.index()]) {
                drives.push(drive);
            }
        }
        Ok(InputFill {
            stimulus,
            drives_of,
            flips: flips
                .into_iter()
                .map(|(cycle, net, value)| (cycle, input_of[net.index()], value))
                .collect(),
            next_flip: 0,
            cycle: 0,
            planes: Vec::new(),
        })
    }

    /// Fills `block` with the next block of up to
    /// [`TimedSchedule::BLOCK_LANES`] cycles, whose lane 0 follows the
    /// one-lane state `before`, in the buffers `block` already has; returns
    /// `false`, leaving `block` alone, when the stimulus has ended.
    fn next_block(
        &mut self,
        program: &KernelProgram,
        before: &KernelState,
        dff_init: Tri,
        block: &mut FilledBlock,
    ) -> bool {
        let first_cycle = self.cycle;
        let lanes = self
            .stimulus
            .next_lanes(TimedSchedule::BLOCK_LANES, &mut self.planes);
        if lanes == 0 {
            return false;
        }
        self.cycle += lanes as u64;
        let FilledBlock {
            settled,
            driven,
            extra_events,
        } = block;
        program.reset_state(settled, lanes, dff_init);
        let words = settled.words();
        let inputs = program.inputs();
        driven.clear();
        driven.resize(inputs.len() * words, 0);
        extra_events.clear();
        extra_events.resize(lanes, 0);

        let first_flip = self.next_flip;
        while let Some(&(cycle, input, value)) = self.flips.get(self.next_flip) {
            if cycle >= self.cycle {
                break;
            }
            let lane = (cycle - first_cycle) as usize;
            for &drive in &self.drives_of[input] {
                let word = &mut self.planes[drive * words + lane / 64];
                *word = (*word & !(1 << (lane % 64))) | (u64::from(value) << (lane % 64));
            }
            self.next_flip += 1;
        }
        let block_flips = &self.flips[first_flip..self.next_flip];

        for (input, &net) in inputs.iter().enumerate() {
            let driven = &mut driven[input * words..][..words];
            let drives = &self.drives_of[input];
            let Some(&last) = drives.last() else {
                fill_flipped_only(
                    settled,
                    net,
                    before.get(net, 0),
                    block_flips
                        .iter()
                        .filter(|&&(_, flipped, _)| flipped == input)
                        .map(|&(cycle, _, value)| ((cycle - first_cycle) as usize, value)),
                    driven,
                );
                continue;
            };
            let plane = |drive: usize, w: usize| self.planes[drive * words + w];
            // The pending value before lane 0's drives: the last block's.
            let (v, m) = before.word(net, 0);
            let (mut carry_v, mut carry_m) = (v & 1, m & 1);
            for (w, scheduled) in driven.iter_mut().enumerate() {
                let now = plane(last, w);
                let pending = ((now << 1) | carry_v) & settled.word_mask(w);
                let moved = (now ^ pending) | carry_m;
                *scheduled = moved;
                if drives.len() > 1 {
                    // One event per drive that moves the pending value.
                    let (mut value, mut unknown) = (pending, carry_m);
                    for &drive in drives {
                        let next = plane(drive, w);
                        let step = (next ^ value) | unknown;
                        *scheduled |= step;
                        for lane in lanes_of(step) {
                            extra_events[64 * w + lane] += 1;
                        }
                        (value, unknown) = (next, 0);
                    }
                    for lane in lanes_of(moved) {
                        extra_events[64 * w + lane] -= 1;
                    }
                }
                settled.set_word(net, w, now);
                (carry_v, carry_m) = (now >> 63, 0);
            }
        }
        true
    }
}

/// The set bits of `bits`, lowest first.
fn lanes_of(mut bits: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let lane = (bits != 0).then(|| bits.trailing_zeros() as usize);
        bits &= bits.wrapping_sub(1);
        lane
    })
}

/// Fills input `net`, which only flips drive, from the pending value
/// `value` carried into the block: each `(lane, value)` flip moves it from
/// that lane on, and is scheduled where it changes the value.
fn fill_flipped_only(
    settled: &mut KernelState,
    net: NetId,
    mut value: Tri,
    flips: impl Iterator<Item = (usize, bool)>,
    driven: &mut [u64],
) {
    let mut flips = flips.peekable();
    if value == Tri::X && flips.peek().is_none() {
        // Never driven yet: the net stays `X`.
        return;
    }
    for lane in 0..settled.lanes() {
        if let Some((_, bit)) = flips.next_if(|&(at, _)| at == lane) {
            let bit = Tri::from(bit);
            if bit != value {
                driven[lane / 64] |= 1 << (lane % 64);
                value = bit;
            }
        }
        settled.set(net, lane, value);
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::DeltaStimulus;
    use crate::parallel::ParallelRunner;
    use glitch_netlist::{Bus, Netlist};

    /// Per cycle: every input's value, whether the queue schedules it,
    /// and the cycle's time-0 events beyond one per changed input.
    type Lanes = (Vec<Vec<Tri>>, Vec<Vec<bool>>, Vec<u32>);

    /// The reference: the job's stimulus walked one assignment and one
    /// drive at a time, as the event queue schedules it.
    fn walk(job: &SimJob<'_>, inputs: &[NetId]) -> Lanes {
        let input_of = |net: NetId| inputs.iter().position(|&input| input == net).unwrap();
        let mut value = vec![Tri::X; inputs.len()];
        let (mut values, mut driven, mut extra) = (Vec::new(), Vec::new(), Vec::new());
        for assignment in job.stimulus() {
            let start = value.clone();
            let mut pushes = vec![0u32; inputs.len()];
            for &(net, bit) in assignment.assignments() {
                let input = input_of(net);
                if value[input] != Tri::from(bit) {
                    pushes[input] += 1;
                    value[input] = Tri::from(bit);
                }
            }
            driven.push(pushes.iter().map(|&p| p > 0).collect());
            extra.push(
                (0..inputs.len())
                    .map(|i| pushes[i] - u32::from(value[i] != start[i]))
                    .sum(),
            );
            values.push(value.clone());
        }
        (values, driven, extra)
    }

    /// The word fill, read back lane by lane.
    fn fill(job: &SimJob<'_>, program: &KernelProgram) -> Result<Lanes, SimError> {
        let inputs = program.inputs();
        let mut fill = InputFill::new(job, inputs)?;
        let mut before = program.new_state(1, Tri::X);
        let (mut values, mut driven, mut extra) = (Vec::new(), Vec::new(), Vec::new());
        let mut block = FilledBlock::new(program);
        while fill.next_block(program, &before, Tri::Zero, &mut block) {
            let (settled, words) = (&block.settled, block.settled.words());
            assert_eq!(block.driven.len(), inputs.len() * words);
            assert_eq!(block.extra_events.len(), settled.lanes());
            for (i, chunk) in block.driven.chunks(words).enumerate() {
                assert_eq!(
                    chunk[words - 1] & !settled.word_mask(words - 1),
                    0,
                    "input {i}"
                );
            }
            for lane in 0..settled.lanes() {
                values.push(inputs.iter().map(|&net| settled.get(net, lane)).collect());
                driven.push(
                    (0..inputs.len())
                        .map(|i| block.driven[i * words + lane / 64] >> (lane % 64) & 1 == 1)
                        .collect(),
                );
                extra.push(block.extra_events[lane]);
            }
            before.copy_lane(0, settled, settled.lanes() - 1);
        }
        Ok((values, driven, extra))
    }

    /// A `width`-bit bus `a`, a held input `c`, an input `f` only flips
    /// drive, an input `u` nothing drives, and two gates.
    fn circuit(width: usize) -> (Netlist, Bus, [NetId; 5]) {
        let mut nl = Netlist::new("fill");
        let a = nl.add_input_bus("a", width);
        let c = nl.add_input("c");
        let f = nl.add_input("f");
        let u = nl.add_input("u");
        let y = nl.xor2(a.bit(0), c, "y");
        let z = nl.and(&[y, f, u], "z");
        nl.mark_output(z);
        (nl, a, [c, f, u, y, z])
    }

    #[test]
    fn word_fill_matches_the_per_cycle_walk() {
        for width in [1, 63, 64, 65, 128] {
            let (nl, a, [c, f, u, _, _]) = circuit(width);
            let program = KernelProgram::compile(&nl).unwrap();
            for cycles in [1, 255, 256, 257] {
                // A held input, and the bus's top bit held too: driven
                // twice a cycle, it costs events beyond its change.
                let base = SimJob::new(&nl, vec![a.clone()], cycles, 11)
                    .with_held(vec![(c, true), (a.bit(width - 1), false)]);
                let last = cycles - 1;
                let mut flips = DeltaStimulus::new()
                    .set(0, f, true)
                    .set(last, a.bit(width - 1), true)
                    .set(last / 2, c, false);
                if last > 0 {
                    flips = flips.set(last, f, false).set(1, a.bit(0), true);
                }
                for job in [base.clone(), base.with_flips(flips)] {
                    let expected = walk(&job, program.inputs());
                    let got = fill(&job, &program).unwrap();
                    assert_eq!(got.0.len() as u64, cycles);
                    assert!(got.0.iter().all(|values| values
                        [program.inputs().iter().position(|&net| net == u).unwrap()]
                        == Tri::X));
                    if cycles > 1 {
                        assert!(got.2.iter().any(|&extra| extra > 0), "width {width}");
                    }
                    assert_eq!(got.0, expected.0, "values: width {width}, {cycles} cycles");
                    assert_eq!(got.1, expected.1, "driven: width {width}, {cycles} cycles");
                    assert_eq!(got.2, expected.2, "extra: width {width}, {cycles} cycles");
                }
            }
        }
    }

    #[test]
    fn word_fill_refuses_the_net_the_event_path_refuses() {
        let (nl, a, [c, f, _, y, z]) = circuit(4);
        let program = KernelProgram::compile(&nl).unwrap();
        let job = SimJob::new(&nl, vec![a], 40, 3).with_held(vec![(c, true)]);
        let cases = [
            job.clone()
                .with_held(vec![(c, true), (y, false), (z, true)]),
            job.clone()
                .with_flips(DeltaStimulus::new().set(9, z, true).set(3, y, true)),
            job.clone().with_flips(
                DeltaStimulus::new()
                    .set(5, f, true)
                    .set(5, z, true)
                    .set(5, y, true),
            ),
            job.clone()
                .with_held(vec![(z, true)])
                .with_flips(DeltaStimulus::new().set(0, y, true)),
        ];
        for (case, expected) in cases.iter().zip([y, y, z, z]) {
            let event = ParallelRunner::new(1).run_sessions(std::slice::from_ref(case));
            assert_eq!(event.unwrap_err(), SimError::NotAnInput(expected));
            assert_eq!(
                fill(case, &program).unwrap_err(),
                SimError::NotAnInput(expected)
            );
        }
        // No cycle, no assignment, nothing to refuse.
        let empty = SimJob::new(&nl, vec![], 0, 3).with_held(vec![(y, true)]);
        assert_eq!(fill(&empty, &program).unwrap().0.len(), 0);
    }
}
