//! The timed time step: glitch-accurate settling of lane-per-cycle
//! batches under integer transport delays.
//!
//! For integer delays the event-driven simulator is a pure transport
//! delay: a cell whose inputs change at time `s` schedules its new output
//! value at `s + d`, de-duplicated only against the last value scheduled,
//! and a net reports at most one change per time point. So every output
//! obeys `out(t) = f(in(t − d))`, and a levelized, word-wide, time-stepped
//! evaluation reproduces the event stream exactly. [`TimedSchedule`]
//! resolves the per-op output delays and each net's static *arrival
//! window* — the earliest and latest time it can change within a cycle —
//! and [`TimedSchedule::run_block`] steps time across those windows for a
//! block of lanes, one clock cycle per lane.
//!
//! Each net keeps a ring of `max_delay + 1` (at least two, rounded up to
//! a power of two) plane slots, slot `t & mask` holding its value at time
//! `t`. A read at time `s` clamps `s` into `[lo − 1, hi]`: before the
//! window the net holds its start value (stored in slot `lo − 1`), after
//! it the value it reached at `hi`. Both stay valid for as long as any
//! reader can look back (at most `max_delay` time points).
//!
//! Besides the values, the step always counts each net's transitions
//! with their parity and rises. When the caller asks for per-lane
//! statistics ([`TimedSchedule::run_block`] with somewhere to put them),
//! it also counts exactly what the event queue counts: the events and
//! cell evaluations of every time point, the last time point with a
//! change (the settle time), and the queue's peak depth — the source
//! events of time 0, or the events pending after a time point's pushes,
//! whichever is larger. A block run without them compiles none of that
//! accounting in. Zero-delay schedules run on the unit schedule, because
//! the queue's zero-delay delta batches are exactly the unit-delay time
//! points; their transitions are the start-versus-settled changes of each
//! net, and their settle time is 0. Without statistics a zero-delay block
//! counts those changes and skips the time steps, which would only count
//! queue traffic.
//!
//! When the tally asks for them ([`TimedTally::with_hazards`]), the step
//! also classifies every lane's hazards as the hazard checker reads them
//! off the event stream: per net it keeps the lanes with at least one, two
//! and three switching transitions and the value before the first, and at
//! block end compares them with the settled value. A static hazard is two
//! or more transitions back to a known start value, a dynamic one three or
//! more ending elsewhere (an `X` end included). Transition parity alone
//! cannot tell these apart once a net goes `X` late in a cycle.
//!
//! The kernel replicates the pure-delay model exactly and claims nothing
//! beyond it: Függer et al. show the model is not faithful to real glitch
//! propagation.

use glitch_netlist::CellKind;

use crate::program::{eval_word, EvalMode, KernelProgram};
use crate::state::KernelState;

/// Largest resolved delay a timed schedule accepts.
const MAX_DELAY: u64 = 255;
/// Time points a timed schedule may span; deeper schedules are left to
/// the event-driven simulator.
const MAX_TIME_POINTS: u32 = 4096;
/// Most `u64` words (of 64 lanes each) one block covers.
const MAX_BLOCK_WORDS: usize = 4;
/// Target size of one block's working set, in bytes.
const BLOCK_BYTES: usize = 1 << 20;

/// A [`KernelProgram`] with its per-op output delays resolved and every
/// net's arrival window computed: the static half of the timed step.
#[derive(Debug, Clone)]
pub struct TimedSchedule<'p> {
    program: &'p KernelProgram,
    /// Per op, the delay of output pins 0 and 1 on the schedule (1 for a
    /// zero-delay run, which settles on the unit schedule).
    delays: Vec<[u32; 2]>,
    /// Per op, the times at which one of its inputs can change.
    in_window: Vec<(u32, u32)>,
    /// Per net, the times at which it can change.
    window: Vec<(u32, u32)>,
    /// Nets that change only at time 0: primary inputs (first, in program
    /// order), flipflop outputs and constants.
    sources: Vec<u32>,
    /// The last time point of the schedule.
    last: u32,
    /// Ring slots per net (a power of two above the largest delay).
    slots: usize,
    zero_delay: bool,
}

/// What one lane (one clock cycle) of a timed block settled to: the
/// event-driven simulator's per-cycle statistics plus the cycle's peak
/// event-queue depth.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Switching (0↔1) transitions on all nets.
    pub transitions: u64,
    /// The last time point with a change (0 under zero delay).
    pub settle_time: u64,
    /// Net-value changes, one event each.
    pub events: u64,
    /// Combinational cells evaluated: one per cell and time point at
    /// which one of its inputs changed.
    pub cell_evals: u64,
    /// Largest number of simultaneously pending events.
    pub peak_depth: u64,
}

/// Per-net totals a timed run accumulates across blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimedTally {
    /// Switching transitions per net.
    pub transitions: Vec<u64>,
    /// Useful transitions per net: one for every cycle with an odd
    /// transition count (the parity rule).
    pub useful: Vec<u64>,
    /// Rising (0→1) transitions per net.
    pub rises: Vec<u64>,
    /// Word-wide op evaluations performed (op × time point × word).
    pub op_evals: u64,
    /// Hazards per net: static and dynamic, one per net and cycle. Empty,
    /// and the four totals below zero, unless the tally was made
    /// [`TimedTally::with_hazards`].
    pub hazards: Vec<u64>,
    /// Static-0 hazards (`0 → 1 → 0`) over all nets.
    pub static0: u64,
    /// Static-1 hazards (`1 → 0 → 1`) over all nets.
    pub static1: u64,
    /// Dynamic hazards (three or more transitions to another level).
    pub dynamic: u64,
    /// Cycles with at least one hazard on some net.
    pub hazard_cycles: u64,
}

impl TimedTally {
    /// An empty tally for `net_count` nets.
    #[must_use]
    pub fn new(net_count: usize) -> Self {
        TimedTally {
            transitions: vec![0; net_count],
            useful: vec![0; net_count],
            rises: vec![0; net_count],
            ..TimedTally::default()
        }
    }

    /// Asks the blocks folded into this tally to classify hazards as well
    /// (builder style). The classification keeps four more planes per net.
    #[must_use]
    pub fn with_hazards(mut self) -> Self {
        self.hazards = vec![0; self.transitions.len()];
        self
    }
}

/// One block of lanes for [`TimedSchedule::run_block`]: lane `l` is one
/// clock cycle, which starts from lane `l − 1`'s settled values (lane 0
/// from `before`).
#[derive(Debug, Clone, Copy)]
pub struct CycleLanes<'a> {
    /// A one-lane state holding every net's value before lane 0's cycle.
    pub before: &'a KernelState,
    /// The functional settled values of every lane's cycle. The source
    /// nets hold the values they take at time 0.
    pub settled: &'a KernelState,
    /// Per primary input (in program order) and word: the lanes whose
    /// input was scheduled at time 0 — driven away from its pending value
    /// at least once. A superset of the lanes in which it changed.
    pub driven: &'a [u64],
    /// Per lane: time-0 input events beyond one per changed input (an
    /// assignment that drives one input more than once).
    pub extra_events: &'a [u32],
}

impl<'p> TimedSchedule<'p> {
    /// Resolves `delay(kind, pin)` for every combinational op of
    /// `program` and computes the arrival windows.
    ///
    /// Returns `None` when the delays do not fit the timed step: a mix of
    /// zero and non-zero delays (zero-delay cells inside a timed schedule
    /// need delta iterations), a delay above 255, or a schedule deeper
    /// than 4096 time points. Constant cells are exempt: they assert their
    /// value at time 0 whatever their delay.
    pub fn new(program: &'p KernelProgram, delay: impl Fn(CellKind, usize) -> u64) -> Option<Self> {
        let mut delays = Vec::with_capacity(program.ops.len());
        let (mut any_zero, mut any_timed, mut max_delay) = (false, false, 1u64);
        for op in &program.ops {
            let mut pins = [0u32; 2];
            if !matches!(op.kind, CellKind::Const(_)) {
                for (pin, slot) in pins.iter_mut().enumerate().take(op.outputs().count()) {
                    let d = delay(op.kind, pin);
                    if d > MAX_DELAY {
                        return None;
                    }
                    any_zero |= d == 0;
                    any_timed |= d > 0;
                    max_delay = max_delay.max(d);
                    *slot = d as u32;
                }
            }
            delays.push(pins);
        }
        if any_zero && any_timed {
            return None;
        }
        if any_zero {
            delays.iter_mut().for_each(|pins| *pins = [1, 1]);
        }

        let mut window = vec![(0u32, 0u32); program.net_count()];
        let mut in_window = Vec::with_capacity(program.ops.len());
        let mut sources: Vec<u32> = program.inputs().iter().map(|n| n.index() as u32).collect();
        sources.extend(program.dffs().iter().map(|d| d.q().index() as u32));
        let mut last = 0u32;
        for (op, pins) in program.ops.iter().zip(&delays) {
            if matches!(op.kind, CellKind::Const(_)) {
                sources.push(op.out0);
                // An empty window: a constant cell has no inputs.
                in_window.push((1, 0));
                continue;
            }
            let ins = program.op_inputs(op);
            let lo = ins.iter().map(|&n| window[n as usize].0).min().unwrap_or(0);
            let hi = ins.iter().map(|&n| window[n as usize].1).max().unwrap_or(0);
            in_window.push((lo, hi));
            for (out, d) in op.outputs().zip(pins) {
                window[out as usize] = (lo.saturating_add(*d), hi.saturating_add(*d));
                last = last.max(hi.saturating_add(*d));
            }
        }
        if last >= MAX_TIME_POINTS {
            return None;
        }
        Some(TimedSchedule {
            program,
            delays,
            in_window,
            window,
            sources,
            last,
            slots: (max_delay as usize + 1).next_power_of_two(),
            zero_delay: any_zero,
        })
    }

    /// The compiled program the schedule steps.
    #[must_use]
    pub fn program(&self) -> &'p KernelProgram {
        self.program
    }

    /// The latest time at which any event can occur within a cycle — the
    /// static settle horizon (0 under zero delay). A run whose settle
    /// budget is at least this never exceeds it.
    #[must_use]
    pub fn horizon(&self) -> u64 {
        if self.zero_delay {
            0
        } else {
            u64::from(self.last)
        }
    }

    /// Lanes per block that keep one block's working set near 1 MiB: a
    /// multiple of 64, from 64 to 256. `hazards` says whether the blocks
    /// classify hazards ([`TimedTally::with_hazards`]), `stats` whether
    /// they count [`LaneStats`].
    #[must_use]
    pub fn block_lanes(&self, hazards: bool, stats: bool) -> usize {
        let time_points = self.last as usize + 1;
        // Per net: the value and mask ring slots, the settled planes, the
        // change and parity scratch and the hazard planes; per lane, when
        // counting statistics: the push and pop counts of every time point.
        let per_net = self.slots * 16 + 32 + if hazards { 32 } else { 0 };
        let per_lane = if stats { time_points * 8 } else { 0 };
        let per_word = self.program.net_count() * per_net + 64 * per_lane;
        64 * (BLOCK_BYTES / per_word.max(1)).clamp(1, MAX_BLOCK_WORDS)
    }

    /// Steps one block of lanes through the schedule: folds the per-net
    /// transition counts, and the hazards when `tally` asks for them, into
    /// `tally`, and appends one [`LaneStats`] per lane to `stats` when
    /// given. Without `stats` the block counts no queue traffic at all.
    ///
    /// # Panics
    ///
    /// Panics when the states do not belong to the schedule's program,
    /// `before` has more than one lane, or the block has more than 256
    /// lanes.
    pub fn run_block(
        &self,
        lanes: &CycleLanes<'_>,
        mode: EvalMode,
        tally: &mut TimedTally,
        stats: Option<&mut Vec<LaneStats>>,
    ) {
        // Zero-delay lanes switch at most once per net: no hazards. A
        // block compiles without the upkeep of what it does not keep.
        let hazards = !tally.hazards.is_empty() && !self.zero_delay;
        match (hazards, stats) {
            (false, None) => self.settle_block::<false, false>(lanes, mode, tally, &mut Vec::new()),
            (true, None) => self.settle_block::<true, false>(lanes, mode, tally, &mut Vec::new()),
            (false, Some(out)) => self.settle_block::<false, true>(lanes, mode, tally, out),
            (true, Some(out)) => self.settle_block::<true, true>(lanes, mode, tally, out),
        }
    }

    /// [`TimedSchedule::run_block`], with or without the hazard planes
    /// and the per-lane statistics.
    fn settle_block<const HAZARDS: bool, const STATS: bool>(
        &self,
        lanes: &CycleLanes<'_>,
        mode: EvalMode,
        tally: &mut TimedTally,
        out: &mut Vec<LaneStats>,
    ) {
        let program = self.program;
        let settled = lanes.settled;
        let n = program.net_count();
        let words = settled.words;
        assert_eq!(
            settled.val.len(),
            n * words,
            "settled state of another netlist"
        );
        assert_eq!(
            lanes.before.val.len(),
            n,
            "`before` must be a one-lane state"
        );
        assert!(
            words <= MAX_BLOCK_WORDS,
            "a timed block covers at most 256 lanes"
        );
        let lane_count = settled.lanes;
        let (slots, mask) = (self.slots, self.slots - 1);
        let time_points = self.last as usize + 1;
        let window = &self.window;
        let at = |net: usize, slot: usize| (net * slots + slot) * words;

        let mut ring_v = vec![0u64; n * slots * words];
        let mut ring_m = vec![0u64; n * slots * words];
        let counted = if STATS { lane_count } else { 0 };
        let mut step = Step::<HAZARDS, STATS> {
            lanes: lane_count,
            words,
            functional: self.zero_delay,
            parity: vec![0; n * words],
            reached: vec![[0; 4]; if HAZARDS { n * words } else { 0 }],
            switched_now: LaneCounter::default(),
            transitions: vec![0; counted],
            evaluated_now: LaneCounter::default(),
            cell_evals: vec![0; counted],
            pushed_now: Vec::new(),
            pushes: vec![0; time_points * counted],
            pops: vec![0; time_points * counted],
            tally,
        };
        // Start values: lane l begins where lane l − 1 settled.
        for (net, &(lo, _)) in window.iter().enumerate() {
            let start = at(net, (lo as usize).wrapping_sub(1) & mask);
            let (mut carry_v, mut carry_m) = (lanes.before.val[net] & 1, lanes.before.msk[net] & 1);
            for w in 0..words {
                let (sv, sm) = (settled.val[net * words + w], settled.msk[net * words + w]);
                let wm = settled.word_mask(w);
                let (v, m) = (((sv << 1) | carry_v) & wm, ((sm << 1) | carry_m) & wm);
                ring_v[start + w] = v;
                ring_m[start + w] = m;
                (carry_v, carry_m) = (sv >> 63, sm >> 63);
                if step.functional {
                    step.switch(net, w, (v, m), (sv, sm), true);
                }
            }
        }
        if !STATS && self.zero_delay {
            // The transitions are counted; the time steps would only
            // count queue traffic.
            return;
        }
        if STATS {
            for (lane, &extra) in lanes.extra_events.iter().enumerate() {
                step.pushes[lane] += extra;
                step.pops[lane] += extra;
            }
        }

        // Time 0: the sources take their settled values.
        let mut changed = vec![0u64; n * words];
        // `stamp[net * slots + (s & mask)] == s` when `net` changed in some
        // lane at time `s`; a cell none of whose inputs did cannot change.
        let mut stamp = vec![u32::MAX; n * slots];
        let inputs = program.inputs().len();
        for (i, &net) in self.sources.iter().enumerate() {
            let net = net as usize;
            stamp[net * slots] = 0;
            for w in 0..words {
                let (old, new) = (at(net, mask) + w, at(net, 0) + w);
                let settled_at = net * words + w;
                ring_v[new] = settled.val[settled_at];
                ring_m[new] = settled.msk[settled_at];
                let c = step.change(
                    net,
                    0,
                    w,
                    (ring_v[old], ring_m[old]),
                    (ring_v[new], ring_m[new]),
                );
                let driven = if i < inputs {
                    lanes.driven[i * words + w]
                } else {
                    0
                };
                changed[net * words + w] = c | driven;
            }
        }

        let mut bases: Vec<usize> = Vec::new();
        for t in 0..time_points {
            let t32 = t as u32;
            for (i, op) in program.ops.iter().enumerate() {
                let (in_lo, in_hi) = self.in_window[i];
                let pins = self.delays[i];
                if t32 < in_lo || t32 > in_hi + pins[0].max(pins[1]) {
                    continue;
                }
                let ins = program.op_inputs(op);
                let moved_at = |stamp: &[u32], s: usize| {
                    ins.iter()
                        .any(|&input| stamp[input as usize * slots + (s & mask)] == s as u32)
                };
                // The cell evaluates at `t` in every lane where one of its
                // inputs changed at `t`.
                if STATS && t32 <= in_hi && moved_at(&stamp, t) {
                    let mut hit = [0u64; MAX_BLOCK_WORDS];
                    for &input in ins {
                        let (lo, hi) = window[input as usize];
                        if lo <= t32 && t32 <= hi {
                            let base = input as usize * words;
                            for (w, h) in hit[..words].iter_mut().enumerate() {
                                *h |= changed[base + w];
                            }
                        }
                    }
                    for (w, &h) in hit[..words].iter().enumerate() {
                        step.evaluated_now.add(w, h);
                    }
                }
                let outs = [op.out0, op.out1];
                let out_count = if op.out1 == u32::MAX { 1 } else { 2 };
                let mut pin = 0;
                while pin < out_count {
                    let (lo, hi) = window[outs[pin] as usize];
                    // Two pins with one delay share one evaluation.
                    let shared = pin == 0 && out_count == 2 && pins[0] == pins[1];
                    let next = if shared { 2 } else { pin + 1 };
                    if t32 < lo || t32 > hi {
                        pin = next;
                        continue;
                    }
                    let d = pins[pin] as usize;
                    let (from, to) = ((t - 1) & mask, t & mask);
                    if !moved_at(&stamp, t - d) {
                        // Inputs as at `t − d − 1`: the outputs hold.
                        for (p, &o) in outs[..out_count].iter().enumerate() {
                            if p == pin || shared {
                                let o = o as usize;
                                ring_v.copy_within(at(o, from)..at(o, from) + words, at(o, to));
                                ring_m.copy_within(at(o, from)..at(o, from) + words, at(o, to));
                                changed[o * words..(o + 1) * words].fill(0);
                            }
                        }
                        pin = next;
                        continue;
                    }
                    let s = (t - d) as i64;
                    bases.clear();
                    bases.extend(ins.iter().map(|&input| {
                        let (lo, hi) = window[input as usize];
                        let slot = s.clamp(i64::from(lo) - 1, i64::from(hi)) as usize & mask;
                        at(input as usize, slot)
                    }));
                    for w in 0..words {
                        let wm = settled.word_mask(w);
                        let result = eval_word(op.kind, mode, wm, ins.len(), |k| {
                            (ring_v[bases[k] + w], ring_m[bases[k] + w])
                        });
                        for (p, &o) in outs[..out_count].iter().enumerate() {
                            if p != pin && !shared {
                                continue;
                            }
                            let o = o as usize;
                            let (old, new) = (at(o, from) + w, at(o, to) + w);
                            ring_v[new] = result[p].0;
                            ring_m[new] = result[p].1;
                            let c = step.change(o, d, w, (ring_v[old], ring_m[old]), result[p]);
                            changed[o * words + w] = c;
                            if c != 0 {
                                stamp[o * slots + to] = t32;
                            }
                        }
                    }
                    step.tally.op_evals += words as u64;
                    pin = next;
                }
            }
            if STATS {
                step.flush(t);
            }
        }

        if cfg!(debug_assertions) {
            for (net, &(_, hi)) in window.iter().enumerate() {
                let last = at(net, hi as usize & mask);
                assert_eq!(
                    (&ring_v[last..last + words], &ring_m[last..last + words]),
                    (
                        &settled.val[net * words..(net + 1) * words],
                        &settled.msk[net * words..(net + 1) * words]
                    ),
                    "net {net} did not settle to its functional value"
                );
            }
        }
        if !step.functional {
            for (net, parity) in step.parity.chunks(words).enumerate() {
                step.tally.useful[net] += parity
                    .iter()
                    .map(|p| u64::from(p.count_ones()))
                    .sum::<u64>();
            }
        }
        if HAZARDS {
            step.classify_hazards(settled);
        }
        if !STATS {
            return;
        }
        for lane in 0..lane_count {
            let mut stats = LaneStats {
                transitions: u64::from(step.transitions[lane]),
                cell_evals: u64::from(step.cell_evals[lane]),
                peak_depth: u64::from(step.pops[lane]),
                ..LaneStats::default()
            };
            let mut depth = 0i64;
            for t in 0..time_points {
                let (pushed, popped) = (
                    step.pushes[t * lane_count + lane],
                    step.pops[t * lane_count + lane],
                );
                stats.events += u64::from(popped);
                if popped > 0 && !step.functional {
                    stats.settle_time = t as u64;
                }
                depth += i64::from(pushed) - i64::from(popped);
                stats.peak_depth = stats.peak_depth.max(depth as u64);
            }
            out.push(stats);
        }
    }
}

/// The mutable accounting of one block; `HAZARDS` says whether it keeps
/// the hazard planes, `STATS` whether it counts the per-lane statistics.
struct Step<'a, const HAZARDS: bool, const STATS: bool> {
    lanes: usize,
    words: usize,
    /// Transitions are start-versus-settled (zero delay) rather than per
    /// time point.
    functional: bool,
    /// Per net and word: the parity of each lane's switching count.
    parity: Vec<u64>,
    /// Per net and word, when `HAZARDS` (empty otherwise):
    /// the lanes with at least one, two and three switching transitions,
    /// and each lane's value before its first one.
    reached: Vec<[u64; 4]>,
    /// Switching transitions per lane: this time point's, and the
    /// block's totals. The per-lane fields are unused (and their tables
    /// empty) unless `STATS`.
    switched_now: LaneCounter,
    transitions: Vec<u32>,
    /// Cell evaluations per lane: this time point's, and the block's
    /// totals.
    evaluated_now: LaneCounter,
    cell_evals: Vec<u32>,
    /// This time point's changes per lane, by the delay they were pushed
    /// with.
    pushed_now: Vec<(usize, LaneCounter)>,
    /// Events pushed and popped per time point and lane (time-major).
    pushes: Vec<u32>,
    pops: Vec<u32>,
    tally: &'a mut TimedTally,
}

impl<const HAZARDS: bool, const STATS: bool> Step<'_, HAZARDS, STATS> {
    /// Records `net` going from `old` to `new` at the current time point
    /// in word `w` (an event pushed `d` time points earlier) and returns
    /// the lanes that changed.
    #[inline]
    fn change(&mut self, net: usize, d: usize, w: usize, old: (u64, u64), new: (u64, u64)) -> u64 {
        let changed = (old.0 ^ new.0) | (old.1 ^ new.1);
        if changed == 0 {
            return 0;
        }
        if !self.functional {
            self.switch(net, w, old, new, false);
        }
        if STATS {
            match self.pushed_now.iter_mut().find(|(delay, _)| *delay == d) {
                Some((_, counter)) => counter.add(w, changed),
                None => {
                    let mut counter = LaneCounter::default();
                    counter.add(w, changed);
                    self.pushed_now.push((d, counter));
                }
            }
        }
        changed
    }

    /// Moves time point `t`'s per-lane event counts into the pop and push
    /// tables.
    fn flush(&mut self, t: usize) {
        let lanes = self.lanes;
        self.switched_now.drain_into(&mut [&mut self.transitions]);
        self.evaluated_now.drain_into(&mut [&mut self.cell_evals]);
        for (d, counter) in &mut self.pushed_now {
            let at = (t - *d) * lanes;
            counter.drain_into(&mut [
                &mut self.pops[t * lanes..(t + 1) * lanes],
                &mut self.pushes[at..at + lanes],
            ]);
        }
    }

    /// Counts the switching (known-to-known) part of a change.
    #[inline]
    fn switch(&mut self, net: usize, w: usize, old: (u64, u64), new: (u64, u64), once: bool) {
        let switched = (old.0 ^ new.0) & !old.1 & !new.1;
        if switched == 0 {
            return;
        }
        let count = u64::from(switched.count_ones());
        if STATS {
            self.switched_now.add(w, switched);
        }
        self.tally.transitions[net] += count;
        self.tally.rises[net] += u64::from((switched & new.0).count_ones());
        if once {
            // One transition per lane: each is useful.
            self.tally.useful[net] += count;
        } else {
            self.parity[net * self.words + w] ^= switched;
        }
        if HAZARDS {
            let [once, twice, thrice, start] = &mut self.reached[net * self.words + w];
            *start |= old.0 & switched & !*once;
            *thrice |= *twice & switched;
            *twice |= *once & switched;
            *once |= switched;
        }
    }

    /// Classifies every lane's hazards against the block's settled values
    /// and folds them into the tally.
    fn classify_hazards(&mut self, settled: &KernelState) {
        let words = self.words;
        let mut any = [0u64; MAX_BLOCK_WORDS];
        for (net, planes) in self.reached.chunks(words).enumerate() {
            for (w, &[_, twice, thrice, start]) in planes.iter().enumerate() {
                let at = net * words + w;
                // An `X` end differs from every (known) start.
                let differs = (settled.val[at] ^ start) | settled.msk[at];
                let fixed = twice & !differs;
                let dynamic = thrice & differs;
                let tally = &mut *self.tally;
                tally.static1 += u64::from((fixed & start).count_ones());
                tally.static0 += u64::from((fixed & !start).count_ones());
                tally.dynamic += u64::from(dynamic.count_ones());
                tally.hazards[net] += u64::from((fixed | dynamic).count_ones());
                any[w] |= fixed | dynamic;
            }
        }
        self.tally.hazard_cycles += any.iter().map(|a| u64::from(a.count_ones())).sum::<u64>();
    }
}

/// Per-lane counters stored bit-sliced: plane `k` holds bit `k` of every
/// lane's count, so adding a lane mask is a ripple-carry over planes.
#[derive(Default)]
struct LaneCounter {
    planes: Vec<[u64; MAX_BLOCK_WORDS]>,
}

impl LaneCounter {
    /// Adds one to the count of every lane set in `lanes` (word `w`).
    #[inline]
    fn add(&mut self, w: usize, lanes: u64) {
        let mut carry = lanes;
        for plane in &mut self.planes {
            if carry == 0 {
                return;
            }
            let next = plane[w] & carry;
            plane[w] ^= carry;
            carry = next;
        }
        if carry != 0 {
            let mut plane = [0; MAX_BLOCK_WORDS];
            plane[w] = carry;
            self.planes.push(plane);
        }
    }

    /// Adds every lane's count to `out[lane]` of each table in `outs`
    /// and resets the counter.
    fn drain_into(&mut self, outs: &mut [&mut [u32]]) {
        for (k, plane) in self.planes.iter().enumerate() {
            for (w, &word) in plane.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let lane = w * 64 + bits.trailing_zeros() as usize;
                    for out in outs.iter_mut() {
                        out[lane] += 1 << k;
                    }
                    bits &= bits - 1;
                }
            }
        }
        self.planes.clear();
    }
}
