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
//! a power of two) slots, slot `t & mask` holding its value at time `t`
//! in every lane of the block: the value and mask planes of its four
//! words, one cache line. A read at time `s` clamps `s` into `[lo − 1,
//! hi]`: before the window a net has its start value (written to slot
//! `lo − 1`), after it the value it reached at `hi`. Both stay valid for
//! as long as any reader can look back (at most `max_delay` time points).
//!
//! The step evaluates every output pin at every time point of its window,
//! visiting at each time point only the ops active then (bucketed once
//! per schedule), whether or not the pin's inputs moved. That is exact
//! because every lane starts from a functionally settled state — lane 0
//! from the previous block's last lane or all `X`, which every
//! non-constant cell maps to `X` — so an evaluation whose inputs equal
//! those of the time point before reproduces the value the pin already
//! has: at the first time point of its window, its settled start value.
//!
//! Besides the values, the step always counts each net's transitions
//! with their parity and rises. When the caller asks for per-lane
//! statistics ([`TimedSchedule::run_block`] with somewhere to put them),
//! it also counts exactly what the event queue counts: the events and
//! cell evaluations of every time point (a cell evaluates in the lanes
//! where an input's ring slots `t` and `t − 1` differ, and in those
//! driving a primary input at time 0), the last time point with a
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

use std::sync::OnceLock;

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

/// A [`KernelProgram`] with its per-op output delays resolved and every
/// net's arrival window computed: the static half of the timed step.
#[derive(Debug, Clone)]
pub struct TimedSchedule<'p> {
    program: &'p KernelProgram,
    /// Per op, the delay of output pins 0 and 1 on the schedule (1 for a
    /// zero-delay run, which settles on the unit schedule; 0 for a
    /// constant cell).
    delays: Vec<[u32; 2]>,
    /// Per op, the times at which one of its inputs can change.
    in_window: Vec<(u32, u32)>,
    /// Per net, the times at which it can change.
    window: Vec<(u32, u32)>,
    /// The ops active at each time point, built by the first block that
    /// steps time (a zero-delay block without statistics does not).
    visits: OnceLock<Visits>,
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
    /// Word-wide output-pin evaluations: one per pin (two pins with one
    /// delay share one), time point of its window and 64-lane word.
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
            for (op, pins) in program.ops.iter().zip(&mut delays) {
                if !matches!(op.kind, CellKind::Const(_)) {
                    *pins = [1, 1];
                }
            }
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
            visits: OnceLock::new(),
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

    /// Lanes per block: 256 (four 64-lane words), whatever the delays.
    /// One ring slot is then one cache line, and the default sweep's 200
    /// cycles are one block under every delay model. A block's op visits
    /// cost the same however few of its lanes are used, so narrower blocks
    /// repeat them: of 64, 128, 256 and 512 lanes per block, 256 ran the
    /// `timed_block` bench (200 cycles of the 32-bit array multiplier)
    /// fastest under adder delays and within noise of 128 under unit delay.
    pub const BLOCK_LANES: usize = 64 * MAX_BLOCK_WORDS;

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
        // Valid lanes per word; the words past the block's stay zero in
        // every slot, so they never change.
        let mut wms = [0u64; MAX_BLOCK_WORDS];
        for (w, wm) in wms[..words].iter_mut().enumerate() {
            *wm = settled.word_mask(w);
        }
        let settled_planes = |net: usize| {
            let mut planes = Planes::default();
            planes.v[..words].copy_from_slice(&settled.val[net * words..(net + 1) * words]);
            planes.m[..words].copy_from_slice(&settled.msk[net * words..(net + 1) * words]);
            planes
        };

        // Slot `net * slots + (t & mask)` holds the net's value at time `t`.
        let mut ring = vec![Planes::default(); n * slots];
        let counted = if STATS { lane_count } else { 0 };
        let mut step = Step::<HAZARDS, STATS> {
            lanes: lane_count,
            functional: self.zero_delay,
            parity: vec![[0; MAX_BLOCK_WORDS]; n],
            reached: vec![[[0; 4]; MAX_BLOCK_WORDS]; if HAZARDS { n } else { 0 }],
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
            let now = settled_planes(net);
            let start = &mut ring[net * slots + ((lo as usize).wrapping_sub(1) & mask)];
            let (mut carry_v, mut carry_m) = (lanes.before.val[net] & 1, lanes.before.msk[net] & 1);
            for (w, &wm) in wms.iter().enumerate() {
                start.v[w] = ((now.v[w] << 1) | carry_v) & wm;
                start.m[w] = ((now.m[w] << 1) | carry_m) & wm;
                (carry_v, carry_m) = (now.v[w] >> 63, now.m[w] >> 63);
            }
            if step.functional {
                let start = *start;
                step.switches(net, &start, &now, true);
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
        for &net in &self.sources {
            let net = net as usize;
            let now = settled_planes(net);
            let before = ring[net * slots + mask];
            step.changes(net, 0, &before, &now);
            ring[net * slots] = now;
        }
        // Per net, its primary input's index: a driven input is scheduled
        // at time 0 even where it ends up unchanged.
        let mut input_of = Vec::new();
        if STATS {
            input_of = vec![u32::MAX; n];
            for (i, net) in program.inputs().iter().enumerate() {
                input_of[net.index()] = i as u32;
            }
        }

        // Every pin is evaluated at every time point of its window, moved
        // inputs or not (exact: see the module documentation).
        let visits = self.visits.get_or_init(|| Visits::new(self));
        let mut operands: Vec<usize> = Vec::new();
        for t in 0..time_points {
            let t32 = t as u32;
            let (from, to) = (t.wrapping_sub(1) & mask, t & mask);
            for &i in visits.at(t) {
                let i = i as usize;
                let op = &program.ops[i];
                let ins = program.op_inputs(op);
                // The cell evaluates at `t` in every lane where one of its
                // inputs changed at `t`.
                if STATS && t32 <= self.in_window[i].1 {
                    let mut hit = [0u64; MAX_BLOCK_WORDS];
                    for &input in ins {
                        let input = input as usize;
                        let (lo, hi) = window[input];
                        if t32 < lo || t32 > hi {
                            continue;
                        }
                        let (now, before) =
                            (&ring[input * slots + to], &ring[input * slots + from]);
                        for (w, h) in hit.iter_mut().enumerate() {
                            *h |= (now.v[w] ^ before.v[w]) | (now.m[w] ^ before.m[w]);
                        }
                        if t == 0 && input_of[input] != u32::MAX {
                            let driven = &lanes.driven[input_of[input] as usize * words..];
                            for (h, &d) in hit.iter_mut().zip(&driven[..words]) {
                                *h |= d;
                            }
                        }
                    }
                    for (w, &h) in hit[..words].iter().enumerate() {
                        step.evaluated_now.add(w, h);
                    }
                }
                let pins = self.delays[i];
                let outs = [op.out0, op.out1];
                let out_count = if op.out1 == u32::MAX { 1 } else { 2 };
                let mut pin = 0;
                while pin < out_count {
                    // Two pins with one delay share one evaluation.
                    let shared = pin == 0 && out_count == 2 && pins[0] == pins[1];
                    let next = if shared { 2 } else { pin + 1 };
                    let (lo, hi) = window[outs[pin] as usize];
                    if t32 < lo || t32 > hi {
                        pin = next;
                        continue;
                    }
                    let d = pins[pin] as usize;
                    // The inputs as at `t − d`, each read at its clamp into
                    // `[lo − 1, hi]`.
                    let s = t - d + 1;
                    operands.clear();
                    operands.extend(ins.iter().map(|&input| {
                        let (lo, hi) = window[input as usize];
                        let slot = s.clamp(lo as usize, hi as usize + 1).wrapping_sub(1);
                        input as usize * slots + (slot & mask)
                    }));
                    let result =
                        eval_planes(op.kind, mode, &wms, ins.len(), |k| &ring[operands[k]]);
                    for (p, &o) in outs[..out_count].iter().enumerate() {
                        if p == pin || shared {
                            let o = o as usize;
                            let before = ring[o * slots + from];
                            step.changes(o, d, &before, &result[p]);
                            ring[o * slots + to] = result[p];
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
                let last = &ring[net * slots + (hi as usize & mask)];
                let want = settled_planes(net);
                assert_eq!(
                    (last.v, last.m),
                    (want.v, want.m),
                    "net {net} did not settle to its functional value"
                );
            }
        }
        if !step.functional {
            for (net, parity) in step.parity.iter().enumerate() {
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

/// One net's value at one time point across a block: the value and mask
/// planes of its words, in one cache line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(64))]
struct Planes {
    v: [u64; MAX_BLOCK_WORDS],
    m: [u64; MAX_BLOCK_WORDS],
}

/// [`eval_word`] over every word of a block, `wms` holding each word's
/// valid lanes: the outputs of pins 0 and 1. The match on `kind` is taken
/// once rather than per word.
#[inline(always)]
fn eval_planes<'r>(
    kind: CellKind,
    mode: EvalMode,
    wms: &[u64; MAX_BLOCK_WORDS],
    arity: usize,
    input: impl Fn(usize) -> &'r Planes,
) -> [Planes; 2] {
    #[inline(always)]
    fn each<'r>(
        kind: CellKind,
        mode: EvalMode,
        wms: &[u64; MAX_BLOCK_WORDS],
        arity: usize,
        input: impl Fn(usize) -> &'r Planes,
    ) -> [Planes; 2] {
        let mut out = [Planes::default(); 2];
        for (w, &wm) in wms.iter().enumerate() {
            let [(v0, m0), (v1, m1)] = eval_word(kind, mode, wm, arity, |k| {
                let planes = input(k);
                (planes.v[w], planes.m[w])
            });
            (out[0].v[w], out[0].m[w], out[1].v[w], out[1].m[w]) = (v0, m0, v1, m1);
        }
        out
    }
    let go = |kind| each(kind, mode, wms, arity, input);
    match kind {
        CellKind::FullAdder => go(CellKind::FullAdder),
        CellKind::HalfAdder => go(CellKind::HalfAdder),
        CellKind::And => go(CellKind::And),
        CellKind::Nand => go(CellKind::Nand),
        CellKind::Or => go(CellKind::Or),
        CellKind::Nor => go(CellKind::Nor),
        CellKind::Xor => go(CellKind::Xor),
        CellKind::Xnor => go(CellKind::Xnor),
        CellKind::Inv => go(CellKind::Inv),
        CellKind::Buf => go(CellKind::Buf),
        CellKind::Mux2 => go(CellKind::Mux2),
        CellKind::Maj3 => go(CellKind::Maj3),
        other => go(other),
    }
}

/// The ops active at each time point — from the first time one of their
/// inputs can change to the last time one of their outputs can — in
/// program order.
#[derive(Debug, Clone)]
struct Visits {
    ops: Vec<u32>,
    /// Time point `t`'s ops are `ops[starts[t]..starts[t + 1]]`.
    starts: Vec<u32>,
}

impl Visits {
    fn new(schedule: &TimedSchedule<'_>) -> Self {
        // A constant cell's span is empty: its input window is.
        let spans: Vec<(u32, u32)> = schedule
            .in_window
            .iter()
            .zip(&schedule.delays)
            .map(|(&(lo, hi), pins)| (lo, hi + pins[0].max(pins[1])))
            .collect();
        let mut starts = vec![0u32; schedule.last as usize + 2];
        for &(lo, hi) in &spans {
            for t in lo..=hi {
                starts[t as usize + 1] += 1;
            }
        }
        for t in 1..starts.len() {
            starts[t] += starts[t - 1];
        }
        let mut fill = starts.clone();
        let mut ops = vec![0u32; starts[starts.len() - 1] as usize];
        for (i, &(lo, hi)) in spans.iter().enumerate() {
            for t in lo..=hi {
                ops[fill[t as usize] as usize] = i as u32;
                fill[t as usize] += 1;
            }
        }
        Visits { ops, starts }
    }

    /// The ops active at time point `t`.
    fn at(&self, t: usize) -> &[u32] {
        &self.ops[self.starts[t] as usize..self.starts[t + 1] as usize]
    }
}

/// The mutable accounting of one block; `HAZARDS` says whether it keeps
/// the hazard planes, `STATS` whether it counts the per-lane statistics.
struct Step<'a, const HAZARDS: bool, const STATS: bool> {
    lanes: usize,
    /// Transitions are start-versus-settled (zero delay) rather than per
    /// time point.
    functional: bool,
    /// Per net and word: the parity of each lane's switching count.
    parity: Vec<[u64; MAX_BLOCK_WORDS]>,
    /// Per net and word, when `HAZARDS` (empty otherwise):
    /// the lanes with at least one, two and three switching transitions,
    /// and each lane's value before its first one.
    reached: Vec<[[u64; 4]; MAX_BLOCK_WORDS]>,
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
    /// (an event pushed `d` time points earlier).
    #[inline]
    fn changes(&mut self, net: usize, d: usize, old: &Planes, new: &Planes) {
        if STATS {
            for w in 0..MAX_BLOCK_WORDS {
                let changed = (old.v[w] ^ new.v[w]) | (old.m[w] ^ new.m[w]);
                if changed != 0 {
                    self.pushed(d, w, changed);
                }
            }
        }
        if !self.functional {
            self.switches(net, old, new, false);
        }
    }

    /// Counts the lanes of word `w` in `changed` as events pushed `d`
    /// time points ago.
    fn pushed(&mut self, d: usize, w: usize, changed: u64) {
        match self.pushed_now.iter_mut().find(|(delay, _)| *delay == d) {
            Some((_, counter)) => counter.add(w, changed),
            None => {
                let mut counter = LaneCounter::default();
                counter.add(w, changed);
                self.pushed_now.push((d, counter));
            }
        }
    }

    /// Counts the switching (known-to-known) part of a change; `once`
    /// when it is the lane's only transition of the cycle.
    #[inline]
    fn switches(&mut self, net: usize, old: &Planes, new: &Planes, once: bool) {
        let (mut count, mut rises) = (0, 0);
        for w in 0..MAX_BLOCK_WORDS {
            // Branch-free: which words switch is not predictable, and a
            // mispredicted branch costs more than two popcounts of zero.
            let switched = (old.v[w] ^ new.v[w]) & !old.m[w] & !new.m[w];
            count += u64::from(switched.count_ones());
            rises += u64::from((switched & new.v[w]).count_ones());
            if STATS && switched != 0 {
                self.switched_now.add(w, switched);
            }
            if !once {
                self.parity[net][w] ^= switched;
            }
            if HAZARDS {
                let [once, twice, thrice, start] = &mut self.reached[net][w];
                *start |= old.v[w] & switched & !*once;
                *thrice |= *twice & switched;
                *twice |= *once & switched;
                *once |= switched;
            }
        }
        if count != 0 {
            self.tally.transitions[net] += count;
            self.tally.rises[net] += rises;
            if once {
                // One transition per lane: each is useful.
                self.tally.useful[net] += count;
            }
        }
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

    /// Classifies every lane's hazards against the block's settled values
    /// and folds them into the tally.
    fn classify_hazards(&mut self, settled: &KernelState) {
        let words = settled.words;
        let mut any = [0u64; MAX_BLOCK_WORDS];
        for (net, planes) in self.reached.iter().enumerate() {
            for (w, &[_, twice, thrice, start]) in planes[..words].iter().enumerate() {
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
