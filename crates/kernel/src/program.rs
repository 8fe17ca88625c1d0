//! Netlist → straight-line program compilation and word-wise evaluation.

use std::ops::Range;

use glitch_netlist::{CellKind, DffInit, NetId, Netlist, NetlistError, Tri};

use crate::state::KernelState;

/// How unknowns propagate through the word-wise tables, mirroring the
/// event-driven simulator's `XEval` policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvalMode {
    /// Any `X` input makes every output of the cell `X`.
    #[default]
    Coarse,
    /// Exact Kleene tables: a controlling input yields a known output
    /// even when other inputs are `X` (pinned against
    /// [`CellKind::try_evaluate_tri`]).
    TriTable,
}

/// One compiled combinational cell: its kind, an operand range into the
/// shared operand pool, and one or two output nets.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub(crate) kind: CellKind,
    pub(crate) first: u32,
    pub(crate) count: u16,
    pub(crate) out0: u32,
    /// Second output (carry of the compound adder cells), `u32::MAX`
    /// when the kind has a single output.
    pub(crate) out1: u32,
}

impl Op {
    /// The op's output nets: one, or two for the compound adder kinds.
    pub(crate) fn outputs(&self) -> impl Iterator<Item = u32> {
        std::iter::once(self.out0).chain((self.out1 != u32::MAX).then_some(self.out1))
    }
}

/// The register-stage order of a program whose flipflops feed no cycle.
///
/// A net's stage is 0 for a primary input or a constant, the highest
/// operand stage for an op's output, and one above its D net for a
/// flipflop's Q. The program's ops are sorted by stage (level order
/// within one), and a stage's flipflops are those whose Q lies in it:
/// they shift in before its ops run, each from a D of a lower stage.
#[derive(Debug, Clone)]
struct StagePlan {
    /// Per stage, the end of its ops in [`KernelProgram::ops`].
    op_ends: Vec<u32>,
    /// Flipflop indices, by the stage of their Q net.
    dffs: Vec<u32>,
    /// Per stage, the end of its flipflops in `dffs`.
    dff_ends: Vec<u32>,
}

impl StagePlan {
    /// Orders `ops` by register stage and returns the plan, or `None`
    /// (leaving `ops` alone) when a flipflop's Q reaches its own D. One
    /// depth-first pass over ops, operands and flipflops.
    fn order(
        net_count: usize,
        ops: &mut Vec<Op>,
        operands: &[u32],
        dffs: &[DffSlot],
    ) -> Option<StagePlan> {
        const NONE: u32 = u32::MAX;
        const OPEN: u32 = u32::MAX - 1;
        let op_count = ops.len();
        // Nodes are the ops, then the flipflops; a net's driver is one.
        let mut driver = vec![NONE; net_count];
        for (node, op) in ops.iter().enumerate() {
            for out in op.outputs() {
                driver[out as usize] = node as u32;
            }
        }
        for (k, dff) in dffs.iter().enumerate() {
            driver[dff.q.index()] = (op_count + k) as u32;
        }
        let input = |node: usize, pin: usize| -> Option<usize> {
            match ops.get(node) {
                Some(op) => (pin < usize::from(op.count))
                    .then(|| operands[op.first as usize + pin] as usize),
                None => (pin == 0).then(|| dffs[node - op_count].d.index()),
            }
        };
        // Per node, the stage of its outputs, `NONE` before it is reached
        // and `OPEN` while its inputs are.
        let mut stage = vec![NONE; op_count + dffs.len()];
        // `(node, next input pin, highest input stage so far)`.
        let mut stack: Vec<(usize, usize, u32)> = Vec::new();
        for root in 0..stage.len() {
            if stage[root] != NONE {
                continue;
            }
            stage[root] = OPEN;
            stack.push((root, 0, 0));
            while let Some(&mut (node, ref mut pin, ref mut high)) = stack.last_mut() {
                if let Some(net) = input(node, *pin) {
                    *pin += 1;
                    let from = driver[net];
                    if from == NONE {
                        continue;
                    }
                    match stage[from as usize] {
                        OPEN => return None,
                        NONE => {
                            stage[from as usize] = OPEN;
                            stack.push((from as usize, 0, 0));
                        }
                        done => *high = (*high).max(done),
                    }
                } else {
                    let done = *high + u32::from(node >= op_count);
                    stage[node] = done;
                    stack.pop();
                    if let Some((_, _, high)) = stack.last_mut() {
                        *high = (*high).max(done);
                    }
                }
            }
        }
        let stages = stage.iter().max().map_or(1, |&top| top as usize + 1);
        let (op_stage, dff_stage) = stage.split_at(op_count);
        let (op_order, op_ends) = by_stage(op_stage, stages);
        *ops = op_order.iter().map(|&i| ops[i as usize]).collect();
        let (dffs, dff_ends) = by_stage(dff_stage, stages);
        Some(StagePlan {
            op_ends,
            dffs,
            dff_ends,
        })
    }

    /// Stage `s`'s flipflops and the range of its ops.
    fn stage(&self, s: usize) -> (&[u32], Range<usize>) {
        let start = |ends: &[u32]| if s == 0 { 0 } else { ends[s - 1] as usize };
        (
            &self.dffs[start(&self.dff_ends)..self.dff_ends[s] as usize],
            start(&self.op_ends)..self.op_ends[s] as usize,
        )
    }

    fn byte_size(&self) -> usize {
        (self.op_ends.len() + self.dffs.len() + self.dff_ends.len()) * std::mem::size_of::<u32>()
    }
}

/// A stable counting sort of the items `0..stage_of.len()` by stage:
/// the items in stage order, and per stage `0..stages` the end of its
/// items in that order.
fn by_stage(stage_of: &[u32], stages: usize) -> (Vec<u32>, Vec<u32>) {
    let mut ends = vec![0u32; stages];
    for &s in stage_of {
        ends[s as usize] += 1;
    }
    for s in 1..stages {
        ends[s] += ends[s - 1];
    }
    // Each stage fills from its end, the last item first.
    let mut next = ends.clone();
    let mut order = vec![0u32; stage_of.len()];
    for (item, &s) in stage_of.iter().enumerate().rev() {
        next[s as usize] -= 1;
        order[next[s as usize] as usize] = item as u32;
    }
    (order, ends)
}

/// One compiled D-flipflop: where to read D, where to assert Q, and the
/// declared init value.
#[derive(Debug, Clone, Copy)]
pub struct DffSlot {
    d: NetId,
    q: NetId,
    init: DffInit,
}

impl DffSlot {
    /// The D (data input) net.
    #[must_use]
    pub fn d(&self) -> NetId {
        self.d
    }

    /// The Q (state output) net.
    #[must_use]
    pub fn q(&self) -> NetId {
        self.q
    }
}

/// What [`KernelProgram::settle_cycles`] leaves besides the settled
/// planes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettledCycles {
    /// The flipflop state after the block's last lane, in
    /// [`KernelProgram::dffs`] order: the `start` of the next block.
    pub next_state: Vec<Tri>,
    /// One-word evaluations the settle took: one per plane word, as for a
    /// plain [`KernelProgram::eval`], unless the flipflops feed back.
    pub word_evals: usize,
}

/// `(value, mask)` bits of a three-valued value.
fn tri_bits(value: Tri) -> (u64, u64) {
    match value {
        Tri::Zero => (0, 0),
        Tri::One => (1, 0),
        Tri::X => (0, 1),
    }
}

/// The three-valued value of canonical `(value, mask)` bits.
fn bits_tri((v, m): (u64, u64)) -> Tri {
    if m != 0 {
        Tri::X
    } else if v != 0 {
        Tri::One
    } else {
        Tri::Zero
    }
}

/// A netlist compiled once into a levelized straight-line program.
///
/// The program is immutable and shared: any number of [`KernelState`]s
/// (with any lane counts) can be evaluated against one program, from any
/// thread. With independent lanes (one stimulus stream each), one cycle
/// of the synchronous network is:
///
/// ```text
/// program.begin_cycle(&mut state);      // assert Q from flipflop state
/// state.set_bool(input, lane, value);   // drive this cycle's stimulus
/// program.eval(&mut state, mode);       // settle combinationally
/// program.latch(&mut state);            // capture D into flipflop state
/// ```
///
/// With consecutive cycles of one stream as the lanes, a whole block of
/// cycles settles at once, chained block to block by its flipflop state:
///
/// ```text
/// let mut carry = program.power_on_state(dff_dontcare);
/// state.set_bool(input, cycle, value);  // drive every cycle of the block
/// carry = program.settle_cycles(&mut state, &carry, mode).next_state;
/// ```
#[derive(Debug, Clone)]
pub struct KernelProgram {
    net_count: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) operands: Vec<u32>,
    dffs: Vec<DffSlot>,
    inputs: Vec<NetId>,
    /// The register-stage order [`settle_cycles`](Self::settle_cycles)
    /// settles by; `None` without flipflops or when they feed back.
    stages: Option<StagePlan>,
}

impl KernelProgram {
    /// Compiles `netlist` into a straight-line program, validating it and
    /// levelizing its combinational cells. When the netlist has flipflops
    /// and none of them feeds back into its own D, the ops are ordered by
    /// register stage (a flipflop's Q one stage above its D, level order
    /// within a stage) for [`settle_cycles`](Self::settle_cycles); either
    /// order is a topological one for a single cycle.
    ///
    /// # Errors
    ///
    /// Returns the underlying [`NetlistError`] when the netlist fails
    /// structural validation or contains a combinational loop.
    pub fn compile(netlist: &Netlist) -> Result<KernelProgram, NetlistError> {
        netlist.validate()?;
        let levels = netlist.levelize()?;
        let mut ops = Vec::with_capacity(levels.order().len());
        let mut operands = Vec::new();
        for &cell_id in levels.order() {
            let cell = netlist.cell(cell_id);
            let first = u32::try_from(operands.len()).expect("operand pool fits in u32");
            operands.extend(cell.inputs().iter().map(|n| n.index() as u32));
            let outs = cell.outputs();
            ops.push(Op {
                kind: cell.kind(),
                first,
                count: u16::try_from(cell.inputs().len()).expect("cell arity fits in u16"),
                out0: outs[0].index() as u32,
                out1: outs.get(1).map_or(u32::MAX, |n| n.index() as u32),
            });
        }
        let dffs: Vec<DffSlot> = netlist
            .dff_cells()
            .map(|id| {
                let cell = netlist.cell(id);
                DffSlot {
                    d: cell.inputs()[0],
                    q: cell.outputs()[0],
                    init: cell.dff_init(),
                }
            })
            .collect();
        let stages = if dffs.is_empty() {
            None
        } else {
            StagePlan::order(netlist.net_count(), &mut ops, &operands, &dffs)
        };
        Ok(KernelProgram {
            net_count: netlist.net_count(),
            ops,
            operands,
            dffs,
            inputs: netlist.inputs().to_vec(),
            stages,
        })
    }

    /// Number of nets in the compiled netlist.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of compiled combinational ops (= cells evaluated per cycle).
    #[must_use]
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// The compiled flipflops.
    #[must_use]
    pub fn dffs(&self) -> &[DffSlot] {
        &self.dffs
    }

    /// The primary input nets of the compiled netlist.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// The cycle-boundary source nets — primary inputs first, then
    /// flipflop Q nets. A cycle on which no source net changes is
    /// provably quiet under any delay assignment.
    pub fn source_nets(&self) -> impl Iterator<Item = NetId> + '_ {
        self.inputs
            .iter()
            .copied()
            .chain(self.dffs.iter().map(|d| d.q))
    }

    /// Heap footprint of the compiled program, for cache accounting.
    #[must_use]
    pub fn byte_size(&self) -> usize {
        self.ops.len() * std::mem::size_of::<Op>()
            + self.operands.len() * std::mem::size_of::<u32>()
            + self.dffs.len() * std::mem::size_of::<DffSlot>()
            + self.inputs.len() * std::mem::size_of::<NetId>()
            + self.stages.as_ref().map_or(0, StagePlan::byte_size)
    }

    /// The operand nets of `op`, in pin order.
    pub(crate) fn op_inputs(&self, op: &Op) -> &[u32] {
        &self.operands[op.first as usize..op.first as usize + op.count as usize]
    }

    /// A fresh state for `lanes` parallel stimulus lanes. Every net starts
    /// `X`; flipflop state starts from the per-cell [`DffInit`], with
    /// `DontCare` resolved to `dff_dontcare` (the simulator's
    /// `SimOptions::dff_init` equivalent).
    #[must_use]
    pub fn new_state(&self, lanes: usize, dff_dontcare: Tri) -> KernelState {
        let mut state = KernelState::new(self.net_count, self.dffs.len(), lanes);
        self.power_on(&mut state, dff_dontcare);
        state
    }

    /// Makes `state` equal to [`new_state(lanes, dff_dontcare)`](Self::new_state)
    /// in the buffers it already has, so a caller settling block after
    /// block allocates its planes once.
    pub fn reset_state(&self, state: &mut KernelState, lanes: usize, dff_dontcare: Tri) {
        state.reset(self.net_count, self.dffs.len(), lanes);
        self.power_on(state, dff_dontcare);
    }

    /// Sets every flipflop plane of `state` to its power-on value.
    fn power_on(&self, state: &mut KernelState, dff_dontcare: Tri) {
        let words = state.words;
        for (i, value) in self.power_on_state(dff_dontcare).into_iter().enumerate() {
            let (v, m) = tri_bits(value);
            for w in 0..words {
                let wm = state.word_mask(w);
                state.dff_val[i * words + w] = wm * v;
                state.dff_msk[i * words + w] = wm * m;
            }
        }
    }

    /// The flipflop state before cycle 0, one value per flipflop in
    /// [`dffs`](Self::dffs) order: the per-cell [`DffInit`], with
    /// `DontCare` resolved to `dff_dontcare`.
    #[must_use]
    pub fn power_on_state(&self, dff_dontcare: Tri) -> Vec<Tri> {
        self.dffs
            .iter()
            .map(|dff| match dff.init {
                DffInit::Zero => Tri::Zero,
                DffInit::One => Tri::One,
                DffInit::DontCare => dff_dontcare,
            })
            .collect()
    }

    /// Asserts every flipflop's Q net from its captured state — the first
    /// step of a cycle.
    pub fn begin_cycle(&self, state: &mut KernelState) {
        let words = state.words;
        for (i, dff) in self.dffs.iter().enumerate() {
            let q = dff.q.index() * words;
            let s = i * words;
            // Word by word, here and in `latch`: a settle that steps cycle
            // by cycle copies every flipflop every cycle, and a
            // `copy_from_slice` of a word or two costs a `memcpy` call
            // each time.
            for w in 0..words {
                state.val[q + w] = state.dff_val[s + w];
                state.msk[q + w] = state.dff_msk[s + w];
            }
        }
    }

    /// Captures every flipflop's D net into its state — the last step of
    /// a cycle.
    pub fn latch(&self, state: &mut KernelState) {
        let words = state.words;
        for (i, dff) in self.dffs.iter().enumerate() {
            let d = dff.d.index() * words;
            let s = i * words;
            for w in 0..words {
                state.dff_val[s + w] = state.val[d + w];
                state.dff_msk[s + w] = state.msk[d + w];
            }
        }
    }

    /// Evaluates the combinational program: every op once, in level
    /// order, over all lanes at once. After this the planes hold the
    /// functional (zero-delay) settled values of the cycle.
    ///
    /// # Panics
    ///
    /// Panics when `state` was built for a different netlist size.
    pub fn eval(&self, state: &mut KernelState, mode: EvalMode) {
        self.check_state(state);
        self.eval_ops(&self.ops, state, mode, 0..state.words);
    }

    /// Settles a block of consecutive clock cycles at once: lane `l` of
    /// `state` is cycle `l`, its inputs already driven, and `start` is the
    /// flipflop state entering lane 0 (one value per flipflop, in
    /// [`dffs`](Self::dffs) order). Every other lane's Q is the previous
    /// lane's D. Given lane 0 the recurrence `Q(l) = D(l − 1)` has exactly
    /// one solution, so the planes equal a cycle-by-cycle
    /// [`begin_cycle`](Self::begin_cycle) / [`eval`](Self::eval) /
    /// [`latch`](Self::latch) stepping bit for bit.
    ///
    /// Without feedback — no flipflop's Q reaches its own D, as in a
    /// register pipeline — the program settles by register stage: each
    /// stage's ops over all words, after shifting the D planes its
    /// flipflops read one lane up into their Q (lane 0 taking `start`, a
    /// word's lane 0 the previous word's last D). That is one evaluation
    /// per word, as for a netlist without flipflops. Around feedback (a
    /// counter) the lanes are found by fixpoint iteration one 64-lane
    /// word at a time: each round evaluates the word and shifts every D
    /// plane up into its Q, until a round changes no Q word. Each round
    /// fixes at least one more lane, so a word takes at most 65, and one
    /// whose registers hold their value takes one. The flipflop planes of
    /// `state` are not used.
    ///
    /// # Panics
    ///
    /// Panics when `state` was built for a different netlist size or
    /// `start` does not hold one value per flipflop.
    pub fn settle_cycles(
        &self,
        state: &mut KernelState,
        start: &[Tri],
        mode: EvalMode,
    ) -> SettledCycles {
        self.check_state(state);
        assert_eq!(start.len(), self.dffs.len(), "one start value per flipflop");
        let words = state.words;
        if self.dffs.is_empty() {
            self.eval_ops(&self.ops, state, mode, 0..words);
            return SettledCycles {
                next_state: Vec::new(),
                word_evals: words,
            };
        }
        let Some(plan) = &self.stages else {
            return self.settle_feedback(state, start, mode);
        };
        for s in 0..plan.op_ends.len() {
            let (dffs, ops) = plan.stage(s);
            for &k in dffs {
                let dff = &self.dffs[k as usize];
                let (d, q) = (dff.d.index() * words, dff.q.index() * words);
                let (mut carry_v, mut carry_m) = tri_bits(start[k as usize]);
                for w in 0..words {
                    let wm = state.word_mask(w);
                    let (v, m) = (state.val[d + w], state.msk[d + w]);
                    state.val[q + w] = (v << 1 | carry_v) & wm;
                    state.msk[q + w] = (m << 1 | carry_m) & wm;
                    (carry_v, carry_m) = (v >> 63, m >> 63);
                }
            }
            self.eval_ops(&self.ops[ops], state, mode, 0..words);
        }
        let last = state.lanes - 1;
        SettledCycles {
            next_state: self.dffs.iter().map(|dff| state.get(dff.d, last)).collect(),
            word_evals: words,
        }
    }

    /// [`settle_cycles`](Self::settle_cycles) of a program whose
    /// flipflops feed back: the per-word fixpoint.
    fn settle_feedback(
        &self,
        state: &mut KernelState,
        start: &[Tri],
        mode: EvalMode,
    ) -> SettledCycles {
        let words = state.words;
        // The state entering the current word's lane 0, as `(value, mask)`
        // bits.
        let mut carry: Vec<(u64, u64)> = start.iter().map(|&t| tri_bits(t)).collect();
        let mut shifted = vec![(0u64, 0u64); self.dffs.len()];
        let mut word_evals = 0;
        for w in 0..words {
            let wm = state.word_mask(w);
            for (dff, &(v, m)) in self.dffs.iter().zip(&carry) {
                let q = dff.q.index() * words + w;
                state.val[q] = wm * v;
                state.msk[q] = wm * m;
            }
            loop {
                self.eval_ops(&self.ops, state, mode, w..w + 1);
                word_evals += 1;
                for (next, (dff, &(v, m))) in shifted.iter_mut().zip(self.dffs.iter().zip(&carry)) {
                    let d = dff.d.index() * words + w;
                    *next = ((state.val[d] << 1 | v) & wm, (state.msk[d] << 1 | m) & wm);
                }
                let mut changed = false;
                for (dff, &(v, m)) in self.dffs.iter().zip(&shifted) {
                    let q = dff.q.index() * words + w;
                    changed |= state.val[q] != v || state.msk[q] != m;
                    state.val[q] = v;
                    state.msk[q] = m;
                }
                if !changed {
                    break;
                }
            }
            // The word's last valid lane latches the next word's lane 0.
            let last = 63 - wm.leading_zeros() as usize;
            for (bits, dff) in carry.iter_mut().zip(&self.dffs) {
                let d = dff.d.index() * words + w;
                *bits = (state.val[d] >> last & 1, state.msk[d] >> last & 1);
            }
        }
        SettledCycles {
            next_state: carry.into_iter().map(bits_tri).collect(),
            word_evals,
        }
    }

    fn check_state(&self, state: &KernelState) {
        assert_eq!(
            state.val.len(),
            self.net_count * state.words,
            "state does not match the compiled netlist"
        );
    }

    /// Evaluates `ops`, a run of the program's ops, over plane words
    /// `range`.
    fn eval_ops(&self, ops: &[Op], state: &mut KernelState, mode: EvalMode, range: Range<usize>) {
        let words = state.words;
        let tail_mask = state.tail_mask;
        let val = &mut state.val;
        let msk = &mut state.msk;
        for op in ops {
            let ins = self.op_inputs(op);
            let out0 = op.out0 as usize * words;
            for w in range.clone() {
                // Valid-lane mask of word `w`: only the final word is partial.
                let wm = if w + 1 == words { tail_mask } else { !0 };
                let [(v0, m0), (v1, m1)] = eval_word(op.kind, mode, wm, ins.len(), |k| {
                    let at = ins[k] as usize * words + w;
                    (val[at], msk[at])
                });
                val[out0 + w] = v0;
                msk[out0 + w] = m0;
                if op.out1 != u32::MAX {
                    let out1 = op.out1 as usize * words;
                    val[out1 + w] = v1;
                    msk[out1 + w] = m1;
                }
            }
        }
    }
}

/// The per-kind plane formulas — the one copy both the functional
/// [`KernelProgram::eval`] and the timed step evaluate through.
///
/// Computes one cell over one 64-lane word: `input(k)` yields operand
/// `k`'s `(value, mask)` planes, `wm` is the word's valid-lane mask, and
/// the result is `[(value, mask); 2]` for output pins 0 and 1 (pin 1 is
/// only meaningful for the two-output adder kinds). Outputs stay
/// canonical and zero beyond `wm`.
#[inline(always)]
pub(crate) fn eval_word(
    kind: CellKind,
    mode: EvalMode,
    wm: u64,
    arity: usize,
    input: impl Fn(usize) -> (u64, u64),
) -> [(u64, u64); 2] {
    let single = |v: u64, m: u64| [(v, m), (0, 0)];
    match kind {
        CellKind::Const(b) => single(if b { wm } else { 0 }, 0),
        CellKind::Buf => {
            let (v, m) = input(0);
            single(v, m)
        }
        CellKind::Inv => {
            let (v, m) = input(0);
            single(!v & !m & wm, m)
        }
        CellKind::And | CellKind::Nand | CellKind::Or | CellKind::Nor => {
            let (and_like, invert) = match kind {
                CellKind::And => (true, false),
                CellKind::Nand => (true, true),
                CellKind::Or => (false, false),
                _ => (false, true),
            };
            let (mut one, mut zero, mut anyx) = if and_like {
                (wm, 0u64, 0u64)
            } else {
                (0, wm, 0)
            };
            for k in 0..arity {
                let (v, m) = input(k);
                let z = !v & !m & wm;
                anyx |= m;
                if and_like {
                    one &= v;
                    zero |= z;
                } else {
                    one |= v;
                    zero &= z;
                }
            }
            let (one, zero) = if invert { (zero, one) } else { (one, zero) };
            let m = match mode {
                // A controlling input decides the output even next to
                // unknowns.
                EvalMode::TriTable => !(one | zero) & wm,
                EvalMode::Coarse => anyx,
            };
            single(one & !m & wm, m)
        }
        CellKind::Xor | CellKind::Xnor => {
            // XOR has no controlling value, so the exact Kleene table and
            // the coarse rule agree: any X → X.
            let (mut x, mut m) = (0u64, 0u64);
            for k in 0..arity {
                let (v, mk) = input(k);
                x ^= v;
                m |= mk;
            }
            if kind == CellKind::Xnor {
                x = !x;
            }
            single(x & !m & wm, m)
        }
        CellKind::Mux2 => {
            let (vs, ms) = input(0);
            let (va, ma) = input(1);
            let (vb, mb) = input(2);
            let routed_v = (vs & vb) | (!vs & va);
            let (v, m) = match mode {
                EvalMode::TriTable => {
                    // Unknown select still yields the common value when
                    // both data inputs agree.
                    let agree = !ma & !mb & !(va ^ vb);
                    let m = (!ms & ((vs & mb) | (!vs & ma))) | (ms & !agree);
                    ((routed_v & !ms) | (ms & agree & va), m)
                }
                EvalMode::Coarse => (routed_v, ms | ma | mb),
            };
            single(v & !m & wm, m & wm)
        }
        CellKind::Maj3 => {
            let (va, ma) = input(0);
            let (vb, mb) = input(1);
            let (vc, mc) = input(2);
            let maj_v = (va & vb) | (va & vc) | (vb & vc);
            let (v, m) = match mode {
                EvalMode::TriTable => {
                    // Two agreeing known inputs decide the majority
                    // regardless of the third.
                    let (za, zb, zc) = (!va & !ma & wm, !vb & !mb & wm, !vc & !mc & wm);
                    let zero = (za & zb) | (za & zc) | (zb & zc);
                    (maj_v, !(maj_v | zero) & wm)
                }
                EvalMode::Coarse => (maj_v, ma | mb | mc),
            };
            single(v & !m & wm, m)
        }
        CellKind::HalfAdder | CellKind::FullAdder => {
            let full = kind == CellKind::FullAdder;
            let (va, ma) = input(0);
            let (vb, mb) = input(1);
            let (vc, mc) = if full { input(2) } else { (0, 0) };
            let anyx = ma | mb | mc;
            // Sum is a pure XOR: exact and coarse agree.
            let sum = ((va ^ vb ^ vc) & !anyx & wm, anyx);
            // Carry: AND for the half adder, majority for the full adder —
            // exactly the simulator's tri tables.
            let carry_one = if full {
                (va & vb) | (va & vc) | (vb & vc)
            } else {
                va & vb
            };
            let (cv, cm) = match mode {
                EvalMode::TriTable => {
                    let (za, zb) = (!va & !ma & wm, !vb & !mb & wm);
                    let carry_zero = if full {
                        let zc = !vc & !mc & wm;
                        (za & zb) | (za & zc) | (zb & zc)
                    } else {
                        za | zb
                    };
                    (carry_one, !(carry_one | carry_zero) & wm)
                }
                EvalMode::Coarse => (carry_one, anyx),
            };
            [sum, (cv & !cm & wm, cm)]
        }
        CellKind::Dff => unreachable!("flipflops are not part of the levelized order"),
    }
}
