//! Netlist → straight-line program compilation and word-wise evaluation.

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

/// A netlist compiled once into a levelized straight-line program.
///
/// The program is immutable and shared: any number of [`KernelState`]s
/// (with any lane counts) can be evaluated against one program, from any
/// thread. One cycle of the synchronous network is:
///
/// ```text
/// program.begin_cycle(&mut state);      // assert Q from flipflop state
/// state.set_bool(input, lane, value);   // drive this cycle's stimulus
/// program.eval(&mut state, mode);       // settle combinationally
/// program.latch(&mut state);            // capture D into flipflop state
/// ```
#[derive(Debug, Clone)]
pub struct KernelProgram {
    net_count: usize,
    pub(crate) ops: Vec<Op>,
    pub(crate) operands: Vec<u32>,
    dffs: Vec<DffSlot>,
    inputs: Vec<NetId>,
}

impl KernelProgram {
    /// Compiles `netlist` into a straight-line program, validating it and
    /// levelizing its combinational cells.
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
        let dffs = netlist
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
        Ok(KernelProgram {
            net_count: netlist.net_count(),
            ops,
            operands,
            dffs,
            inputs: netlist.inputs().to_vec(),
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
        let words = state.words;
        for (i, dff) in self.dffs.iter().enumerate() {
            let value = match dff.init {
                DffInit::Zero => Tri::Zero,
                DffInit::One => Tri::One,
                DffInit::DontCare => dff_dontcare,
            };
            let (v, m) = match value {
                Tri::Zero => (false, false),
                Tri::One => (true, false),
                Tri::X => (false, true),
            };
            for w in 0..words {
                let wm = state.word_mask(w);
                state.dff_val[i * words + w] = if v { wm } else { 0 };
                state.dff_msk[i * words + w] = if m { wm } else { 0 };
            }
        }
        state
    }

    /// Asserts every flipflop's Q net from its captured state — the first
    /// step of a cycle.
    pub fn begin_cycle(&self, state: &mut KernelState) {
        let words = state.words;
        for (i, dff) in self.dffs.iter().enumerate() {
            let q = dff.q.index() * words;
            let s = i * words;
            state.val[q..q + words].copy_from_slice(&state.dff_val[s..s + words]);
            state.msk[q..q + words].copy_from_slice(&state.dff_msk[s..s + words]);
        }
    }

    /// Captures every flipflop's D net into its state — the last step of
    /// a cycle.
    pub fn latch(&self, state: &mut KernelState) {
        let words = state.words;
        for (i, dff) in self.dffs.iter().enumerate() {
            let d = dff.d.index() * words;
            let s = i * words;
            state.dff_val[s..s + words].copy_from_slice(&state.val[d..d + words]);
            state.dff_msk[s..s + words].copy_from_slice(&state.msk[d..d + words]);
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
        assert_eq!(
            state.val.len(),
            self.net_count * state.words,
            "state does not match the compiled netlist"
        );
        let words = state.words;
        let tail_mask = state.tail_mask;
        let val = &mut state.val;
        let msk = &mut state.msk;
        for op in &self.ops {
            let ins = self.op_inputs(op);
            let out0 = op.out0 as usize * words;
            for w in 0..words {
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
