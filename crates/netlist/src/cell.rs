//! Logic cell library: the [`CellKind`] enumeration and the [`Cell`] instance
//! record.
//!
//! Cells are intentionally simple: a kind, a name, an ordered list of input
//! nets and an ordered list of output nets. Compound cells (half adder, full
//! adder) have more than one output; everything else has exactly one.

use std::fmt;

use crate::names::{Names, Span};
use crate::net::NetId;
use crate::tri::{tri_majority3, Tri};

/// Identifier of a cell inside one [`crate::Netlist`].
///
/// Cell ids are dense indices assigned in creation order; they are only
/// meaningful for the netlist that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellId(pub(crate) usize);

impl CellId {
    /// Returns the dense index backing this id.
    #[must_use]
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a `CellId` from a raw index.
    ///
    /// Intended for deserialization-style use; handing an out-of-range index
    /// to a netlist accessor will panic there, not here.
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        CellId(index)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Initial (power-on / reset) state of a D-flipflop.
///
/// BLIF `.latch` lines carry an optional init digit; `0` and `1` map to
/// [`DffInit::Zero`] and [`DffInit::One`], while `2` (don't care) and `3`
/// (unknown) map to [`DffInit::DontCare`], leaving the choice to the
/// simulator's configured default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DffInit {
    /// The flipflop resets to logic 0.
    Zero,
    /// The flipflop resets to logic 1.
    One,
    /// No initial value was specified; the simulator default applies.
    #[default]
    DontCare,
}

impl DffInit {
    /// The reset value as a `bool`, or `None` for [`DffInit::DontCare`].
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            DffInit::Zero => Some(false),
            DffInit::One => Some(true),
            DffInit::DontCare => None,
        }
    }

    /// The BLIF init digit (`0`, `1` or `3`) for this reset state.
    #[must_use]
    pub fn blif_digit(self) -> char {
        match self {
            DffInit::Zero => '0',
            DffInit::One => '1',
            DffInit::DontCare => '3',
        }
    }
}

impl From<bool> for DffInit {
    fn from(b: bool) -> Self {
        if b {
            DffInit::One
        } else {
            DffInit::Zero
        }
    }
}

/// Why a combinational evaluation could not be performed.
///
/// Returned by [`CellKind::try_evaluate_into`] so that callers driving
/// untrusted netlists (long batch or parallel simulation runs in
/// particular) can surface a recoverable error instead of aborting the
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EvalError {
    /// The cell is sequential; its output is defined by the clocking
    /// discipline, not by a combinational function.
    Sequential(CellKind),
    /// The number of supplied inputs is illegal for the kind.
    BadArity {
        /// The kind that was evaluated.
        kind: CellKind,
        /// The number of inputs supplied.
        inputs: usize,
    },
    /// The output buffer cannot hold every output pin of the kind.
    OutputBufferTooSmall {
        /// The kind that was evaluated.
        kind: CellKind,
        /// The buffer length supplied.
        have: usize,
        /// The length required ([`CellKind::output_count`]).
        need: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Sequential(kind) => {
                write!(f, "{} has no combinational evaluation", kind.mnemonic())
            }
            EvalError::BadArity { kind, inputs } => write!(
                f,
                "cell kind {} does not accept {inputs} inputs",
                kind.mnemonic()
            ),
            EvalError::OutputBufferTooSmall { kind, have, need } => write!(
                f,
                "output buffer too small for {} (have {have}, need {need})",
                kind.mnemonic()
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// The kinds of cells understood by the simulator, the retimer and the power
/// model.
///
/// Variable-arity gates (`And`, `Or`, `Nand`, `Nor`, `Xor`, `Xnor`) take two
/// or more inputs; their arity is implied by the number of connected input
/// nets. Compound cells have a fixed pin interface documented per variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellKind {
    /// Constant driver (`false` = logic 0, `true` = logic 1). No inputs.
    Const(bool),
    /// Non-inverting buffer. 1 input, 1 output.
    Buf,
    /// Inverter. 1 input, 1 output.
    Inv,
    /// N-ary AND (N >= 2).
    And,
    /// N-ary OR (N >= 2).
    Or,
    /// N-ary NAND (N >= 2).
    Nand,
    /// N-ary NOR (N >= 2).
    Nor,
    /// N-ary XOR (N >= 2), true when an odd number of inputs are true.
    Xor,
    /// N-ary XNOR (N >= 2), true when an even number of inputs are true.
    Xnor,
    /// 2-to-1 multiplexer. Inputs `[sel, a, b]`; output is `a` when `sel` is
    /// 0 and `b` when `sel` is 1.
    Mux2,
    /// 3-input majority gate (the carry function of a full adder).
    Maj3,
    /// Half adder. Inputs `[a, b]`; outputs `[sum, carry]`.
    HalfAdder,
    /// Full adder. Inputs `[a, b, cin]`; outputs `[sum, carry]`.
    FullAdder,
    /// Positive-edge D-flipflop on the single implicit clock.
    /// Input `[d]`, output `[q]`. Sequential: breaks combinational paths.
    Dff,
}

impl CellKind {
    /// Convenience label used by [`crate::NetlistStats`] for XOR gates.
    pub const XOR_LABEL: CellKind = CellKind::Xor;

    /// Returns `true` for cells that store state across clock cycles.
    #[must_use]
    pub fn is_sequential(self) -> bool {
        matches!(self, CellKind::Dff)
    }

    /// Returns `true` for purely combinational cells.
    #[must_use]
    pub fn is_combinational(self) -> bool {
        !self.is_sequential()
    }

    /// Number of output pins of this cell kind.
    #[must_use]
    pub fn output_count(self) -> usize {
        match self {
            CellKind::HalfAdder | CellKind::FullAdder => 2,
            _ => 1,
        }
    }

    /// Fixed input arity, or `None` for variable-arity gates (which accept
    /// two or more inputs).
    #[must_use]
    pub fn fixed_input_arity(self) -> Option<usize> {
        match self {
            CellKind::Const(_) => Some(0),
            CellKind::Buf | CellKind::Inv | CellKind::Dff => Some(1),
            CellKind::HalfAdder => Some(2),
            CellKind::Mux2 | CellKind::Maj3 | CellKind::FullAdder => Some(3),
            CellKind::And
            | CellKind::Or
            | CellKind::Nand
            | CellKind::Nor
            | CellKind::Xor
            | CellKind::Xnor => None,
        }
    }

    /// Minimum number of inputs this kind accepts.
    #[must_use]
    pub fn min_input_arity(self) -> usize {
        self.fixed_input_arity().unwrap_or(2)
    }

    /// Checks whether `n` inputs is a legal arity for this kind.
    #[must_use]
    pub fn accepts_arity(self, n: usize) -> bool {
        match self.fixed_input_arity() {
            Some(k) => n == k,
            None => n >= 2,
        }
    }

    /// Short mnemonic used in reports and DOT output.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        match self {
            CellKind::Const(false) => "CONST0",
            CellKind::Const(true) => "CONST1",
            CellKind::Buf => "BUF",
            CellKind::Inv => "INV",
            CellKind::And => "AND",
            CellKind::Or => "OR",
            CellKind::Nand => "NAND",
            CellKind::Nor => "NOR",
            CellKind::Xor => "XOR",
            CellKind::Xnor => "XNOR",
            CellKind::Mux2 => "MUX2",
            CellKind::Maj3 => "MAJ3",
            CellKind::HalfAdder => "HA",
            CellKind::FullAdder => "FA",
            CellKind::Dff => "DFF",
        }
    }

    /// Evaluates the combinational function of this cell for two-valued
    /// inputs, writing one value per output pin into `outputs` — the
    /// checked, non-panicking form of [`CellKind::evaluate_into`].
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] if the number of inputs is illegal for this
    /// kind, if `outputs` is shorter than [`CellKind::output_count`], or if
    /// called on a sequential cell ([`CellKind::Dff`]), whose output is
    /// defined by the clocking discipline rather than by a combinational
    /// function. A malformed netlist therefore surfaces as a recoverable
    /// error instead of aborting a long (possibly parallel) simulation run.
    pub fn try_evaluate_into(self, inputs: &[bool], outputs: &mut [bool]) -> Result<(), EvalError> {
        if matches!(self, CellKind::Dff) {
            return Err(EvalError::Sequential(self));
        }
        if !self.accepts_arity(inputs.len()) {
            return Err(EvalError::BadArity {
                kind: self,
                inputs: inputs.len(),
            });
        }
        if outputs.len() < self.output_count() {
            return Err(EvalError::OutputBufferTooSmall {
                kind: self,
                have: outputs.len(),
                need: self.output_count(),
            });
        }
        match self {
            CellKind::Const(v) => outputs[0] = v,
            CellKind::Buf => outputs[0] = inputs[0],
            CellKind::Inv => outputs[0] = !inputs[0],
            CellKind::And => outputs[0] = inputs.iter().all(|&v| v),
            CellKind::Or => outputs[0] = inputs.iter().any(|&v| v),
            CellKind::Nand => outputs[0] = !inputs.iter().all(|&v| v),
            CellKind::Nor => outputs[0] = !inputs.iter().any(|&v| v),
            CellKind::Xor => outputs[0] = inputs.iter().filter(|&&v| v).count() % 2 == 1,
            CellKind::Xnor => outputs[0] = inputs.iter().filter(|&&v| v).count() % 2 == 0,
            CellKind::Mux2 => outputs[0] = if inputs[0] { inputs[2] } else { inputs[1] },
            CellKind::Maj3 => {
                outputs[0] = majority3(inputs[0], inputs[1], inputs[2]);
            }
            CellKind::HalfAdder => {
                outputs[0] = inputs[0] ^ inputs[1];
                outputs[1] = inputs[0] && inputs[1];
            }
            CellKind::FullAdder => {
                outputs[0] = inputs[0] ^ inputs[1] ^ inputs[2];
                outputs[1] = majority3(inputs[0], inputs[1], inputs[2]);
            }
            // Handled by the Sequential early-return above.
            CellKind::Dff => unreachable!("Dff evaluation rejected above"),
        }
        Ok(())
    }

    /// Checked evaluation returning the outputs as a freshly allocated
    /// vector; see [`CellKind::try_evaluate_into`] for the error conditions.
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for sequential cells and illegal arities.
    pub fn try_evaluate(self, inputs: &[bool]) -> Result<Vec<bool>, EvalError> {
        let mut out = vec![false; self.output_count()];
        self.try_evaluate_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Evaluates the combinational function of this cell over the
    /// three-valued domain `{0, 1, X}`, writing one [`Tri`] per output pin
    /// into `outputs`.
    ///
    /// The tables are *pessimistic* (Kleene-style): an output is concrete
    /// exactly when the known inputs force it — a controlling `0` on an
    /// AND/NAND, a controlling `1` on an OR/NOR, two agreeing majority
    /// inputs, a MUX whose select is known (or whose data inputs agree) —
    /// and `X` otherwise. XOR-class gates have no controlling value, so any
    /// `X` input makes their output `X`.
    ///
    /// Two properties are load-bearing for the verification subsystem and
    /// are pinned by `tests/tri_props.rs`:
    ///
    /// * **concrete agreement** — on all-known inputs the result is
    ///   bit-identical to [`CellKind::try_evaluate_into`];
    /// * **monotonicity** — raising any input from `X` to a concrete value
    ///   never flips a concrete output ([`Tri::refines_to`] pointwise).
    ///
    /// # Errors
    ///
    /// The same conditions as [`CellKind::try_evaluate_into`]: sequential
    /// cells, illegal arities and short output buffers.
    pub fn try_evaluate_tri_into(
        self,
        inputs: &[Tri],
        outputs: &mut [Tri],
    ) -> Result<(), EvalError> {
        if matches!(self, CellKind::Dff) {
            return Err(EvalError::Sequential(self));
        }
        if !self.accepts_arity(inputs.len()) {
            return Err(EvalError::BadArity {
                kind: self,
                inputs: inputs.len(),
            });
        }
        if outputs.len() < self.output_count() {
            return Err(EvalError::OutputBufferTooSmall {
                kind: self,
                have: outputs.len(),
                need: self.output_count(),
            });
        }
        match self {
            CellKind::Const(v) => outputs[0] = Tri::from(v),
            CellKind::Buf => outputs[0] = inputs[0],
            CellKind::Inv => outputs[0] = !inputs[0],
            CellKind::And => outputs[0] = inputs.iter().fold(Tri::One, |acc, &v| acc.and(v)),
            CellKind::Or => outputs[0] = inputs.iter().fold(Tri::Zero, |acc, &v| acc.or(v)),
            CellKind::Nand => {
                outputs[0] = !inputs.iter().fold(Tri::One, |acc, &v| acc.and(v));
            }
            CellKind::Nor => {
                outputs[0] = !inputs.iter().fold(Tri::Zero, |acc, &v| acc.or(v));
            }
            CellKind::Xor => outputs[0] = inputs.iter().fold(Tri::Zero, |acc, &v| acc.xor(v)),
            CellKind::Xnor => {
                outputs[0] = !inputs.iter().fold(Tri::Zero, |acc, &v| acc.xor(v));
            }
            CellKind::Mux2 => {
                outputs[0] = match inputs[0] {
                    Tri::Zero => inputs[1],
                    Tri::One => inputs[2],
                    // Unknown select: concrete only when both data inputs
                    // agree on a known value.
                    Tri::X => {
                        if inputs[1] == inputs[2] {
                            inputs[1]
                        } else {
                            Tri::X
                        }
                    }
                };
            }
            CellKind::Maj3 => outputs[0] = tri_majority3(inputs[0], inputs[1], inputs[2]),
            CellKind::HalfAdder => {
                outputs[0] = inputs[0].xor(inputs[1]);
                outputs[1] = inputs[0].and(inputs[1]);
            }
            CellKind::FullAdder => {
                outputs[0] = inputs[0].xor(inputs[1]).xor(inputs[2]);
                outputs[1] = tri_majority3(inputs[0], inputs[1], inputs[2]);
            }
            // Handled by the Sequential early-return above.
            CellKind::Dff => unreachable!("Dff evaluation rejected above"),
        }
        Ok(())
    }

    /// Three-valued evaluation returning the outputs as a freshly allocated
    /// vector; see [`CellKind::try_evaluate_tri_into`].
    ///
    /// # Errors
    ///
    /// Returns an [`EvalError`] for sequential cells and illegal arities.
    pub fn try_evaluate_tri(self, inputs: &[Tri]) -> Result<Vec<Tri>, EvalError> {
        let mut out = vec![Tri::X; self.output_count()];
        self.try_evaluate_tri_into(inputs, &mut out)?;
        Ok(out)
    }

    /// Evaluates the combinational function of this cell for two-valued
    /// inputs, writing one value per output pin into `outputs`.
    ///
    /// # Panics
    ///
    /// Panics under the [`CellKind::try_evaluate_into`] error conditions:
    /// an illegal input arity, an `outputs` buffer shorter than
    /// [`CellKind::output_count`], or a sequential cell ([`CellKind::Dff`]).
    /// Use the checked form when the netlist is untrusted.
    pub fn evaluate_into(self, inputs: &[bool], outputs: &mut [bool]) {
        if let Err(e) = self.try_evaluate_into(inputs, outputs) {
            panic!("{e}");
        }
    }

    /// Evaluates the combinational function and returns the outputs as a
    /// freshly allocated vector. Convenience wrapper around
    /// [`CellKind::evaluate_into`]; see that method for the panic conditions.
    #[must_use]
    pub fn evaluate(self, inputs: &[bool]) -> Vec<bool> {
        let mut out = vec![false; self.output_count()];
        self.evaluate_into(inputs, &mut out);
        out
    }

    /// Approximate transistor-pair complexity of the cell, used by the power
    /// model's default capacitance estimates and by netlist statistics.
    ///
    /// The numbers are standard-cell-ish gate-equivalent counts, not exact
    /// transistor counts of any particular library.
    #[must_use]
    pub fn gate_equivalents(self) -> f64 {
        match self {
            CellKind::Const(_) => 0.0,
            CellKind::Buf => 0.5,
            CellKind::Inv => 0.5,
            CellKind::And | CellKind::Or => 1.25,
            CellKind::Nand | CellKind::Nor => 1.0,
            CellKind::Xor | CellKind::Xnor => 2.5,
            CellKind::Mux2 => 2.0,
            CellKind::Maj3 => 2.0,
            CellKind::HalfAdder => 3.0,
            CellKind::FullAdder => 6.0,
            CellKind::Dff => 6.0,
        }
    }
}

impl fmt::Display for CellKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Majority of three: true when at least two inputs are true (the carry
/// function of a full adder).
fn majority3(a: bool, b: bool, c: bool) -> bool {
    u8::from(a) + u8::from(b) + u8::from(c) >= 2
}

/// The stored part of a cell: its pins are a run of the netlist's pin
/// pool, the inputs first.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CellRecord {
    pub(crate) kind: CellKind,
    pub(crate) name: Span,
    pub(crate) first_pin: u32,
    pub(crate) input_count: u16,
    pub(crate) output_count: u16,
    pub(crate) dff_init: DffInit,
}

/// One cell instance inside a [`crate::Netlist`]: a view, as
/// [`crate::Netlist::cell`] and [`crate::Netlist::cells`] hand it out.
#[derive(Clone, Copy)]
pub struct Cell<'a> {
    record: &'a CellRecord,
    names: &'a Names,
    pins: &'a [NetId],
}

impl<'a> Cell<'a> {
    /// The view of `record`, whose name lies in `names` and whose pins in
    /// `pins`.
    #[inline]
    pub(crate) fn new(record: &'a CellRecord, names: &'a Names, pins: &'a [NetId]) -> Self {
        Cell {
            record,
            names,
            pins,
        }
    }

    /// The cell's kind.
    #[must_use]
    #[inline]
    pub fn kind(&self) -> CellKind {
        self.record.kind
    }

    /// The instance name.
    #[must_use]
    #[inline]
    pub fn name(&self) -> &'a str {
        self.names.get(self.record.name)
    }

    /// Ordered input nets.
    #[must_use]
    #[inline]
    pub fn inputs(&self) -> &'a [NetId] {
        let first = self.record.first_pin as usize;
        &self.pins[first..first + usize::from(self.record.input_count)]
    }

    /// Ordered output nets.
    #[must_use]
    #[inline]
    pub fn outputs(&self) -> &'a [NetId] {
        let first = self.record.first_pin as usize + usize::from(self.record.input_count);
        &self.pins[first..first + usize::from(self.record.output_count)]
    }

    /// Returns `true` when this instance stores state (a D-flipflop).
    #[must_use]
    #[inline]
    pub fn is_sequential(&self) -> bool {
        self.record.kind.is_sequential()
    }

    /// The flipflop's initial state. Always [`DffInit::DontCare`] for
    /// combinational cells.
    #[must_use]
    #[inline]
    pub fn dff_init(&self) -> DffInit {
        self.record.dff_init
    }
}

impl fmt::Debug for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Cell")
            .field("kind", &self.kind())
            .field("name", &self.name())
            .field("inputs", &self.inputs())
            .field("outputs", &self.outputs())
            .field("dff_init", &self.dff_init())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arity_rules() {
        assert_eq!(CellKind::Inv.fixed_input_arity(), Some(1));
        assert_eq!(CellKind::FullAdder.fixed_input_arity(), Some(3));
        assert_eq!(CellKind::And.fixed_input_arity(), None);
        assert!(CellKind::And.accepts_arity(2));
        assert!(CellKind::And.accepts_arity(5));
        assert!(!CellKind::And.accepts_arity(1));
        assert!(CellKind::Mux2.accepts_arity(3));
        assert!(!CellKind::Mux2.accepts_arity(2));
    }

    #[test]
    fn output_counts() {
        assert_eq!(CellKind::FullAdder.output_count(), 2);
        assert_eq!(CellKind::HalfAdder.output_count(), 2);
        assert_eq!(CellKind::Xor.output_count(), 1);
        assert_eq!(CellKind::Dff.output_count(), 1);
    }

    #[test]
    fn sequential_flags() {
        assert!(CellKind::Dff.is_sequential());
        assert!(!CellKind::Dff.is_combinational());
        assert!(CellKind::FullAdder.is_combinational());
    }

    #[test]
    fn evaluate_basic_gates() {
        assert_eq!(CellKind::And.evaluate(&[true, true]), vec![true]);
        assert_eq!(CellKind::And.evaluate(&[true, false]), vec![false]);
        assert_eq!(CellKind::Or.evaluate(&[false, false]), vec![false]);
        assert_eq!(CellKind::Or.evaluate(&[false, true]), vec![true]);
        assert_eq!(CellKind::Nand.evaluate(&[true, true]), vec![false]);
        assert_eq!(CellKind::Nor.evaluate(&[false, false]), vec![true]);
        assert_eq!(CellKind::Xor.evaluate(&[true, true, true]), vec![true]);
        assert_eq!(CellKind::Xnor.evaluate(&[true, true]), vec![true]);
        assert_eq!(CellKind::Inv.evaluate(&[true]), vec![false]);
        assert_eq!(CellKind::Buf.evaluate(&[true]), vec![true]);
        assert_eq!(CellKind::Const(true).evaluate(&[]), vec![true]);
        assert_eq!(CellKind::Const(false).evaluate(&[]), vec![false]);
    }

    #[test]
    fn evaluate_mux_and_majority() {
        // sel = 0 selects input a (index 1).
        assert_eq!(CellKind::Mux2.evaluate(&[false, true, false]), vec![true]);
        // sel = 1 selects input b (index 2).
        assert_eq!(CellKind::Mux2.evaluate(&[true, true, false]), vec![false]);
        assert_eq!(CellKind::Maj3.evaluate(&[true, true, false]), vec![true]);
        assert_eq!(CellKind::Maj3.evaluate(&[true, false, false]), vec![false]);
    }

    #[test]
    fn evaluate_adders_match_arithmetic() {
        for a in [false, true] {
            for b in [false, true] {
                let ha = CellKind::HalfAdder.evaluate(&[a, b]);
                let expect = u8::from(a) + u8::from(b);
                assert_eq!(u8::from(ha[0]) + 2 * u8::from(ha[1]), expect);
                for cin in [false, true] {
                    let fa = CellKind::FullAdder.evaluate(&[a, b, cin]);
                    let expect = u8::from(a) + u8::from(b) + u8::from(cin);
                    assert_eq!(u8::from(fa[0]) + 2 * u8::from(fa[1]), expect);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not accept")]
    fn evaluate_rejects_bad_arity() {
        let _ = CellKind::FullAdder.evaluate(&[true, false]);
    }

    #[test]
    fn try_evaluate_reports_recoverable_errors() {
        assert_eq!(
            CellKind::Dff.try_evaluate(&[true]),
            Err(EvalError::Sequential(CellKind::Dff))
        );
        assert_eq!(
            CellKind::FullAdder.try_evaluate(&[true, false]),
            Err(EvalError::BadArity {
                kind: CellKind::FullAdder,
                inputs: 2
            })
        );
        let mut short = [false];
        assert_eq!(
            CellKind::FullAdder.try_evaluate_into(&[true, false, true], &mut short),
            Err(EvalError::OutputBufferTooSmall {
                kind: CellKind::FullAdder,
                have: 1,
                need: 2
            })
        );
        // The happy path matches the panicking form.
        assert_eq!(
            CellKind::Xor.try_evaluate(&[true, false]).unwrap(),
            CellKind::Xor.evaluate(&[true, false])
        );
        // Every variant renders a useful message.
        for e in [
            EvalError::Sequential(CellKind::Dff),
            EvalError::BadArity {
                kind: CellKind::Inv,
                inputs: 3,
            },
            EvalError::OutputBufferTooSmall {
                kind: CellKind::HalfAdder,
                have: 0,
                need: 2,
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "no combinational evaluation")]
    fn evaluate_rejects_dff() {
        let _ = CellKind::Dff.evaluate(&[true]);
    }

    /// Every combinational kind at a representative arity.
    fn combinational_kinds_and_arities() -> Vec<(CellKind, usize)> {
        vec![
            (CellKind::Const(false), 0),
            (CellKind::Const(true), 0),
            (CellKind::Buf, 1),
            (CellKind::Inv, 1),
            (CellKind::And, 3),
            (CellKind::Or, 3),
            (CellKind::Nand, 3),
            (CellKind::Nor, 3),
            (CellKind::Xor, 3),
            (CellKind::Xnor, 3),
            (CellKind::Mux2, 3),
            (CellKind::Maj3, 3),
            (CellKind::HalfAdder, 2),
            (CellKind::FullAdder, 3),
        ]
    }

    fn tri_inputs(arity: usize, word: usize) -> Vec<Tri> {
        const ALL: [Tri; 3] = [Tri::Zero, Tri::One, Tri::X];
        (0..arity)
            .map(|i| ALL[(word / 3usize.pow(i as u32)) % 3])
            .collect()
    }

    #[test]
    fn tri_evaluation_agrees_with_binary_on_concrete_inputs() {
        for (kind, arity) in combinational_kinds_and_arities() {
            for word in 0..(1usize << arity) {
                let bools: Vec<bool> = (0..arity).map(|i| word & (1 << i) != 0).collect();
                let tris: Vec<Tri> = bools.iter().map(|&b| Tri::from(b)).collect();
                let binary = kind.try_evaluate(&bools).unwrap();
                let tri = kind.try_evaluate_tri(&tris).unwrap();
                let expected: Vec<Tri> = binary.into_iter().map(Tri::from).collect();
                assert_eq!(tri, expected, "{kind} on {bools:?}");
            }
        }
    }

    #[test]
    fn tri_evaluation_is_monotone_exhaustively() {
        // For every kind, every input vector and every X position: raising
        // the X to either concrete value must refine the outputs pointwise.
        for (kind, arity) in combinational_kinds_and_arities() {
            for word in 0..3usize.pow(arity as u32) {
                let lo = tri_inputs(arity, word);
                let lo_out = kind.try_evaluate_tri(&lo).unwrap();
                for (i, _) in lo.iter().enumerate().filter(|(_, &v)| v == Tri::X) {
                    for raised in [Tri::Zero, Tri::One] {
                        let mut hi = lo.clone();
                        hi[i] = raised;
                        let hi_out = kind.try_evaluate_tri(&hi).unwrap();
                        for (l, h) in lo_out.iter().zip(&hi_out) {
                            assert!(
                                l.refines_to(*h),
                                "{kind}: {lo:?} -> {lo_out:?} must refine {hi:?} -> {hi_out:?}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn tri_evaluation_is_pessimistic_where_expected() {
        use Tri::{One, Zero, X};
        assert_eq!(CellKind::And.try_evaluate_tri(&[Zero, X]).unwrap(), [Zero]);
        assert_eq!(CellKind::And.try_evaluate_tri(&[One, X]).unwrap(), [X]);
        assert_eq!(CellKind::Or.try_evaluate_tri(&[One, X]).unwrap(), [One]);
        assert_eq!(CellKind::Nor.try_evaluate_tri(&[One, X]).unwrap(), [Zero]);
        assert_eq!(CellKind::Nand.try_evaluate_tri(&[Zero, X]).unwrap(), [One]);
        assert_eq!(CellKind::Xor.try_evaluate_tri(&[One, X]).unwrap(), [X]);
        // A MUX with unknown select but agreeing data inputs is known.
        assert_eq!(
            CellKind::Mux2.try_evaluate_tri(&[X, One, One]).unwrap(),
            [One]
        );
        assert_eq!(
            CellKind::Mux2.try_evaluate_tri(&[X, One, Zero]).unwrap(),
            [X]
        );
        // Majority settles as soon as two inputs agree.
        assert_eq!(
            CellKind::Maj3.try_evaluate_tri(&[One, X, One]).unwrap(),
            [One]
        );
        assert_eq!(
            CellKind::FullAdder
                .try_evaluate_tri(&[Zero, X, Zero])
                .unwrap(),
            [X, Zero]
        );
        // Constants ignore the X world entirely.
        assert_eq!(CellKind::Const(true).try_evaluate_tri(&[]).unwrap(), [One]);
    }

    #[test]
    fn tri_evaluation_reports_the_same_errors_as_binary() {
        assert_eq!(
            CellKind::Dff.try_evaluate_tri(&[Tri::One]),
            Err(EvalError::Sequential(CellKind::Dff))
        );
        assert_eq!(
            CellKind::Mux2.try_evaluate_tri(&[Tri::One]),
            Err(EvalError::BadArity {
                kind: CellKind::Mux2,
                inputs: 1
            })
        );
        let mut short = [Tri::X];
        assert_eq!(
            CellKind::HalfAdder.try_evaluate_tri_into(&[Tri::One, Tri::One], &mut short),
            Err(EvalError::OutputBufferTooSmall {
                kind: CellKind::HalfAdder,
                have: 1,
                need: 2
            })
        );
    }

    #[test]
    fn mnemonics_are_unique_enough() {
        let kinds = [
            CellKind::Const(false),
            CellKind::Const(true),
            CellKind::Buf,
            CellKind::Inv,
            CellKind::And,
            CellKind::Or,
            CellKind::Nand,
            CellKind::Nor,
            CellKind::Xor,
            CellKind::Xnor,
            CellKind::Mux2,
            CellKind::Maj3,
            CellKind::HalfAdder,
            CellKind::FullAdder,
            CellKind::Dff,
        ];
        let mut names: Vec<_> = kinds.iter().map(|k| k.mnemonic()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn gate_equivalents_positive_for_logic() {
        assert!(CellKind::FullAdder.gate_equivalents() > CellKind::Inv.gate_equivalents());
        assert_eq!(CellKind::Const(true).gate_equivalents(), 0.0);
    }
}
