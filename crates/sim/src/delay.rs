//! Cell delay models.
//!
//! A delay model maps `(cell kind, output pin)` to an integer propagation
//! delay in abstract delay units. The unit-delay model is the paper's
//! work-horse; [`CellDelay`] allows the Table 2 experiment where a full
//! adder's sum output is twice as slow as its carry output.

use std::collections::HashMap;

use glitch_netlist::CellKind;

/// Maps a cell kind and output pin to a propagation delay.
///
/// Implementations must be pure functions of their arguments. A
/// [`crate::ClockedSimulator`] queries each `(kind, output)` of its
/// netlist's combinational cells once, at construction, and settles every
/// cycle from the resolved per-cell table.
pub trait DelayModel {
    /// Propagation delay, in delay units, from any input of a cell of `kind`
    /// to its output pin `output`.
    ///
    /// A delay of 0 is legal (the new value is applied in the same time step
    /// via a delta-cycle style re-evaluation).
    fn delay(&self, kind: CellKind, output: usize) -> u64;
}

/// Every combinational cell has a delay of exactly one unit — the model the
/// paper uses for its gate-level experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitDelay;

impl DelayModel for UnitDelay {
    fn delay(&self, kind: CellKind, _output: usize) -> u64 {
        match kind {
            CellKind::Const(_) => 0,
            _ => 1,
        }
    }
}

/// Every cell has zero delay: the circuit settles instantly, so no glitches
/// can occur. Useful as the "perfectly balanced" reference.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ZeroDelay;

impl DelayModel for ZeroDelay {
    fn delay(&self, _kind: CellKind, _output: usize) -> u64 {
        0
    }
}

/// A configurable per-kind, per-output delay table.
///
/// Unspecified kinds fall back to the default delay (one unit). The full
/// adder's two outputs can be given independent delays, which is how the
/// paper models the realistic `d_sum = 2 * d_carry` case of Table 2.
///
/// ```
/// use glitch_netlist::CellKind;
/// use glitch_sim::{CellDelay, DelayModel};
///
/// let model = CellDelay::new()
///     .with_kind(CellKind::Xor, 2)
///     .with_full_adder(2, 1); // d_sum = 2 * d_carry
/// assert_eq!(model.delay(CellKind::FullAdder, 0), 2);
/// assert_eq!(model.delay(CellKind::FullAdder, 1), 1);
/// assert_eq!(model.delay(CellKind::And, 0), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellDelay {
    default: u64,
    by_kind: HashMap<CellKind, u64>,
    by_kind_output: HashMap<(CellKind, usize), u64>,
}

impl Default for CellDelay {
    fn default() -> Self {
        Self::new()
    }
}

impl CellDelay {
    /// A table where every cell defaults to one delay unit.
    #[must_use]
    pub fn new() -> Self {
        CellDelay {
            default: 1,
            by_kind: HashMap::new(),
            by_kind_output: HashMap::new(),
        }
    }

    /// Changes the fallback delay used for kinds without an explicit entry.
    #[must_use]
    pub fn with_default(mut self, delay: u64) -> Self {
        self.default = delay;
        self
    }

    /// Sets the delay of every output of the given kind.
    #[must_use]
    pub fn with_kind(mut self, kind: CellKind, delay: u64) -> Self {
        self.by_kind.insert(kind, delay);
        self
    }

    /// Sets the delay of one particular output pin of a kind.
    #[must_use]
    pub fn with_output(mut self, kind: CellKind, output: usize, delay: u64) -> Self {
        self.by_kind_output.insert((kind, output), delay);
        self
    }

    /// Convenience for the paper's Table 2: sets the full-adder and
    /// half-adder sum delay (output 0) and carry delay (output 1)
    /// independently.
    #[must_use]
    pub fn with_full_adder(self, sum_delay: u64, carry_delay: u64) -> Self {
        self.with_output(CellKind::FullAdder, 0, sum_delay)
            .with_output(CellKind::FullAdder, 1, carry_delay)
            .with_output(CellKind::HalfAdder, 0, sum_delay)
            .with_output(CellKind::HalfAdder, 1, carry_delay)
    }

    /// The unbalanced multiplier-cell model of Table 2 (`d_sum = 2·d_carry`).
    #[must_use]
    pub fn realistic_adder_cells() -> Self {
        CellDelay::new().with_full_adder(2, 1)
    }
}

impl DelayModel for CellDelay {
    fn delay(&self, kind: CellKind, output: usize) -> u64 {
        if let Some(&d) = self.by_kind_output.get(&(kind, output)) {
            return d;
        }
        if let Some(&d) = self.by_kind.get(&kind) {
            return d;
        }
        match kind {
            CellKind::Const(_) => 0,
            _ => self.default,
        }
    }
}

// Allow passing delay models by reference.
impl<D: DelayModel + ?Sized> DelayModel for &D {
    fn delay(&self, kind: CellKind, output: usize) -> u64 {
        (**self).delay(kind, output)
    }
}

// Allow passing boxed (type-erased) delay models, as built by
// `DelayKind::into_model`.
impl<D: DelayModel + ?Sized> DelayModel for Box<D> {
    fn delay(&self, kind: CellKind, output: usize) -> u64 {
        (**self).delay(kind, output)
    }
}

/// A selectable delay-model configuration.
///
/// `DelayKind` is the data-only description of which [`DelayModel`] a run
/// should use — the form configs, CLIs and analysis flows pass around —
/// and [`DelayKind::into_model`] is the constructor that turns it into a
/// type-erased model the simulator can own. This is what makes the model
/// swappable without making every consumer generic.
///
/// ```
/// use glitch_netlist::CellKind;
/// use glitch_sim::{DelayKind, DelayModel};
///
/// let model = DelayKind::RealisticAdderCells.into_model();
/// assert_eq!(model.delay(CellKind::FullAdder, 0), 2);
/// assert_eq!(model.delay(CellKind::FullAdder, 1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum DelayKind {
    /// One delay unit per cell — the paper's standard model.
    #[default]
    Unit,
    /// Zero delay everywhere: the glitch-free reference ("all delay paths
    /// balanced").
    Zero,
    /// Compound adder cells with `d_sum = 2 · d_carry` (Table 2).
    RealisticAdderCells,
    /// A fully custom per-cell delay table.
    Custom(CellDelay),
}

impl DelayKind {
    /// Builds the described delay model as a boxed trait object.
    #[must_use]
    pub fn into_model(self) -> Box<dyn DelayModel> {
        match self {
            DelayKind::Unit => Box::new(UnitDelay),
            DelayKind::Zero => Box::new(ZeroDelay),
            DelayKind::RealisticAdderCells => Box::new(CellDelay::realistic_adder_cells()),
            DelayKind::Custom(model) => Box::new(model),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_delay_is_one_except_constants() {
        assert_eq!(UnitDelay.delay(CellKind::And, 0), 1);
        assert_eq!(UnitDelay.delay(CellKind::FullAdder, 1), 1);
        assert_eq!(UnitDelay.delay(CellKind::Const(true), 0), 0);
    }

    #[test]
    fn zero_delay_is_zero() {
        assert_eq!(ZeroDelay.delay(CellKind::Xor, 0), 0);
        assert_eq!(ZeroDelay.delay(CellKind::FullAdder, 1), 0);
    }

    #[test]
    fn cell_delay_lookup_precedence() {
        let model = CellDelay::new()
            .with_default(3)
            .with_kind(CellKind::FullAdder, 5)
            .with_output(CellKind::FullAdder, 0, 7);
        // Per-output beats per-kind beats default.
        assert_eq!(model.delay(CellKind::FullAdder, 0), 7);
        assert_eq!(model.delay(CellKind::FullAdder, 1), 5);
        assert_eq!(model.delay(CellKind::And, 0), 3);
        assert_eq!(model.delay(CellKind::Const(false), 0), 0);
    }

    #[test]
    fn realistic_adder_cells_match_table_2() {
        let model = CellDelay::realistic_adder_cells();
        assert_eq!(model.delay(CellKind::FullAdder, 0), 2);
        assert_eq!(model.delay(CellKind::FullAdder, 1), 1);
        assert_eq!(model.delay(CellKind::HalfAdder, 0), 2);
        assert_eq!(model.delay(CellKind::HalfAdder, 1), 1);
        assert_eq!(model.delay(CellKind::Inv, 0), 1);
    }

    #[test]
    fn reference_forwarding() {
        let model = CellDelay::new();
        let by_ref: &dyn DelayModel = &model;
        assert_eq!(by_ref.delay(CellKind::And, 0), 1);
        assert_eq!(UnitDelay.delay(CellKind::And, 0), 1);
        let boxed: Box<dyn DelayModel> = Box::new(model);
        assert_eq!(boxed.delay(CellKind::And, 0), 1);
    }

    #[test]
    fn delay_kind_constructs_matching_models() {
        assert_eq!(DelayKind::Unit.into_model().delay(CellKind::Xor, 0), 1);
        assert_eq!(DelayKind::Zero.into_model().delay(CellKind::Xor, 0), 0);
        let adder = DelayKind::RealisticAdderCells.into_model();
        assert_eq!(adder.delay(CellKind::FullAdder, 0), 2);
        assert_eq!(adder.delay(CellKind::FullAdder, 1), 1);
        let custom = DelayKind::Custom(CellDelay::new().with_default(9)).into_model();
        assert_eq!(custom.delay(CellKind::And, 0), 9);
        assert_eq!(DelayKind::default(), DelayKind::Unit);
    }
}
