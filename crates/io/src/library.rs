//! The cell-name mapping layer: resolves external cell names (BLIF
//! `.subckt` / `.gate` models, Verilog module instances) onto the
//! workspace's [`CellKind`]s, and carries the per-kind delay and
//! capacitance defaults the downstream analyses use, drawn from
//! `glitch-power`'s [`Technology`] model.

use std::borrow::Cow;
use std::sync::Arc;

use glitch_netlist::{CellKind, FxHashMap};
use glitch_power::Technology;
use glitch_sim::CellDelay;

/// How one library pin maps onto a cell's pin list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryPin {
    /// Accepted names for this pin, lower case; the first is canonical.
    pub names: Vec<Cow<'static, str>>,
}

impl LibraryPin {
    fn new(names: &[&'static str]) -> Self {
        LibraryPin {
            names: names.iter().map(|&name| Cow::Borrowed(name)).collect(),
        }
    }

    /// The canonical (first) name.
    #[must_use]
    pub fn canonical(&self) -> &str {
        &self.names[0]
    }

    /// Whether `name` refers to this pin, ignoring ASCII case.
    #[must_use]
    pub fn accepts(&self, name: &str) -> bool {
        self.names.iter().any(|n| n.eq_ignore_ascii_case(name))
    }
}

/// One resolvable library cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LibraryCell {
    /// The netlist cell kind this external cell maps to.
    pub kind: CellKind,
    /// Input pins in the kind's pin order. For variable-arity kinds this is
    /// the maximum supported arity; trailing pins may be left unconnected.
    pub inputs: Vec<LibraryPin>,
    /// Output pins in the kind's pin order.
    pub outputs: Vec<LibraryPin>,
    /// Pin names (lower case) that are accepted and ignored (clock and
    /// control pins of cells whose behaviour the single-clock netlist
    /// models implicitly).
    pub ignored: Vec<Cow<'static, str>>,
}

impl LibraryCell {
    /// Resolves a pin name, ignoring ASCII case: `Ok(Some((is_output,
    /// index)))` for a real pin, `Ok(None)` for an ignored pin, `Err(())`
    /// for an unknown one.
    #[allow(clippy::result_unit_err)]
    pub fn resolve_pin(&self, name: &str) -> Result<Option<(bool, usize)>, ()> {
        if let Some(i) = self.inputs.iter().position(|p| p.accepts(name)) {
            return Ok(Some((false, i)));
        }
        if let Some(i) = self.outputs.iter().position(|p| p.accepts(name)) {
            return Ok(Some((true, i)));
        }
        if self.ignored.iter().any(|n| n.eq_ignore_ascii_case(name)) {
            return Ok(None);
        }
        Err(())
    }
}

/// Maps external cell names onto [`CellKind`]s and provides technology
/// defaults (delays, pin capacitances) for imported circuits.
#[derive(Debug, Clone, PartialEq)]
pub struct GateLibrary {
    /// Keyed by lower-case name; aliases share one cell.
    cells: FxHashMap<String, Arc<LibraryCell>>,
    tech: Technology,
}

impl Default for GateLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

/// Positional pin names of the variable-arity gates, up to their maximum
/// registered arity.
const VAR_INPUTS: [&[&str]; 8] = [
    &["a", "i0", "in0", "x0"],
    &["b", "i1", "in1", "x1"],
    &["c", "i2", "in2", "x2"],
    &["d", "i3", "in3", "x3"],
    &["e", "i4", "in4", "x4"],
    &["f", "i5", "in5", "x5"],
    &["g", "i6", "in6", "x6"],
    &["h", "i7", "in7", "x7"],
];

impl GateLibrary {
    /// An empty library with the paper's 0.8 µm / 5 V technology.
    #[must_use]
    pub fn empty() -> Self {
        GateLibrary {
            cells: FxHashMap::default(),
            tech: Technology::cmos_0p8um_5v(),
        }
    }

    /// The standard library: common names for every [`CellKind`], including
    /// the `$ha` / `$fa` / `$dff` models the BLIF writer emits.
    #[must_use]
    pub fn standard() -> Self {
        let mut lib = Self::empty();
        let pins = |names: &[&[&'static str]]| -> Vec<LibraryPin> {
            names.iter().map(|n| LibraryPin::new(n)).collect()
        };
        let out = |extra: &[&'static str]| {
            let mut names = vec!["y", "o", "out", "z", "f"];
            names.extend_from_slice(extra);
            vec![LibraryPin::new(&names)]
        };
        let cell =
            |kind: CellKind, inputs: Vec<LibraryPin>, outputs: Vec<LibraryPin>| LibraryCell {
                kind,
                inputs,
                outputs,
                ignored: Vec::new(),
            };

        for (kind, names) in [
            (CellKind::And, &["and", "and2", "and3", "and4", "and8"][..]),
            (CellKind::Or, &["or", "or2", "or3", "or4", "or8"][..]),
            (
                CellKind::Nand,
                &["nand", "nand2", "nand3", "nand4", "nand8"][..],
            ),
            (CellKind::Nor, &["nor", "nor2", "nor3", "nor4", "nor8"][..]),
            (CellKind::Xor, &["xor", "xor2", "xor3", "eo"][..]),
            (CellKind::Xnor, &["xnor", "xnor2", "xnor3", "en"][..]),
        ] {
            lib.register_aliases(names, cell(kind, pins(&VAR_INPUTS), out(&[])));
        }

        let unary = [&["a", "i", "in", "d", "x0"][..]];
        lib.register_aliases(
            &["inv", "not", "inverter", "iv"],
            cell(CellKind::Inv, pins(&unary), out(&[])),
        );
        lib.register_aliases(
            &["buf", "buffer", "bf"],
            cell(CellKind::Buf, pins(&unary), out(&[])),
        );
        lib.register_aliases(
            &["mux", "mux2", "mux21"],
            cell(
                CellKind::Mux2,
                pins(&[&["s", "sel", "i0"], &["a", "d0", "i1"], &["b", "d1", "i2"]]),
                out(&[]),
            ),
        );
        lib.register_aliases(
            &["maj", "maj3", "majority"],
            cell(
                CellKind::Maj3,
                pins(&[&["a", "i0"], &["b", "i1"], &["c", "i2"]]),
                out(&[]),
            ),
        );
        lib.register_aliases(
            &["$ha", "ha", "half_adder", "halfadder"],
            cell(
                CellKind::HalfAdder,
                pins(&[&["a", "i0"], &["b", "i1"]]),
                pins(&[&["sum", "s", "o0"], &["carry", "c", "co", "cout", "o1"]]),
            ),
        );
        lib.register_aliases(
            &["$fa", "fa", "full_adder", "fulladder"],
            cell(
                CellKind::FullAdder,
                pins(&[&["a", "i0"], &["b", "i1"], &["cin", "ci", "c", "i2"]]),
                pins(&[&["sum", "s", "o0"], &["carry", "co", "cout", "o1"]]),
            ),
        );
        lib.register_aliases(
            &["$dff", "dff", "ff", "fd", "dff_p", "dffpos"],
            LibraryCell {
                ignored: ["clk", "ck", "cp", "clock", "phi", "c"]
                    .into_iter()
                    .map(Cow::Borrowed)
                    .collect(),
                ..cell(
                    CellKind::Dff,
                    pins(&[&["d", "din", "i"]]),
                    pins(&[&["q", "qout", "o"]]),
                )
            },
        );
        lib.register_aliases(
            &["$const1", "vcc", "vdd", "one", "tie1"],
            cell(CellKind::Const(true), Vec::new(), out(&["q"])),
        );
        lib.register_aliases(
            &["$const0", "gnd", "vss", "zero", "tie0"],
            cell(CellKind::Const(false), Vec::new(), out(&["q"])),
        );

        lib
    }

    /// Replaces the technology the delay and capacitance defaults are drawn
    /// from.
    #[must_use]
    pub fn with_technology(mut self, tech: Technology) -> Self {
        self.tech = tech;
        self
    }

    /// Registers (or overrides) a cell under `name` (case-insensitive).
    pub fn register(&mut self, name: &str, cell: LibraryCell) {
        self.register_aliases(&[name], cell);
    }

    /// Registers one cell under every name in `names`, sharing its pin
    /// tables.
    fn register_aliases(&mut self, names: &[&str], cell: LibraryCell) {
        let cell = Arc::new(cell);
        for name in names {
            self.cells
                .insert(name.to_ascii_lowercase(), Arc::clone(&cell));
        }
    }

    /// Looks a cell up by external name (case-insensitive). Allocates
    /// nothing unless the name has an upper-case letter.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<&LibraryCell> {
        let cell = if name.bytes().any(|b| b.is_ascii_uppercase()) {
            self.cells.get(&name.to_ascii_lowercase())
        } else {
            self.cells.get(name)
        };
        cell.map(|cell| &**cell)
    }

    /// Number of registered names.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when no cell is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The technology the defaults are drawn from.
    #[must_use]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The default per-kind delay model for imported circuits: one unit for
    /// simple gates, two for the wide-XOR-style cells, and the paper's
    /// `d_sum = 2 · d_carry` split for the compound adder cells.
    #[must_use]
    pub fn cell_delay(&self) -> CellDelay {
        CellDelay::new()
            .with_kind(CellKind::Xor, 2)
            .with_kind(CellKind::Xnor, 2)
            .with_kind(CellKind::Mux2, 2)
            .with_kind(CellKind::Maj3, 2)
            .with_kind(CellKind::Const(false), 0)
            .with_kind(CellKind::Const(true), 0)
            .with_full_adder(2, 1)
    }

    /// Default input-pin capacitance of a cell of `kind`, in farads: the
    /// technology's gate-input capacitance, scaled up for the compound
    /// cells whose pins fan into several transistor gates internally.
    #[must_use]
    pub fn input_capacitance(&self, kind: CellKind) -> f64 {
        let scale = match kind {
            CellKind::HalfAdder | CellKind::FullAdder => 2.0,
            CellKind::Dff => 1.5,
            _ => 1.0,
        };
        self.tech.gate_input_cap * scale
    }

    /// Default output (drain plus local wiring) capacitance of a cell of
    /// `kind`, in farads.
    #[must_use]
    pub fn output_capacitance(&self, kind: CellKind) -> f64 {
        let scale = (kind.gate_equivalents() / 1.25).max(0.5);
        self.tech.gate_output_cap * scale.min(3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_library_resolves_common_names() {
        let lib = GateLibrary::standard();
        assert_eq!(lib.lookup("NAND2").unwrap().kind, CellKind::Nand);
        assert_eq!(lib.lookup("not").unwrap().kind, CellKind::Inv);
        assert_eq!(lib.lookup("$fa").unwrap().kind, CellKind::FullAdder);
        assert_eq!(lib.lookup("DFF").unwrap().kind, CellKind::Dff);
        assert_eq!(lib.lookup("vcc").unwrap().kind, CellKind::Const(true));
        assert!(lib.lookup("tristate").is_none());
        assert!(!lib.is_empty());
        assert!(lib.len() > 30);
    }

    #[test]
    fn pin_resolution_understands_aliases_and_ignores_clocks() {
        let lib = GateLibrary::standard();
        let fa = lib.lookup("fa").unwrap();
        assert_eq!(fa.resolve_pin("CIN"), Ok(Some((false, 2))));
        assert_eq!(fa.resolve_pin("ci"), Ok(Some((false, 2))));
        assert_eq!(fa.resolve_pin("sum"), Ok(Some((true, 0))));
        assert_eq!(fa.resolve_pin("cout"), Ok(Some((true, 1))));
        assert_eq!(fa.resolve_pin("nonsense"), Err(()));

        let dff = lib.lookup("dff").unwrap();
        assert_eq!(dff.resolve_pin("d"), Ok(Some((false, 0))));
        assert_eq!(dff.resolve_pin("q"), Ok(Some((true, 0))));
        assert_eq!(dff.resolve_pin("clk"), Ok(None));
    }

    #[test]
    fn variable_arity_gates_expose_positional_pins() {
        let lib = GateLibrary::standard();
        let and = lib.lookup("and4").unwrap();
        assert_eq!(and.resolve_pin("a"), Ok(Some((false, 0))));
        assert_eq!(and.resolve_pin("c"), Ok(Some((false, 2))));
        assert_eq!(and.resolve_pin("in3"), Ok(Some((false, 3))));
        assert_eq!(and.resolve_pin("y"), Ok(Some((true, 0))));
    }

    #[test]
    fn delay_defaults_follow_the_paper() {
        use glitch_sim::DelayModel;
        let model = GateLibrary::standard().cell_delay();
        assert_eq!(model.delay(CellKind::And, 0), 1);
        assert_eq!(model.delay(CellKind::FullAdder, 0), 2); // sum
        assert_eq!(model.delay(CellKind::FullAdder, 1), 1); // carry
        assert_eq!(model.delay(CellKind::Const(true), 0), 0);
    }

    #[test]
    fn capacitance_defaults_scale_with_complexity() {
        let lib = GateLibrary::standard();
        assert!(lib.input_capacitance(CellKind::FullAdder) > lib.input_capacitance(CellKind::And));
        assert!(
            lib.output_capacitance(CellKind::FullAdder) > lib.output_capacitance(CellKind::Inv)
        );
        assert!(lib.output_capacitance(CellKind::Inv) > 0.0);
    }
}
