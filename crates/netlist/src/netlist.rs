//! The [`Netlist`] container and its construction API.

use std::collections::hash_map::Entry;

use crate::cell::{Cell, CellId, CellKind, DffInit};
use crate::error::NetlistError;
use crate::hash::FxHashMap;
use crate::net::{Net, NetId, Pin};

/// A multi-bit signal: an ordered list of nets, least-significant bit first.
///
/// `Bus` is a thin convenience wrapper used by the circuit generators in
/// `glitch-arith`; bit `i` of the bus is `bus.bit(i)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bus {
    nets: Vec<NetId>,
}

impl Bus {
    /// Wraps an ordered list of nets (LSB first) as a bus.
    #[must_use]
    pub fn new(nets: Vec<NetId>) -> Self {
        Bus { nets }
    }

    /// Bus width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.nets.len()
    }

    /// Net carrying bit `i` (0 = least significant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    #[must_use]
    pub fn bit(&self, i: usize) -> NetId {
        self.nets[i]
    }

    /// All bits, least significant first.
    #[must_use]
    pub fn bits(&self) -> &[NetId] {
        &self.nets
    }

    /// Iterates over the bits, least significant first.
    pub fn iter(&self) -> std::slice::Iter<'_, NetId> {
        self.nets.iter()
    }
}

impl From<Vec<NetId>> for Bus {
    fn from(nets: Vec<NetId>) -> Self {
        Bus::new(nets)
    }
}

impl<'a> IntoIterator for &'a Bus {
    type Item = &'a NetId;
    type IntoIter = std::slice::Iter<'a, NetId>;
    fn into_iter(self) -> Self::IntoIter {
        self.nets.iter()
    }
}

/// A flat, single-clock, gate-level netlist.
///
/// See the crate-level documentation for an overview and an example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    cells: Vec<Cell>,
    nets: Vec<Net>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    net_names: FxHashMap<String, NetId>,
    fresh_counter: usize,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            cells: Vec::new(),
            nets: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            net_names: FxHashMap::default(),
            fresh_counter: 0,
        }
    }

    /// The design name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// A structural fingerprint of the netlist: an FNV-1a hash over the
    /// design name, every net (name, input/output marking) and every cell
    /// (kind, connectivity, flipflop init state), in id order.
    ///
    /// Two netlists with equal fingerprints are structurally identical for
    /// simulation purposes; the serving cache keys circuits by it, and a
    /// request may pin it to reject an edited circuit that happens to keep
    /// the same name and element counts. The hash is implemented
    /// explicitly (not via `std::hash`) so the value is stable across Rust
    /// versions — clients pin it across daemon restarts.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x100_0000_01b3;
        let mut hash = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        eat(self.name.as_bytes());
        for net in &self.nets {
            eat(net.name().as_bytes());
            eat(&[
                0xFE,
                u8::from(net.is_primary_input()),
                u8::from(net.is_primary_output()),
            ]);
        }
        for cell in &self.cells {
            eat(cell.name().as_bytes());
            eat(&[0xFD]);
            eat(format!("{}", cell.kind()).as_bytes());
            eat(&[cell.dff_init().blif_digit() as u8]);
            for &net in cell.inputs().iter().chain(cell.outputs()) {
                eat(&(net.index() as u64).to_le_bytes());
            }
        }
        hash
    }

    /// Number of nets (signal nodes).
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of D-flipflops.
    #[must_use]
    pub fn dff_count(&self) -> usize {
        self.cells.iter().filter(|c| c.is_sequential()).count()
    }

    /// Primary input nets, in declaration order.
    #[must_use]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary output nets, in declaration order.
    #[must_use]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// Borrow a net record.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.0]
    }

    /// Borrow a cell record.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.0]
    }

    /// Iterate over `(NetId, &Net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets.iter().enumerate().map(|(i, n)| (NetId(i), n))
    }

    /// Iterate over `(CellId, &Cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells.iter().enumerate().map(|(i, c)| (CellId(i), c))
    }

    /// Iterate over the ids of all combinational (non-flipflop) cells.
    pub fn combinational_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.is_sequential())
            .map(|(i, _)| CellId(i))
    }

    /// Iterate over the ids of all D-flipflop cells.
    pub fn dff_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.is_sequential())
            .map(|(i, _)| CellId(i))
    }

    /// Looks a net up by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_names.get(name).copied()
    }

    /// Enters `name` for net `id` when it is free, hashing it once, and
    /// returns the copy the net keeps; returns `name` back when it is
    /// taken.
    fn claim_name(&mut self, name: String, id: NetId) -> Result<String, String> {
        match self.net_names.entry(name) {
            Entry::Vacant(slot) => {
                let name = slot.key().clone();
                slot.insert(id);
                Ok(name)
            }
            Entry::Occupied(taken) => Err(taken.key().clone()),
        }
    }

    /// Adds a net named `name`, or `name_<k>` for the first free `k` of the
    /// netlist's counter when `name` is taken.
    fn add_named_net(&mut self, name: String, is_input: bool) -> NetId {
        let id = NetId(self.nets.len());
        let name = match self.claim_name(name, id) {
            Ok(name) => name,
            Err(prefix) => loop {
                let candidate = format!("{prefix}_{}", self.fresh_counter);
                self.fresh_counter += 1;
                if let Ok(name) = self.claim_name(candidate, id) {
                    break name;
                }
            },
        };
        self.push_net(id, name, is_input)
    }

    /// Creates a new internal net with the given name.
    ///
    /// If the name is already taken a unique suffix is appended; use
    /// [`Netlist::try_add_net`] to treat a clash as an error instead.
    pub fn add_net(&mut self, name: impl Into<String>) -> NetId {
        self.add_named_net(name.into(), false)
    }

    /// Creates a new internal net, failing when the name is already in use.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNetName`] if a net with this name
    /// already exists.
    pub fn try_add_net(&mut self, name: impl Into<String>) -> Result<NetId, NetlistError> {
        let id = NetId(self.nets.len());
        let name = self
            .claim_name(name.into(), id)
            .map_err(NetlistError::DuplicateNetName)?;
        Ok(self.push_net(id, name, false))
    }

    /// Appends net `id`, whose name is already in the name map.
    fn push_net(&mut self, id: NetId, name: String, is_input: bool) -> NetId {
        debug_assert_eq!(id.0, self.nets.len());
        self.nets.push(Net {
            name,
            driver: None,
            loads: Vec::new(),
            is_input,
            is_output: false,
        });
        if is_input {
            self.inputs.push(id);
        }
        id
    }

    /// Declares a primary input net.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        self.add_named_net(name.into(), true)
    }

    /// Declares a primary input bus of `width` bits named `name[0]`,
    /// `name[1]`, … (LSB first).
    pub fn add_input_bus(&mut self, name: &str, width: usize) -> Bus {
        Bus::new(
            (0..width)
                .map(|i| self.add_input(format!("{name}[{i}]")))
                .collect(),
        )
    }

    /// Marks an existing net as a primary output.
    pub fn mark_output(&mut self, net: NetId) {
        if !self.nets[net.0].is_output {
            self.nets[net.0].is_output = true;
            self.outputs.push(net);
        }
    }

    /// Marks every bit of a bus as a primary output.
    pub fn mark_output_bus(&mut self, bus: &Bus) {
        for &bit in bus.bits() {
            self.mark_output(bit);
        }
    }

    /// Renames a net. The old name is released.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNetName`] if the new name is taken and
    /// [`NetlistError::UnknownNet`] if `net` is out of range.
    pub fn rename_net(
        &mut self,
        net: NetId,
        new_name: impl Into<String>,
    ) -> Result<(), NetlistError> {
        let new_name = new_name.into();
        if net.0 >= self.nets.len() {
            return Err(NetlistError::UnknownNet(net));
        }
        if let Some(&existing) = self.net_names.get(&new_name) {
            if existing != net {
                return Err(NetlistError::DuplicateNetName(new_name));
            }
            return Ok(());
        }
        let old = self.nets[net.0].name.clone();
        self.net_names.remove(&old);
        self.net_names.insert(new_name.clone(), net);
        self.nets[net.0].name = new_name;
        Ok(())
    }

    /// Adds a cell driving already-existing output nets.
    ///
    /// This is the low-level instancing primitive; the gate helpers below are
    /// usually more convenient because they create the output nets for you.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::BadArity`] if the input count is illegal for `kind`.
    /// * [`NetlistError::UnknownNet`] if any referenced net is out of range.
    /// * [`NetlistError::MultipleDrivers`] if an output net is already driven.
    /// * [`NetlistError::DrivenInput`] if an output net is a primary input.
    pub fn add_cell(
        &mut self,
        kind: CellKind,
        name: impl Into<String>,
        inputs: Vec<NetId>,
        outputs: Vec<NetId>,
    ) -> Result<CellId, NetlistError> {
        let id = CellId(self.cells.len());
        if !kind.accepts_arity(inputs.len()) {
            return Err(NetlistError::BadArity {
                cell: id,
                got: inputs.len(),
            });
        }
        assert_eq!(
            outputs.len(),
            kind.output_count(),
            "cell {} must drive exactly {} outputs",
            kind,
            kind.output_count()
        );
        for &n in inputs.iter().chain(outputs.iter()) {
            if n.0 >= self.nets.len() {
                return Err(NetlistError::UnknownNet(n));
            }
        }
        for (pin, &out) in outputs.iter().enumerate() {
            if self.nets[out.0].driver.is_some() {
                return Err(NetlistError::MultipleDrivers { net: out, cell: id });
            }
            if self.nets[out.0].is_input {
                return Err(NetlistError::DrivenInput(out));
            }
            self.nets[out.0].driver = Some(Pin {
                cell: id,
                index: pin,
            });
        }
        for (pin, &inp) in inputs.iter().enumerate() {
            self.nets[inp.0].loads.push(Pin {
                cell: id,
                index: pin,
            });
        }
        self.cells.push(Cell {
            kind,
            name: name.into(),
            inputs,
            outputs,
            dff_init: DffInit::DontCare,
        });
        Ok(id)
    }

    /// Sets the initial (reset) state of a flipflop cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range or not a [`CellKind::Dff`].
    pub fn set_dff_init(&mut self, cell: CellId, init: DffInit) {
        assert!(
            self.cells[cell.0].is_sequential(),
            "cell {} ({}) is not a flipflop",
            cell,
            self.cells[cell.0].name
        );
        self.cells[cell.0].dff_init = init;
    }

    /// Creates a single-output gate of `kind`, creating and returning its
    /// output net.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs is illegal for `kind` or if any input
    /// net belongs to another netlist. Structural construction errors are
    /// programming errors in circuit generators, so the gate helpers panic
    /// rather than force `?` on every gate instantiation; use
    /// [`Netlist::add_cell`] when fallible construction is needed.
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId], out_name: &str) -> NetId {
        assert_eq!(
            kind.output_count(),
            1,
            "gate() only builds single-output cells"
        );
        let out = self.add_net(out_name);
        let cell_name = format!("u_{out_name}_{}", self.cells.len());
        self.add_cell(kind, cell_name, inputs.to_vec(), vec![out])
            .expect("structurally valid gate");
        out
    }

    /// Two-input AND gate.
    pub fn and2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::And, &[a, b], out_name)
    }

    /// N-input AND gate.
    pub fn and(&mut self, inputs: &[NetId], out_name: &str) -> NetId {
        self.gate(CellKind::And, inputs, out_name)
    }

    /// Two-input OR gate.
    pub fn or2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Or, &[a, b], out_name)
    }

    /// N-input OR gate.
    pub fn or(&mut self, inputs: &[NetId], out_name: &str) -> NetId {
        self.gate(CellKind::Or, inputs, out_name)
    }

    /// Two-input NAND gate.
    pub fn nand2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Nand, &[a, b], out_name)
    }

    /// Two-input NOR gate.
    pub fn nor2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Nor, &[a, b], out_name)
    }

    /// Two-input XOR gate.
    pub fn xor2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Xor, &[a, b], out_name)
    }

    /// Two-input XNOR gate.
    pub fn xnor2(&mut self, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Xnor, &[a, b], out_name)
    }

    /// Inverter.
    pub fn inv(&mut self, a: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Inv, &[a], out_name)
    }

    /// Buffer.
    pub fn buf(&mut self, a: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Buf, &[a], out_name)
    }

    /// 2-to-1 multiplexer; returns `a` when `sel` is 0 and `b` when `sel`
    /// is 1.
    pub fn mux2(&mut self, sel: NetId, a: NetId, b: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Mux2, &[sel, a, b], out_name)
    }

    /// Three-input majority gate.
    pub fn maj3(&mut self, a: NetId, b: NetId, c: NetId, out_name: &str) -> NetId {
        self.gate(CellKind::Maj3, &[a, b, c], out_name)
    }

    /// Constant driver.
    pub fn constant(&mut self, value: bool, out_name: &str) -> NetId {
        self.gate(CellKind::Const(value), &[], out_name)
    }

    /// Compound half-adder cell; returns `(sum, carry)`.
    pub fn half_adder(&mut self, a: NetId, b: NetId, prefix: &str) -> (NetId, NetId) {
        let sum = self.add_net(format!("{prefix}_s"));
        let carry = self.add_net(format!("{prefix}_c"));
        let name = format!("u_{prefix}_{}", self.cells.len());
        self.add_cell(CellKind::HalfAdder, name, vec![a, b], vec![sum, carry])
            .expect("structurally valid half adder");
        (sum, carry)
    }

    /// Compound full-adder cell; returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId, prefix: &str) -> (NetId, NetId) {
        let sum = self.add_net(format!("{prefix}_s"));
        let carry = self.add_net(format!("{prefix}_c"));
        let name = format!("u_{prefix}_{}", self.cells.len());
        self.add_cell(CellKind::FullAdder, name, vec![a, b, cin], vec![sum, carry])
            .expect("structurally valid full adder");
        (sum, carry)
    }

    /// D-flipflop on the implicit clock; returns the `q` output net.
    pub fn dff(&mut self, d: NetId, out_name: &str) -> NetId {
        self.dff_with_init(d, out_name, DffInit::DontCare)
    }

    /// D-flipflop with an explicit initial state; returns the `q` output net.
    pub fn dff_with_init(&mut self, d: NetId, out_name: &str, init: DffInit) -> NetId {
        let q = self.add_net(out_name);
        let name = format!("u_{out_name}_{}", self.cells.len());
        let cell = self
            .add_cell(CellKind::Dff, name, vec![d], vec![q])
            .expect("structurally valid flipflop");
        self.cells[cell.0].dff_init = init;
        q
    }

    /// Inserts a chain of `stages` flipflops behind `d` and returns the final
    /// `q` net. With `stages == 0` the original net is returned unchanged.
    pub fn dff_chain(&mut self, d: NetId, stages: usize, prefix: &str) -> NetId {
        let mut cur = d;
        for i in 0..stages {
            cur = self.dff(cur, &format!("{prefix}_q{i}"));
        }
        cur
    }

    /// Registers every bit of a bus once and returns the registered bus.
    pub fn register_bus(&mut self, bus: &Bus, prefix: &str) -> Bus {
        Bus::new(
            bus.bits()
                .iter()
                .enumerate()
                .map(|(i, &b)| self.dff(b, &format!("{prefix}[{i}]")))
                .collect(),
        )
    }

    /// Total (combinational cells + flipflops) gate-equivalent complexity; see
    /// [`CellKind::gate_equivalents`].
    #[must_use]
    pub fn gate_equivalents(&self) -> f64 {
        self.cells.iter().map(|c| c.kind().gate_equivalents()).sum()
    }

    /// Fans out of a given cell: the cells driven (directly, through one net)
    /// by any of its outputs.
    #[must_use]
    pub fn cell_fanout(&self, id: CellId) -> Vec<CellId> {
        let mut result = Vec::new();
        for &out in self.cell(id).outputs() {
            for load in self.net(out).loads() {
                result.push(load.cell);
            }
        }
        result.sort_unstable();
        result.dedup();
        result
    }

    /// Fans in of a given cell: the cells driving any of its inputs.
    #[must_use]
    pub fn cell_fanin(&self, id: CellId) -> Vec<CellId> {
        let mut result = Vec::new();
        for &inp in self.cell(id).inputs() {
            if let Some(driver) = self.net(inp).driver() {
                result.push(driver.cell);
            }
        }
        result.sort_unstable();
        result.dedup();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_half_adder_by_hand() {
        let mut nl = Netlist::new("ha");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let s = nl.xor2(a, b, "s");
        let c = nl.and2(a, b, "c");
        nl.mark_output(s);
        nl.mark_output(c);
        assert_eq!(nl.net_count(), 4);
        assert_eq!(nl.cell_count(), 2);
        assert_eq!(nl.inputs().len(), 2);
        assert_eq!(nl.outputs().len(), 2);
        assert_eq!(nl.find_net("s"), Some(s));
        assert!(nl.net(s).is_primary_output());
        assert!(nl.net(a).is_primary_input());
        assert_eq!(nl.net(a).fanout(), 2);
    }

    #[test]
    fn duplicate_names_get_uniquified() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("x");
        let b = nl.add_input("x");
        assert_ne!(a, b);
        assert_ne!(nl.net(a).name(), nl.net(b).name());
        assert!(nl.try_add_net("x").is_err());
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let out = nl.add_net("out");
        nl.add_cell(CellKind::Buf, "b1", vec![a], vec![out])
            .unwrap();
        let err = nl
            .add_cell(CellKind::Inv, "b2", vec![a], vec![out])
            .unwrap_err();
        assert!(matches!(err, NetlistError::MultipleDrivers { .. }));
    }

    #[test]
    fn driving_primary_input_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let err = nl
            .add_cell(CellKind::Buf, "b1", vec![b], vec![a])
            .unwrap_err();
        assert!(matches!(err, NetlistError::DrivenInput(_)));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let out = nl.add_net("out");
        let err = nl
            .add_cell(CellKind::And, "g", vec![a], vec![out])
            .unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 1, .. }));
    }

    #[test]
    fn bus_helpers() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input_bus("a", 4);
        assert_eq!(a.width(), 4);
        assert_eq!(nl.net(a.bit(2)).name(), "a[2]");
        let reg = nl.register_bus(&a, "a_q");
        assert_eq!(reg.width(), 4);
        assert_eq!(nl.dff_count(), 4);
        nl.mark_output_bus(&reg);
        assert_eq!(nl.outputs().len(), 4);
    }

    #[test]
    fn dff_chain_lengths() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let same = nl.dff_chain(a, 0, "p");
        assert_eq!(same, a);
        let q = nl.dff_chain(a, 3, "p");
        assert_ne!(q, a);
        assert_eq!(nl.dff_count(), 3);
    }

    #[test]
    fn fanin_fanout_queries() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.and2(a, b, "x");
        let y = nl.inv(x, "y");
        nl.mark_output(y);
        let and_cell = nl.net(x).driver().unwrap().cell;
        let inv_cell = nl.net(y).driver().unwrap().cell;
        assert_eq!(nl.cell_fanout(and_cell), vec![inv_cell]);
        assert_eq!(nl.cell_fanin(inv_cell), vec![and_cell]);
        assert!(nl.cell_fanin(and_cell).is_empty());
    }

    #[test]
    fn rename_net_rules() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        nl.rename_net(a, "alpha").unwrap();
        assert_eq!(nl.find_net("alpha"), Some(a));
        assert_eq!(nl.find_net("a"), None);
        assert!(nl.rename_net(b, "alpha").is_err());
        // Renaming to its own name is a no-op.
        nl.rename_net(b, "b").unwrap();
    }

    #[test]
    fn dff_init_state_is_stored_per_flipflop() {
        let mut nl = Netlist::new("t");
        let d = nl.add_input("d");
        let q0 = nl.dff(d, "q0");
        let q1 = nl.dff_with_init(d, "q1", DffInit::One);
        let ff0 = nl.net(q0).driver().unwrap().cell;
        let ff1 = nl.net(q1).driver().unwrap().cell;
        assert_eq!(nl.cell(ff0).dff_init(), DffInit::DontCare);
        assert_eq!(nl.cell(ff1).dff_init(), DffInit::One);
        nl.set_dff_init(ff0, DffInit::Zero);
        assert_eq!(nl.cell(ff0).dff_init(), DffInit::Zero);
        assert_eq!(DffInit::One.to_bool(), Some(true));
        assert_eq!(DffInit::DontCare.to_bool(), None);
        assert_eq!(DffInit::from(true), DffInit::One);
        assert_eq!(DffInit::Zero.blif_digit(), '0');
    }

    #[test]
    #[should_panic(expected = "not a flipflop")]
    fn set_dff_init_rejects_combinational_cells() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        let inv = nl.net(y).driver().unwrap().cell;
        nl.set_dff_init(inv, DffInit::One);
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let y = nl.inv(a, "y");
        nl.mark_output(y);
        nl.mark_output(y);
        assert_eq!(nl.outputs().len(), 1);
    }
}
