//! The [`Netlist`] container and its construction API.

use std::sync::OnceLock;

use crate::cell::{Cell, CellId, CellKind, CellRecord, DffInit};
use crate::error::NetlistError;
use crate::names::{tag_of, NameIndex, Names, Span};
use crate::net::{Net, NetId, NetRecord, Pin};
use crate::topology::Topology;

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
/// See the crate-level documentation for an overview, the storage layout
/// and an example.
#[derive(Debug, Clone)]
pub struct Netlist {
    name: String,
    /// Every net and cell name, once.
    names: Names,
    nets: Vec<NetRecord>,
    cells: Vec<CellRecord>,
    /// Every cell's input then output nets, cell after cell.
    pins: Vec<NetId>,
    inputs: Vec<NetId>,
    outputs: Vec<NetId>,
    /// Name → net, keyed through `names`.
    index: NameIndex,
    fresh_counter: usize,
    /// Derived from the records above on first use; reset by every edit
    /// that adds a net or a cell or moves a pin.
    topology: OnceLock<Box<Topology>>,
}

impl Netlist {
    /// Creates an empty netlist with the given design name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            names: Names::default(),
            nets: Vec::new(),
            cells: Vec::new(),
            pins: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            index: NameIndex::default(),
            fresh_counter: 0,
            topology: OnceLock::new(),
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
        for (_, net) in self.nets() {
            eat(net.name().as_bytes());
            eat(&[
                0xFE,
                u8::from(net.is_primary_input()),
                u8::from(net.is_primary_output()),
            ]);
        }
        for (_, cell) in self.cells() {
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
        self.cells.iter().filter(|c| c.kind.is_sequential()).count()
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

    /// Borrow a net.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    #[inline]
    pub fn net(&self, id: NetId) -> Net<'_> {
        Net::new(self, id, &self.nets[id.0])
    }

    /// Borrow a cell.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    #[must_use]
    #[inline]
    pub fn cell(&self, id: CellId) -> Cell<'_> {
        Cell::new(&self.cells[id.0], &self.names, &self.pins)
    }

    /// Iterate over `(NetId, Net)` pairs.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, Net<'_>)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId(i), Net::new(self, NetId(i), n)))
    }

    /// Iterate over `(CellId, Cell)` pairs.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, Cell<'_>)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId(i), Cell::new(c, &self.names, &self.pins)))
    }

    /// Iterate over the ids of all combinational (non-flipflop) cells.
    pub fn combinational_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| !c.kind.is_sequential())
            .map(|(i, _)| CellId(i))
    }

    /// Iterate over the ids of all D-flipflop cells.
    pub fn dff_cells(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.kind.is_sequential())
            .map(|(i, _)| CellId(i))
    }

    /// The kind of cell `id`, without building its view.
    #[inline]
    pub(crate) fn cell_kind(&self, id: CellId) -> CellKind {
        self.cells[id.0].kind
    }

    /// The name stored at `span`.
    #[inline]
    pub(crate) fn name_at(&self, span: Span) -> &str {
        self.names.get(span)
    }

    /// The cached topology, built first if an edit has reset it.
    #[inline]
    pub(crate) fn topology(&self) -> &Topology {
        match self.topology.get() {
            Some(topology) => topology,
            None => self.build_topology(),
        }
    }

    #[cold]
    fn build_topology(&self) -> &Topology {
        self.topology
            .get_or_init(|| Box::new(Topology::build(self)))
    }

    /// Looks a net up by name.
    #[must_use]
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.find_tagged(name, tag_of(name))
    }

    fn find_tagged(&self, name: &str, tag: u32) -> Option<NetId> {
        self.index
            .find(name, tag, |id| self.names.get(self.nets[id.0].name))
    }

    /// Adds a net named `name`, or `name_<k>` for the first free `k` of the
    /// netlist's counter when `name` is taken.
    fn add_named_net(&mut self, name: &str, is_input: bool) -> NetId {
        let tag = tag_of(name);
        if self.find_tagged(name, tag).is_none() {
            return self.push_net(name, tag, is_input);
        }
        loop {
            let candidate = format!("{name}_{}", self.fresh_counter);
            self.fresh_counter += 1;
            let tag = tag_of(&candidate);
            if self.find_tagged(&candidate, tag).is_none() {
                return self.push_net(&candidate, tag, is_input);
            }
        }
    }

    /// Creates a new internal net with the given name.
    ///
    /// If the name is already taken a unique suffix is appended; use
    /// [`Netlist::try_add_net`] to treat a clash as an error instead.
    pub fn add_net(&mut self, name: impl AsRef<str>) -> NetId {
        self.add_named_net(name.as_ref(), false)
    }

    /// Creates a new internal net, failing when the name is already in use.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateNetName`] if a net with this name
    /// already exists.
    pub fn try_add_net(&mut self, name: impl AsRef<str>) -> Result<NetId, NetlistError> {
        let name = name.as_ref();
        let tag = tag_of(name);
        if self.find_tagged(name, tag).is_some() {
            return Err(NetlistError::DuplicateNetName(name.to_string()));
        }
        Ok(self.push_net(name, tag, false))
    }

    /// Appends a net named `name`, which is free and hashes to `tag`.
    fn push_net(&mut self, name: &str, tag: u32, is_input: bool) -> NetId {
        let id = NetId(self.nets.len());
        self.nets.push(NetRecord {
            name: self.names.push(name),
            driver: None,
            is_input,
            is_output: false,
        });
        self.index.insert(id, tag);
        if is_input {
            self.inputs.push(id);
        }
        self.topology.take();
        id
    }

    /// Declares a primary input net.
    pub fn add_input(&mut self, name: impl AsRef<str>) -> NetId {
        self.add_named_net(name.as_ref(), true)
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
        new_name: impl AsRef<str>,
    ) -> Result<(), NetlistError> {
        let new_name = new_name.as_ref();
        if net.0 >= self.nets.len() {
            return Err(NetlistError::UnknownNet(net));
        }
        let tag = tag_of(new_name);
        if let Some(existing) = self.find_tagged(new_name, tag) {
            if existing != net {
                return Err(NetlistError::DuplicateNetName(new_name.to_string()));
            }
            return Ok(());
        }
        let old_tag = tag_of(self.names.get(self.nets[net.0].name));
        self.index.remove(net, old_tag);
        self.nets[net.0].name = self.names.push(new_name);
        self.index.insert(net, tag);
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
        name: impl AsRef<str>,
        inputs: impl AsRef<[NetId]>,
        outputs: impl AsRef<[NetId]>,
    ) -> Result<CellId, NetlistError> {
        let (inputs, outputs) = (inputs.as_ref(), outputs.as_ref());
        let id = CellId(self.cells.len());
        let input_count = u16::try_from(inputs.len())
            .ok()
            .filter(|_| kind.accepts_arity(inputs.len()))
            .ok_or(NetlistError::BadArity {
                cell: id,
                got: inputs.len(),
            })?;
        assert_eq!(
            outputs.len(),
            kind.output_count(),
            "cell {} must drive exactly {} outputs",
            kind,
            kind.output_count()
        );
        for &n in inputs.iter().chain(outputs) {
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
        let first_pin = u32::try_from(self.pins.len()).expect("pin pool fits in u32");
        self.pins.extend_from_slice(inputs);
        self.pins.extend_from_slice(outputs);
        self.cells.push(CellRecord {
            kind,
            name: self.names.push(name.as_ref()),
            first_pin,
            input_count,
            output_count: outputs.len() as u16,
            dff_init: DffInit::DontCare,
        });
        self.topology.take();
        Ok(id)
    }

    /// Moves the input pins `pins` onto net `to`: each pin stops loading
    /// the net it read and loads `to` instead. Every load list stays in
    /// (cell, pin) order.
    ///
    /// This is the in-place edit behind the reduction loop's buffer move:
    /// a clone of the netlist plus a new net, this move and a new cell
    /// equals the netlist rebuilt with the rewiring.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::UnknownNet`] if `to` is out of range.
    /// * [`NetlistError::UnknownCell`] if a pin's cell is out of range.
    /// * [`NetlistError::UnknownPin`] if a pin's index is not one of its
    ///   cell's inputs.
    ///
    /// Nothing moves unless every pin is valid.
    pub fn move_loads(&mut self, pins: &[Pin], to: NetId) -> Result<(), NetlistError> {
        if to.0 >= self.nets.len() {
            return Err(NetlistError::UnknownNet(to));
        }
        for &pin in pins {
            let cell = self
                .cells
                .get(pin.cell.0)
                .ok_or(NetlistError::UnknownCell(pin.cell))?;
            if pin.index >= usize::from(cell.input_count) {
                return Err(NetlistError::UnknownPin(pin));
            }
        }
        for &pin in pins {
            self.pins[self.cells[pin.cell.0].first_pin as usize + pin.index] = to;
        }
        self.topology.take();
        Ok(())
    }

    /// Sets the initial (reset) state of a flipflop cell.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is out of range or not a [`CellKind::Dff`].
    pub fn set_dff_init(&mut self, cell: CellId, init: DffInit) {
        assert!(
            self.cells[cell.0].kind.is_sequential(),
            "cell {} ({}) is not a flipflop",
            cell,
            self.cell(cell).name()
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
        self.add_cell(kind, cell_name, inputs, [out])
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
        self.add_cell(CellKind::HalfAdder, name, [a, b], [sum, carry])
            .expect("structurally valid half adder");
        (sum, carry)
    }

    /// Compound full-adder cell; returns `(sum, carry)`.
    pub fn full_adder(&mut self, a: NetId, b: NetId, cin: NetId, prefix: &str) -> (NetId, NetId) {
        let sum = self.add_net(format!("{prefix}_s"));
        let carry = self.add_net(format!("{prefix}_c"));
        let name = format!("u_{prefix}_{}", self.cells.len());
        self.add_cell(CellKind::FullAdder, name, [a, b, cin], [sum, carry])
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
            .add_cell(CellKind::Dff, name, [d], [q])
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
        self.cells.iter().map(|c| c.kind.gate_equivalents()).sum()
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
    fn move_loads_rewires_pins_and_keeps_load_order() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.and2(a, b, "x");
        let y = nl.or2(b, a, "y");
        let z = nl.xor2(a, a, "z");
        for out in [x, y, z] {
            nl.mark_output(out);
        }
        let (and, or, xor) = (CellId(0), CellId(1), CellId(2));
        let pin = |cell, index| Pin { cell, index };
        nl.validate().unwrap();
        assert_eq!(
            nl.net(a).loads(),
            [pin(and, 0), pin(or, 1), pin(xor, 0), pin(xor, 1)]
        );
        // Moving pins out of order still lists them in (cell, pin) order,
        // and the cached loads follow the edit.
        nl.move_loads(&[pin(xor, 1), pin(and, 0)], b).unwrap();
        assert_eq!(nl.net(a).loads(), [pin(or, 1), pin(xor, 0)]);
        assert_eq!(
            nl.net(b).loads(),
            [pin(and, 0), pin(and, 1), pin(or, 0), pin(xor, 1)]
        );
        assert_eq!(nl.cell(and).inputs(), [b, b]);
        assert!(matches!(
            nl.move_loads(&[pin(or, 2)], a),
            Err(NetlistError::UnknownPin(_))
        ));
        assert!(matches!(
            nl.move_loads(&[pin(CellId(9), 0)], a),
            Err(NetlistError::UnknownCell(_))
        ));
        assert!(matches!(
            nl.move_loads(&[pin(or, 0)], NetId(99)),
            Err(NetlistError::UnknownNet(_))
        ));
        assert_eq!(nl.cell(or).inputs(), [b, a], "a refused move moves nothing");
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
