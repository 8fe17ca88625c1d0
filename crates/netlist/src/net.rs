//! Nets (signal nodes) and pins.
//!
//! Every electrical node of the circuit is a [`Net`]; the paper's transition
//! counting monitors exactly these nodes. A net has at most one driver (a
//! cell output pin or a primary input) and any number of loads.
//!
//! A [`Net`] is a borrowed view: the netlist stores a small record per
//! net and derives the loads from its cells' input pins.

use std::fmt;

use crate::cell::CellId;
use crate::names::Span;
use crate::netlist::Netlist;

/// Identifier of a net inside one [`crate::Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NetId(pub(crate) usize);

impl NetId {
    /// Returns the dense index backing this id.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }

    /// Builds a `NetId` from a raw index.
    #[must_use]
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NetId(index)
    }
}

impl fmt::Display for NetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A connection point: output pin `index` of `cell` (when used as a driver)
/// or input pin `index` of `cell` (when used as a load).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Pin {
    /// The cell this pin belongs to.
    pub cell: CellId,
    /// The pin position within the cell's input or output list.
    pub index: usize,
}

impl fmt::Display for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.cell, self.index)
    }
}

/// The stored part of a net: everything but its loads, which the
/// netlist's cached topology derives from the cells' input pins.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NetRecord {
    pub(crate) name: Span,
    pub(crate) driver: Option<Pin>,
    pub(crate) is_input: bool,
    pub(crate) is_output: bool,
}

/// One signal node of the circuit: a view into its [`Netlist`], as
/// [`Netlist::net`] and [`Netlist::nets`] hand it out.
#[derive(Clone, Copy)]
pub struct Net<'a> {
    netlist: &'a Netlist,
    id: NetId,
    record: &'a NetRecord,
}

impl<'a> Net<'a> {
    #[inline]
    pub(crate) fn new(netlist: &'a Netlist, id: NetId, record: &'a NetRecord) -> Self {
        Net {
            netlist,
            id,
            record,
        }
    }

    /// The net's name.
    #[must_use]
    #[inline]
    pub fn name(&self) -> &'a str {
        self.netlist.name_at(self.record.name)
    }

    /// The cell output pin driving this net, if any. Primary inputs and
    /// not-yet-connected nets have no driver.
    #[must_use]
    #[inline]
    pub fn driver(&self) -> Option<Pin> {
        self.record.driver
    }

    /// The cell input pins loading this net, in (cell, pin) order.
    #[must_use]
    #[inline]
    pub fn loads(&self) -> &'a [Pin] {
        self.netlist.topology().loads(self.id)
    }

    /// Number of cell input pins loading this net.
    #[must_use]
    #[inline]
    pub fn fanout(&self) -> usize {
        self.loads().len()
    }

    /// `true` when this net is a primary input of the netlist.
    #[must_use]
    #[inline]
    pub fn is_primary_input(&self) -> bool {
        self.record.is_input
    }

    /// `true` when this net is a primary output of the netlist.
    #[must_use]
    #[inline]
    pub fn is_primary_output(&self) -> bool {
        self.record.is_output
    }

    /// `true` when the net has neither a driver nor the primary-input flag,
    /// i.e. it would float in silicon.
    #[must_use]
    #[inline]
    pub fn is_floating(&self) -> bool {
        self.record.driver.is_none() && !self.record.is_input
    }
}

impl fmt::Debug for Net<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Net")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("driver", &self.driver())
            .field("loads", &self.loads())
            .field("is_input", &self.is_primary_input())
            .field("is_output", &self.is_primary_output())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(NetId(3).to_string(), "n3");
        assert_eq!(
            Pin {
                cell: CellId(7),
                index: 1
            }
            .to_string(),
            "c7.1"
        );
    }

    #[test]
    fn floating_detection() {
        let mut nl = Netlist::new("t");
        let x = nl.add_net("x");
        let i = nl.add_input("i");
        assert!(nl.net(x).is_floating());
        assert!(!nl.net(i).is_floating());
    }
}
