//! The connectivity a netlist derives from its cells' pins, built on first
//! use and cached until the next structural edit: every net's loads, the
//! validation verdict and the levelization. Both of the latter walk each
//! combinational cell's distinct combinational successors, which the build
//! derives once from the loads.

use crate::cell::CellId;
use crate::error::NetlistError;
use crate::level::{levelize, Levelization};
use crate::net::{NetId, Pin};
use crate::netlist::Netlist;
use crate::validate::{check, find_combinational_loop};

/// Rows of items in one vector: row `i` is `items[offsets[i]..offsets[i + 1]]`.
#[derive(Debug, Clone)]
struct Rows<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Rows<T> {
    #[inline]
    fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// See the module documentation.
#[derive(Debug, Clone)]
pub(crate) struct Topology {
    /// Per net, its load pins in (cell, pin) order.
    loads: Rows<Pin>,
    /// What [`Netlist::validate`] returns.
    pub(crate) check: Result<(), NetlistError>,
    /// What [`Netlist::levelize`] returns.
    pub(crate) levels: Result<Levelization, NetlistError>,
}

impl Topology {
    pub(crate) fn build(netlist: &Netlist) -> Topology {
        // Loads: count each net's input pins, then fill cell by cell, pin
        // by pin, which leaves every row in (cell, pin) order.
        let mut offsets = vec![0u32; netlist.net_count() + 1];
        for (_, cell) in netlist.cells() {
            for net in cell.inputs() {
                offsets[net.index() + 1] += 1;
            }
        }
        for i in 0..netlist.net_count() {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets.clone();
        let unset = Pin {
            cell: CellId(0),
            index: 0,
        };
        let mut items = vec![unset; offsets[netlist.net_count()] as usize];
        for (id, cell) in netlist.cells() {
            for (index, net) in cell.inputs().iter().enumerate() {
                let slot = &mut next[net.index()];
                items[*slot as usize] = Pin { cell: id, index };
                *slot += 1;
            }
        }
        let loads = Rows { offsets, items };

        let mut successors = Rows {
            offsets: Vec::with_capacity(netlist.cell_count() + 1),
            items: Vec::new(),
        };
        successors.offsets.push(0);
        let mut row: Vec<CellId> = Vec::new();
        for (_, cell) in netlist.cells() {
            row.clear();
            if !cell.is_sequential() {
                for out in cell.outputs() {
                    row.extend(
                        loads
                            .row(out.index())
                            .iter()
                            .map(|load| load.cell)
                            .filter(|&load| !netlist.cell_kind(load).is_sequential()),
                    );
                }
                row.sort_unstable();
                row.dedup();
            }
            successors.items.extend_from_slice(&row);
            successors.offsets.push(successors.items.len() as u32);
        }

        let successor_of = |cell: CellId| successors.row(cell.index());
        let levels = levelize(netlist, successor_of);
        let check = check(netlist, |net| !loads.row(net.index()).is_empty()).and_then(|()| {
            if levels.is_ok() {
                Ok(())
            } else {
                find_combinational_loop(netlist, successor_of)
            }
        });
        Topology {
            loads,
            check,
            levels,
        }
    }

    /// The load pins of `net`, in (cell, pin) order.
    #[inline]
    pub(crate) fn loads(&self, net: NetId) -> &[Pin] {
        self.loads.row(net.index())
    }
}
