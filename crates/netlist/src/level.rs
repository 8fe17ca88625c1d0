//! Topological levelisation of the combinational portion of a netlist.
//!
//! Levelisation assigns each combinational cell a level: the length of the
//! longest purely-combinational path (in cells) from any primary input or
//! flipflop output to that cell. Levels are the backbone of
//!
//! * the event-driven simulator's sanity bound on settling time,
//! * the delay-imbalance metrics of `glitch-retime`,
//! * cut-based pipelining (insert a register rank after level *k*).

use std::collections::VecDeque;

use crate::cell::CellId;
use crate::error::NetlistError;
use crate::netlist::Netlist;

/// Result of [`Netlist::levelize`]: a topological order and per-cell levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    order: Vec<CellId>,
    levels: Vec<Option<usize>>,
    depth: usize,
}

/// Per-cell level access helper returned by [`Levelization::levels`].
#[derive(Debug, Clone, Copy)]
pub struct CellLevels<'a> {
    levels: &'a [Option<usize>],
}

impl<'a> CellLevels<'a> {
    /// Level of `cell`, or `None` for sequential cells (flipflops are level
    /// sources, not levelled themselves).
    #[must_use]
    pub fn level(&self, cell: CellId) -> Option<usize> {
        self.levels.get(cell.index()).copied().flatten()
    }
}

impl Levelization {
    /// Combinational cells in a valid topological (level-ascending) order.
    #[must_use]
    pub fn order(&self) -> &[CellId] {
        &self.order
    }

    /// Number of combinational levels (0 for a netlist with no combinational
    /// cells). A single gate between flipflops has depth 1.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Level of a single cell (1-based: cells fed only by inputs/flipflops
    /// are level 1). `None` for flipflops.
    #[must_use]
    pub fn level(&self, cell: CellId) -> Option<usize> {
        self.levels.get(cell.index()).copied().flatten()
    }

    /// Borrow the per-cell level table.
    #[must_use]
    pub fn levels(&self) -> CellLevels<'_> {
        CellLevels {
            levels: &self.levels,
        }
    }

    /// Cells at exactly the given level, in id order.
    #[must_use]
    pub fn cells_at_level(&self, level: usize) -> Vec<CellId> {
        self.order
            .iter()
            .copied()
            .filter(|c| self.level(*c) == Some(level))
            .collect()
    }
}

impl Netlist {
    /// A topological order and longest-path levels for the combinational
    /// cells. They are part of the cached topology (see the crate docs):
    /// the first call after an edit computes them, later ones borrow them.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the combinational part
    /// of the netlist is cyclic.
    pub fn levelize(&self) -> Result<&Levelization, NetlistError> {
        self.topology().levels.as_ref().map_err(Clone::clone)
    }

    /// Longest combinational path length in cells; convenience wrapper over
    /// [`Netlist::levelize`].
    ///
    /// # Errors
    ///
    /// Same as [`Netlist::levelize`].
    pub fn combinational_depth(&self) -> Result<usize, NetlistError> {
        Ok(self.levelize()?.depth())
    }
}

/// Kahn's algorithm over the combinational cells; `successors` gives each
/// cell's distinct combinational successors in id order.
pub(crate) fn levelize<'a>(
    netlist: &Netlist,
    successors: impl Fn(CellId) -> &'a [CellId],
) -> Result<Levelization, NetlistError> {
    let n = netlist.cell_count();
    // In-degree counts distinct combinational predecessors.
    let mut indegree = vec![0usize; n];
    for id in netlist.combinational_cells() {
        for succ in successors(id) {
            indegree[succ.index()] += 1;
        }
    }

    let mut queue: VecDeque<CellId> = netlist
        .combinational_cells()
        .filter(|c| indegree[c.index()] == 0)
        .collect();
    let mut levels: Vec<Option<usize>> = vec![None; n];
    for c in &queue {
        levels[c.index()] = Some(1);
    }
    let mut order = Vec::with_capacity(n);
    while let Some(cell) = queue.pop_front() {
        order.push(cell);
        let my_level = levels[cell.index()].unwrap_or(1);
        for &succ in successors(cell) {
            let idx = succ.index();
            let succ_level = levels[idx].unwrap_or(0).max(my_level + 1);
            levels[idx] = Some(succ_level);
            indegree[idx] -= 1;
            if indegree[idx] == 0 {
                queue.push_back(succ);
            }
        }
    }

    if order.len() != netlist.combinational_cells().count() {
        // Some combinational cell never reached in-degree 0: a loop.
        let stuck = netlist
            .combinational_cells()
            .find(|c| indegree[c.index()] > 0)
            .expect("a cell with residual in-degree must exist");
        return Err(NetlistError::CombinationalLoop { cell: stuck });
    }
    let depth = levels.iter().flatten().copied().max().unwrap_or(0);
    Ok(Levelization {
        order,
        levels,
        depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellKind;

    #[test]
    fn levels_of_small_tree() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let c = nl.add_input("c");
        let x = nl.and2(a, b, "x"); // level 1
        let y = nl.or2(x, c, "y"); // level 2
        let z = nl.inv(y, "z"); // level 3
        nl.mark_output(z);
        let lv = nl.levelize().unwrap();
        assert_eq!(lv.depth(), 3);
        let x_cell = nl.net(x).driver().unwrap().cell;
        let y_cell = nl.net(y).driver().unwrap().cell;
        let z_cell = nl.net(z).driver().unwrap().cell;
        assert_eq!(lv.level(x_cell), Some(1));
        assert_eq!(lv.level(y_cell), Some(2));
        assert_eq!(lv.level(z_cell), Some(3));
        assert_eq!(lv.cells_at_level(2), vec![y_cell]);
        assert_eq!(lv.order().len(), 3);
        assert_eq!(lv.levels().level(z_cell), Some(3));
    }

    #[test]
    fn flipflops_reset_levels() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let x = nl.inv(a, "x"); // level 1
        let q = nl.dff(x, "q"); // sequential
        let y = nl.inv(q, "y"); // level 1 again (behind the flipflop)
        nl.mark_output(y);
        let lv = nl.levelize().unwrap();
        assert_eq!(lv.depth(), 1);
        let ff = nl.dff_cells().next().unwrap();
        assert_eq!(lv.level(ff), None);
    }

    #[test]
    fn order_respects_dependencies() {
        let mut nl = Netlist::new("t");
        let a = nl.add_input("a");
        let mut prev = a;
        for i in 0..20 {
            prev = nl.inv(prev, &format!("x{i}"));
        }
        nl.mark_output(prev);
        let lv = nl.levelize().unwrap();
        assert_eq!(lv.depth(), 20);
        // Every cell appears after its predecessor in the order.
        let mut position = vec![0usize; nl.cell_count()];
        for (i, c) in lv.order().iter().enumerate() {
            position[c.index()] = i;
        }
        for &c in lv.order() {
            for p in nl.cell_fanin(c) {
                if !nl.cell(p).is_sequential() {
                    assert!(position[p.index()] < position[c.index()]);
                }
            }
        }
    }

    #[test]
    fn loop_is_reported() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        let y = nl.add_net("y");
        nl.add_cell(CellKind::And, "g1", vec![a, z], vec![y])
            .unwrap();
        nl.add_cell(CellKind::Inv, "g2", vec![y], vec![z]).unwrap();
        assert!(nl.levelize().is_err());
        assert!(nl.combinational_depth().is_err());
    }

    #[test]
    fn empty_netlist_depth_zero() {
        let nl = Netlist::new("empty");
        assert_eq!(nl.combinational_depth().unwrap(), 0);
    }
}
