//! Static fanout cones.
//!
//! A *fanout cone* of a set of seed nets is everything those nets can
//! influence within one clock cycle: the seeds themselves, every net
//! reachable from them through combinational cells, the combinational cells
//! along the way, and the flipflops whose D inputs lie inside the cone (the
//! state that can diverge at the *next* cycle).
//!
//! [`ConeIndex`] is computed **once per netlist** — a CSR adjacency of
//! net → combinational-successor nets plus the topological level of every
//! combinational cell (from [`Netlist::levelize`]) — and then answers cone
//! queries in time proportional to the cone, not the netlist, with the
//! cells of a cone in level order (front to back). No simulation path uses
//! it: an input flip is a full run of the flipped stimulus.

use crate::cell::CellId;
use crate::error::NetlistError;
use crate::net::NetId;
use crate::netlist::Netlist;

/// A once-per-netlist fanout/level index; see the module documentation.
#[derive(Debug, Clone)]
pub struct ConeIndex {
    /// CSR offsets into `comb_cells`/`comb_targets`, one slice per net.
    comb_offsets: Vec<usize>,
    /// For each (net, combinational load cell) pair: the cell.
    comb_cells: Vec<CellId>,
    /// For the same pairs: one entry per output net of that cell. A cell
    /// with two outputs (a compound adder) contributes two parallel
    /// entries.
    comb_targets: Vec<NetId>,
    /// CSR offsets into `dff_cells`/`dff_targets`, one slice per net.
    dff_offsets: Vec<usize>,
    /// Flipflop cells sampling each net.
    dff_cells: Vec<CellId>,
    /// The Q output nets of those flipflops.
    dff_targets: Vec<NetId>,
    /// Per-cell combinational level (1-based; `None` for flipflops).
    levels: Vec<Option<usize>>,
    /// Longest combinational path, in cells.
    depth: usize,
    net_count: usize,
    comb_cell_count: usize,
}

impl ConeIndex {
    /// Builds the index. The cost is one levelisation plus one pass over
    /// every pin — amortise it by building once and sharing across many
    /// cone queries (the index is immutable and `Sync`).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the netlist cannot be
    /// levelised.
    pub fn build(netlist: &Netlist) -> Result<ConeIndex, NetlistError> {
        let levelization = netlist.levelize()?;
        let n = netlist.net_count();
        let mut levels = vec![None; netlist.cell_count()];
        for id in netlist.combinational_cells() {
            levels[id.index()] = levelization.level(id);
        }

        let mut comb_offsets = Vec::with_capacity(n + 1);
        let mut comb_cells = Vec::new();
        let mut comb_targets = Vec::new();
        let mut dff_offsets = Vec::with_capacity(n + 1);
        let mut dff_cells = Vec::new();
        let mut dff_targets = Vec::new();
        for (_, net) in netlist.nets() {
            comb_offsets.push(comb_cells.len());
            dff_offsets.push(dff_cells.len());
            for load in net.loads() {
                let cell = netlist.cell(load.cell);
                if cell.is_sequential() {
                    dff_cells.push(load.cell);
                    dff_targets.push(cell.outputs()[0]);
                } else {
                    for &out in cell.outputs() {
                        comb_cells.push(load.cell);
                        comb_targets.push(out);
                    }
                }
            }
        }
        comb_offsets.push(comb_cells.len());
        dff_offsets.push(dff_cells.len());

        Ok(ConeIndex {
            comb_offsets,
            comb_cells,
            comb_targets,
            dff_offsets,
            dff_cells,
            dff_targets,
            levels,
            depth: levelization.depth(),
            net_count: n,
            comb_cell_count: netlist.combinational_cells().count(),
        })
    }

    /// Number of nets the index covers.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.net_count
    }

    /// Number of combinational cells in the indexed netlist.
    #[must_use]
    pub fn combinational_cell_count(&self) -> usize {
        self.comb_cell_count
    }

    /// Longest combinational path, in cells (the levelisation depth).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Topological level of a cell (1-based; `None` for flipflops).
    #[must_use]
    pub fn level(&self, cell: CellId) -> Option<usize> {
        self.levels.get(cell.index()).copied().flatten()
    }

    /// The combinational fanout cone of a set of seed nets.
    ///
    /// Duplicate and repeated seeds are fine; the traversal visits every
    /// net and cell at most once.
    ///
    /// # Panics
    ///
    /// Panics if a seed net is out of range for the indexed netlist.
    #[must_use]
    pub fn cone<I>(&self, seeds: I) -> FanoutCone
    where
        I: IntoIterator<Item = NetId>,
    {
        let mut net_seen = vec![false; self.net_count];
        let mut cell_seen = vec![false; self.levels.len()];
        let mut nets: Vec<NetId> = Vec::new();
        let mut cells: Vec<CellId> = Vec::new();
        let mut dffs: Vec<CellId> = Vec::new();
        let mut dff_outputs: Vec<NetId> = Vec::new();

        let mut frontier: Vec<NetId> = Vec::new();
        for seed in seeds {
            assert!(
                seed.index() < self.net_count,
                "seed net {seed} out of range for this index"
            );
            if !net_seen[seed.index()] {
                net_seen[seed.index()] = true;
                nets.push(seed);
                frontier.push(seed);
            }
        }

        while let Some(net) = frontier.pop() {
            let idx = net.index();
            let comb = self.comb_offsets[idx]..self.comb_offsets[idx + 1];
            for (cell, &target) in self.comb_cells[comb.clone()]
                .iter()
                .zip(&self.comb_targets[comb])
            {
                if !cell_seen[cell.index()] {
                    cell_seen[cell.index()] = true;
                    cells.push(*cell);
                }
                if !net_seen[target.index()] {
                    net_seen[target.index()] = true;
                    nets.push(target);
                    frontier.push(target);
                }
            }
            let seq = self.dff_offsets[idx]..self.dff_offsets[idx + 1];
            for (cell, &q) in self.dff_cells[seq.clone()]
                .iter()
                .zip(&self.dff_targets[seq])
            {
                if !cell_seen[cell.index()] {
                    cell_seen[cell.index()] = true;
                    dffs.push(*cell);
                    dff_outputs.push(q);
                }
                // Q outputs are *next-cycle* state; the combinational
                // traversal stops here. The caller re-seeds from Q when the
                // sampled state actually diverges.
            }
        }

        nets.sort_unstable();
        // Front-to-back order: cells sorted by topological level, ties by
        // id, so consumers can walk the cone in evaluation order.
        cells.sort_unstable_by_key(|c| (self.levels[c.index()].unwrap_or(0), c.index()));
        let mut seq: Vec<(CellId, NetId)> = dffs.into_iter().zip(dff_outputs).collect();
        seq.sort_unstable_by_key(|(c, _)| c.index());
        let (dffs, dff_outputs) = seq.into_iter().unzip();
        FanoutCone {
            nets,
            cells,
            dffs,
            dff_outputs,
            total_comb_cells: self.comb_cell_count,
        }
    }
}

impl Netlist {
    /// Builds the once-per-netlist [`ConeIndex`]; see the `cone` module
    /// documentation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalLoop`] if the netlist cannot be
    /// levelised.
    pub fn cone_index(&self) -> Result<ConeIndex, NetlistError> {
        ConeIndex::build(self)
    }
}

/// The result of one [`ConeIndex::cone`] query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutCone {
    nets: Vec<NetId>,
    cells: Vec<CellId>,
    dffs: Vec<CellId>,
    dff_outputs: Vec<NetId>,
    total_comb_cells: usize,
}

impl FanoutCone {
    /// Every net the seeds can influence within one cycle (the seeds
    /// themselves included), in ascending id order.
    #[must_use]
    pub fn nets(&self) -> &[NetId] {
        &self.nets
    }

    /// The combinational cells inside the cone, sorted by topological level
    /// (front of the cone first).
    #[must_use]
    pub fn cells(&self) -> &[CellId] {
        &self.cells
    }

    /// Flipflops whose D input lies inside the cone — the state that can
    /// diverge at the next cycle.
    #[must_use]
    pub fn flipflops(&self) -> &[CellId] {
        &self.dffs
    }

    /// The Q output nets of [`FanoutCone::flipflops`], in the same order.
    #[must_use]
    pub fn flipflop_outputs(&self) -> &[NetId] {
        &self.dff_outputs
    }

    /// `true` when the cone reaches at least one flipflop (re-simulation
    /// cannot stop at the cycle boundary without checking the sampled
    /// state).
    #[must_use]
    pub fn reaches_flipflop(&self) -> bool {
        !self.dffs.is_empty()
    }

    /// Fraction of the netlist's combinational cells inside the cone
    /// (0 for an empty netlist).
    #[must_use]
    pub fn cell_fraction(&self) -> f64 {
        if self.total_comb_cells == 0 {
            0.0
        } else {
            self.cells.len() as f64 / self.total_comb_cells as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// a ─inv─ x ─and─ y ─dff─ q ─inv─ z, with b feeding the and.
    fn mixed_netlist() -> (Netlist, NetId, NetId, NetId, NetId, NetId, NetId) {
        let mut nl = Netlist::new("cone");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.inv(a, "x");
        let y = nl.and2(x, b, "y");
        let q = nl.dff(y, "q");
        let z = nl.inv(q, "z");
        nl.mark_output(z);
        (nl, a, b, x, y, q, z)
    }

    #[test]
    fn cone_follows_combinational_fanout_and_stops_at_flipflops() {
        let (nl, a, _, x, y, q, z) = mixed_netlist();
        let index = nl.cone_index().unwrap();
        let cone = index.cone([a]);
        assert_eq!(cone.nets(), [a, x, y]);
        assert_eq!(cone.cells().len(), 2, "inv + and");
        assert!(cone.reaches_flipflop());
        assert_eq!(cone.flipflop_outputs(), [q]);
        assert!(!cone.nets().contains(&q), "Q is next-cycle state");
        assert!(!cone.nets().contains(&z));
        // Re-seeding from the Q output covers the downstream logic.
        let next = index.cone([q]);
        assert_eq!(next.nets(), [q, z]);
        assert!(!next.reaches_flipflop());
        assert_eq!(next.cells().len(), 1);
    }

    #[test]
    fn cone_cells_come_back_in_level_order() {
        let mut nl = Netlist::new("levels");
        let a = nl.add_input("a");
        let mut cur = a;
        for i in 0..6 {
            cur = nl.inv(cur, &format!("x{i}"));
        }
        nl.mark_output(cur);
        let index = nl.cone_index().unwrap();
        assert_eq!(index.depth(), 6);
        let cone = index.cone([a]);
        assert_eq!(cone.cells().len(), 6);
        let levels: Vec<usize> = cone
            .cells()
            .iter()
            .map(|&c| index.level(c).unwrap())
            .collect();
        assert_eq!(levels, [1, 2, 3, 4, 5, 6]);
        assert!((cone.cell_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn duplicate_and_multiple_seeds_union() {
        let (nl, a, b, x, y, _, _) = mixed_netlist();
        let index = nl.cone_index().unwrap();
        let once = index.cone([a, b]);
        let twice = index.cone([a, a, b, a]);
        assert_eq!(once, twice);
        assert_eq!(once.nets(), [a, b, x, y]);
        // b only feeds the AND gate: a strictly smaller cone.
        let b_only = index.cone([b]);
        assert_eq!(b_only.nets(), [b, y]);
        assert_eq!(b_only.cells().len(), 1);
        assert!(b_only.cell_fraction() < once.cell_fraction());
    }

    #[test]
    fn empty_seed_set_is_an_empty_cone() {
        let (nl, ..) = mixed_netlist();
        let index = nl.cone_index().unwrap();
        let cone = index.cone([]);
        assert!(cone.nets().is_empty());
        assert!(cone.cells().is_empty());
        assert!(!cone.reaches_flipflop());
        assert_eq!(cone.cell_fraction(), 0.0);
        assert_eq!(index.net_count(), nl.net_count());
        assert_eq!(index.combinational_cell_count(), 3);
    }

    #[test]
    fn loops_are_rejected_at_build_time() {
        let mut nl = Netlist::new("loop");
        let a = nl.add_input("a");
        let z = nl.add_net("z");
        let y = nl.add_net("y");
        nl.add_cell(crate::cell::CellKind::And, "g1", vec![a, z], vec![y])
            .unwrap();
        nl.add_cell(crate::cell::CellKind::Inv, "g2", vec![y], vec![z])
            .unwrap();
        assert!(ConeIndex::build(&nl).is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_seed_panics() {
        let (nl, ..) = mixed_netlist();
        let index = nl.cone_index().unwrap();
        let _ = index.cone([NetId::from_index(999)]);
    }
}
