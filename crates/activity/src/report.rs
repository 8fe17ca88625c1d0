//! Aggregate activity figures and human-readable reports.

use std::fmt::{self, Write as _};

use glitch_netlist::{NetId, Netlist};

use crate::node::NodeActivity;
use crate::trace::ActivityTrace;

/// Aggregated transition totals over a set of nodes and cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ActivityTotals {
    /// Total transitions.
    pub transitions: u64,
    /// Total useful transitions (`F` in the paper).
    pub useful: u64,
    /// Total useless transitions (`L` in the paper).
    pub useless: u64,
    /// Number of clock cycles the totals cover.
    pub cycles: u64,
}

impl ActivityTotals {
    /// The paper's `L/F` ratio of useless to useful transitions.
    /// Returns infinity when there are useless transitions but no useful
    /// ones, and 0 when there is no activity at all.
    #[must_use]
    pub fn useless_to_useful(&self) -> f64 {
        if self.useful == 0 {
            if self.useless == 0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.useless as f64 / self.useful as f64
        }
    }

    /// The factor `1 + L/F` by which combinational transition activity could
    /// be reduced if all delay paths were perfectly balanced (section 4.2 of
    /// the paper).
    #[must_use]
    pub fn balance_reduction_factor(&self) -> f64 {
        1.0 + self.useless_to_useful()
    }

    /// Number of complete glitches.
    #[must_use]
    pub fn glitches(&self) -> u64 {
        self.useless / 2
    }

    /// Average transitions per cycle over the whole node set.
    #[must_use]
    pub fn transitions_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.transitions as f64 / self.cycles as f64
        }
    }
}

impl fmt::Display for ActivityTotals {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "total {} (useful {} / useless {}), L/F = {:.2}",
            self.transitions,
            self.useful,
            self.useless,
            self.useless_to_useful()
        )
    }
}

/// A per-node activity report: a view of a trace whose node indices are a
/// netlist's net indices (which is how `glitch-sim` records traces), over
/// its [`ActivityReport::logic_nodes`]. It owns no rows; names are read
/// from the netlist when the report is rendered.
#[derive(Debug, Clone, Copy)]
pub struct ActivityReport<'a> {
    netlist: &'a Netlist,
    trace: &'a ActivityTrace,
}

impl<'a> ActivityReport<'a> {
    /// The nodes an [`ActivityReport`] covers, in net order: the
    /// *combinational logic* nets, which is what the paper's
    /// transition-activity figures describe. Primary-input nets are
    /// excluded because their transitions are imposed by the stimulus, and
    /// flipflop-output nets because they switch at most once per cycle and
    /// their dissipation is accounted by the per-flipflop power figure.
    /// [`ActivityTrace::totals_for`] over these equals
    /// [`ActivityReport::totals`].
    #[must_use]
    pub fn logic_nodes(netlist: &Netlist) -> Vec<usize> {
        let mut ff_output = vec![false; netlist.net_count()];
        for (_, cell) in netlist.cells() {
            if cell.is_sequential() {
                for &out in cell.outputs() {
                    ff_output[out.index()] = true;
                }
            }
        }
        netlist
            .nets()
            .filter(|(id, net)| !net.is_primary_input() && !ff_output[id.index()])
            .map(|(id, _)| id.index())
            .collect()
    }

    /// The report of `trace` over `netlist`'s logic nodes.
    #[must_use]
    pub fn new(netlist: &'a Netlist, trace: &'a ActivityTrace) -> Self {
        ActivityReport { netlist, trace }
    }

    /// The reported nodes: the logic nodes the trace covers.
    fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        Self::logic_nodes(self.netlist)
            .into_iter()
            .filter(|&index| index < self.trace.node_count())
    }

    /// The reported nodes' names and activity, in net order.
    fn rows(&self) -> impl Iterator<Item = (&'a str, &'a NodeActivity)> + '_ {
        let (netlist, trace) = (self.netlist, self.trace);
        self.nodes().map(move |index| {
            (
                netlist.net(NetId::from_index(index)).name(),
                trace.node(index),
            )
        })
    }

    /// Aggregated totals over every reported node.
    #[must_use]
    pub fn totals(&self) -> ActivityTotals {
        self.trace.totals_for(self.nodes())
    }

    /// The `n` nodes with the most useless transitions — the glitch hot
    /// spots a designer would attack first.
    #[must_use]
    pub fn worst_nodes(&self, n: usize) -> Vec<(&'a str, u64)> {
        let mut indexed: Vec<(&str, u64)> = self
            .rows()
            .map(|(name, node)| (name, node.useless()))
            .collect();
        indexed.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(b.0)));
        indexed.truncate(n);
        indexed
    }

    /// Totals restricted to the reported nodes among `nets`.
    #[must_use]
    pub fn totals_for_nets(&self, nets: &[NetId]) -> ActivityTotals {
        let nodes: Vec<usize> = self.nodes().collect();
        self.trace.totals_for(
            nets.iter()
                .map(|net| net.index())
                .filter(|index| nodes.binary_search(index).is_ok()),
        )
    }

    /// Renders the report as comma-separated values (`node,transitions,useful,useless`).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from("node,transitions,useful,useless\n");
        for (name, node) in self.rows() {
            let _ = writeln!(
                out,
                "{name},{},{},{}",
                node.transitions(),
                node.useful(),
                node.useless()
            );
        }
        out
    }
}

impl fmt::Display for ActivityReport<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let totals = self.totals();
        writeln!(
            f,
            "transition activity for `{}` over {} cycles",
            self.netlist.name(),
            totals.cycles
        )?;
        writeln!(f, "  {totals}")?;
        writeln!(f, "  nodes monitored: {}", self.nodes().count())?;
        writeln!(f, "  worst glitching nodes:")?;
        for (name, useless) in self.worst_nodes(5) {
            writeln!(f, "    {name:<24} useless {useless}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_netlist_and_trace() -> (Netlist, ActivityTrace) {
        let mut nl = Netlist::new("tiny");
        let a = nl.add_input("a");
        let b = nl.add_input("b");
        let x = nl.and2(a, b, "x");
        let y = nl.xor2(x, b, "y");
        nl.mark_output(y);
        let mut trace = ActivityTrace::new(nl.net_count());
        // a, b, x, y transition counts over two cycles.
        trace.record_cycle(&[1, 1, 2, 3]);
        trace.record_cycle(&[0, 1, 0, 1]);
        (nl, trace)
    }

    #[test]
    fn report_excludes_primary_inputs() {
        let (nl, trace) = tiny_netlist_and_trace();
        let report = ActivityReport::new(&nl, &trace);
        assert_eq!(ActivityReport::logic_nodes(&nl), vec![2, 3]);
        let totals = report.totals();
        // Only x and y are counted: x = 2 (all useless), y = 3 + 1 (two
        // useful, two useless).
        assert_eq!(totals.transitions, 6);
        assert_eq!(totals.useful, 2);
        assert_eq!(totals.useless, 4);
        assert!(report.to_string().contains("nodes monitored: 2\n"));
    }

    #[test]
    fn lf_ratio_and_balance_factor() {
        let totals = ActivityTotals {
            transitions: 10,
            useful: 4,
            useless: 6,
            cycles: 2,
        };
        assert!((totals.useless_to_useful() - 1.5).abs() < 1e-12);
        assert!((totals.balance_reduction_factor() - 2.5).abs() < 1e-12);
        assert_eq!(totals.glitches(), 3);
        assert!((totals.transitions_per_cycle() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_lf_ratios() {
        let silent = ActivityTotals::default();
        assert_eq!(silent.useless_to_useful(), 0.0);
        let only_glitches = ActivityTotals {
            transitions: 4,
            useful: 0,
            useless: 4,
            cycles: 1,
        };
        assert!(only_glitches.useless_to_useful().is_infinite());
    }

    #[test]
    fn worst_nodes_sorted_by_useless() {
        let (nl, trace) = tiny_netlist_and_trace();
        let report = ActivityReport::new(&nl, &trace);
        let worst = report.worst_nodes(2);
        assert_eq!(worst.len(), 2);
        // x and y both have two useless transitions; ties break by name.
        assert_eq!(worst[0], ("x", 2));
        assert_eq!(worst[1], ("y", 2));
    }

    #[test]
    fn csv_and_display_render() {
        let (nl, trace) = tiny_netlist_and_trace();
        let report = ActivityReport::new(&nl, &trace);
        let csv = report.to_csv();
        assert!(csv.starts_with("node,transitions"));
        assert!(csv.contains("y,4,"));
        let text = report.to_string();
        assert!(text.contains("tiny"));
        assert!(text.contains("L/F"));
    }

    #[test]
    fn totals_for_named_nets() {
        let (nl, trace) = tiny_netlist_and_trace();
        let report = ActivityReport::new(&nl, &trace);
        let y = nl.find_net("y").unwrap();
        let a = nl.find_net("a").unwrap();
        let totals = report.totals_for_nets(&[y, a]);
        assert_eq!(totals.transitions, 4, "the input `a` is not reported");
    }
}
