//! Whole-circuit transition accumulation across clock cycles.

use crate::node::NodeActivity;
use crate::report::ActivityTotals;

/// Transition statistics for every monitored node of a circuit, accumulated
/// cycle by cycle.
///
/// The trace stores running totals rather than per-cycle histories, so its
/// memory footprint is `O(nodes)` regardless of how many cycles are
/// simulated (the paper's Figure 5 experiment runs 4000 cycles over a few
/// hundred nodes).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ActivityTrace {
    nodes: Vec<NodeActivity>,
    cycles: u64,
}

impl ActivityTrace {
    /// Creates a trace for `node_count` monitored nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        ActivityTrace {
            nodes: vec![NodeActivity::new(); node_count],
            cycles: 0,
        }
    }

    /// Number of monitored nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of cycles recorded so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Records one clock cycle given the per-node transition counts.
    ///
    /// # Panics
    ///
    /// Panics if `counts.len()` differs from the node count the trace was
    /// created with.
    pub fn record_cycle(&mut self, counts: &[u32]) {
        assert_eq!(
            counts.len(),
            self.nodes.len(),
            "cycle record has {} counts but the trace monitors {} nodes",
            counts.len(),
            self.nodes.len()
        );
        for (node, &count) in self.nodes.iter_mut().zip(counts) {
            node.record_cycle(u64::from(count));
        }
        self.cycles += 1;
    }

    /// Records `cycles` clock cycles at once from per-node totals — the
    /// bulk form of [`ActivityTrace::record_cycle`] for producers that
    /// classify each cycle themselves (see [`NodeActivity::record_totals`]).
    ///
    /// # Panics
    ///
    /// Panics if either slice's length differs from the node count.
    pub fn record_totals(&mut self, cycles: u64, transitions: &[u64], useful: &[u64]) {
        assert!(
            transitions.len() == self.nodes.len() && useful.len() == self.nodes.len(),
            "totals do not cover the trace's {} nodes",
            self.nodes.len()
        );
        for ((node, &t), &u) in self.nodes.iter_mut().zip(transitions).zip(useful) {
            node.record_totals(cycles, t, u);
        }
        self.cycles += cycles;
    }

    /// Per-node statistics.
    #[must_use]
    pub fn node(&self, index: usize) -> &NodeActivity {
        &self.nodes[index]
    }

    /// Iterates over `(node index, statistics)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &NodeActivity)> {
        self.nodes.iter().enumerate()
    }

    /// Totals over every monitored node.
    #[must_use]
    pub fn totals(&self) -> ActivityTotals {
        self.totals_for(0..self.nodes.len())
    }

    /// Totals over a subset of nodes (e.g. excluding primary inputs, or only
    /// the sum bits of an adder).
    ///
    /// Node indices outside the trace are ignored.
    #[must_use]
    pub fn totals_for<I>(&self, nodes: I) -> ActivityTotals
    where
        I: IntoIterator<Item = usize>,
    {
        let mut totals = ActivityTotals::default();
        for index in nodes {
            if let Some(node) = self.nodes.get(index) {
                totals.transitions += node.transitions();
                totals.useful += node.useful();
                totals.useless += node.useless();
            }
        }
        totals.cycles = self.cycles;
        totals
    }

    /// Merges another trace recorded over the same node set (e.g. partial
    /// traces produced by chunked simulation).
    ///
    /// # Panics
    ///
    /// Panics if the node counts differ.
    pub fn merge(&mut self, other: &ActivityTrace) {
        assert_eq!(
            self.nodes.len(),
            other.nodes.len(),
            "cannot merge traces of different widths"
        );
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.merge(theirs);
        }
        self.cycles += other.cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn totals_aggregate_across_nodes_and_cycles() {
        let mut trace = ActivityTrace::new(3);
        trace.record_cycle(&[1, 2, 0]);
        trace.record_cycle(&[3, 0, 1]);
        let totals = trace.totals();
        assert_eq!(totals.transitions, 7);
        assert_eq!(totals.useful, 3);
        assert_eq!(totals.useless, 4);
        assert_eq!(totals.cycles, 2);
        assert_eq!(trace.cycles(), 2);
        assert_eq!(trace.node(0).transitions(), 4);
    }

    #[test]
    fn subset_totals() {
        let mut trace = ActivityTrace::new(4);
        trace.record_cycle(&[1, 1, 1, 1]);
        trace.record_cycle(&[2, 2, 2, 2]);
        let subset = trace.totals_for([1, 3]);
        assert_eq!(subset.transitions, 6);
        assert_eq!(subset.useful, 2);
        assert_eq!(subset.useless, 4);
        // Out-of-range indices are ignored.
        let same = trace.totals_for([1, 3, 99]);
        assert_eq!(same, subset);
    }

    #[test]
    #[should_panic(expected = "monitors")]
    fn wrong_width_cycle_panics() {
        let mut trace = ActivityTrace::new(2);
        trace.record_cycle(&[1, 2, 3]);
    }

    #[test]
    fn merge_combines_cycles() {
        let mut a = ActivityTrace::new(2);
        a.record_cycle(&[1, 0]);
        let mut b = ActivityTrace::new(2);
        b.record_cycle(&[2, 2]);
        b.record_cycle(&[1, 1]);
        a.merge(&b);
        assert_eq!(a.cycles(), 3);
        assert_eq!(a.totals().transitions, 7);
    }

    /// Builds a 5-node trace from a list of per-cycle count rows.
    fn trace_from_rows(rows: &[Vec<u32>]) -> ActivityTrace {
        let mut trace = ActivityTrace::new(5);
        for row in rows {
            trace.record_cycle(row);
        }
        trace
    }

    fn merged(mut left: ActivityTrace, right: &ActivityTrace) -> ActivityTrace {
        left.merge(right);
        left
    }

    proptest! {
        /// `merge` is associative and commutative on random traces — the
        /// property that makes the parallel shard fold independent of how
        /// the reduction tree is shaped.
        #[test]
        fn merge_is_associative_and_commutative(
            a_rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 5), 0..30),
            b_rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 5), 0..30),
            c_rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 5), 0..30),
        ) {
            let (a, b, c) = (trace_from_rows(&a_rows), trace_from_rows(&b_rows), trace_from_rows(&c_rows));
            // Associativity: (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c).
            let left = merged(merged(a.clone(), &b), &c);
            let right = merged(a.clone(), &merged(b.clone(), &c));
            prop_assert_eq!(&left, &right);
            // Commutativity: a ⊕ b == b ⊕ a.
            prop_assert_eq!(merged(a.clone(), &b), merged(b.clone(), &a));
            // Identity: merging an empty trace changes nothing.
            prop_assert_eq!(merged(a.clone(), &ActivityTrace::new(5)), a);
        }

        #[test]
        fn totals_equal_sum_of_nodes(
            rows in proptest::collection::vec(proptest::collection::vec(0u32..8, 5), 1..50)
        ) {
            let mut trace = ActivityTrace::new(5);
            for row in &rows {
                trace.record_cycle(row);
            }
            let totals = trace.totals();
            let by_nodes: u64 = (0..5).map(|i| trace.node(i).transitions()).sum();
            prop_assert_eq!(totals.transitions, by_nodes);
            prop_assert_eq!(totals.transitions, totals.useful + totals.useless);
        }
    }
}
