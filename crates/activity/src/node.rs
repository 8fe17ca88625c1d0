//! Per-node accumulation of transition statistics across many cycles.

use crate::classify::split_by_parity;

/// Running transition statistics of one circuit node (net).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NodeActivity {
    transitions: u64,
    useful: u64,
    useless: u64,
    cycles: u64,
}

impl NodeActivity {
    /// A node that has not been observed yet.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `cycles` clock cycles at once from their totals: `transitions`
    /// over all of them, `useful` of which passed the parity rule — what
    /// `cycles` calls of [`NodeActivity::record_cycle`] would accumulate.
    ///
    /// # Panics
    ///
    /// Panics if `useful` exceeds `transitions`.
    pub fn record_totals(&mut self, cycles: u64, transitions: u64, useful: u64) {
        assert!(useful <= transitions, "more useful than total transitions");
        self.transitions += transitions;
        self.useful += useful;
        self.useless += transitions - useful;
        self.cycles += cycles;
    }

    /// Records one clock cycle in which the node made `count` transitions.
    pub fn record_cycle(&mut self, count: u64) {
        let split = split_by_parity(count);
        self.transitions += count;
        self.useful += split.useful;
        self.useless += split.useless;
        self.cycles += 1;
    }

    /// Merges another node's statistics into this one (used when grouping
    /// nodes, e.g. all carry bits of an adder).
    pub fn merge(&mut self, other: &NodeActivity) {
        self.transitions += other.transitions;
        self.useful += other.useful;
        self.useless += other.useless;
        self.cycles += other.cycles;
    }

    /// Total transitions observed.
    #[must_use]
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Total useful transitions observed.
    #[must_use]
    pub fn useful(&self) -> u64 {
        self.useful
    }

    /// Total useless transitions observed.
    #[must_use]
    pub fn useless(&self) -> u64 {
        self.useless
    }

    /// Total complete glitches observed (useless transitions / 2).
    #[must_use]
    pub fn glitches(&self) -> u64 {
        self.useless / 2
    }

    /// Number of cycles recorded.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Average transitions per cycle — the paper's transition ratio `TR`.
    /// Returns 0 when no cycles have been recorded.
    #[must_use]
    pub fn transition_ratio(&self) -> f64 {
        ratio(self.transitions, self.cycles)
    }

    /// Average useful transitions per cycle — the paper's `UFTR`.
    #[must_use]
    pub fn useful_ratio(&self) -> f64 {
        ratio(self.useful, self.cycles)
    }

    /// Average useless transitions per cycle — the paper's `ULTR`.
    #[must_use]
    pub fn useless_ratio(&self) -> f64 {
        ratio(self.useless, self.cycles)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ratios_over_cycles() {
        let mut node = NodeActivity::new();
        node.record_cycle(1);
        node.record_cycle(3);
        node.record_cycle(0);
        node.record_cycle(2);
        assert_eq!(node.transitions(), 6);
        assert_eq!(node.useful(), 2);
        assert_eq!(node.useless(), 4);
        assert_eq!(node.glitches(), 2);
        assert_eq!(node.cycles(), 4);
        assert!((node.transition_ratio() - 1.5).abs() < 1e-12);
        assert!((node.useful_ratio() - 0.5).abs() < 1e-12);
        assert!((node.useless_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_node_has_zero_ratios() {
        let node = NodeActivity::new();
        assert_eq!(node.transition_ratio(), 0.0);
        assert_eq!(node.useful_ratio(), 0.0);
        assert_eq!(node.useless_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = NodeActivity::new();
        a.record_cycle(3);
        let mut b = NodeActivity::new();
        b.record_cycle(2);
        b.record_cycle(1);
        a.merge(&b);
        assert_eq!(a.transitions(), 6);
        assert_eq!(a.useful(), 2);
        assert_eq!(a.useless(), 4);
        assert_eq!(a.cycles(), 3);
    }

    proptest! {
        #[test]
        fn invariants_hold_for_random_histories(counts in proptest::collection::vec(0u64..16, 0..200)) {
            let mut node = NodeActivity::new();
            for &c in &counts {
                node.record_cycle(c);
            }
            prop_assert_eq!(node.transitions(), node.useful() + node.useless());
            prop_assert!(node.useful() <= node.cycles());
            prop_assert_eq!(node.cycles(), counts.len() as u64);
            let expected: u64 = counts.iter().sum();
            prop_assert_eq!(node.transitions(), expected);
        }
    }
}
