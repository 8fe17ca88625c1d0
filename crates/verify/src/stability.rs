//! Stability assertions: a net must not switch in cycles matching a
//! predicate.
//!
//! The shape covers enable-gated regions ("this bus is quiet unless the
//! enable fired"), handshake phases, and the paper's held-input mode
//! analysis (an input held constant must keep its downstream cone quiet
//! once settled). Violations are located per transition.

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{MergeableProbe, Probe, Transition};

use crate::checker::{
    downcast_checker, merge_capped, push_capped, CheckOutcome, Checker, Verdict, Violation,
};

/// Which cycles a [`StabilityChecker`] watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CycleFilter {
    /// Every cycle.
    #[default]
    All,
    /// Cycles in `from..=to` (inclusive on both ends).
    Range {
        /// First watched cycle.
        from: u64,
        /// Last watched cycle.
        to: u64,
    },
}

impl CycleFilter {
    /// Whether `cycle` is watched.
    #[must_use]
    pub fn matches(self, cycle: u64) -> bool {
        match self {
            CycleFilter::All => true,
            CycleFilter::Range { from, to } => (from..=to).contains(&cycle),
        }
    }
}

impl std::fmt::Display for CycleFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CycleFilter::All => f.write_str("all cycles"),
            CycleFilter::Range { from, to } => write!(f, "cycles {from}..={to}"),
        }
    }
}

/// Asserts that one net never switches in the watched cycles.
///
/// Changes into or out of `X` are initialisation, not switching, and are
/// not flagged.
#[derive(Debug, Clone)]
pub struct StabilityChecker {
    net: NetId,
    filter: CycleFilter,
    violations: Vec<Violation>,
    total: u64,
    watched_cycles: u64,
    current_watched: bool,
}

impl StabilityChecker {
    /// Creates a stability assertion on `net` over the watched cycles.
    #[must_use]
    pub fn new(net: NetId, filter: CycleFilter) -> Self {
        StabilityChecker {
            net,
            filter,
            violations: Vec::new(),
            total: 0,
            watched_cycles: 0,
            current_watched: false,
        }
    }

    /// The asserted net.
    #[must_use]
    pub fn net(&self) -> NetId {
        self.net
    }
}

impl Probe for StabilityChecker {
    fn on_cycle_start(&mut self, cycle: u64) {
        self.current_watched = self.filter.matches(cycle);
        if self.current_watched {
            self.watched_cycles += 1;
        }
    }

    fn on_transition(&mut self, transition: &Transition) {
        if transition.net != self.net {
            return;
        }
        if self.current_watched && transition.kind.is_switching() {
            self.total += 1;
            push_capped(
                &mut self.violations,
                Violation {
                    net: self.net,
                    cycle: transition.cycle,
                    time: transition.time,
                    budget: 0,
                },
            );
        }
    }
}

impl MergeableProbe for StabilityChecker {
    fn merge(&mut self, other: StabilityChecker) {
        assert!(
            self.net == other.net && self.filter == other.filter,
            "cannot merge stability checkers watching different assertions"
        );
        merge_capped(&mut self.violations, other.violations);
        self.total += other.total;
        self.watched_cycles += other.watched_cycles;
    }
}

impl Checker for StabilityChecker {
    fn name(&self) -> &'static str {
        "stability"
    }

    fn outcome(&self, netlist: &Netlist) -> CheckOutcome {
        let name = netlist.net(self.net).name();
        let verdict = if self.total == 0 {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        let summary = if self.total == 0 {
            format!(
                "`{name}` stable over {} watched cycles ({})",
                self.watched_cycles, self.filter
            )
        } else {
            let first = self.violations.first().expect("total > 0 retains one");
            format!(
                "`{name}` switched {} times in watched cycles ({}); first at \
                 t={} in cycle {}",
                self.total, self.filter, first.time, first.cycle
            )
        };
        CheckOutcome {
            checker: self.name().to_string(),
            verdict,
            violations: self.violations.clone(),
            total_violations: self.total,
            metrics: vec![
                ("watched_cycles".to_string(), self.watched_cycles),
                ("switches".to_string(), self.total),
            ],
            summary,
        }
    }

    fn merge_boxed(&mut self, other: Box<dyn Checker>) {
        self.merge(downcast_checker(other));
    }
}
