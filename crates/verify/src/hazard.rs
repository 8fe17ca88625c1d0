//! Hazard classification: static-0, static-1 and dynamic hazards per net
//! per cycle, read off the transition stream.
//!
//! The taxonomy is the classic one:
//!
//! * **static-1 hazard** — the net starts and ends the cycle at `1` but
//!   dips through `0` in between (`1 → 0 → 1`: two or more transitions,
//!   equal endpoints);
//! * **static-0 hazard** — dual (`0 → 1 → 0`);
//! * **dynamic hazard** — the net changes level but takes extra round
//!   trips doing it (`0 → 1 → 0 → 1`: three or more transitions, unequal
//!   endpoints).
//!
//! Hazards are glitches seen from the settling perspective — every static
//! hazard is a complete glitch in the paper's counting, and a dynamic
//! hazard contains one. The checker is informational (its verdict is
//! always pass): the numbers feed the same reduction arguments as the
//! activity report, but located per net per cycle rather than as run
//! totals. Cycle-0 initialisation out of `X` is excluded — a hazard needs
//! a known starting level.

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{CycleStats, MergeableProbe, Probe, TimedRun, Transition, Value};

use crate::checker::{downcast_checker, CheckOutcome, Checker, Verdict};

/// Counts static and dynamic hazards per net per cycle; see the module
/// docs.
#[derive(Debug, Clone, Default)]
pub struct HazardChecker {
    /// Rolling current value of every net.
    values: Vec<Value>,
    /// Value the net held when its first switching transition of the
    /// cycle fired (generation-stamped).
    start: Vec<Value>,
    /// Switching transitions of the net this cycle.
    count: Vec<u32>,
    stamp: Vec<u64>,
    touched: Vec<NetId>,
    current_cycle: u64,
    static0: u64,
    static1: u64,
    dynamic: u64,
    /// Cycles with at least one hazard.
    hazard_cycles: u64,
    /// Hazards per net, for the worst-net summary.
    per_net: Vec<u64>,
    cycles: u64,
}

impl HazardChecker {
    /// Creates a hazard checker; sizing happens at run start.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Static-0, static-1 and dynamic hazard totals.
    #[must_use]
    pub fn totals(&self) -> (u64, u64, u64) {
        (self.static0, self.static1, self.dynamic)
    }

    /// Per-net hazard counts, index-aligned with the netlist's nets — the
    /// locations the reduction loop ranks candidate nets by.
    #[must_use]
    pub fn per_net(&self) -> &[u64] {
        &self.per_net
    }

    /// Hazards recorded on one net.
    #[must_use]
    pub fn hazards_on(&self, net: NetId) -> u64 {
        self.per_net.get(net.index()).copied().unwrap_or(0)
    }
}

impl Probe for HazardChecker {
    fn on_run_start(&mut self, netlist: &Netlist) {
        let n = netlist.net_count();
        self.values = vec![Value::X; n];
        self.start = vec![Value::X; n];
        self.count = vec![0; n];
        self.stamp = vec![0; n];
        self.per_net = vec![0; n];
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        self.current_cycle = cycle;
        self.touched.clear();
    }

    fn on_transition(&mut self, transition: &Transition) {
        let idx = transition.net.index();
        let old = self.values[idx];
        self.values[idx] = transition.value;
        if !transition.kind.is_switching() {
            return;
        }
        if self.stamp[idx] != self.current_cycle + 1 {
            self.stamp[idx] = self.current_cycle + 1;
            self.start[idx] = old;
            self.count[idx] = 0;
            self.touched.push(transition.net);
        }
        self.count[idx] += 1;
    }

    fn on_cycle_end(&mut self, _cycle: u64, _stats: &CycleStats) {
        let mut any = false;
        for &net in &self.touched {
            let idx = net.index();
            let (start, end, count) = (self.start[idx], self.values[idx], self.count[idx]);
            // Switching transitions have known endpoints by definition, but
            // the pre-cycle level can still be X (first assignment).
            if !start.is_known() {
                continue;
            }
            let hazard = if start == end && count >= 2 {
                match start {
                    Value::One => {
                        self.static1 += 1;
                        true
                    }
                    Value::Zero => {
                        self.static0 += 1;
                        true
                    }
                    Value::X => unreachable!("known start checked above"),
                }
            } else if start != end && count >= 3 {
                self.dynamic += 1;
                true
            } else {
                false
            };
            if hazard {
                self.per_net[idx] += 1;
                any = true;
            }
        }
        if any {
            self.hazard_cycles += 1;
        }
        self.touched.clear();
        self.cycles += 1;
    }

    fn settles_timed(&self) -> bool {
        true
    }

    fn record_timed(&mut self, run: &TimedRun<'_>) {
        let tally = run.tally;
        self.static0 += tally.static0;
        self.static1 += tally.static1;
        self.dynamic += tally.dynamic;
        self.hazard_cycles += tally.hazard_cycles;
        self.cycles += run.cycles;
        for (mine, &theirs) in self.per_net.iter_mut().zip(&tally.hazards) {
            *mine += theirs;
        }
    }
}

impl MergeableProbe for HazardChecker {
    fn merge(&mut self, other: HazardChecker) {
        if other.values.is_empty() {
            return;
        }
        if self.values.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(
            self.values.len(),
            other.values.len(),
            "cannot merge hazard checkers of different netlists"
        );
        self.static0 += other.static0;
        self.static1 += other.static1;
        self.dynamic += other.dynamic;
        self.hazard_cycles += other.hazard_cycles;
        self.cycles += other.cycles;
        for (mine, theirs) in self.per_net.iter_mut().zip(&other.per_net) {
            *mine += theirs;
        }
    }
}

impl Checker for HazardChecker {
    fn name(&self) -> &'static str {
        "hazard"
    }

    fn outcome(&self, netlist: &Netlist) -> CheckOutcome {
        let total = self.static0 + self.static1 + self.dynamic;
        let worst = self
            .per_net
            .iter()
            .enumerate()
            .max_by_key(|&(_, &h)| h)
            .filter(|&(_, &h)| h > 0);
        let summary = match worst {
            None => "no hazards observed".to_string(),
            Some((idx, &h)) => format!(
                "{total} hazards in {} of {} cycles ({} static-0, {} static-1, \
                 {} dynamic); worst net `{}` with {h}",
                self.hazard_cycles,
                self.cycles,
                self.static0,
                self.static1,
                self.dynamic,
                netlist.net(NetId::from_index(idx)).name(),
            ),
        };
        CheckOutcome {
            checker: self.name().to_string(),
            // Classification is informational: hazards are reduction
            // targets, not correctness violations.
            verdict: Verdict::Pass,
            violations: Vec::new(),
            total_violations: 0,
            metrics: vec![
                ("cycles".to_string(), self.cycles),
                ("static0".to_string(), self.static0),
                ("static1".to_string(), self.static1),
                ("dynamic".to_string(), self.dynamic),
                ("hazard_cycles".to_string(), self.hazard_cycles),
            ],
            summary,
        }
    }

    fn merge_boxed(&mut self, other: Box<dyn Checker>) {
        self.merge(downcast_checker(other));
    }
}
