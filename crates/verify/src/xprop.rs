//! X-propagation checking: which nets and outputs ever see `X`, when, and
//! how long until the unknown region clears.
//!
//! Run under the x-init preset ([`glitch_sim::SimOptions::x_init`]) this
//! simulates uninitialised-state reachability: flipflops without a
//! netlist-specified reset value power on as `X`, the three-valued tables
//! propagate exactly the unknowns that controlling values cannot mask, and
//! this checker records where they reach. A primary output that ends any
//! cycle unknown is a violation — downstream logic could latch garbage —
//! while internal `X` that clears records the *X-clearing depth*: how many
//! cycles of stimulus it takes to drive the circuit into a fully known
//! state.

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{CycleStats, MergeableProbe, Probe, TimedRun, Transition, Value};

use crate::checker::{downcast_checker, push_capped, CheckOutcome, Checker, Verdict, Violation};

/// Sentinel for "never".
const NEVER: u64 = u64::MAX;

/// Records per-net `X` occupancy at cycle ends; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct XPropagationChecker {
    /// Cycle ends observed.
    cycles: u64,
    /// Current value of every net (rolling, updated from transitions).
    values: Vec<Value>,
    /// Number of nets currently `X` (all nets start `X`).
    x_now: usize,
    /// First cycle whose end the net spent `X`, or [`NEVER`].
    first_x: Vec<u64>,
    /// Last cycle whose end the net spent `X`, or [`NEVER`].
    last_x: Vec<u64>,
    /// Number of cycle ends the net spent `X`.
    x_cycle_ends: Vec<u64>,
    /// Whether the net was `X` at the end of the final observed cycle.
    stuck: Vec<bool>,
    /// First cycle at whose end *no* net was `X`, if any.
    clear_cycle: Option<u64>,
    /// The primary outputs, captured at run start.
    outputs: Vec<NetId>,
}

impl XPropagationChecker {
    /// Creates an X-propagation checker; sizing happens at run start.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// First cycle at whose end no net was `X`, or `None` if the unknown
    /// region never fully cleared — the X-clearing depth of the run.
    #[must_use]
    pub fn clear_cycle(&self) -> Option<u64> {
        self.clear_cycle
    }

    /// Nets that were `X` at the end of at least one cycle.
    pub fn nets_ever_x(&self) -> impl Iterator<Item = NetId> + '_ {
        self.first_x
            .iter()
            .enumerate()
            .filter(|(_, &first)| first != NEVER)
            .map(|(i, _)| NetId::from_index(i))
    }

    /// First cycle the net ended `X`, if it ever did.
    #[must_use]
    pub fn first_x_cycle(&self, net: NetId) -> Option<u64> {
        match self.first_x.get(net.index()) {
            Some(&c) if c != NEVER => Some(c),
            _ => None,
        }
    }
}

impl Probe for XPropagationChecker {
    fn on_run_start(&mut self, netlist: &Netlist) {
        let n = netlist.net_count();
        self.values = vec![Value::X; n];
        self.x_now = n;
        self.first_x = vec![NEVER; n];
        self.last_x = vec![NEVER; n];
        self.x_cycle_ends = vec![0; n];
        self.stuck = vec![false; n];
        self.clear_cycle = None;
        self.cycles = 0;
        self.outputs = netlist.outputs().to_vec();
    }

    fn on_transition(&mut self, transition: &Transition) {
        let idx = transition.net.index();
        let old = self.values[idx];
        if old == transition.value {
            return;
        }
        match (old, transition.value) {
            (Value::X, _) => self.x_now -= 1,
            (_, Value::X) => self.x_now += 1,
            _ => {}
        }
        self.values[idx] = transition.value;
    }

    fn on_cycle_end(&mut self, cycle: u64, _stats: &CycleStats) {
        if self.x_now > 0 {
            // Only reached while unknowns persist; cost fades to O(1) as
            // soon as the region clears.
            for (idx, value) in self.values.iter().enumerate() {
                if *value == Value::X {
                    if self.first_x[idx] == NEVER {
                        self.first_x[idx] = cycle;
                    }
                    self.last_x[idx] = cycle;
                    self.x_cycle_ends[idx] += 1;
                }
            }
        } else if self.clear_cycle.is_none() {
            self.clear_cycle = Some(cycle);
        }
        self.cycles += 1;
    }

    fn settles_timed(&self) -> bool {
        true
    }

    fn record_timed(&mut self, run: &TimedRun<'_>) {
        for (idx, ends) in run.x_ends.iter().enumerate() {
            if ends.count > 0 {
                self.first_x[idx] = ends.first;
                self.last_x[idx] = ends.last;
                self.x_cycle_ends[idx] = ends.count;
            }
        }
        self.values.copy_from_slice(run.final_values);
        self.x_now = self.values.iter().filter(|&&v| v == Value::X).count();
        self.clear_cycle = run.clear_cycle;
        self.cycles = run.cycles;
    }

    fn on_run_end(&mut self, _netlist: &Netlist) {
        for (idx, value) in self.values.iter().enumerate() {
            self.stuck[idx] = self.cycles > 0 && *value == Value::X;
        }
    }
}

impl MergeableProbe for XPropagationChecker {
    fn merge(&mut self, other: XPropagationChecker) {
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
            "cannot merge X-propagation checkers of different netlists"
        );
        self.cycles += other.cycles;
        for i in 0..self.values.len() {
            self.first_x[i] = self.first_x[i].min(other.first_x[i]);
            self.last_x[i] = if self.last_x[i] == NEVER {
                other.last_x[i]
            } else if other.last_x[i] == NEVER {
                self.last_x[i]
            } else {
                self.last_x[i].max(other.last_x[i])
            };
            self.x_cycle_ends[i] += other.x_cycle_ends[i];
            self.stuck[i] |= other.stuck[i];
        }
        // Worst clearing depth across shards; unknown if any shard never
        // cleared.
        self.clear_cycle = match (self.clear_cycle, other.clear_cycle) {
            (Some(a), Some(b)) => Some(a.max(b)),
            _ => None,
        };
    }
}

impl Checker for XPropagationChecker {
    fn name(&self) -> &'static str {
        "x-propagation"
    }

    fn outcome(&self, netlist: &Netlist) -> CheckOutcome {
        let nets_ever_x = self.first_x.iter().filter(|&&f| f != NEVER).count();
        let stuck_nets = self.stuck.iter().filter(|&&s| s).count();
        let mut violations = Vec::new();
        let mut total = 0u64;
        let mut outputs_ever_x = 0usize;
        let mut first_output_x = NEVER;
        for &out in &self.outputs {
            let idx = out.index();
            if self.first_x[idx] != NEVER {
                outputs_ever_x += 1;
                first_output_x = first_output_x.min(self.first_x[idx]);
                total += 1;
                push_capped(
                    &mut violations,
                    Violation {
                        net: out,
                        cycle: self.first_x[idx],
                        time: self.x_cycle_ends[idx],
                        budget: 0,
                    },
                );
            }
        }
        let verdict = if total == 0 {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        let mut metrics = vec![
            ("cycles".to_string(), self.cycles),
            ("nets_ever_x".to_string(), nets_ever_x as u64),
            ("outputs_ever_x".to_string(), outputs_ever_x as u64),
            ("stuck_x_nets".to_string(), stuck_nets as u64),
            (
                "x_cleared".to_string(),
                u64::from(self.clear_cycle.is_some()),
            ),
        ];
        if let Some(clear) = self.clear_cycle {
            metrics.push(("x_clear_cycle".to_string(), clear));
        }
        let summary = if total == 0 {
            match self.clear_cycle {
                Some(0) => "no output ever unknown; X cleared within the first cycle".to_string(),
                Some(c) => format!(
                    "no output ever unknown; X cleared by the end of cycle {c} \
                     ({nets_ever_x} nets were transiently unknown)"
                ),
                None if self.cycles == 0 => "no cycles observed".to_string(),
                None => format!(
                    "no output ever unknown, but {stuck_nets} internal nets \
                     are still X at the end of the run"
                ),
            }
        } else {
            let names: Vec<&str> = self
                .outputs
                .iter()
                .filter(|o| self.first_x[o.index()] != NEVER)
                .take(4)
                .map(|&o| netlist.net(o).name())
                .collect();
            format!(
                "{outputs_ever_x} outputs saw X (first at cycle end {first_output_x}): {}{}",
                names.join(", "),
                if outputs_ever_x > names.len() {
                    ", …"
                } else {
                    ""
                }
            )
        };
        CheckOutcome {
            checker: self.name().to_string(),
            verdict,
            violations,
            total_violations: total,
            metrics,
            summary,
        }
    }

    fn merge_boxed(&mut self, other: Box<dyn Checker>) {
        self.merge(downcast_checker(other));
    }
}
