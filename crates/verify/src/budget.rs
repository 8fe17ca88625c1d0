//! Settle-time budgets: the spec syntax, its resolution against a
//! netlist, and the [`SettleBudgetChecker`] that enforces it.
//!
//! The paper's synchronous model assumes every net settles within the
//! clock period; Lamport/Palais's glitch result is exactly that this
//! cannot be taken for granted. A budget spec makes the assumption
//! checkable: each net gets a *last-transition-time* budget in delay
//! units, and a cycle in which the net is still switching past its budget
//! is a located [`Violation`].
//!
//! ## Spec syntax
//!
//! CLI form — a comma list of `target=value` entries
//! (`--budget 'sum=12,outputs=10,*=cycle'`); file form — one `target =
//! value` line per budget (a TOML-subset key/value file, `#` comments):
//!
//! * target `*` — every net (the per-cohort catch-all);
//! * target `outputs` — every primary output;
//! * any other target — the net with that name;
//! * value — a delay-unit integer, or the keyword `cycle` for the
//!   netlist's combinational depth (the nominal critical path, i.e. the
//!   single-cycle settling assumption under unit delay).
//!
//! Specific targets override broad ones: `net` beats `outputs` beats `*`,
//! regardless of entry order; within the same specificity the last entry
//! wins (so a CLI `--budget` appended after a `--budgets` file overrides
//! it).

use std::fmt;

use glitch_netlist::{NetId, Netlist};
use glitch_sim::{CycleStats, MergeableProbe, Probe, Transition};

use crate::checker::{
    downcast_checker, merge_capped, push_capped, CheckOutcome, Checker, Verdict, Violation,
};

/// What a budget entry applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetTarget {
    /// One net, by name.
    Net(String),
    /// Every primary output.
    Outputs,
    /// Every net.
    All,
}

/// The budget itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetValue {
    /// A fixed number of delay units.
    Units(u64),
    /// The netlist's combinational depth (`cycle` in the spec syntax).
    CriticalPath,
}

/// A parsed, not-yet-resolved budget specification.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BudgetSpec {
    entries: Vec<(BudgetTarget, BudgetValue)>,
}

/// Why a budget spec could not be parsed or resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BudgetError {
    /// A spec entry is malformed; the message shows the entry.
    Parse(String),
    /// The spec names a net the netlist does not have.
    UnknownNet(String),
    /// `cycle` was requested but the netlist has no combinational depth
    /// (it contains no combinational cells).
    NoCriticalPath,
}

impl fmt::Display for BudgetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetError::Parse(entry) => write!(
                f,
                "budget entries are `net=UNITS`, `outputs=UNITS` or `*=UNITS|cycle`, got `{entry}`"
            ),
            BudgetError::UnknownNet(name) => {
                write!(
                    f,
                    "budget names net `{name}`, which the netlist does not have"
                )
            }
            BudgetError::NoCriticalPath => write!(
                f,
                "budget value `cycle` needs a combinational depth, \
                 but the netlist has no combinational cells"
            ),
        }
    }
}

impl std::error::Error for BudgetError {}

impl BudgetSpec {
    /// An empty spec.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no entry was given.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Appends one entry (builder style).
    #[must_use]
    pub fn with(mut self, target: BudgetTarget, value: BudgetValue) -> Self {
        self.entries.push((target, value));
        self
    }

    /// Appends every entry of `other` (later entries win within the same
    /// specificity — the file-then-CLI layering).
    pub fn extend(&mut self, other: BudgetSpec) {
        self.entries.extend(other.entries);
    }

    /// Parses one `target=value` entry.
    fn parse_entry(entry: &str) -> Result<(BudgetTarget, BudgetValue), BudgetError> {
        let raw = entry.trim();
        let (target_text, value_text) = raw
            .split_once('=')
            .ok_or_else(|| BudgetError::Parse(raw.to_string()))?;
        let target_text = target_text.trim().trim_matches('"');
        let value_text = value_text.trim().trim_matches('"');
        if target_text.is_empty() || value_text.is_empty() {
            return Err(BudgetError::Parse(raw.to_string()));
        }
        let target = match target_text {
            "*" => BudgetTarget::All,
            "outputs" => BudgetTarget::Outputs,
            name => BudgetTarget::Net(name.to_string()),
        };
        let value = if value_text == "cycle" {
            BudgetValue::CriticalPath
        } else {
            BudgetValue::Units(
                value_text
                    .parse()
                    .map_err(|_| BudgetError::Parse(raw.to_string()))?,
            )
        };
        Ok((target, value))
    }

    /// Parses the CLI comma-list form, e.g. `sum=12,outputs=10,*=cycle`.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::Parse`] naming the malformed entry.
    pub fn parse_list(text: &str) -> Result<Self, BudgetError> {
        let mut spec = BudgetSpec::new();
        for entry in text.split(',').filter(|e| !e.trim().is_empty()) {
            let (target, value) = Self::parse_entry(entry)?;
            spec.entries.push((target, value));
        }
        Ok(spec)
    }

    /// Parses the budget-file form: one `target = value` line per entry,
    /// `#` comments, blank lines ignored (a TOML subset).
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::Parse`] naming the malformed line.
    pub fn parse_file(text: &str) -> Result<Self, BudgetError> {
        let mut spec = BudgetSpec::new();
        for line in text.lines() {
            let line = match line.split_once('#') {
                Some((before, _)) => before,
                None => line,
            }
            .trim();
            if line.is_empty() {
                continue;
            }
            let (target, value) = Self::parse_entry(line)?;
            spec.entries.push((target, value));
        }
        Ok(spec)
    }

    /// Resolves the spec against a netlist into a per-net budget table.
    ///
    /// # Errors
    ///
    /// Returns [`BudgetError::UnknownNet`] for names the netlist lacks and
    /// [`BudgetError::NoCriticalPath`] if `cycle` was used on a netlist
    /// without combinational cells.
    pub fn resolve(&self, netlist: &Netlist) -> Result<ResolvedBudgets, BudgetError> {
        // The combinational depth walks the whole netlist; compute it at
        // most once per resolve, and only if some entry says `cycle`.
        let mut depth: Option<u64> = None;
        let mut critical_path = || -> Result<u64, BudgetError> {
            if let Some(d) = depth {
                return Ok(d);
            }
            let d = netlist
                .stats()
                .combinational_depth()
                .map(|d| d as u64)
                .ok_or(BudgetError::NoCriticalPath)?;
            depth = Some(d);
            Ok(d)
        };
        let mut per_net: Vec<Option<u64>> = vec![None; netlist.net_count()];
        // Broad-to-specific passes: `*`, then `outputs`, then named nets.
        for pass in 0..3 {
            for (target, value) in &self.entries {
                let applies = matches!(
                    (pass, target),
                    (0, BudgetTarget::All) | (1, BudgetTarget::Outputs) | (2, BudgetTarget::Net(_))
                );
                if !applies {
                    continue;
                }
                let units = match value {
                    BudgetValue::Units(u) => *u,
                    BudgetValue::CriticalPath => critical_path()?,
                };
                match target {
                    BudgetTarget::All => per_net.iter_mut().for_each(|b| *b = Some(units)),
                    BudgetTarget::Outputs => {
                        for &out in netlist.outputs() {
                            per_net[out.index()] = Some(units);
                        }
                    }
                    BudgetTarget::Net(name) => {
                        let net = netlist
                            .find_net(name)
                            .ok_or_else(|| BudgetError::UnknownNet(name.clone()))?;
                        per_net[net.index()] = Some(units);
                    }
                }
            }
        }
        Ok(ResolvedBudgets { per_net })
    }
}

/// A budget spec resolved against one netlist: one optional budget per
/// net, by net index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolvedBudgets {
    per_net: Vec<Option<u64>>,
}

impl ResolvedBudgets {
    /// The budget of a net, if any.
    #[must_use]
    pub fn budget(&self, net: NetId) -> Option<u64> {
        self.per_net.get(net.index()).copied().flatten()
    }

    /// Number of nets with a budget.
    #[must_use]
    pub fn budgeted_count(&self) -> usize {
        self.per_net.iter().filter(|b| b.is_some()).count()
    }

    /// Number of nets the table was resolved over.
    #[must_use]
    pub fn net_count(&self) -> usize {
        self.per_net.len()
    }
}

/// Enforces per-net last-transition-time budgets; see the module docs.
#[derive(Debug, Clone)]
pub struct SettleBudgetChecker {
    budgets: ResolvedBudgets,
    /// Per-cycle worst offending time per net (generation-stamped).
    stamp: Vec<u64>,
    worst: Vec<u64>,
    touched: Vec<NetId>,
    current_cycle: u64,
    violations: Vec<Violation>,
    total: u64,
    nets_over: Vec<bool>,
    worst_excess: u64,
    max_settle_seen: u64,
    cycles: u64,
}

impl SettleBudgetChecker {
    /// Creates a checker enforcing `budgets` (resolve a [`BudgetSpec`]
    /// against the netlist first).
    #[must_use]
    pub fn new(budgets: ResolvedBudgets) -> Self {
        SettleBudgetChecker {
            budgets,
            stamp: Vec::new(),
            worst: Vec::new(),
            touched: Vec::new(),
            current_cycle: 0,
            violations: Vec::new(),
            total: 0,
            nets_over: Vec::new(),
            worst_excess: 0,
            max_settle_seen: 0,
            cycles: 0,
        }
    }

    /// The retained violations (capped; `total_violations` in the outcome
    /// keeps the full count).
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }
}

impl Probe for SettleBudgetChecker {
    fn on_run_start(&mut self, netlist: &Netlist) {
        assert_eq!(
            self.budgets.net_count(),
            netlist.net_count(),
            "budgets were resolved against a different netlist"
        );
        let n = netlist.net_count();
        self.stamp = vec![0; n];
        self.worst = vec![0; n];
        self.nets_over = vec![false; n];
    }

    fn on_cycle_start(&mut self, cycle: u64) {
        self.current_cycle = cycle;
        self.touched.clear();
    }

    fn on_transition(&mut self, transition: &Transition) {
        self.max_settle_seen = self.max_settle_seen.max(transition.time);
        let Some(budget) = self.budgets.budget(transition.net) else {
            return;
        };
        if transition.time <= budget {
            return;
        }
        let idx = transition.net.index();
        if self.stamp[idx] != self.current_cycle + 1 {
            self.stamp[idx] = self.current_cycle + 1;
            self.worst[idx] = transition.time;
            self.touched.push(transition.net);
        } else {
            self.worst[idx] = self.worst[idx].max(transition.time);
        }
    }

    fn on_cycle_end(&mut self, cycle: u64, _stats: &CycleStats) {
        for &net in &self.touched {
            let idx = net.index();
            let time = self.worst[idx];
            let budget = self.budgets.budget(net).expect("touched nets have budgets");
            self.total += 1;
            self.nets_over[idx] = true;
            self.worst_excess = self.worst_excess.max(time - budget);
            push_capped(
                &mut self.violations,
                Violation {
                    net,
                    cycle,
                    time,
                    budget,
                },
            );
        }
        self.touched.clear();
        self.cycles += 1;
    }
}

impl MergeableProbe for SettleBudgetChecker {
    fn merge(&mut self, other: SettleBudgetChecker) {
        if other.nets_over.is_empty() {
            return;
        }
        if self.nets_over.is_empty() {
            *self = other;
            return;
        }
        assert_eq!(
            self.budgets, other.budgets,
            "cannot merge settle-budget checkers with different budgets"
        );
        merge_capped(&mut self.violations, other.violations);
        self.total += other.total;
        self.cycles += other.cycles;
        self.worst_excess = self.worst_excess.max(other.worst_excess);
        self.max_settle_seen = self.max_settle_seen.max(other.max_settle_seen);
        for (mine, theirs) in self.nets_over.iter_mut().zip(&other.nets_over) {
            *mine |= theirs;
        }
    }
}

impl Checker for SettleBudgetChecker {
    fn name(&self) -> &'static str {
        "settle-budget"
    }

    fn outcome(&self, netlist: &Netlist) -> CheckOutcome {
        let nets_over = self.nets_over.iter().filter(|&&o| o).count();
        let verdict = if self.total == 0 {
            Verdict::Pass
        } else {
            Verdict::Fail
        };
        let summary = if self.total == 0 {
            format!(
                "every budgeted net settled in time ({} nets budgeted, worst \
                 observed settle {})",
                self.budgets.budgeted_count(),
                self.max_settle_seen
            )
        } else {
            let first = self.violations.first().expect("total > 0 retains one");
            let mut text = format!(
                "{} budget violations on {nets_over} nets (worst excess {} units; \
                 first: `{}` still switching at t={} in cycle {}, budget {})",
                self.total,
                self.worst_excess,
                netlist.net(first.net).name(),
                first.time,
                first.cycle,
                first.budget
            );
            let dropped = self.total - self.violations.len() as u64;
            if dropped > 0 {
                text.push_str(&format!(
                    " [{} retained, {dropped} dropped past the cap]",
                    self.violations.len()
                ));
            }
            text
        };
        let retained = self.violations.len() as u64;
        CheckOutcome {
            checker: self.name().to_string(),
            verdict,
            violations: self.violations.clone(),
            total_violations: self.total,
            metrics: vec![
                ("cycles".to_string(), self.cycles),
                (
                    "budgeted_nets".to_string(),
                    self.budgets.budgeted_count() as u64,
                ),
                ("nets_over_budget".to_string(), nets_over as u64),
                ("worst_excess".to_string(), self.worst_excess),
                ("max_settle_time".to_string(), self.max_settle_seen),
                ("violations_retained".to_string(), retained),
                ("violations_dropped".to_string(), self.total - retained),
            ],
            summary,
        }
    }

    fn merge_boxed(&mut self, other: Box<dyn Checker>) {
        self.merge(downcast_checker(other));
    }
}
