//! The [`VerifyReport`]: the deterministic aggregation of every checker's
//! outcome.

use crate::checker::{CheckOutcome, Verdict};

/// Every checker's [`CheckOutcome`], in suite order, plus the combined
/// verdict.
///
/// Reports are plain data and compare with `==`; the determinism
/// guarantees of the verification subsystem (same report at any `--jobs`
/// count, same report from the timed and event settle paths) are stated — and
/// tested — as report equality.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyReport {
    outcomes: Vec<CheckOutcome>,
}

impl VerifyReport {
    /// Assembles a report from per-checker outcomes (in suite order).
    #[must_use]
    pub fn new(outcomes: Vec<CheckOutcome>) -> Self {
        VerifyReport { outcomes }
    }

    /// The per-checker outcomes, in suite order.
    #[must_use]
    pub fn outcomes(&self) -> &[CheckOutcome] {
        &self.outcomes
    }

    /// The combined verdict: fail if any checker failed.
    #[must_use]
    pub fn verdict(&self) -> Verdict {
        self.outcomes
            .iter()
            .fold(Verdict::Pass, |acc, o| acc.and(o.verdict))
    }

    /// `true` when every checker passed.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.verdict().passed()
    }

    /// Total violations across all checkers (full counts, not the
    /// retention-capped lists).
    #[must_use]
    pub fn total_violations(&self) -> u64 {
        self.outcomes.iter().map(|o| o.total_violations).sum()
    }

    /// Violations retained as located records across all checkers (at most
    /// [`crate::VIOLATION_CAP`] each).
    #[must_use]
    pub fn retained_violations(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.violations.len() as u64)
            .sum()
    }

    /// Violations counted but dropped past the retention cap — the honest
    /// "and N more" figure for pathological runs.
    #[must_use]
    pub fn dropped_violations(&self) -> u64 {
        self.total_violations() - self.retained_violations()
    }

    /// Number of checkers that failed.
    #[must_use]
    pub fn failed_checkers(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.verdict.passed()).count()
    }

    /// Looks up one checker's outcome by name.
    #[must_use]
    pub fn outcome(&self, checker: &str) -> Option<&CheckOutcome> {
        self.outcomes.iter().find(|o| o.checker == checker)
    }
}
