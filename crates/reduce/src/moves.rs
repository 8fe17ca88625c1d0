//! The move taxonomy and hazard-ranked candidate generation.
//!
//! Candidates come from the *measurement*, not from enumeration: the
//! [`ReduceScore`]'s per-net hazard counts rank where glitches actually
//! concentrate under the configured stimulus, and each enabled move kind
//! proposes rewrites at the hottest applicable sites:
//!
//! * [`MoveKind::Buffer`] — delay insertion behind a hazard-hot net; the
//!   buffered loads see a later, cleaner arrival (paper section 5's
//!   "delay insertion" lever).
//! * [`MoveKind::Retime`] — register-rank insertion
//!   ([`glitch_retime::pipeline_netlist`]): arrival times realign at the
//!   register boundary, the paper's strongest reduction (Table 3). Only
//!   proposed for flipflop-free netlists — cutset pipelining starts from
//!   a combinational network.

use std::str::FromStr;

use glitch_core::ReduceScore;
use glitch_netlist::Netlist;
use glitch_retime::{insert_buffer, pipeline_netlist, PipelineOptions, RetimeError, Rewrite};

use crate::error::ReduceError;

/// The reduction loop's structural move vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoveKind {
    /// Delay-buffer insertion behind a hazard-hot net.
    Buffer,
    /// Register-rank insertion (cutset pipelining).
    Retime,
}

impl MoveKind {
    /// The command-line spelling (`buffer`, `retime`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            MoveKind::Buffer => "buffer",
            MoveKind::Retime => "retime",
        }
    }

    /// Every move kind, in the default generation order.
    #[must_use]
    pub fn all() -> &'static [MoveKind] {
        &[MoveKind::Buffer, MoveKind::Retime]
    }
}

impl std::fmt::Display for MoveKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for MoveKind {
    type Err = ReduceError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "buffer" => Ok(MoveKind::Buffer),
            "retime" => Ok(MoveKind::Retime),
            other => Err(ReduceError::UnknownMove {
                name: other.to_string(),
            }),
        }
    }
}

/// Parses a comma-separated move list (`buffer,retime`); the empty string
/// and `all` both mean every move kind. Duplicates are dropped, first
/// spelling wins the order.
///
/// # Errors
///
/// Returns [`ReduceError::UnknownMove`] on the first unknown name.
pub fn parse_moves(list: &str) -> Result<Vec<MoveKind>, ReduceError> {
    let trimmed = list.trim();
    if trimmed.is_empty() || trimmed == "all" {
        return Ok(MoveKind::all().to_vec());
    }
    let mut kinds = Vec::new();
    for part in trimmed.split(',') {
        let kind = part.trim().parse::<MoveKind>()?;
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    Ok(kinds)
}

/// One proposed rewrite, tagged with the move kind that generated it.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Which lever proposed this rewrite.
    pub kind: MoveKind,
    /// The rewrite itself (netlist + total mapping + description).
    pub rewrite: Rewrite,
}

/// The register-rank depths [`MoveKind::Retime`] proposes, shallowest
/// first. Rank 1 registers only the netlist boundary (no interior
/// realignment), so proposals start at 2; 4 and 6 probe deeper cuts on
/// larger netlists.
const RETIME_RANKS: [usize; 3] = [2, 4, 6];

/// The candidates of one proposal round, built one at a time: up to
/// `per_kind` per enabled move kind, in kind order, at the sites ranked by
/// the score's per-net hazard counts. Inapplicable sites are skipped, so a
/// round can yield fewer (or none when the netlist offers nothing).
///
/// Calling this only ranks the hot nets; each step of the iterator builds
/// the next applicable candidate, so a caller that scores and drops each
/// candidate before asking for the next never holds a round's worth of
/// netlists. Every rewrite reads the same netlist, whose validation and
/// levelization are computed once and cached by the netlist itself.
///
/// Generation is deterministic: the hot-net ranking is a pure function of
/// the score and ties break on net id.
pub fn proposals<'a>(
    netlist: &'a Netlist,
    score: &ReduceScore,
    kinds: &'a [MoveKind],
    per_kind: usize,
    pipeline: PipelineOptions,
) -> impl Iterator<Item = Candidate> + 'a {
    let hot = score.hot_nets();
    kinds
        .iter()
        .flat_map(move |&kind| -> Box<dyn Iterator<Item = Candidate> + 'a> {
            let candidate = move |rewrite: Result<Rewrite, RetimeError>| {
                Some(Candidate {
                    kind,
                    rewrite: rewrite.ok()?,
                })
            };
            match kind {
                MoveKind::Buffer => Box::new(
                    hot.clone()
                        .into_iter()
                        .filter_map(move |net| candidate(insert_buffer(netlist, net)))
                        .take(per_kind),
                ),
                MoveKind::Retime => {
                    let ranks = if netlist.dff_count() > 0 {
                        &[][..]
                    } else {
                        &RETIME_RANKS[..per_kind.min(RETIME_RANKS.len())]
                    };
                    Box::new(ranks.iter().filter_map(move |&ranks| {
                        candidate(pipeline_netlist(netlist, ranks, pipeline))
                    }))
                }
            }
        })
}

/// Every candidate of one proposal round at once: [`proposals`]
/// collected.
#[must_use]
pub fn generate_candidates(
    netlist: &Netlist,
    score: &ReduceScore,
    kinds: &[MoveKind],
    per_kind: usize,
    pipeline: PipelineOptions,
) -> Vec<Candidate> {
    proposals(netlist, score, kinds, per_kind, pipeline).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn move_lists_parse_with_dedup_and_default() {
        assert_eq!(parse_moves("").unwrap(), MoveKind::all());
        assert_eq!(parse_moves("all").unwrap(), MoveKind::all());
        assert_eq!(
            parse_moves("retime, buffer,retime").unwrap(),
            vec![MoveKind::Retime, MoveKind::Buffer]
        );
        assert!(matches!(
            parse_moves("buffer,swizzle"),
            Err(ReduceError::UnknownMove { name }) if name == "swizzle"
        ));
    }

    #[test]
    fn kinds_round_trip_their_spelling() {
        for &kind in MoveKind::all() {
            assert_eq!(kind.as_str().parse::<MoveKind>().unwrap(), kind);
        }
    }
}
