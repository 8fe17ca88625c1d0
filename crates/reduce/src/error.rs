//! Error vocabulary of the reduction loop.

use glitch_netlist::NetlistError;
use glitch_retime::RetimeError;
use glitch_sim::SimError;
use glitch_verify::EquivalenceError;

/// Ways a reduction run can fail.
#[derive(Debug)]
#[non_exhaustive]
pub enum ReduceError {
    /// A simulation pass (scoring or screening) failed.
    Sim(SimError),
    /// A candidate rewrite failed structurally (distinct from a rewrite
    /// that is merely inapplicable — those are silently skipped during
    /// candidate generation).
    Retime(RetimeError),
    /// The composed move mapping could not be turned into an equivalence
    /// checker — a rewrite broke the input/output mapping contract.
    Equivalence(EquivalenceError),
    /// The final equivalence verification *failed*: an accepted move
    /// sequence changed the function. The loop only accepts screened
    /// moves, so this indicates a rewrite bug; the message locates the
    /// first diverging output.
    NotEquivalent {
        /// Human-readable mismatch location.
        detail: String,
    },
    /// An enabled move kind could not be parsed.
    UnknownMove {
        /// The offending spelling.
        name: String,
    },
    /// The kernel screen could not compile a netlist.
    InvalidNetlist(NetlistError),
}

impl std::fmt::Display for ReduceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceError::Sim(e) => write!(f, "simulation failed: {e}"),
            ReduceError::Retime(e) => write!(f, "rewrite failed: {e}"),
            ReduceError::Equivalence(e) => write!(f, "equivalence mapping rejected: {e}"),
            ReduceError::NotEquivalent { detail } => {
                write!(f, "reduced netlist is not equivalent: {detail}")
            }
            ReduceError::UnknownMove { name } => {
                write!(f, "unknown move `{name}` (expected `buffer` or `retime`)")
            }
            ReduceError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
        }
    }
}

impl std::error::Error for ReduceError {}

impl From<SimError> for ReduceError {
    fn from(e: SimError) -> Self {
        ReduceError::Sim(e)
    }
}

impl From<RetimeError> for ReduceError {
    fn from(e: RetimeError) -> Self {
        ReduceError::Retime(e)
    }
}

impl From<EquivalenceError> for ReduceError {
    fn from(e: EquivalenceError) -> Self {
        ReduceError::Equivalence(e)
    }
}

impl From<NetlistError> for ReduceError {
    fn from(e: NetlistError) -> Self {
        ReduceError::InvalidNetlist(e)
    }
}
