//! Error type for retiming and pipelining operations.

use std::error::Error;
use std::fmt;

use glitch_netlist::NetlistError;

/// Errors reported by the netlist pipeliner and the rewrite moves.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RetimeError {
    /// The netlist handed to the pipeliner is not purely combinational
    /// (cutset pipelining re-times from a flipflop-free starting point).
    NotCombinational {
        /// Number of flipflops found.
        dff_count: usize,
    },
    /// The underlying netlist is structurally invalid.
    InvalidNetlist(NetlistError),
    /// A rewrite move does not apply to its target (nothing to rewire,
    /// wrong cell shape, ...).
    MoveNotApplicable {
        /// What disqualified the move.
        reason: String,
    },
}

impl fmt::Display for RetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimeError::NotCombinational { dff_count } => write!(
                f,
                "cutset pipelining needs a purely combinational netlist, found {dff_count} flipflops"
            ),
            RetimeError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            RetimeError::MoveNotApplicable { reason } => {
                write!(f, "move not applicable: {reason}")
            }
        }
    }
}

impl Error for RetimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RetimeError::InvalidNetlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for RetimeError {
    fn from(e: NetlistError) -> Self {
        RetimeError::InvalidNetlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_render() {
        assert!(RetimeError::NotCombinational { dff_count: 3 }
            .to_string()
            .contains('3'));
        assert!(RetimeError::MoveNotApplicable {
            reason: "no loads".into()
        }
        .to_string()
        .contains("no loads"));
    }
}
