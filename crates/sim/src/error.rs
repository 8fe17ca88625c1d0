//! Simulation error type.

use std::error::Error;
use std::fmt;

use glitch_netlist::{EvalError, NetId, NetlistError};

/// Errors reported by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The netlist failed structural validation.
    InvalidNetlist(NetlistError),
    /// The combinational logic did not settle within the per-cycle event
    /// budget — either the delay model admits an oscillation or the budget
    /// is too small for a very deep circuit.
    DidNotSettle {
        /// The cycle that failed to converge.
        cycle: u64,
        /// The time budget that was exhausted.
        budget: u64,
    },
    /// An input assignment referenced a net that is not a primary input.
    NotAnInput(NetId),
    /// A primary input was left undriven in a cycle before ever being
    /// assigned a value.
    MissingInput(NetId),
    /// A cell could not be evaluated combinationally — a malformed netlist
    /// slipped past structural validation. Surfaced as an error (rather than
    /// a panic) so one bad circuit cannot abort a long batch or parallel
    /// run.
    CellEval {
        /// Instance name of the offending cell.
        cell: String,
        /// Why the evaluation was rejected.
        error: EvalError,
    },
    /// A delta stimulus referenced a cycle beyond the run it flips — it
    /// would silently change nothing.
    DeltaOutOfRange {
        /// The out-of-range cycle the delta referenced.
        cycle: u64,
        /// Number of cycles of the run.
        baseline_cycles: u64,
    },
    /// A delta stimulus set the same `(cycle, net)` override twice.
    /// Last-write-wins would silently discard the earlier value, so the
    /// duplicate is rejected at construction with its location.
    DuplicateDelta {
        /// The cycle both overrides target.
        cycle: u64,
        /// The net both overrides drive.
        net: NetId,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidNetlist(e) => write!(f, "invalid netlist: {e}"),
            SimError::DidNotSettle { cycle, budget } => {
                write!(
                    f,
                    "cycle {cycle} did not settle within {budget} delay units"
                )
            }
            SimError::NotAnInput(net) => {
                write!(
                    f,
                    "net {net} is not a primary input and cannot be driven by the stimulus"
                )
            }
            SimError::MissingInput(net) => {
                write!(f, "primary input {net} has never been assigned a value")
            }
            SimError::CellEval { cell, error } => {
                write!(f, "cell `{cell}` cannot be evaluated: {error}")
            }
            SimError::DeltaOutOfRange {
                cycle,
                baseline_cycles,
            } => {
                write!(
                    f,
                    "delta stimulus targets cycle {cycle} but the run has \
                     only {baseline_cycles} cycles"
                )
            }
            SimError::DuplicateDelta { cycle, net } => {
                write!(
                    f,
                    "delta stimulus overrides net {net} twice in cycle {cycle}; \
                     each cycle:net pair may be set at most once"
                )
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::InvalidNetlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NetlistError> for SimError {
    fn from(e: NetlistError) -> Self {
        SimError::InvalidNetlist(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SimError::DidNotSettle {
            cycle: 3,
            budget: 100,
        };
        assert!(e.to_string().contains("cycle 3"));
        let inner = NetlistError::FloatingNet(NetId::from_index(1));
        let e: SimError = inner.clone().into();
        assert_eq!(e, SimError::InvalidNetlist(inner));
        assert!(Error::source(&e).is_some());
    }
}
