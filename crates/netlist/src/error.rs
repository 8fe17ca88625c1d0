//! Error type shared by netlist construction and validation.

use std::error::Error;
use std::fmt;

use crate::cell::CellId;
use crate::net::{NetId, Pin};

/// Errors reported by [`crate::Netlist`] construction helpers and by
/// [`crate::Netlist::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// A net name was used for two different nets.
    DuplicateNetName(String),
    /// A net is driven by more than one cell output.
    MultipleDrivers {
        /// The over-driven net.
        net: NetId,
        /// The second driver that attempted to connect.
        cell: CellId,
    },
    /// A net has neither a driver nor the primary-input flag.
    FloatingNet(NetId),
    /// A cell was created with an illegal number of inputs for its kind.
    BadArity {
        /// The offending cell.
        cell: CellId,
        /// How many inputs it was given.
        got: usize,
    },
    /// A combinational cycle (a loop not broken by a flipflop) exists.
    CombinationalLoop {
        /// One cell on the loop, for diagnostics.
        cell: CellId,
    },
    /// A net id from a different (or newer) netlist was used.
    UnknownNet(NetId),
    /// A cell id from a different (or newer) netlist was used.
    UnknownCell(CellId),
    /// A primary input net is also driven by a cell.
    DrivenInput(NetId),
    /// A pin index beyond its cell's inputs.
    UnknownPin(Pin),
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::DuplicateNetName(name) => {
                write!(f, "duplicate net name `{name}`")
            }
            NetlistError::MultipleDrivers { net, cell } => {
                write!(
                    f,
                    "net {net} already has a driver, cell {cell} cannot drive it too"
                )
            }
            NetlistError::FloatingNet(net) => {
                write!(f, "net {net} has no driver and is not a primary input")
            }
            NetlistError::BadArity { cell, got } => {
                write!(
                    f,
                    "cell {cell} was given {got} inputs, which its kind does not accept"
                )
            }
            NetlistError::CombinationalLoop { cell } => {
                write!(f, "combinational loop through cell {cell}")
            }
            NetlistError::UnknownNet(net) => write!(f, "net {net} does not belong to this netlist"),
            NetlistError::UnknownCell(cell) => {
                write!(f, "cell {cell} does not belong to this netlist")
            }
            NetlistError::DrivenInput(net) => {
                write!(f, "primary input net {net} is also driven by a cell")
            }
            NetlistError::UnknownPin(pin) => {
                write!(f, "pin {pin} is not an input of its cell")
            }
        }
    }
}

impl Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let e = NetlistError::FloatingNet(NetId(4));
        let msg = e.to_string();
        assert!(msg.contains("n4"));
        assert!(msg.starts_with(char::is_lowercase));
        let e = NetlistError::DuplicateNetName("sum".into());
        assert!(e.to_string().contains("sum"));
    }
}
