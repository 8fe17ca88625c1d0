//! # glitch-netlist
//!
//! Gate-level netlist substrate for the glitch-analysis workspace.
//!
//! This crate provides the structural circuit representation used by every
//! other crate in the workspace: a flat, single-clock, gate-level netlist made
//! of [`Cell`]s (logic gates, compound adder cells and D-flipflops) connected
//! by [`Net`]s. It deliberately models exactly what the DATE'95 paper
//! *Analysis and Reduction of Glitches in Synchronous Networks* needs:
//!
//! * every internal signal node is observable (each net is a node whose
//!   transitions can be counted),
//! * compound cells such as [`CellKind::FullAdder`] expose separate sum and
//!   carry outputs so that a delay model can give them different delays
//!   (`d_sum = 2 * d_carry` in Table 2 of the paper),
//! * D-flipflops are explicit cells so retiming and pipelining can move them.
//!
//! ## Example
//!
//! ```
//! use glitch_netlist::{Netlist, CellKind};
//!
//! # fn main() -> Result<(), glitch_netlist::NetlistError> {
//! let mut nl = Netlist::new("half_adder");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let sum = nl.xor2(a, b, "sum");
//! let carry = nl.and2(a, b, "carry");
//! nl.mark_output(sum);
//! nl.mark_output(carry);
//! nl.validate()?;
//! assert_eq!(nl.cell_count(), 2);
//! assert_eq!(nl.stats().count_of(CellKind::XOR_LABEL), 1);
//! # Ok(())
//! # }
//! ```

mod cell;
mod cone;
mod dot;
mod error;
mod hash;
mod level;
mod net;
mod netlist;
mod stats;
mod tri;
mod validate;

pub use cell::{Cell, CellId, CellKind, DffInit, EvalError};
pub use cone::{ConeIndex, FanoutCone};
pub use dot::DotOptions;
pub use error::NetlistError;
pub use hash::{FxBuildHasher, FxHashMap, FxHasher};
pub use level::{CellLevels, Levelization};
pub use net::{Net, NetId, Pin};
pub use netlist::{Bus, Netlist};
pub use stats::NetlistStats;
pub use tri::Tri;
