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
//! ## Storage
//!
//! A [`Netlist`] is a handful of flat vectors, so a clone or a drop
//! allocates or frees a handful of buffers, whatever the netlist's size:
//!
//! * every net and cell name lies once in one string arena; a net or cell
//!   record keeps the name's offset and length;
//! * the name → [`NetId`] index is an open-addressing table of net ids
//!   that compares names through the arena, so it holds no second copy;
//! * one record per net (name, driver, input/output marking) and one per
//!   cell (kind, name, flipflop init, the start of its pins);
//! * one pin pool holds every cell's input nets then output nets, cell
//!   after cell; [`Cell::inputs`] and [`Cell::outputs`] are slices of it.
//!
//! [`Netlist::net`] and [`Netlist::cell`] return borrowed views
//! ([`Net`], [`Cell`]) over these records.
//!
//! ## Loads and the cached topology
//!
//! A net's loads are not stored with it. They are derived from the pin
//! pool, together with each combinational cell's combinational
//! successors, the [`Netlist::validate`] verdict and the
//! [`Netlist::levelize`] result, in one topology built the first time any
//! of them is asked for. The topology stays cached until the next edit
//! that adds a net or a cell or moves a pin ([`Netlist::move_loads`]), so
//! validating or levelizing an unchanged netlist again costs nothing, and
//! a clone carries the cache along. Renaming a net, marking an output or
//! setting a flipflop's init keeps it.
//!
//! [`Net::loads`] lists a net's load pins in (cell, pin) order: by cell id,
//! then by input position. Every way of building or editing a netlist
//! keeps that order, so an edited clone and a netlist rebuilt cell by cell
//! agree pin for pin.
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
mod names;
mod net;
mod netlist;
mod stats;
mod topology;
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
