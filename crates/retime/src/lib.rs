//! # glitch-retime
//!
//! Register-rank insertion — the glitch-reduction lever of section 5 of the
//! DATE'95 paper *Analysis and Reduction of Glitches in Synchronous
//! Networks*.
//!
//! [`pipeline_netlist`] pipelines a gate-level netlist: it inserts complete
//! register ranks at levelisation boundaries, the mechanism used to create
//! the paper's four direction-detector variants with increasing flipflop
//! counts (Table 3 / Figure 10).
//!
//! The [`rewrite`] module holds the move vocabulary of the reduction loop
//! — buffer insertion and pipelining as `Netlist → Netlist` rewrites, each
//! returning a [`Rewrite`] with a total [`NetMap`] from old nets to new, so
//! equivalence checking and move composition work across the rewrite.
//!
//! The [`delay_imbalance`] metric quantifies how badly input arrival times
//! diverge at each cell — the structural property that creates glitches.
//!
//! ## Example
//!
//! ```
//! use glitch_netlist::Netlist;
//! use glitch_retime::{pipeline_netlist, PipelineOptions};
//!
//! let mut nl = Netlist::new("xor");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.xor2(a, b, "y");
//! nl.mark_output(y);
//!
//! // One rank behind the inputs: both inputs are registered.
//! let piped = pipeline_netlist(&nl, 1, PipelineOptions::default()).unwrap();
//! assert_eq!(piped.map.latency(), 1);
//! assert_eq!(piped.netlist.dff_count(), 2);
//! // The output is observed on the same-named net, one cycle late.
//! assert_eq!(piped.netlist.net(piped.map.output_net(y)).name(), "y");
//! ```

mod error;
mod mapping;
mod pipeline;
pub mod rewrite;

pub use error::RetimeError;
pub use mapping::NetMap;
pub use pipeline::{delay_imbalance, pipeline_netlist, PipelineOptions};
pub use rewrite::{insert_buffer, Rewrite};
