//! # glitch-core
//!
//! The top-level analysis flow of the workspace, reproducing the DATE'95
//! paper *Analysis and Reduction of Glitches in Synchronous Networks*:
//!
//! * [`GlitchAnalyzer`] — simulate a netlist with random stimuli in **one
//!   session pass** (a `glitch_sim::SimSession` with activity and power
//!   probes), count transitions on every node, classify them into useful
//!   transitions and glitches by parity evaluation, and estimate the
//!   three-component dynamic power (combinational logic / flipflops /
//!   clock).
//! * [`PowerExplorer`] — sweep pipelining depth on a combinational datapath
//!   (the paper's retiming-for-power experiment): each extra register rank
//!   eliminates glitches in the logic but adds flipflop and clock power, so
//!   total power has an interior minimum — the *optimum retiming for power*.
//! * [`TextTable`] — small helper to print paper-style result tables.
//!
//! The heavy lifting lives in the substrate crates re-exported below
//! (`glitch-netlist`, `glitch-sim`, `glitch-activity`, `glitch-analytic`,
//! `glitch-arith`, `glitch-retime`, `glitch-power`); this crate wires them
//! into the workflows a user actually runs.
//!
//! ## Example
//!
//! ```
//! use glitch_core::{AnalysisConfig, GlitchAnalyzer};
//! use glitch_core::arith::{AdderStyle, RippleCarryAdder};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let adder = RippleCarryAdder::new(8, AdderStyle::CompoundCell);
//! let analyzer = GlitchAnalyzer::new(AnalysisConfig { cycles: 200, ..AnalysisConfig::default() });
//! let analysis = analyzer
//!     .analyze(&adder.netlist, &[adder.a.clone(), adder.b.clone()], &[(adder.cin, false)])?;
//! let totals = analysis.activity;
//! assert!(totals.useless > 0, "a ripple-carry adder glitches under random inputs");
//! assert!(analysis.power.breakdown.logic > 0.0);
//! # Ok(())
//! # }
//! ```

mod analyzer;
mod check;
mod explore;
mod reduce;
mod table;

pub use analyzer::{
    AggregateAnalysis, Analysis, AnalysisConfig, DelaySweepPoint, DeltaAnalysis, EngineKind,
    GlitchAnalyzer, KernelTelemetry,
};
pub use check::CheckAnalysis;
pub use explore::{ExplorationPoint, ExplorationResult, ExploreError, PowerExplorer};
pub use reduce::{ReduceScore, ReduceSession};
pub use table::TextTable;

/// The sharded parallel executor, re-exported from `glitch-sim`: fan
/// multi-seed / multi-circuit jobs across worker threads with a
/// deterministic reduction.
pub use glitch_sim::{AggregateReport, ParallelRunner, ShardSummary, SimJob, Spread};

/// The compiled bit-parallel kernel backend, re-exported from
/// `glitch-sim` (which re-exports `glitch-kernel`): compile a netlist
/// once, evaluate 64 stimulus lanes per machine word with two-plane
/// three-valued logic, no event queue. Select it per run with
/// [`AnalysisConfig::engine`].
pub use glitch_sim::{EvalMode, KernelProgram, KernelState};

/// Input flips, re-exported from `glitch-sim`: the configured run's
/// stimulus and the bits a flipped run overrides
/// ([`AnalysisConfig::flips`]).
pub use glitch_sim::{DeltaStimulus, IncrementalStats, SimBaseline};

/// The delay-model selector, re-exported from `glitch-sim`.
pub use glitch_sim::DelayKind;

/// Re-export of the netlist substrate.
pub use glitch_netlist as netlist;

/// Re-export of the event-driven simulator.
pub use glitch_sim as sim;

/// Re-export of the transition-accounting crate.
pub use glitch_activity as activity;

/// Re-export of the closed-form ripple-carry analysis.
pub use glitch_analytic as analytic;

/// Re-export of the circuit generators.
pub use glitch_arith as arith;

/// Re-export of the retiming / pipelining engine.
pub use glitch_retime as retime;

/// Re-export of the power model.
pub use glitch_power as power;

/// Re-export of the verification subsystem (three-valued X-propagation,
/// settle-time budgets, hazard classification, stability assertions).
pub use glitch_verify as verify;
