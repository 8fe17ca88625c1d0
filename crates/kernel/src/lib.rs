//! # glitch-kernel
//!
//! A bit-parallel compiled simulation backend for the glitch-analysis
//! workspace: the *functional* counterpart of `glitch-sim`'s event-driven
//! [`ClockedSimulator`](../glitch_sim/index.html).
//!
//! [`KernelProgram::compile`] turns a validated, acyclic netlist into a
//! levelized straight-line program — one [`CellKind`](glitch_netlist::CellKind) op per combinational
//! cell, in topological order — that is then evaluated with word-wide
//! bitwise operations over a [`KernelState`]: 64 independent stimulus
//! *lanes* per `u64` word, any number of words. There is no event queue
//! and no per-event allocation. [`KernelProgram::eval`] computes the
//! zero-delay (functional) fixed point of every cycle;
//! [`KernelProgram::settle_cycles`] does so for a block of consecutive
//! cycles of one stimulus stream, one per lane, solving each lane's
//! flipflop outputs (the previous lane's D) by fixpoint iteration — one
//! evaluation per register rank through a pipeline, not one per cycle;
//! [`TimedSchedule`] adds time: with one clock cycle per lane it steps
//! each net across its static arrival window under integer transport
//! delays, from the block's functional settle, reproducing the
//! event-driven simulator's transitions, settle times and queue traffic
//! exactly. All evaluate through the same per-kind plane formulas.
//!
//! ## Three-valued planes
//!
//! Every net carries two bit-planes, a *value* plane and a *mask* plane,
//! encoding Kleene logic per lane:
//!
//! | value bit | mask bit | meaning |
//! |-----------|----------|---------|
//! | 0         | 0        | `0`     |
//! | 1         | 0        | `1`     |
//! | 0         | 1        | `X`     |
//!
//! The encoding is kept *canonical* (`value & mask == 0` always), so two
//! lanes are equal as `Tri` values exactly when both planes agree — plane
//! comparison is the whole equality check. The per-kind plane formulas are
//! pinned bit-identically against [`CellKind::try_evaluate_tri`](glitch_netlist::CellKind::try_evaluate_tri) by
//! proptests in this crate; [`EvalMode`] selects between the exact Kleene
//! tables and the coarse any-X-in → X-out approximation, mirroring the
//! event-driven simulator's `XEval` policy.
//!
//! ## Why a second backend
//!
//! The event queue pays per event; a compiled, levelized program pays per
//! op and word, 64 lanes at a time. Two engines in `glitch-core` use it:
//! `kernel` evaluates seeds lane-parallel at functional (zero-delay)
//! semantics, and `hybrid` steps the timed schedule ([`TimedSchedule`],
//! one clock cycle per lane) to settle batch jobs whose delays it can
//! step with the event queue's exact figures
//! (`glitch_sim::ParallelRunner::run_jobs`), `glitch-reduce`'s scores
//! and the output records its screen compares among them.
//! `glitch-verify`'s equivalence checker settles both netlists on it,
//! cycles as lanes.

mod program;
mod state;
mod timed;

pub use program::{DffSlot, EvalMode, KernelProgram, SettledCycles};
pub use state::KernelState;
pub use timed::{CycleLanes, LaneStats, TimedSchedule, TimedTally};

// Re-exported so kernel users can name the compile error without
// depending on glitch-netlist directly.
pub use glitch_netlist::NetlistError;
