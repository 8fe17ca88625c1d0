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
//! zero-delay (functional) fixed point of every cycle; [`TimedSchedule`]
//! adds time: with one clock cycle per lane it steps each net across its
//! static arrival window under integer transport delays, reproducing the
//! event-driven simulator's transitions, settle times and queue traffic
//! exactly. Both evaluate through the same per-kind plane formulas.
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
//! A functionally quiet net cannot glitch under *any* delay assignment
//! (Függer et al., "Faithful Glitch Propagation in Binary Circuit
//! Models"), so a cheap functional pass is a sound pre-filter for the
//! expensive timed settle: the hybrid engine in `glitch-core` runs this
//! kernel over all seeds at once and only dispatches the cycles the kernel
//! could not prove quiet to the event queue. The timed schedule goes
//! further and replaces the event queue for batch jobs whose delays it
//! can step (`glitch_sim::ParallelRunner::run_jobs`).

mod program;
mod state;
mod timed;

pub use program::{DffSlot, EvalMode, KernelProgram};
pub use state::KernelState;
pub use timed::{CycleLanes, LaneStats, TimedSchedule, TimedTally};

// Re-exported so kernel users can name the compile error without
// depending on glitch-netlist directly.
pub use glitch_netlist::NetlistError;
