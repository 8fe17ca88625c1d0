//! # glitch-sim
//!
//! Event-driven gate-level logic simulation for glitch analysis, organised
//! around **one-pass sessions**: a [`SimSession`] runs a stimulus through
//! the simulator exactly once while any number of pluggable [`Probe`]
//! observers record what they care about — transition activity, waveforms,
//! switched energy — so no consumer ever re-simulates per artefact.
//!
//! The simulator reproduces the experimental method of the DATE'95 paper
//! *Analysis and Reduction of Glitches in Synchronous Networks*: a
//! synchronous circuit is simulated one clock cycle at a time, new primary
//! input values and flipflop outputs change **at the beginning of the clock
//! cycle**, the combinational logic settles through an event-driven
//! propagation with per-cell delays (transport-delay semantics, so glitch
//! pulses are never swallowed), and every net-value change is reported to
//! the attached probes.
//!
//! Delay models (select one with [`DelayKind`], or implement the
//! dyn-compatible [`DelayModel`] trait):
//!
//! * [`UnitDelay`] — every combinational cell takes one delay unit
//!   (the paper's default, used for Figure 5, Table 1 and the direction
//!   detector experiment);
//! * [`CellDelay`] — per-kind and per-output delays, e.g. a full adder with
//!   `d_sum = 2 * d_carry` (Table 2);
//! * [`ZeroDelay`] — ideal, glitch-free reference (what the activity would
//!   be if all delay paths were perfectly balanced).
//!
//! Built-in probes: [`ActivityProbe`] (the per-net transition trace, and
//! the power report priced from it), [`VcdProbe`], [`WaveCsvProbe`],
//! [`WindowedActivityProbe`], [`OutputProbe`] (every primary output's
//! end-of-cycle value). A run's statistics (events, cell
//! evaluations, settle times, queue traffic) are on its
//! [`SessionReport`], not in a probe. Custom
//! observables are one [`Probe`] implementation away — see the trait's
//! documentation for a complete example.
//!
//! Analysis runs — one seed or many, one delay model or a sweep of them —
//! go through a sharded parallel layer (`glitch-core`'s analyzer drives a
//! single-seed analysis as a one-job batch): [`ParallelRunner`] fans
//! `(netlist, seed, delay)` [`SimJob`]s
//! across scoped worker threads and [`AggregateReport`] reduces the
//! per-shard results deterministically ([`MergeableProbe`] folds the
//! probes in job order), so a parallel run is bit-identical to the serial
//! fold of its shards — only faster. [`ParallelRunner::run_jobs`] settles
//! each job whose delays allow it, and whose probes can be filled in bulk
//! ([`Probe::settles_timed`]), on the compiled timed kernel
//! ([`TimedSchedule`], one clock cycle per lane) instead of the event
//! queue, with the same report; see [`SimJob::timed_schedule`] for the
//! routing rule. A job that nobody reads the per-cycle statistics of
//! ([`SimJob::with_statistics`]`(false)`) spares the timed kernel their
//! accounting; its report then refuses to be read for them.
//!
//! An input flip (a few bits of the stimulus changed) is one more job:
//! [`SimJob::with_flips`] applies a [`DeltaStimulus`] to the job's
//! stimulus, resolved against the configured run's [`SimBaseline`], and the
//! flipped job settles on either path like any other.
//!
//! ## Example
//!
//! ```
//! use glitch_netlist::Netlist;
//! use glitch_sim::{ActivityProbe, DelayKind, InputAssignment, SimSession};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut nl = Netlist::new("mux_demo");
//! let sel = nl.add_input("sel");
//! let a = nl.add_input("a");
//! let b = nl.add_input("b");
//! let y = nl.mux2(sel, a, b, "y");
//! nl.mark_output(y);
//!
//! let report = SimSession::new(&nl)
//!     .delay(DelayKind::Unit)
//!     .stimulus([
//!         InputAssignment::new().with(sel, false).with(a, true).with(b, false),
//!     ])
//!     .probe(ActivityProbe::new())
//!     .run()?;
//! assert_eq!(report.net_bool(y), Some(true));
//! assert_eq!(report.cycles(), 1);
//! assert!(report.max_settle_time() >= 1);
//! # Ok(())
//! # }
//! ```
//!
//! For cycle-by-cycle control (interactive debugging, mid-run inspection)
//! drop down to [`ClockedSimulator`] and attach probes directly.

mod clocked;
mod delay;
mod engine;
mod error;
mod incremental;
mod kernel;
mod metrics;
mod outputs;
mod parallel;
mod probe;
mod session;
mod stimulus;
mod timed;
mod value;
mod vcd;
mod window;

pub use clocked::{ClockedSimulator, CycleStats, InputAssignment, SimOptions, XEval};
pub use delay::{CellDelay, DelayKind, DelayModel, UnitDelay, ZeroDelay};
pub use engine::QueueStats;
pub use error::SimError;
pub use incremental::{DeltaStimulus, IncrementalStats, SimBaseline};
pub use kernel::{kernel_eval_mode, kernel_prepass, run_kernel_jobs, KernelPrepass};
pub use outputs::{OutputProbe, OutputRecord};
pub use parallel::{AggregateReport, ParallelRunner, ShardSummary, SimJob, Spread};
pub use probe::{
    ActivityProbe, MergeableProbe, Probe, Transition, TransitionKind, VcdProbe, WaveCsvProbe,
};
pub use session::{SessionReport, SimSession};
pub use stimulus::{ExhaustiveStimulus, RandomStimulus, StimulusProgram};
pub use timed::{TimedRun, TimedWork, XEnds};
pub use value::Value;
pub use vcd::VcdRecorder;
// The compiled-kernel backend's own types, re-exported so downstream
// crates can compile and cache programs without a direct dependency.
pub use glitch_kernel::{EvalMode, KernelProgram, KernelState, TimedSchedule, TimedTally};
pub use window::{ActivityWindow, WindowedActivityProbe};
