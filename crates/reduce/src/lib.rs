//! # glitch-reduce
//!
//! The paper's reduction loop: iterative glitch-power optimization of a
//! synchronous network, pinned by an equivalence-checking differential
//! oracle.
//!
//! Section 5 of the DATE'95 paper (*Analysis and Reduction of Glitches in
//! Synchronous Networks*) reduces glitching with structural levers —
//! retiming, delay insertion, gate duplication — chosen where the
//! analysis says the glitches are. This crate closes that loop as a
//! greedy accept/reject optimizer:
//!
//! 1. **Measure** — a [`glitch_core::ReduceSession`] pass prices the
//!    netlist in glitch power (combinational power of useless transitions)
//!    and locates hazards per net.
//! 2. **Propose** — [`generate_candidates`] ranks rewrites at the
//!    hazard-hot sites: [`MoveKind::Buffer`], [`MoveKind::Duplicate`],
//!    [`MoveKind::Retime`] (all from [`glitch_retime::rewrite`], each a
//!    total-mapping `Netlist → Netlist` rebuild).
//! 3. **Confirm and screen** — every candidate gets a full scoring pass
//!    on the current stimulus. Each score records every primary output
//!    at every cycle end, so [`screen_scores`] checks the candidate's
//!    function against the current netlist's through the rewrite's
//!    mapping and latency, with no simulation of its own. Among the
//!    candidates that match, the best strictly improving one is accepted
//!    and its mapping composed. ([`Screen`] and [`screen_candidate`], a
//!    separate co-simulation on the compiled kernel or the event queue,
//!    are kept only for the benchmark's reduce mirror.)
//! 5. **Verify** — the final netlist is checked against the *original*
//!    with [`glitch_verify::EquivalenceChecker`]: cycle-accurate output
//!    equality through the composed mapping, binary and `x_init`, settled
//!    on the compiled kernel (settled values are the same under every
//!    delay model, the configured one included). Only then is the
//!    headline claimed: *glitch power −N% at equal function*.
//!
//! ## Example
//!
//! ```
//! use glitch_core::{AnalysisConfig, ReduceSession};
//! use glitch_core::arith::{AdderStyle, RippleCarryAdder};
//! use glitch_reduce::{ReduceOptions, Reducer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let adder = RippleCarryAdder::new(4, AdderStyle::CompoundCell);
//! let session = ReduceSession::new(
//!     AnalysisConfig { cycles: 80, ..AnalysisConfig::default() },
//!     vec![1, 2],
//!     1,
//! );
//! let options = ReduceOptions { max_iters: 2, ..ReduceOptions::default() };
//! let report = Reducer::new(session, options).run(
//!     &adder.netlist,
//!     &[adder.a.clone(), adder.b.clone()],
//!     &[(adder.cin, false)],
//! )?;
//! assert!(report.equivalence.passed(), "reduction preserves the function");
//! assert!(report.final_glitch_power <= report.initial_glitch_power);
//! println!("{}", report.headline());
//! # Ok(())
//! # }
//! ```

mod compare;
mod error;
mod moves;
mod progress;
mod reducer;
mod screen;

pub use compare::{screen_scores, ScreenOutcome};
pub use error::ReduceError;
pub use moves::{generate_candidates, parse_moves, Candidate, MoveKind};
pub use progress::{NullProgress, ProgressEvent, ProgressSink};
pub use reducer::{AcceptedMove, ReduceOptions, ReduceReport, Reducer};
pub use screen::{screen_candidate, Screen, ScreenBackend};
