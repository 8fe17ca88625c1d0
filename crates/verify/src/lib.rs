//! # glitch-verify
//!
//! Three-valued (0/1/X) assertion checking over synchronous-network
//! simulations: the verification subsystem of the glitch-analysis
//! workspace.
//!
//! The paper's glitch analysis assumes every net settles cleanly within a
//! cycle and that state is initialised. Real synchronous networks violate
//! both — through uninitialised flipflops, X-propagation and nets whose
//! settle time exceeds the clock budget — and these are exactly the
//! failure modes binary circuit models silently miss (*Unfaithful Glitch
//! Propagation in Existing Binary Circuit Models*, Függer/Nowak/Schmid)
//! and that cannot be bounded away in general (*On the Glitch
//! Phenomenon*, Lamport/Palais). This crate makes the assumptions
//! checkable instead of assumed:
//!
//! * **three-valued simulation** — run sessions under
//!   [`glitch_sim::SimOptions::x_init`]: flipflops without a netlist
//!   reset value power on `X`, and cells evaluate through the monotone
//!   pessimistic tables of [`glitch_netlist::CellKind::try_evaluate_tri_into`],
//!   so uninitialised-state reachability is *simulated*;
//! * **checkers** — the object-safe [`Checker`] trait (a
//!   [`glitch_sim::Probe`] with a name and an outcome; every built-in is
//!   also a [`glitch_sim::MergeableProbe`], so it attaches to a session
//!   on its own or inside a suite) with built-ins:
//!   [`XPropagationChecker`] (which nets/outputs ever see `X`, first-X
//!   cycle, X-clearing depth), [`SettleBudgetChecker`] (per-net and
//!   per-cohort last-transition-time budgets with located
//!   [`Violation`] records), [`HazardChecker`] (static-0 / static-1 /
//!   dynamic hazards per net per cycle) and [`StabilityChecker`] (a net
//!   must be quiet in cycles matching a predicate);
//! * **aggregation** — [`CheckerProbe`] attaches a [`CheckSuite`]'s
//!   checkers to any session (one-pass or sharded parallel), and
//!   [`VerifyReport`] / [`Verdict`] reduce them deterministically:
//!   bit-identical at any worker count. An input-flip (`--flip`)
//!   re-check is one more full run, of the flipped stimulus.
//!
//! ## Example
//!
//! ```
//! use glitch_netlist::Netlist;
//! use glitch_sim::{InputAssignment, SimOptions, SimSession};
//! use glitch_verify::CheckSuite;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // q has no reset value: under x-init it powers on X, and the XOR
//! // forwards the unknown straight to the output.
//! let mut nl = Netlist::new("x_demo");
//! let d = nl.add_input("d");
//! let q = nl.dff(d, "q");
//! let y = nl.xor2(d, q, "y");
//! nl.mark_output(y);
//!
//! let suite = CheckSuite::new().with_x_propagation().with_hazards();
//! let report = SimSession::new(&nl)
//!     .options(SimOptions::x_init())
//!     .stimulus((0..4).map(|i| InputAssignment::new().with(d, i % 2 == 0)))
//!     .probe(suite.build())
//!     .run()?;
//! let verify = report
//!     .probe::<glitch_verify::CheckerProbe>()
//!     .unwrap()
//!     .report(&nl);
//! assert!(!verify.passed(), "the uninitialised state reaches the output");
//! let xprop = verify.outcome("x-propagation").unwrap();
//! assert_eq!(xprop.metric("outputs_ever_x"), Some(1));
//! # Ok(())
//! # }
//! ```

mod budget;
mod checker;
mod equivalence;
mod hazard;
mod report;
mod stability;
mod suite;
mod xprop;

pub use budget::{
    BudgetError, BudgetSpec, BudgetTarget, BudgetValue, ResolvedBudgets, SettleBudgetChecker,
};
pub use checker::{CheckOutcome, Checker, CheckerProbe, Verdict, Violation, VIOLATION_CAP};
pub use equivalence::{
    delay_label, EquivalenceCheck, EquivalenceChecker, EquivalenceError, EquivalenceMismatch,
    EquivalenceOutcome, EquivalenceReport,
};
pub use hazard::HazardChecker;
pub use report::VerifyReport;
pub use stability::{CycleFilter, StabilityChecker};
pub use suite::CheckSuite;
pub use xprop::XPropagationChecker;
