//! Per-iteration progress reporting for long reductions.
//!
//! The descent can run for minutes on large circuits; a [`ProgressSink`]
//! observes one [`ProgressEvent`] per loop iteration — the accepted move
//! with its glitch-power delta, or the rejection that ends the descent —
//! so the serving daemon can stream interim rows while the loop runs. It
//! also sees where each phase of the loop starts and ends, which a front
//! end can time as spans.
//! Sinks are observers only: they cannot alter the descent, so a run with
//! a sink attached produces a byte-identical report to one without.

use crate::reducer::AcceptedMove;

/// One reduction-loop iteration, as seen by a [`ProgressSink`].
#[derive(Debug, Clone)]
pub struct ProgressEvent<'a> {
    /// 1-based loop iteration.
    pub iteration: usize,
    /// Candidates proposed this iteration.
    pub proposed: usize,
    /// Candidates whose outputs, in their confirm score, matched the
    /// current netlist's this iteration (the functional screen).
    pub screened: usize,
    /// The accepted move, or `None` when no candidate improved (the
    /// iteration that ends the descent).
    pub accepted: Option<&'a AcceptedMove>,
    /// Glitch power after this iteration, in watts.
    pub glitch_power: f64,
    /// The run's baseline glitch power, in watts.
    pub baseline_glitch_power: f64,
}

/// Observes reduction-loop iterations; see the module docs.
pub trait ProgressSink {
    /// Called once per loop iteration, after its accept/reject decision.
    fn iteration(&mut self, event: &ProgressEvent<'_>);

    /// Called when the loop enters phase `name`: the baseline
    /// `reduce.score`, then per iteration `reduce.candidates` and
    /// `reduce.confirm`, then `reduce.equivalence`. Does nothing by
    /// default.
    fn phase_start(&mut self, _name: &'static str) {}

    /// Called when the loop leaves phase `name`, after the matching
    /// [`phase_start`](ProgressSink::phase_start); not called when the
    /// phase fails. Does nothing by default.
    fn phase_end(&mut self, _name: &'static str) {}
}

/// The sink that drops every event — what [`crate::Reducer::run`] uses.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullProgress;

impl ProgressSink for NullProgress {
    fn iteration(&mut self, _event: &ProgressEvent<'_>) {}
}
