//! The machine-readable report envelopes — one renderer behind both the
//! CLI's `--json` output and the daemon's protocol responses.
//!
//! Field order, formatting and escaping live here and nowhere else: a
//! daemon response for a job is produced by the *same* function as the
//! equivalent one-shot `glitch-cli ... --json` line, which is what makes
//! the serving layer's byte-identity guarantee a structural property
//! instead of a test-only coincidence.

use glitch_core::activity::ActivityTotals;
use glitch_core::netlist::Netlist;
use glitch_core::power::PowerReport;
use glitch_core::sim::WindowedActivityProbe;
use glitch_core::verify::{EquivalenceReport, VerifyReport, Violation};
use glitch_core::{AggregateAnalysis, CheckAnalysis, DelaySweepPoint, Spread};
use glitch_reduce::ReduceReport;

use crate::json::{json_array, JsonObject};
use crate::params::AppliedFlip;

/// The `activity` sub-object: transition totals and derived ratios.
pub fn activity_totals_json(totals: &ActivityTotals) -> JsonObject {
    JsonObject::new()
        .u64("transitions", totals.transitions)
        .u64("useful", totals.useful)
        .u64("useless", totals.useless)
        .u64("glitches", totals.glitches())
        .f64("lf_ratio", totals.useless_to_useful())
        .f64(
            "balance_reduction_factor",
            totals.balance_reduction_factor(),
        )
}

/// The `power` sub-object: the three-component breakdown and its inputs.
pub fn power_report_json(power: &PowerReport) -> JsonObject {
    JsonObject::new()
        .f64("logic_w", power.breakdown.logic)
        .f64("flipflop_w", power.breakdown.flipflop)
        .f64("clock_w", power.breakdown.clock)
        .f64("total_w", power.breakdown.total())
        .f64("frequency_hz", power.frequency)
        .usize("flipflops", power.flipflops)
        .f64("clock_capacitance_f", power.clock_capacitance)
        .f64("switched_cap_per_cycle_f", power.switched_cap_per_cycle)
}

/// The per-window rows of a windowed-activity probe, as a rendered JSON
/// array.
pub fn windows_json(probe: &WindowedActivityProbe) -> String {
    json_array(probe.windows().iter().enumerate().map(|(i, w)| {
        JsonObject::new()
            .usize("window", i)
            .u64("start_cycle", w.start_cycle)
            .u64("cycles", w.cycles)
            .u64("transitions", w.transitions)
            .u64("useful", w.useful)
            .u64("useless", w.useless)
            .u64("glitches", w.glitches())
            .render()
    }))
}

/// A min/mean/max/stddev spread sub-object.
pub fn spread_json(spread: Spread) -> JsonObject {
    JsonObject::new()
        .f64("min", spread.min)
        .f64("mean", spread.mean)
        .f64("max", spread.max)
        .f64("stddev", spread.stddev)
}

/// The per-seed rows of a multi-seed aggregate, as rendered JSON objects.
pub fn per_seed_json(aggregate: &AggregateAnalysis) -> String {
    json_array(aggregate.aggregate.shards().iter().map(|shard| {
        JsonObject::new()
            .u64("seed", shard.seed)
            .u64("cycles", shard.cycles)
            .u64("transitions", shard.activity.transitions)
            .u64("useful", shard.activity.useful)
            .u64("useless", shard.activity.useless)
            .u64("glitches", shard.activity.glitches())
            .f64("power_total_w", shard.power.breakdown.total())
            .render()
    }))
}

/// The applied-flip rows (`net`, `cycle`, driven `value`).
pub fn flips_json(applied: &[AppliedFlip]) -> String {
    json_array(applied.iter().map(|(name, cycle, value)| {
        JsonObject::new()
            .str("net", name)
            .u64("cycle", *cycle)
            .u64("value", u64::from(*value))
            .render()
    }))
}

/// Renders one verify report's checkers as a JSON array.
pub fn verify_checkers_json(report: &VerifyReport, netlist: &Netlist) -> String {
    json_array(report.outcomes().iter().map(|outcome| {
        let mut metrics = JsonObject::new();
        for (name, value) in &outcome.metrics {
            metrics = metrics.u64(name, *value);
        }
        let violations = json_array(outcome.violations.iter().map(|v: &Violation| {
            JsonObject::new()
                .str("net", netlist.net(v.net).name())
                .u64("cycle", v.cycle)
                .u64("time", v.time)
                .u64("budget", v.budget)
                .render()
        }));
        JsonObject::new()
            .str("name", &outcome.checker)
            .str("verdict", outcome.verdict.as_str())
            .u64("total_violations", outcome.total_violations)
            .raw("metrics", &metrics.render())
            .raw("violations", &violations)
            .str("summary", &outcome.summary)
            .render()
    }))
}

/// Renders one verify report as a nested JSON object (verdict + checkers).
pub fn verify_report_json(report: &VerifyReport, netlist: &Netlist) -> JsonObject {
    JsonObject::new()
        .str("verdict", report.verdict().as_str())
        .u64("violations_total", report.total_violations())
        .u64("violations_retained", report.retained_violations())
        .u64("violations_dropped", report.dropped_violations())
        .raw("checkers", &verify_checkers_json(report, netlist))
}

// ------------------------------------------------------------- envelopes

/// The single-seed `analyze` report line, from the one-seed aggregate. A
/// run is one simulation pass, so `passes` is always 1.
pub fn analyze_json(
    file: &str,
    netlist: &Netlist,
    analysis: &AggregateAnalysis,
    windowed: Option<&WindowedActivityProbe>,
) -> String {
    let totals = analysis.activity();
    let out = JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .u64("cycles", analysis.total_cycles())
        .u64("passes", 1)
        .u64("events", analysis.aggregate.total_events())
        .u64("max_settle_time", analysis.aggregate.max_settle_time())
        .u64("cell_evals", analysis.aggregate.total_cell_evals())
        .raw("activity", &activity_totals_json(&totals).render())
        .raw("power", &power_report_json(analysis.power()).render());
    let out = match windowed {
        Some(probe) => out.raw("windows", &windows_json(probe)),
        None => out,
    };
    out.render()
}

/// The multi-seed `analyze` report line (aggregate + spread + per-seed).
pub fn analyze_aggregate_json(
    file: &str,
    netlist: &Netlist,
    seeds: usize,
    jobs: usize,
    cycles_per_seed: u64,
    aggregate: &AggregateAnalysis,
    windowed: Option<&WindowedActivityProbe>,
) -> String {
    let totals = aggregate.activity();
    let spreads = JsonObject::new()
        .raw("glitches", &spread_json(aggregate.glitch_spread()).render())
        .raw("useless", &spread_json(aggregate.useless_spread()).render())
        .raw(
            "lf_ratio",
            &spread_json(aggregate.lf_ratio_spread()).render(),
        )
        .raw(
            "power_total_w",
            &spread_json(aggregate.power_spread()).render(),
        );
    let out = JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .usize("seeds", seeds)
        .usize("jobs", jobs)
        .u64("cycles_per_seed", cycles_per_seed)
        .u64("total_cycles", aggregate.total_cycles())
        .u64("events", aggregate.aggregate.total_events())
        .u64("max_settle_time", aggregate.aggregate.max_settle_time())
        .u64("cell_evals", aggregate.aggregate.total_cell_evals())
        .raw("activity", &activity_totals_json(&totals).render())
        .raw("power", &power_report_json(aggregate.power()).render())
        .raw("spread", &spreads.render())
        .raw("per_seed", &per_seed_json(aggregate));
    let out = match windowed {
        Some(probe) => out.raw("windows", &windows_json(probe)),
        None => out,
    };
    out.render()
}

/// The `analyze --flip` report line: applied flips, and the configured
/// (`baseline`) and flipped (`delta`) runs' activity+power.
pub fn analyze_flip_json(
    file: &str,
    netlist: &Netlist,
    applied: &[AppliedFlip],
    before: &AggregateAnalysis,
    after: &AggregateAnalysis,
) -> String {
    JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .u64("cycles", before.total_cycles())
        .raw("flips", &flips_json(applied))
        .raw("baseline", &analysis_json(before))
        .raw("delta", &analysis_json(after))
        .render()
}

/// A single run's analysis as its `activity` totals and `power` report.
fn analysis_json(analysis: &AggregateAnalysis) -> String {
    JsonObject::new()
        .raw(
            "activity",
            &activity_totals_json(&analysis.activity()).render(),
        )
        .raw("power", &power_report_json(analysis.power()).render())
        .render()
}

/// The delay-model `sweep` report line.
pub fn sweep_json(
    file: &str,
    netlist: &Netlist,
    seeds: usize,
    jobs: usize,
    cycles_per_seed: u64,
    points: &[DelaySweepPoint],
) -> String {
    let rendered = points
        .iter()
        .map(|point| {
            let totals = point.analysis.activity();
            JsonObject::new()
                .str("delay", &point.label)
                .raw("activity", &activity_totals_json(&totals).render())
                .raw("power", &power_report_json(point.analysis.power()).render())
                .raw(
                    "glitch_spread",
                    &spread_json(point.analysis.glitch_spread()).render(),
                )
                .raw(
                    "power_spread",
                    &spread_json(point.analysis.power_spread()).render(),
                )
                .render()
        })
        .collect::<Vec<_>>();
    JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .usize("seeds", seeds)
        .usize("jobs", jobs)
        .u64("cycles_per_seed", cycles_per_seed)
        .raw("points", &json_array(rendered))
        .render()
}

/// The `sweep --flip-inputs` report line: the configured run and one row
/// per flipped input.
pub fn sweep_flips_json(
    file: &str,
    netlist: &Netlist,
    cycle: u64,
    jobs: usize,
    applied: &[AppliedFlip],
    before: &AggregateAnalysis,
    points: &[AggregateAnalysis],
) -> String {
    let rows = json_array(applied.iter().zip(points).map(|((name, _, value), point)| {
        let totals = point.activity();
        JsonObject::new()
            .str("input", name)
            .u64("flipped_to", u64::from(*value))
            .u64("useful", totals.useful)
            .u64("useless", totals.useless)
            .u64("glitches", totals.glitches())
            .f64("power_total_w", point.power().breakdown.total())
            .render()
    }));
    JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .u64("flip_cycle", cycle)
        .usize("jobs", jobs)
        .u64("cycles", before.total_cycles())
        .raw("baseline", &analysis_json(before))
        .raw("points", &rows)
        .render()
}

/// The `check` report line: run shape, totals, verdict and checkers.
#[allow(clippy::too_many_arguments)]
pub fn check_json(
    file: &str,
    netlist: &Netlist,
    cycles_per_seed: u64,
    seeds: usize,
    jobs: usize,
    x_init: bool,
    checked: &CheckAnalysis,
) -> String {
    let report = &checked.report;
    JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .u64("cycles_per_seed", cycles_per_seed)
        .usize("seeds", seeds)
        .usize("jobs", jobs)
        .bool("x_init", x_init)
        .u64("total_cycles", checked.analysis.total_cycles())
        .u64(
            "max_settle_time",
            checked.analysis.aggregate.max_settle_time(),
        )
        .u64("cell_evals", checked.analysis.aggregate.total_cell_evals())
        .str("verdict", report.verdict().as_str())
        .u64("violations_total", report.total_violations())
        .u64("violations_retained", report.retained_violations())
        .u64("violations_dropped", report.dropped_violations())
        .raw("checkers", &verify_checkers_json(report, netlist))
        .render()
}

/// The `check --flip` report line: flips and the configured/flipped
/// verdict pair.
pub fn check_flip_json(
    file: &str,
    netlist: &Netlist,
    cycles: u64,
    x_init: bool,
    applied: &[AppliedFlip],
    base_report: &VerifyReport,
    flipped: &CheckAnalysis,
) -> String {
    JsonObject::new()
        .str("file", file)
        .str("netlist", netlist.name())
        .u64("cycles", cycles)
        .bool("x_init", x_init)
        .raw("flips", &flips_json(applied))
        .raw(
            "baseline",
            &verify_report_json(base_report, netlist).render(),
        )
        .raw(
            "flipped",
            &verify_report_json(&flipped.report, netlist).render(),
        )
        .render()
}

/// The `equivalence` sub-object of a `reduce` report: one entry per
/// (delay model, init mode) verification, plus the overall verdict.
pub fn equivalence_json(report: &EquivalenceReport) -> JsonObject {
    let checks = report.checks.iter().map(|check| {
        JsonObject::new()
            .str("delay", &check.delay)
            .bool("x_init", check.x_init)
            .u64("cycles", check.outcome.cycles)
            .u64("compared", check.outcome.compared)
            .bool("passed", check.outcome.passed())
            .render()
    });
    JsonObject::new()
        .bool("passed", report.passed())
        .u64("compared", report.compared())
        .raw("checks", &json_array(checks))
}

/// One interim progress row of a streamed `reduce`: one line per loop
/// iteration, identified by its leading `progress` key (which is how
/// clients tell interim lines from the final response). `id` tags the
/// daemon's rows with the request id; the one-shot CLI passes `None` and
/// prints otherwise-identical rows.
pub fn reduce_progress_json(
    file: &str,
    event: &glitch_reduce::ProgressEvent<'_>,
    id: Option<u64>,
) -> String {
    let out = JsonObject::new().str("progress", "reduce");
    let out = match id {
        Some(id) => out.u64("id", id),
        None => out,
    };
    let out = out
        .str("file", file)
        .usize("iteration", event.iteration)
        .usize("proposed", event.proposed)
        .usize("screened", event.screened)
        .bool("accepted", event.accepted.is_some());
    let out = match event.accepted {
        Some(m) => out
            .str("kind", m.kind.as_str())
            .str("description", &m.description)
            .f64("glitch_power_before_w", m.glitch_power_before)
            .f64("glitch_power_after_w", m.glitch_power_after)
            .usize("latency_added", m.latency_added),
        None => out,
    };
    out.f64("glitch_power_w", event.glitch_power)
        .f64("baseline_glitch_power_w", event.baseline_glitch_power)
        .render()
}

/// The `reduce` report line: headline, descent accounting, accepted
/// moves, the glitch-power history, and the equivalence verdict.
pub fn reduce_json(
    file: &str,
    report: &ReduceReport,
    seeds: usize,
    jobs: usize,
    cycles_per_seed: u64,
) -> String {
    let moves = report.moves.iter().map(|m| {
        JsonObject::new()
            .usize("iteration", m.iteration)
            .str("kind", m.kind.as_str())
            .str("description", &m.description)
            .f64("glitch_power_before_w", m.glitch_power_before)
            .f64("glitch_power_after_w", m.glitch_power_after)
            .usize("latency_added", m.latency_added)
            .render()
    });
    let history = report
        .glitch_history
        .iter()
        .map(|value| format!("{value:?}"));
    JsonObject::new()
        .str("file", file)
        .str("netlist", &report.circuit)
        .u64("cycles_per_seed", cycles_per_seed)
        .usize("seeds", seeds)
        .usize("jobs", jobs)
        .str("headline", &report.headline())
        .f64("reduction_percent", report.reduction_percent())
        .f64("initial_glitch_power_w", report.initial_glitch_power)
        .f64("final_glitch_power_w", report.final_glitch_power)
        .f64("initial_total_power_w", report.initial_total_power)
        .f64("final_total_power_w", report.final_total_power)
        .usize("iterations", report.iterations)
        .usize("proposed", report.proposed)
        .usize("screened", report.screened)
        .usize("confirmed", report.confirmed)
        .usize("latency", report.latency)
        .raw("moves", &json_array(moves))
        .raw("glitch_history_w", &json_array(history))
        .raw(
            "equivalence",
            &equivalence_json(&report.equivalence).render(),
        )
        .render()
}
