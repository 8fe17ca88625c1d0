//! CLI-side observability: the shared `--metrics[=FILE]`, `--metrics-json`
//! and `--trace-out FILE` wiring of `analyze`, `power`, `sweep`, `check`
//! and `reduce`. The job's own counters and phase spans are recorded by
//! the shared executor through [`Telemetry::sink`]; this module adds the
//! CLI-only `parse` phase and writes the outputs.
//!
//! The split mirrors `glitch-obs`'s contract. Deterministic quantities
//! (cycle, event, evaluation and queue counts) go into one
//! [`MetricsRegistry`], folded in job order, so `--metrics-json` output is
//! byte-identical across runs and at any `--jobs` count. Wall-clock time
//! goes into timing spans only — the Chrome trace (`--trace-out`) and the
//! appendix of the human-readable dump — and never into the registry.

use std::fs;
use std::path::Path;

use glitch_core::netlist::Netlist;
use glitch_obs::export::{chrome_trace, metrics_json, metrics_text};
use glitch_obs::{MetricsRegistry, Span, SpanLog};
use glitch_serve::exec::Sink;

use crate::args::Args;
use crate::commands::CliError;

/// Where the metrics dump goes.
enum MetricsDest {
    /// `--metrics` (bare) or `--metrics-json` alone: stdout, as the final
    /// line(s) of the command, so scripts can parse the tail.
    Stdout,
    /// `--metrics=FILE`.
    File(String),
}

/// Per-command telemetry state, constructed from the parsed arguments.
///
/// When none of the telemetry options are given, every method is a cheap
/// no-op and the instrumented commands run their untouched bare paths (no
/// extra probes, no registry work) — the property the `metrics_overhead`
/// bench gate pins.
pub struct Telemetry {
    dest: Option<MetricsDest>,
    json: bool,
    trace_path: Option<String>,
    spans: SpanLog,
    registry: MetricsRegistry,
}

impl Telemetry {
    /// Reads `--metrics[=FILE]`, `--metrics-json` and `--trace-out FILE`.
    pub fn from_args(args: &Args) -> Telemetry {
        let json = args.flag("metrics-json");
        let dest = match args.option("metrics") {
            Some("") => Some(MetricsDest::Stdout),
            Some(path) => Some(MetricsDest::File(path.to_string())),
            // --metrics-json alone implies metrics-to-stdout.
            None if json => Some(MetricsDest::Stdout),
            None => None,
        };
        Telemetry {
            dest,
            json,
            trace_path: args.option("trace-out").map(str::to_string),
            spans: SpanLog::new(glitch_obs::Clock::new()),
            registry: MetricsRegistry::new(),
        }
    }

    /// `true` when any telemetry output was requested; gates every piece
    /// of instrumentation (timing spans, and the counters when a dump was
    /// requested).
    pub fn enabled(&self) -> bool {
        self.dest.is_some() || self.trace_path.is_some()
    }

    /// Opens a RAII timing span named `name` (recorded on drop). Returns
    /// `None` when telemetry is off so disabled runs never touch the clock.
    pub fn span(&self, name: &str) -> Option<Span<'_>> {
        self.enabled().then(|| self.spans.span(name))
    }

    /// The executor's telemetry sink: this command's span log, plus its
    /// registry when a metrics dump was asked for (a trace alone needs no
    /// counters), or [`Sink::off`] (the bare path) when telemetry is off.
    pub fn sink(&mut self) -> Sink<'_> {
        if !self.enabled() {
            return Sink::off();
        }
        let registry = self.dest.is_some().then_some(&mut self.registry);
        Sink::new(registry, Some(&self.spans))
    }

    /// Records the netlist's size as the `netlist.cells` and
    /// `netlist.nets` gauges (when telemetry is enabled).
    pub fn netlist_gauges(&mut self, netlist: &Netlist) {
        if self.enabled() {
            self.observe_gauge("netlist.cells", netlist.cell_count() as u64);
            self.observe_gauge("netlist.nets", netlist.net_count() as u64);
        }
    }

    fn observe_gauge(&mut self, name: &str, value: u64) {
        let handle = self.registry.gauge(name);
        self.registry.observe_max(handle, value);
    }

    /// Writes the requested outputs: the Chrome trace file first, then the
    /// metrics dump — so a stdout metrics dump is the command's final
    /// output and scripts can parse the last line(s).
    ///
    /// The JSON dump contains only the deterministic registry. The human
    /// text dump appends a wall-clock appendix (span summary) that is
    /// explicitly non-deterministic.
    pub fn finish(&self) -> Result<(), CliError> {
        if let Some(path) = &self.trace_path {
            write(path, &chrome_trace(&self.spans))?;
            println!("wrote {path}");
        }
        match &self.dest {
            None => {}
            Some(MetricsDest::File(path)) => {
                let dump = if self.json {
                    metrics_json(&self.registry)
                } else {
                    self.text_dump()
                };
                write(path, &dump)?;
                println!("wrote {path}");
            }
            Some(MetricsDest::Stdout) => {
                if self.json {
                    println!("{}", metrics_json(&self.registry));
                } else {
                    print!("{}", self.text_dump());
                }
            }
        }
        Ok(())
    }

    /// The human-readable dump: registry summary plus the span appendix.
    fn text_dump(&self) -> String {
        let mut out = metrics_text(&self.registry);
        let records = self.spans.records();
        if !records.is_empty() {
            out.push_str("spans (wall clock, non-deterministic):\n");
            for record in &records {
                out.push_str(&format!(
                    "  {:<28} {:>10} us (track {})\n",
                    record.name, record.dur_micros, record.tid
                ));
            }
        }
        out
    }
}

fn write(path: &str, contents: &str) -> Result<(), CliError> {
    fs::write(Path::new(path), contents).map_err(|e| CliError::Run(format!("{path}: {e}")))
}
