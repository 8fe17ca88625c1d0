//! The request engine: executes parsed protocol jobs against the warm
//! cache and produces the response line for each.
//!
//! One [`Engine`] is shared by every worker thread of the daemon. It owns
//! the [`CircuitCache`], the merged [`MetricsRegistry`] behind the
//! `metrics` op, and the span records behind `--trace-out`. A job is a
//! cache lookup and fingerprint check followed by [`exec`], the same call
//! the one-shot CLI makes, with the cache as its [`Resources`]. A daemon
//! response is therefore byte-identical to the equivalent
//! `glitch-cli ... --json` run by construction.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use glitch_core::KernelProgram;
use glitch_obs::export::{
    chrome_trace_with_tracks, metrics_json, metrics_prometheus, metrics_text,
};
use glitch_obs::{
    Clock, EventLog, Histogram, MetricsRegistry, SpanLog, WindowedHistogram, WINDOW_1M_MICROS,
    WINDOW_5M_MICROS,
};

use crate::cache::{CachedCircuit, CircuitCache};
use crate::exec::{exec, Hooks, ProgressLines, Resources, Sink};
use crate::json::JsonObject;
use crate::lock;
use crate::protocol::{error_response, ok_response, JobKind, JobRequest, MetricsFormat};

/// What the server threads know about one request: its monotonic id
/// (assigned at the connection, before admission control) and how long it
/// waited in the queue before a worker picked it up.
#[derive(Debug, Clone, Copy)]
pub struct RequestContext {
    /// The daemon-wide monotonic request id.
    pub id: u64,
    /// Microseconds between admission and dequeue (0 for control ops,
    /// which are answered inline).
    pub queue_wait_us: u64,
}

impl RequestContext {
    /// A context for inline work that never queued.
    #[must_use]
    pub fn inline(id: u64) -> RequestContext {
        RequestContext {
            id,
            queue_wait_us: 0,
        }
    }
}

/// The per-op windowed latency pair behind the `status` op.
struct OpWindows {
    queue_wait: WindowedHistogram,
    handle: WindowedHistogram,
}

/// What one finished job contributes to its access-log line beyond the
/// response itself: the resolved circuit fingerprint and how the netlist
/// cache answered.
struct JobTrace {
    fingerprint: Option<u64>,
    cache: &'static str,
}

/// The shared request executor. All methods take `&self`; the registry
/// and span store sit behind short-lived locks, the heavy work (parse,
/// simulate) runs lock-free through the cache's single-flight slots.
pub struct Engine {
    cache: CircuitCache,
    metrics: Mutex<MetricsRegistry>,
    clock: Clock,
    /// Per-request spans behind `--trace-out`, capped at the default
    /// [`SpanLog`] capacity (4096, oldest evicted first): a long-lived
    /// daemon must not grow its trace without bound.
    spans: Mutex<SpanLog>,
    next_id: AtomicU64,
    busy_workers: AtomicUsize,
    windows: Mutex<Vec<(String, OpWindows)>>,
    access_log: Option<EventLog>,
}

impl Engine {
    /// An engine with a cache byte budget (0 = unbounded).
    #[must_use]
    pub fn new(cache_bytes: usize) -> Engine {
        let clock = Clock::new();
        Engine {
            cache: CircuitCache::new(cache_bytes),
            metrics: Mutex::new(MetricsRegistry::new()),
            clock,
            spans: Mutex::new(SpanLog::new(clock)),
            next_id: AtomicU64::new(0),
            busy_workers: AtomicUsize::new(0),
            windows: Mutex::new(Vec::new()),
            access_log: None,
        }
    }

    /// Opens the access log at `path` (rotating past `max_bytes`); every
    /// subsequent request appends exactly one line.
    ///
    /// # Errors
    ///
    /// Returns a message when the file cannot be opened.
    pub fn set_access_log(&mut self, path: &str, max_bytes: u64) -> Result<(), String> {
        let log = EventLog::create(path, max_bytes)
            .map_err(|e| format!("cannot open access log {path}: {e}"))?;
        self.access_log = Some(log);
        Ok(())
    }

    /// Assigns the next monotonic request id (1-based).
    pub fn next_request_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The engine's monotonic clock (shared timeline for every span).
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Reads a counter from the merged registry (0 when never touched).
    #[must_use]
    pub fn counter_value(&self, name: &str) -> u64 {
        lock(&self.metrics).counter_value(name).unwrap_or(0)
    }

    fn add(&self, name: &str, n: u64) {
        let mut metrics = lock(&self.metrics);
        let handle = metrics.counter(name);
        metrics.add(handle, n);
    }

    fn gauge_max(&self, name: &str, value: u64) {
        let mut metrics = lock(&self.metrics);
        let handle = metrics.gauge(name);
        metrics.observe_max(handle, value);
    }

    fn merge(&self, registry: MetricsRegistry) {
        lock(&self.metrics).merge(registry);
    }

    fn record_span(&self, name: String, track: u64, start: u64, dur: u64, request_id: u64) {
        lock(&self.spans).record_with_args(
            name,
            track,
            start,
            dur,
            vec![("request_id".to_string(), request_id)],
        );
    }

    /// Records one admitted request's latency pair: the shared-registry
    /// histograms (per op, visible in `metrics`) and the windowed
    /// per-op histograms behind `status`. Shed requests never reach this.
    fn record_latency(&self, op: &str, queue_wait_us: u64, handle_us: u64, now_micros: u64) {
        {
            let mut metrics = lock(&self.metrics);
            let queue = metrics.histogram(&format!("serve.queue_wait_us.{op}"));
            metrics.record(queue, queue_wait_us);
            let handle = metrics.histogram(&format!("serve.handle_us.{op}"));
            metrics.record(handle, handle_us);
        }
        let mut windows = lock(&self.windows);
        let entry = match windows.iter_mut().find(|(name, _)| name == op) {
            Some((_, entry)) => entry,
            None => {
                windows.push((
                    op.to_string(),
                    OpWindows {
                        queue_wait: WindowedHistogram::default(),
                        handle: WindowedHistogram::default(),
                    },
                ));
                &mut windows.last_mut().expect("just pushed").1
            }
        };
        entry.queue_wait.record(now_micros, queue_wait_us);
        entry.handle.record(now_micros, handle_us);
    }

    /// Appends one access-log line (a no-op without `--access-log`).
    /// Write failures are counted, not fatal: observability must never
    /// take the serving path down.
    #[allow(clippy::too_many_arguments)]
    fn access_line(
        &self,
        id: u64,
        op: &str,
        fingerprint: Option<u64>,
        cache: &str,
        queue_us: u64,
        wall_us: u64,
        outcome: &str,
    ) {
        let Some(log) = &self.access_log else { return };
        let fingerprint = match fingerprint {
            Some(f) => format!("{f:016x}"),
            None => String::new(),
        };
        let line = JsonObject::new()
            .u64("id", id)
            .str("op", op)
            .str("fingerprint", &fingerprint)
            .str("cache", cache)
            .u64("queue_us", queue_us)
            .u64("wall_us", wall_us)
            .str("outcome", outcome)
            .render();
        if log.append(&line).is_err() {
            self.add("serve.access_log_errors", 1);
        }
    }

    /// Runs one job to its final response line, with its request counter,
    /// timing span (on the worker's trace track, tagged with the request
    /// id), latency histograms, cache gauges and access-log line. When
    /// `interim` is given and the job asked for progress, interim lines
    /// are emitted through it before this returns.
    pub fn run_job(
        &self,
        kind: JobKind,
        job: &JobRequest,
        track: u64,
        ctx: RequestContext,
        interim: Option<&(dyn Fn(String) + Sync)>,
    ) -> String {
        self.answer(kind, job, track, ctx, |trace| {
            self.execute(kind, job, trace, ctx.id, interim)
        })
    }

    /// The bookkeeping around one job's `execute`, which runs isolated: a
    /// panic inside it is caught, counted as `serve.panics` and answered
    /// with the protocol's error line, so the worker keeps serving.
    fn answer(
        &self,
        kind: JobKind,
        job: &JobRequest,
        track: u64,
        ctx: RequestContext,
        execute: impl FnOnce(&mut JobTrace) -> Result<String, String>,
    ) -> String {
        self.busy_workers.fetch_add(1, Ordering::SeqCst);
        self.add(&format!("serve.requests.{}", kind.op()), 1);
        let mut trace = JobTrace {
            fingerprint: None,
            cache: "-",
        };
        let start = self.clock.now_micros();
        let result =
            catch_unwind(AssertUnwindSafe(|| execute(&mut trace))).unwrap_or_else(|panic| {
                self.add("serve.panics", 1);
                let reason = panic
                    .downcast_ref::<&str>()
                    .copied()
                    .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                    .unwrap_or("unknown cause");
                Err(format!("job panicked: {reason}"))
            });
        let end = self.clock.now_micros();
        let dur = end.saturating_sub(start);
        self.record_span(
            format!("{} {}", kind.op(), job.file),
            track,
            start,
            dur,
            ctx.id,
        );
        self.record_latency(kind.op(), ctx.queue_wait_us, dur, end);
        self.gauge_max("cache.peak_bytes", self.cache.bytes() as u64);
        self.gauge_max("cache.circuits", self.cache.circuit_count() as u64);
        let (line, outcome) = match result {
            Ok(line) => (line, "ok"),
            Err(message) => {
                self.add("serve.errors", 1);
                self.add(&format!("serve.errors.{}", kind.op()), 1);
                (error_response(&message), "error")
            }
        };
        self.access_line(
            ctx.id,
            kind.op(),
            trace.fingerprint,
            trace.cache,
            ctx.queue_wait_us,
            dur,
            outcome,
        );
        self.busy_workers.fetch_sub(1, Ordering::SeqCst);
        line
    }

    /// Wraps one inline control op: request counter, zero-queue-wait
    /// latency sample, span (track 0) and access-log line around the
    /// rendered response.
    fn control_response(
        &self,
        op: &str,
        id: u64,
        render: impl FnOnce(&Engine) -> String,
    ) -> String {
        self.add(&format!("serve.requests.{op}"), 1);
        let start = self.clock.now_micros();
        let line = render(self);
        let end = self.clock.now_micros();
        let dur = end.saturating_sub(start);
        self.record_span(op.to_string(), 0, start, dur, id);
        self.record_latency(op, 0, dur, end);
        self.access_line(id, op, None, "-", 0, dur, "ok");
        line
    }

    /// The `ping` response.
    pub fn ping_response(&self, id: u64) -> String {
        self.control_response("ping", id, |_| ok_response())
    }

    /// The `shutdown` acknowledgement (the caller triggers the drain).
    pub fn shutdown_response(&self, id: u64) -> String {
        self.control_response("shutdown", id, |_| ok_response())
    }

    /// The `metrics` response: the merged registry as the stable sorted
    /// one-line JSON object, or as human-readable text / Prometheus
    /// exposition wrapped in a JSON envelope.
    pub fn metrics_response(&self, format: MetricsFormat, id: u64) -> String {
        self.control_response("metrics", id, |engine| {
            let registry = lock(&engine.metrics).clone();
            match format {
                MetricsFormat::Json => metrics_json(&registry),
                MetricsFormat::Text => JsonObject::new()
                    .str("metrics", &metrics_text(&registry))
                    .render(),
                MetricsFormat::Prometheus => JsonObject::new()
                    .str("metrics", &metrics_prometheus(&registry))
                    .render(),
            }
        })
    }

    /// The `status` response: live serving telemetry. The leading
    /// `counts` sub-object is deterministic for a fixed request sequence
    /// (counters only); everything after it (uptime, percentiles,
    /// busyness) is wall-clock-dependent.
    pub fn status_response(&self, id: u64, queue_depth: usize, workers: usize) -> String {
        self.control_response("status", id, |engine| {
            engine.render_status(queue_depth, workers)
        })
    }

    fn render_status(&self, queue_depth: usize, workers: usize) -> String {
        fn percentiles(histogram: &Histogram) -> JsonObject {
            JsonObject::new()
                .u64("count", histogram.count())
                .u64("p50", histogram.value_at_quantile(0.50))
                .u64("p90", histogram.value_at_quantile(0.90))
                .u64("p99", histogram.value_at_quantile(0.99))
                .u64("max", histogram.max())
        }
        fn windowed(windows: &WindowedHistogram, now: u64) -> JsonObject {
            JsonObject::new()
                .raw(
                    "1m",
                    &percentiles(&windows.window(now, WINDOW_1M_MICROS)).render(),
                )
                .raw(
                    "5m",
                    &percentiles(&windows.window(now, WINDOW_5M_MICROS)).render(),
                )
                .raw("total", &percentiles(windows.total()).render())
        }
        let now = self.clock.now_micros();
        let registry = lock(&self.metrics).clone();
        let counts_of = |prefix: &str| {
            let mut out = JsonObject::new();
            for (name, value) in registry.counters() {
                if let Some(op) = name.strip_prefix(prefix) {
                    if !op.is_empty() && !op.contains('.') {
                        out = out.u64(op, value);
                    }
                }
            }
            out
        };
        let counts = JsonObject::new()
            .raw("requests", &counts_of("serve.requests.").render())
            .raw("errors", &counts_of("serve.errors.").render())
            .raw("shed", &counts_of("serve.shed.").render())
            .u64(
                "stale_fingerprints",
                registry
                    .counter_value("serve.stale_fingerprints")
                    .unwrap_or(0),
            );
        let cache = JsonObject::new()
            .u64("bytes", self.cache.bytes() as u64)
            .u64("circuits", self.cache.circuit_count() as u64);
        let mut latency = JsonObject::new();
        {
            let mut windows = lock(&self.windows);
            windows.sort_by(|a, b| a.0.cmp(&b.0));
            for (op, entry) in windows.iter() {
                latency = latency.raw(
                    op,
                    &JsonObject::new()
                        .raw("queue_wait_us", &windowed(&entry.queue_wait, now).render())
                        .raw("handle_us", &windowed(&entry.handle, now).render())
                        .render(),
                );
            }
        }
        JsonObject::new()
            .raw("counts", &counts.render())
            .u64("uptime_us", now)
            .usize("queue_depth", queue_depth)
            .usize("workers", workers)
            .usize("busy_workers", self.busy_workers.load(Ordering::SeqCst))
            .raw("cache", &cache.render())
            .raw("latency", &latency.render())
            .render()
    }

    /// Counts a request shed by admission control (the caller renders the
    /// error line). Shed requests get an access-log line and a trace span
    /// but — deliberately — no latency histogram sample: they never
    /// queued, and folding their instant rejection into the latency
    /// percentiles would flatter the tail.
    pub fn record_shed(&self, id: u64, op: &str) {
        self.add("serve.shed", 1);
        self.add(&format!("serve.shed.{op}"), 1);
        let now = self.clock.now_micros();
        self.record_span(format!("shed {op}"), 0, now, 0, id);
        self.access_line(id, op, None, "-", 0, 0, "shed");
    }

    /// Counts a request line the protocol parser rejected, so even typos
    /// show up in the access log with their id.
    pub fn record_invalid(&self, id: u64) {
        self.add("serve.invalid", 1);
        self.access_line(id, "invalid", None, "-", 0, 0, "error");
    }

    /// Tracks the job queue's high-water mark.
    pub fn observe_queue_depth(&self, depth: usize) {
        self.gauge_max("serve.queue_peak_depth", depth as u64);
    }

    /// Renders every retained per-request span as a Chrome trace, with
    /// one named track per worker and each span's request id in its
    /// `args` (the same id the access log carries).
    #[must_use]
    pub fn chrome_trace(&self, tracks: &[(u64, &str)]) -> String {
        chrome_trace_with_tracks(&lock(&self.spans), tracks)
    }

    /// Fields a job op must not carry — the strict-protocol counterpart
    /// of CLI flags that only exist on other subcommands.
    fn reject_foreign_fields(kind: JobKind, job: &JobRequest) -> Result<(), String> {
        let mut bad: Vec<&str> = Vec::new();
        let check_only = [
            (job.x_init, "x_init"),
            (job.hazards, "hazards"),
            (job.budget.is_some(), "budget"),
            (job.stable.is_some(), "stable"),
        ];
        let sweep_only = [
            (job.delays.is_some(), "delays (sweep only)"),
            (job.flip_inputs.is_some(), "flip_inputs (sweep only)"),
            (job.flip_cycle.is_some(), "flip_cycle (sweep only)"),
        ];
        let reduce_only = [
            (job.moves.is_some(), "moves"),
            (job.target.is_some(), "target"),
            (job.max_iters.is_some(), "max_iters"),
            (job.progress, "progress"),
        ];
        if kind != JobKind::Reduce {
            bad.extend(reduce_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
        }
        match kind {
            JobKind::Analyze => {
                if job.flips.is_some() {
                    bad.push("flips (use op `flip`)");
                }
                bad.extend(sweep_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
                bad.extend(check_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
            }
            JobKind::Flip => {
                bad.extend(sweep_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
                bad.extend(check_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
            }
            JobKind::Check => {
                bad.extend(sweep_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
            }
            JobKind::Sweep => {
                if job.flips.is_some() {
                    bad.push("flips (use op `flip`)");
                }
                bad.extend(check_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
            }
            JobKind::Reduce => {
                if job.flips.is_some() {
                    bad.push("flips (use op `flip`)");
                }
                bad.extend(sweep_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
                bad.extend(check_only.iter().filter(|(set, _)| *set).map(|&(_, n)| n));
            }
        }
        if bad.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "op `{}` does not take: {}",
                kind.op(),
                bad.join(", ")
            ))
        }
    }

    fn execute(
        &self,
        kind: JobKind,
        job: &JobRequest,
        trace: &mut JobTrace,
        id: u64,
        interim: Option<&(dyn Fn(String) + Sync)>,
    ) -> Result<String, String> {
        Self::reject_foreign_fields(kind, job)?;
        let lookup = self.cache.circuit_for(&job.file)?;
        self.add(
            if lookup.hit {
                "cache.netlist_hits"
            } else {
                "cache.netlist_misses"
            },
            1,
        );
        if lookup.coalesced {
            self.add("cache.coalesced_waits", 1);
        }
        trace.cache = if lookup.coalesced {
            "coalesced"
        } else if lookup.hit {
            "hit"
        } else {
            "miss"
        };
        let circuit = lookup.circuit;
        trace.fingerprint = Some(circuit.fingerprint());
        if let Some(expected) = job.fingerprint {
            let actual = circuit.fingerprint();
            if expected != actual {
                self.add("serve.stale_fingerprints", 1);
                return Err(format!(
                    "stale fingerprint: request pins {expected:016x} but `{}` now parses \
                     to {actual:016x}; re-fetch the circuit and retry",
                    job.file
                ));
            }
        }
        let netlist = circuit.netlist();
        let resources = Cached {
            engine: self,
            circuit: &circuit,
        };
        let hooks = Hooks {
            progress: interim.filter(|_| job.progress).map(|emit| ProgressLines {
                file: &job.file,
                id: Some(id),
                emit,
            }),
            ..Hooks::default()
        };
        let mut registry = MetricsRegistry::new();
        let output = exec(
            kind,
            job,
            netlist,
            &resources,
            &mut Sink::new(Some(&mut registry), None),
            hooks,
        );
        self.merge(registry);
        Ok(output.map_err(|e| e.to_string())?.json(&job.file, netlist))
    }
}

/// The warm cache as the executor's [`Resources`]: every lookup bumps the
/// matching `cache.*` counters.
struct Cached<'a> {
    engine: &'a Engine,
    circuit: &'a Arc<CachedCircuit>,
}

impl Resources for Cached<'_> {
    fn program(&self) -> Result<Arc<KernelProgram>, String> {
        let lookup = self.engine.cache.program_for(self.circuit)?;
        self.engine.add(
            if lookup.hit {
                "cache.program_hits"
            } else {
                "cache.program_misses"
            },
            1,
        );
        if lookup.evicted > 0 {
            self.engine.add("cache.evictions", lookup.evicted);
        }
        Ok(lookup.program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glitch_core::netlist::Netlist;
    use glitch_io::emit_blif;
    use std::path::PathBuf;

    fn temp_netlist(tag: &str) -> (PathBuf, String) {
        let mut n = Netlist::new("enginetest");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.xor2(a, b, "x");
        let y = n.and2(a, x, "y");
        n.mark_output(y);
        let dir = std::env::temp_dir().join(format!("glitch-engine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.blif");
        std::fs::write(&path, emit_blif(&n)).unwrap();
        (dir, path.to_string_lossy().into_owned())
    }

    fn job(file: &str) -> JobRequest {
        JobRequest {
            file: file.to_string(),
            cycles: Some(30),
            ..JobRequest::default()
        }
    }

    fn run(engine: &Engine, kind: JobKind, request: &JobRequest, track: u64) -> String {
        let ctx = RequestContext::inline(engine.next_request_id());
        engine.run_job(kind, request, track, ctx, None)
    }

    #[test]
    fn analyze_responses_are_deterministic() {
        let (dir, file) = temp_netlist("det");
        let engine = Engine::new(0);
        let first = run(&engine, JobKind::Analyze, &job(&file), 1);
        let second = run(&engine, JobKind::Analyze, &job(&file), 2);
        assert!(first.contains("\"activity\""), "unexpected: {first}");
        assert_eq!(first, second);
        assert_eq!(engine.counter_value("cache.netlist_hits"), 1);
        assert_eq!(engine.counter_value("cache.netlist_misses"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_flips_answer_byte_identical_lines() {
        let (dir, file) = temp_netlist("flip");
        let engine = Engine::new(0);
        let mut request = job(&file);
        request.flips = Some("0:a".to_string());
        let first = run(&engine, JobKind::Flip, &request, 1);
        assert!(first.contains("\"delta\""), "unexpected: {first}");
        request.flips = Some("1:b".to_string());
        let second = run(&engine, JobKind::Flip, &request, 1);
        assert!(second.contains("\"delta\""), "unexpected: {second}");
        // Same flip again: identical bytes.
        let third = run(&engine, JobKind::Flip, &request, 1);
        assert_eq!(second, third);
        // The flip sweep and a check flip run the same way.
        let sweep = JobRequest {
            flip_inputs: Some("all".to_string()),
            ..job(&file)
        };
        let swept = run(&engine, JobKind::Sweep, &sweep, 1);
        assert!(swept.contains("\"points\":[{\"input\":\"a\""), "{swept}");
        assert_eq!(swept, run(&engine, JobKind::Sweep, &sweep, 1));
        let checked = run(&engine, JobKind::Check, &request, 1);
        assert!(checked.contains("\"flipped\""), "unexpected: {checked}");
        assert_eq!(checked, run(&engine, JobKind::Check, &request, 1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panicking_job_is_answered_and_its_worker_keeps_serving() {
        let (dir, file) = temp_netlist("panic");
        let engine = Engine::new(0);
        let request = job(&file);
        let ctx = RequestContext::inline(engine.next_request_id());
        let line = engine.answer(JobKind::Analyze, &request, 1, ctx, |_| {
            panic!("an injected job panic")
        });
        assert_eq!(line, error_response("job panicked: an injected job panic"));
        assert_eq!(engine.counter_value("serve.panics"), 1);
        assert_eq!(engine.counter_value("serve.errors"), 1);
        // The same worker thread answers its next job normally.
        let reply = run(&engine, JobKind::Analyze, &request, 1);
        assert!(reply.contains("\"activity\""), "got: {reply}");
        let status = engine.status_response(engine.next_request_id(), 0, 1);
        assert!(status.contains("\"busy_workers\":0"), "got: {status}");
        assert!(
            status.contains("\"requests\":{\"analyze\":2,"),
            "got: {status}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_fingerprints_and_bad_params_are_rejected() {
        let (dir, file) = temp_netlist("stale");
        let engine = Engine::new(0);
        let mut request = job(&file);
        request.fingerprint = Some(0xdead_beef);
        let reply = run(&engine, JobKind::Analyze, &request, 1);
        assert!(reply.contains("stale fingerprint"), "unexpected: {reply}");
        let mut request = job(&file);
        request.tech = Some("90nm".to_string());
        let reply = run(&engine, JobKind::Analyze, &request, 1);
        assert!(reply.contains("--tech must be"), "unexpected: {reply}");
        let mut request = job(&file);
        request.flips = Some("0:a".to_string());
        let reply = run(&engine, JobKind::Analyze, &request, 1);
        assert!(reply.contains("does not take"), "unexpected: {reply}");
        let mut request = job(&file);
        request.flip_inputs = Some("all".to_string());
        let reply = run(&engine, JobKind::Check, &request, 1);
        assert!(
            reply.contains("does not take: flip_inputs (sweep only)"),
            "unexpected: {reply}"
        );
        // The delay-model sweep refuses `delay` in the executor, with the
        // CLI's message.
        let mut request = job(&file);
        request.delay = Some("unit".to_string());
        let reply = run(&engine, JobKind::Sweep, &request, 1);
        assert!(
            reply.contains("the delay-model sweep takes --delays <list>, not --delay"),
            "unexpected: {reply}"
        );
        assert_eq!(engine.counter_value("serve.errors"), 5);
        assert_eq!(engine.counter_value("serve.errors.analyze"), 3);
        assert_eq!(engine.counter_value("serve.errors.sweep"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_and_trace_render() {
        let (dir, file) = temp_netlist("metrics");
        let engine = Engine::new(0);
        run(&engine, JobKind::Analyze, &job(&file), 3);
        let metrics = engine.metrics_response(MetricsFormat::Json, 90);
        assert!(metrics.starts_with("{\"counters\":{"), "got: {metrics}");
        assert!(metrics.contains("serve.requests.analyze"));
        assert!(metrics.contains("serve.handle_us.analyze"));
        let text = engine.metrics_response(MetricsFormat::Text, 91);
        assert!(text.starts_with("{\"metrics\":\""), "got: {text}");
        let prometheus = engine.metrics_response(MetricsFormat::Prometheus, 92);
        assert!(
            prometheus.starts_with("{\"metrics\":\""),
            "got: {prometheus}"
        );
        assert!(
            prometheus.contains("serve_requests_analyze 1"),
            "got: {prometheus}"
        );
        let trace = engine.chrome_trace(&[(3, "worker-3")]);
        assert!(trace.contains("\"tid\":3"), "got: {trace}");
        assert!(trace.contains("worker-3"), "got: {trace}");
        assert!(
            trace.contains("\"args\":{\"request_id\":1}"),
            "got: {trace}"
        );
        assert!(engine.ping_response(5).contains("\"ok\":true"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_reports_counts_latency_and_cache() {
        let (dir, file) = temp_netlist("status");
        let engine = Engine::new(0);
        run(&engine, JobKind::Analyze, &job(&file), 1);
        let mut bad = job(&file);
        bad.tech = Some("bogus".to_string());
        run(&engine, JobKind::Analyze, &bad, 1);
        engine.record_shed(engine.next_request_id(), "sweep");
        let status = engine.status_response(engine.next_request_id(), 4, 2);
        assert!(
            status.starts_with("{\"counts\":{\"requests\":{"),
            "got: {status}"
        );
        assert!(
            status.contains("\"requests\":{\"analyze\":2,\"status\":1}"),
            "got: {status}"
        );
        assert!(
            status.contains("\"errors\":{\"analyze\":1}"),
            "got: {status}"
        );
        assert!(status.contains("\"shed\":{\"sweep\":1}"), "got: {status}");
        assert!(status.contains("\"queue_depth\":4"), "got: {status}");
        assert!(status.contains("\"workers\":2"), "got: {status}");
        assert!(status.contains("\"busy_workers\":0"), "got: {status}");
        assert!(status.contains("\"cache\":{\"bytes\":"), "got: {status}");
        // Latency carries per-window percentiles for the op that ran.
        assert!(
            status.contains("\"analyze\":{\"queue_wait_us\":{\"1m\":{\"count\":2,"),
            "got: {status}"
        );
        assert!(status.contains("\"handle_us\":{\"1m\":{"), "got: {status}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn status_answers_after_a_panic_poisons_the_metrics_lock() {
        let (dir, file) = temp_netlist("poison");
        let engine = Engine::new(0);
        std::thread::scope(|scope| {
            let holder = scope.spawn(|| {
                let _guard = engine.metrics.lock().unwrap();
                panic!("a job panics while holding the metrics lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(engine.metrics.is_poisoned());
        let status = engine.status_response(engine.next_request_id(), 0, 1);
        assert!(
            status.starts_with("{\"counts\":{\"requests\":{"),
            "got: {status}"
        );
        assert!(status.contains("\"status\":1"), "got: {status}");
        // Jobs keep running and counting behind the recovered lock.
        let response = run(&engine, JobKind::Analyze, &job(&file), 1);
        assert!(response.contains("\"activity\""), "got: {response}");
        assert_eq!(engine.counter_value("cache.netlist_misses"), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shed_requests_never_reach_the_latency_histograms() {
        let engine = Engine::new(0);
        engine.record_shed(engine.next_request_id(), "analyze");
        engine.record_shed(engine.next_request_id(), "reduce");
        let metrics = engine.metrics_response(MetricsFormat::Json, 9);
        assert!(metrics.contains("\"serve.shed\":2"), "got: {metrics}");
        assert!(
            metrics.contains("\"serve.shed.analyze\":1"),
            "got: {metrics}"
        );
        assert!(
            !metrics.contains("serve.queue_wait_us.analyze"),
            "shed must not be sampled: {metrics}"
        );
        assert!(
            !metrics.contains("serve.handle_us.analyze"),
            "shed must not be sampled: {metrics}"
        );
        let status = engine.status_response(engine.next_request_id(), 0, 1);
        assert!(
            !status.contains("\"analyze\":{\"queue_wait_us\""),
            "shed ops must not appear in status latency: {status}"
        );
    }

    #[test]
    fn the_access_log_gets_one_line_per_request() {
        let (dir, file) = temp_netlist("accesslog");
        let log_path = dir.join("access.jsonl");
        let mut engine = Engine::new(0);
        engine
            .set_access_log(&log_path.to_string_lossy(), 1 << 20)
            .unwrap();
        run(&engine, JobKind::Analyze, &job(&file), 1);
        engine.record_shed(engine.next_request_id(), "sweep");
        engine.ping_response(engine.next_request_id());
        let text = std::fs::read_to_string(&log_path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "got: {text}");
        assert!(
            lines[0].starts_with("{\"id\":1,\"op\":\"analyze\""),
            "got: {}",
            lines[0]
        );
        assert!(lines[0].contains("\"cache\":\"miss\""), "got: {}", lines[0]);
        assert!(lines[0].contains("\"outcome\":\"ok\""), "got: {}", lines[0]);
        assert!(lines[0].contains("\"fingerprint\":\""), "got: {}", lines[0]);
        assert!(lines[1].contains("\"op\":\"sweep\""), "got: {}", lines[1]);
        assert!(
            lines[1].contains("\"outcome\":\"shed\""),
            "got: {}",
            lines[1]
        );
        assert!(lines[2].contains("\"op\":\"ping\""), "got: {}", lines[2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_reduce_is_byte_identical_to_the_plain_run() {
        let mut n = Netlist::new("reducestream");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let x = n.xor2(a, b, "x");
        let y = n.and2(x, c, "y");
        let z = n.xor2(y, a, "z");
        n.mark_output(z);
        let dir = std::env::temp_dir().join(format!("glitch-engine-stream-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.blif");
        std::fs::write(&path, emit_blif(&n)).unwrap();
        let file = path.to_string_lossy().into_owned();

        let engine = Engine::new(0);
        let mut request = job(&file);
        request.cycles = Some(40);
        request.max_iters = Some(1);
        let plain = run(&engine, JobKind::Reduce, &request, 1);
        request.progress = true;
        let interim = Mutex::new(Vec::new());
        let emit = |line: String| interim.lock().unwrap().push(line);
        let ctx = RequestContext::inline(engine.next_request_id());
        let streamed = engine.run_job(JobKind::Reduce, &request, 1, ctx, Some(&emit));
        assert_eq!(plain, streamed, "the sink must be observe-only");
        let interim = interim.into_inner().unwrap();
        assert!(!interim.is_empty(), "at least one progress line");
        for line in &interim {
            assert!(
                line.starts_with("{\"progress\":\"reduce\",\"id\":"),
                "got: {line}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
