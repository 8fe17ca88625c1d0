//! `glitch-obs`: the engine's dependency-free observability layer.
//!
//! Three pieces, designed to be cheap enough to leave compiled into every
//! build:
//!
//! * [`MetricsRegistry`] — named counters, gauges and fixed-log2-bucket
//!   histograms behind copyable handles. One registry per worker thread;
//!   [`MetricsRegistry::merge`] folds them in job order with the exact
//!   discipline of `glitch-sim`'s `MergeableProbe`, so merged metrics are
//!   bit-identical at any `--jobs` count.
//! * [`Clock`] / [`SpanLog`] / [`Span`] — RAII timing spans over a shared
//!   monotonic origin, ring-buffered with a drop counter.
//! * [`export`] — a human-readable summary, stable sorted-by-name metrics
//!   JSON, Prometheus text exposition, and Chrome trace-event JSON for
//!   Perfetto/`chrome://tracing`.
//! * [`WindowedHistogram`] — a ring of fixed-duration time slots over the
//!   log2 histogram, answering exact-rank percentile queries over sliding
//!   windows (the serving daemon's "p99 over the last minute").
//! * [`EventLog`] — a bounded JSON-lines event writer with atomic line
//!   appends and size-based rotation (the daemon's access log).
//!
//! Deterministic quantities (cycle, event and evaluation counts) belong in
//! the registry; wall-clock time belongs in spans. Keeping the two apart
//! is what lets the CLI promise byte-identical `--metrics-json` output
//! across runs and job counts while still shipping a flame view.

mod eventlog;
pub mod export;
mod metrics;
mod span;
mod windowed;

pub use eventlog::{EventLog, DEFAULT_EVENT_LOG_MAX_BYTES};
pub use metrics::{
    bucket_index, bucket_upper_bound, CounterHandle, GaugeHandle, Histogram, HistogramHandle,
    MetricsRegistry, HISTOGRAM_BUCKETS,
};
pub use span::{Clock, Span, SpanLog, SpanRecord};
pub use windowed::{
    WindowedHistogram, DEFAULT_SLOT_COUNT, DEFAULT_SLOT_MICROS, WINDOW_1M_MICROS, WINDOW_5M_MICROS,
};
