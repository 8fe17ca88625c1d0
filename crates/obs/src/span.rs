//! RAII timing spans over a monotonic clock, collected into a
//! ring-buffered [`SpanLog`].
//!
//! A [`Clock`] pins a process-wide time origin; every span timestamp is
//! microseconds since that origin, so spans recorded by different
//! components (and threads, via [`SpanLog::record`]) line up on one
//! timeline. The log itself is single-threaded (interior mutability via
//! `RefCell`, so nested RAII guards work): worker threads measure their
//! own wall-clock windows and the coordinator records them with an
//! explicit track id afterwards, which keeps the hot path free of locks.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

/// A monotonic clock with a fixed origin.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// A clock whose origin is "now".
    #[must_use]
    pub fn new() -> Self {
        Clock {
            origin: Instant::now(),
        }
    }

    /// Microseconds elapsed since the clock's origin.
    #[must_use]
    pub fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// One finished span on the shared timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The span's name (e.g. `parse`, `shard`).
    pub name: String,
    /// Track (thread/shard) id the span is drawn on.
    pub tid: u64,
    /// Start, in microseconds since the [`Clock`] origin.
    pub start_micros: u64,
    /// Duration in microseconds.
    pub dur_micros: u64,
    /// Numeric span arguments (e.g. `request_id`), rendered into the
    /// Chrome trace event's `args` object; usually empty.
    pub args: Vec<(String, u64)>,
}

/// The ring-buffer capacity of a [`SpanLog::new`] log.
const DEFAULT_CAPACITY: usize = 4096;

/// A bounded log of finished spans; see the module docs.
#[derive(Debug)]
pub struct SpanLog {
    clock: Clock,
    capacity: usize,
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

impl SpanLog {
    /// An empty log over `clock` retaining at most 4096 spans.
    #[must_use]
    pub fn new(clock: Clock) -> Self {
        Self::with_capacity(clock, DEFAULT_CAPACITY)
    }

    /// An empty log retaining at most `capacity` spans (oldest evicted
    /// first; evictions are counted, not silent).
    #[must_use]
    pub fn with_capacity(clock: Clock, capacity: usize) -> Self {
        SpanLog {
            clock,
            capacity: capacity.max(1),
            inner: RefCell::new(Inner::default()),
        }
    }

    /// The log's clock (copyable; hand it to workers so their windows are
    /// measured on the same timeline).
    #[must_use]
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Starts a RAII span on track 0: the span is recorded when the
    /// returned guard drops.
    #[must_use]
    pub fn span(&self, name: impl Into<String>) -> Span<'_> {
        Span {
            log: self,
            name: name.into(),
            tid: 0,
            start_micros: self.clock.now_micros(),
        }
    }

    /// Records an externally measured span.
    pub fn record(&self, name: impl Into<String>, tid: u64, start_micros: u64, dur_micros: u64) {
        self.record_with_args(name, tid, start_micros, dur_micros, Vec::new());
    }

    /// Records an externally measured span with numeric arguments (e.g.
    /// the serving layer's per-request id).
    pub fn record_with_args(
        &self,
        name: impl Into<String>,
        tid: u64,
        start_micros: u64,
        dur_micros: u64,
        args: Vec<(String, u64)>,
    ) {
        let mut inner = self.inner.borrow_mut();
        if inner.records.len() == self.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(SpanRecord {
            name: name.into(),
            tid,
            start_micros,
            dur_micros,
            args,
        });
    }

    /// The retained spans, oldest first.
    #[must_use]
    pub fn records(&self) -> Vec<SpanRecord> {
        self.inner.borrow().records.iter().cloned().collect()
    }

    /// Number of spans evicted by the ring buffer.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    /// Number of retained spans.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.borrow().records.len()
    }

    /// `true` when no span has been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().records.is_empty()
    }
}

/// RAII guard of a running span; records into its [`SpanLog`] on drop.
#[derive(Debug)]
pub struct Span<'a> {
    log: &'a SpanLog,
    name: String,
    tid: u64,
    start_micros: u64,
}

impl Span<'_> {
    /// Reassigns the span to a track other than 0.
    #[must_use]
    pub fn on_track(mut self, tid: u64) -> Self {
        self.tid = tid;
        self
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let end = self.log.clock.now_micros();
        self.log.record(
            std::mem::take(&mut self.name),
            self.tid,
            self.start_micros,
            end.saturating_sub(self.start_micros),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raii_span_records_on_drop() {
        let log = SpanLog::new(Clock::new());
        {
            let _outer = log.span("outer");
            let _inner = log.span("inner");
        }
        let records = log.records();
        assert_eq!(records.len(), 2);
        // Inner drops first.
        assert_eq!(records[0].name, "inner");
        assert_eq!(records[1].name, "outer");
        assert!(records[1].start_micros <= records[0].start_micros);
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts() {
        let log = SpanLog::with_capacity(Clock::new(), 2);
        log.record("a", 0, 0, 1);
        log.record("b", 0, 1, 1);
        log.record("c", 0, 2, 1);
        let names: Vec<String> = log.records().into_iter().map(|r| r.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn external_records_keep_their_track() {
        let log = SpanLog::new(Clock::new());
        log.record("shard", 3, 10, 20);
        let r = &log.records()[0];
        assert_eq!((r.tid, r.start_micros, r.dur_micros), (3, 10, 20));
        assert!(r.args.is_empty());
    }

    #[test]
    fn args_survive_the_ring() {
        let log = SpanLog::new(Clock::new());
        log.record_with_args("analyze", 1, 5, 9, vec![("request_id".into(), 42)]);
        assert_eq!(log.records()[0].args, vec![("request_id".to_string(), 42)]);
    }

    #[test]
    fn clock_is_monotonic() {
        let clock = Clock::new();
        let a = clock.now_micros();
        let b = clock.now_micros();
        assert!(b >= a);
    }
}
