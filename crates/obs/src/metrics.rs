//! The [`MetricsRegistry`]: named counters, gauges and log2-bucket
//! histograms behind cheap copyable handles.
//!
//! A registry is a per-thread collector. Parallel code gives every worker
//! its own registry and folds them afterwards with
//! [`MetricsRegistry::merge`] in job order — the same discipline as
//! `MergeableProbe` in `glitch-sim` — so the merged result is bit-identical
//! at any worker count. Merging is by metric *name* (union), counters add,
//! gauges combine by maximum and histograms add bucket-wise, which makes
//! the merge associative and commutative with the empty registry as
//! identity (tested, including by proptest).

/// Handle to a registered counter; cheap to copy, valid only for the
/// registry (or a same-schema sibling) that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Handle to a registered gauge (combines by maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeHandle(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramHandle(usize);

/// Number of histogram buckets: bucket 0 holds zero values, bucket `i`
/// (1 ≤ i ≤ 64) holds values whose highest set bit is `i - 1`, i.e. the
/// range `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-log2-bucket histogram of `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// The bucket index of one sample (see [`HISTOGRAM_BUCKETS`]).
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// The largest value a bucket holds: 0 for bucket 0, `2^i - 1` for
/// bucket `0 < i < 64`, and `u64::MAX` for the last bucket.
#[must_use]
pub fn bucket_upper_bound(index: usize) -> u64 {
    match index {
        0 => 0,
        i if i >= 64 => u64::MAX,
        i => (1u64 << i) - 1,
    }
}

impl Histogram {
    /// Records one sample. Standalone histograms (outside a registry, e.g.
    /// the time slots of a `WindowedHistogram`) record through this
    /// directly; registry-held ones go through
    /// [`MetricsRegistry::record`].
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds another histogram bucket-wise (count/sum add, min/max fold).
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (clamped to `[0, 1]`) by exact rank: the
    /// sample of rank `ceil(q · count)` is located in its bucket and the
    /// bucket's upper bound is returned, clamped to the recorded
    /// `[min, max]` so a narrow distribution reports tight quantiles.
    /// Returns 0 on an empty histogram.
    #[must_use]
    pub fn value_at_quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 when empty.
    #[must_use]
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 when empty.
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of the recorded samples, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The non-empty buckets as `(bucket index, sample count)` pairs in
    /// bucket order. Bucket `i > 0` covers `[2^(i-1), 2^i)`; bucket 0 is
    /// the zero values.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(usize, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect()
    }
}

/// The per-thread metrics collector; see the module docs.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, u64)>,
    histograms: Vec<(String, Histogram)>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-finds) a counter by name.
    pub fn counter(&mut self, name: &str) -> CounterHandle {
        CounterHandle(Self::intern(&mut self.counters, name, 0))
    }

    /// Registers (or re-finds) a gauge by name. Gauges keep the maximum
    /// of every recorded value, which is what makes their merge exact.
    pub fn gauge(&mut self, name: &str) -> GaugeHandle {
        GaugeHandle(Self::intern(&mut self.gauges, name, 0))
    }

    /// Registers (or re-finds) a histogram by name.
    pub fn histogram(&mut self, name: &str) -> HistogramHandle {
        HistogramHandle(Self::intern(
            &mut self.histograms,
            name,
            Histogram::default(),
        ))
    }

    fn intern<T>(slots: &mut Vec<(String, T)>, name: &str, empty: T) -> usize {
        if let Some(i) = slots.iter().position(|(n, _)| n == name) {
            return i;
        }
        slots.push((name.to_string(), empty));
        slots.len() - 1
    }

    /// Adds `n` to a counter.
    pub fn add(&mut self, handle: CounterHandle, n: u64) {
        self.counters[handle.0].1 += n;
    }

    /// Adds 1 to a counter.
    pub fn inc(&mut self, handle: CounterHandle) {
        self.add(handle, 1);
    }

    /// Records a gauge observation (kept as the running maximum).
    pub fn observe_max(&mut self, handle: GaugeHandle, value: u64) {
        let slot = &mut self.gauges[handle.0].1;
        *slot = (*slot).max(value);
    }

    /// Records one histogram sample.
    pub fn record(&mut self, handle: HistogramHandle, value: u64) {
        self.histograms[handle.0].1.record(value);
    }

    /// Reads a counter by name.
    #[must_use]
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Reads a gauge by name.
    #[must_use]
    pub fn gauge_value(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// Reads a histogram by name.
    #[must_use]
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The counters, sorted by name.
    #[must_use]
    pub fn counters(&self) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> = self
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The gauges, sorted by name.
    #[must_use]
    pub fn gauges(&self) -> Vec<(&str, u64)> {
        let mut rows: Vec<(&str, u64)> =
            self.gauges.iter().map(|(n, v)| (n.as_str(), *v)).collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// The histograms, sorted by name.
    #[must_use]
    pub fn histograms(&self) -> Vec<(&str, &Histogram)> {
        let mut rows: Vec<(&str, &Histogram)> = self
            .histograms
            .iter()
            .map(|(n, h)| (n.as_str(), h))
            .collect();
        rows.sort_unstable_by(|a, b| a.0.cmp(b.0));
        rows
    }

    /// `true` when nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another collector into this one, by metric name (union):
    /// counters add, gauges combine by maximum, histograms add
    /// bucket-wise. The operation is associative and commutative with the
    /// empty registry as identity (under the registry's
    /// name-order-insensitive `==`), so a parallel job-order fold is
    /// bit-identical to the serial fold at any worker count.
    pub fn merge(&mut self, other: MetricsRegistry) {
        for (name, value) in other.counters {
            let handle = self.counter(&name);
            self.counters[handle.0].1 += value;
        }
        for (name, value) in other.gauges {
            let handle = self.gauge(&name);
            let slot = &mut self.gauges[handle.0].1;
            *slot = (*slot).max(value);
        }
        for (name, histogram) in other.histograms {
            let handle = self.histogram(&name);
            self.histograms[handle.0].1.merge(&histogram);
        }
    }
}

/// Name-order-insensitive equality: two registries are equal when they
/// hold the same metrics with the same values, regardless of registration
/// order. This is the relation the merge laws (associativity,
/// commutativity, identity) hold over.
impl PartialEq for MetricsRegistry {
    fn eq(&self, other: &MetricsRegistry) -> bool {
        self.counters() == other.counters()
            && self.gauges() == other.gauges()
            && self.histograms() == other.histograms()
    }
}

impl Eq for MetricsRegistry {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsRegistry {
        let mut m = MetricsRegistry::new();
        let c = m.counter("sim.cycles");
        let g = m.gauge("queue.peak_depth");
        let h = m.histogram("cycle.events");
        m.add(c, 10);
        m.observe_max(g, 7);
        m.record(h, 0);
        m.record(h, 3);
        m.record(h, 1000);
        m
    }

    #[test]
    fn records_and_reads_back() {
        let m = sample();
        assert_eq!(m.counter_value("sim.cycles"), Some(10));
        assert_eq!(m.gauge_value("queue.peak_depth"), Some(7));
        let h = m.histogram_value("cycle.events").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 1003);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 1000);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (2, 1), (10, 1)]);
    }

    #[test]
    fn bucket_index_is_log2_floor_plus_one() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn quantiles_use_exact_rank_over_buckets() {
        let mut h = Histogram::default();
        assert_eq!(h.value_at_quantile(0.5), 0);
        for value in [1u64, 2, 3, 100, 1000] {
            h.record(value);
        }
        // Rank ceil(0.5 * 5) = 3 lands in bucket 2 ([2,4)): upper bound 3.
        assert_eq!(h.value_at_quantile(0.5), 3);
        // Rank 5 lands in bucket 10; clamped to the recorded max.
        assert_eq!(h.value_at_quantile(0.99), 1000);
        assert_eq!(h.value_at_quantile(1.0), 1000);
        // Rank is at least 1: the lowest sample's bucket.
        assert_eq!(h.value_at_quantile(0.0), 1);

        let mut uniform = Histogram::default();
        for _ in 0..10 {
            uniform.record(7);
        }
        // All mass in one bucket: every quantile is clamped to [7, 7].
        assert_eq!(uniform.value_at_quantile(0.5), 7);
        assert_eq!(uniform.value_at_quantile(0.99), 7);
    }

    #[test]
    fn bucket_upper_bounds_match_bucket_index() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
        for value in [0u64, 1, 2, 3, 4, 1000, u64::MAX] {
            assert!(value <= bucket_upper_bound(bucket_index(value)));
        }
    }

    #[test]
    fn handles_are_idempotent_per_name() {
        let mut m = MetricsRegistry::new();
        let a = m.counter("x");
        let b = m.counter("x");
        assert_eq!(a, b);
        m.inc(a);
        m.inc(b);
        assert_eq!(m.counter_value("x"), Some(2));
    }

    #[test]
    fn merge_sums_maxes_and_unions() {
        let mut a = sample();
        let mut b = MetricsRegistry::new();
        let c = b.counter("sim.cycles");
        let c2 = b.counter("only.in.b");
        let g = b.gauge("queue.peak_depth");
        let h = b.histogram("cycle.events");
        b.add(c, 5);
        b.add(c2, 1);
        b.observe_max(g, 3);
        b.record(h, 3);
        a.merge(b);
        assert_eq!(a.counter_value("sim.cycles"), Some(15));
        assert_eq!(a.counter_value("only.in.b"), Some(1));
        assert_eq!(a.gauge_value("queue.peak_depth"), Some(7));
        let h = a.histogram_value("cycle.events").unwrap();
        assert_eq!(h.count(), 4);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (2, 2), (10, 1)]);
    }

    #[test]
    fn merge_identity_both_sides() {
        let a = sample();
        let mut left = MetricsRegistry::new();
        left.merge(a.clone());
        let mut right = a.clone();
        right.merge(MetricsRegistry::new());
        assert_eq!(left, a);
        assert_eq!(right, a);
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let a = sample();
        let mut b = MetricsRegistry::new();
        let c = b.counter("only.in.b");
        b.add(c, 9);
        let mut c_reg = MetricsRegistry::new();
        let g = c_reg.gauge("queue.peak_depth");
        c_reg.observe_max(g, 100);

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab, ba);

        let mut ab_c = ab.clone();
        ab_c.merge(c_reg.clone());
        let mut bc = b.clone();
        bc.merge(c_reg.clone());
        let mut a_bc = a.clone();
        a_bc.merge(bc);
        assert_eq!(ab_c, a_bc);
    }

    #[test]
    fn exports_sort_by_name() {
        let mut m = MetricsRegistry::new();
        m.counter("zeta");
        m.counter("alpha");
        let names: Vec<&str> = m.counters().iter().map(|&(n, _)| n).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
    }
}
