//! Lightweight telemetry for the trimgrad stack.
//!
//! The paper's whole evaluation is a story told through counters: packets
//! trimmed vs. dropped per switch port, gradient parts recovered per row,
//! time-to-baseline-accuracy per scheme. This crate gives every layer of the
//! stack one shared, dependency-free way to emit those numbers:
//!
//! * [`Counter`] — a monotone `u64`, updated with relaxed atomics so the
//!   simulator hot path pays one uncontended atomic add;
//! * [`Gauge`] — a last-value `u64` with a `set_max` high-watermark helper
//!   (queue depths);
//! * [`FloatGauge`] — a last-value `f64` (accuracies, throughputs);
//! * [`Histogram`] — fixed 64-bucket log2 histogram (FCTs, queue depths);
//! * [`Registry`] — a cloneable, thread-safe name → metric table that layers
//!   share by handle;
//! * [`Snapshot`] — an immutable, deterministically ordered capture of a
//!   registry with hand-rolled JSON export, so two runs with the same seed
//!   produce byte-identical snapshots.
//!
//! Naming convention: dot-separated lowercase paths, most-general first,
//! e.g. `netsim.port.2->5.trimmed` or `collective.rank.0.bytes_sent`.
//! Snapshots order keys lexicographically (via `BTreeMap`), which makes
//! JSON output reproducible without any canonicalization pass.

#![forbid(unsafe_code)]

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of buckets in a [`Histogram`]: one per possible `log2` of a `u64`,
/// plus a zero bucket folded into index 0.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A monotone event counter.
///
/// Cloning shares the underlying value (handles are `Arc`-backed), so a
/// hot loop can hold a clone and increment without touching the registry.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    value: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge for integral quantities (queue bytes, window sizes).
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if `v` is larger (high-watermark tracking).
    pub fn set_max(&self, v: u64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value gauge for real-valued quantities (accuracy, seconds).
///
/// Stored as the `f64` bit pattern in an atomic; reads and writes are
/// lossless.
#[derive(Debug, Clone, Default)]
pub struct FloatGauge {
    bits: Arc<AtomicU64>,
}

impl FloatGauge {
    /// A fresh gauge at `0.0`.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overwrites the value.
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-size log2-bucketed histogram of `u64` observations.
///
/// Bucket `i` counts observations `v` with `floor(log2(v)) == i`; zero lands
/// in bucket 0 alongside 1. This trades resolution for a fixed footprint and
/// allocation-free recording — right for queue depths and flow sizes where
/// order of magnitude is what matters.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket an observation of `v` lands in.
    #[must_use]
    pub fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        self.inner.buckets[Self::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Records a batch of observations a caller already bucketed with
    /// [`Histogram::bucket_of`]: `counts[i]` observations in bucket `i`,
    /// summing to `sum`. For hot loops that count locally and publish later.
    pub fn record_bucketed(&self, counts: &[u64; HISTOGRAM_BUCKETS], sum: u64) {
        let mut total = 0;
        for (bucket, &n) in self.inner.buckets.iter().zip(counts) {
            if n > 0 {
                bucket.fetch_add(n, Ordering::Relaxed);
                total += n;
            }
        }
        self.inner.count.fetch_add(total, Ordering::Relaxed);
        self.inner.sum.fetch_add(sum, Ordering::Relaxed);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// Mean of observations, or `0.0` if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`) with within-bucket linear
    /// interpolation, or `0.0` if empty.
    ///
    /// The estimate lands inside the log2 bucket that contains the exact
    /// rank-`⌈q·n⌉` observation, so it is within a factor of 2 of the true
    /// quantile (bucket `i` spans `[2^i, 2^(i+1))`). See
    /// [`histogram_quantile`] for the interpolation rule.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        histogram_quantile(self.count(), &self.bucket_counts(), q)
    }

    fn bucket_counts(&self) -> Vec<u64> {
        self.inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

/// Lower bound of log2 histogram bucket `i` (bucket 0 holds `{0, 1}`).
#[must_use]
fn histogram_bucket_lo(i: usize) -> f64 {
    if i == 0 {
        0.0
    } else {
        (1u128 << i) as f64
    }
}

/// Exclusive upper bound of log2 histogram bucket `i`.
#[must_use]
fn histogram_bucket_hi(i: usize) -> f64 {
    (1u128 << (i + 1)) as f64
}

/// Estimates the `q`-quantile of a log2-bucketed histogram with linear
/// interpolation inside the target bucket.
///
/// The target rank is `max(1, q·count)` observations from the bottom; the
/// estimate is `lo + (hi - lo) · (rank - cum_below) / bucket_count` for the
/// bucket where the cumulative count first reaches the rank. Because the
/// exact rank-`⌈q·count⌉` observation lives in that same bucket, the
/// estimate's error is bounded by the bucket width: both values lie in
/// `[2^i, 2^(i+1))`, so `estimate / exact` is within `(1/2, 2]`.
///
/// Out-of-range `q` is clamped to `[0, 1]`; an empty histogram yields `0.0`.
#[must_use]
pub fn histogram_quantile(count: u64, buckets: &[u64], q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let q = q.clamp(0.0, 1.0);
    let target = (q * count as f64).max(1.0);
    let mut cum = 0u64;
    for (i, &c) in buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let below = cum as f64;
        cum += c;
        if cum as f64 >= target {
            let lo = histogram_bucket_lo(i);
            let hi = histogram_bucket_hi(i);
            return lo + (hi - lo) * (target - below) / c as f64;
        }
    }
    // Bucket counts summed below `count` (concurrent recording mid-read):
    // fall back to the top of the highest non-empty bucket.
    buckets
        .iter()
        .rposition(|&c| c != 0)
        .map_or(0.0, histogram_bucket_hi)
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    FloatGauge(FloatGauge),
    Histogram(Histogram),
}

/// A thread-safe, cloneable table of named metrics.
///
/// Clones share the table. Layers register (or re-open) metrics by name once
/// and keep the returned handle for the hot path; the registry lock is only
/// taken at registration and snapshot time.
///
/// [`Registry::scoped`] derives a handle that shares the same table but
/// prepends a tenant prefix to every name at registration time, so
/// multi-tenant callers get isolated namespaces while unscoped callers are
/// untouched.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
    /// Prepended (with a trailing `.`) to every metric name at registration
    /// time; empty for unscoped registries.
    prefix: Arc<str>,
}

impl Registry {
    /// A fresh, empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self {
            metrics: Arc::default(),
            prefix: Arc::from(""),
        }
    }

    /// A handle onto the same metric table that registers every metric under
    /// `scope` + `.`, e.g. `registry.scoped("tenant.job0").counter("steps")`
    /// opens `tenant.job0.steps`. Scopes nest: `scoped("a").scoped("b")`
    /// prefixes `a.b.`.
    #[must_use]
    pub fn scoped(&self, scope: &str) -> Registry {
        assert!(!scope.is_empty(), "telemetry scope must be non-empty");
        Registry {
            metrics: Arc::clone(&self.metrics),
            prefix: Arc::from(format!("{}{scope}.", self.prefix)),
        }
    }

    /// The scope prefix this handle registers under (`""` when unscoped,
    /// otherwise ends with `.`).
    #[must_use]
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// The metric named `name` (under this handle's scope), registered as
    /// `fresh()` if absent, as the kind `pick` accepts.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    fn metric<T>(
        &self,
        name: &str,
        kind: &str,
        fresh: fn() -> Metric,
        pick: fn(&Metric) -> Option<T>,
    ) -> T {
        let name = format!("{}{name}", self.prefix);
        let mut map = self.metrics.lock().expect("telemetry registry poisoned");
        let metric = map.entry(name.clone()).or_insert_with(fresh);
        pick(metric).unwrap_or_else(|| panic!("metric '{name}' is not a {kind}: {metric:?}"))
    }

    /// Returns the counter named `name`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        let fresh = || Metric::Counter(Counter::new());
        self.metric(name, "counter", fresh, |m| match m {
            Metric::Counter(c) => Some(c.clone()),
            _ => None,
        })
    }

    /// Returns the gauge named `name`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        let fresh = || Metric::Gauge(Gauge::new());
        self.metric(name, "gauge", fresh, |m| match m {
            Metric::Gauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Returns the float gauge named `name`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn float_gauge(&self, name: &str) -> FloatGauge {
        let fresh = || Metric::FloatGauge(FloatGauge::new());
        self.metric(name, "float gauge", fresh, |m| match m {
            Metric::FloatGauge(g) => Some(g.clone()),
            _ => None,
        })
    }

    /// Returns the histogram named `name`, creating it if absent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Histogram {
        let fresh = || Metric::Histogram(Histogram::new());
        self.metric(name, "histogram", fresh, |m| match m {
            Metric::Histogram(h) => Some(h.clone()),
            _ => None,
        })
    }

    /// Captures an immutable, deterministically ordered snapshot.
    #[must_use]
    pub fn snapshot(&self) -> Snapshot {
        let map = self.metrics.lock().expect("telemetry registry poisoned");
        let values = map
            .iter()
            .map(|(name, m)| {
                let v = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::FloatGauge(g) => MetricValue::Float(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts(),
                    },
                };
                (name.clone(), v)
            })
            .collect();
        Snapshot { values }
    }
}

/// The captured value of one metric inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter value.
    Counter(u64),
    /// Last gauge value.
    Gauge(u64),
    /// Last float-gauge value.
    Float(f64),
    /// Histogram totals and per-bucket counts (64 log2 buckets).
    Histogram {
        /// Number of observations.
        count: u64,
        /// Sum of observations.
        sum: u64,
        /// Per-bucket observation counts.
        buckets: Vec<u64>,
    },
}

/// An immutable capture of a [`Registry`], ordered by metric name.
///
/// Two snapshots compare equal iff every metric name and value matches, and
/// [`Snapshot::to_json`] is a pure function of that content — so equal
/// snapshots serialize to byte-identical JSON.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    values: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// The captured value of `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }

    /// The captured counter value of `name`, or 0 if absent.
    ///
    /// Missing-as-zero matches how counters behave: a counter that was never
    /// registered was never incremented.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// The captured gauge value of `name`, or 0 if absent.
    #[must_use]
    pub fn gauge(&self, name: &str) -> u64 {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// The captured float-gauge value of `name`, or `0.0` if absent.
    #[must_use]
    pub fn float(&self, name: &str) -> f64 {
        match self.values.get(name) {
            Some(MetricValue::Float(v)) => *v,
            _ => 0.0,
        }
    }

    /// The captured histogram `(count, sum, buckets)` of `name`, if present.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<(u64, u64, &[u64])> {
        match self.values.get(name) {
            Some(MetricValue::Histogram {
                count,
                sum,
                buckets,
            }) => Some((*count, *sum, buckets.as_slice())),
            _ => None,
        }
    }

    /// Interpolated `q`-quantile of the captured histogram `name`, or `0.0`
    /// if absent or empty (see [`histogram_quantile`]).
    #[must_use]
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.histogram(name).map_or(0.0, |(count, _, buckets)| {
            histogram_quantile(count, buckets, q)
        })
    }

    /// Sum of all counters whose name starts with `prefix`.
    ///
    /// Useful for rolling up per-port or per-rank counters, e.g.
    /// `snapshot.counter_sum("netsim.port.") // all ports`.
    #[must_use]
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.values
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .filter_map(|(_, v)| match v {
                MetricValue::Counter(c) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// Iterates `(name, value)` pairs in lexicographic name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of captured metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Merges another snapshot into this one, summing counters and histogram
    /// buckets with matching names, taking the max of gauges, and the last
    /// value of float gauges.
    ///
    /// # Panics
    ///
    /// Panics if a name is present in both with different metric kinds.
    pub fn merge(&mut self, other: &Snapshot) {
        for (name, theirs) in &other.values {
            match self.values.entry(name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(theirs.clone());
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    match (e.get_mut(), theirs) {
                        (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
                        (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a = (*a).max(*b),
                        (MetricValue::Float(a), MetricValue::Float(b)) => *a = *b,
                        (
                            MetricValue::Histogram {
                                count,
                                sum,
                                buckets,
                            },
                            MetricValue::Histogram {
                                count: c2,
                                sum: s2,
                                buckets: b2,
                            },
                        ) => {
                            *count += c2;
                            *sum += s2;
                            for (a, b) in buckets.iter_mut().zip(b2) {
                                *a += b;
                            }
                        }
                        (mine, _) => panic!("metric '{name}' kind mismatch in merge: {mine:?}"),
                    }
                }
            }
        }
    }

    /// Serializes to a deterministic JSON object keyed by metric name.
    ///
    /// Schema per value:
    /// * counters: `{"type":"counter","value":N}`
    /// * gauges: `{"type":"gauge","value":N}`
    /// * float gauges: `{"type":"float","value":X}`
    /// * histograms: `{"type":"histogram","count":N,"sum":N,"buckets":[...]}`
    ///   (trailing zero buckets elided)
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (name, v)) in self.values.iter().enumerate() {
            let _ = write!(out, "  {}: {}", json_string(name), metric_value_json(v));
            out.push_str(if i + 1 < self.values.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push('}');
        out
    }
}

/// Renders one [`MetricValue`] as the JSON object used by
/// [`Snapshot::to_json`] and [`TimeSeries::to_json`] (trailing zero histogram
/// buckets elided).
fn metric_value_json(v: &MetricValue) -> String {
    match v {
        MetricValue::Counter(n) => format!("{{\"type\":\"counter\",\"value\":{n}}}"),
        MetricValue::Gauge(n) => format!("{{\"type\":\"gauge\",\"value\":{n}}}"),
        MetricValue::Float(x) => format!("{{\"type\":\"float\",\"value\":{}}}", json_f64(*x)),
        MetricValue::Histogram {
            count,
            sum,
            buckets,
        } => {
            let last = buckets.iter().rposition(|&b| b != 0).map_or(0, |p| p + 1);
            let body: Vec<String> = buckets[..last].iter().map(u64::to_string).collect();
            format!(
                "{{\"type\":\"histogram\",\"count\":{count},\"sum\":{sum},\"buckets\":[{}]}}",
                body.join(",")
            )
        }
    }
}

/// One sim-time-stamped sample in a [`TimeSeries`].
///
/// `values` holds the *delta* since the previous sample for counters and
/// histograms (so a point answers "what happened in this interval"), and the
/// instantaneous value for gauges and float gauges.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeriesPoint {
    /// Simulated timestamp of the sample, in nanoseconds.
    pub at_ns: u64,
    /// Per-metric interval deltas (counters, histograms) or instantaneous
    /// values (gauges, float gauges), ordered by name.
    pub values: BTreeMap<String, MetricValue>,
}

impl TimeSeriesPoint {
    /// The sampled value of `name`, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.values.get(name)
    }
}

/// A bounded ring of periodic [`Snapshot`] deltas, stamped with simulated
/// time.
///
/// The sampler is entirely pull-based and clock-free: something that owns a
/// deterministic clock (the simulator's event loop, a trainer's epoch tick)
/// calls [`TimeSeries::sample`] with the current sim time and a fresh
/// snapshot. Counters and histograms are stored as per-interval deltas;
/// gauges and float gauges as last values. When the ring is full the oldest
/// point is dropped (and counted), so memory stays bounded no matter the
/// horizon.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    capacity: usize,
    points: VecDeque<TimeSeriesPoint>,
    dropped_oldest: u64,
    prev: Snapshot,
}

impl TimeSeries {
    /// An empty series holding at most `capacity` points.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "time series capacity must be non-zero");
        Self {
            capacity,
            points: VecDeque::with_capacity(capacity.min(1024)),
            dropped_oldest: 0,
            prev: Snapshot::default(),
        }
    }

    /// Records one sample at sim time `at_ns` from a full registry snapshot,
    /// storing counter/histogram deltas against the previous sample and
    /// last values for gauges.
    pub fn sample(&mut self, at_ns: u64, snap: &Snapshot) {
        let values = snap
            .iter()
            .map(|(name, v)| {
                let delta = match (v, self.prev.get(name)) {
                    (MetricValue::Counter(now), prev) => {
                        let before = match prev {
                            Some(MetricValue::Counter(b)) => *b,
                            _ => 0,
                        };
                        MetricValue::Counter(now.saturating_sub(before))
                    }
                    (
                        MetricValue::Histogram {
                            count,
                            sum,
                            buckets,
                        },
                        prev,
                    ) => {
                        let (pc, ps, pb): (u64, u64, &[u64]) = match prev {
                            Some(MetricValue::Histogram {
                                count: pc,
                                sum: ps,
                                buckets: pb,
                            }) => (*pc, *ps, pb.as_slice()),
                            _ => (0, 0, &[]),
                        };
                        MetricValue::Histogram {
                            count: count.saturating_sub(pc),
                            sum: sum.saturating_sub(ps),
                            buckets: buckets
                                .iter()
                                .enumerate()
                                .map(|(i, &b)| b.saturating_sub(pb.get(i).copied().unwrap_or(0)))
                                .collect(),
                        }
                    }
                    (v, _) => v.clone(),
                };
                (name.to_string(), delta)
            })
            .collect();
        if self.points.len() == self.capacity {
            self.points.pop_front();
            self.dropped_oldest += 1;
        }
        self.points.push_back(TimeSeriesPoint { at_ns, values });
        self.prev = snap.clone();
    }

    /// The retained points, oldest first.
    pub fn points(&self) -> impl Iterator<Item = &TimeSeriesPoint> {
        self.points.iter()
    }

    /// Number of retained points.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no samples have been retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ring capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Points evicted because the ring was full.
    #[must_use]
    pub fn dropped_oldest(&self) -> u64 {
        self.dropped_oldest
    }

    /// One metric's trajectory as `(at_ns, value)` pairs, oldest first.
    ///
    /// Counters yield their per-interval delta, gauges their sampled value,
    /// float gauges their value, histograms their per-interval observation
    /// count. Points where the metric is absent are skipped.
    #[must_use]
    pub fn series(&self, name: &str) -> Vec<(u64, f64)> {
        self.points
            .iter()
            .filter_map(|p| {
                let v = match p.values.get(name)? {
                    MetricValue::Counter(n) | MetricValue::Gauge(n) => *n as f64,
                    MetricValue::Float(x) => *x,
                    MetricValue::Histogram { count, .. } => *count as f64,
                };
                Some((p.at_ns, v))
            })
            .collect()
    }

    /// Serializes to deterministic JSON:
    /// `{"capacity":N,"dropped_oldest":N,"points":[{"at_ns":T,"metrics":{...}},...]}`
    /// with per-metric objects in the [`Snapshot::to_json`] schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"capacity\":{},\"dropped_oldest\":{},\"points\":[",
            self.capacity, self.dropped_oldest
        );
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n  {{\"at_ns\":{},\"metrics\":{{", p.at_ns);
            for (j, (name, v)) in p.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}:{}", json_string(name), metric_value_json(v));
            }
            out.push_str("}}");
        }
        out.push_str("\n]}");
        out
    }

    /// FNV-1a digest of the serialized series — a stable fingerprint for
    /// golden determinism tests.
    #[must_use]
    pub fn digest(&self) -> u64 {
        fnv1a(self.to_json().as_bytes())
    }
}

/// FNV-1a over a byte string (the digest of the netsim workload generator's
/// golden determinism tests, `FlowSchedule::digest`).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Escapes a string as a JSON string literal (used by [`Snapshot::to_json`]
/// and by callers composing larger JSON documents out of snapshots).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats an `f64` as a JSON number (finite values only; non-finite values
/// map to `null`). Rust's shortest-roundtrip float formatting is
/// deterministic, which keeps snapshots byte-stable.
#[must_use]
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_shares_state_across_clones() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(3);
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 4);
    }

    #[test]
    fn gauge_set_max_is_a_high_watermark() {
        let g = Gauge::new();
        g.set_max(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn float_gauge_round_trips_exactly() {
        let g = FloatGauge::new();
        g.set(0.1 + 0.2);
        assert_eq!(g.get(), 0.1 + 0.2);
    }

    #[test]
    fn histogram_buckets_by_log2() {
        let h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1034);
        let buckets = h.bucket_counts();
        assert_eq!(buckets[0], 2); // 0 and 1
        assert_eq!(buckets[1], 2); // 2 and 3
        assert_eq!(buckets[2], 1); // 4
        assert_eq!(buckets[10], 1); // 1024
    }

    #[test]
    fn record_bucketed_equals_recording_one_by_one() {
        let values = [0u64, 1, 2, 3, 4, 1024, 1500, u64::from(u32::MAX)];
        let one_by_one = Histogram::new();
        let mut counts = [0u64; HISTOGRAM_BUCKETS];
        for v in values {
            one_by_one.record(v);
            counts[Histogram::bucket_of(v)] += 1;
        }
        let batched = Histogram::new();
        batched.record_bucketed(&counts, values.iter().sum());
        assert_eq!(batched.count(), one_by_one.count());
        assert_eq!(batched.sum(), one_by_one.sum());
        assert_eq!(batched.bucket_counts(), one_by_one.bucket_counts());
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let r = Registry::new();
        r.counter("b.count").add(2);
        r.counter("a.count").add(1);
        r.gauge("c.depth").set(7);
        let json = r.snapshot().to_json();
        let a = json.find("\"a.count\"").unwrap();
        let b = json.find("\"b.count\"").unwrap();
        let c = json.find("\"c.depth\"").unwrap();
        assert!(a < b && b < c, "keys not sorted in {json}");
        assert_eq!(json, r.snapshot().to_json());
    }

    #[test]
    fn counter_sum_rolls_up_prefix() {
        let r = Registry::new();
        r.counter("port.0.trimmed").add(2);
        r.counter("port.1.trimmed").add(3);
        r.counter("portal.trimmed").add(100); // different prefix
        let snap = r.snapshot();
        assert_eq!(snap.counter_sum("port."), 5);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let r1 = Registry::new();
        r1.counter("n").add(2);
        r1.gauge("g").set(5);
        let r2 = Registry::new();
        r2.counter("n").add(3);
        r2.gauge("g").set(4);
        r2.counter("only2").add(1);
        let mut snap = r1.snapshot();
        snap.merge(&r2.snapshot());
        assert_eq!(snap.counter("n"), 5);
        assert_eq!(snap.gauge("g"), 5);
        assert_eq!(snap.counter("only2"), 1);
    }

    #[test]
    fn json_escapes_control_and_quote_chars() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn scoped_registry_prefixes_names_and_shares_the_table() {
        let r = Registry::new();
        let t0 = r.scoped("tenant.job0");
        let t1 = r.scoped("tenant.job1");
        t0.counter("steps").add(3);
        t1.counter("steps").add(5);
        r.counter("fabric.events").inc();
        let snap = r.snapshot();
        assert_eq!(snap.counter("tenant.job0.steps"), 3);
        assert_eq!(snap.counter("tenant.job1.steps"), 5);
        assert_eq!(snap.counter("fabric.events"), 1);
        // A scoped handle's snapshot still sees the whole shared table.
        assert_eq!(t0.snapshot(), snap);
    }

    #[test]
    fn scopes_nest() {
        let r = Registry::new();
        let inner = r.scoped("tenant.job2").scoped("collective");
        assert_eq!(inner.prefix(), "tenant.job2.collective.");
        inner.counter("rank.0.bytes_sent").add(7);
        assert_eq!(
            r.snapshot()
                .counter("tenant.job2.collective.rank.0.bytes_sent"),
            7
        );
    }

    #[test]
    fn scoped_and_unscoped_same_leaf_name_stay_distinct() {
        let r = Registry::new();
        r.counter("steps").add(1);
        r.scoped("t").counter("steps").add(2);
        let snap = r.snapshot();
        assert_eq!(snap.counter("steps"), 1);
        assert_eq!(snap.counter("t.steps"), 2);
    }

    #[test]
    fn quantile_of_empty_histogram_is_zero() {
        assert_eq!(Histogram::new().quantile(0.5), 0.0);
        assert_eq!(histogram_quantile(0, &[], 0.99), 0.0);
    }

    #[test]
    fn quantile_interpolates_within_a_bucket() {
        let h = Histogram::new();
        // 100 observations, all in bucket 6 ([64, 128)).
        for _ in 0..100 {
            h.record(64);
        }
        // target = q·100 observations into a 64-wide bucket starting at 64.
        assert_eq!(h.quantile(0.5), 64.0 + 64.0 * 0.5);
        assert_eq!(h.quantile(1.0), 128.0);
        // q = 0 clamps to rank 1.
        assert_eq!(h.quantile(0.0), 64.0 + 64.0 * 0.01);
    }

    #[test]
    fn quantile_walks_across_buckets() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(2); // bucket 1: [2, 4)
        }
        for _ in 0..10 {
            h.record(1000); // bucket 9: [512, 1024)
        }
        assert!(h.quantile(0.5) < 4.0);
        let p99 = h.quantile(0.99);
        assert!((512.0..=1024.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn snapshot_quantile_reads_captured_histograms() {
        let r = Registry::new();
        let h = r.histogram("step_ns");
        for v in [10, 20, 30, 40] {
            h.record(v);
        }
        let snap = r.snapshot();
        assert!(snap.quantile("step_ns", 0.5) > 0.0);
        assert_eq!(snap.quantile("missing", 0.5), 0.0);
    }

    #[test]
    fn time_series_stores_counter_deltas_and_gauge_levels() {
        let r = Registry::new();
        let c = r.counter("sent");
        let g = r.gauge("depth");
        let mut ts = TimeSeries::new(8);
        c.add(5);
        g.set(3);
        ts.sample(1_000, &r.snapshot());
        c.add(2);
        g.set(9);
        ts.sample(2_000, &r.snapshot());
        assert_eq!(ts.series("sent"), vec![(1_000, 5.0), (2_000, 2.0)]);
        assert_eq!(ts.series("depth"), vec![(1_000, 3.0), (2_000, 9.0)]);
    }

    #[test]
    fn time_series_histogram_deltas_cover_the_interval_only() {
        let r = Registry::new();
        let h = r.histogram("step_ns");
        let mut ts = TimeSeries::new(8);
        h.record(100);
        ts.sample(1, &r.snapshot());
        h.record(100);
        h.record(200);
        ts.sample(2, &r.snapshot());
        let points: Vec<_> = ts.points().collect();
        match points[1].get("step_ns") {
            Some(MetricValue::Histogram { count, sum, .. }) => {
                assert_eq!(*count, 2);
                assert_eq!(*sum, 300);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn time_series_ring_drops_oldest_at_capacity() {
        let r = Registry::new();
        let c = r.counter("n");
        let mut ts = TimeSeries::new(2);
        for t in 0..5u64 {
            c.inc();
            ts.sample(t, &r.snapshot());
        }
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.dropped_oldest(), 3);
        let ats: Vec<u64> = ts.points().map(|p| p.at_ns).collect();
        assert_eq!(ats, vec![3, 4]);
    }

    #[test]
    fn time_series_json_and_digest_are_stable() {
        let build = || {
            let r = Registry::new();
            let mut ts = TimeSeries::new(4);
            r.counter("a").add(1);
            r.float_gauge("loss").set(0.5);
            ts.sample(10, &r.snapshot());
            r.counter("a").add(2);
            ts.sample(20, &r.snapshot());
            ts
        };
        let (t1, t2) = (build(), build());
        assert_eq!(t1.to_json(), t2.to_json());
        assert_eq!(t1.digest(), t2.digest());
        assert!(t1.to_json().contains("\"at_ns\":10"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn snapshots_of_equal_histories_are_byte_identical(
            adds in proptest::collection::vec((0usize..8, 1u64..1000), 1..50)
        ) {
            let build = || {
                let r = Registry::new();
                for (slot, n) in &adds {
                    r.counter(&format!("k.{slot}")).add(*n);
                }
                r.snapshot()
            };
            let (s1, s2) = (build(), build());
            prop_assert_eq!(&s1, &s2);
            prop_assert_eq!(s1.to_json(), s2.to_json());
        }

        #[test]
        fn quantile_estimate_lands_in_the_exact_values_bucket(
            values in proptest::collection::vec(0u64..1_000_000, 1..300),
            qs in proptest::collection::vec(0.0f64..=1.0, 1..8)
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut values = values;
            values.sort_unstable();
            let n = values.len();
            for &q in &qs {
                // Exact oracle: nearest rank ⌈q·n⌉ (min 1) over the sorted
                // values.
                let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
                let exact = values[rank - 1];
                let est = h.quantile(q);
                // The estimate interpolates inside the log2 bucket that
                // contains the exact observation, so it must respect that
                // bucket's bounds.
                let idx = if exact <= 1 {
                    0
                } else {
                    63 - exact.leading_zeros() as usize
                };
                let (lo, hi) = (histogram_bucket_lo(idx), histogram_bucket_hi(idx));
                prop_assert!(
                    est >= lo && est <= hi,
                    "q={q} exact={exact} est={est} bucket=[{lo},{hi}]"
                );
            }
        }

        #[test]
        fn histogram_count_matches_observations(
            values in proptest::collection::vec(0u64..1_000_000, 0..200)
        ) {
            let h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            prop_assert_eq!(h.count(), values.len() as u64);
            prop_assert_eq!(h.sum(), values.iter().sum::<u64>());
            let total: u64 = h.bucket_counts().iter().sum();
            prop_assert_eq!(total, values.len() as u64);
        }
    }
}
