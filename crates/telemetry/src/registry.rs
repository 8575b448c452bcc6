//! The sim-time metrics registry: counters, gauges, and log-bucketed
//! mergeable histograms, keyed by a typed [`MetricId`].
//!
//! This is the simulator's one metrics registry, the instrumentation
//! substrate its subsystems write into while a run executes: every hook site
//! names its metric with a `(subsystem, name[, label])` triple so collisions
//! are impossible and reports group naturally. All state is ordinary
//! `BTreeMap`s, so snapshots serialize in sorted key order and two runs of
//! the same simulation produce byte-identical JSON.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Content, Serialize};

/// The subsystem a metric belongs to. The variant order fixes the sorted
/// report order (simnet first, then the layers above it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Subsystem {
    /// The simulated ICI network and event queues.
    Simnet,
    /// Collective schedules (ring phases, 2-D summation).
    Collectives,
    /// Trainer / executor step loop.
    Core,
    /// Host input pipeline.
    Input,
    /// Checkpoint save/restore traffic.
    Ckpt,
    /// The deferred task-graph scheduler (comm/compute overlap).
    Sched,
    /// The multi-tenant pod scheduler (slices, gang scheduling,
    /// preemption).
    Pod,
    /// Online serving (query batching, embedding cache, request
    /// latency phases, RL actor rounds).
    Serve,
}

impl Subsystem {
    /// Stable lowercase label used in rendered metric names.
    pub fn label(self) -> &'static str {
        match self {
            Subsystem::Simnet => "simnet",
            Subsystem::Collectives => "collectives",
            Subsystem::Core => "core",
            Subsystem::Input => "input",
            Subsystem::Ckpt => "ckpt",
            Subsystem::Sched => "sched",
            Subsystem::Pod => "pod",
            Subsystem::Serve => "serve",
        }
    }
}

/// Typed metric key: a subsystem, a static metric name, and an optional
/// dynamic label (e.g. a collective phase name).
///
/// ```
/// use multipod_telemetry::{MetricId, Subsystem};
///
/// let plain = MetricId::new(Subsystem::Simnet, "transfers");
/// assert_eq!(plain.render(), "simnet.transfers");
/// let labeled = MetricId::labeled(Subsystem::Collectives, "phase_seconds", "y-reduce-scatter");
/// assert_eq!(labeled.render(), "collectives.phase_seconds{y-reduce-scatter}");
/// ```
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MetricId {
    /// Owning subsystem.
    pub subsystem: Subsystem,
    /// Metric name within the subsystem.
    pub name: &'static str,
    /// Optional instance label (phase name, link class, …).
    pub label: Option<String>,
}

impl MetricId {
    /// An unlabeled metric id.
    pub const fn new(subsystem: Subsystem, name: &'static str) -> MetricId {
        MetricId {
            subsystem,
            name,
            label: None,
        }
    }

    /// A labeled metric id.
    pub fn labeled(subsystem: Subsystem, name: &'static str, label: impl Into<String>) -> MetricId {
        MetricId {
            subsystem,
            name,
            label: Some(label.into()),
        }
    }

    /// Renders the id as `subsystem.name` or `subsystem.name{label}`.
    pub fn render(&self) -> String {
        match &self.label {
            Some(label) => format!("{}.{}{{{label}}}", self.subsystem.label(), self.name),
            None => format!("{}.{}", self.subsystem.label(), self.name),
        }
    }
}

impl fmt::Display for MetricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render())
    }
}

/// Bucket key for values that are zero, negative, or otherwise below every
/// power-of-two bucket.
const UNDERFLOW_BUCKET: i32 = i32::MIN;

/// Power-of-two-bucketed streaming histogram.
///
/// A positive value lands in the bucket keyed by its base-2 exponent
/// `floor(log2(v))`, extracted exactly from the f64 bit pattern — no
/// floating-point log, so bucketing is deterministic and
/// [`LogHistogram::merge`] is exact: bucket counts, `count`, `min`, and
/// `max` combine associatively and commutatively regardless of how an
/// observation stream was split. (`sum` is a float accumulation and is
/// only reproducible for a fixed observation order.)
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogHistogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations (order-sensitive float accumulation).
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Observation count per base-2 exponent bucket.
    pub buckets: BTreeMap<i32, u64>,
}

/// `floor(log2(value))` for positive finite values, from the exponent bits.
/// Subnormals and non-positive values map to the underflow bucket.
fn bucket_of(value: f64) -> i32 {
    if value <= 0.0 || !value.is_finite() {
        return UNDERFLOW_BUCKET;
    }
    let biased = ((value.to_bits() >> 52) & 0x7ff) as i32;
    if biased == 0 {
        UNDERFLOW_BUCKET // subnormal
    } else {
        biased - 1023
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
    }

    /// Folds another histogram into this one. Bucket counts, `count`,
    /// `min`, and `max` merge exactly; `sum` adds in float.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (&bucket, &n) in &other.buckets {
            *self.buckets.entry(bucket).or_insert(0) += n;
        }
    }

    /// Mean observation, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

impl Serialize for LogHistogram {
    fn ser(&self) -> Content {
        let buckets = self
            .buckets
            .iter()
            .map(|(&exp, &n)| {
                let key = if exp == UNDERFLOW_BUCKET {
                    "underflow".to_string()
                } else {
                    format!("2^{exp}")
                };
                (key, Content::U64(n))
            })
            .collect();
        Content::Map(vec![
            ("count".to_string(), Content::U64(self.count)),
            ("sum".to_string(), Content::F64(self.sum)),
            ("min".to_string(), Content::F64(self.min)),
            ("max".to_string(), Content::F64(self.max)),
            ("buckets".to_string(), Content::Map(buckets)),
        ])
    }
}

/// Snapshot of counters, gauges, and histograms keyed by [`MetricId`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<MetricId, u64>,
    gauges: BTreeMap<MetricId, f64>,
    histograms: BTreeMap<MetricId, LogHistogram>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Adds `by` to a counter, creating it at zero.
    pub fn inc_counter(&mut self, id: MetricId, by: u64) {
        *self.counters.entry(id).or_insert(0) += by;
    }

    /// Current counter value (0 when absent).
    pub fn counter(&self, id: &MetricId) -> u64 {
        self.counters.get(id).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        self.gauges.insert(id, value);
    }

    /// Current gauge value.
    pub fn gauge(&self, id: &MetricId) -> Option<f64> {
        self.gauges.get(id).copied()
    }

    /// Records one observation into a histogram, creating it on first use.
    pub fn observe(&mut self, id: MetricId, value: f64) {
        self.histograms.entry(id).or_default().observe(value);
    }

    /// A histogram by id.
    pub fn histogram(&self, id: &MetricId) -> Option<&LogHistogram> {
        self.histograms.get(id)
    }

    /// Sorted counter entries.
    pub fn counters(&self) -> impl Iterator<Item = (&MetricId, u64)> {
        self.counters.iter().map(|(k, &v)| (k, v))
    }

    /// Sorted gauge entries.
    pub fn gauges(&self) -> impl Iterator<Item = (&MetricId, f64)> {
        self.gauges.iter().map(|(k, &v)| (k, v))
    }

    /// Sorted histogram entries.
    pub fn histograms(&self) -> impl Iterator<Item = (&MetricId, &LogHistogram)> {
        self.histograms.iter()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds another registry into this one: counters add, gauges take the
    /// other's value, histograms merge per [`LogHistogram::merge`].
    pub fn merge(&mut self, other: &Registry) {
        for (id, &value) in &other.counters {
            *self.counters.entry(id.clone()).or_insert(0) += value;
        }
        for (id, &value) in &other.gauges {
            self.gauges.insert(id.clone(), value);
        }
        for (id, hist) in &other.histograms {
            self.histograms.entry(id.clone()).or_default().merge(hist);
        }
    }
}

impl Serialize for Registry {
    fn ser(&self) -> Content {
        let counters = self
            .counters
            .iter()
            .map(|(id, &v)| (id.render(), Content::U64(v)))
            .collect();
        let gauges = self
            .gauges
            .iter()
            .map(|(id, &v)| (id.render(), Content::F64(v)))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(id, h)| (id.render(), h.ser()))
            .collect();
        Content::Map(vec![
            ("counters".to_string(), Content::Map(counters)),
            ("gauges".to_string(), Content::Map(gauges)),
            ("histograms".to_string(), Content::Map(histograms)),
        ])
    }
}

/// Shared, thread-safe handle the subsystems write metrics through.
///
/// Instrumented code reaches it through the [`crate::Obs`] handle it
/// carries; each hook site locks briefly, records, and unlocks.
/// [`Telemetry::snapshot`] clones the registry out for reporting.
#[derive(Debug, Default)]
pub struct Telemetry {
    inner: Mutex<Registry>,
}

impl Telemetry {
    /// A fresh, empty telemetry sink.
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// A fresh sink behind an `Arc`, ready to share across subsystems.
    pub fn shared() -> Arc<Telemetry> {
        Arc::new(Telemetry::new())
    }

    /// The registry, locked. A holder panicking mid-record leaves at worst
    /// one sample half-counted, which a report can still carry, so a
    /// poisoned lock is taken as it is.
    fn registry(&self) -> MutexGuard<'_, Registry> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Adds `by` to a counter.
    pub fn inc_counter(&self, id: MetricId, by: u64) {
        self.registry().inc_counter(id, by);
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, id: MetricId, value: f64) {
        self.registry().set_gauge(id, value);
    }

    /// Records a histogram observation.
    pub fn observe(&self, id: MetricId, value: f64) {
        self.registry().observe(id, value);
    }

    /// Clones the current registry state out.
    pub fn snapshot(&self) -> Registry {
        self.registry().clone()
    }

    /// Discards all recorded metrics.
    pub fn clear(&self) {
        *self.registry() = Registry::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_id_renders() {
        assert_eq!(
            MetricId::new(Subsystem::Core, "steps").render(),
            "core.steps"
        );
        assert_eq!(
            MetricId::labeled(Subsystem::Collectives, "phase_bytes", "x-all-gather").render(),
            "collectives.phase_bytes{x-all-gather}"
        );
    }

    #[test]
    fn bucket_of_is_floor_log2() {
        assert_eq!(bucket_of(1.0), 0);
        assert_eq!(bucket_of(1.5), 0);
        assert_eq!(bucket_of(2.0), 1);
        assert_eq!(bucket_of(0.5), -1);
        assert_eq!(bucket_of(3e-6), -19);
        assert_eq!(bucket_of(0.0), UNDERFLOW_BUCKET);
        assert_eq!(bucket_of(-4.0), UNDERFLOW_BUCKET);
    }

    #[test]
    fn histogram_observes_and_merges() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        a.observe(1.0);
        a.observe(3.0);
        b.observe(0.25);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.min, 0.25);
        assert_eq!(a.max, 3.0);
        assert_eq!(a.buckets[&0], 1);
        assert_eq!(a.buckets[&1], 1);
        assert_eq!(a.buckets[&-2], 1);
        assert_eq!(a.mean(), Some((1.0 + 3.0 + 0.25) / 3.0));
    }

    #[test]
    fn registry_records_and_merges() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let steps = MetricId::new(Subsystem::Core, "steps");
        let util = MetricId::new(Subsystem::Simnet, "utilization");
        let lat = MetricId::new(Subsystem::Simnet, "queueing_delay_seconds");
        a.inc_counter(steps.clone(), 2);
        b.inc_counter(steps.clone(), 3);
        b.set_gauge(util.clone(), 0.75);
        a.observe(lat.clone(), 1e-6);
        b.observe(lat.clone(), 2e-6);
        a.merge(&b);
        assert_eq!(a.counter(&steps), 5);
        assert_eq!(a.gauge(&util), Some(0.75));
        assert_eq!(a.histogram(&lat).unwrap().count, 2);
    }

    #[test]
    fn telemetry_sink_snapshots() {
        let t = Telemetry::shared();
        let id = MetricId::new(Subsystem::Input, "stalled_steps");
        t.inc_counter(id.clone(), 4);
        t.observe(MetricId::new(Subsystem::Input, "stall_seconds"), 5e-4);
        let snap = t.snapshot();
        assert_eq!(snap.counter(&id), 4);
        t.clear();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn registry_serializes_deterministically() {
        let mut r = Registry::new();
        r.inc_counter(MetricId::new(Subsystem::Simnet, "transfers"), 7);
        r.set_gauge(MetricId::new(Subsystem::Core, "throughput"), 2.5);
        r.observe(MetricId::new(Subsystem::Ckpt, "save_seconds"), 0.125);
        let a = serde_json::to_string(&r).unwrap();
        let b = serde_json::to_string(&r.clone()).unwrap();
        assert_eq!(a, b);
        assert!(a.contains("simnet.transfers"));
        assert!(a.contains("2^-3"));
    }
}
