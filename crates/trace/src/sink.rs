//! Trace sinks: where instrumentation hooks deliver events.

use std::collections::BTreeMap;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use serde::{Deserialize, Serialize};

use crate::event::{LinkClass, LinkTransferEvent, SpanCategory, SpanEvent, TraceEvent};

/// Receiver for trace events.
///
/// Instrumented code reaches its sink through the `multipod_telemetry::Obs`
/// handle it carries, which holds none by default, so the untraced hot
/// path pays only a branch — no allocation, no virtual call. [`NoopSink`]
/// exists for call sites that want a sink object unconditionally.
pub trait TraceSink: Send + Sync {
    /// Records one link-occupancy event.
    fn record_link(&self, event: LinkTransferEvent);

    /// Records one span.
    fn record_span(&self, event: SpanEvent);

    /// Whether events are actually kept; instrumentation may skip building
    /// expensive event payloads when `false`.
    fn is_enabled(&self) -> bool {
        true
    }
}

/// A sink that drops everything.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopSink;

impl TraceSink for NoopSink {
    fn record_link(&self, _event: LinkTransferEvent) {}

    fn record_span(&self, _event: SpanEvent) {}

    fn is_enabled(&self) -> bool {
        false
    }
}

/// Aggregated occupancy of one directed link.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkSummary {
    /// Source chip id.
    pub src: u32,
    /// Destination chip id.
    pub dst: u32,
    /// Link classification (of the first event seen on the link).
    pub class: LinkClass,
    /// Number of transfers that crossed the link.
    pub transfers: u64,
    /// Total payload bytes carried.
    pub bytes: u64,
    /// Total busy time, seconds.
    pub busy_seconds: f64,
}

impl LinkSummary {
    /// Busy fraction of the link over `horizon` seconds.
    pub fn utilization(&self, horizon: f64) -> f64 {
        if horizon > 0.0 {
            self.busy_seconds / horizon
        } else {
            0.0
        }
    }
}

/// Aggregated time of spans sharing a category and name.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanTotal {
    /// Span category.
    pub category: SpanCategory,
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total duration, seconds.
    pub total_seconds: f64,
    /// Total payload bytes attributed.
    pub bytes: u64,
}

/// A recording sink: appends events in arrival order (which the
/// single-threaded simulator makes deterministic), lends the log, and
/// aggregates it into per-link and per-span summaries on demand.
#[derive(Debug, Default)]
pub struct Recorder {
    events: Mutex<Vec<TraceEvent>>,
}

impl Recorder {
    /// An empty recorder.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// An empty recorder behind an [`Arc`], ready to hand to instrumented
    /// components.
    pub fn shared() -> Arc<Recorder> {
        Arc::new(Recorder::new())
    }

    /// The event log, locked. Every holder only pushes or reads whole
    /// events, so a lock poisoned by a panicking holder still guards a
    /// consistent log and is taken as it is.
    fn log(&self) -> MutexGuard<'_, Vec<TraceEvent>> {
        self.events.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.log().len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.log().is_empty()
    }

    /// Discards all recorded events.
    pub fn clear(&self) {
        self.log().clear();
    }

    /// The events in recording order, borrowed: the log stays locked
    /// until the returned guard drops. Hold it across no other call on
    /// this recorder — a second lock on the same thread never returns.
    pub fn events(&self) -> impl Deref<Target = [TraceEvent]> + '_ {
        Events(self.log())
    }

    /// Latest event end time, seconds (0 when empty). This is the horizon
    /// used for utilization fractions.
    pub fn horizon_seconds(&self) -> f64 {
        horizon_seconds(&self.log())
    }

    /// Per-directed-link aggregation, sorted by `(src, dst)`.
    pub fn link_summaries(&self) -> Vec<LinkSummary> {
        link_summaries(&self.log())
    }

    /// Span aggregation by `(category, name)`, sorted the same way.
    pub fn span_totals(&self) -> Vec<SpanTotal> {
        span_totals(&self.log())
    }
}

/// A locked log seen as the slice of its events.
struct Events<'a>(MutexGuard<'a, Vec<TraceEvent>>);

impl Deref for Events<'_> {
    type Target = [TraceEvent];

    fn deref(&self) -> &[TraceEvent] {
        &self.0
    }
}

/// See [`Recorder::horizon_seconds`].
pub(crate) fn horizon_seconds(events: &[TraceEvent]) -> f64 {
    events.iter().map(|e| e.end().seconds()).fold(0.0, f64::max)
}

/// See [`Recorder::link_summaries`].
pub(crate) fn link_summaries(events: &[TraceEvent]) -> Vec<LinkSummary> {
    let mut by_link: BTreeMap<(u32, u32), LinkSummary> = BTreeMap::new();
    for event in events {
        if let TraceEvent::Link(e) = event {
            let entry = by_link
                .entry((e.src, e.dst))
                .or_insert_with(|| LinkSummary {
                    src: e.src,
                    dst: e.dst,
                    class: e.class,
                    transfers: 0,
                    bytes: 0,
                    busy_seconds: 0.0,
                });
            entry.transfers += 1;
            entry.bytes += e.bytes;
            entry.busy_seconds += e.busy_seconds();
        }
    }
    by_link.into_values().collect()
}

/// See [`Recorder::span_totals`].
pub(crate) fn span_totals(events: &[TraceEvent]) -> Vec<SpanTotal> {
    let mut by_name: BTreeMap<(&'static str, &str), SpanTotal> = BTreeMap::new();
    for event in events {
        if let TraceEvent::Span(s) = event {
            let entry = by_name
                .entry((s.category.label(), &s.name))
                .or_insert_with(|| SpanTotal {
                    category: s.category,
                    name: s.name.clone(),
                    count: 0,
                    total_seconds: 0.0,
                    bytes: 0,
                });
            entry.count += 1;
            entry.total_seconds += s.seconds();
            entry.bytes += s.bytes;
        }
    }
    by_name.into_values().collect()
}

impl TraceSink for Recorder {
    fn record_link(&self, event: LinkTransferEvent) {
        self.log().push(TraceEvent::Link(event));
    }

    fn record_span(&self, event: SpanEvent) {
        self.log().push(TraceEvent::Span(event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Track;
    use crate::SimTime;

    fn link(src: u32, dst: u32, bytes: u64, start: f64, end: f64) -> LinkTransferEvent {
        LinkTransferEvent {
            src,
            dst,
            class: LinkClass::MeshY,
            bytes,
            start: SimTime::from_seconds(start),
            end: SimTime::from_seconds(end),
        }
    }

    #[test]
    fn noop_discards() {
        let sink = NoopSink;
        sink.record_link(link(0, 1, 10, 0.0, 1.0));
        assert!(!sink.is_enabled());
    }

    #[test]
    fn recorder_aggregates_links() {
        let r = Recorder::new();
        r.record_link(link(0, 1, 100, 0.0, 0.5));
        r.record_link(link(0, 1, 50, 0.5, 0.75));
        r.record_link(link(1, 2, 10, 0.0, 2.0));
        let summaries = r.link_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].bytes, 150);
        assert_eq!(summaries[0].transfers, 2);
        assert!((summaries[0].busy_seconds - 0.75).abs() < 1e-12);
        assert!((summaries[0].utilization(r.horizon_seconds()) - 0.375).abs() < 1e-12);
        assert_eq!(summaries[1].bytes, 10);
    }

    #[test]
    fn recorder_aggregates_spans() {
        let r = Recorder::new();
        for step in 0..3 {
            r.record_span(SpanEvent::new(
                Track::Sim,
                SpanCategory::Step,
                "train-step",
                SimTime::from_seconds(step as f64),
                SimTime::from_seconds(step as f64 + 0.5),
            ));
        }
        let totals = r.span_totals();
        assert_eq!(totals.len(), 1);
        assert_eq!(totals[0].count, 3);
        assert!((totals[0].total_seconds - 1.5).abs() < 1e-12);
    }
}
