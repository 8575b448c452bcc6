//! The one observability handle product code carries.

use std::fmt;
use std::sync::Arc;

use multipod_trace::{SpanEvent, TraceSink};

use crate::registry::{MetricId, Telemetry};

/// Where an instrumented component sends what it observes: an optional
/// trace sink (spans, link events) and an optional metrics registry.
///
/// The default is **off** — both halves `None` — and an off handle costs a
/// branch per hook: no allocation, no lock, no virtual call, and
/// [`Obs::span`] never runs its closure. Owners (`Network`, the pod
/// scheduler, the serving tier) hold one by value and hand clones to what
/// they build, so one recorder and one registry see a whole run.
#[derive(Clone, Default)]
pub struct Obs {
    trace: Option<Arc<dyn TraceSink>>,
    metrics: Option<Arc<Telemetry>>,
}

impl Obs {
    /// A handle delivering spans and link events to `trace` and metrics to
    /// `metrics`; either half may be absent.
    pub fn new(trace: Option<Arc<dyn TraceSink>>, metrics: Option<Arc<Telemetry>>) -> Obs {
        Obs { trace, metrics }
    }

    /// The trace sink, if attached. Hooks that emit several events, or
    /// compute anything only a trace needs, guard on this.
    pub fn sink(&self) -> Option<&dyn TraceSink> {
        self.trace.as_deref()
    }

    /// The metrics registry, if attached. Hooks that build a labeled
    /// [`MetricId`] (a `String`) guard on this.
    pub fn metrics(&self) -> Option<&Telemetry> {
        self.metrics.as_deref()
    }

    /// This handle's registry without its sink — for a network whose
    /// per-link events would drown the trace its owner writes.
    pub fn metrics_only(&self) -> Obs {
        Obs::new(None, self.metrics.clone())
    }

    /// Whether nothing is attached.
    pub fn is_off(&self) -> bool {
        self.trace.is_none() && self.metrics.is_none()
    }

    /// Records the span `build` returns; `build` runs only when a sink is
    /// attached.
    pub fn span(&self, build: impl FnOnce() -> SpanEvent) {
        if let Some(sink) = &self.trace {
            sink.record_span(build());
        }
    }

    /// Adds `by` to a counter when a registry is attached.
    pub fn count(&self, id: MetricId, by: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.inc_counter(id, by);
        }
    }

    /// Records a histogram observation when a registry is attached.
    pub fn observe(&self, id: MetricId, value: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.observe(id, value);
        }
    }

    /// Sets a gauge when a registry is attached.
    pub fn gauge(&self, id: MetricId, value: f64) {
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge(id, value);
        }
    }
}

impl fmt::Debug for Obs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Obs")
            .field("traced", &self.trace.is_some())
            .field("metered", &self.metrics.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Subsystem;
    use multipod_trace::{Recorder, SimTime, SpanCategory, Track};

    fn span() -> SpanEvent {
        SpanEvent::new(
            Track::Sim,
            SpanCategory::Step,
            "s",
            SimTime::ZERO,
            SimTime::ZERO,
        )
    }

    #[test]
    fn default_is_off_and_never_builds_a_span() {
        let obs = Obs::default();
        assert!(obs.is_off());
        assert!(obs.sink().is_none() && obs.metrics().is_none());
        obs.span(|| unreachable!("an off handle must not build spans"));
        // Metrics-only is still span-free.
        let metered = Obs::new(None, Some(Telemetry::shared()));
        assert!(!metered.is_off());
        metered.span(|| unreachable!("no sink attached"));
    }

    #[test]
    fn each_half_receives_only_its_own_events() {
        let recorder = Recorder::shared();
        let telemetry = Telemetry::shared();
        let id = MetricId::new(Subsystem::Core, "steps");
        let traced = Obs::new(Some(recorder.clone()), None);
        traced.span(span);
        traced.count(id.clone(), 1);
        assert_eq!(recorder.len(), 1);
        let both = Obs::new(Some(recorder.clone()), Some(telemetry.clone()));
        both.span(span);
        both.count(id.clone(), 2);
        both.observe(MetricId::new(Subsystem::Core, "step_seconds"), 0.5);
        assert_eq!(recorder.len(), 2);
        assert_eq!(telemetry.snapshot().counter(&id), 2);
    }
}
