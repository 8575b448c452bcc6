//! The streamed Chrome export against the exporter it replaced.
//!
//! `oracle` below is the earlier exporter, kept verbatim: it built a
//! `serde_json::Value` tree of every event (and of a string-keyed metrics
//! registry for `otherData`) and serialized the tree. The streamed
//! [`write_chrome_trace`] must produce exactly the bytes
//! `serde_json::to_string` gave for that tree, on every kind of track,
//! link class and span category, on names that need escaping, and on the
//! empty log.

use multipod_trace::{
    write_chrome_trace, LinkClass, LinkTransferEvent, Recorder, SimTime, SpanCategory, SpanEvent,
    TraceEvent, TraceSink, Track,
};
use proptest::prelude::*;
use proptest::{collection, sample};

mod oracle {
    use std::collections::BTreeMap;

    use multipod_trace::{Recorder, TraceEvent, Track};
    use serde::Serialize;
    use serde_json::{json, Value};

    /// Process id of the whole-simulation track.
    const SIM_PID: u64 = 1;
    /// Process id of the interconnect.
    const NETWORK_PID: u64 = 2;
    /// Process id of the input hosts.
    const HOST_PID: u64 = 3;
    /// First pod process id (pod `p` gets `POD_PID_BASE + p`).
    const POD_PID_BASE: u64 = 10;
    /// Directed link `src → dst` gets thread id `src * LINK_TID_STRIDE + dst`.
    const LINK_TID_STRIDE: u64 = 1 << 20;

    fn track_ids(track: &Track) -> (u64, u64) {
        match *track {
            Track::Sim => (SIM_PID, 1),
            Track::Pod { pod } => (POD_PID_BASE + pod as u64, 0),
            Track::Chip { pod, chip } => (POD_PID_BASE + pod as u64, 1 + chip as u64),
            Track::Link { src, dst } => (NETWORK_PID, src as u64 * LINK_TID_STRIDE + dst as u64),
            Track::Host { host } => (HOST_PID, 1 + host as u64),
        }
    }

    fn track_names(track: &Track) -> (String, String) {
        match *track {
            Track::Sim => ("simulation".to_string(), "timeline".to_string()),
            Track::Pod { pod } => (format!("pod{pod}"), "schedule".to_string()),
            Track::Chip { pod, chip } => (format!("pod{pod}"), format!("chip{chip}")),
            Track::Link { src, dst } => ("network".to_string(), format!("link {src}->{dst}")),
            Track::Host { host } => ("input-hosts".to_string(), format!("host{host}")),
        }
    }

    /// Histogram bucket upper bounds, in seconds — decades from 1 µs to 10 s.
    /// Values above the last bound land in a final overflow bucket.
    const BUCKET_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

    /// Streaming histogram with decade buckets plus count/sum/min/max.
    #[derive(Clone, Debug, PartialEq, Serialize)]
    struct Histogram {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
        buckets: Vec<u64>,
    }

    impl Default for Histogram {
        fn default() -> Histogram {
            Histogram {
                count: 0,
                sum: 0.0,
                min: 0.0,
                max: 0.0,
                buckets: vec![0; BUCKET_BOUNDS.len() + 1],
            }
        }
    }

    impl Histogram {
        fn observe(&mut self, value: f64) {
            if self.count == 0 {
                self.min = value;
                self.max = value;
            } else {
                self.min = self.min.min(value);
                self.max = self.max.max(value);
            }
            self.count += 1;
            self.sum += value;
            let bucket = BUCKET_BOUNDS
                .iter()
                .position(|&bound| value <= bound)
                .unwrap_or(BUCKET_BOUNDS.len());
            self.buckets[bucket] += 1;
        }
    }

    /// Named counters, gauges, and histograms.
    #[derive(Clone, Debug, Default, PartialEq, Serialize)]
    struct MetricsRegistry {
        counters: BTreeMap<String, u64>,
        gauges: BTreeMap<String, f64>,
        histograms: BTreeMap<String, Histogram>,
    }

    impl MetricsRegistry {
        fn inc_counter(&mut self, name: &str, by: u64) {
            *self.counters.entry(name.to_string()).or_insert(0) += by;
        }

        fn set_gauge(&mut self, name: &str, value: f64) {
            self.gauges.insert(name.to_string(), value);
        }

        fn observe(&mut self, name: &str, value: f64) {
            self.histograms
                .entry(name.to_string())
                .or_default()
                .observe(value);
        }
    }

    /// The canonical metrics view of everything recorded.
    fn metrics(recorder: &Recorder) -> MetricsRegistry {
        let mut registry = MetricsRegistry::default();
        let horizon = recorder.horizon_seconds();
        registry.set_gauge("trace.horizon_seconds", horizon);
        registry.inc_counter("trace.events", recorder.len() as u64);
        for link in recorder.link_summaries() {
            let key = format!("link.{}->{}", link.src, link.dst);
            registry.set_gauge(&format!("{key}.bytes"), link.bytes as f64);
            registry.set_gauge(&format!("{key}.busy_seconds"), link.busy_seconds);
            registry.set_gauge(&format!("{key}.utilization"), link.utilization(horizon));
            registry.inc_counter(
                &format!("link.class.{}.bytes", link.class.label()),
                link.bytes,
            );
            registry.observe("link.busy_seconds", link.busy_seconds);
        }
        for span in recorder.span_totals() {
            let key = format!("span.{}.{}", span.category.label(), span.name);
            registry.set_gauge(&format!("{key}.seconds"), span.total_seconds);
            registry.inc_counter(&format!("{key}.count"), span.count);
        }
        registry
    }

    /// The recorder's events as a Chrome trace with the metrics summary
    /// embedded under `otherData`.
    pub fn chrome_trace(recorder: &Recorder) -> Result<Value, serde_json::Error> {
        let events = recorder.events().to_vec();
        chrome_trace_with_metrics(&events, Some(&metrics(recorder)))
    }

    fn chrome_trace_with_metrics(
        events: &[TraceEvent],
        metrics: Option<&MetricsRegistry>,
    ) -> Result<Value, serde_json::Error> {
        struct Row {
            ts: f64,
            dur: f64,
            pid: u64,
            tid: u64,
            value: Value,
        }

        let mut names: BTreeMap<(u64, u64), (String, String)> = BTreeMap::new();
        let mut rows: Vec<Row> = Vec::with_capacity(events.len());
        for event in events {
            let ts = event.start().micros();
            let dur = (event.end() - event.start()) * 1e6;
            let (track, value) = match event {
                TraceEvent::Link(e) => {
                    let track = Track::Link {
                        src: e.src,
                        dst: e.dst,
                    };
                    let (pid, tid) = track_ids(&track);
                    let v = json!({
                        "name": e.class.label(),
                        "cat": "link",
                        "ph": "X",
                        "ts": ts,
                        "dur": dur,
                        "pid": pid,
                        "tid": tid,
                        "args": json!({
                            "src": e.src,
                            "dst": e.dst,
                            "bytes": e.bytes
                        })
                    });
                    (track, v)
                }
                TraceEvent::Span(s) => {
                    let (pid, tid) = track_ids(&s.track);
                    let mut args: Vec<(String, Value)> = Vec::with_capacity(1 + s.args.len());
                    if s.bytes > 0 {
                        args.push(("bytes".to_string(), serde_json::to_value(&s.bytes)?));
                    }
                    for (key, val) in &s.args {
                        args.push((key.clone(), serde_json::to_value(val)?));
                    }
                    let v = json!({
                        "name": s.name.as_str(),
                        "cat": s.category.label(),
                        "ph": "X",
                        "ts": ts,
                        "dur": dur,
                        "pid": pid,
                        "tid": tid,
                        "args": Value::Map(args)
                    });
                    (s.track, v)
                }
            };
            let (pid, tid) = track_ids(&track);
            names
                .entry((pid, tid))
                .or_insert_with(|| track_names(&track));
            rows.push(Row {
                ts,
                dur,
                pid,
                tid,
                value,
            });
        }

        // `total_cmp` gives a total order even for pathological (NaN) values,
        // so the deterministic sort cannot panic.
        rows.sort_by(|a, b| {
            a.ts.total_cmp(&b.ts)
                .then(a.pid.cmp(&b.pid))
                .then(a.tid.cmp(&b.tid))
                .then(a.dur.total_cmp(&b.dur))
        });

        let mut trace_events: Vec<Value> = Vec::with_capacity(rows.len() + 2 * names.len());
        for (&(pid, tid), (process, thread)) in &names {
            trace_events.push(json!({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": json!({"name": process.as_str()})
            }));
            trace_events.push(json!({
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": tid,
                "args": json!({"name": thread.as_str()})
            }));
        }
        trace_events.extend(rows.into_iter().map(|r| r.value));

        let mut top: Vec<(String, Value)> = vec![
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
            ("traceEvents".to_string(), Value::Seq(trace_events)),
        ];
        if let Some(metrics) = metrics {
            top.push(("otherData".to_string(), serde_json::to_value(metrics)?));
        }
        Ok(Value::Map(top))
    }
}

const CLASSES: [LinkClass; 5] = [
    LinkClass::MeshX,
    LinkClass::MeshY,
    LinkClass::WrapY,
    LinkClass::CrossPod,
    LinkClass::Unknown,
];

const CATEGORIES: [SpanCategory; 10] = [
    SpanCategory::Collective,
    SpanCategory::CollectivePhase,
    SpanCategory::Step,
    SpanCategory::StepPhase,
    SpanCategory::Optimizer,
    SpanCategory::Input,
    SpanCategory::Fault,
    SpanCategory::Checkpoint,
    SpanCategory::Sched,
    SpanCategory::Serve,
];

const TRACKS: [Track; 5] = [
    Track::Sim,
    Track::Pod { pod: 1 },
    Track::Chip { pod: 0, chip: 3 },
    Track::Link { src: 2, dst: 5 },
    Track::Host { host: 4 },
];

/// The streamed export of `recorder`, checked against the oracle's bytes
/// and parsed back.
fn check(recorder: &Recorder) -> Result<String, TestCaseError> {
    let mut out = Vec::new();
    write_chrome_trace(&mut out, &recorder.events()).expect("writing to a Vec cannot fail");
    let streamed = String::from_utf8(out).expect("the export is UTF-8");
    let expected = serde_json::to_string(&oracle::chrome_trace(recorder).expect("oracle"))
        .expect("oracle serializes");
    prop_assert_eq!(&streamed, &expected);
    let parsed: Result<serde_json::Value, _> = serde_json::from_str(&streamed);
    prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
    Ok(streamed)
}

fn at(micros: u32, scale: f64) -> SimTime {
    SimTime::from_seconds(f64::from(micros) * scale)
}

#[test]
fn the_empty_log_has_an_empty_histogram_map() {
    let text = check(&Recorder::new()).expect("matches the oracle");
    assert_eq!(
        text,
        r#"{"displayTimeUnit":"ms","traceEvents":[],"otherData":{"counters":{"trace.events":0},"gauges":{"trace.horizon_seconds":0.0},"histograms":{}}}"#
    );
}

#[test]
fn every_track_class_and_category_exports_as_before() {
    let recorder = Recorder::new();
    for (i, class) in CLASSES.into_iter().enumerate() {
        let i = i as u32;
        recorder.record_link(LinkTransferEvent {
            src: i,
            dst: i + 1,
            class,
            bytes: u64::from(i) * 1000,
            start: at(i, 1e-6),
            end: at(2 * i, 1e-6),
        });
    }
    for (i, category) in CATEGORIES.into_iter().enumerate() {
        for track in TRACKS {
            recorder.record_span(
                SpanEvent::new(
                    track,
                    category,
                    format!("{}-{i}", category.label()),
                    at(i as u32, 3e-7),
                    at(i as u32 + 2, 3e-7),
                )
                .with_bytes(i as u64)
                .with_arg("alpha_seconds", 1e-6 * i as f64),
            );
        }
    }
    check(&recorder).expect("matches the oracle");
}

/// Names and keys drawn from quotes, backslashes, control characters and
/// non-ASCII text as well as plain letters.
fn text() -> impl Strategy<Value = String> {
    let alphabet = vec![
        'a', 'Z', '-', '.', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}',
        '\u{7f}', 'é', 'µ', '漢', '🙂',
    ];
    collection::vec(sample::select(alphabet), 0..6).prop_map(|cs| cs.into_iter().collect())
}

fn track() -> impl Strategy<Value = Track> {
    prop_oneof![
        Just(Track::Sim),
        (0u32..3).prop_map(|pod| Track::Pod { pod }),
        (0u32..2, 0u32..4).prop_map(|(pod, chip)| Track::Chip { pod, chip }),
        (0u32..4, 0u32..4).prop_map(|(src, dst)| Track::Link { src, dst }),
        (0u32..3).prop_map(|host| Track::Host { host }),
    ]
}

/// Start and end on a coarse grid, so ties and zero-length events are
/// common; the odd scale gives non-integral microseconds.
fn window() -> impl Strategy<Value = (SimTime, SimTime)> {
    (0u32..6, 0u32..3, sample::select(vec![1e-6, 3.7e-7, 0.25]))
        .prop_map(|(start, len, scale)| (at(start, scale), at(start + len, scale)))
}

fn bytes() -> impl Strategy<Value = u64> {
    sample::select(vec![0, 1, 2048, 1 << 50])
}

fn event() -> impl Strategy<Value = TraceEvent> {
    let link = (
        (0u32..4, 0u32..4),
        sample::select(CLASSES.to_vec()),
        bytes(),
        window(),
    )
        .prop_map(|((src, dst), class, bytes, (start, end))| {
            TraceEvent::Link(LinkTransferEvent {
                src,
                dst,
                class,
                bytes,
                start,
                end,
            })
        });
    let arg = sample::select(vec![0.0, 1.0, -2.5, 1e-7, 1e20, f64::NAN, f64::INFINITY]);
    let span = (
        (track(), sample::select(CATEGORIES.to_vec())),
        text(),
        bytes(),
        window(),
        collection::vec((text(), arg), 0..3),
    )
        .prop_map(|((track, category), name, bytes, (start, end), args)| {
            TraceEvent::Span(SpanEvent {
                track,
                category,
                name,
                start,
                end,
                bytes,
                args,
            })
        });
    prop_oneof![link, span]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streamed_bytes_equal_the_value_tree_bytes(events in collection::vec(event(), 0..40)) {
        let recorder = Recorder::new();
        for event in events {
            match event {
                TraceEvent::Link(e) => recorder.record_link(e),
                TraceEvent::Span(s) => recorder.record_span(s),
            }
        }
        check(&recorder)?;
    }
}
