//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! Every recorded event becomes a complete ("X") event with microsecond
//! `ts`/`dur`. Processes and threads follow one convention: each pod is a
//! process whose threads are chips; the interconnect is a
//! "network" process whose threads are directed links; input hosts get
//! their own process. Metadata ("M") events name them all, and a summary
//! of the same events goes under the (viewer-ignored) `otherData` key.
//! Output is fully deterministic: events are sorted by time/track and all
//! maps iterate in fixed order, so the same simulation always produces
//! byte-identical JSON.
//!
//! The document is written as it is produced: the exporter holds one `u32`
//! index per event and the per-track and per-link summaries, never a copy
//! of the events or of the text.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;

use crate::event::{TraceEvent, Track};
use crate::sink::{horizon_seconds, link_summaries, span_totals, Recorder};

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

/// Upper bounds, in seconds, of the decade buckets of the `otherData`
/// histogram of per-link busy time; a final bucket takes the rest.
const BUCKET_BOUNDS: [f64; 8] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

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

fn track_of(event: &TraceEvent) -> Track {
    match event {
        TraceEvent::Link(e) => Track::Link {
            src: e.src,
            dst: e.dst,
        },
        TraceEvent::Span(s) => s.track,
    }
}

/// `(ts, pid, tid, dur)`, the order events are exported in; times in
/// microseconds.
fn sort_key(event: &TraceEvent) -> (f64, u64, u64, f64) {
    let (pid, tid) = track_ids(&track_of(event));
    let ts = event.start().micros();
    (ts, pid, tid, (event.end() - event.start()) * 1e6)
}

/// Writes `events` as the Chrome trace-event object
/// `{"displayTimeUnit":"ms","traceEvents":[...],"otherData":{...}}`:
/// metadata rows naming every track, then the events sorted (stably) by
/// `(ts, pid, tid, dur)`, then a summary of the same events — per-link
/// bytes, busy time and utilization, per-class bytes, per-span-name time
/// and count, and a decade histogram of per-link busy time.
///
/// # Errors
///
/// The first error `out` returns, or [`io::ErrorKind::InvalidInput`] for
/// more than `u32::MAX` events.
pub fn write_chrome_trace(mut out: impl Write, events: &[TraceEvent]) -> io::Result<()> {
    let too_many = |_| io::Error::new(io::ErrorKind::InvalidInput, "more than 2^32 trace events");
    let mut order: Vec<u32> = (0..u32::try_from(events.len()).map_err(too_many)?).collect();
    // `total_cmp` gives a total order even for pathological (NaN) values,
    // so the deterministic sort cannot panic.
    order.sort_by(|&a, &b| {
        let (a, b) = (sort_key(&events[a as usize]), sort_key(&events[b as usize]));
        a.0.total_cmp(&b.0)
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
            .then(a.3.total_cmp(&b.3))
    });
    let mut tracks: BTreeMap<(u64, u64), Track> = BTreeMap::new();
    for event in events {
        let track = track_of(event);
        tracks.entry(track_ids(&track)).or_insert(track);
    }

    write!(out, r#"{{"displayTimeUnit":"ms","traceEvents":["#)?;
    let mut sep = "";
    for (&(pid, tid), track) in &tracks {
        let (process, thread) = track_names(track);
        for (kind, name) in [("process_name", process), ("thread_name", thread)] {
            write!(
                out,
                r#"{sep}{{"name":"{kind}","ph":"M","pid":{pid},"tid":{tid},"args":{{"name":{}}}}}"#,
                Str(&name)
            )?;
            sep = ",";
        }
    }
    for &i in &order {
        let event = &events[i as usize];
        let (ts, pid, tid, dur) = sort_key(event);
        let (name, cat) = match event {
            TraceEvent::Link(e) => (e.class.label(), "link"),
            TraceEvent::Span(s) => (s.name.as_str(), s.category.label()),
        };
        write!(
            out,
            r#"{sep}{{"name":{},"cat":{},"ph":"X","ts":{},"dur":{},"pid":{pid},"tid":{tid},"args":{{"#,
            Str(name),
            Str(cat),
            Num(ts),
            Num(dur)
        )?;
        sep = ",";
        match event {
            TraceEvent::Link(e) => write!(
                out,
                r#""src":{},"dst":{},"bytes":{}"#,
                e.src, e.dst, e.bytes
            )?,
            TraceEvent::Span(s) => {
                let mut sep = "";
                if s.bytes > 0 {
                    write!(out, r#""bytes":{}"#, s.bytes)?;
                    sep = ",";
                }
                for (key, value) in &s.args {
                    write!(out, "{sep}{}:{}", Str(key), Num(*value))?;
                    sep = ",";
                }
            }
        }
        write!(out, "}}}}")?;
    }
    write!(out, r#"],"otherData":"#)?;
    write_summary(&mut out, events)?;
    write!(out, "}}")
}

/// The `otherData` object: `counters` and `gauges` keyed by name in
/// string order, and the `link.busy_seconds` histogram when any link
/// carried traffic.
fn write_summary(out: &mut impl Write, events: &[TraceEvent]) -> io::Result<()> {
    let horizon = horizon_seconds(events);
    let mut counters = BTreeMap::from([("trace.events".to_string(), events.len() as u64)]);
    let mut gauges = BTreeMap::from([("trace.horizon_seconds".to_string(), horizon)]);
    let links = link_summaries(events);
    for link in &links {
        let key = format!("link.{}->{}", link.src, link.dst);
        gauges.insert(format!("{key}.bytes"), link.bytes as f64);
        gauges.insert(format!("{key}.busy_seconds"), link.busy_seconds);
        gauges.insert(format!("{key}.utilization"), link.utilization(horizon));
        let class = format!("link.class.{}.bytes", link.class.label());
        *counters.entry(class).or_insert(0) += link.bytes;
    }
    for span in span_totals(events) {
        let key = format!("span.{}.{}", span.category.label(), span.name);
        gauges.insert(format!("{key}.seconds"), span.total_seconds);
        *counters.entry(format!("{key}.count")).or_insert(0) += span.count;
    }

    write!(out, r#"{{"counters":{{"#)?;
    let mut sep = "";
    for (name, value) in &counters {
        write!(out, "{sep}{}:{value}", Str(name))?;
        sep = ",";
    }
    write!(out, r#"}},"gauges":{{"#)?;
    let mut sep = "";
    for (name, &value) in &gauges {
        write!(out, "{sep}{}:{}", Str(name), Num(value))?;
        sep = ",";
    }
    write!(out, r#"}},"histograms":{{"#)?;
    if !links.is_empty() {
        // Busy times are sums of `SimTime` differences, never NaN or -0.0,
        // so these folds equal a min/max seeded with the first link's.
        let busy = || links.iter().map(|l| l.busy_seconds);
        let mut buckets = [0u64; BUCKET_BOUNDS.len() + 1];
        for b in busy() {
            let bucket = BUCKET_BOUNDS.iter().position(|&bound| b <= bound);
            buckets[bucket.unwrap_or(BUCKET_BOUNDS.len())] += 1;
        }
        let buckets: Vec<String> = buckets.iter().map(u64::to_string).collect();
        write!(
            out,
            r#""link.busy_seconds":{{"count":{},"sum":{},"min":{},"max":{},"buckets":[{}]}}"#,
            links.len(),
            Num(busy().fold(0.0, |sum, b| sum + b)),
            Num(busy().fold(f64::INFINITY, f64::min)),
            Num(busy().fold(f64::NEG_INFINITY, f64::max)),
            buckets.join(",")
        )?;
    }
    write!(out, "}}}}")
}

/// A number the way the workspace's `serde_json` renders an `f64`: `null`
/// when not finite, `1.0` for an integral value below 1e15, the shortest
/// round-trip decimal otherwise.
struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if !v.is_finite() {
            f.write_str("null")
        } else if v == v.trunc() && v.abs() < 1e15 {
            write!(f, "{v:.1}")
        } else {
            write!(f, "{v}")
        }
    }
}

/// A JSON string: `"` and `\` escaped, `\n`, `\r` and `\t` by name, the
/// other control characters as `\u00XX`, everything else as UTF-8.
struct Str<'a>(&'a str);

impl fmt::Display for Str<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("\"")?;
        let mut plain = 0;
        for (i, b) in self.0.bytes().enumerate() {
            if b >= 0x20 && b != b'"' && b != b'\\' {
                continue;
            }
            f.write_str(&self.0[plain..i])?;
            match b {
                b'"' => f.write_str("\\\""),
                b'\\' => f.write_str("\\\\"),
                b'\n' => f.write_str("\\n"),
                b'\r' => f.write_str("\\r"),
                b'\t' => f.write_str("\\t"),
                _ => write!(f, "\\u{b:04x}"),
            }?;
            plain = i + 1;
        }
        f.write_str(&self.0[plain..])?;
        f.write_str("\"")
    }
}

impl Recorder {
    /// Writes this recorder's events to `path` with
    /// [`write_chrome_trace`], followed by a newline.
    pub fn write_chrome_trace(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        write_chrome_trace(&mut out, &self.events())?;
        out.write_all(b"\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{LinkClass, LinkTransferEvent, SpanCategory, SpanEvent};
    use crate::sink::TraceSink;
    use crate::SimTime;

    fn sample_recorder() -> Recorder {
        let r = Recorder::new();
        r.record_link(LinkTransferEvent {
            src: 0,
            dst: 1,
            class: LinkClass::MeshY,
            bytes: 2048,
            start: SimTime::from_seconds(1e-6),
            end: SimTime::from_seconds(3e-6),
        });
        r.record_span(
            SpanEvent::new(
                Track::Chip { pod: 0, chip: 1 },
                SpanCategory::CollectivePhase,
                "reduce-scatter-y",
                SimTime::ZERO,
                SimTime::from_seconds(5e-6),
            )
            .with_bytes(2048)
            .with_arg("alpha_seconds", 1e-6),
        );
        r
    }

    fn export(r: &Recorder) -> String {
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &r.events()).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn emits_metadata_then_sorted_events() {
        let trace: serde_json::Value = serde_json::from_str(&export(&sample_recorder())).unwrap();
        let Some(serde_json::Value::Seq(events)) = trace.get("traceEvents") else {
            panic!("traceEvents missing or wrong type: {trace:?}");
        };
        // 2 tracks × (process_name + thread_name) + 2 real events.
        assert_eq!(events.len(), 6);
        let phase = |e: &serde_json::Value| e.get("ph").cloned();
        assert_eq!(phase(&events[0]), Some(serde_json::Value::Str("M".into())));
        let complete: Vec<_> = events
            .iter()
            .filter(|e| phase(e) == Some(serde_json::Value::Str("X".into())))
            .collect();
        // Span starts at t=0, link at 1µs: sorted by ts.
        let name = |e: &serde_json::Value| e.get("name").cloned();
        assert_eq!(
            name(complete[0]),
            Some(serde_json::Value::Str("reduce-scatter-y".into()))
        );
        assert_eq!(
            name(complete[1]),
            Some(serde_json::Value::Str("mesh-y".into()))
        );
        // dur is in microseconds.
        let dur = complete[1].get("dur").unwrap().as_f64().unwrap();
        assert!((dur - 2.0).abs() < 1e-9, "dur {dur} should be ~2µs");
        assert!(trace.get("otherData").is_some());
    }

    #[test]
    fn export_is_byte_identical_across_runs() {
        assert_eq!(export(&sample_recorder()), export(&sample_recorder()));
    }

    #[test]
    fn export_round_trips_through_the_parser() {
        let text = export(&sample_recorder());
        let back: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), text);
    }

    #[test]
    fn strings_escape_as_json() {
        let escaped = Str("a\"b\\c\nd\u{1}é").to_string();
        assert_eq!(escaped, r#""a\"b\\c\nd\u0001é""#);
    }
}
