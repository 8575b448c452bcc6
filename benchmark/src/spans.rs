//! In-memory host-time spans around the calls the benchmark makes into
//! each layer, written out as a Chrome trace when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// The track (one per workload, plus `probes`).
    pub track: &'static str,
    /// Which root span of its track this span belongs to: the n-th
    /// top-level call on the track is operation n.
    pub op: u32,
    /// Calls folded into this span; 1 for an ordinary span. Aggregates
    /// stand for calls too many to record one by one.
    pub calls: u64,
}

/// A span that has begun. Always carries its start time, so the caller
/// gets a duration whether or not spans are being recorded.
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when enabled; when disabled it only reads the clock.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    track: &'static str,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            track: "",
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Names the track that following spans belong to.
    pub fn set_track(&mut self, track: &'static str) {
        self.track = track;
    }

    fn op_of_new_span(&self) -> u32 {
        match self.stack.last() {
            Some(&parent) => self.spans[parent].op,
            None => self
                .spans
                .iter()
                .filter(|s| s.parent.is_none() && s.track == self.track)
                .count() as u32,
        }
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            let op = self.op_of_new_span();
            self.spans.push(Span {
                name,
                start_ns: (start - self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                track: self.track,
                op,
                calls: 1,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Ends `open` and returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(index) = open.index {
            self.spans[index].end_ns = (now - self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(index), "spans must nest");
        }
        (now - open.start).as_secs_f64()
    }

    /// Runs `f` inside a span; returns its result and host seconds.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.begin(name);
        let result = f();
        let seconds = self.end(open);
        (result, seconds)
    }

    /// Records `calls` calls totalling `total_ns` as one child of the
    /// innermost open span, laid after its earlier children.
    pub fn aggregate(&mut self, name: &'static str, total_ns: u64, calls: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.stack.last() else {
            return;
        };
        let start_ns = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| s.end_ns)
            .max()
            .unwrap_or(self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total_ns,
            parent: Some(parent),
            track: self.track,
            op: self.spans[parent].op,
            calls,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, index: usize) -> u64 {
        let span = &self.spans[index];
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(index))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        (span.end_ns - span.start_ns).saturating_sub(children)
    }

    /// Writes the spans in Chrome trace format, one thread per track.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut tracks: Vec<&'static str> = Vec::new();
        for span in &self.spans {
            if !tracks.contains(&span.track) {
                tracks.push(span.track);
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (tid, track) in tracks.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\"{track}\"}}}},"
            );
        }
        for (index, span) in self.spans.iter().enumerate() {
            let tid = tracks
                .iter()
                .position(|t| *t == span.track)
                .expect("track listed above");
            let parent = span.parent.map_or(-1, |p| p as i64);
            let comma = if index + 1 == self.spans.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{index},\"parent\":{parent},\"op\":{},\"calls\":{},\"self_us\":{:.3}}}}}{comma}",
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                span.op,
                span.calls,
                self.self_ns(index) as f64 / 1e3,
            );
        }
        out.push_str("]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::new(true);
        t.set_track("w");
        let outer = t.begin("outer");
        let (_, _) = t.call("inner", || std::hint::black_box(1 + 1));
        t.aggregate("many", 10, 5);
        t.end(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[2].start_ns, spans[1].end_ns);
        let (_, _) = t.call("second", || ());
        assert_eq!(
            t.spans().iter().map(|s| s.op).collect::<Vec<_>>(),
            [0, 0, 0, 1]
        );
        let spans = t.spans();
        let total = spans[0].end_ns - spans[0].start_ns;
        let inner = spans[1].end_ns - spans[1].start_ns;
        assert_eq!(t.self_ns(0), total.saturating_sub(inner + 10));
    }

    #[test]
    fn disabled_tracer_still_times() {
        let mut t = Tracer::new(false);
        let (v, secs) = t.call("x", || 3);
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }
}
