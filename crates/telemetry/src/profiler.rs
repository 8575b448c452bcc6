//! Post-hoc critical-path profiler over a recorded trace.
//!
//! Consumes the span stream a [`multipod_trace::Recorder`] captured, groups
//! spans under their enclosing [`SpanCategory::Step`] windows, builds the
//! span dependency graph (span `a` precedes span `b` when `a` ends no later
//! than `b` starts), and computes per step:
//!
//! * the **critical path** — the longest chain of dependent spans — and the
//!   **slack** of every span (how much it could stretch without lengthening
//!   the step);
//! * a **compute vs. communication vs. overlap decomposition** of the step
//!   window, measured as interval unions so concurrent spans are not double
//!   counted. This is the baseline number the ROADMAP's task-graph overlap
//!   refactor will move: today's sequential step schedule shows ~zero
//!   overlap, and the refactor's gate is this fraction rising while the
//!   critical path shrinks.
//!
//! The profiler is a pure function of the recorded spans and sorts them
//! internally, so its output is invariant under span-recording order (a
//! property test pins this down).

use serde::{Content, Serialize};

use multipod_trace::{SimTime, SpanCategory, SpanEvent, TraceEvent};

/// Span classes for the step decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SpanClass {
    Compute,
    Comm,
    Input,
    Other,
}

/// Classifies a span for the compute/comm/input decomposition.
fn classify(span: &SpanEvent) -> SpanClass {
    match span.category {
        SpanCategory::Collective | SpanCategory::CollectivePhase => SpanClass::Comm,
        SpanCategory::StepPhase if span.name == "model-parallel-comm" => SpanClass::Comm,
        SpanCategory::StepPhase | SpanCategory::Optimizer => SpanClass::Compute,
        SpanCategory::Input => SpanClass::Input,
        _ => SpanClass::Other,
    }
}

/// Sorts and merges intervals into a disjoint union (empty intervals
/// dropped). All set operations below require this normal form.
fn normalize(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut merged: Vec<(f64, f64)> = Vec::new();
    for (start, end) in intervals {
        if end <= start {
            continue;
        }
        match merged.last_mut() {
            Some(last) if start <= last.1 => last.1 = last.1.max(end),
            _ => merged.push((start, end)),
        }
    }
    merged
}

/// Total length of a disjoint interval union.
fn measure(set: &[(f64, f64)]) -> f64 {
    set.iter().map(|&(s, e)| e - s).sum()
}

/// Intersection of two disjoint interval unions, itself disjoint.
fn intersection(a: &[(f64, f64)], b: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if hi > lo {
            out.push((lo, hi));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Fractions of a step window spent in each class. Concurrent spans count
/// once per class; `overlap_fraction` is time where compute and
/// communication run simultaneously. The five fractions sum to ~1.0.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct StepDecomposition {
    /// Compute (forward/backward, optimizer, embedding) with no concurrent
    /// communication.
    pub compute_fraction: f64,
    /// Communication (collectives, model-parallel exchange) with no
    /// concurrent compute.
    pub comm_fraction: f64,
    /// Compute and communication running simultaneously.
    pub overlap_fraction: f64,
    /// Input-pipeline stall not hidden behind compute or comm.
    pub input_fraction: f64,
    /// Remainder of the step window covered by no span.
    pub idle_fraction: f64,
}

/// One span's place on the step's dependency graph.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct SpanSlack {
    /// Span name.
    pub name: String,
    /// Span category label.
    pub category: String,
    /// Start, seconds into the simulation.
    pub start_seconds: f64,
    /// Span duration in seconds.
    pub duration_seconds: f64,
    /// How much the span could stretch without lengthening the step's
    /// critical path.
    pub slack_seconds: f64,
    /// Whether the span sits on the critical path (zero slack).
    pub on_critical_path: bool,
}

/// Profile of one step window.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct StepProfile {
    /// Step-span name (usually the preset name).
    pub name: String,
    /// The step index recorded on the span (`step` arg), or the window's
    /// ordinal when absent.
    pub step_index: u64,
    /// Window start, seconds.
    pub start_seconds: f64,
    /// Window duration, seconds.
    pub duration_seconds: f64,
    /// Length of the longest dependent-span chain inside the window.
    pub critical_path_seconds: f64,
    /// Share of the window decomposed by span class.
    pub decomposition: StepDecomposition,
    /// Per-span slack, sorted by start time.
    pub spans: Vec<SpanSlack>,
}

/// Whole-trace profile: one [`StepProfile`] per recorded step window plus
/// means across steps.
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct ProfileReport {
    /// Number of step windows found.
    pub steps: u64,
    /// Mean critical-path length across steps, seconds.
    pub mean_critical_path_seconds: f64,
    /// Mean step duration, seconds.
    pub mean_step_seconds: f64,
    /// Decomposition fractions averaged across steps.
    pub mean_decomposition: StepDecomposition,
    /// Per-step profiles.
    pub step_profiles: Vec<StepProfile>,
}

impl ProfileReport {
    /// Serializes through `serde_json`.
    pub fn to_value(&self) -> Content {
        self.ser()
    }
}

/// Deterministic sort key so the profile is invariant under recording
/// order (`SimTime` orders by `total_cmp`).
fn span_key(s: &SpanEvent) -> (SimTime, SimTime, &'static str, &str) {
    (s.start, s.end, s.category.label(), s.name.as_str())
}

fn sort_spans(spans: &mut [SpanEvent]) {
    spans.sort_by(|a, b| span_key(a).cmp(&span_key(b)));
}

/// Longest chain of dependent spans plus per-span slack.
///
/// `spans` must be sorted by start time. Edge `a -> b` exists when
/// `a.end <= b.start`; the critical path maximizes total span duration
/// along a chain, and a span's slack is the path length minus the longest
/// chain running through it.
fn critical_path(spans: &[SpanEvent]) -> (f64, Vec<f64>) {
    let n = spans.len();
    let dur: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    // Longest chain ending at i (inclusive of i).
    let mut pre = dur.clone();
    for i in 0..n {
        for j in 0..i {
            if spans[j].end.seconds() <= spans[i].start.seconds() {
                pre[i] = pre[i].max(pre[j] + dur[i]);
            }
        }
    }
    // Longest chain starting at i (inclusive of i).
    let mut post = dur.clone();
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            if spans[i].end.seconds() <= spans[j].start.seconds() {
                post[i] = post[i].max(post[j] + dur[i]);
            }
        }
    }
    let length = pre.iter().cloned().fold(0.0, f64::max);
    let slack = (0..n)
        .map(|i| (length - (pre[i] + post[i] - dur[i])).max(0.0))
        .collect();
    (length, slack)
}

fn decompose(window: (f64, f64), spans: &[SpanEvent]) -> StepDecomposition {
    let duration = window.1 - window.0;
    if duration <= 0.0 {
        return StepDecomposition::default();
    }
    let class_intervals = |class: SpanClass| -> Vec<(f64, f64)> {
        spans
            .iter()
            .filter(|s| classify(s) == class)
            .map(|s| (s.start.seconds(), s.end.seconds()))
            .collect()
    };
    let compute = normalize(class_intervals(SpanClass::Compute));
    let comm = normalize(class_intervals(SpanClass::Comm));
    let input = normalize(class_intervals(SpanClass::Input));
    let compute_total = measure(&compute);
    let comm_total = measure(&comm);
    let overlap = measure(&intersection(&compute, &comm));
    // Busy = compute ∪ comm; input stall only counts where it hides
    // behind neither.
    let mut busy = compute.clone();
    busy.extend(comm.iter().copied());
    let busy = normalize(busy);
    let input_exposed = measure(&input) - measure(&intersection(&input, &busy));
    let covered = measure(&busy) + input_exposed;
    StepDecomposition {
        compute_fraction: (compute_total - overlap) / duration,
        comm_fraction: (comm_total - overlap) / duration,
        overlap_fraction: overlap / duration,
        input_fraction: input_exposed / duration,
        idle_fraction: ((duration - covered) / duration).max(0.0),
    }
}

/// Profiles a recorded trace: finds step windows, assigns each non-step
/// span to its smallest enclosing window, and computes critical path,
/// slack, and decomposition per step.
pub fn profile(events: &[TraceEvent]) -> ProfileReport {
    let mut steps: Vec<SpanEvent> = Vec::new();
    let mut others: Vec<SpanEvent> = Vec::new();
    for event in events {
        if let TraceEvent::Span(span) = event {
            if span.category == SpanCategory::Step {
                steps.push(span.clone());
            } else {
                others.push(span.clone());
            }
        }
    }
    sort_spans(&mut steps);
    sort_spans(&mut others);

    // Assign each span to the smallest step window that contains it, so
    // nested or back-to-back windows cannot double-claim a span.
    let mut children: Vec<Vec<SpanEvent>> = vec![Vec::new(); steps.len()];
    for span in others {
        let mut best: Option<(usize, f64)> = None;
        for (i, step) in steps.iter().enumerate() {
            let contains = step.start.seconds() <= span.start.seconds()
                && span.end.seconds() <= step.end.seconds();
            if contains {
                let width = step.end - step.start;
                if best.is_none_or(|(_, w)| width < w) {
                    best = Some((i, width));
                }
            }
        }
        if let Some((i, _)) = best {
            children[i].push(span);
        }
    }

    let mut step_profiles = Vec::with_capacity(steps.len());
    for (ordinal, (step, spans)) in steps.iter().zip(children).enumerate() {
        let window = (step.start.seconds(), step.end.seconds());
        let (path, slack) = critical_path(&spans);
        let decomposition = decompose(window, &spans);
        let step_index = step
            .args
            .iter()
            .find(|(k, _)| k == "step")
            .map(|&(_, v)| v as u64)
            .unwrap_or(ordinal as u64);
        let spans = spans
            .iter()
            .zip(&slack)
            .map(|(s, &slack_seconds)| SpanSlack {
                name: s.name.clone(),
                category: s.category.label().to_string(),
                start_seconds: s.start.seconds(),
                duration_seconds: s.end - s.start,
                slack_seconds,
                on_critical_path: slack_seconds <= 1e-12,
            })
            .collect();
        step_profiles.push(StepProfile {
            name: step.name.clone(),
            step_index,
            start_seconds: window.0,
            duration_seconds: window.1 - window.0,
            critical_path_seconds: path,
            decomposition,
            spans,
        });
    }

    let steps_len = step_profiles.len() as f64;
    let mut report = ProfileReport {
        steps: step_profiles.len() as u64,
        ..ProfileReport::default()
    };
    if !step_profiles.is_empty() {
        report.mean_critical_path_seconds = step_profiles
            .iter()
            .map(|p| p.critical_path_seconds)
            .sum::<f64>()
            / steps_len;
        report.mean_step_seconds = step_profiles
            .iter()
            .map(|p| p.duration_seconds)
            .sum::<f64>()
            / steps_len;
        let mean = |f: fn(&StepDecomposition) -> f64| {
            step_profiles
                .iter()
                .map(|p| f(&p.decomposition))
                .sum::<f64>()
                / steps_len
        };
        report.mean_decomposition = StepDecomposition {
            compute_fraction: mean(|d| d.compute_fraction),
            comm_fraction: mean(|d| d.comm_fraction),
            overlap_fraction: mean(|d| d.overlap_fraction),
            input_fraction: mean(|d| d.input_fraction),
            idle_fraction: mean(|d| d.idle_fraction),
        };
    }
    report.step_profiles = step_profiles;
    report
}

impl StepDecomposition {
    /// Sum of all five fractions — ~1.0 for a fully accounted window.
    pub fn total(&self) -> f64 {
        self.compute_fraction
            + self.comm_fraction
            + self.overlap_fraction
            + self.input_fraction
            + self.idle_fraction
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_trace::{SimTime, Track};

    fn span(cat: SpanCategory, name: &str, start: f64, end: f64) -> TraceEvent {
        TraceEvent::Span(SpanEvent::new(
            Track::Sim,
            cat,
            name,
            SimTime::from_seconds(start),
            SimTime::from_seconds(end),
        ))
    }

    fn sequential_step() -> Vec<TraceEvent> {
        vec![
            span(SpanCategory::Step, "demo", 0.0, 1.0),
            span(SpanCategory::StepPhase, "compute", 0.0, 0.6),
            span(SpanCategory::CollectivePhase, "y-reduce-scatter", 0.6, 0.9),
            span(SpanCategory::Optimizer, "weight-update", 0.9, 1.0),
        ]
    }

    #[test]
    fn sequential_spans_form_one_chain() {
        let report = profile(&sequential_step());
        assert_eq!(report.steps, 1);
        let step = &report.step_profiles[0];
        assert!((step.critical_path_seconds - 1.0).abs() < 1e-12);
        assert!(step.spans.iter().all(|s| s.on_critical_path));
        let d = &step.decomposition;
        assert!((d.compute_fraction - 0.7).abs() < 1e-12);
        assert!((d.comm_fraction - 0.3).abs() < 1e-12);
        assert_eq!(d.overlap_fraction, 0.0);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn overlapping_comm_gets_slack() {
        // Compute 0..0.8 with comm 0.2..0.5 hidden behind it.
        let events = vec![
            span(SpanCategory::Step, "demo", 0.0, 0.8),
            span(SpanCategory::StepPhase, "compute", 0.0, 0.8),
            span(SpanCategory::CollectivePhase, "x-all-gather", 0.2, 0.5),
        ];
        let report = profile(&events);
        let step = &report.step_profiles[0];
        assert!((step.critical_path_seconds - 0.8).abs() < 1e-12);
        let comm = step
            .spans
            .iter()
            .find(|s| s.name == "x-all-gather")
            .unwrap();
        assert!(!comm.on_critical_path);
        assert!((comm.slack_seconds - 0.5).abs() < 1e-12);
        let d = &step.decomposition;
        assert!((d.overlap_fraction - 0.375).abs() < 1e-12);
        assert!((d.comm_fraction - 0.0).abs() < 1e-12);
        assert!((d.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spans_land_in_smallest_enclosing_window() {
        let events = vec![
            span(SpanCategory::Step, "outer", 0.0, 2.0),
            span(SpanCategory::Step, "inner", 0.5, 1.0),
            span(SpanCategory::StepPhase, "compute", 0.6, 0.9),
        ];
        let report = profile(&events);
        let inner = report
            .step_profiles
            .iter()
            .find(|p| p.name == "inner")
            .unwrap();
        let outer = report
            .step_profiles
            .iter()
            .find(|p| p.name == "outer")
            .unwrap();
        assert_eq!(inner.spans.len(), 1);
        assert_eq!(outer.spans.len(), 0);
    }

    #[test]
    fn profile_ignores_traces_without_steps() {
        let events = vec![span(SpanCategory::Input, "step-input", 0.0, 0.1)];
        let report = profile(&events);
        assert_eq!(report.steps, 0);
        assert!(report.step_profiles.is_empty());
    }
}
