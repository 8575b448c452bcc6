//! Golden reports: the scheduler's observable bytes, pinned.
//!
//! The digests and the span list were captured at the commit *before*
//! `PodScheduler`'s state became one job table with a `Phase` per job, so
//! they are the reference that refactor (and any later one) is held to:
//! same queue order, same victim order, same event/span emission order,
//! same `SchedReport` bytes.

use std::sync::Arc;

use multipod_faults::FaultPlan;
use multipod_sched::{ArrivalConfig, PodScheduler, SchedConfig, SchedReport, ServiceSpec};
use multipod_simnet::SimTime;
use multipod_telemetry::Obs;
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use multipod_trace::{Recorder, SpanCategory, TraceEvent};

/// FNV-1a of the report's compact JSON.
fn digest(report: &SchedReport) -> String {
    let json = serde_json::to_string(report).expect("report serializes");
    format!("{:016x}", multipod_ckpt::fnv1a(json.as_bytes()))
}

fn fitted(jobs: u32, seed: u64) -> SchedConfig {
    SchedConfig {
        mesh: MultipodConfig::mesh(32, 32, true),
        arrivals: ArrivalConfig {
            jobs,
            seed,
            mean_interarrival_seconds: 0.004,
            tenants: 4,
        },
        services: Vec::new(),
        state_elems: 512,
        lr: 0.05,
    }
}

/// `fitted(60, 11)` beside a 256-chip service, with one fault inside the
/// service's slice and one inside a training slice.
fn service_and_faults() -> (SchedConfig, FaultPlan) {
    let mut config = fitted(60, 11);
    config.services.push(ServiceSpec {
        name: "dlrm-serve".to_string(),
        chips: 256,
    });
    let plan = FaultPlan::new()
        .chip_down(SimTime::from_seconds(0.05), ChipId(0))
        .chip_down(SimTime::from_seconds(0.06), ChipId(33 * 16));
    (config, plan)
}

#[test]
fn plain_campaign_report_is_pinned() {
    let report = PodScheduler::new(fitted(60, 11)).run().expect("campaign");
    assert_eq!(digest(&report), "05e0b3d314acac73");
}

#[test]
fn service_and_fault_campaign_report_is_pinned() {
    let (config, plan) = service_and_faults();
    let report = PodScheduler::new(config)
        .run_with_faults(&plan)
        .expect("campaign");
    assert_eq!(digest(&report), "694739e4769f0b84");
}

#[test]
fn heavy_stream_with_an_early_fault_report_is_pinned() {
    let config = SchedConfig::demo(MultipodConfig::mesh(32, 32, true), 200, 42);
    let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.01), ChipId(33));
    let report = PodScheduler::new(config)
        .run_with_faults(&plan)
        .expect("campaign");
    assert_eq!(digest(&report), "971f354818049058");
}

#[test]
fn repro_sched_campaign_report_is_pinned() {
    // `repro sched` at 400 jobs, seed 7: the paper machine and two chip
    // losses at a quarter and three quarters of the arrival window.
    let mesh = MultipodConfig::multipod(4);
    let x_len = Multipod::new(mesh.clone()).x_len();
    let config = SchedConfig::demo(mesh, 400, 7);
    let window = config.arrivals.mean_interarrival_seconds * 400.0;
    let plan = FaultPlan::new()
        .chip_down(SimTime::from_seconds(0.25 * window), ChipId(x_len + 1))
        .chip_down(
            SimTime::from_seconds(0.75 * window),
            ChipId(x_len + x_len / 2),
        );
    let report = PodScheduler::new(config)
        .run_with_faults(&plan)
        .expect("campaign");
    assert_eq!(digest(&report), "1d7764fe88cdd4f7");
}

/// The corner random fault plans do not reach: the chip dies inside a
/// slice whose job is *draining*. In the plain campaign jobs 53, 56 and 17
/// are preempted at t ≈ 0.366923 s and drain for 14.5 µs across rows 0–7;
/// chip 0 dies in the middle of that window.
#[test]
fn fault_inside_a_draining_slice_requeues_the_victim_once() {
    let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.36693), ChipId(0));
    let recorder = Recorder::shared();
    let mut sched = PodScheduler::new(fitted(60, 11));
    sched.set_obs(Obs::new(Some(Arc::clone(&recorder) as _), None));
    let report = sched.run_with_faults(&plan).expect("campaign");

    assert_eq!((report.preemptions, report.fault_kills), (6, 1));
    let spans = sched_span_lines(&recorder);
    assert!(
        !spans.iter().any(|s| s.starts_with("job-fault-kill")),
        "the victim was draining, not running"
    );
    // Requeued by the fault alone: the `SliceFreed` that follows finds it
    // no longer draining, so it waits in the queue once, not twice.
    assert_eq!(report.queue_wait.count, 60 + 6);
    assert_eq!(report.restores, 6);
    assert_eq!(report.completed, 60);
    assert_eq!(digest(&report), "2f0f0a33836b7538");
}

/// One line per `Sched`-category span, in emission order: name, start and
/// end (shortest round-trip decimal, so exact), then every argument.
fn sched_span_lines(recorder: &Recorder) -> Vec<String> {
    recorder
        .events()
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Span(span) if span.category == SpanCategory::Sched => Some(span),
            _ => None,
        })
        .map(|span| {
            let mut line = format!(
                "{} {:?} {:?}",
                span.name,
                span.start.seconds(),
                span.end.seconds()
            );
            for (key, value) in &span.args {
                line.push_str(&format!(" {key}={value:?}"));
            }
            line
        })
        .collect()
}

#[test]
fn service_and_fault_campaign_spans_are_pinned_event_for_event() {
    let (config, plan) = service_and_faults();
    let recorder = Recorder::shared();
    let mut sched = PodScheduler::new(config);
    sched.set_obs(Obs::new(Some(Arc::clone(&recorder) as _), None));
    sched.run_with_faults(&plan).expect("campaign");

    let got = sched_span_lines(&recorder);
    let want: Vec<&str> = include_str!("golden_spans.txt").lines().collect();
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(g, w, "span {i} differs");
    }
    assert_eq!(got.len(), want.len(), "span count");
}
