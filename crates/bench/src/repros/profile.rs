//! Flight-recorder profile of the simulated multipod: step critical-path
//! decomposition, simnet telemetry counters, and α–β cost-model drift.
//!
//! Three deterministic stages, all in simulated time:
//!
//! 1. Replays the first steps of the ResNet-50 and BERT step timelines at
//!    the mesh's chip count through the trace + telemetry layers and runs
//!    the critical-path profiler over the recording.
//! 2. Runs a numeric 2-D gradient summation on the mesh with telemetry
//!    attached, populating the simnet transfer/hop/byte counters.
//! 3. Runs numeric bidirectional ring all-reduces along a Y ring at a
//!    ladder of payload sizes, fits `time = α + bytes/β` to the recorded
//!    collective spans, and checks the fit against the analytic
//!    `collectives::timing` model.
//!
//! `--trace` exports the stage-1 step timelines, `--profile` the full
//! flight report.

use multipod_collectives::timing::RingCosts;
use multipod_collectives::twod::two_dim_all_reduce;
use multipod_collectives::{ring, Precision};
use multipod_core::{presets, Executor};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_telemetry::{
    check_drift, collective_samples, fit_alpha_beta, MetricId, Obs, StepDecomposition, Subsystem,
};
use multipod_tensor::{Shape, TensorRng};
use multipod_topology::{Multipod, MultipodConfig};
use multipod_trace::Recorder;
use serde::Serialize;
use serde_json::{json, Value};

use super::{Outcome, Replay};
use crate::{flight_report, replay_steps, Args, BenchReport, ReproError};

/// Fractional drift tolerance for the α–β fit vs the analytic model.
const DRIFT_TOLERANCE: f64 = 0.15;

/// See the module docs.
pub fn profile(args: &Args) -> Result<Outcome, ReproError> {
    let cfg = args.mesh(MultipodConfig::multipod(4))?;
    let mesh = Multipod::new(cfg.clone());
    let mesh_label = format!("{}x{}", mesh.x_len(), mesh.y_len());
    let chips = mesh.num_chips();
    let mut text = String::new();
    outln!(
        text,
        "# Flight-recorder profile on {mesh_label} ({chips} chips)"
    );

    // Stage 1: step timelines -> trace + telemetry -> profiler.
    let (recorder, telemetry) = replay_steps(&[
        Executor::new(presets::resnet50(chips as u32)).run()?,
        Executor::new(presets::bert(chips as u32)).run()?,
    ]);

    // Stage 2: numeric 2-D summation with telemetry attached; enough
    // elements per chip to split across the Y rings, the X chains, and
    // the bidirectional lanes of each.
    let mut net = Network::new(Multipod::new(cfg.clone()), NetworkConfig::tpu_v3());
    net.set_obs(Obs::new(None, Some(telemetry.clone())));
    let mut rng = TensorRng::seed(17);
    let elems = 4 * mesh.x_len() as usize * mesh.y_len() as usize;
    let inputs: Vec<_> = (0..chips)
        .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
        .collect();
    let summation = two_dim_all_reduce(&mut net, &inputs, Precision::F32, 1, None)?;

    // Stage 3: ring all-reduce ladder along a Y ring, recorded separately
    // so its collective spans stay out of the step profiles.
    let ring_recorder = Recorder::shared();
    let mut ring_net = Network::new(Multipod::new(cfg), NetworkConfig::tpu_v3());
    ring_net.set_obs(Obs::new(
        Some(ring_recorder.clone()),
        Some(telemetry.clone()),
    ));
    let y_ring = ring_net.mesh().y_ring(0);
    let n = y_ring.len();
    let mut ring_cursor = SimTime::ZERO;
    let mut drift = Vec::new();
    if n >= 2 {
        // Payloads divisible by 2n, so every run takes the bidirectional
        // path the analytic model prices.
        let sizes: Vec<usize> = (5..11).map(|k| (2 * n) << k).collect();
        for &elems in &sizes {
            let payloads: Vec<_> = (0..n)
                .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
                .collect();
            let out = ring::all_reduce(
                &mut ring_net,
                &y_ring,
                &payloads,
                Precision::F32,
                ring_cursor,
            )?;
            ring_cursor = out.time;
        }
        let samples = collective_samples(&ring_recorder.events(), "all-reduce");
        let fit = fit_alpha_beta(&samples)
            .ok_or_else(|| ReproError::failed("ladder spans too few distinct sizes".into()))?;
        let costs = RingCosts::from_ring(&ring_net, &y_ring, 1)?;
        let ref_elems = sizes[sizes.len() - 1];
        let model_alpha = 2.0 * costs.phase_alpha_seconds();
        let model_bps = Precision::F32.wire_bytes(ref_elems) as f64
            / (2.0 * costs.phase_beta_seconds(ref_elems, Precision::F32, true));
        drift.push(check_drift(
            "ring-all-reduce",
            fit,
            model_alpha,
            model_bps,
            DRIFT_TOLERANCE,
        ));
    }

    let flight = flight_report(&recorder, &telemetry, drift);
    let profile = &flight.profile;
    let counter = |name| {
        flight
            .registry
            .counter(&MetricId::new(Subsystem::Simnet, name))
    };
    let transfers = counter("transfers");
    let sim_seconds = summation.time.seconds() + ring_cursor.seconds();

    let fraction_sum = |d: &StepDecomposition| {
        d.compute_fraction
            + d.comm_fraction
            + d.overlap_fraction
            + d.input_fraction
            + d.idle_fraction
    };
    let fractions_ok = std::iter::once(&profile.mean_decomposition)
        .chain(profile.step_profiles.iter().map(|s| &s.decomposition))
        .all(|d| (fraction_sum(d) - 1.0).abs() <= 1e-6);
    let steps: Vec<Value> = profile
        .step_profiles
        .iter()
        .map(|s| {
            json!({
                "name": s.name,
                "step": s.step_index,
                "duration_seconds": s.duration_seconds,
                "critical_path_seconds": s.critical_path_seconds,
                "decomposition": s.decomposition.ser(),
            })
        })
        .collect();
    let events_per_sim_second = if sim_seconds > 0.0 {
        transfers as f64 / sim_seconds
    } else {
        0.0
    };
    let report = BenchReport::new("profile", mesh_label, chips)
        .gate("fractions_sum_to_one", fractions_ok)
        .gate(
            "alpha_beta_within_tolerance",
            flight.drift_within_tolerance(),
        )
        .gate("deterministic", None)
        .measurement("steps", profile.steps)
        .measurement("mean_step_seconds", profile.mean_step_seconds)
        .measurement(
            "mean_critical_path_seconds",
            profile.mean_critical_path_seconds,
        )
        .measurement("mean_decomposition", profile.mean_decomposition.ser())
        .measurement("step_profiles", Value::Seq(steps))
        .measurement("simnet_transfers", transfers)
        .measurement("simnet_link_hops", counter("link_hops"))
        .measurement("simnet_payload_bytes", counter("payload_bytes"))
        .measurement("simnet_sim_seconds", sim_seconds)
        .measurement("simnet_events_per_sim_second", events_per_sim_second)
        .measurement(
            "drift",
            Value::Seq(flight.drift.iter().map(|d| d.ser()).collect()),
        );
    text.push_str(&flight.render_text());
    Ok(Outcome {
        text,
        report: Some(report),
        replay: Replay::Recorded(recorder, telemetry, flight.drift),
        ..Default::default()
    })
}
