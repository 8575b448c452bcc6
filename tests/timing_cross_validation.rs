//! Cross-validation of the two timing layers: the α–β closed forms must
//! track the event-driven numeric simulation across mesh shapes, payload
//! sizes and precisions — otherwise the 4096-chip numbers rest on a model
//! that disagrees with the machine.

use multipod::collectives::timing::RingCosts;
use multipod::collectives::twod::{two_dim_all_reduce, two_dim_all_reduce_time};
use multipod::collectives::{ring, Precision};
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::telemetry::{Obs, Telemetry};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{ChipId, Multipod, MultipodConfig};
use multipod::trace::{LinkClass, Recorder, SpanCategory};

fn net(x: u32, y: u32) -> Network {
    Network::new(
        Multipod::new(MultipodConfig::mesh(x, y, true)),
        NetworkConfig::tpu_v3(),
    )
}

fn inputs(n: usize, elems: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
        .collect()
}

/// The α–β unidirectional ring model vs the barrier-stepped numeric
/// execution: within 2x across ring sizes and payloads (the numeric
/// barriers cost extra latency; the bandwidth term must agree).
#[test]
fn ring_alpha_beta_tracks_numeric_execution() {
    for (y, elems) in [(4u32, 1 << 12), (8, 1 << 14), (16, 1 << 16), (32, 1 << 18)] {
        let mut network = net(1, y);
        let ring_y = network.mesh().y_ring(0);
        let ins = inputs(y as usize, elems, y as u64);
        let numeric = ring::all_reduce_unidirectional(
            &mut network,
            &ring_y,
            &ins,
            Precision::F32,
            ring::Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap()
        .time
        .seconds();
        let fresh = net(1, y);
        let costs = RingCosts::from_ring(&fresh, &fresh.mesh().y_ring(0), 1).unwrap();
        let analytic = costs.all_reduce_time(elems, Precision::F32, false);
        let ratio = numeric / analytic;
        assert!(
            (0.5..2.0).contains(&ratio),
            "y={y} elems={elems}: numeric={numeric} analytic={analytic} ratio={ratio}"
        );
    }
}

/// Same cross-check for the full 2-D schedule, both precisions.
#[test]
fn two_dim_alpha_beta_tracks_numeric_execution() {
    for (x, y, elems) in [(4u32, 4u32, 1 << 12), (8, 8, 1 << 14), (16, 8, 1 << 14)] {
        for precision in [Precision::F32, Precision::Bf16] {
            let mut network = net(x, y);
            let n = network.mesh().num_chips();
            let ins = inputs(n, elems, (x + y) as u64);
            let numeric = two_dim_all_reduce(&mut network, &ins, precision, 1, None)
                .unwrap()
                .time
                .seconds();
            let fresh = net(x, y);
            let analytic = two_dim_all_reduce_time(&fresh, elems, precision, 1)
                .unwrap()
                .total();
            let ratio = numeric / analytic;
            assert!(
                (0.4..4.0).contains(&ratio),
                "{x}x{y} elems={elems} {precision:?}: ratio={ratio}"
            );
        }
    }
}

/// Both layers must rank configurations the same way: if the α–β model
/// says mesh A beats mesh B for the same payload, the numeric simulation
/// must agree (ranking consistency is what the executor's conclusions
/// rest on).
#[test]
fn layers_agree_on_configuration_ranking() {
    let elems = 1 << 14;
    let configs = [(2u32, 8u32), (4, 4), (8, 2)];
    let mut numeric_times = Vec::new();
    let mut analytic_times = Vec::new();
    for &(x, y) in &configs {
        let mut network = net(x, y);
        let n = network.mesh().num_chips();
        let ins = inputs(n, elems, 5);
        numeric_times.push(
            two_dim_all_reduce(&mut network, &ins, Precision::F32, 1, None)
                .unwrap()
                .time
                .seconds(),
        );
        let fresh = net(x, y);
        analytic_times.push(
            two_dim_all_reduce_time(&fresh, elems, Precision::F32, 1)
                .unwrap()
                .total(),
        );
    }
    // Near-ties (the α–β model is x/y-symmetric for some shapes) make a
    // full-order comparison noisy; both layers must at least agree on the
    // winning configuration.
    let argmin = |v: &[f64]| {
        v.iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap()
    };
    assert_eq!(
        argmin(&numeric_times),
        argmin(&analytic_times),
        "numeric={numeric_times:?} analytic={analytic_times:?}"
    );
}

/// The trace layer against the analytic byte counts: on a 4x4 torus each
/// ring member sends `n-1` chunks per phase, so every directed link that
/// participates in the Forward circulation carries exactly that — full
/// payload chunks on the Y rings, the Y-sharded remainder on the X lines.
/// The recorder must agree with both the closed form and the network's own
/// contention counters.
#[test]
fn recorder_link_bytes_match_analytic_ring_counts() {
    let elems = 1 << 12;
    let n = 4u64;
    let mut network = net(4, 4);
    let recorder = Recorder::shared();
    network.set_obs(Obs::new(Some(recorder.clone()), None));
    let ins = inputs(16, elems, 9);
    two_dim_all_reduce(&mut network, &ins, Precision::F32, 1, None).unwrap();

    let y_chunk = Precision::F32.wire_bytes(elems / n as usize);
    let x_chunk = Precision::F32.wire_bytes(elems / (n * n) as usize);
    let summaries = recorder.link_summaries();
    assert!(!summaries.is_empty());
    for link in &summaries {
        let expected = match link.class {
            // Reduce-scatter + all-gather: 2 phases of n-1 chunks each.
            LinkClass::MeshY | LinkClass::WrapY => 2 * (n - 1) * y_chunk,
            // The open X line circulates its wrap messages back over the
            // reverse-direction links, so those carry the same count.
            LinkClass::MeshX => 2 * (n - 1) * x_chunk,
            other => panic!("unexpected link class {other:?}"),
        };
        assert_eq!(
            link.bytes,
            expected,
            "link {}->{} ({})",
            link.src,
            link.dst,
            link.class.label()
        );
        assert_eq!(
            link.bytes,
            network.link_traffic(ChipId(link.src), ChipId(link.dst)),
            "trace must mirror the network's own per-link counters"
        );
    }
}

/// Acceptance check from the tracing issue: recorded per-link utilization
/// for the 2-D all-reduce on a 4x4 torus matches the α–β prediction
/// (2 phases x `phase_beta_seconds` of serialization per link) within 1%.
#[test]
fn link_utilization_matches_alpha_beta_within_one_percent() {
    let elems = 1 << 12;
    let mut network = net(4, 4);
    let recorder = Recorder::shared();
    network.set_obs(Obs::new(Some(recorder.clone()), None));
    let ins = inputs(16, elems, 11);
    two_dim_all_reduce(&mut network, &ins, Precision::F32, 1, None).unwrap();

    let fresh = net(4, 4);
    let y_costs = RingCosts::from_ring(&fresh, &fresh.mesh().y_ring(0), 1).unwrap();
    let x_costs = RingCosts::from_ring(&fresh, &fresh.mesh().x_line_strided(0, 0, 1), 1).unwrap();
    let y_busy = 2.0 * y_costs.phase_beta_seconds(elems, Precision::F32, false);
    let x_busy = 2.0 * x_costs.phase_beta_seconds(elems / 4, Precision::F32, false);
    let horizon = recorder.horizon_seconds();
    assert!(horizon > 0.0);
    for link in recorder.link_summaries() {
        let predicted_busy = match link.class {
            LinkClass::MeshY | LinkClass::WrapY => y_busy,
            LinkClass::MeshX => x_busy,
            other => panic!("unexpected link class {other:?}"),
        };
        let measured = link.utilization(horizon);
        let predicted = predicted_busy / horizon;
        let rel = (measured - predicted).abs() / predicted;
        assert!(
            rel < 0.01,
            "link {}->{} ({}): measured {measured:.6} vs predicted {predicted:.6} ({:.2}% off)",
            link.src,
            link.dst,
            link.class.label(),
            100.0 * rel
        );
    }
}

/// The recorder must see the whole span hierarchy of a 2-D all-reduce: one
/// enclosing collective, the four machine-wide phases, and one
/// reduce-scatter + all-gather pair per ring (4 Y rings + 4 X lines).
#[test]
fn recorder_sees_collective_and_phase_spans() {
    let elems = 1 << 10;
    let mut network = net(4, 4);
    let recorder = Recorder::shared();
    network.set_obs(Obs::new(Some(recorder.clone()), None));
    let ins = inputs(16, elems, 13);
    two_dim_all_reduce(&mut network, &ins, Precision::F32, 1, None).unwrap();

    let count = |category: SpanCategory, name: &str| {
        recorder
            .span_totals()
            .iter()
            .find(|t| t.category == category && t.name == name)
            .map(|t| t.count)
            .unwrap_or(0)
    };
    assert_eq!(count(SpanCategory::Collective, "2d-all-reduce"), 1);
    for phase in [
        "y-reduce-scatter",
        "x-reduce-scatter",
        "x-all-gather",
        "y-all-gather",
    ] {
        assert_eq!(count(SpanCategory::CollectivePhase, phase), 1, "{phase}");
    }
    assert_eq!(count(SpanCategory::CollectivePhase, "reduce-scatter"), 8);
    assert_eq!(count(SpanCategory::CollectivePhase, "all-gather"), 8);
}

/// Attaching observability must not perturb the simulation: identical
/// outputs and identical finish time with a sink, a registry, or both as
/// with the off-by-default handle — at either precision, over plain and
/// model-strided X rings (an untraced network chains a ring's wait-free
/// rounds; a traced one reserves each round hop by hop).
#[test]
fn tracing_does_not_perturb_simulated_time() {
    let elems = 1 << 12;
    let ins = inputs(16, elems, 21);

    for precision in [Precision::F32, Precision::Bf16] {
        for stride in [1, 2] {
            let mut plain = net(4, 4);
            let untraced = two_dim_all_reduce(&mut plain, &ins, precision, stride, None).unwrap();

            for obs in [
                Obs::new(Some(Recorder::shared()), None),
                Obs::new(None, Some(Telemetry::shared())),
                Obs::new(Some(Recorder::shared()), Some(Telemetry::shared())),
            ] {
                let mut observed_net = net(4, 4);
                observed_net.set_obs(obs.clone());
                let observed =
                    two_dim_all_reduce(&mut observed_net, &ins, precision, stride, None).unwrap();
                let case = format!("{precision:?} stride {stride} {obs:?}");
                assert_eq!(untraced.time, observed.time, "{case}");
                assert_eq!(untraced.outputs, observed.outputs, "{case}");
                assert_eq!(untraced.breakdown, observed.breakdown, "{case}");
            }
        }
    }
}

/// The Chrome export is deterministic (byte-identical across identical
/// runs) and survives a serde_json round trip.
#[test]
fn chrome_trace_export_round_trips_and_is_deterministic() {
    let run = || {
        let mut network = net(2, 4);
        let recorder = Recorder::shared();
        network.set_obs(Obs::new(Some(recorder.clone()), None));
        let ins = inputs(8, 256, 3);
        two_dim_all_reduce(&mut network, &ins, Precision::F32, 1, None).unwrap();
        recorder.chrome_trace().expect("chrome trace serializes")
    };
    let a = run();
    let b = run();
    let text_a = serde_json::to_string(&a).unwrap();
    let text_b = serde_json::to_string(&b).unwrap();
    assert_eq!(text_a, text_b, "export must be byte-identical across runs");

    let back: serde_json::Value = serde_json::from_str(&text_a).unwrap();
    assert_eq!(back, a, "export must round-trip through the parser");
    assert!(a.get("traceEvents").is_some());
    assert!(a.get("otherData").is_some(), "metrics summary embedded");
}
