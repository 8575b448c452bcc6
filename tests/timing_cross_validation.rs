//! Cross-validation of the two timing layers: the α–β closed forms and
//! the executed schedule are tied by an exact relation across mesh shapes,
//! payload sizes and precisions, with every gap between them a named term —
//! otherwise the 4096-chip numbers rest on a model that disagrees with the
//! machine for reasons nobody has written down.

use multipod::collectives::timing::RingCosts;
use multipod::collectives::twod::{two_dim_all_reduce, two_dim_all_reduce_time, TwoDimBreakdown};
use multipod::collectives::{ring, Precision};
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::telemetry::{Obs, Telemetry};
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{ChipId, Multipod, MultipodConfig, Ring};
use multipod::trace::{write_chrome_trace, LinkClass, Recorder, SpanCategory};

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

/// The per-message overhead plus the ring's slowest path: on an open line
/// its closing edge, which [`RingCosts`] keeps apart as `wrap_penalty`.
fn slowest_message(costs: &RingCosts, cfg: &NetworkConfig) -> f64 {
    costs.alpha.max(cfg.message_overhead + costs.wrap_penalty)
}

/// One step of the executed ring schedule on a ring whose messages share
/// no link: the slowest message's latency and one chunk's serialization.
/// Each step starts when the previous one lands, so a phase is `n − 1` of
/// these.
fn executed_step(costs: &RingCosts, cfg: &NetworkConfig, chunk_bytes: u64) -> f64 {
    slowest_message(costs, cfg) + chunk_bytes as f64 / cfg.link_bandwidth
}

/// The closing-edge term: what one executed phase pays for an open line's
/// closing edge beyond the α–β model's latency share. The model charges
/// the edge once per phase (`wrap_penalty`); the executed schedule pays it
/// at each of the `n − 1` steps. Zero on a torus ring; negative where the
/// closing edge is no slower than the slowest step (a snake on a torus,
/// closed by one wrap hop), which the model then charges once too often.
fn closing_edge_term(costs: &RingCosts, cfg: &NetworkConfig) -> f64 {
    let steps = costs.n as f64 - 1.0;
    steps * slowest_message(costs, cfg) - costs.phase_alpha_seconds()
}

/// `measured` equals `predicted` to 1e-12 relative: the rounding of a few
/// hundred additions, nothing a model leaves out.
fn assert_relation(what: &str, measured: f64, predicted: f64) {
    let rel = (measured - predicted).abs() / measured.abs();
    assert!(
        rel <= 1e-12,
        "{what}: executed {measured:e} s vs relation {predicted:e} s ({rel:e} relative)"
    );
}

/// The executed unidirectional ring all-reduce against its own ring's α–β
/// costs: `2(n−1)` executed steps, which is the α–β time plus twice the
/// closing-edge term — on torus Y rings (where the term is zero, so
/// executed ≡ α–β), 1-pod open X lines, strided lines run alone, the snake
/// ring and the 4-pod 128-member X line with its optical hops, for
/// 4 ≤ n ≤ 128, from one-element chunks to bandwidth-dominated ones, at
/// both precisions.
#[test]
fn ring_alpha_beta_tracks_numeric_execution() {
    let cfg = NetworkConfig::tpu_v3();
    let on = |mesh: MultipodConfig, ring: &dyn Fn(&Multipod) -> Ring| {
        let network = Network::new(Multipod::new(mesh), cfg);
        let r = ring(network.mesh());
        (network, r)
    };
    let mut cases: Vec<(String, Network, Ring)> = Vec::new();
    for (n, snake_x) in [(4u32, 2u32), (8, 2), (16, 4), (32, 8), (64, 8), (128, 16)] {
        let (network, r) = on(MultipodConfig::mesh(1, n, true), &|m| m.y_ring(0));
        cases.push((format!("torus Y ring n={n}"), network, r));
        let (network, r) = on(MultipodConfig::mesh(n, 1, false), &|m| m.x_line(0));
        cases.push((format!("open X line n={n}"), network, r));
        for stride in [2u32, 4] {
            let mesh = MultipodConfig::mesh(n * stride, 1, false);
            let (network, r) = on(mesh, &|m| m.x_line_strided(0, 1, stride));
            cases.push((format!("X line n={n} stride {stride}"), network, r));
        }
        let snake = MultipodConfig::mesh(snake_x, n / snake_x, true);
        let (network, r) = on(snake, &|m| m.snake_ring());
        cases.push((format!("snake ring {snake_x}x{}", n / snake_x), network, r));
    }
    let (network, r) = on(MultipodConfig::multipod(4), &|m| m.x_line(0));
    cases.push(("4-pod X line n=128".to_string(), network, r));

    for (label, network, r) in &cases {
        let n = r.len();
        let costs = RingCosts::from_ring(network, r, 1).unwrap();
        let term = closing_edge_term(&costs, &cfg);
        if r.wraps() {
            assert_eq!(term, 0.0, "{label}: a torus ring has no closing edge");
        }
        // Chunks of 256 KB and more are bandwidth-dominated; on rings past
        // 8 members their payloads grow too large for a unit test.
        let sizes: &[usize] = if n <= 8 {
            &[1, 256, 1 << 16]
        } else {
            &[1, 256]
        };
        for &per_member in sizes {
            let elems = per_member * n;
            for precision in [Precision::F32, Precision::Bf16] {
                let executed = ring::all_reduce_unidirectional(
                    &mut network.clone(),
                    r,
                    &inputs(n, elems, n as u64),
                    precision,
                    ring::Direction::Forward,
                    SimTime::ZERO,
                )
                .unwrap()
                .time
                .seconds();
                let what = format!("{label} elems={elems} {precision:?}");
                let step = executed_step(&costs, &cfg, precision.wire_bytes(per_member));
                assert_relation(&what, executed, 2.0 * (n as f64 - 1.0) * step);
                let analytic = costs.all_reduce_time(elems, precision, false);
                assert_relation(&what, executed, analytic + 2.0 * term);
            }
        }
    }
}

/// The executed time of each of the 2-D schedule's four phases from the
/// α–β costs of the phase's ring; returns the executed and the α–β
/// breakdowns.
///
/// With `model_stride == 1` the rings of a phase share no link, so a phase
/// is `n − 1` executed steps: the α–β phase time plus the closing-edge
/// term plus the bidirectional term — the α–β form models bidirectional
/// rings, which halve the bytes each direction carries, while the
/// executed schedule is unidirectional.
///
/// With `model_stride = k > 1`, the `k` interleaved X lines of a row share
/// links and run one after another (`phase` issues them in offset order):
/// each line after the first waits, in its first step, until the previous
/// line's last message has cleared the closing-edge links they share, and
/// then runs wait-free. So an X phase lasts one line's `(n − 1)` steps,
/// plus `k − 1` times `(n − 2)` steps and one serialization. The α–β model
/// instead divides the bandwidth by `k` and keeps the latency of one line.
fn assert_two_dim_relation(
    mesh: MultipodConfig,
    elems: usize,
    precision: Precision,
    stride: u32,
) -> (TwoDimBreakdown, TwoDimBreakdown) {
    let cfg = NetworkConfig::tpu_v3();
    let fresh = Network::new(Multipod::new(mesh), cfg);
    let (x_len, y_len) = (fresh.mesh().x_len(), fresh.mesh().y_len());
    let mut network = fresh.clone();
    let ins = inputs((x_len * y_len) as usize, elems, u64::from(x_len + y_len));
    let executed = two_dim_all_reduce(&mut network, &ins, precision, stride, None)
        .unwrap()
        .breakdown;
    let analytic = two_dim_all_reduce_time(&fresh, elems, precision, stride).unwrap();
    let y_costs = RingCosts::from_ring(&fresh, &fresh.mesh().y_ring(0), 1).unwrap();
    let x_line = fresh.mesh().x_line_strided(0, 0, stride);
    let x_alone = RingCosts::from_ring(&fresh, &x_line, 1).unwrap();
    let x_elems = elems / y_len as usize;
    let label = format!("{x_len}x{y_len} elems={elems} {precision:?} stride {stride}");
    for (phase, measured, modelled, costs, phase_elems) in [
        (
            "Y reduce-scatter",
            executed.y_reduce_scatter,
            analytic.y_reduce_scatter,
            &y_costs,
            elems,
        ),
        (
            "X reduce-scatter",
            executed.x_reduce_scatter,
            analytic.x_reduce_scatter,
            &x_alone,
            x_elems,
        ),
        (
            "X all-gather",
            executed.x_all_gather,
            analytic.x_all_gather,
            &x_alone,
            x_elems,
        ),
        (
            "Y all-gather",
            executed.y_all_gather,
            analytic.y_all_gather,
            &y_costs,
            elems,
        ),
    ] {
        let what = format!("{label}: {phase}");
        let steps = costs.n as f64 - 1.0;
        let chunk_bytes = precision.wire_bytes(phase_elems / costs.n);
        let serialization = chunk_bytes as f64 / cfg.link_bandwidth;
        let step = executed_step(costs, &cfg, chunk_bytes);
        if phase.starts_with('X') && stride > 1 {
            let contention = f64::from(stride - 1) * ((steps - 1.0) * step + serialization);
            assert_relation(&what, measured, steps * step + contention);
            continue;
        }
        assert_relation(&what, measured, steps * step);
        let closing_edge = closing_edge_term(costs, &cfg);
        let bidirectional =
            steps * serialization - costs.phase_beta_seconds(phase_elems, precision, true);
        assert_relation(&what, measured, modelled + closing_edge + bidirectional);
    }
    (executed, analytic)
}

/// The full 2-D schedule meets the relation phase by phase, both
/// precisions: stride 1 on meshes up to the 2-pod 64×32 (optical X hops),
/// and the model-parallel strides 2 and 4 with their contention term.
#[test]
fn two_dim_alpha_beta_tracks_numeric_execution() {
    for (x, y, per_chip) in [(4u32, 4u32, 16usize), (8, 8, 1), (16, 8, 4), (32, 4, 2)] {
        for precision in [Precision::F32, Precision::Bf16] {
            let elems = per_chip * (x * y) as usize;
            assert_two_dim_relation(MultipodConfig::mesh(x, y, true), elems, precision, 1);
            for stride in [2, 4].into_iter().filter(|&k| x / k >= 2) {
                assert_two_dim_relation(MultipodConfig::mesh(x, y, true), elems, precision, stride);
            }
        }
    }
    assert_two_dim_relation(MultipodConfig::multipod(2), 2048, Precision::F32, 1);
}

/// The paper's 128×32 machine summing 4 096 f32 gradient elements per
/// replica, the payload of the fault and checkpoint campaigns: the X
/// phases run 128-member open lines whose closing edge crosses the whole
/// multipod, optical links included, and the executed schedule pays it at
/// all 127 steps of each. They take nearly all of the summation, many
/// times what the α–β model charges for them.
#[test]
fn paper_scale_x_phases_pay_the_closing_edge_every_step() {
    let (executed, analytic) =
        assert_two_dim_relation(MultipodConfig::multipod(4), 4096, Precision::F32, 1);
    let x_executed = executed.x_reduce_scatter + executed.x_all_gather;
    let x_analytic = analytic.x_reduce_scatter + analytic.x_all_gather;
    println!(
        "128x32, 4096 f32 elements: executed {:.3} ms, of which X phases {:.3} ms; \
         alpha-beta {:.3} ms, of which X phases {:.3} ms; executed X / alpha-beta X = {:.2}",
        executed.total() * 1e3,
        x_executed * 1e3,
        analytic.total() * 1e3,
        x_analytic * 1e3,
        x_executed / x_analytic,
    );
    assert!(x_executed > 0.99 * executed.total(), "{executed:?}");
    assert!(
        x_executed > 18.0 * x_analytic,
        "{executed:?} vs {analytic:?}"
    );
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
        let mut out = Vec::new();
        write_chrome_trace(&mut out, &recorder.events()).expect("chrome trace writes");
        String::from_utf8(out).expect("chrome trace is UTF-8")
    };
    let text_a = run();
    let text_b = run();
    assert_eq!(text_a, text_b, "export must be byte-identical across runs");

    let back: serde_json::Value = serde_json::from_str(&text_a).unwrap();
    assert_eq!(
        serde_json::to_string(&back).unwrap(),
        text_a,
        "export must round-trip through the parser"
    );
    assert!(back.get("traceEvents").is_some());
    assert!(back.get("otherData").is_some(), "metrics summary embedded");
}
