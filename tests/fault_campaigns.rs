//! Fault campaigns end-to-end: determinism of the trace export, healing
//! between collective phases, and the scripted acceptance campaign (wrap
//! outage + straggler, chip loss with replica drop and retry).

use multipod::collectives::{ring, Precision};
use multipod::faults::{run_campaign, CampaignConfig, FaultPlan};
use multipod::simnet::{Network, NetworkConfig, SimTime};
use multipod::telemetry::Obs;
use multipod::tensor::{Shape, Tensor, TensorRng};
use multipod::topology::{Coord, Multipod, MultipodConfig};
use multipod::trace::{write_chrome_trace, Recorder};

fn demo_4x4() -> CampaignConfig {
    CampaignConfig::demo(MultipodConfig::mesh(4, 4, true))
}

fn chrome_export(recorder: &Recorder) -> String {
    let mut out = Vec::new();
    write_chrome_trace(&mut out, &recorder.events()).expect("chrome trace writes");
    String::from_utf8(out).expect("chrome trace is UTF-8")
}

/// Same `FaultPlan`, same config → byte-identical Chrome-trace export.
#[test]
fn same_plan_yields_byte_identical_trace_export() {
    let config = demo_4x4();
    let mesh = Multipod::new(config.mesh.clone());
    let plan = FaultPlan::wrap_outage_with_straggler(
        &mesh,
        0,
        SimTime::from_seconds(1e-3),
        SimTime::from_seconds(5e-3),
        1,
        2.0,
    );
    let export = || {
        let recorder = Recorder::shared();
        run_campaign(&config, &plan, Some(Obs::new(Some(recorder.clone()), None)))
            .expect("campaign completes");
        chrome_export(&recorder)
    };
    let first = export();
    let second = export();
    assert!(!first.is_empty());
    assert_eq!(
        first, second,
        "fault campaigns must be reproducible experiments"
    );
}

/// A link fails before the reduce-scatter (which detours) and heals
/// before the all-gather; the reconstructed sum still matches
/// `Tensor::sum_all`, and the healed all-gather runs at healthy speed.
#[test]
fn link_heals_between_reduce_scatter_and_all_gather() {
    let build = || {
        Network::new(
            Multipod::new(MultipodConfig::mesh(2, 4, true)),
            NetworkConfig::tpu_v3(),
        )
    };
    let mut rng = TensorRng::seed(5);
    let inputs: Vec<Tensor> = (0..4)
        .map(|_| rng.uniform(Shape::vector(16), -1.0, 1.0))
        .collect();
    let reference = Tensor::sum_all(&inputs).unwrap();

    // Healthy baseline for phase times.
    let mut healthy_net = build();
    let ring_y = healthy_net.mesh().y_ring(0);
    let rs_healthy = ring::reduce_scatter(
        &mut healthy_net,
        &ring_y,
        &inputs,
        Precision::F32,
        ring::Direction::Forward,
        SimTime::ZERO,
    )
    .unwrap();
    let ag_healthy = ring::all_gather(
        &mut healthy_net,
        &ring_y,
        &rs_healthy.shards,
        Precision::F32,
        ring::Direction::Forward,
        rs_healthy.time,
    )
    .unwrap();

    // Faulty run: the wrap link is down for the reduce-scatter only.
    let mut net = build();
    let ring_y = net.mesh().y_ring(0);
    let top = net.mesh().chip_at(Coord::new(0, 3));
    let bottom = net.mesh().chip_at(Coord::new(0, 0));
    net.fail_link(top, bottom, SimTime::ZERO);
    let rs = ring::reduce_scatter(
        &mut net,
        &ring_y,
        &inputs,
        Precision::F32,
        ring::Direction::Forward,
        SimTime::ZERO,
    )
    .unwrap();
    assert!(
        rs.time > rs_healthy.time,
        "detoured reduce-scatter must be slower"
    );
    net.heal_link(top, bottom, rs.time);
    let ag = ring::all_gather(
        &mut net,
        &ring_y,
        &rs.shards,
        Precision::F32,
        ring::Direction::Forward,
        rs.time,
    )
    .unwrap();
    for out in &ag.outputs {
        assert!(
            out.max_abs_diff(&reference) < 1e-4,
            "heal-mid-collective must not change the sum"
        );
    }
    assert!(
        (ag.time - rs.time) - (ag_healthy.time - rs_healthy.time) < 1e-9,
        "healed all-gather must run at healthy speed"
    );
}

/// The acceptance campaign: a Y wrap link fails at T1 and heals at T2
/// while one host straggles. Training completes with the same final loss
/// as the fault-free run, degraded-window steps are strictly slower, and
/// the failure/heal spans land in the Chrome-trace export.
#[test]
fn scripted_wrap_outage_campaign_meets_acceptance() {
    let config = demo_4x4();
    let clean = run_campaign(&config, &FaultPlan::new(), None).unwrap();

    let mesh = Multipod::new(config.mesh.clone());
    let t1 = SimTime::from_seconds(clean.steps[1].start_seconds);
    let t2 = SimTime::from_seconds(clean.steps[5].start_seconds);
    let plan = FaultPlan::wrap_outage_with_straggler(&mesh, 0, t1, t2, 1, 2.0);
    let recorder = Recorder::shared();
    let faulty = run_campaign(&config, &plan, Some(Obs::new(Some(recorder.clone()), None)))
        .expect("campaign completes training");

    assert_eq!(
        faulty.final_loss, clean.final_loss,
        "timing faults must not change the final loss"
    );
    assert!(faulty.degraded_steps > 0, "the window must be observed");
    for (c, f) in clean.steps.iter().zip(&faulty.steps) {
        if f.degraded {
            assert!(
                f.step_seconds > c.step_seconds,
                "degraded step {} must be strictly slower: {} vs {}",
                f.step,
                f.step_seconds,
                c.step_seconds
            );
        } else {
            assert_eq!(f.step_seconds, c.step_seconds, "clean steps unaffected");
        }
    }
    assert!(faulty.total_seconds > clean.total_seconds);

    let chrome = chrome_export(&recorder);
    for needle in ["link-down", "link-up", "straggler-window", "campaign-step"] {
        assert!(
            chrome.contains(needle),
            "span {needle:?} missing from export"
        );
    }
}

/// Chip loss mid-campaign: the trainer retries with backoff, drops the
/// lost replica, renormalizes, and finishes training — with the
/// failure/retry spans visible in the export.
#[test]
fn chip_loss_campaign_retries_drops_replica_and_traces_it() {
    let config = demo_4x4();
    let clean = run_campaign(&config, &FaultPlan::new(), None).unwrap();

    let mesh = Multipod::new(config.mesh.clone());
    let victim = mesh.chip_at(Coord::new(1, 1));
    let plan =
        FaultPlan::new().chip_down(SimTime::from_seconds(clean.steps[2].start_seconds), victim);
    let recorder = Recorder::shared();
    let faulty = run_campaign(&config, &plan, Some(Obs::new(Some(recorder.clone()), None)))
        .expect("campaign survives the chip loss");

    assert_eq!(faulty.steps.last().unwrap().dead_replicas, 1);
    assert!(
        faulty.steps.iter().any(|s| s.retries > 0),
        "the step hit by the loss must retry"
    );
    assert!(
        faulty.final_loss.is_finite() && faulty.final_loss < faulty.steps[0].loss,
        "training must keep converging on the survivors"
    );

    let chrome = chrome_export(&recorder);
    for needle in ["chip-down", "replica-lost", "step-retry", "degraded-update"] {
        assert!(
            chrome.contains(needle),
            "span {needle:?} missing from export"
        );
    }
}
