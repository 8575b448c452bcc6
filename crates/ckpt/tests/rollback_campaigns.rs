//! Whole rollback campaigns: attaching observability changes no answer,
//! and no configuration or plan panics — each returns a report or a typed
//! error.

use proptest::prelude::*;

use multipod_ckpt::{run_rollback_campaign, RollbackConfig};
use multipod_faults::FaultPlan;
use multipod_simnet::SimTime;
use multipod_telemetry::{Obs, Telemetry};
use multipod_topology::{ChipId, MultipodConfig};
use multipod_trace::Recorder;

/// The canned chip-loss campaign at the ledger's scale — on a 32×32 torus,
/// chip 33 (off row 0) dies just after the step that follows the first
/// checkpoint has started — reports the same JSON with a recorder and a
/// registry attached as without: the survivor rings a traced network
/// reserves hop by hop time what an untraced one chains.
#[test]
fn traced_chip_loss_rollback_reports_what_the_untraced_one_does() {
    let config = RollbackConfig::demo(MultipodConfig::mesh(32, 32, true));
    let clean = run_rollback_campaign(&config, &FaultPlan::new(), None).unwrap();
    let fault_step = (config.ckpt_interval + 1) as usize;
    let at = SimTime::from_seconds(clean.steps[fault_step].start_seconds + 1e-9);
    let plan = FaultPlan::new().chip_down(at, ChipId(33));
    let untraced = run_rollback_campaign(&config, &plan, None).unwrap();
    let obs = Obs::new(Some(Recorder::shared()), Some(Telemetry::shared()));
    let traced = run_rollback_campaign(&config, &plan, Some(obs)).unwrap();
    assert_eq!(untraced.rollbacks, 1);
    assert_eq!(
        serde_json::to_string(&untraced).unwrap(),
        serde_json::to_string(&traced).unwrap()
    );
}

/// A fault plan over chips `0..64` — on and off a mesh of at most 32 — at
/// times inside the first few steps.
fn plans() -> impl Strategy<Value = FaultPlan> {
    prop::collection::vec((0u32..5, 0u32..64, 0u32..64, 0u32..8_000), 0..5).prop_map(|events| {
        events
            .into_iter()
            .fold(FaultPlan::new(), |plan, (kind, a, b, micros)| {
                let at = SimTime::from_seconds(f64::from(micros) * 1e-6);
                let (a, b) = (ChipId(a), ChipId(b));
                match kind {
                    0 => plan.link_down(at, a, b),
                    1 => plan.link_up(at, a, b),
                    2 => plan.chip_down(at, a),
                    3 => plan.straggler(at, at + 1e-3, a.0 % 8, 2.0),
                    _ => plan,
                }
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Zero-extent meshes, zero steps, a zero checkpoint interval, empty,
    /// evenly and unevenly dividing payloads, and plans naming off-mesh
    /// chips or non-adjacent pairs: every one returns a report or a typed
    /// error, never a panic.
    #[test]
    fn any_rollback_config_returns_a_report_or_an_error(
        pods in 0u32..3,
        pod_x_len in 0u32..5,
        pod_y_len in 0u32..5,
        torus_y in any::<bool>(),
        steps in 0u64..5,
        ckpt_interval in 0u64..3,
        elems in 0usize..40,
        shardable in any::<bool>(),
        bf16 in any::<bool>(),
        plan in plans(),
    ) {
        let mesh = MultipodConfig { pods, pod_x_len, pod_y_len, torus_y };
        // Half the payloads shard evenly, so most campaigns get to train.
        let replicas = (pods * pod_x_len * pod_y_len) as usize;
        let elems = if shardable { replicas * (1 + elems % 2) } else { elems };
        let config = RollbackConfig {
            steps,
            ckpt_interval,
            elems,
            bf16_gradients: bf16,
            ..RollbackConfig::demo(mesh)
        };
        if let Ok(report) = run_rollback_campaign(&config, &plan, None) {
            prop_assert!(report.steps.len() as u64 >= steps);
        }
    }
}
