//! Checkpoint/rollback recovery campaigns.
//!
//! [`run_rollback_campaign`] trains the same synthetic quadratic
//! objective as the fault campaigns in `multipod-faults`, but under
//! [`RecoveryMode::Rollback`]: periodic sharded checkpoints ride along
//! with training, and when a chip dies the trainer *escalates* instead
//! of absorbing the loss — the campaign restores the last checkpoint
//! onto the survivor mesh, rolls the step counter back, and replays the
//! lost window on the degraded machine.
//!
//! Contrast with the drop-and-renormalize policy (PR 2): rollback pays
//! save + restore + replay time but resumes from exact pre-fault state,
//! while drop-and-renormalize keeps going instantly at the cost of the
//! dead replicas' samples. Both end at the same loss on this objective
//! (its gradient depends only on `w`), which is precisely what makes the
//! time difference the interesting measurement.

use serde::Serialize;

use multipod_collectives::CollectiveError;
use multipod_core::trainer::{DataParallelTrainer, FaultPolicy, RecoveryMode};
use multipod_optim::{LrSchedule, SgdMomentum};
use multipod_simnet::SimTime;
use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::MultipodConfig;
use multipod_trace::{SpanCategory, SpanEvent, Track};

use multipod_faults::{FaultDriver, FaultPlan};

use crate::checkpoint::{restore_checkpoint, save_checkpoint, Checkpoint, PcieCost, StateBundle};
use crate::error::CkptError;
use crate::placement::ShardPlacement;

/// What to train, and how often to checkpoint it.
#[derive(Clone, Debug)]
pub struct RollbackConfig {
    /// The machine.
    pub mesh: MultipodConfig,
    /// Number of training steps.
    pub steps: u64,
    /// Weight payload size in elements; must divide across replicas.
    pub elems: usize,
    /// Constant learning rate for the synthetic quadratic objective.
    pub lr: f32,
    /// Save a checkpoint every this many completed steps; `0` saves only
    /// the step-0 baseline.
    pub ckpt_interval: u64,
    /// Healthy per-step host compute time; stragglers multiply this.
    pub host_seconds_per_step: f64,
    /// Quantize gradient payloads to bf16 on the wire.
    pub bf16_gradients: bool,
    /// Retry/backoff policy; `recovery` is forced to
    /// [`RecoveryMode::Rollback`] by the campaign.
    pub fault_policy: FaultPolicy,
    /// Seed for the synthetic target weights.
    pub seed: u64,
    /// Host-link cost model for checkpoint streaming.
    pub pcie: PcieCost,
}

impl RollbackConfig {
    /// The canned demo campaign on `mesh`: mirrors
    /// `CampaignConfig::demo` (8 steps, one weight element per replica,
    /// seed 17) with a checkpoint every 3 steps.
    pub fn demo(mesh: MultipodConfig) -> RollbackConfig {
        let replicas = (mesh.pods * mesh.pod_x_len * mesh.pod_y_len) as usize;
        RollbackConfig {
            mesh,
            steps: 8,
            elems: replicas,
            lr: 0.05,
            ckpt_interval: 3,
            host_seconds_per_step: 1e-3,
            bf16_gradients: false,
            fault_policy: FaultPolicy::default(),
            seed: 17,
            pcie: PcieCost::criteo(),
        }
    }
}

/// One training step of a rollback campaign.
#[derive(Clone, Debug, Serialize)]
pub struct RollbackStep {
    /// Step ordinal (1-based). Replayed ordinals appear twice.
    pub step: u64,
    /// Campaign time when the step began.
    pub start_seconds: f64,
    /// Wall time of the step: `max(comm, compute × slowdown)`.
    pub step_seconds: f64,
    /// Whether this execution re-ran a step lost to a rollback.
    pub replayed: bool,
    /// Whether the step ran on a degraded (survivor) mesh.
    pub degraded: bool,
    /// Mean-squared distance to the synthetic target after the step.
    pub loss: f64,
}

/// The outcome of a rollback campaign.
#[derive(Clone, Debug, Serialize)]
pub struct RollbackReport {
    /// Per-executed-step reports, in execution order.
    pub steps: Vec<RollbackStep>,
    /// Total simulated campaign time, including saves and restores.
    pub total_seconds: f64,
    /// Loss after the final step.
    pub final_loss: f64,
    /// Checkpoints saved (including the step-0 baseline).
    pub checkpoints_saved: usize,
    /// Simulated seconds spent saving checkpoints.
    pub save_seconds: f64,
    /// Simulated seconds spent restoring checkpoints.
    pub restore_seconds: f64,
    /// Rollback recoveries performed.
    pub rollbacks: usize,
    /// Steps that had to be re-executed after rollbacks.
    pub replayed_steps: u64,
}

/// Runs `plan` against a checkpointed training loop under the rollback
/// recovery policy.
///
/// # Errors
///
/// A mesh with a zero extent, or a plan naming a chip the mesh does not
/// have, is [`CkptError::Network`] (see [`FaultPlan::check`]).
/// Checkpoint-layer failures surface
/// as their [`CkptError`] variants;
/// trainer errors other than the escalated chip-loss signal (which the
/// campaign handles by rolling back) are wrapped in
/// [`CkptError::Collective`]. A mesh that keeps failing past one
/// recovery per planned fault event (plus a small budget) aborts rather
/// than looping forever.
pub fn run_rollback_campaign(
    config: &RollbackConfig,
    plan: &FaultPlan,
    obs: Option<Obs>,
) -> Result<RollbackReport, CkptError> {
    plan.check(&config.mesh)
        .map_err(|e| CkptError::Network(e.into()))?;
    let policy = FaultPolicy {
        recovery: RecoveryMode::Rollback,
        ..config.fault_policy
    };
    let mut trainer = DataParallelTrainer::new(
        config.mesh.clone(),
        SgdMomentum::new(1.0, 0.0),
        LrSchedule::Constant { lr: config.lr },
    )
    .with_fault_policy(policy);
    if config.bf16_gradients {
        trainer = trainer.with_bf16_gradients();
    }
    let obs = obs.unwrap_or_default();
    trainer.set_obs(obs.clone());
    let n = trainer.replicas();
    let mut rng = TensorRng::seed(config.seed);
    let target = rng.uniform(Shape::vector(config.elems), -1.0, 1.0);
    let mut w = Tensor::zeros(Shape::vector(config.elems));

    let mut driver = FaultDriver::new(plan.clone());
    let mut now = SimTime::ZERO;
    let mut steps: Vec<RollbackStep> = Vec::with_capacity(config.steps as usize);
    let mut save_seconds = 0.0;
    let mut restore_seconds = 0.0;
    let mut rollbacks = 0usize;
    let mut replayed_steps = 0u64;
    let mut replay_until = 0u64;
    let max_rollbacks = plan.events().len() + 4;

    // Baseline checkpoint before any training, so a fault in the first
    // window has something to roll back to.
    let mut last_ckpt: Checkpoint;
    {
        let dead = trainer.dead_replicas();
        let placement = ShardPlacement::plan(trainer.network().mesh(), &dead, config.elems)?;
        let bundle = StateBundle::from_optimizer(0, &w, trainer.optimizer(), n)?;
        let saved = save_checkpoint(
            trainer.network_mut(),
            &placement,
            &bundle,
            &config.pcie,
            now,
        )?;
        save_seconds += saved.finish - now;
        now = saved.finish;
        last_ckpt = saved.checkpoint;
    }
    let mut checkpoints_saved = 1usize;

    while trainer.current_step() < config.steps {
        driver.advance(trainer.network_mut(), now);
        // Gradient of ‖w − target‖²/2, split evenly across replicas; the
        // trainer renormalizes survivor sums, so replayed steps on the
        // degraded mesh apply the same effective update.
        let grad = w.sub(&target)?.scale(1.0 / n as f32);
        let grads = vec![grad; n];
        match trainer.step(&mut w, &grads) {
            Ok(stats) => {
                let slowdown = driver.max_slowdown();
                let compute_seconds = config.host_seconds_per_step * slowdown;
                let step_seconds = stats.comm_seconds.max(compute_seconds);
                let end = now + step_seconds;
                let replayed = stats.step <= replay_until;
                if replayed {
                    replayed_steps += 1;
                }
                obs.span(|| {
                    SpanEvent::new(Track::Sim, SpanCategory::Step, "campaign-step", now, end)
                        .with_arg("step", stats.step as f64)
                        .with_arg("replayed", f64::from(u8::from(replayed)))
                        .with_arg("dead_replicas", stats.dead_replicas as f64)
                        .with_arg("degraded", f64::from(u8::from(stats.degraded)))
                });
                let loss = {
                    let err = w.sub(&target)?;
                    let norm = f64::from(err.norm2());
                    norm * norm / config.elems as f64
                };
                steps.push(RollbackStep {
                    step: stats.step,
                    start_seconds: now.seconds(),
                    step_seconds,
                    replayed,
                    degraded: stats.degraded || slowdown > 1.0,
                    loss,
                });
                now = end;
                if stats.step.checked_rem(config.ckpt_interval) == Some(0)
                    && stats.step < config.steps
                {
                    let dead = trainer.dead_replicas();
                    let placement =
                        ShardPlacement::plan(trainer.network().mesh(), &dead, config.elems)?;
                    let bundle =
                        StateBundle::from_optimizer(stats.step, &w, trainer.optimizer(), n)?;
                    let saved = save_checkpoint(
                        trainer.network_mut(),
                        &placement,
                        &bundle,
                        &config.pcie,
                        now,
                    )?;
                    save_seconds += saved.finish - now;
                    now = saved.finish;
                    last_ckpt = saved.checkpoint;
                    checkpoints_saved += 1;
                }
            }
            Err(CollectiveError::Network(err)) => {
                // The trainer escalated a chip loss (RecoveryMode::Rollback):
                // restore the last checkpoint onto the survivor mesh and
                // replay the window since it.
                rollbacks += 1;
                obs.count(MetricId::new(Subsystem::Ckpt, "rollbacks"), 1);
                if rollbacks > max_rollbacks {
                    return Err(CkptError::Network(err));
                }
                let failed_at = trainer.current_step();
                let dead = trainer.dead_replicas();
                let survivor = ShardPlacement::plan(trainer.network().mesh(), &dead, config.elems)?;
                let restored = restore_checkpoint(
                    trainer.network_mut(),
                    &survivor,
                    &last_ckpt,
                    &config.pcie,
                    now,
                )?;
                w = restored.bundle.weights.clone();
                restored
                    .bundle
                    .restore_optimizer(trainer.optimizer_mut(), n)?;
                trainer.rollback_to(restored.bundle.step);
                replay_until = failed_at;
                obs.span(|| {
                    SpanEvent::new(
                        Track::Sim,
                        SpanCategory::Checkpoint,
                        "rollback",
                        now,
                        restored.finish,
                    )
                    .with_arg("failed_at_step", failed_at as f64)
                    .with_arg("restored_step", restored.bundle.step as f64)
                    .with_arg("survivor_shards", survivor.num_shards as f64)
                });
                restore_seconds += restored.finish - now;
                now = restored.finish;
            }
            Err(e) => return Err(CkptError::Collective(e)),
        }
    }
    Ok(RollbackReport {
        total_seconds: now.seconds(),
        final_loss: steps.last().map_or(f64::INFINITY, |s| s.loss),
        checkpoints_saved,
        save_seconds,
        restore_seconds,
        rollbacks,
        replayed_steps,
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_topology::ChipId;
    use multipod_trace::{Recorder, TraceEvent};

    fn demo() -> RollbackConfig {
        RollbackConfig::demo(MultipodConfig::mesh(4, 4, true))
    }

    #[test]
    fn fault_free_rollback_campaign_just_pays_for_checkpoints() {
        let report = run_rollback_campaign(&demo(), &FaultPlan::new(), None).unwrap();
        assert_eq!(report.steps.len(), 8);
        assert_eq!(report.rollbacks, 0);
        assert_eq!(report.replayed_steps, 0);
        // Step 0 baseline + saves after steps 3 and 6.
        assert_eq!(report.checkpoints_saved, 3);
        assert!(report.save_seconds > 0.0);
        assert_eq!(report.restore_seconds, 0.0);
        assert!(report.final_loss < report.steps[0].loss);
    }

    #[test]
    fn chip_loss_rolls_back_replays_and_matches_fault_free_loss() {
        let config = demo();
        let clean = run_rollback_campaign(&config, &FaultPlan::new(), None).unwrap();

        // Kill a chip mid-window: after step 4 ran, before step 5.
        let t = SimTime::from_seconds(clean.steps[4].start_seconds + 1e-9);
        let plan = FaultPlan::new().chip_down(t, ChipId(5));
        let recorder = Recorder::shared();
        let telemetry = multipod_telemetry::Telemetry::shared();
        let obs = Obs::new(Some(recorder.clone()), Some(telemetry.clone()));
        let faulty = run_rollback_campaign(&config, &plan, Some(obs)).unwrap();

        assert_eq!(faulty.rollbacks, 1);
        assert!(faulty.replayed_steps >= 1, "the lost window must replay");
        assert!(faulty.steps.iter().any(|s| s.replayed));
        assert!(faulty.steps.iter().any(|s| s.degraded));
        // Same objective, survivor renormalization → same final loss up
        // to f32 rounding (well inside bf16 tolerance).
        let tol = 1e-3 * (1.0 + clean.final_loss.abs());
        assert!(
            (faulty.final_loss - clean.final_loss).abs() <= tol,
            "rollback must reconverge: {} vs {}",
            faulty.final_loss,
            clean.final_loss
        );
        // Recovery costs strictly more simulated time.
        assert!(faulty.total_seconds > clean.total_seconds);
        assert!(faulty.restore_seconds > 0.0);
        // The rollback window is visible as a traced span.
        let rollback_spans = recorder
            .events()
            .iter()
            .filter(|e| {
                matches!(e, TraceEvent::Span(s)
                    if s.category == SpanCategory::Checkpoint && s.name == "rollback")
            })
            .count();
        assert_eq!(rollback_spans, 1);
        // …and as registry counters that agree with the report.
        let snap = telemetry.snapshot();
        let count = |name| snap.counter(&MetricId::new(Subsystem::Ckpt, name));
        assert_eq!(count("rollbacks"), faulty.rollbacks as u64);
        assert_eq!(count("restores"), faulty.rollbacks as u64);
        assert_eq!(count("saves"), faulty.checkpoints_saved as u64);
    }

    #[test]
    fn rollback_campaign_is_deterministic() {
        let config = demo();
        let t = SimTime::from_seconds(0.004);
        let plan = FaultPlan::new().chip_down(t, ChipId(9));
        let a = run_rollback_campaign(&config, &plan, None).unwrap();
        let b = run_rollback_campaign(&config, &plan, None).unwrap();
        assert_eq!(a.final_loss, b.final_loss);
        assert_eq!(a.total_seconds, b.total_seconds);
        assert_eq!(a.steps.len(), b.steps.len());
    }
}
