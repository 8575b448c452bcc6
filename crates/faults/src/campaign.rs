//! Deterministic fault-campaign runs.
//!
//! [`run_campaign`] trains a small synthetic data-parallel model on the
//! configured mesh while a [`FaultDriver`] replays the plan's faults at
//! step boundaries (the granularity at which a real control plane detects
//! them). Everything — the model, the gradients, the fault schedule, the
//! network — is deterministic, so a campaign is an experiment that can be
//! re-run to byte-identical traces.

use serde::Serialize;

use multipod_collectives::CollectiveError;
use multipod_core::trainer::{DataParallelTrainer, FaultPolicy};
use multipod_optim::{LrSchedule, SgdMomentum};
use multipod_simnet::SimTime;
use multipod_telemetry::Obs;
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::MultipodConfig;
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::driver::FaultDriver;
use crate::plan::FaultPlan;

/// What to train while the faults land.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// The machine.
    pub mesh: MultipodConfig,
    /// Number of training steps.
    pub steps: u64,
    /// Gradient/weight payload size in elements; must divide evenly
    /// across the replica count.
    pub elems: usize,
    /// Constant learning rate for the synthetic quadratic objective.
    pub lr: f32,
    /// Healthy per-step host compute time; stragglers multiply this.
    pub host_seconds_per_step: f64,
    /// Quantize gradient payloads to bf16 on the wire.
    pub bf16_gradients: bool,
    /// Retry/backoff policy handed to the trainer.
    pub fault_policy: FaultPolicy,
    /// Seed for the synthetic target weights.
    pub seed: u64,
}

impl CampaignConfig {
    /// A small canned campaign on `mesh`: 8 steps of a quadratic
    /// objective with one weight element per replica (the smallest
    /// payload that shards evenly at any scale).
    pub fn demo(mesh: MultipodConfig) -> CampaignConfig {
        let replicas = (mesh.pods * mesh.pod_x_len * mesh.pod_y_len) as usize;
        CampaignConfig {
            mesh,
            steps: 8,
            elems: replicas,
            lr: 0.05,
            host_seconds_per_step: 1e-3,
            bf16_gradients: false,
            fault_policy: FaultPolicy::default(),
            seed: 17,
        }
    }
}

/// One step of a campaign run.
#[derive(Clone, Debug, Serialize)]
pub struct StepReport {
    /// Step ordinal (1-based, as reported by the trainer).
    pub step: u64,
    /// Campaign time when the step began.
    pub start_seconds: f64,
    /// Wall time of the step: `max(comm, compute × slowdown)`.
    pub step_seconds: f64,
    /// Simulated communication time, including retry backoff.
    pub comm_seconds: f64,
    /// Host compute time after straggler slowdown.
    pub compute_seconds: f64,
    /// Preflight retries the trainer needed.
    pub retries: u32,
    /// Replicas dropped so far.
    pub dead_replicas: usize,
    /// Whether the step ran over detours or a survivor ring.
    pub degraded: bool,
    /// Mean-squared distance to the synthetic target after the step.
    pub loss: f64,
}

/// The outcome of a whole campaign.
#[derive(Clone, Debug, Serialize)]
pub struct CampaignReport {
    /// Per-step reports, in order.
    pub steps: Vec<StepReport>,
    /// Total simulated campaign time.
    pub total_seconds: f64,
    /// Loss after the final step.
    pub final_loss: f64,
    /// How many steps ran degraded.
    pub degraded_steps: usize,
}

impl CampaignReport {
    /// Mean step time over steps flagged degraded (`None` when none were).
    pub fn mean_degraded_step_seconds(&self) -> Option<f64> {
        mean(self.steps.iter().filter(|s| s.degraded))
    }

    /// Mean step time over fault-free steps (`None` when all degraded).
    pub fn mean_clean_step_seconds(&self) -> Option<f64> {
        mean(self.steps.iter().filter(|s| !s.degraded))
    }
}

fn mean<'a>(steps: impl Iterator<Item = &'a StepReport>) -> Option<f64> {
    let (mut sum, mut count) = (0.0, 0usize);
    for s in steps {
        sum += s.step_seconds;
        count += 1;
    }
    (count > 0).then(|| sum / count as f64)
}

/// Runs `plan` against a training loop described by `config`, recording
/// through `obs` when one is given.
///
/// Faults apply at step boundaries: before each step, every plan event
/// whose time has passed is applied to the network; the trainer then
/// detects and absorbs the damage (detours, replica loss, retries). The
/// synthetic objective is `‖w − target‖²`, whose gradient depends only on
/// `w`, so two campaigns differing merely in *timing* faults (outages
/// with detours, stragglers) produce bit-identical weights and losses.
///
/// # Errors
///
/// * [`FaultPlan::check`]'s errors for a mesh with a zero extent or a
///   plan naming a chip the mesh does not have (as
///   [`CollectiveError::Network`]).
/// * Trainer errors, e.g. when the mesh stays unroutable past the retry
///   budget or the payload does not shard evenly.
pub fn run_campaign(
    config: &CampaignConfig,
    plan: &FaultPlan,
    obs: Option<Obs>,
) -> Result<CampaignReport, CollectiveError> {
    plan.check(&config.mesh)?;
    let mut trainer = DataParallelTrainer::new(
        config.mesh.clone(),
        SgdMomentum::new(1.0, 0.0),
        LrSchedule::Constant { lr: config.lr },
    )
    .with_fault_policy(config.fault_policy);
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
    let mut steps = Vec::with_capacity(config.steps as usize);
    for _ in 0..config.steps {
        driver.advance(trainer.network_mut(), now);
        // Gradient of ‖w − target‖²/2, split evenly across replicas.
        let grad = w.sub(&target)?.scale(1.0 / n as f32);
        let grads = vec![grad; n];
        let stats = trainer.step(&mut w, &grads)?;
        let slowdown = driver.max_slowdown();
        let compute_seconds = config.host_seconds_per_step * slowdown;
        let step_seconds = stats.comm_seconds.max(compute_seconds);
        let end = now + step_seconds;
        if let Some(sink) = obs.sink() {
            sink.record_span(
                SpanEvent::new(Track::Sim, SpanCategory::Step, "campaign-step", now, end)
                    .with_arg("step", stats.step as f64)
                    .with_arg("retries", f64::from(stats.retries))
                    .with_arg("dead_replicas", stats.dead_replicas as f64)
                    .with_arg("degraded", f64::from(u8::from(stats.degraded))),
            );
            for (host, s) in driver.active_stragglers() {
                sink.record_span(
                    SpanEvent::new(
                        Track::Host { host },
                        SpanCategory::Fault,
                        "straggler-window",
                        now,
                        end,
                    )
                    .with_arg("slowdown", s),
                );
            }
        }
        let loss = {
            let err = w.sub(&target)?;
            let norm = f64::from(err.norm2());
            norm * norm / config.elems as f64
        };
        steps.push(StepReport {
            step: stats.step,
            start_seconds: now.seconds(),
            step_seconds,
            comm_seconds: stats.comm_seconds,
            compute_seconds,
            retries: stats.retries,
            dead_replicas: stats.dead_replicas,
            degraded: stats.degraded || slowdown > 1.0,
            loss,
        });
        now = end;
    }
    Ok(CampaignReport {
        total_seconds: now.seconds(),
        final_loss: steps.last().map_or(f64::INFINITY, |s| s.loss),
        degraded_steps: steps.iter().filter(|s| s.degraded).count(),
        steps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_campaign_learns_and_reports() {
        let config = CampaignConfig::demo(MultipodConfig::mesh(4, 4, true));
        let report = run_campaign(&config, &FaultPlan::new(), None).unwrap();
        assert_eq!(report.steps.len(), 8);
        assert_eq!(report.degraded_steps, 0);
        assert!(report.final_loss < report.steps[0].loss, "loss must fall");
        assert!(report.total_seconds > 0.0);
        assert!(report.mean_degraded_step_seconds().is_none());
    }

    #[test]
    fn wrap_outage_campaign_matches_fault_free_loss_but_costs_time() {
        let config = CampaignConfig::demo(MultipodConfig::mesh(4, 4, true));
        let clean = run_campaign(&config, &FaultPlan::new(), None).unwrap();

        // Outage + straggler over the middle of the run.
        let mesh = multipod_topology::Multipod::new(config.mesh.clone());
        let t1 = SimTime::from_seconds(clean.steps[1].start_seconds);
        let t2 = SimTime::from_seconds(clean.steps[5].start_seconds);
        let plan = FaultPlan::wrap_outage_with_straggler(&mesh, 0, t1, t2, 1, 2.0);
        let faulty = run_campaign(&config, &plan, None).unwrap();

        assert_eq!(
            faulty.final_loss, clean.final_loss,
            "timing faults must not change numerics"
        );
        assert!(faulty.degraded_steps > 0);
        assert!(
            faulty.total_seconds > clean.total_seconds,
            "degraded windows must cost simulated time"
        );
        let degraded = faulty.mean_degraded_step_seconds().unwrap();
        let clean_mean = faulty.mean_clean_step_seconds().unwrap();
        assert!(
            degraded > clean_mean,
            "degraded steps must be slower: {degraded} vs {clean_mean}"
        );
    }
}
