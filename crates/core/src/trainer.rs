//! A reusable data-parallel training loop over the simulated multipod.
//!
//! Packages the §3.2 + §3.3 pattern: per-chip local gradients go through
//! the 2-D reduce-scatter, the optimizer step runs **sharded** at the
//! shard owners on the reduced gradient shards (trust-ratio norms
//! reconstructed from per-shard partials), and the all-gather leaves
//! every replica with identical updated weights. A [`multipod_optim::LrSchedule`]
//! drives the rate.
//!
//! ```
//! use multipod_core::trainer::DataParallelTrainer;
//! use multipod_optim::{LrSchedule, SgdMomentum};
//! use multipod_tensor::{Shape, Tensor};
//! use multipod_topology::MultipodConfig;
//!
//! let mut trainer = DataParallelTrainer::new(
//!     MultipodConfig::mesh(2, 2, true),
//!     SgdMomentum::new(1.0, 0.0),
//!     LrSchedule::Constant { lr: 0.5 },
//! );
//! let mut weights = Tensor::fill(Shape::vector(4), 1.0);
//! let grads = vec![Tensor::fill(Shape::vector(4), 0.25); 4];
//! trainer.step(&mut weights, &grads).unwrap();
//! // w -= 0.5 * Σ grads = 1.0 - 0.5*1.0
//! assert!((weights.data()[0] - 0.5).abs() < 1e-6);
//! ```

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use multipod_collectives::degraded::ring_degradation;
use multipod_collectives::ring;
use multipod_collectives::twod::{shard_index, two_dim_all_gather, two_dim_reduce_scatter};
use multipod_collectives::{CollectiveError, Precision};
use multipod_optim::{LayerStats, LrSchedule, Optimizer, StateKey};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_telemetry::Obs;
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{ChipId, MultipodConfig, Ring};
use multipod_trace::{SpanCategory, SpanEvent, Track};

/// Timing of one trainer step.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TrainStepStats {
    /// Simulated gradient-summation (and broadcast) time, seconds.
    pub comm_seconds: f64,
    /// The learning rate used.
    pub lr: f32,
    /// Steps taken so far.
    pub step: u64,
    /// Retries this step burned on fault recovery (0 on the happy path).
    pub retries: u32,
    /// Replicas dropped from the data-parallel group so far.
    pub dead_replicas: usize,
    /// Whether the step ran over detoured links or a survivor ring.
    pub degraded: bool,
}

/// What the trainer does with replicas lost to chip isolation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryMode {
    /// Drop lost replicas from the data-parallel group and renormalize
    /// the gradient average over the survivors (Kumar & Jouppi's
    /// graceful degradation; the PR 2 behavior and the default).
    #[default]
    DropReplicas,
    /// Surface replica loss to the caller instead of absorbing it: the
    /// step fails with the triggering `Network` error after the dead set
    /// is updated, so a checkpoint layer (see `multipod-ckpt`) can roll
    /// the run back to the last checkpoint and resume on the survivor
    /// mesh at full capacity minus the failures.
    Rollback,
}

/// How the trainer reacts to faults mid-run: how often it retries a step
/// after re-planning, how much simulated time each re-plan costs, and
/// whether replica loss is absorbed (drop + renormalize) or escalated to
/// a rollback layer.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultPolicy {
    /// Maximum step retries before the fault is surfaced as an error.
    pub max_retries: u32,
    /// Simulated re-plan cost of the first retry, seconds; doubled on each
    /// further retry (bounded exponential backoff).
    pub backoff_seconds: f64,
    /// What to do about replicas lost to chip isolation.
    pub recovery: RecoveryMode,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            max_retries: 3,
            backoff_seconds: 1e-3,
            recovery: RecoveryMode::DropReplicas,
        }
    }
}

/// A data-parallel trainer: one model replica per chip of the configured
/// mesh, gradients summed with the paper's 2-D schedule, weight update
/// sharded across all chips.
///
/// The trainer tolerates topology faults: steps are pre-flighted against
/// the current mesh, lost (isolated) replicas are dropped from the group
/// with the gradient average renormalized over survivors, and each
/// re-plan retries the step under a bounded-backoff [`FaultPolicy`].
#[derive(Debug)]
pub struct DataParallelTrainer<O: Optimizer> {
    net: Network,
    optimizer: O,
    schedule: LrSchedule,
    precision: Precision,
    step: u64,
    fault_policy: FaultPolicy,
    /// Chip indices of replicas dropped after isolation.
    dead: BTreeSet<usize>,
}

impl<O: Optimizer> DataParallelTrainer<O> {
    /// Builds a trainer over a mesh configuration.
    pub fn new(mesh: MultipodConfig, optimizer: O, schedule: LrSchedule) -> Self {
        DataParallelTrainer {
            net: Network::new(
                multipod_topology::Multipod::new(mesh),
                NetworkConfig::tpu_v3(),
            ),
            optimizer,
            schedule,
            precision: Precision::F32,
            step: 0,
            fault_policy: FaultPolicy::default(),
            dead: BTreeSet::new(),
        }
    }

    /// Switches the gradient-summation payload to bfloat16 (§3.3).
    pub fn with_bf16_gradients(mut self) -> Self {
        self.precision = Precision::Bf16;
        self
    }

    /// Overrides the fault-recovery policy.
    pub fn with_fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.fault_policy = policy;
        self
    }

    /// Number of replicas (= chips).
    pub fn replicas(&self) -> usize {
        self.net.mesh().num_chips()
    }

    /// Attaches an observability handle to the trainer's network:
    /// subsequent steps record link transfers, collective phases and step
    /// spans through it. `Obs::default()` restores zero-overhead stepping.
    pub fn set_obs(&mut self, obs: Obs) {
        self.net.set_obs(obs);
    }

    /// The simulated network the trainer steps on.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// Mutable access to the network, so fault drivers can fail and heal
    /// links mid-run (cached routing state invalidates automatically).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.net
    }

    /// Chip indices of replicas dropped after isolation, in index order.
    pub fn dead_replicas(&self) -> Vec<usize> {
        self.dead.iter().copied().collect()
    }

    /// The optimizer driving the weight updates.
    pub fn optimizer(&self) -> &O {
        &self.optimizer
    }

    /// Mutable optimizer access, so a checkpoint layer can export and
    /// re-import its state around a rollback.
    pub fn optimizer_mut(&mut self) -> &mut O {
        &mut self.optimizer
    }

    /// Steps taken so far (the value the next [`Self::step`] reports as
    /// `step - 1`).
    pub fn current_step(&self) -> u64 {
        self.step
    }

    /// Rewinds the step counter to `step`, so the learning-rate schedule
    /// replays exactly as it did the first time. Optimizer state is *not*
    /// touched — the rollback layer re-imports it from the checkpoint.
    pub fn rollback_to(&mut self, step: u64) {
        self.step = step;
    }

    /// One training step: sums `local_grads` (one per chip) with the 2-D
    /// schedule, applies the sharded optimizer update at the shard owners,
    /// and writes the identical updated weights back into `weights`.
    ///
    /// Faults are tolerated: each attempt is pre-flighted against the
    /// current mesh before optimizer state advances, replicas isolated by
    /// chip loss are dropped (gradient average renormalized over the
    /// survivors) and the step is retried under the bounded-backoff
    /// [`FaultPolicy`], with `step-retry`/`replica-lost` fault spans on
    /// the trace sink.
    ///
    /// # Errors
    ///
    /// Fails when the gradient count differs from the replica count, the
    /// payload does not shard evenly, or the mesh stays unroutable after
    /// `max_retries` re-plans.
    ///
    /// # Panics
    ///
    /// Panics if gradient shapes disagree with the weights.
    pub fn step(
        &mut self,
        weights: &mut Tensor,
        local_grads: &[Tensor],
    ) -> Result<TrainStepStats, CollectiveError> {
        let n = self.replicas();
        if local_grads.len() != n {
            return Err(CollectiveError::ParticipantMismatch {
                inputs: local_grads.len(),
                members: n,
            });
        }
        let lr = self.schedule.at(self.step);
        self.optimizer.set_learning_rate(lr);
        self.net.reset();

        let mut retries = 0u32;
        let mut start = SimTime::ZERO;
        loop {
            // Pre-flight routability first so optimizer state advances at
            // most once per step: faults surface before `prepare` runs.
            let preflight = if self.dead.is_empty() {
                self.preflight_full()
            } else {
                self.preflight_survivors()
            };
            match preflight {
                Ok(degraded) => {
                    let time = if self.dead.is_empty() {
                        self.full_step(weights, local_grads, lr, start)?
                    } else {
                        self.survivor_step(weights, local_grads, start)?
                    };
                    self.net.obs().span(|| {
                        SpanEvent::new(
                            Track::Sim,
                            SpanCategory::Step,
                            "train-step",
                            SimTime::ZERO,
                            time,
                        )
                        .with_arg("step", (self.step + 1) as f64)
                        .with_arg("lr", lr as f64)
                    });
                    self.step += 1;
                    return Ok(TrainStepStats {
                        comm_seconds: time.seconds(),
                        lr,
                        step: self.step,
                        retries,
                        dead_replicas: self.dead.len(),
                        degraded: degraded || !self.dead.is_empty(),
                    });
                }
                Err(CollectiveError::Network(err)) => {
                    retries += 1;
                    if retries > self.fault_policy.max_retries {
                        return Err(CollectiveError::Network(err));
                    }
                    let lost = self.mark_isolated_replicas(start);
                    if self.dead.len() >= n {
                        return Err(CollectiveError::Network(err));
                    }
                    if self.fault_policy.recovery == RecoveryMode::Rollback && lost > 0 {
                        // Escalate instead of absorbing: optimizer state
                        // has not advanced this attempt, so the caller
                        // can restore the last checkpoint and re-drive
                        // the step on the survivor mesh.
                        self.emit_sim_fault(
                            "rollback-required",
                            start,
                            start,
                            &[("replicas_lost", lost as f64)],
                        );
                        return Err(CollectiveError::Network(err));
                    }
                    // Bounded exponential backoff in simulated time: the
                    // re-plan (failure detection, new ring computation)
                    // costs a backoff window that doubles per retry.
                    let delay = self.fault_policy.backoff_seconds
                        * f64::from(1u32 << (retries - 1).min(30));
                    self.emit_sim_fault(
                        "step-retry",
                        start,
                        start + delay,
                        &[
                            ("retry", f64::from(retries)),
                            ("replicas_lost", lost as f64),
                        ],
                    );
                    start += delay;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Routability pre-flight for the full 2-D schedule: every edge of
    /// every Y ring and X line must route. Returns whether any edge is
    /// detoured around a failed link.
    fn preflight_full(&self) -> Result<bool, CollectiveError> {
        let mesh = self.net.mesh();
        if mesh.failed_links().is_empty() {
            return Ok(false);
        }
        let mut degraded = false;
        for x in 0..mesh.x_len() {
            degraded |= ring_degradation(mesh, &mesh.y_ring(x))?.is_some();
        }
        for y in 0..mesh.y_len() {
            degraded |= ring_degradation(mesh, &mesh.x_line(y))?.is_some();
        }
        Ok(degraded)
    }

    /// Routability pre-flight for the survivor ring (always degraded).
    fn preflight_survivors(&self) -> Result<bool, CollectiveError> {
        let survivors = self.survivors();
        if survivors.len() >= 2 {
            ring_degradation(self.net.mesh(), &Ring::new(survivors, false, 1))?;
        }
        Ok(true)
    }

    fn survivors(&self) -> Vec<ChipId> {
        self.net
            .mesh()
            .survivor_order(|c| !self.dead.contains(&c.index()))
    }

    /// Marks replicas on isolated chips as dead, emitting one
    /// `replica-lost` fault span each; returns how many were newly lost.
    fn mark_isolated_replicas(&mut self, at: SimTime) -> usize {
        let mesh = self.net.mesh();
        let newly: Vec<ChipId> = mesh
            .chips()
            .filter(|&c| mesh.is_isolated(c) && !self.dead.contains(&c.index()))
            .collect();
        let count = newly.len();
        for chip in newly {
            self.dead.insert(chip.index());
            self.net.obs().span(|| {
                SpanEvent::new(
                    Track::Chip {
                        pod: self.net.mesh().pod_of(chip),
                        chip: chip.0,
                    },
                    SpanCategory::Fault,
                    "replica-lost",
                    at,
                    at,
                )
            });
        }
        count
    }

    fn emit_sim_fault(&self, name: &str, start: SimTime, end: SimTime, args: &[(&str, f64)]) {
        self.net.obs().span(|| {
            args.iter().fold(
                SpanEvent::new(Track::Sim, SpanCategory::Fault, name, start, end),
                |span, &(key, value)| span.with_arg(key, value),
            )
        });
    }

    /// The fault-free dataflow (§3.2 + §3.3): the 2-D reduce-scatter
    /// leaves each chip one shard of the summed gradient, each owner
    /// updates its weight shard from it, and the all-gather hands every
    /// replica the updated weights. The all-gather runs at f32 whatever
    /// the gradient wire: master weights stay f32, only gradients ride
    /// bf16.
    fn full_step(
        &mut self,
        weights: &mut Tensor,
        local_grads: &[Tensor],
        lr: f32,
        start: SimTime,
    ) -> Result<SimTime, CollectiveError> {
        let n = self.replicas();
        let mut reduced = two_dim_reduce_scatter(&mut self.net, local_grads, self.precision, 1)?;
        let mesh = self.net.mesh();
        let mut owner = vec![0; n];
        for chip in mesh.chips() {
            owner[shard_index(mesh, chip, 1)?] = chip.index();
        }
        let grad_shards = owner.iter().map(|&c| &reduced.shards[c]);
        let updated = self.update_shards(weights, grad_shards)?;
        for (w_shard, &c) in updated.into_iter().zip(&owner) {
            reduced.shards[c] = w_shard;
        }
        // The owners update in no simulated time, when the reduce half ends.
        let update_at = reduced.time;
        let out = two_dim_all_gather(&mut self.net, reduced, Precision::F32, 1)?;
        debug_assert!(
            out.outputs.iter().all(|o| {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                o.shares_storage(&out.outputs[0]) || bits(o) == bits(&out.outputs[0])
            }),
            "replicas must leave the summation with identical weights"
        );
        *weights = out.outputs[0].clone().reshape(weights.shape().clone())?;
        self.net.obs().span(|| {
            SpanEvent::new(
                Track::Sim,
                SpanCategory::Optimizer,
                "sharded-weight-update",
                update_at,
                update_at,
            )
            .with_arg("shards", n as f64)
            .with_arg("lr", lr as f64)
        });
        // The 2-D schedule times its phases from SimTime::ZERO; shift by
        // the step's (backoff-delayed) start.
        Ok(start + out.time.seconds())
    }

    /// The owners' half of weight-update sharding: `prepare` every shard
    /// of the flattened `weights` with its gradient shard, in shard order,
    /// merge the layer statistics (the scalar all-reduce LARS and LAMB
    /// need, untimed), then `apply` each. Returns the updated shards.
    fn update_shards<'g>(
        &mut self,
        weights: &Tensor,
        grad_shards: impl ExactSizeIterator<Item = &'g Tensor>,
    ) -> Result<Vec<Tensor>, CollectiveError> {
        let flat = weights.clone().reshape(Shape::vector(weights.len()))?;
        let mut w_shards = flat.split(0, grad_shards.len())?;
        let mut global = LayerStats::default();
        let mut updates = Vec::with_capacity(w_shards.len());
        for (shard, (w, g)) in w_shards.iter().zip(grad_shards).enumerate() {
            let (u, stats) = self.optimizer.prepare(StateKey { layer: 0, shard }, w, g)?;
            global = global.merge(stats);
            updates.push(u);
        }
        for (w, u) in w_shards.iter_mut().zip(&updates) {
            self.optimizer.apply(w, u, global)?;
        }
        Ok(w_shards)
    }

    /// The degraded dataflow after replica loss: gradients of the
    /// survivors are summed on a routed ring over the remaining chips and
    /// the average is renormalized by `n / survivors`, so the update keeps
    /// the magnitude of the full data-parallel batch (Kumar & Jouppi's
    /// graceful-degradation recipe). Optimizer shards and their momentum
    /// state are unchanged: only the gradient estimate loses samples.
    fn survivor_step(
        &mut self,
        weights: &mut Tensor,
        local_grads: &[Tensor],
        start: SimTime,
    ) -> Result<SimTime, CollectiveError> {
        let n = self.replicas();
        let survivors = self.survivors();
        let s = survivors.len();
        debug_assert!(s >= 1, "step() refuses to run with zero survivors");
        let survivor_grads: Vec<Tensor> = survivors
            .iter()
            .map(|c| local_grads[c.index()].clone())
            .collect();
        // Time the collective on the network; numerics below use the
        // host-side sum so renormalization stays bit-deterministic.
        let time = if s >= 2 {
            let ring = Ring::new(survivors.clone(), false, 1);
            match ring::all_reduce(&mut self.net, &ring, &survivor_grads, self.precision, start) {
                Ok(out) => out.time,
                Err(CollectiveError::IndivisiblePayload { .. }) => {
                    // The payload does not split across the survivor count:
                    // fall back to a routed gather + broadcast through the
                    // first survivor.
                    let root = survivors[0];
                    let bytes = self.precision.wire_bytes(survivor_grads[0].len());
                    let gather: Vec<(ChipId, ChipId, u64)> =
                        survivors[1..].iter().map(|&c| (c, root, bytes)).collect();
                    let gathered = self.net.parallel_transfers(&gather, start)?;
                    let scatter: Vec<(ChipId, ChipId, u64)> =
                        survivors[1..].iter().map(|&c| (root, c, bytes)).collect();
                    self.net.parallel_transfers(&scatter, gathered)?
                }
                Err(e) => return Err(e),
            }
        } else {
            start
        };
        let scale = n as f32 / s as f32;
        let grad_sum = Tensor::sum_all(&survivor_grads)?.scale(scale);
        let g_shards = grad_sum
            .reshape(Shape::vector(weights.len()))?
            .split(0, n)?;
        let updated = self.update_shards(weights, g_shards.iter())?;
        *weights = Tensor::concat(&updated, 0)?.reshape(weights.shape().clone())?;
        self.emit_sim_fault(
            "degraded-update",
            time,
            time,
            &[
                ("survivors", s as f64),
                ("renormalization", f64::from(scale)),
            ],
        );
        Ok(time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_optim::{Lamb, SgdMomentum};
    use multipod_tensor::{Shape, TensorRng};

    #[test]
    fn trainer_matches_single_node_sgd() {
        let n = 16usize;
        let elems = 64usize;
        let mut rng = TensorRng::seed(6);
        let mut w_dist = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut w_ref = w_dist.clone();
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(4, 4, true),
            SgdMomentum::new(1.0, 0.9),
            LrSchedule::Constant { lr: 0.05 },
        );
        let mut reference = SgdMomentum::new(0.05, 0.9);
        for _ in 0..10 {
            let grads: Vec<Tensor> = (0..n)
                .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
                .collect();
            trainer.step(&mut w_dist, &grads).unwrap();
            reference
                .step(0, &mut w_ref, &Tensor::sum_all(&grads).unwrap())
                .unwrap();
        }
        assert!(
            w_dist.max_abs_diff(&w_ref) < 1e-4,
            "distributed == single-node: {}",
            w_dist.max_abs_diff(&w_ref)
        );
    }

    #[test]
    fn trainer_converges_with_lamb_and_schedule() {
        let n = 4usize;
        let elems = 32usize;
        let mut rng = TensorRng::seed(7);
        let target = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut w = Tensor::zeros(Shape::vector(elems));
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(2, 2, true),
            Lamb::new(1.0, 0.0),
            LrSchedule::lamb_bert(0.3, 5, 80),
        )
        .with_bf16_gradients();
        for _ in 0..80 {
            // grad of ||w - target||²/2, split evenly across replicas.
            let g = w.sub(&target).unwrap().scale(1.0 / n as f32);
            let grads = vec![g; n];
            trainer.step(&mut w, &grads).unwrap();
        }
        let err = w.sub(&target).unwrap().norm2() / target.norm2();
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn bf16_replicas_stay_in_step_on_a_4x4_mesh() {
        // Each healthy step `debug_assert!`s that all 16 replicas left the
        // summation with the same bits. Seen from outside: the weights the
        // trainer keeps are chip 0's, and the all-gather brought them back
        // at f32 — master weights keep the bits a bf16 wire would drop.
        let n = 16usize;
        let elems = 64usize;
        let mut rng = TensorRng::seed(8);
        let target = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut w = Tensor::zeros(Shape::vector(elems));
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(4, 4, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.5 },
        )
        .with_bf16_gradients();
        for step in 0..5 {
            let g = w.sub(&target).unwrap().scale(1.0 / n as f32);
            trainer.step(&mut w, &vec![g; n]).unwrap();
            assert_ne!(w, w.to_bf16_precision(), "step {step}");
        }
        // Five halvings of the error, less what the bf16 wire loses.
        let err = w.sub(&target).unwrap().norm2() / target.norm2();
        assert!(err < 0.15, "relative error {err}");
    }

    #[test]
    fn bf16_sgd_steps_on_the_gradient_the_network_summed() {
        // SGD at lr 1 from zero weights: the new weights are minus the
        // gradient the optimizer saw. On a bf16 wire that is the 2-D
        // reduce-scatter's sum (bf16 partial sums, f32 at the owner),
        // brought back unrounded — not the f32 host sum.
        let n = 16usize;
        let elems = 64usize;
        let mut rng = TensorRng::seed(31);
        let grads: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
            .collect();
        let mesh = MultipodConfig::mesh(4, 4, true);
        let mut net = Network::new(
            multipod_topology::Multipod::new(mesh.clone()),
            NetworkConfig::tpu_v3(),
        );
        let reduced = two_dim_reduce_scatter(&mut net, &grads, Precision::Bf16, 1).unwrap();
        let network_sum = two_dim_all_gather(&mut net, reduced, Precision::F32, 1)
            .unwrap()
            .outputs[0]
            .clone();
        let host_sum = Tensor::sum_all(&grads).unwrap();
        assert_ne!(network_sum, host_sum, "the inputs must tell the sums apart");
        assert_ne!(
            network_sum.scale(-1.0),
            host_sum.scale(-1.0).to_bf16_precision()
        );

        let mut trainer = DataParallelTrainer::new(
            mesh,
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 1.0 },
        )
        .with_bf16_gradients();
        let mut w = Tensor::zeros(Shape::vector(elems));
        trainer.step(&mut w, &grads).unwrap();
        assert_eq!(w, network_sum.scale(-1.0));
    }

    #[test]
    fn single_member_ring_degenerates() {
        // One replica: no ring communicates, the owner updates the whole
        // layer, and the step costs no simulated time.
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(1, 1, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        );
        let mut w = Tensor::fill(Shape::vector(8), 1.0);
        let stats = trainer
            .step(&mut w, &[Tensor::fill(Shape::vector(8), 1.0)])
            .unwrap();
        assert!((w.data()[0] - 0.9).abs() < 1e-6);
        assert_eq!(stats.comm_seconds, 0.0);
    }

    #[test]
    fn schedule_and_counter_advance() {
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(2, 1, false),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::lars_resnet(1.0, 4, 10),
        );
        let mut w = Tensor::fill(Shape::vector(4), 1.0);
        let grads = vec![Tensor::zeros(Shape::vector(4)); 2];
        let s1 = trainer.step(&mut w, &grads).unwrap();
        let s2 = trainer.step(&mut w, &grads).unwrap();
        assert_eq!(s1.step, 1);
        assert_eq!(s2.step, 2);
        assert!(s2.lr > s1.lr, "warmup must raise the rate");
    }

    #[test]
    fn wrong_replica_count_is_rejected() {
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(2, 2, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        );
        let mut w = Tensor::fill(Shape::vector(4), 1.0);
        let grads = vec![Tensor::zeros(Shape::vector(4)); 3];
        assert!(trainer.step(&mut w, &grads).is_err());
    }

    #[test]
    fn traced_step_emits_step_and_optimizer_spans() {
        use multipod_trace::Recorder;
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(2, 2, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        );
        let recorder = Recorder::shared();
        trainer.set_obs(Obs::new(Some(recorder.clone()), None));
        let mut w = Tensor::fill(Shape::vector(16), 1.0);
        let grads = vec![Tensor::fill(Shape::vector(16), 0.5); 4];
        let stats = trainer.step(&mut w, &grads).unwrap();

        let count = |category: SpanCategory, name: &str| {
            recorder
                .span_totals()
                .iter()
                .filter(|t| t.category == category && t.name == name)
                .map(|t| t.count)
                .sum::<u64>()
        };
        assert_eq!(count(SpanCategory::Step, "train-step"), 1);
        assert_eq!(count(SpanCategory::Optimizer, "sharded-weight-update"), 1);
        assert_eq!(count(SpanCategory::Collective, "2d-all-reduce"), 1);
        assert!(
            !recorder.link_summaries().is_empty(),
            "link events recorded"
        );
        // The step span must cover the whole simulated step.
        let step_total = recorder
            .span_totals()
            .into_iter()
            .find(|t| t.category == SpanCategory::Step)
            .unwrap();
        assert!((step_total.total_seconds - stats.comm_seconds).abs() < 1e-12);

        // Detaching restores the silent path.
        trainer.set_obs(Obs::default());
        let before = recorder.len();
        trainer.step(&mut w, &grads).unwrap();
        assert_eq!(recorder.len(), before, "detached sink must see nothing");
    }

    #[test]
    fn chip_loss_drops_replica_renormalizes_and_retries() {
        use multipod_trace::{Recorder, TraceEvent};
        let n = 16usize;
        let elems = 64usize;
        let mut rng = TensorRng::seed(11);
        let mut w = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut w_ref = w.clone();
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(4, 4, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        );
        let recorder = Recorder::shared();
        trainer.set_obs(Obs::new(Some(recorder.clone()), None));
        let lost = trainer.network_mut().mesh().chips().nth(5).unwrap();
        trainer.network_mut().fail_chip(lost, SimTime::ZERO);

        let grads: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
            .collect();
        let stats = trainer.step(&mut w, &grads).unwrap();
        assert_eq!(stats.retries, 1, "one preflight failure, one re-plan");
        assert_eq!(stats.dead_replicas, 1);
        assert!(stats.degraded);
        assert_eq!(trainer.dead_replicas(), vec![5]);
        assert!(stats.comm_seconds > 0.0);

        // The update must equal single-node SGD on the survivors' gradient
        // sum renormalized by n / survivors.
        let survivor_grads: Vec<Tensor> = grads
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != 5)
            .map(|(_, g)| g.clone())
            .collect();
        let renorm = Tensor::sum_all(&survivor_grads)
            .unwrap()
            .scale(n as f32 / (n - 1) as f32);
        let mut reference = SgdMomentum::new(0.1, 0.0);
        reference.step(0, &mut w_ref, &renorm).unwrap();
        assert!(
            w.max_abs_diff(&w_ref) < 1e-5,
            "renormalized survivor update: {}",
            w.max_abs_diff(&w_ref)
        );

        let fault_names: Vec<String> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) if s.category == SpanCategory::Fault => Some(s.name.clone()),
                _ => None,
            })
            .collect();
        for expected in ["chip-down", "replica-lost", "step-retry", "degraded-update"] {
            assert!(
                fault_names.contains(&expected.to_string()),
                "missing fault span {expected:?} in {fault_names:?}"
            );
        }
    }

    #[test]
    fn rollback_policy_escalates_chip_loss_instead_of_absorbing() {
        use multipod_trace::{Recorder, TraceEvent};
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(4, 4, true),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        )
        .with_fault_policy(FaultPolicy {
            recovery: RecoveryMode::Rollback,
            ..FaultPolicy::default()
        });
        let recorder = Recorder::shared();
        trainer.set_obs(Obs::new(Some(recorder.clone()), None));
        let lost = trainer.network_mut().mesh().chips().nth(5).unwrap();
        trainer.network_mut().fail_chip(lost, SimTime::ZERO);

        let mut w = Tensor::fill(Shape::vector(16), 1.0);
        let w_before = w.clone();
        let grads = vec![Tensor::fill(Shape::vector(16), 0.5); 16];
        assert!(matches!(
            trainer.step(&mut w, &grads),
            Err(CollectiveError::Network(_))
        ));
        // The dead set is updated for the caller, but neither weights nor
        // the step counter advanced — the rollback layer owns recovery.
        assert_eq!(trainer.dead_replicas(), vec![5]);
        assert_eq!(w, w_before);
        assert_eq!(trainer.current_step(), 0);
        let escalated = recorder.events().iter().any(|e| {
            matches!(e, TraceEvent::Span(s)
                if s.category == SpanCategory::Fault && s.name == "rollback-required")
        });
        assert!(escalated, "rollback-required span must be emitted");

        // After the (external) restore, the survivor mesh steps fine.
        trainer.rollback_to(0);
        trainer.step(&mut w, &grads).unwrap();
        assert_eq!(trainer.current_step(), 1);
    }

    #[test]
    fn unroutable_mesh_exhausts_retries_with_typed_error() {
        // Non-torus 1-wide column: failing a middle link partitions the
        // chain without isolating any single chip, so no replica can be
        // dropped and every re-plan fails.
        let mut trainer = DataParallelTrainer::new(
            MultipodConfig::mesh(1, 4, false),
            SgdMomentum::new(1.0, 0.0),
            LrSchedule::Constant { lr: 0.1 },
        )
        .with_fault_policy(FaultPolicy {
            max_retries: 2,
            backoff_seconds: 1e-3,
            ..FaultPolicy::default()
        });
        let chips: Vec<ChipId> = trainer.network_mut().mesh().chips().collect();
        trainer
            .network_mut()
            .fail_link(chips[1], chips[2], SimTime::ZERO);
        let mut w = Tensor::fill(Shape::vector(16), 1.0);
        let grads = vec![Tensor::fill(Shape::vector(16), 0.5); 4];
        assert!(matches!(
            trainer.step(&mut w, &grads),
            Err(CollectiveError::Network(_))
        ));
        assert!(trainer.dead_replicas().is_empty(), "no chip was isolated");
    }

    #[test]
    fn detoured_step_is_degraded_slower_and_numerically_identical() {
        let n = 8usize;
        let elems = 64usize;
        let mut rng = TensorRng::seed(12);
        let grads: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(Shape::vector(elems), -0.1, 0.1))
            .collect();
        let w0 = rng.uniform(Shape::vector(elems), -1.0, 1.0);

        let run = |fail: bool| {
            let mut trainer = DataParallelTrainer::new(
                MultipodConfig::mesh(2, 4, true),
                SgdMomentum::new(1.0, 0.0),
                LrSchedule::Constant { lr: 0.1 },
            );
            if fail {
                let ring = trainer.network_mut().mesh().y_ring(0);
                let a = *ring.members().last().unwrap();
                let b = ring.members()[0];
                trainer.network_mut().fail_link(a, b, SimTime::ZERO);
            }
            let mut w = w0.clone();
            let stats = trainer.step(&mut w, &grads).unwrap();
            (w, stats)
        };
        let (w_ok, s_ok) = run(false);
        let (w_deg, s_deg) = run(true);
        assert!(!s_ok.degraded);
        assert!(s_deg.degraded, "detoured wrap edge must flag degradation");
        assert_eq!(s_deg.retries, 0, "routable mesh needs no retry");
        assert_eq!(s_deg.dead_replicas, 0);
        assert_eq!(w_ok, w_deg, "detours must not change numerics");
        assert!(
            s_deg.comm_seconds > s_ok.comm_seconds,
            "detour must cost simulated time: {} vs {}",
            s_deg.comm_seconds,
            s_ok.comm_seconds
        );
    }
}
