//! A Podracer-style RL actor–learner workload sharing one slice.
//!
//! The learner occupies the head of the slice and runs throughput-bound
//! training steps; the remaining chips run inference actors in closed
//! loop, each round a small policy forward, a latency-bound observation
//! push to the learner's corner chip, and an action reply back. Every
//! few learner steps the updated parameters broadcast back out to every
//! actor — traffic that contends with the action replies on the shared
//! ICI links and shows up as tail spikes in actor latency.
//!
//! Events interleave on one sim-time queue and transfers reserve links
//! in pop order, so the whole co-located timeline is deterministic.

use serde::{Deserialize, Serialize};

use multipod_core::step::step_breakdown;
use multipod_core::StepOptions;
use multipod_models::{catalog, TpuV3};
use multipod_simnet::{EventQueue, Network, NetworkConfig, SimTime};
use multipod_telemetry::{DistSummary, MetricId, Obs, Subsystem};
use multipod_topology::{ChipId, MultipodConfig};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::dlrm::slice_mesh;
use crate::{check, ServeError};

/// RL co-location parameters.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RlServeConfig {
    /// The shared slice.
    pub slice: MultipodConfig,
    /// Chips at the head of the slice running the learner.
    pub learner_chips: u32,
    /// Training steps the learner runs.
    pub learner_steps: u32,
    /// Closed-loop inference rounds per actor.
    pub actor_rounds: u32,
    /// Policy-forward FLOPs per actor round (one chip).
    pub actor_flops: f64,
    /// Observation payload each round pushes to the learner, bytes.
    pub obs_bytes: u64,
    /// Action reply the learner sends back each round, bytes.
    pub action_bytes: u64,
    /// Parameter payload broadcast to every actor, bytes.
    pub param_bytes: u64,
    /// Learner steps between parameter broadcasts.
    pub broadcast_every: u32,
}

impl RlServeConfig {
    /// A canned co-located workload on a 16×8 slice: a 64-chip learner
    /// under 64 single-chip actors.
    pub fn demo(slice: MultipodConfig) -> RlServeConfig {
        RlServeConfig {
            slice,
            learner_chips: 64,
            learner_steps: 200,
            actor_rounds: 100,
            actor_flops: 2.0e8,
            obs_bytes: 64 << 10,
            action_bytes: 4 << 10,
            param_bytes: 8 << 20,
            broadcast_every: 20,
        }
    }
}

/// What the co-located RL run did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RlServeReport {
    /// Actors in the slice.
    pub actors: u64,
    /// Total actor inference rounds completed.
    pub rounds: u64,
    /// Per-round actor latency (compute + observation push), seconds.
    pub actor_latency: DistSummary,
    /// Learner steps completed.
    pub learner_steps: u64,
    /// Seconds of one learner step (throughput-bound, excludes
    /// broadcast stalls).
    pub learner_step_seconds: f64,
    /// Parameter broadcasts performed.
    pub broadcasts: u64,
    /// Learner steps per simulated second, including broadcast stalls.
    pub learner_throughput: f64,
    /// When the last event finished, seconds.
    pub makespan_seconds: f64,
}

#[derive(Clone, Debug)]
enum RlEvent {
    /// Actor `actor` begins inference round `round`.
    Actor { actor: usize, round: u32 },
    /// Learner step `step` begins.
    Learner { step: u32 },
    /// Learner step `step`'s compute finished; its parameter broadcast
    /// issues now, so transfers enter the network in causal order.
    Broadcast { step: u32 },
}

/// The co-located actor–learner simulator.
pub struct RlServer {
    config: RlServeConfig,
    obs: Obs,
}

impl RlServer {
    /// A co-located workload over `config`.
    pub fn new(config: RlServeConfig) -> RlServer {
        RlServer {
            config,
            obs: Obs::default(),
        }
    }

    /// Attaches the observability handle: actor rounds and broadcasts land
    /// on the sink's `Serve` category, `serve.*` metrics in the registry.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Runs actors and learner to completion on the shared slice.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when the slice has a zero extent, the
    /// learner claims the whole slice (or more), or a rate parameter is
    /// out of range; pricing and routing errors from the underlying models
    /// otherwise.
    pub fn run(&self) -> Result<RlServeReport, ServeError> {
        let mesh = slice_mesh(&self.config.slice)?;
        let total_chips = mesh.num_chips() as u32;
        let (learner, flops) = (self.config.learner_chips, self.config.actor_flops);
        let learner_ok = learner > 0 && learner < total_chips;
        check(learner_ok, "learner_chips", f64::from(learner))?;
        check(self.config.broadcast_every > 0, "broadcast_every", 0.0)?;
        check(flops.is_finite() && flops > 0.0, "actor_flops", flops)?;

        // The learner owns the first chips in row-major order; its corner
        // chip is the rendezvous for observations and broadcasts.
        let chips: Vec<ChipId> = mesh.chips().collect();
        let learner_corner = chips[0];
        let actor_chips: Vec<ChipId> = chips[self.config.learner_chips as usize..].to_vec();
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        net.set_obs(self.obs.metrics_only());

        // Throughput-bound learner step: the analytic step model on the
        // learner's sub-slice.
        let step_seconds = step_breakdown(
            &catalog::resnet50(),
            self.config.learner_chips,
            &StepOptions::default(),
        )?
        .total();
        // Latency-bound actor round: a small policy forward at small-batch
        // efficiency on one chip.
        let tpu = TpuV3::new();
        let actor_compute = tpu.core_compute_time(self.config.actor_flops, 0.1)?;

        let id = |name| MetricId::new(Subsystem::Serve, name);
        let span = |name, start, end| {
            self.obs
                .span(|| SpanEvent::new(Track::Sim, SpanCategory::Serve, name, start, end));
        };
        let mut queue: EventQueue<RlEvent> = EventQueue::new();
        for (i, _) in actor_chips.iter().enumerate() {
            queue.schedule(SimTime::ZERO, RlEvent::Actor { actor: i, round: 0 });
        }
        queue.schedule(SimTime::ZERO, RlEvent::Learner { step: 0 });

        let mut latencies = Vec::new();
        let mut broadcasts = 0u64;
        let mut learner_done = SimTime::ZERO;
        let mut makespan = SimTime::ZERO;
        while let Some((now, event)) = queue.pop() {
            match event {
                RlEvent::Actor { actor, round } => {
                    let compute_end = now + actor_compute;
                    let push = net.transfer(
                        actor_chips[actor],
                        learner_corner,
                        self.config.obs_bytes,
                        compute_end,
                    )?;
                    // The action reply travels learner→actor, the same
                    // link direction as parameter broadcasts — that is
                    // where co-location contention bites.
                    let reply = net.transfer(
                        learner_corner,
                        actor_chips[actor],
                        self.config.action_bytes,
                        push.finish,
                    )?;
                    let finish = reply.finish;
                    latencies.push(finish - now);
                    self.obs.observe(id("actor_round_seconds"), finish - now);
                    span("rl-actor-round", now, finish);
                    makespan = makespan.max(finish);
                    if round + 1 < self.config.actor_rounds {
                        queue.schedule(
                            finish,
                            RlEvent::Actor {
                                actor,
                                round: round + 1,
                            },
                        );
                    }
                }
                RlEvent::Learner { step } => {
                    let end = now + step_seconds;
                    if (step + 1) % self.config.broadcast_every == 0 {
                        // Defer the broadcast to its own event so link
                        // reservations issue at the broadcast's actual
                        // sim time, interleaved with actor traffic.
                        queue.schedule(end, RlEvent::Broadcast { step });
                    } else {
                        learner_done = learner_done.max(end);
                        makespan = makespan.max(end);
                        if step + 1 < self.config.learner_steps {
                            queue.schedule(end, RlEvent::Learner { step: step + 1 });
                        }
                    }
                }
                RlEvent::Broadcast { step } => {
                    let messages: Vec<(ChipId, ChipId, u64)> = actor_chips
                        .iter()
                        .map(|&c| (learner_corner, c, self.config.param_bytes))
                        .collect();
                    let end = net.parallel_transfers(&messages, now)?;
                    span("rl-param-broadcast", now, end);
                    broadcasts += 1;
                    learner_done = learner_done.max(end);
                    makespan = makespan.max(end);
                    if step + 1 < self.config.learner_steps {
                        queue.schedule(end, RlEvent::Learner { step: step + 1 });
                    }
                }
            }
        }

        let report = RlServeReport {
            actors: actor_chips.len() as u64,
            rounds: latencies.len() as u64,
            actor_latency: DistSummary::of(latencies),
            learner_steps: u64::from(self.config.learner_steps),
            learner_step_seconds: step_seconds,
            broadcasts,
            learner_throughput: f64::from(self.config.learner_steps)
                / learner_done.seconds().max(f64::MIN_POSITIVE),
            makespan_seconds: makespan.seconds(),
        };
        self.obs
            .gauge(id("learner_throughput"), report.learner_throughput);
        self.obs.count(id("param_broadcasts"), broadcasts);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> RlServeConfig {
        let mut c = RlServeConfig::demo(MultipodConfig::mesh(8, 4, false));
        c.learner_chips = 16;
        c.learner_steps = 40;
        c.actor_rounds = 30;
        c.broadcast_every = 10;
        c
    }

    #[test]
    fn actors_and_learner_share_the_slice() {
        let report = RlServer::new(demo()).run().expect("rl run");
        assert_eq!(report.actors, 16);
        assert_eq!(report.rounds, 16 * 30);
        assert_eq!(report.broadcasts, 4);
        assert!(report.learner_throughput > 0.0);
        assert!(report.actor_latency.mean > 0.0);
        assert!(report.makespan_seconds > 0.0);
    }

    #[test]
    fn broadcast_contention_shows_up_in_the_tail() {
        // With broadcasts the actor tail (p999) degrades relative to an
        // otherwise-identical run whose broadcasts are negligible. The
        // learner step is ~50 ms and an actor round ~0.2 ms, so actors
        // need enough rounds to still be running when the first
        // broadcast lands.
        let overlapping = || {
            let mut c = demo();
            c.learner_steps = 2;
            c.broadcast_every = 1;
            c.actor_rounds = 600;
            c
        };
        let quiet = {
            let mut c = overlapping();
            c.param_bytes = 1;
            RlServer::new(c).run().expect("rl run")
        };
        let noisy = {
            let mut c = overlapping();
            c.param_bytes = 64 << 20;
            RlServer::new(c).run().expect("rl run")
        };
        assert!(
            noisy.actor_latency.p999 > quiet.actor_latency.p999,
            "broadcast traffic must lengthen the actor tail: {} vs {}",
            noisy.actor_latency.p999,
            quiet.actor_latency.p999
        );
    }

    #[test]
    fn rl_run_is_deterministic() {
        let run = || RlServer::new(demo()).run().expect("rl run");
        assert_eq!(run(), run());
    }

    #[test]
    fn zero_extent_slice_is_a_typed_error() {
        let c = RlServeConfig::demo(MultipodConfig::mesh(8, 0, false));
        assert!(matches!(
            RlServer::new(c).run(),
            Err(ServeError::InvalidConfig {
                field: "slice",
                value
            }) if value == 0.0
        ));
    }

    #[test]
    fn learner_cannot_claim_the_whole_slice() {
        let mut c = demo();
        c.learner_chips = 32;
        assert!(matches!(
            RlServer::new(c).run(),
            Err(ServeError::InvalidConfig {
                field: "learner_chips",
                ..
            })
        ));
    }
}
