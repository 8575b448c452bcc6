//! Co-scheduling serving and training on one pod.
//!
//! The paper's campaign multiplexes thousands of training jobs over a
//! multipod; here two long-lived serving reservations — a DLRM replica
//! and an RL actor–learner group — ride the same [`PodScheduler`] as
//! high-priority slices, and the training stream packs around them. The
//! campaign runs first; the slices the scheduler actually granted then
//! parameterize the serving simulations, so displacement (faults,
//! migrations) feeds straight into serving capacity.

use serde::{Deserialize, Serialize};

use multipod_sched::{PodScheduler, SchedConfig, SchedReport, ServiceSpec};
use multipod_telemetry::Obs;
use multipod_topology::MultipodConfig;

use crate::dlrm::{DlrmServeConfig, DlrmServeReport, DlrmServer};
use crate::rl::{RlServeConfig, RlServeReport, RlServer};
use crate::{check, ServeError};

/// The full co-scheduled scenario: one training campaign plus two
/// serving reservations.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ServeCampaignConfig {
    /// The training campaign; `services` must name the two serving
    /// reservations (DLRM first, RL second).
    pub sched: SchedConfig,
    /// The DLRM replica. Its `slice` is overwritten with whatever shape
    /// the scheduler granted the first service.
    pub dlrm: DlrmServeConfig,
    /// The RL group. Its `slice` is overwritten with the second
    /// service's granted shape.
    pub rl: RlServeConfig,
}

impl ServeCampaignConfig {
    /// The canned co-scheduled scenario: the paper-scale training
    /// campaign with a 256-chip DLRM replica and a 128-chip RL group
    /// reserved out of the same mesh.
    pub fn demo(mesh: MultipodConfig, jobs: u32, seed: u64) -> ServeCampaignConfig {
        let mut sched = SchedConfig::demo(mesh, jobs, seed);
        sched.services = vec![
            ServiceSpec {
                name: "dlrm-serve".to_string(),
                chips: 256,
            },
            ServiceSpec {
                name: "rl-serve".to_string(),
                chips: 128,
            },
        ];
        ServeCampaignConfig {
            sched,
            // Placeholder slices; `run` substitutes the granted shapes.
            dlrm: DlrmServeConfig::demo(MultipodConfig::mesh(16, 16, false), 2000, seed),
            rl: RlServeConfig::demo(MultipodConfig::mesh(16, 8, false)),
        }
    }
}

/// What the co-scheduled scenario did.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServeCampaignReport {
    /// The training campaign around the reservations.
    pub sched: SchedReport,
    /// The DLRM replica on its granted slice.
    pub dlrm: DlrmServeReport,
    /// The RL group on its granted slice.
    pub rl: RlServeReport,
}

/// Runs training and both serving workloads co-scheduled on one mesh.
pub struct ServeCampaign {
    config: ServeCampaignConfig,
    obs: Obs,
}

impl ServeCampaign {
    /// A co-scheduled scenario over `config`.
    pub fn new(config: ServeCampaignConfig) -> ServeCampaign {
        ServeCampaign {
            config,
            obs: Obs::default(),
        }
    }

    /// Attaches the observability handle the scheduler and both servers
    /// share.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Runs the campaign, then each serving workload on the slice the
    /// scheduler granted it.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when `sched.services` does not hold
    /// exactly the two expected reservations or a granted slice came
    /// back empty; scheduler and serving errors pass through.
    pub fn run(&self) -> Result<ServeCampaignReport, ServeError> {
        let services = self.config.sched.services.len();
        check(services == 2, "sched.services", services as f64)?;
        let mut scheduler = PodScheduler::new(self.config.sched.clone());
        scheduler.set_obs(self.obs.clone());
        let sched_report = scheduler.run()?;

        let granted = |i: usize| -> Result<MultipodConfig, ServeError> {
            let (w, h) = sched_report.services[i].shape;
            check(w > 0 && h > 0, "sched.services.shape", i as f64)?;
            Ok(MultipodConfig::mesh(w, h, false))
        };

        let mut dlrm_config = self.config.dlrm.clone();
        dlrm_config.slice = granted(0)?;
        let mut dlrm = DlrmServer::new(dlrm_config);
        dlrm.set_obs(self.obs.clone());
        let dlrm_report = dlrm.run()?;

        let mut rl_config = self.config.rl.clone();
        rl_config.slice = granted(1)?;
        let mut rl = RlServer::new(rl_config);
        rl.set_obs(self.obs.clone());
        let rl_report = rl.run()?;

        Ok(ServeCampaignReport {
            sched: sched_report,
            dlrm: dlrm_report,
            rl: rl_report,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ServeCampaignConfig {
        let mut c = ServeCampaignConfig::demo(MultipodConfig::mesh(32, 32, false), 60, 11);
        c.dlrm.stream.queries = 300;
        c.dlrm.stream.tables = 8;
        c.dlrm.stream.rows_per_table = 8192;
        c.rl.learner_chips = 64;
        c.rl.learner_steps = 30;
        c.rl.actor_rounds = 20;
        c
    }

    #[test]
    fn training_packs_around_the_reservations() {
        let report = ServeCampaign::new(small()).run().expect("campaign");
        assert_eq!(report.sched.completed, 60);
        assert_eq!(report.sched.services.len(), 2);
        // Both reservations held their full grant to campaign end.
        assert_eq!(
            report.sched.services[0].shape.0 * report.sched.services[0].shape.1,
            256
        );
        assert_eq!(
            report.sched.services[1].shape.0 * report.sched.services[1].shape.1,
            128
        );
        assert!(report.dlrm.requests > 0);
        assert!(report.rl.rounds > 0);
    }

    #[test]
    fn co_scheduled_campaign_is_deterministic() {
        let run = || ServeCampaign::new(small()).run().expect("campaign");
        assert_eq!(run(), run());
    }

    #[test]
    fn missing_reservations_are_a_typed_error() {
        let mut c = small();
        c.sched.services.pop();
        assert!(matches!(
            ServeCampaign::new(c).run(),
            Err(ServeError::InvalidConfig {
                field: "sched.services",
                ..
            })
        ));
    }

    #[test]
    fn registry_counts_agree_with_the_reports() {
        use multipod_telemetry::{MetricId, Subsystem, Telemetry};
        use multipod_trace::{Recorder, TraceEvent};
        let (recorder, telemetry) = (Recorder::shared(), Telemetry::shared());
        let mut campaign = ServeCampaign::new(small());
        campaign.set_obs(Obs::new(Some(recorder.clone()), Some(telemetry.clone())));
        let report = campaign.run().expect("campaign");
        assert_eq!(
            report,
            ServeCampaign::new(small()).run().expect("unobserved"),
            "observing must not change the outcome"
        );

        let snap = telemetry.snapshot();
        let count = |sub, name| snap.counter(&MetricId::new(sub, name));
        let observed = |name| {
            snap.histogram(&MetricId::new(Subsystem::Serve, name))
                .map_or(0, |h| h.count)
        };
        let gauge = |name| snap.gauge(&MetricId::new(Subsystem::Serve, name));
        let (dlrm, rl) = (&report.dlrm, &report.rl);
        assert_eq!(count(Subsystem::Serve, "requests"), dlrm.requests);
        assert_eq!(count(Subsystem::Serve, "batches"), dlrm.batches);
        assert_eq!(observed("latency_seconds"), dlrm.requests);
        assert_eq!(gauge("cache_hit_rate"), Some(dlrm.cache_hit_rate));
        assert_eq!(gauge("achieved_qps"), Some(dlrm.achieved_qps));
        // Lookup, all-to-all and dense: three released tasks per batch.
        assert_eq!(count(Subsystem::Sched, "tasks"), 3 * dlrm.batches);
        assert_eq!(count(Subsystem::Serve, "param_broadcasts"), rl.broadcasts);
        assert_eq!(observed("actor_round_seconds"), rl.rounds);
        assert_eq!(gauge("learner_throughput"), Some(rl.learner_throughput));
        // The scheduler shares the handle…
        assert_eq!(
            count(Subsystem::Pod, "jobs_completed"),
            report.sched.completed
        );
        // …and the RL network meters its transfers without tracing them:
        // every recorded link event is the scheduler's checkpoint traffic.
        assert!(count(Subsystem::Simnet, "transfers") >= 2 * rl.rounds);
        let links = |r: &Recorder| {
            let events = r.events();
            events
                .iter()
                .filter(|e| matches!(e, TraceEvent::Link(_)))
                .count()
        };
        let sched_only = Recorder::shared();
        let mut scheduler = PodScheduler::new(small().sched);
        scheduler.set_obs(Obs::new(Some(sched_only.clone()), None));
        scheduler.run().expect("scheduler alone");
        assert_eq!(links(&recorder), links(&sched_only));
    }
}
