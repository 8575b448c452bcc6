//! Job specifications and the deterministic arrival stream.
//!
//! The campaign's job mix stands in for serving-scale traffic: a heavy
//! stream of small eval jobs (latency-sensitive, highest priority) over a
//! base of BERT / ResNet-50 / DLRM training jobs at MLPerf slice sizes.
//! Arrivals are drawn from a seeded generator, so the same
//! [`ArrivalConfig`] always produces the same stream — campaigns are
//! reproducible experiments.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use multipod_models::{catalog, Workload};
use multipod_simnet::SimTime;

/// What a job runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum JobKind {
    /// BERT pre-training (LAMB, large slices).
    Bert,
    /// ResNet-50 training (LARS, medium slices).
    Resnet50,
    /// DLRM training (SGD, medium slices).
    Dlrm,
    /// Small eval-only traffic: short ResNet-50 inference-style passes
    /// standing in for user-facing requests.
    Eval,
}

impl JobKind {
    /// Stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            JobKind::Bert => "bert",
            JobKind::Resnet50 => "resnet50",
            JobKind::Dlrm => "dlrm",
            JobKind::Eval => "eval",
        }
    }

    /// The workload model pricing one step of this job.
    pub fn workload(self) -> Workload {
        match self {
            JobKind::Bert => catalog::bert(),
            JobKind::Resnet50 | JobKind::Eval => catalog::resnet50(),
            JobKind::Dlrm => catalog::dlrm(),
        }
    }

    /// Scheduling priority: lower is more urgent. Eval traffic outranks
    /// training; BERT (the biggest slices) outranks the other trainers so
    /// it can preempt its way onto the mesh instead of starving.
    pub fn priority(self) -> u8 {
        match self {
            JobKind::Eval => 0,
            JobKind::Bert => 1,
            JobKind::Resnet50 => 2,
            JobKind::Dlrm => 3,
        }
    }
}

/// One job in the campaign.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique id, in arrival order.
    pub id: u64,
    /// What the job runs.
    pub kind: JobKind,
    /// Fair-share tenant the job bills to.
    pub tenant: u32,
    /// Scheduling priority (lower = more urgent).
    pub priority: u8,
    /// Chips the job gang-schedules (a power of two ≥ 2).
    pub chips: u32,
    /// Training/eval steps the job must complete.
    pub steps: u64,
    /// When the job arrives.
    pub arrival: SimTime,
}

/// A long-lived serving reservation: a slice held for the lifetime of
/// the campaign rather than a batch job that completes.
///
/// Services are allocated before the first arrival, are never preempted
/// (they outrank every job priority), and never complete. A chip-loss
/// fault inside a service's slice *migrates* the service: the scheduler
/// re-places it, preempting training jobs if the mesh is full.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceSpec {
    /// Human-readable name, reported in [`crate::SchedReport`].
    pub name: String,
    /// Chips the service reserves (a power of two ≥ 2).
    pub chips: u32,
}

/// Parameters of the deterministic arrival stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ArrivalConfig {
    /// Number of jobs to generate.
    pub jobs: u32,
    /// Seed for the stream.
    pub seed: u64,
    /// Mean inter-arrival gap in simulated seconds (exponential).
    pub mean_interarrival_seconds: f64,
    /// Number of fair-share tenants jobs are spread across.
    pub tenants: u32,
}

impl ArrivalConfig {
    /// A heavy canned stream: enough offered load to keep a 128×32 mesh
    /// backlogged, with ~half the jobs small eval traffic.
    pub fn heavy(jobs: u32, seed: u64) -> ArrivalConfig {
        ArrivalConfig {
            jobs,
            seed,
            mean_interarrival_seconds: 0.002,
            tenants: 8,
        }
    }
}

/// Generates the arrival stream for `config`: job kinds, slice sizes,
/// step budgets and exponential inter-arrival gaps all drawn from one
/// seeded generator. The same config always yields the same stream.
pub fn arrival_stream(config: &ArrivalConfig) -> Vec<JobSpec> {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut at = 0.0f64;
    let mut jobs = Vec::with_capacity(config.jobs as usize);
    for id in 0..u64::from(config.jobs) {
        let draw = rng.gen_range(0..100u32);
        let kind = match draw {
            0..=49 => JobKind::Eval,
            50..=69 => JobKind::Dlrm,
            70..=89 => JobKind::Resnet50,
            _ => JobKind::Bert,
        };
        let chips = match kind {
            JobKind::Eval => 1 << rng.gen_range(1..4u32), // 2..8
            JobKind::Dlrm => 1 << rng.gen_range(5..8u32), // 32..128
            JobKind::Resnet50 => 1 << rng.gen_range(6..9u32), // 64..256
            JobKind::Bert => 1 << rng.gen_range(7..10u32), // 128..512
        };
        let steps = match kind {
            JobKind::Eval => rng.gen_range(1..5u64),
            _ => rng.gen_range(5..25u64),
        };
        let gap = -config.mean_interarrival_seconds * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
        at += gap;
        jobs.push(JobSpec {
            id,
            kind,
            tenant: rng.gen_range(0..config.tenants.max(1)),
            priority: kind.priority(),
            chips,
            steps,
            arrival: SimTime::from_seconds(at),
        });
    }
    jobs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic() {
        let config = ArrivalConfig::heavy(200, 7);
        assert_eq!(arrival_stream(&config), arrival_stream(&config));
    }

    #[test]
    fn different_seeds_differ() {
        let a = arrival_stream(&ArrivalConfig::heavy(50, 1));
        let b = arrival_stream(&ArrivalConfig::heavy(50, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone_and_shapes_power_of_two() {
        let jobs = arrival_stream(&ArrivalConfig::heavy(500, 42));
        assert_eq!(jobs.len(), 500);
        let mut last = SimTime::ZERO;
        for job in &jobs {
            assert!(job.arrival >= last);
            last = job.arrival;
            assert!(job.chips.is_power_of_two() && job.chips >= 2);
            assert!(job.steps >= 1);
            assert_eq!(job.priority, job.kind.priority());
        }
    }

    #[test]
    fn the_mix_covers_every_kind() {
        let jobs = arrival_stream(&ArrivalConfig::heavy(400, 3));
        for kind in [
            JobKind::Eval,
            JobKind::Dlrm,
            JobKind::Resnet50,
            JobKind::Bert,
        ] {
            assert!(
                jobs.iter().any(|j| j.kind == kind),
                "missing {:?} in the mix",
                kind
            );
        }
    }
}
