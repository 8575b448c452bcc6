//! Per-host input pipeline with decode-cost tails and prefetching.
//!
//! Each host preprocesses samples for its chips. With compressed inputs,
//! per-sample decode time is heavy-tailed (large JPEGs); the *step* input
//! time is the **max over hosts**, so at multipod scale the tail host
//! gates every step. The paper's fix (§3.5): store uncompressed images so
//! the pipeline only does crop/flip/normalize, and let the now-faster
//! pipeline build a prefetch buffer that absorbs residual variance.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_trace::{SimTime, SpanCategory, SpanEvent, Track};

use crate::InputError;

/// What the host pipeline must do per sample.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HostPipelineConfig {
    /// Base per-sample cost (crop + flip + normalize), seconds.
    pub augment_cost: f64,
    /// Mean additional JPEG decode cost, seconds (zero when the dataset
    /// is stored uncompressed).
    pub decode_cost: f64,
    /// Probability that a sample is a "large image" whose decode costs
    /// `decode_tail_multiplier` times more.
    pub tail_probability: f64,
    /// Cost multiplier of tail samples.
    pub decode_tail_multiplier: f64,
    /// Prefetch buffer capacity, in samples (0 disables prefetching).
    pub prefetch_capacity: usize,
    /// Parallel worker threads per host.
    pub workers: usize,
}

impl HostPipelineConfig {
    /// The compressed-JPEG ImageNet pipeline (decode dominates, heavy
    /// tail, as before the paper's optimization).
    pub fn compressed_imagenet() -> HostPipelineConfig {
        HostPipelineConfig {
            augment_cost: 50.0e-6,
            decode_cost: 400.0e-6,
            tail_probability: 0.02,
            decode_tail_multiplier: 10.0,
            prefetch_capacity: 64,
            workers: 16,
        }
    }

    /// The paper's uncompressed-image pipeline: decode eliminated, only
    /// crop/flip/normalize remain, and the freed throughput fills a large
    /// prefetch buffer.
    pub fn uncompressed_imagenet() -> HostPipelineConfig {
        HostPipelineConfig {
            augment_cost: 50.0e-6,
            decode_cost: 0.0,
            tail_probability: 0.0,
            decode_tail_multiplier: 1.0,
            prefetch_capacity: 1024,
            workers: 16,
        }
    }

    /// The legacy large-image JPEG pipeline the paper replaced (§3.5):
    /// full-size decodes dominate and oversized images cost 8× — the
    /// configuration behind the analytic step model's compressed-input
    /// stall.
    pub fn large_image_imagenet() -> HostPipelineConfig {
        HostPipelineConfig {
            augment_cost: 50.0e-6,
            decode_cost: 1.2e-3,
            tail_probability: 0.02,
            decode_tail_multiplier: 8.0,
            prefetch_capacity: 64,
            workers: 16,
        }
    }

    /// Expected per-sample cost, seconds: the augment cost plus the mean
    /// decode cost including the heavy-tail contribution. This is the
    /// deterministic per-sample figure the analytic step model and the
    /// task-graph input-fetch task charge (the stochastic
    /// [`simulate_run`] jitters around it).
    pub fn mean_sample_seconds(&self) -> f64 {
        self.augment_cost
            + self.decode_cost * (1.0 + self.tail_probability * (self.decode_tail_multiplier - 1.0))
    }

    fn sample_cost(&self, rng: &mut SmallRng) -> f64 {
        let mut cost = self.augment_cost;
        if self.decode_cost > 0.0 {
            let mult = if rng.gen_range(0.0..1.0) < self.tail_probability {
                self.decode_tail_multiplier
            } else {
                1.0
            };
            // Uniform jitter around the mean decode time.
            cost += self.decode_cost * mult * rng.gen_range(0.5..1.5);
        }
        cost
    }
}

/// Input-side statistics of a simulated training run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InputStats {
    /// Mean per-step input stall across all steps, seconds.
    pub mean_stall: f64,
    /// Worst per-step stall, seconds.
    pub max_stall: f64,
    /// Fraction of steps with any stall.
    pub stalled_fraction: f64,
    /// Sustained per-host throughput, samples/second.
    pub host_throughput: f64,
}

/// Simulates `steps` training steps on `hosts` hosts, each of which must
/// deliver `samples_per_host` samples every `step_time` seconds.
///
/// Hosts run `workers` parallel preprocessing threads into a prefetch
/// buffer; the accelerator step stalls when the buffer of *any* host is
/// empty at its deadline (input time is a per-step max across hosts).
///
/// # Errors
///
/// Returns [`InputError::EmptyRun`] when `hosts`, `steps` or
/// `samples_per_host` is zero.
pub fn simulate_run(
    config: &HostPipelineConfig,
    hosts: usize,
    samples_per_host: usize,
    step_time: f64,
    steps: usize,
    seed: u64,
) -> Result<InputStats, InputError> {
    simulate_run_observed(
        config,
        hosts,
        samples_per_host,
        step_time,
        steps,
        seed,
        &Obs::default(),
    )
}

/// [`simulate_run`] recording on `obs`. The sink gets each host's per-step
/// input work as an input span on that host's track (spans that overrun
/// the step deadline carry a `stall_seconds` argument); the registry gets
/// per-step stall histograms, stalled-step counters, and the sustained
/// host throughput gauge.
///
/// # Errors
///
/// See [`simulate_run`].
pub fn simulate_run_observed(
    config: &HostPipelineConfig,
    hosts: usize,
    samples_per_host: usize,
    step_time: f64,
    steps: usize,
    seed: u64,
    obs: &Obs,
) -> Result<InputStats, InputError> {
    if hosts == 0 || steps == 0 || samples_per_host == 0 {
        return Err(InputError::EmptyRun {
            hosts,
            samples_per_host,
            steps,
        });
    }
    let mut total_stall = 0.0f64;
    let mut max_stall = 0.0f64;
    let mut stalled_steps = 0usize;
    let mut throughput_acc = 0.0f64;

    // Hosts are independent; the per-step stall is the max over hosts.
    // Simulate each host's producer/consumer timeline.
    let mut per_host_stalls = vec![vec![0.0f64; steps]; hosts];
    for (h, stall_row) in per_host_stalls.iter_mut().enumerate() {
        let mut rng = SmallRng::seed_from_u64(seed ^ (h as u64).wrapping_mul(0x9e37_79b9));
        // `ready_at` = when each produced sample becomes available.
        // Workers pipeline samples; the producer clock advances by
        // cost/workers per sample (steady-state parallel throughput).
        let mut producer_clock = 0.0f64;
        let mut buffered = 0usize;
        let mut produced_total = 0usize;
        let mut consumer_clock = 0.0f64;
        for (s, stall) in stall_row.iter_mut().enumerate() {
            // Produce as much as possible until the nominal deadline,
            // bounded by the prefetch capacity.
            let step_start = consumer_clock;
            let deadline = consumer_clock + step_time;
            while producer_clock < deadline && buffered < config.prefetch_capacity.max(1) {
                producer_clock += config.sample_cost(&mut rng) / config.workers as f64;
                buffered += 1;
                produced_total += 1;
            }
            // Consume the step's demand; produce on demand if short.
            if buffered >= samples_per_host {
                buffered -= samples_per_host;
                consumer_clock = deadline;
            } else {
                let mut missing = samples_per_host - buffered;
                buffered = 0;
                while missing > 0 {
                    producer_clock = producer_clock.max(deadline)
                        + config.sample_cost(&mut rng) / config.workers as f64;
                    produced_total += 1;
                    missing -= 1;
                }
                *stall = producer_clock - deadline;
                consumer_clock = producer_clock;
            }
            obs.span(|| {
                SpanEvent::new(
                    Track::Host { host: h as u32 },
                    SpanCategory::Input,
                    "step-input",
                    SimTime::from_seconds(step_start),
                    SimTime::from_seconds(consumer_clock),
                )
                .with_arg("step", s as f64)
                .with_arg("stall_seconds", *stall)
            });
        }
        throughput_acc += produced_total as f64 / consumer_clock.max(1e-12);
    }

    for s in 0..steps {
        let step_stall = per_host_stalls
            .iter()
            .map(|row| row[s])
            .fold(0.0f64, f64::max);
        total_stall += step_stall;
        max_stall = max_stall.max(step_stall);
        if step_stall > 0.0 {
            stalled_steps += 1;
        }
        obs.observe(
            MetricId::new(Subsystem::Input, "step_stall_seconds"),
            step_stall,
        );
    }
    let stats = InputStats {
        mean_stall: total_stall / steps as f64,
        max_stall,
        stalled_fraction: stalled_steps as f64 / steps as f64,
        host_throughput: throughput_acc / hosts as f64,
    };
    obs.count(MetricId::new(Subsystem::Input, "steps"), steps as u64);
    obs.count(
        MetricId::new(Subsystem::Input, "stalled_steps"),
        stalled_steps as u64,
    );
    obs.gauge(
        MetricId::new(Subsystem::Input, "host_throughput_samples_per_second"),
        stats.host_throughput,
    );
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_sample_seconds_includes_the_decode_tail() {
        let fast = HostPipelineConfig::uncompressed_imagenet();
        assert_eq!(fast.mean_sample_seconds(), 50.0e-6);
        let slow = HostPipelineConfig::large_image_imagenet();
        // augment + decode × (1 + p × (mult − 1)).
        let expected: f64 = 50.0e-6 + 1.2e-3 * (1.0 + 0.02 * 7.0);
        assert_eq!(slow.mean_sample_seconds().to_bits(), expected.to_bits());
        assert!(
            slow.mean_sample_seconds()
                > HostPipelineConfig::compressed_imagenet().mean_sample_seconds()
        );
    }

    #[test]
    fn uncompressed_pipeline_eliminates_stalls() {
        // Near-capacity demand (32 samples per 1 ms step): the compressed
        // pipeline's decode tail stalls steps, the uncompressed one never
        // does.
        let steps = 200;
        let compressed = simulate_run(
            &HostPipelineConfig::compressed_imagenet(),
            64,
            32,
            1.0e-3,
            steps,
            7,
        )
        .unwrap();
        let uncompressed = simulate_run(
            &HostPipelineConfig::uncompressed_imagenet(),
            64,
            32,
            1.0e-3,
            steps,
            7,
        )
        .unwrap();
        assert!(uncompressed.mean_stall < 1e-6, "{uncompressed:?}");
        assert!(
            compressed.stalled_fraction > 0.2,
            "compressed={compressed:?}"
        );
        assert!(compressed.mean_stall > 1e-5, "compressed={compressed:?}");
    }

    #[test]
    fn imbalance_grows_with_host_count() {
        // More hosts → higher chance one host hits the decode tail in a
        // given step → larger max-over-hosts stall.
        let cfg = HostPipelineConfig {
            prefetch_capacity: 4, // shallow buffer exposes the tail
            ..HostPipelineConfig::compressed_imagenet()
        };
        let few = simulate_run(&cfg, 4, 32, 1.1e-3, 150, 11).unwrap();
        let many = simulate_run(&cfg, 256, 32, 1.1e-3, 150, 11).unwrap();
        assert!(
            many.stalled_fraction >= few.stalled_fraction,
            "few={few:?} many={many:?}"
        );
    }

    #[test]
    fn prefetch_buffer_absorbs_tail() {
        let shallow = HostPipelineConfig {
            prefetch_capacity: 1,
            ..HostPipelineConfig::compressed_imagenet()
        };
        let deep = HostPipelineConfig {
            prefetch_capacity: 512,
            ..HostPipelineConfig::compressed_imagenet()
        };
        // Demand below mean throughput, so buffering can work.
        let s_shallow = simulate_run(&shallow, 32, 32, 1.2e-3, 200, 3).unwrap();
        let s_deep = simulate_run(&deep, 32, 32, 1.2e-3, 200, 3).unwrap();
        assert!(
            s_deep.mean_stall <= s_shallow.mean_stall,
            "deep={s_deep:?} shallow={s_shallow:?}"
        );
    }

    #[test]
    fn overloaded_host_always_stalls() {
        // Demand beyond sustained throughput: every step stalls no matter
        // the buffering.
        let cfg = HostPipelineConfig::compressed_imagenet();
        // 16 workers, ~450 µs/sample → ~28 µs/sample effective;
        // 1000 samples per 1 ms step is far beyond capacity.
        let stats = simulate_run(&cfg, 8, 1000, 1.0e-3, 50, 5).unwrap();
        assert!(stats.stalled_fraction > 0.9);
        assert!(stats.mean_stall > 1.0e-3);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = HostPipelineConfig::compressed_imagenet();
        let a = simulate_run(&cfg, 16, 32, 10.0e-3, 100, 9).unwrap();
        let b = simulate_run(&cfg, 16, 32, 10.0e-3, 100, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn throughput_reported_positive() {
        let cfg = HostPipelineConfig::uncompressed_imagenet();
        let stats = simulate_run(&cfg, 4, 64, 5.0e-3, 100, 1).unwrap();
        // 16 workers at 50 µs/sample → ~320k samples/s.
        assert!(stats.host_throughput > 1e4);
    }

    #[test]
    fn empty_run_is_a_typed_error() {
        let cfg = HostPipelineConfig::uncompressed_imagenet();
        let err = simulate_run(&cfg, 0, 32, 1e-3, 10, 1).unwrap_err();
        assert_eq!(
            err,
            InputError::EmptyRun {
                hosts: 0,
                samples_per_host: 32,
                steps: 10,
            }
        );
        assert!(simulate_run(&cfg, 4, 32, 1e-3, 0, 1).is_err());
        assert!(simulate_run(&cfg, 4, 0, 1e-3, 10, 1).is_err());
    }

    #[test]
    fn observed_run_records_host_spans_and_stall_metrics() {
        let cfg = HostPipelineConfig::compressed_imagenet();
        let (recorder, telemetry) = (
            multipod_trace::Recorder::shared(),
            multipod_telemetry::Telemetry::shared(),
        );
        let obs = Obs::new(Some(recorder.clone()), Some(telemetry.clone()));
        let stats = simulate_run_observed(&cfg, 8, 32, 1.0e-3, 100, 7, &obs).unwrap();
        assert_eq!(stats, simulate_run(&cfg, 8, 32, 1.0e-3, 100, 7).unwrap());
        assert_eq!(recorder.len(), 8 * 100, "one input span per host per step");
        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(&MetricId::new(Subsystem::Input, "steps")), 100);
        let stalled = snap.counter(&MetricId::new(Subsystem::Input, "stalled_steps"));
        assert_eq!(stalled as f64 / 100.0, stats.stalled_fraction);
        let hist = snap
            .histogram(&MetricId::new(Subsystem::Input, "step_stall_seconds"))
            .unwrap();
        assert_eq!(hist.count, 100);
        assert_eq!(hist.max, stats.max_stall);
        assert_eq!(
            snap.gauge(&MetricId::new(
                Subsystem::Input,
                "host_throughput_samples_per_second"
            )),
            Some(stats.host_throughput)
        );
    }
}
