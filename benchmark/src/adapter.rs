//! The only file that names product symbols.
//!
//! Everything the benchmark calls in `crates/*` is imported here, so the
//! surface a refactor has to keep (or port this file across) is the
//! `use` list below; `README.md` repeats it. Nothing here attaches a
//! trace sink or a telemetry registry: the product runs as a plain
//! library user would run it.
//!
//! Three kinds of thing live here: input generation (from `--seed`
//! only), one *operation* per workload (fresh product state each call,
//! host time read around the product calls only, checks after the clock
//! stops), and *probes* that replay one layer's public calls.

use std::hint::black_box;
use std::time::Instant;

use multipod_ckpt::{
    restore_checkpoint, run_rollback_campaign, save_checkpoint, PcieCost, RollbackConfig,
    ShardPlacement, StateBundle,
};
use multipod_collectives::alltoall::all_to_all;
use multipod_collectives::degraded::ring_degradation;
use multipod_collectives::pipelined;
use multipod_collectives::ring::{self, Direction};
use multipod_collectives::twod::{two_dim_all_reduce, two_dim_all_reduce_time};
use multipod_collectives::Precision;
use multipod_core::ablate::{precision_ablation, summation_ablation, wus_ablation};
use multipod_core::graphs::representative;
use multipod_core::modelpar::speedup_curve;
use multipod_core::overlap::overlapped_step;
use multipod_core::scaling::{standard_chip_counts, ScalingCurve};
use multipod_core::step::step_breakdown;
use multipod_core::{presets, DataParallelTrainer, Executor, OverlapConfig, Preset, StepOptions};
use multipod_embedding::{EmbeddingCache, EmbeddingSpec, Placement, ShardedEmbedding};
use multipod_faults::{run_campaign, CampaignConfig, FaultDriver, FaultPlan};
use multipod_models::catalog;
use multipod_optim::{LrSchedule, SgdMomentum};
use multipod_sched::{arrival_stream, PodScheduler, SchedConfig, SliceAllocator};
use multipod_serve::{
    assemble, query_stream, DlrmServeConfig, DlrmServer, RlServeConfig, RlServer, ServeCampaign,
    ServeCampaignConfig,
};
use multipod_simnet::{EventQueue, Network, NetworkConfig};
use multipod_taskgraph::{Resource, TaskGraph, TaskKind};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{ChipId, Multipod, MultipodConfig, Ring};
use multipod_trace::SimTime;

use crate::spans::Tracer;
use crate::stats::{line_through, Fnv, SplitMix64};

/// The six workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 6] = [
    "sched_churn",
    "serve_queries",
    "allreduce_numeric",
    "simcore_replay",
    "fault_recovery",
    "paper_sweep",
];

/// What one operation did.
pub struct Outcome {
    /// Host seconds inside the product calls (checks excluded).
    pub wall_s: f64,
    /// Exact work count of the op, in the workload's unit.
    pub work: f64,
    /// FNV-1a of the op's simulated results.
    pub sim_digest: u64,
    /// Names of the checks that failed; empty when the op is correct.
    pub failed_checks: Vec<&'static str>,
    /// Per-layer values this op yields: exact counts and span times.
    pub layer: Vec<(&'static str, f64)>,
}

fn digest_json<T: serde::Serialize>(report: &T) -> u64 {
    let mut fnv = Fnv::new();
    // An unserializable report digests as the empty stream and then
    // differs from every real one.
    if let Ok(body) = serde_json::to_string(report) {
        fnv.bytes(body.as_bytes());
    }
    fnv.finish()
}

fn check(failed: &mut Vec<&'static str>, name: &'static str, ok: bool) {
    if !ok {
        failed.push(name);
    }
}

fn failed_outcome(wall_s: f64, name: &'static str) -> Outcome {
    Outcome {
        wall_s,
        work: 0.0,
        sim_digest: 0,
        failed_checks: vec![name],
        layer: Vec::new(),
    }
}

fn paper_machine() -> MultipodConfig {
    MultipodConfig::multipod(4)
}

// ---------------------------------------------------------------------
// sched_churn
// ---------------------------------------------------------------------

/// Jobs in one `sched_churn` op.
pub const SCHED_JOBS: u32 = 2000;

pub struct SchedInputs {
    config: SchedConfig,
    plan: FaultPlan,
}

/// The `repro_sched` campaign: heavy arrival stream on the 128×32
/// machine plus two chip-down faults at a quarter and three quarters of
/// the arrival window.
fn sched_inputs(jobs: u32, seed: u64) -> SchedInputs {
    let config = SchedConfig::demo(paper_machine(), jobs, seed);
    let mesh = Multipod::new(paper_machine());
    let window = config.arrivals.mean_interarrival_seconds * f64::from(jobs);
    let plan = FaultPlan::new()
        .chip_down(
            SimTime::from_seconds(0.25 * window),
            ChipId(mesh.x_len() + 1),
        )
        .chip_down(
            SimTime::from_seconds(0.75 * window),
            ChipId(mesh.x_len() + mesh.x_len() / 2),
        );
    SchedInputs { config, plan }
}

fn sched_op(inputs: &SchedInputs, t: &mut Tracer) -> Outcome {
    let (result, wall_s) = t.call("sched.run_with_faults", || {
        PodScheduler::new(inputs.config.clone()).run_with_faults(&inputs.plan)
    });
    let Ok(report) = result else {
        return failed_outcome(wall_s, "scheduler_returned_err");
    };
    let jobs = u64::from(inputs.config.arrivals.jobs);
    let mut failed = Vec::new();
    check(&mut failed, "all_jobs_completed", report.completed == jobs);
    check(
        &mut failed,
        "restores_bit_identical",
        report.restores_bit_identical,
    );
    Outcome {
        wall_s,
        work: jobs as f64,
        sim_digest: digest_json(&report),
        failed_checks: failed,
        layer: vec![
            ("sched.us_per_job", 1e6 * wall_s / jobs as f64),
            ("sched.preemptions", report.preemptions as f64),
            ("sched.fault_kills", report.fault_kills as f64),
            ("sched.restores", report.restores as f64),
            ("sched.sim_makespan_s", report.makespan_seconds),
            ("sched.sim_utilization", report.mean_utilization),
        ],
    }
}

// ---------------------------------------------------------------------
// serve_queries
// ---------------------------------------------------------------------

/// Training jobs and DLRM queries in one `serve_queries` op.
pub const SERVE_JOBS: u32 = 200;
pub const SERVE_QUERIES: u32 = 20_000;

pub struct ServeInputs {
    config: ServeCampaignConfig,
}

fn serve_inputs(seed: u64) -> ServeInputs {
    let mut config = ServeCampaignConfig::demo(paper_machine(), SERVE_JOBS, seed);
    config.dlrm.stream.queries = SERVE_QUERIES;
    ServeInputs { config }
}

fn serve_op(inputs: &ServeInputs, t: &mut Tracer) -> Outcome {
    let (result, wall_s) = t.call("serve.campaign_run", || {
        ServeCampaign::new(inputs.config.clone()).run()
    });
    let Ok(report) = result else {
        return failed_outcome(wall_s, "campaign_returned_err");
    };
    let mut failed = Vec::new();
    check(
        &mut failed,
        "all_jobs_completed",
        report.sched.completed == report.sched.jobs,
    );
    check(
        &mut failed,
        "all_queries_served",
        report.dlrm.requests == u64::from(SERVE_QUERIES),
    );
    check(
        &mut failed,
        "cache_hit_rate_in_range",
        report.dlrm.cache_hit_rate > 0.0 && report.dlrm.cache_hit_rate <= 1.0,
    );
    Outcome {
        wall_s,
        work: f64::from(SERVE_QUERIES),
        sim_digest: digest_json(&report),
        failed_checks: failed,
        layer: vec![
            ("serve.batches", report.dlrm.batches as f64),
            ("serve.cache_hit_rate", report.dlrm.cache_hit_rate),
            ("serve.remote_rows", report.dlrm.remote_rows as f64),
            ("serve.sim_p99_ms", 1e3 * report.dlrm.latency.p99),
        ],
    }
}

// ---------------------------------------------------------------------
// allreduce_numeric
// ---------------------------------------------------------------------

/// Gradient elements per chip in one `allreduce_numeric` op.
pub const ALLREDUCE_ELEMS: usize = 16_384;

pub struct AllReduceInputs {
    tensors: Vec<Tensor>,
    /// Per-element sum over all chips, accumulated serially in f64 by
    /// the benchmark: the oracle chip 0's output is held against.
    reference: Vec<f64>,
    /// Largest `Σ|x|` over the elements: the scale rounding error grows
    /// with.
    abs_scale: f64,
}

/// One seeded tensor of `elems` gradient elements per chip of the paper's
/// machine.
fn chip_tensors(elems: usize, seed: u64) -> Vec<Tensor> {
    let chips = Multipod::new(paper_machine()).num_chips();
    let mut rng = TensorRng::seed(seed);
    (0..chips)
        .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
        .collect()
}

fn allreduce_inputs(elems: usize, seed: u64) -> AllReduceInputs {
    let tensors = chip_tensors(elems, seed);
    let mut reference = vec![0.0f64; elems];
    let mut abs = vec![0.0f64; elems];
    for tensor in &tensors {
        for ((r, a), &x) in reference.iter_mut().zip(&mut abs).zip(tensor.data()) {
            *r += f64::from(x);
            *a += f64::from(x.abs());
        }
    }
    let abs_scale = abs.iter().copied().fold(0.0, f64::max);
    AllReduceInputs {
        tensors,
        reference,
        abs_scale,
    }
}

/// Error allowed against the serial sum, as a share of `Σ|x|`: f32
/// accumulates in another order; bf16 rounds every hop's payload to 8
/// mantissa bits.
const F32_REL_TOL: f64 = 1e-3;
const BF16_REL_TOL: f64 = 2e-2;

fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shares_storage(b)
        || (a.len() == b.len()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits()))
}

fn close_to_reference(inputs: &AllReduceInputs, output: &Tensor, rel_tol: f64) -> bool {
    let tol = rel_tol * inputs.abs_scale;
    output.len() == inputs.reference.len()
        && output
            .data()
            .iter()
            .zip(&inputs.reference)
            .all(|(&got, &want)| (f64::from(got) - want).abs() <= tol)
}

fn allreduce_op(inputs: &AllReduceInputs, t: &mut Tracer) -> Outcome {
    let mut net = Network::new(Multipod::new(paper_machine()), NetworkConfig::tpu_v3());
    let (f32_result, f32_s) = t.call("collectives.two_dim_all_reduce_f32", || {
        two_dim_all_reduce(&mut net, &inputs.tensors, Precision::F32, 1, None)
    });
    net.reset();
    let (bf16_result, bf16_s) = t.call("collectives.two_dim_all_reduce_bf16", || {
        two_dim_all_reduce(&mut net, &inputs.tensors, Precision::Bf16, 1, None)
    });
    let wall_s = f32_s + bf16_s;
    let (Ok(f32_out), Ok(bf16_out)) = (f32_result, bf16_result) else {
        return failed_outcome(wall_s, "all_reduce_returned_err");
    };
    let mut failed = Vec::new();
    check(
        &mut failed,
        "f32_outputs_identical_on_every_chip",
        f32_out
            .outputs
            .iter()
            .all(|o| bit_identical(o, &f32_out.outputs[0])),
    );
    check(
        &mut failed,
        "f32_matches_serial_sum",
        close_to_reference(inputs, &f32_out.outputs[0], F32_REL_TOL),
    );
    // On bf16 payloads a shard's owner keeps its unrounded f32 sum while
    // every other chip receives the rounded copy, so outputs agree only
    // to bf16 precision: each chip is held against the serial sum.
    check(
        &mut failed,
        "bf16_matches_serial_sum_on_every_chip",
        bf16_out
            .outputs
            .iter()
            .all(|o| close_to_reference(inputs, o, BF16_REL_TOL)),
    );
    let mut fnv = Fnv::new();
    for out in [&f32_out, &bf16_out] {
        fnv.f64(out.time.seconds());
        for &x in out.outputs[0].data() {
            fnv.word(u64::from(x.to_bits()));
        }
    }
    let elems = inputs.tensors[0].len();
    Outcome {
        wall_s,
        work: (2 * inputs.tensors.len() * elems) as f64,
        sim_digest: fnv.finish(),
        failed_checks: failed,
        layer: vec![
            ("collectives.twod_f32_s", f32_s),
            ("collectives.twod_bf16_s", bf16_s),
        ],
    }
}

// ---------------------------------------------------------------------
// simcore_replay
// ---------------------------------------------------------------------

pub struct SimcoreInputs {
    mesh: MultipodConfig,
    /// Per-chip payload elements; sets message sizes, not event counts.
    elems: usize,
}

fn simcore_inputs(seed: u64) -> SimcoreInputs {
    SimcoreInputs {
        mesh: MultipodConfig::mesh(256, 64, true),
        elems: (1 << 18) + 4096 * (seed % 16) as usize,
    }
}

/// Host nanoseconds and calls spent in each of the two layers the replay
/// drives, read by the timing adapter of the traced run.
#[derive(Default)]
struct ReplayClock {
    transfer_ns: u64,
    transfers: u64,
    queue_ns: u64,
    queue_calls: u64,
}

/// Times `f` into the clock's slot when `TRACED`; otherwise just calls it.
#[inline(always)]
fn clocked<const TRACED: bool, R>(ns: &mut u64, calls: &mut u64, f: impl FnOnce() -> R) -> R {
    if TRACED {
        let t0 = Instant::now();
        let r = f();
        *ns += t0.elapsed().as_nanos() as u64;
        *calls += 1;
        r
    } else {
        f()
    }
}

struct ReplayResult {
    events: u64,
    expected_events: u64,
    final_time: f64,
    digest: u64,
    max_depth: usize,
    routed: bool,
}

/// Event-driven replay of one 2-D all-reduce step: every member of every
/// Y ring and X ring chains `2(n-1)` sends, each completion scheduling
/// the next. The benchmark's own driver over `EventQueue` + `Network`.
fn replay<const TRACED: bool>(inputs: &SimcoreInputs, clock: &mut ReplayClock) -> ReplayResult {
    let mut net = Network::new(Multipod::new(inputs.mesh.clone()), NetworkConfig::tpu_v3());
    let mesh = net.mesh();
    let mut rings: Vec<Ring> = (0..mesh.x_len()).map(|x| mesh.y_ring(x)).collect();
    rings.extend((0..mesh.y_len()).map(|y| mesh.x_line_strided(y, 0, 1)));
    rings.retain(|r| r.len() >= 2);
    let expected_events = rings
        .iter()
        .map(|r| (r.len() * 2 * (r.len() - 1)) as u64)
        .sum();

    let mut queue: EventQueue<(u32, u32, u32)> = EventQueue::new();
    for (r, ring) in rings.iter().enumerate() {
        for m in 0..ring.len() {
            queue.schedule(SimTime::ZERO, (r as u32, m as u32, 0));
        }
    }
    let mut fnv = Fnv::new();
    let mut events = 0u64;
    let mut final_time = SimTime::ZERO;
    let mut routed = true;
    while let Some((at, (r, m, step))) =
        clocked::<TRACED, _>(&mut clock.queue_ns, &mut clock.queue_calls, || queue.pop())
    {
        events += 1;
        let ring = &rings[r as usize];
        let n = ring.len();
        let bytes = ((inputs.elems / n).max(1) * 4) as u64;
        let from = ring.members()[m as usize];
        let to = ring.members()[(m as usize + 1) % n];
        let sent = clocked::<TRACED, _>(&mut clock.transfer_ns, &mut clock.transfers, || {
            net.transfer(from, to, bytes, at)
        });
        let Ok(sent) = sent else {
            routed = false;
            break;
        };
        final_time = final_time.max(sent.finish);
        fnv.word((u64::from(r) << 40) | (u64::from(m) << 16) | u64::from(step));
        fnv.f64(sent.finish.seconds());
        if (step as usize) + 1 < 2 * (n - 1) {
            clocked::<TRACED, _>(&mut clock.queue_ns, &mut clock.queue_calls, || {
                queue.schedule(sent.finish, (r, m, step + 1));
            });
        }
    }
    ReplayResult {
        events,
        expected_events,
        final_time: final_time.seconds(),
        digest: fnv.finish(),
        max_depth: queue.stats().max_depth,
        routed,
    }
}

fn simcore_op(inputs: &SimcoreInputs, t: &mut Tracer) -> Outcome {
    let mut clock = ReplayClock::default();
    let traced = t.enabled();
    let open = t.begin("simcore.replay");
    let result = if traced {
        replay::<true>(inputs, &mut clock)
    } else {
        replay::<false>(inputs, &mut clock)
    };
    t.aggregate(
        "simnet.Network::transfer",
        clock.transfer_ns,
        clock.transfers,
    );
    t.aggregate(
        "simnet.EventQueue::schedule+pop",
        clock.queue_ns,
        clock.queue_calls,
    );
    let wall_s = t.end(open);

    let mut failed = Vec::new();
    check(&mut failed, "every_transfer_routed", result.routed);
    check(
        &mut failed,
        "event_count_matches_schedule",
        result.events == result.expected_events,
    );
    let mut fnv = Fnv::new();
    fnv.word(result.events);
    fnv.f64(result.final_time);
    fnv.word(result.digest);
    let mut layer = vec![
        ("simnet.events", result.events as f64),
        ("simnet.queue_max_depth", result.max_depth as f64),
    ];
    if traced {
        let wall_ns = 1e9 * wall_s;
        let share_transfer = clock.transfer_ns as f64 / wall_ns;
        let share_queue = clock.queue_ns as f64 / wall_ns;
        layer.extend([
            (
                "simnet.transfer_warm_ns",
                clock.transfer_ns as f64 / clock.transfers.max(1) as f64,
            ),
            (
                "simnet.queue_tie_ns",
                clock.queue_ns as f64 / result.events.max(1) as f64,
            ),
            ("simcore_replay.share_transfer", share_transfer),
            ("simcore_replay.share_queue", share_queue),
            (
                "simcore_replay.share_driver",
                1.0 - share_transfer - share_queue,
            ),
        ]);
    }
    Outcome {
        wall_s,
        work: result.events as f64,
        sim_digest: fnv.finish(),
        failed_checks: failed,
        layer,
    }
}

// ---------------------------------------------------------------------
// fault_recovery
// ---------------------------------------------------------------------

pub struct FaultInputs {
    campaign: CampaignConfig,
    outage: FaultPlan,
    fault_free_loss: f64,
    rollback: RollbackConfig,
    chip_loss: FaultPlan,
    rollback_fault_free_loss: f64,
}

/// The `repro_faults` and `repro_ckpt` campaigns on a 32×32 torus. The
/// fault-free runs here fix the fault times and give the losses the ops
/// are checked against.
fn fault_inputs(seed: u64) -> Result<FaultInputs, String> {
    let mesh_cfg = MultipodConfig::mesh(32, 32, true);
    let mesh = Multipod::new(mesh_cfg.clone());

    let mut campaign = CampaignConfig::demo(mesh_cfg.clone());
    campaign.seed = seed;
    let clean = run_campaign(&campaign, &FaultPlan::new(), None).map_err(|e| e.to_string())?;
    // Wrap link of column 0 down while host 1 straggles at 2x, from the
    // start of step 2 to the start of step 6.
    let outage = FaultPlan::wrap_outage_with_straggler(
        &mesh,
        0,
        SimTime::from_seconds(clean.steps[1].start_seconds),
        SimTime::from_seconds(clean.steps[5].start_seconds),
        1,
        2.0,
    );

    let mut rollback = RollbackConfig::demo(mesh_cfg);
    rollback.seed = seed;
    let clean_rb =
        run_rollback_campaign(&rollback, &FaultPlan::new(), None).map_err(|e| e.to_string())?;
    // One chip (off row 0, so the survivor mesh stays routable) dies just
    // after the step that follows the first checkpoint has started.
    let fault_step = (rollback.ckpt_interval + 1).min(rollback.steps) as usize;
    let fault_at = clean_rb
        .steps
        .get(fault_step)
        .map_or(clean_rb.total_seconds, |s| s.start_seconds)
        + 1e-9;
    let chip_loss =
        FaultPlan::new().chip_down(SimTime::from_seconds(fault_at), ChipId(mesh.x_len() + 1));

    Ok(FaultInputs {
        campaign,
        outage,
        fault_free_loss: clean.final_loss,
        rollback,
        chip_loss,
        rollback_fault_free_loss: clean_rb.final_loss,
    })
}

fn fault_op(inputs: &FaultInputs, t: &mut Tracer) -> Outcome {
    let (campaign, campaign_s) = t.call("faults.run_campaign", || {
        run_campaign(&inputs.campaign, &inputs.outage, None)
    });
    let (rollback, rollback_s) = t.call("ckpt.run_rollback_campaign", || {
        run_rollback_campaign(&inputs.rollback, &inputs.chip_loss, None)
    });
    let wall_s = campaign_s + rollback_s;
    let (Ok(campaign), Ok(rollback)) = (campaign, rollback) else {
        return failed_outcome(wall_s, "campaign_returned_err");
    };
    let mut failed = Vec::new();
    check(
        &mut failed,
        "outage_loss_bit_equal_to_fault_free",
        campaign.final_loss.to_bits() == inputs.fault_free_loss.to_bits(),
    );
    check(&mut failed, "rolled_back", rollback.rollbacks >= 1);
    // `repro_ckpt`'s tolerance.
    let tolerance = 1e-3 * (1.0 + inputs.rollback_fault_free_loss.abs());
    check(
        &mut failed,
        "rollback_loss_within_tolerance",
        (rollback.final_loss - inputs.rollback_fault_free_loss).abs() <= tolerance,
    );
    let mut fnv = Fnv::new();
    fnv.word(digest_json(&campaign));
    fnv.word(digest_json(&rollback));
    Outcome {
        wall_s,
        work: (campaign.steps.len() + rollback.steps.len()) as f64,
        sim_digest: fnv.finish(),
        failed_checks: failed,
        layer: vec![
            ("faults.campaign_s", campaign_s),
            ("ckpt.rollback_campaign_s", rollback_s),
        ],
    }
}

// ---------------------------------------------------------------------
// paper_sweep
// ---------------------------------------------------------------------

/// Sweeps in one `paper_sweep` op.
pub const PAPER_SWEEPS: u32 = 200;

/// Gradient-bucket counts the overlapped BERT step is scheduled at.
const OVERLAP_BUCKETS: [u32; 8] = [1, 2, 4, 8, 12, 16, 20, 32];

pub struct PaperInputs {
    /// Table-1 presets (TensorFlow and JAX rows), in a seed-drawn order:
    /// the order changes nothing a sweep computes.
    presets: Vec<Preset>,
}

fn paper_inputs(seed: u64) -> PaperInputs {
    let mut presets: Vec<Preset> = presets::table1()
        .into_iter()
        .flat_map(|(tf, jax)| std::iter::once(tf).chain(jax))
        .collect();
    SplitMix64::new(seed).shuffle(&mut presets);
    PaperInputs { presets }
}

/// One pass over everything the `repro_fig*`/`repro_table*` binaries
/// compute analytically. Folds every headline number into `fnv`.
fn paper_sweep_once(inputs: &PaperInputs, fnv: &mut Fnv) -> Result<bool, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    // Order-independent fold, so the seed-drawn order leaves the digest
    // alone.
    let mut table1 = 0u64;
    for preset in &inputs.presets {
        let report = Executor::new(preset.clone()).run().map_err(|e| err(&e))?;
        let mut one = Fnv::new();
        one.bytes(report.name.as_bytes());
        one.word(u64::from(report.chips));
        one.f64(report.end_to_end_minutes());
        one.f64(report.init_seconds);
        table1 = table1.wrapping_add(one.finish());
    }
    fnv.word(table1);

    let chips = standard_chip_counts(4096);
    for workload in [
        catalog::resnet50(),
        catalog::bert(),
        catalog::transformer(),
        catalog::ssd(),
    ] {
        let curve = ScalingCurve::sweep(&workload, &chips).map_err(|e| err(&e))?;
        for point in &curve.points {
            fnv.f64(point.report.end_to_end_minutes());
            fnv.f64(point.report.step.total());
        }
    }
    for (workload, cores) in [
        (catalog::transformer(), &[1u32, 2, 4][..]),
        (catalog::ssd(), &[1, 2, 4, 8][..]),
        (catalog::maskrcnn(), &[1, 2, 4, 8][..]),
    ] {
        for point in speedup_curve(&workload, 1.0, cores).map_err(|e| err(&e))? {
            fnv.f64(point.step_time);
        }
    }
    for row in summation_ablation(25_600_000, Precision::F32, &[64, 256, 1024, 4096])
        .map_err(|e| err(&e))?
    {
        fnv.f64(row.one_dim);
        fnv.f64(row.two_dim);
    }
    for row in precision_ablation(334_000_000, &[256, 1024, 4096]).map_err(|e| err(&e))? {
        fnv.f64(row.f32_time);
        fnv.f64(row.bf16_time);
    }
    let mut small_batch_bert = catalog::bert();
    small_batch_bert.max_per_core_batch = 4;
    for row in wus_ablation(&small_batch_bert, &[256, 512, 1024]).map_err(|e| err(&e))? {
        fnv.f64(row.replicated_step);
        fnv.f64(row.sharded_step);
    }

    let bert = catalog::bert();
    let options = StepOptions::default();
    for buckets in OVERLAP_BUCKETS {
        let overlap = OverlapConfig {
            buckets,
            ..OverlapConfig::default()
        };
        let step = overlapped_step(&bert, 4096, &options, &overlap).map_err(|e| err(&e))?;
        fnv.f64(step.step_seconds());
    }
    // With overlap off the task graph is the serial chain, and its
    // makespan must equal the analytic breakdown to the bit.
    let serial = OverlapConfig {
        overlap: false,
        ..OverlapConfig::default()
    };
    let scheduled = overlapped_step(&bert, 4096, &options, &serial).map_err(|e| err(&e))?;
    let analytic = step_breakdown(&bert, 4096, &options).map_err(|e| err(&e))?;
    Ok(scheduled.step_seconds().to_bits() == analytic.total().to_bits())
}

fn paper_op(inputs: &PaperInputs, t: &mut Tracer) -> Outcome {
    let mut fnv = Fnv::new();
    let (result, wall_s) = t.call("core.paper_sweeps", || {
        let mut serial_equal = true;
        for _ in 0..PAPER_SWEEPS {
            serial_equal &= paper_sweep_once(inputs, &mut fnv)?;
        }
        Ok::<bool, String>(serial_equal)
    });
    let Ok(serial_equal) = result else {
        return failed_outcome(wall_s, "sweep_returned_err");
    };
    let mut failed = Vec::new();
    check(
        &mut failed,
        "serial_task_graph_equals_analytic_step",
        serial_equal,
    );
    Outcome {
        wall_s,
        work: f64::from(PAPER_SWEEPS),
        sim_digest: fnv.finish(),
        failed_checks: failed,
        layer: Vec::new(),
    }
}

// ---------------------------------------------------------------------
// probes
// ---------------------------------------------------------------------

/// Host seconds of the traced ops that some probes are a share of, or
/// extend into a line.
pub struct OpWalls {
    /// One `sched_churn` op (2000 jobs).
    pub sched_churn_s: f64,
    /// One `serve_queries` op.
    pub serve_queries_s: f64,
    /// The f32 half of one `allreduce_numeric` op (16 384 elems).
    pub twod_f32_s: f64,
}

/// Mean host seconds per call of `f` over `iters` calls.
fn per_call(iters: u32, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        f();
    }
    t0.elapsed().as_secs_f64() / f64::from(iters)
}

fn seeded_pairs(rng: &mut SplitMix64, chips: u64, count: usize) -> Vec<(ChipId, ChipId)> {
    (0..count)
        .map(|_| {
            let from = rng.below(chips);
            let to = (from + 1 + rng.below(chips - 1)) % chips;
            (ChipId(from as u32), ChipId(to as u32))
        })
        .collect()
}

type Values = Vec<(&'static str, f64)>;

fn topology_probe(rng: &mut SplitMix64) -> Values {
    let build_s = per_call(100_000, || {
        black_box(Multipod::new(black_box(paper_machine())));
    });
    let mesh = Multipod::new(paper_machine());
    let pairs = seeded_pairs(rng, mesh.num_chips() as u64, 100_000);
    let t0 = Instant::now();
    for &(from, to) in &pairs {
        black_box(mesh.route(from, to).is_ok());
    }
    let route_s = t0.elapsed().as_secs_f64() / pairs.len() as f64;
    vec![
        ("topology.build_us", 1e6 * build_s),
        ("topology.route_cold_ns", 1e9 * route_s),
    ]
}

fn simnet_probe(rng: &mut SplitMix64) -> Result<Values, String> {
    // First transfer per distinct pair on a fresh network: route
    // derivation + path interning + the reservation itself.
    let mut net = Network::new(Multipod::new(paper_machine()), NetworkConfig::tpu_v3());
    let mut pairs = seeded_pairs(rng, net.mesh().num_chips() as u64, 20_000);
    pairs.sort_unstable_by_key(|&(a, b)| (a.0, b.0));
    pairs.dedup();
    rng.shuffle(&mut pairs);
    let t0 = Instant::now();
    for &(from, to) in &pairs {
        net.transfer(from, to, 4096, SimTime::ZERO)
            .map_err(|e| e.to_string())?;
    }
    let cold_s = t0.elapsed().as_secs_f64() / pairs.len() as f64;

    // Hold model at spread times: a standing population of 1024 events,
    // each pop re-scheduled an exponential gap later.
    const HOLDS: usize = 1_000_000;
    let gaps: Vec<f64> = (0..HOLDS + 1024).map(|_| -1e-6 * rng.unit().ln()).collect();
    let mut queue: EventQueue<u32> = EventQueue::new();
    for (i, &gap) in gaps[..1024].iter().enumerate() {
        queue.schedule(SimTime::from_seconds(gap), i as u32);
    }
    let t0 = Instant::now();
    for &gap in &gaps[1024..] {
        let (at, payload) = queue.pop().ok_or("hold-model queue ran dry")?;
        queue.schedule(at + gap, payload);
    }
    let spread_s = t0.elapsed().as_secs_f64() / HOLDS as f64;

    // Fail + heal one wrap link on a warmed 32×32 network, then one
    // transfer that has to find its route again.
    let mut net = Network::new(
        Multipod::new(MultipodConfig::mesh(32, 32, true)),
        NetworkConfig::tpu_v3(),
    );
    let warm = seeded_pairs(rng, net.mesh().num_chips() as u64, 4000);
    for &(from, to) in &warm {
        net.transfer(from, to, 4096, SimTime::ZERO)
            .map_err(|e| e.to_string())?;
    }
    let (top, bottom) = (ChipId(31 * 32), ChipId(0));
    let mut routed = true;
    let invalidate_s = per_call(50, || {
        net.fail_link(top, bottom, SimTime::ZERO);
        net.heal_link(top, bottom, SimTime::ZERO);
        let (from, to) = warm[0];
        routed &= net.transfer(from, to, 4096, SimTime::ZERO).is_ok();
    });
    if !routed {
        return Err("transfer after heal did not route".to_string());
    }
    Ok(vec![
        ("simnet.transfer_cold_ns", 1e9 * cold_s),
        ("simnet.queue_spread_ns", 1e9 * spread_s),
        ("simnet.invalidate_us", 1e6 * invalidate_s),
    ])
}

/// Payload gigabytes per second: 4 bytes per element the kernel reads
/// from its source (or writes, for the generator).
fn gbps(elems: usize, seconds_per_call: f64) -> f64 {
    4.0 * elems as f64 / seconds_per_call / 1e9
}

fn tensor_probe(seed: u64) -> Result<Values, String> {
    let mut rng = TensorRng::seed(seed);
    let mut values = Vec::new();
    for (name, elems, iters) in [
        ("tensor.axpy_chunk_gbps", 512usize, 400_000u32),
        ("tensor.axpy_gbps", ALLREDUCE_ELEMS, 20_000),
    ] {
        let src = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut dst = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut ok = true;
        let s = per_call(iters, || ok &= dst.axpy(1.0, black_box(&src)).is_ok());
        if !ok {
            return Err("axpy shape mismatch".to_string());
        }
        black_box(&dst);
        values.push((name, gbps(elems, s)));
    }
    let src = rng.uniform(Shape::vector(ALLREDUCE_ELEMS), -1.0, 1.0);
    let s = per_call(10_000, || {
        black_box(Precision::Bf16.quantize(black_box(&src)));
    });
    values.push(("tensor.bf16_quantize_gbps", gbps(ALLREDUCE_ELEMS, s)));
    let s = per_call(2000, || {
        black_box(rng.uniform(Shape::vector(ALLREDUCE_ELEMS), -1.0, 1.0));
    });
    values.push(("tensor.rng_uniform_gbps", gbps(ALLREDUCE_ELEMS, s)));
    Ok(values)
}

fn collectives_probe(seed: u64, walls: &OpWalls, t: &mut Tracer) -> Result<Values, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let mut net = Network::new(Multipod::new(paper_machine()), NetworkConfig::tpu_v3());
    let mut rng = TensorRng::seed(seed);

    // One numeric reduce-scatter on a 32-member Y ring.
    let y_ring = net.mesh().y_ring(0);
    let inputs: Vec<Tensor> = (0..y_ring.len())
        .map(|_| rng.uniform(Shape::vector(ALLREDUCE_ELEMS), -1.0, 1.0))
        .collect();
    let mut ok = true;
    let ring_rs_s = per_call(100, || {
        net.reset();
        ok &= ring::reduce_scatter(
            &mut net,
            &y_ring,
            &inputs,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .is_ok();
    });

    // The same transfers without a payload, on a 128-member X line.
    let x_ring = net.mesh().x_line_strided(0, 0, 1);
    let pipelined_s = per_call(100, || {
        net.reset();
        ok &= pipelined::all_reduce_time(
            &mut net,
            &x_ring,
            ALLREDUCE_ELEMS,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .is_ok();
    });

    // The closed-form model of the whole 2-D schedule.
    let alpha_beta_s = per_call(2000, || {
        ok &= two_dim_all_reduce_time(&net, 25_600_000, Precision::F32, 1).is_ok();
    });

    // Pre-flight of a ring with one wrap link down.
    let mut degraded = Multipod::new(MultipodConfig::mesh(32, 32, true));
    degraded.fail_link(ChipId(31 * 32), ChipId(0));
    let column = degraded.y_ring(0);
    let degradation_s = per_call(500, || {
        ok &= matches!(ring_degradation(&degraded, &column), Ok(Some(_)));
    });

    // All-to-all on the 256-chip serve slice, one embedding row per peer.
    let mut slice = Network::new(
        Multipod::new(MultipodConfig::mesh(16, 16, false)),
        NetworkConfig::tpu_v3(),
    );
    let chips: Vec<ChipId> = slice.mesh().chips().collect();
    let blocks: Vec<Tensor> = (0..chips.len())
        .map(|_| rng.uniform(Shape::vector(chips.len() * 32), -1.0, 1.0))
        .collect();
    let all_to_all_s = per_call(5, || {
        slice.reset();
        ok &= all_to_all(&mut slice, &chips, &blocks, Precision::F32, SimTime::ZERO).is_ok();
    });
    if !ok {
        return Err("a collectives probe call failed".to_string());
    }

    // A second payload size for the numeric 2-D all-reduce: the line
    // through (4096, t) and (16 384, t) splits schedule + network cost
    // (intercept) from payload cost (slope).
    const SMALL_ELEMS: usize = 4096;
    let small = chip_tensors(SMALL_ELEMS, seed);
    net.reset();
    let (result, small_s) = t.call("collectives.two_dim_all_reduce_f32_4096", || {
        two_dim_all_reduce(&mut net, &small, Precision::F32, 1, None)
    });
    result.map_err(|e| err(&e))?;
    let (fixed_s, per_elem_s) = line_through(
        SMALL_ELEMS as f64,
        small_s,
        ALLREDUCE_ELEMS as f64,
        walls.twod_f32_s,
    );

    Ok(vec![
        ("collectives.ring_rs_us", 1e6 * ring_rs_s),
        ("collectives.pipelined_time_us", 1e6 * pipelined_s),
        ("collectives.alpha_beta_ns", 1e9 * alpha_beta_s),
        ("collectives.degradation_us", 1e6 * degradation_s),
        ("collectives.all_to_all_us", 1e6 * all_to_all_s),
        ("collectives.twod_fixed_s", fixed_s),
        ("collectives.twod_ns_per_elem", 1e9 * per_elem_s),
    ])
}

fn analytic_probe() -> Result<Values, String> {
    let mut ok = true;
    let bert = catalog::bert();
    let options = StepOptions::default();
    let overlap = OverlapConfig {
        buckets: 20,
        ..OverlapConfig::default()
    };
    let step_schedule_s = per_call(200, || {
        ok &= overlapped_step(&bert, 4096, &options, &overlap).is_ok();
    });

    // 1000 serve-shaped tasks: lookup released at its batch's dispatch
    // time, then all-to-all, then dense.
    let released_s = per_call(100, || {
        let mut graph = TaskGraph::new();
        let mut previous = None;
        for i in 0..1000u32 {
            let batch = i / 3;
            let added = match (i % 3, previous) {
                (1, Some(dep)) => graph.add(
                    TaskKind::ServeAllToAll { batch },
                    Resource::Ici,
                    2e-4,
                    &[dep],
                ),
                (2, Some(dep)) => {
                    graph.add(TaskKind::ServeDense { batch }, Resource::Mxu, 1e-4, &[dep])
                }
                _ => graph.add_released(
                    TaskKind::ServeLookup { batch },
                    Resource::Host,
                    5e-5,
                    SimTime::from_seconds(2e-4 * f64::from(batch)),
                    &[],
                ),
            };
            ok &= added.is_ok();
            previous = added.ok();
        }
        black_box(graph.run());
    });

    let table1: Vec<Preset> = presets::table1().into_iter().map(|(tf, _)| tf).collect();
    let executor_s = per_call(200, || {
        for preset in &table1 {
            ok &= Executor::new(preset.clone()).run().is_ok();
        }
    }) / table1.len() as f64;
    let chips = standard_chip_counts(4096);
    let sweep_s = per_call(200, || {
        ok &= ScalingCurve::sweep(&bert, &chips).is_ok();
    });

    let model = representative(&catalog::transformer(), 4)
        .ok_or("transformer has no model-parallel graph")?;
    let partition_s = per_call(200, || {
        black_box(model.partition(4));
    });
    if !ok {
        return Err("an analytic probe call failed".to_string());
    }
    Ok(vec![
        ("taskgraph.step_schedule_us", 1e6 * step_schedule_s),
        ("taskgraph.released_schedule_us", 1e6 * released_s),
        ("core.executor_run_us", 1e6 * executor_s),
        ("core.scaling_sweep_us", 1e6 * sweep_s),
        ("hlo.spmd_partition_us", 1e6 * partition_s),
    ])
}

fn recovery_probe(seed: u64) -> Result<Values, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let torus = MultipodConfig::mesh(32, 32, true);

    // One healthy data-parallel step, shaped as the campaigns shape it.
    let mut trainer = DataParallelTrainer::new(
        torus.clone(),
        SgdMomentum::new(1.0, 0.0),
        LrSchedule::Constant { lr: 0.05 },
    );
    let replicas = trainer.replicas();
    let mut rng = TensorRng::seed(seed);
    let mut weights = Tensor::zeros(Shape::vector(replicas));
    let grads = vec![rng.uniform(Shape::vector(replicas), -1.0, 1.0); replicas];
    let mut ok = true;
    let trainer_step_s = per_call(5, || ok &= trainer.step(&mut weights, &grads).is_ok());

    // Checkpoint layer at the scheduler's sizes: a 16×16 slice, 4096
    // state elements with one optimizer slot.
    let state_elems = 4096;
    let slice = Multipod::new(MultipodConfig::mesh(16, 16, false));
    let machine = Multipod::new(paper_machine());
    let plan_s = per_call(200, || {
        ok &= ShardPlacement::plan(&slice, &[], state_elems).is_ok();
    });
    let plan_full_s = per_call(5, || {
        ok &= ShardPlacement::plan(&machine, &[], state_elems).is_ok();
    });
    let placement = ShardPlacement::plan(&slice, &[], state_elems).map_err(|e| err(&e))?;
    let bundle = StateBundle {
        step: 1,
        weights: rng.uniform(Shape::vector(state_elems), -1.0, 1.0),
        optim: vec![(
            "momentum".to_string(),
            rng.uniform(Shape::vector(state_elems), -1.0, 1.0),
        )],
    };
    let pcie = PcieCost::criteo();
    let mut net = Network::new(slice, NetworkConfig::tpu_v3());
    let saved = save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO)
        .map_err(|e| err(&e))?;
    let save_s = per_call(50, || {
        ok &= save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO).is_ok();
    });
    let mut restored_equal = true;
    let restore_s = per_call(50, || {
        match restore_checkpoint(
            &mut net,
            &placement,
            &saved.checkpoint,
            &pcie,
            SimTime::ZERO,
        ) {
            Ok(outcome) => restored_equal &= outcome.bundle == bundle,
            Err(_) => ok = false,
        }
    });

    // The fault driver applying the canned outage plan to fresh networks.
    let mesh = Multipod::new(torus);
    let plan = FaultPlan::wrap_outage_with_straggler(
        &mesh,
        0,
        SimTime::from_seconds(1e-3),
        SimTime::from_seconds(5e-3),
        1,
        2.0,
    );
    let mut nets: Vec<Network> = (0..200)
        .map(|_| Network::new(mesh.clone(), NetworkConfig::tpu_v3()))
        .collect();
    let t0 = Instant::now();
    for net in &mut nets {
        let mut driver = FaultDriver::new(plan.clone());
        ok &= driver.advance(net, SimTime::from_seconds(1.0)) == plan.events().len();
    }
    let advance_s = t0.elapsed().as_secs_f64() / nets.len() as f64;
    if !ok || !restored_equal {
        return Err("a recovery probe call failed".to_string());
    }
    Ok(vec![
        ("core.trainer_step_ms", 1e3 * trainer_step_s),
        ("ckpt.placement_plan_us", 1e6 * plan_s),
        ("ckpt.placement_plan_full_us", 1e6 * plan_full_s),
        ("ckpt.save_ms", 1e3 * save_s),
        ("ckpt.restore_ms", 1e3 * restore_s),
        ("faults.driver_advance_us", 1e6 * advance_s),
    ])
}

fn sched_probe(seed: u64, walls: &OpWalls, t: &mut Tracer) -> Result<Values, String> {
    let arrivals = sched_inputs(SCHED_JOBS, seed).config.arrivals;
    let stream_s = per_call(200, || {
        black_box(arrival_stream(&arrivals));
    });

    // Allocate/free replay over the stream's slice sizes, holding the
    // mesh near 90 % occupied: the oldest job leaves before each arrival
    // that would push past it.
    let stream = arrival_stream(&arrivals);
    let mesh = Multipod::new(paper_machine());
    let mut allocator = SliceAllocator::new(&mesh);
    let high_water = mesh.num_chips() as u32 * 9 / 10;
    let mut resident = std::collections::VecDeque::new();
    let mut calls = 0u64;
    let t0 = Instant::now();
    for _ in 0..5 {
        for job in &stream {
            while allocator.busy_chips() + job.chips > high_water {
                let Some(oldest) = resident.pop_front() else {
                    break;
                };
                allocator.free(oldest);
                calls += 1;
            }
            if allocator
                .allocate(job.id, job.chips)
                .map_err(|e| e.to_string())?
                .is_some()
            {
                resident.push_back(job.id);
            }
            calls += 1;
        }
        for id in resident.drain(..) {
            allocator.free(id);
            calls += 1;
        }
    }
    let alloc_free_s = t0.elapsed().as_secs_f64() / calls as f64;

    // Twice the jobs through the same dispatch loop; 2.0 is linear.
    let doubled = sched_inputs(2 * SCHED_JOBS, seed);
    let (result, doubled_s) = t.call("sched.run_with_faults_4000", || {
        PodScheduler::new(doubled.config.clone()).run_with_faults(&doubled.plan)
    });
    let report = result.map_err(|e| e.to_string())?;
    if report.completed != u64::from(2 * SCHED_JOBS) {
        return Err("the 4000-job campaign left jobs unfinished".to_string());
    }
    Ok(vec![
        ("sched.arrival_stream_us", 1e6 * stream_s),
        ("sched.alloc_free_ns", 1e9 * alloc_free_s),
        ("sched.growth_2x", doubled_s / walls.sched_churn_s),
    ])
}

fn serve_probe(seed: u64, walls: &OpWalls, t: &mut Tracer) -> Result<Values, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let campaign = serve_inputs(seed).config;
    let stream_cfg = campaign.dlrm.stream.clone();
    let stream_s = per_call(3, || {
        black_box(query_stream(&stream_cfg).is_ok());
    });
    let requests = query_stream(&stream_cfg).map_err(|e| err(&e))?;
    let assemble_s = per_call(20, || {
        black_box(assemble(&requests, &campaign.dlrm.batching).is_ok());
    });
    let batches = assemble(&requests, &campaign.dlrm.batching).map_err(|e| err(&e))?;

    // The embedding layer as the DLRM replica sets it up on its slice.
    let slice = MultipodConfig::mesh(16, 16, false);
    let chips = Multipod::new(slice.clone()).num_chips();
    let specs = vec![
        EmbeddingSpec {
            rows: stream_cfg.rows_per_table,
            dim: campaign.dlrm.embedding_dim,
        };
        stream_cfg.tables
    ];
    let plan = || Placement::plan(&specs, chips, campaign.dlrm.replication_budget_bytes);
    let (embedding, init_s) = {
        let t0 = Instant::now();
        let embedding = ShardedEmbedding::init(plan(), campaign.dlrm.table_seed);
        (embedding.map_err(|e| err(&e))?, t0.elapsed().as_secs_f64())
    };

    let mut cache = EmbeddingCache::new(chips, campaign.dlrm.cache_rows_per_chip);
    let mut accesses = 0u64;
    let t0 = Instant::now();
    for request in &requests {
        for (sample, rows) in request.samples.iter().enumerate() {
            for (table, &row) in rows.iter().enumerate() {
                black_box(cache.access(sample % chips, table, row));
                accesses += 1;
            }
        }
    }
    let access_s = t0.elapsed().as_secs_f64() / accesses as f64;

    let mut net = Network::new(Multipod::new(slice.clone()), NetworkConfig::tpu_v3());
    let mut cache = EmbeddingCache::new(chips, campaign.dlrm.cache_rows_per_chip);
    let head = &batches[..batches.len().min(200)];
    let mut lookup_s = 0.0;
    for batch in head {
        let indices: Vec<Vec<usize>> = batch
            .requests
            .iter()
            .flat_map(|&r| requests[r].samples.iter().cloned())
            .collect();
        let t0 = Instant::now();
        embedding
            .lookup_cached(&mut net, &indices, SimTime::ZERO, &mut cache)
            .map_err(|e| err(&e))?;
        net.reset();
        lookup_s += t0.elapsed().as_secs_f64();
    }
    lookup_s /= head.len() as f64;

    // The replica alone at two stream lengths: the line through them
    // splits its fixed cost (table init, slice build) from per-query cost.
    let mut dlrm_at = |queries: u32, name: &'static str| -> Result<f64, String> {
        let config = DlrmServeConfig::demo(slice.clone(), queries, seed);
        let (result, s) = t.call(name, || DlrmServer::new(config).run());
        let report = result.map_err(|e| err(&e))?;
        if report.requests != u64::from(queries) {
            return Err(format!(
                "DLRM replica served {} of {queries}",
                report.requests
            ));
        }
        Ok(s)
    };
    const FEW_QUERIES: u32 = 2000;
    let few_s = dlrm_at(FEW_QUERIES, "serve.DlrmServer::run_2000")?;
    let many_s = dlrm_at(SERVE_QUERIES, "serve.DlrmServer::run_20000")?;
    let (fixed_s, per_query_s) = line_through(
        f64::from(FEW_QUERIES),
        few_s,
        f64::from(SERVE_QUERIES),
        many_s,
    );

    let (result, rl_s) = t.call("serve.RlServer::run", || {
        RlServer::new(RlServeConfig::demo(MultipodConfig::mesh(16, 8, false))).run()
    });
    result.map_err(|e| err(&e))?;

    // The scheduler's part of a `serve_queries` op: the same 200 jobs
    // and two reservations, without the serving simulations.
    let (result, sched_s) = t.call("sched.run_200_with_services", || {
        PodScheduler::new(campaign.sched.clone()).run()
    });
    result.map_err(|e| err(&e))?;

    Ok(vec![
        ("serve.query_stream_us", 1e6 * stream_s),
        ("serve.assemble_us", 1e6 * assemble_s),
        ("embedding.init_ms", 1e3 * init_s),
        ("embedding.cache_access_ns", 1e9 * access_s),
        ("embedding.lookup_cached_us", 1e6 * lookup_s),
        ("serve.dlrm_fixed_s", fixed_s),
        ("serve.us_per_query", 1e6 * per_query_s),
        ("serve.rl_run_ms", 1e3 * rl_s),
        ("serve.sched_share", sched_s / walls.serve_queries_s),
    ])
}

/// Replays each layer's public calls on inputs derived from `seed` and
/// returns the per-layer values, one top-level span per layer group.
///
/// # Errors
///
/// A probe whose product call failed or returned a wrong result.
pub fn probes(seed: u64, walls: &OpWalls, t: &mut Tracer) -> Result<Values, String> {
    fn in_span(
        t: &mut Tracer,
        name: &'static str,
        probe: impl FnOnce(&mut Tracer) -> Result<Values, String>,
    ) -> Result<Values, String> {
        let open = t.begin(name);
        let values = probe(t);
        t.end(open);
        values
    }
    let mut rng = SplitMix64::new(seed);
    let mut values = in_span(t, "probe.topology", |_| Ok(topology_probe(&mut rng)))?;
    values.extend(in_span(t, "probe.simnet", |_| simnet_probe(&mut rng))?);
    values.extend(in_span(t, "probe.tensor", |_| tensor_probe(seed))?);
    values.extend(in_span(t, "probe.collectives", |t| {
        collectives_probe(seed, walls, t)
    })?);
    values.extend(in_span(t, "probe.analytic", |_| analytic_probe())?);
    values.extend(in_span(t, "probe.recovery", |_| recovery_probe(seed))?);
    values.extend(in_span(t, "probe.sched", |t| sched_probe(seed, walls, t))?);
    values.extend(in_span(t, "probe.serve", |t| serve_probe(seed, walls, t))?);
    Ok(values)
}

// ---------------------------------------------------------------------
// dispatch
// ---------------------------------------------------------------------

/// Generated inputs of one workload.
pub enum Inputs {
    Sched(SchedInputs),
    Serve(ServeInputs),
    AllReduce(AllReduceInputs),
    Simcore(SimcoreInputs),
    Fault(FaultInputs),
    Paper(PaperInputs),
}

impl Inputs {
    /// Generates the inputs of `workload` from `seed` alone.
    ///
    /// # Errors
    ///
    /// An unknown workload name, or a fault-free reference run that
    /// failed.
    pub fn generate(workload: &str, seed: u64) -> Result<Inputs, String> {
        Ok(match workload {
            "sched_churn" => Inputs::Sched(sched_inputs(SCHED_JOBS, seed)),
            "serve_queries" => Inputs::Serve(serve_inputs(seed)),
            "allreduce_numeric" => Inputs::AllReduce(allreduce_inputs(ALLREDUCE_ELEMS, seed)),
            "simcore_replay" => Inputs::Simcore(simcore_inputs(seed)),
            "fault_recovery" => Inputs::Fault(fault_inputs(seed)?),
            "paper_sweep" => Inputs::Paper(paper_inputs(seed)),
            other => return Err(format!("unknown workload '{other}'")),
        })
    }

    /// Runs one operation on fresh product state, inside one root span:
    /// the spans of one op share its op id, and the root's self time is
    /// the benchmark's own checks.
    pub fn run(&self, t: &mut Tracer) -> Outcome {
        let open = t.begin("op");
        let outcome = match self {
            Inputs::Sched(i) => sched_op(i, t),
            Inputs::Serve(i) => serve_op(i, t),
            Inputs::AllReduce(i) => allreduce_op(i, t),
            Inputs::Simcore(i) => simcore_op(i, t),
            Inputs::Fault(i) => fault_op(i, t),
            Inputs::Paper(i) => paper_op(i, t),
        };
        t.end(open);
        outcome
    }
}

/// What `work_per_s` counts for `workload`.
pub fn work_unit(workload: &str) -> &'static str {
    match workload {
        "sched_churn" => "jobs",
        "serve_queries" => "queries",
        "allreduce_numeric" => "chip-elements reduced",
        "simcore_replay" => "events",
        "fault_recovery" => "trainer steps",
        _ => "sweeps",
    }
}
