//! The numeric campaigns: degraded-mesh training, checkpoint rollback,
//! multi-tenant scheduling and co-scheduled serving. Each runs on the
//! paper's 128×32 machine unless `--mesh` overrides, records its Chrome
//! trace while it runs, and fills a `BENCH_*.json` envelope.

use multipod_ckpt::{interval_curve, run_rollback_campaign, young_daly_interval, RollbackConfig};
use multipod_faults::{run_campaign, CampaignConfig, FaultPlan};
use multipod_sched::{PodScheduler, SchedConfig};
use multipod_serve::{ServeCampaign, ServeCampaignConfig};
use multipod_simnet::SimTime;
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use serde_json::json;

use super::{Outcome, Replay};
use crate::{observed, Args, BenchReport, ReproError};

/// Mean mesh utilization the scheduling and serving campaigns must keep.
const UTILIZATION_FLOOR: f64 = 0.70;
/// DLRM p99 latency ceiling, seconds.
const P99_SLO_SECONDS: f64 = 5.0e-3;

/// `WxH`, the mesh label of headers, envelopes and sections.
fn label(mesh: &Multipod) -> String {
    format!("{}x{}", mesh.x_len(), mesh.y_len())
}

/// An empty envelope named `name`, labelled with `mesh`'s extents.
fn envelope(name: &str, mesh: &Multipod) -> BenchReport {
    BenchReport::new(name, label(mesh), mesh.num_chips())
}

/// A chip one row off row 0, in column `x`: the dimension-ordered router
/// cannot dogleg around a dead chip that shares its row with the
/// survivor-gather root, so a row-0 victim would leave the mesh
/// unroutable rather than degraded.
fn victim(mesh: &Multipod, x: u32) -> ChipId {
    let y = if mesh.y_len() > 1 { 1 } else { 0 };
    ChipId(y * mesh.x_len() + x)
}

/// Fault campaign: a torus Y wrap-link outage plus one straggler host over
/// the middle of a short training run (`--steps`, default 8), fault-free
/// vs degraded step time.
pub fn faults(args: &Args) -> Result<Outcome, ReproError> {
    let mesh_cfg = args.mesh(MultipodConfig::multipod(4))?;
    let mut config = CampaignConfig::demo(mesh_cfg.clone());
    config.steps = args.parsed("--steps", config.steps)?;
    let mesh = Multipod::new(mesh_cfg);
    let mut text = String::new();
    outln!(
        text,
        "# Fault campaign on {} ({} chips), {} steps",
        label(&mesh),
        mesh.num_chips(),
        config.steps
    );

    let clean = run_campaign(&config, &FaultPlan::new(), None)?;
    // The wrap link of column 0 is down while host 1 straggles at 2×,
    // from the start of step 2 to the start of step 6 (clamped for short
    // runs).
    let t1 = clean
        .steps
        .get(1)
        .or(clean.steps.first())
        .map_or(0.0, |s| s.start_seconds);
    let t2 = clean
        .steps
        .get(5)
        .map_or(clean.total_seconds, |s| s.start_seconds);
    let plan = FaultPlan::wrap_outage_with_straggler(
        &mesh,
        0,
        SimTime::from_seconds(t1),
        SimTime::from_seconds(t2),
        1,
        2.0,
    );
    let (recorder, telemetry, obs) = observed();
    let faulty = run_campaign(&config, &plan, Some(obs))?;

    outln!(
        text,
        "config | total (ms) | mean clean step (ms) | mean degraded step (ms) | final loss"
    );
    outln!(
        text,
        "fault-free | {:.3} | {:.3} | - | {:.6}",
        1e3 * clean.total_seconds,
        1e3 * clean.mean_clean_step_seconds().unwrap_or(0.0),
        clean.final_loss
    );
    outln!(
        text,
        "campaign | {:.3} | {:.3} | {:.3} | {:.6}",
        1e3 * faulty.total_seconds,
        1e3 * faulty.mean_clean_step_seconds().unwrap_or(0.0),
        1e3 * faulty.mean_degraded_step_seconds().unwrap_or(0.0),
        faulty.final_loss
    );
    outln!(
        text,
        "(degraded steps: {}/{}; same final loss as fault-free: {})",
        faulty.degraded_steps,
        faulty.steps.len(),
        faulty.final_loss == clean.final_loss
    );

    let report = envelope("faults", &mesh)
        .gate("deterministic", None)
        .measurement("steps", config.steps)
        .measurement(
            "fault_free",
            json!({
                "total_seconds": clean.total_seconds,
                "mean_step_seconds": clean.mean_clean_step_seconds(),
                "final_loss": clean.final_loss,
            }),
        )
        .measurement(
            "campaign",
            json!({
                "total_seconds": faulty.total_seconds,
                "mean_clean_step_seconds": faulty.mean_clean_step_seconds(),
                "mean_degraded_step_seconds": faulty.mean_degraded_step_seconds(),
                "degraded_steps": faulty.degraded_steps,
                "final_loss": faulty.final_loss,
            }),
        )
        .measurement(
            "loss_matches_fault_free",
            faulty.final_loss == clean.final_loss,
        );
    Ok(Outcome {
        text,
        report: Some(report),
        replay: Replay::Recorded(recorder, telemetry, Vec::new()),
        ..Default::default()
    })
}

/// Sharded checkpointing: periodic checkpoints (`--interval`, default 3)
/// over `--steps` (default 8) with a mid-run chip loss recovered by
/// restoring the last checkpoint onto the survivor mesh, against the
/// fault-free run and the drop-and-renormalize policy, plus the
/// Young/Daly optimal interval. `repro all` runs it on 4×4.
pub fn ckpt(args: &Args) -> Result<Outcome, ReproError> {
    let mesh_cfg = if args.summary {
        MultipodConfig::mesh(4, 4, true)
    } else {
        args.mesh(MultipodConfig::multipod(4))?
    };
    let mut config = RollbackConfig::demo(mesh_cfg.clone());
    config.steps = args.parsed("--steps", config.steps)?;
    config.ckpt_interval = args.parsed("--interval", config.ckpt_interval)?;
    let mesh = Multipod::new(mesh_cfg.clone());
    let mut text = String::new();
    outln!(
        text,
        "# Rollback campaign on {} ({} chips), {} steps, checkpoint every {}",
        label(&mesh),
        mesh.num_chips(),
        config.steps,
        config.ckpt_interval
    );

    // Baseline: checkpoints ride along but no fault ever lands.
    let clean = run_rollback_campaign(&config, &FaultPlan::new(), None)?;
    // One chip dies mid-window — after the step following the first
    // checkpoint ran, so the rollback replays a non-empty window on the
    // survivor mesh. On a 4x4 mesh the victim is chip 5.
    let fault_step = (config.ckpt_interval + 1).min(config.steps) as usize;
    let fault_at = clean
        .steps
        .get(fault_step)
        .map_or(clean.total_seconds, |s| s.start_seconds)
        + 1e-9;
    let plan = FaultPlan::new().chip_down(
        SimTime::from_seconds(fault_at),
        victim(&mesh, 1.min(mesh.x_len() - 1)),
    );
    let (recorder, telemetry, obs) = observed();
    let faulty = run_rollback_campaign(&config, &plan, Some(obs))?;

    let mean_save_seconds = clean.save_seconds / clean.checkpoints_saved as f64;
    let mtbf_seconds = faulty.total_seconds / faulty.rollbacks.max(1) as f64;
    let optimal_interval = young_daly_interval(mean_save_seconds, mtbf_seconds);

    // The same fault absorbed by drop-and-renormalize (no checkpoints, no
    // replay). Rollback must cost strictly more simulated time than
    // dropping — that difference is the price of exact-state recovery.
    let drop_config = CampaignConfig {
        mesh: mesh_cfg,
        steps: config.steps,
        elems: config.elems,
        lr: config.lr,
        host_seconds_per_step: config.host_seconds_per_step,
        bf16_gradients: config.bf16_gradients,
        fault_policy: config.fault_policy,
        seed: config.seed,
    };
    let dropped = run_campaign(&drop_config, &plan, None)?;

    let tolerance = 1e-3 * (1.0 + clean.final_loss.abs());
    let loss_within_tolerance = (faulty.final_loss - clean.final_loss).abs() <= tolerance;
    let strictly_slower = faulty.total_seconds > clean.total_seconds;
    let recovery_overhead_seconds = faulty.total_seconds - dropped.total_seconds;

    outln!(
        text,
        "config | total (ms) | ckpts | save (ms) | restore (ms) | replayed | final loss"
    );
    outln!(
        text,
        "fault-free | {:.3} | {} | {:.3} | - | 0 | {:.6}",
        1e3 * clean.total_seconds,
        clean.checkpoints_saved,
        1e3 * clean.save_seconds,
        clean.final_loss
    );
    outln!(
        text,
        "rollback | {:.3} | {} | {:.3} | {:.3} | {} | {:.6}",
        1e3 * faulty.total_seconds,
        faulty.checkpoints_saved,
        1e3 * faulty.save_seconds,
        1e3 * faulty.restore_seconds,
        faulty.replayed_steps,
        faulty.final_loss
    );
    outln!(
        text,
        "drop-policy | {:.3} | 0 | - | - | 0 | {:.6}",
        1e3 * dropped.total_seconds,
        dropped.final_loss
    );
    outln!(
        text,
        "(rollbacks: {}; loss within bf16 tolerance of fault-free: {}; slower than fault-free: {}; recovery overhead vs drop: {:.3} ms)",
        faulty.rollbacks,
        loss_within_tolerance,
        strictly_slower,
        1e3 * recovery_overhead_seconds
    );
    outln!(
        text,
        "young-daly: C = {:.3} ms, MTBF = {:.3} ms -> T* = {:.3} ms",
        1e3 * mean_save_seconds,
        1e3 * mtbf_seconds,
        1e3 * optimal_interval
    );

    let report = envelope("ckpt", &mesh)
        .gate("deterministic", None)
        .gate("loss_within_tolerance", loss_within_tolerance)
        .gate(
            "recovery_costs_more_than_drop",
            recovery_overhead_seconds > 0.0,
        )
        .measurement("steps", config.steps)
        .measurement("ckpt_interval_steps", config.ckpt_interval)
        .measurement(
            "fault_free",
            json!({
                "total_seconds": clean.total_seconds,
                "checkpoints_saved": clean.checkpoints_saved,
                "save_seconds": clean.save_seconds,
                "final_loss": clean.final_loss,
            }),
        )
        .measurement(
            "rollback",
            json!({
                "total_seconds": faulty.total_seconds,
                "checkpoints_saved": faulty.checkpoints_saved,
                "save_seconds": faulty.save_seconds,
                "restore_seconds": faulty.restore_seconds,
                "rollbacks": faulty.rollbacks,
                "replayed_steps": faulty.replayed_steps,
                "final_loss": faulty.final_loss,
            }),
        )
        .measurement(
            "drop_policy",
            json!({
                "total_seconds": dropped.total_seconds,
                "final_loss": dropped.final_loss,
                "degraded_steps": dropped.degraded_steps,
            }),
        )
        .measurement("strictly_slower_than_fault_free", strictly_slower)
        .measurement("recovery_overhead_seconds", recovery_overhead_seconds)
        .measurement(
            "young_daly",
            json!({
                "ckpt_seconds": mean_save_seconds,
                "mtbf_seconds": mtbf_seconds,
                "optimal_interval_seconds": optimal_interval,
                "curve": interval_curve(mean_save_seconds, mtbf_seconds, 17),
            }),
        );
    Ok(Outcome {
        text,
        section: Some(json!({
            "fault_free_total_seconds": clean.total_seconds,
            "rollback_total_seconds": faulty.total_seconds,
            "checkpoints_saved": faulty.checkpoints_saved,
            "rollbacks": faulty.rollbacks,
            "replayed_steps": faulty.replayed_steps,
            "save_seconds": faulty.save_seconds,
            "restore_seconds": faulty.restore_seconds,
            "loss_within_tolerance": loss_within_tolerance,
            "young_daly_ckpt_seconds": mean_save_seconds,
            "young_daly_mtbf_seconds": mtbf_seconds,
            "young_daly_optimal_interval_seconds": optimal_interval,
        })),
        report: Some(report),
        replay: Replay::Recorded(recorder, telemetry, Vec::new()),
        witness: serde_json::to_string(&faulty)?,
    })
}

/// Multi-tenant scheduling: a heavy heterogeneous stream (`--jobs`,
/// default 2000, `--seed`, default 42) of BERT / ResNet-50 / DLRM training
/// under a tail of small high-priority eval jobs through the gang
/// scheduler, preemption as real sharded checkpoint saves and
/// bit-identical elastic restores, and two canned chip losses. `repro
/// all` runs a fault-free 200-job overload on 32×32.
pub fn sched(args: &Args) -> Result<Outcome, ReproError> {
    let (mesh_cfg, default_jobs) = if args.summary {
        (MultipodConfig::mesh(32, 32, true), 200)
    } else {
        (args.mesh(MultipodConfig::multipod(4))?, 2000)
    };
    let jobs: u32 = args.parsed("--jobs", default_jobs)?;
    let seed: u64 = args.parsed("--seed", 42)?;
    let config = SchedConfig::demo(mesh_cfg.clone(), jobs, seed);
    let mesh = Multipod::new(mesh_cfg);
    let mut text = String::new();
    outln!(
        text,
        "# Scheduling campaign on {} ({} chips), {} jobs, seed {}",
        label(&mesh),
        mesh.num_chips(),
        jobs,
        seed
    );

    // Two chips die mid-campaign, scaled to whatever mesh is under test;
    // each kills the slice's job back to its last checkpoint.
    let fault_window = config.arrivals.mean_interarrival_seconds * f64::from(jobs);
    let plan = if args.summary {
        FaultPlan::new()
    } else {
        FaultPlan::new()
            .chip_down(
                SimTime::from_seconds(0.25 * fault_window),
                victim(&mesh, 1.min(mesh.x_len() - 1)),
            )
            .chip_down(
                SimTime::from_seconds(0.75 * fault_window),
                victim(&mesh, mesh.x_len() / 2),
            )
    };
    let (recorder, telemetry, obs) = observed();
    let mut scheduler = PodScheduler::new(config);
    scheduler.set_obs(obs);
    let report = scheduler.run_with_faults(&plan)?;

    outln!(
        text,
        "jobs {} | completed {} | preemptions {} | fault kills {} | restores {} (bit-identical: {})",
        report.jobs,
        report.completed,
        report.preemptions,
        report.fault_kills,
        report.restores,
        report.restores_bit_identical
    );
    outln!(
        text,
        "makespan {:.3} s | mean utilization {:.1}% (floor {:.0}%)",
        report.makespan_seconds,
        1e2 * report.mean_utilization,
        1e2 * UTILIZATION_FLOOR
    );
    outln!(
        text,
        "queue wait: mean {:.3} ms, p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms, max {:.3} ms",
        1e3 * report.queue_wait.mean,
        1e3 * report.queue_wait.p50,
        1e3 * report.queue_wait.p90,
        1e3 * report.queue_wait.p99,
        1e3 * report.queue_wait.max
    );
    outln!(
        text,
        "preemption overhead: {} events, mean {:.3} ms, p99 {:.3} ms (save {:.3} s + restore {:.3} s total)",
        report.preemption_overhead.count,
        1e3 * report.preemption_overhead.mean,
        1e3 * report.preemption_overhead.p99,
        report.save_seconds,
        report.restore_seconds
    );
    outln!(
        text,
        "kind | jobs | completed | mean wait (ms) | mean turnaround (ms)"
    );
    for k in &report.per_kind {
        outln!(
            text,
            "{} | {} | {} | {:.3} | {:.3}",
            k.kind,
            k.jobs,
            k.completed,
            1e3 * k.mean_queue_wait_seconds,
            1e3 * k.mean_turnaround_seconds
        );
    }

    // Preemption overhead must be exactly the checkpoint traffic: the
    // per-event sum never exceeds total simulated save+restore time.
    let overhead_sum = report.preemption_overhead.mean * report.preemption_overhead.count as f64;
    let ckpt_total = report.save_seconds + report.restore_seconds;
    let overhead_accounted = overhead_sum <= ckpt_total + 1e-9 * (1.0 + ckpt_total);

    let bench = envelope("sched", &mesh)
        .gate(
            "utilization_floor",
            report.mean_utilization >= UTILIZATION_FLOOR,
        )
        .gate("restores_bit_identical", report.restores_bit_identical)
        .gate("all_jobs_completed", report.completed == report.jobs)
        .gate("preemption_overhead_accounted", overhead_accounted)
        .gate("deterministic", None)
        .measurement("jobs", report.jobs)
        .measurement("completed", report.completed)
        .measurement("preemptions", report.preemptions)
        .measurement("fault_kills", report.fault_kills)
        .measurement("restores", report.restores)
        .measurement("makespan_seconds", report.makespan_seconds)
        .measurement("mean_utilization", report.mean_utilization)
        .measurement("queue_wait_seconds", &report.queue_wait)
        .measurement("preemption_overhead_seconds", &report.preemption_overhead)
        .measurement("save_seconds", report.save_seconds)
        .measurement("restore_seconds", report.restore_seconds)
        .measurement("per_kind", &report.per_kind)
        .measurement("seed", seed);
    Ok(Outcome {
        text,
        section: Some(json!({
            "mesh": label(&mesh),
            "jobs": report.jobs,
            "completed": report.completed,
            "preemptions": report.preemptions,
            "restores_bit_identical": report.restores_bit_identical,
            "makespan_seconds": report.makespan_seconds,
            "mean_utilization": report.mean_utilization,
            "queue_wait_p50_seconds": report.queue_wait.p50,
            "queue_wait_p99_seconds": report.queue_wait.p99,
            "preemption_overhead_mean_seconds": report.preemption_overhead.mean,
        })),
        report: Some(bench),
        replay: Replay::Recorded(recorder, telemetry, Vec::new()),
        witness: serde_json::to_string(&report)?,
    })
}

/// Online serving co-scheduled with training: a 256-chip DLRM serving
/// replica and a 128-chip RL actor–learner group reserved as long-lived
/// high-priority slices, the training stream (`--jobs`, default 2000)
/// around them, then a deterministic open-loop DLRM query stream
/// (`--queries`, default 2000; batched, cache-assisted sharded lookups,
/// dense forward) and a Podracer-style actor–learner loop on the granted
/// slices. `repro all` runs 100 jobs and 500 queries on an unwrapped
/// 32×32 mesh.
pub fn serve(args: &Args) -> Result<Outcome, ReproError> {
    let (mesh_cfg, default_jobs, default_queries) = if args.summary {
        (MultipodConfig::mesh(32, 32, false), 100, 500)
    } else {
        (args.mesh(MultipodConfig::multipod(4))?, 2000, 2000)
    };
    let jobs: u32 = args.parsed("--jobs", default_jobs)?;
    let queries: u32 = args.parsed("--queries", default_queries)?;
    let seed: u64 = args.parsed("--seed", 42)?;
    let mut config = ServeCampaignConfig::demo(mesh_cfg.clone(), jobs, seed);
    config.dlrm.stream.queries = queries;
    let mesh = Multipod::new(mesh_cfg);
    let mut text = String::new();
    outln!(
        text,
        "# Serving co-scheduled with training on {} ({} chips): {} jobs, {} queries, seed {}",
        label(&mesh),
        mesh.num_chips(),
        jobs,
        queries,
        seed
    );

    let (recorder, telemetry, obs) = observed();
    let mut campaign = ServeCampaign::new(config);
    campaign.set_obs(obs);
    let report = campaign.run()?;
    let (dlrm, rl, sched) = (&report.dlrm, &report.rl, &report.sched);

    for s in &sched.services {
        outln!(
            text,
            "service {} | {} chips granted as {}x{} | migrations {}",
            s.name,
            s.chips,
            s.shape.0,
            s.shape.1,
            s.migrations
        );
    }
    outln!(
        text,
        "training: {} jobs, {} completed | utilization {:.1}% (floor {:.0}%) | makespan {:.3} s",
        sched.jobs,
        sched.completed,
        1e2 * sched.mean_utilization,
        1e2 * UTILIZATION_FLOOR,
        sched.makespan_seconds
    );
    outln!(
        text,
        "dlrm: {} requests in {} batches (mean {:.1} samples) | {:.0} QPS | cache hit rate {:.1}%",
        dlrm.requests,
        dlrm.batches,
        dlrm.mean_batch_samples,
        dlrm.achieved_qps,
        1e2 * dlrm.cache_hit_rate
    );
    outln!(
        text,
        "dlrm latency: p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms (SLO {:.1} ms), p99.9 {:.3} ms",
        1e3 * dlrm.latency.p50,
        1e3 * dlrm.latency.p95,
        1e3 * dlrm.latency.p99,
        1e3 * P99_SLO_SECONDS,
        1e3 * dlrm.latency.p999
    );
    outln!(
        text,
        "dlrm phases (mean ms): batch-wait {:.3} | queue {:.3} | lookup {:.3} | all-to-all {:.3} | dense {:.3}",
        1e3 * dlrm.phase_means.batch_wait,
        1e3 * dlrm.phase_means.queue,
        1e3 * dlrm.phase_means.lookup,
        1e3 * dlrm.phase_means.all_to_all,
        1e3 * dlrm.phase_means.dense
    );
    outln!(
        text,
        "rl: {} actors × rounds = {} | actor p50 {:.3} ms, p99.9 {:.3} ms | learner {:.2} steps/s over {} broadcasts",
        rl.actors,
        rl.rounds,
        1e3 * rl.actor_latency.p50,
        1e3 * rl.actor_latency.p999,
        rl.learner_throughput,
        rl.broadcasts
    );

    let bench = envelope("serve", &mesh)
        .gate("dlrm_p99_slo", dlrm.latency.p99 <= P99_SLO_SECONDS)
        .gate("cache_warm", dlrm.cache_hit_rate > 0.0)
        .gate(
            "utilization_floor",
            sched.mean_utilization >= UTILIZATION_FLOOR,
        )
        .gate("all_jobs_completed", sched.completed == sched.jobs)
        .gate("deterministic", None)
        .measurement("training_jobs", sched.jobs)
        .measurement("training_completed", sched.completed)
        .measurement("training_utilization", sched.mean_utilization)
        .measurement("training_makespan_seconds", sched.makespan_seconds)
        .measurement("services", &sched.services)
        .measurement("dlrm_requests", dlrm.requests)
        .measurement("dlrm_batches", dlrm.batches)
        .measurement("dlrm_mean_batch_samples", dlrm.mean_batch_samples)
        .measurement("dlrm_latency_seconds", &dlrm.latency)
        .measurement("dlrm_phase_means_seconds", &dlrm.phase_means)
        .measurement("dlrm_cache_hit_rate", dlrm.cache_hit_rate)
        .measurement("dlrm_cache_hits", dlrm.cache_hits)
        .measurement("dlrm_remote_rows", dlrm.remote_rows)
        .measurement("dlrm_achieved_qps", dlrm.achieved_qps)
        .measurement("rl_actors", rl.actors)
        .measurement("rl_rounds", rl.rounds)
        .measurement("rl_actor_latency_seconds", &rl.actor_latency)
        .measurement("rl_learner_throughput", rl.learner_throughput)
        .measurement("rl_broadcasts", rl.broadcasts)
        .measurement("seed", seed);
    Ok(Outcome {
        text,
        section: Some(json!({
            "mesh": label(&mesh),
            "training_completed": sched.completed,
            "training_utilization": sched.mean_utilization,
            "dlrm_requests": dlrm.requests,
            "dlrm_p50_seconds": dlrm.latency.p50,
            "dlrm_p99_seconds": dlrm.latency.p99,
            "dlrm_cache_hit_rate": dlrm.cache_hit_rate,
            "dlrm_achieved_qps": dlrm.achieved_qps,
            "rl_actor_p999_seconds": rl.actor_latency.p999,
            "rl_learner_throughput": rl.learner_throughput,
        })),
        report: Some(bench),
        replay: Replay::Recorded(recorder, telemetry, Vec::new()),
        witness: serde_json::to_string(&report)?,
    })
}
