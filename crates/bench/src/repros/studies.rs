//! The §3.2/§3.3 ablations, the §3.5 input-pipeline studies and the §4.6
//! AUC timing.

use std::time::Instant;

use multipod_collectives::Precision;
use multipod_core::ablate::{precision_ablation, summation_ablation, wus_ablation};
use multipod_core::step::{step_breakdown, StepOptions};
use multipod_faults::{run_campaign, CampaignConfig, FaultPlan};
use multipod_input::dlrm::{DlrmInputConfig, ParseGranularity, PcieLayout};
use multipod_input::host_pipeline::{simulate_run, HostPipelineConfig};
use multipod_input::shuffle::{
    cross_epoch_stochasticity, file_stream, run_to_run_spread, FileOrder,
};
use multipod_metrics::auc::{auc_exact, auc_fast, auc_naive};
use multipod_models::{catalog, Workload};
use multipod_topology::MultipodConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde_json::json;

use super::Outcome;
use crate::{header, paper, pct, Args, ReproError};

/// BERT at the ~4k global batch of the paper's weight-update anchor.
fn bert_4k_batch() -> Workload {
    let mut w = catalog::bert();
    w.max_per_core_batch = 4;
    w
}

/// Ablations of the paper's design choices (DESIGN.md index): 1-D vs 2-D
/// gradient summation, f32 vs bf16 payloads (their time, and the loss a
/// short training run reaches on each wire), weight-update sharding.
pub fn ablations(_: &Args) -> Result<Outcome, ReproError> {
    let summation = summation_ablation(25_600_000, Precision::F32, &[64, 256, 1024, 4096])?;
    let precision = precision_ablation(334_000_000, &[256, 1024, 4096])?;
    let wus = wus_ablation(&bert_4k_batch(), &[256, 512, 1024])?;
    let final_loss = |bf16_gradients| {
        let config = CampaignConfig {
            bf16_gradients,
            ..CampaignConfig::demo(MultipodConfig::mesh(4, 4, true))
        };
        run_campaign(&config, &FaultPlan::new(), None).map(|report| report.final_loss)
    };
    let (f32_loss, bf16_loss) = (final_loss(false)?, final_loss(true)?);

    let mut text = String::new();
    header(
        &mut text,
        "Ablation: 1-D snake ring vs the 2-D Y-then-X schedule (ResNet-50 gradients)",
        &["Chips", "1-D ring (ms)", "2-D schedule (ms)", "2-D speedup"],
    );
    for r in &summation {
        outln!(
            text,
            "{} | {:.2} | {:.2} | {:.1}x",
            r.chips,
            1e3 * r.one_dim,
            1e3 * r.two_dim,
            r.speedup()
        );
    }
    header(
        &mut text,
        "Ablation: gradient payload precision (BERT gradients, 2-D schedule)",
        &["Chips", "f32 (ms)", "bf16 (ms)", "saving"],
    );
    for r in &precision {
        outln!(
            text,
            "{} | {:.2} | {:.2} | {:.0}%",
            r.chips,
            1e3 * r.f32_time,
            1e3 * r.bf16_time,
            100.0 * (1.0 - r.bf16_time / r.f32_time)
        );
    }
    header(
        &mut text,
        "Ablation: gradient payload precision in training (fault-free demo campaign, 4x4)",
        &["f32 final loss", "bf16 final loss", "bf16 / f32"],
    );
    outln!(
        text,
        "{f32_loss:.6} | {bf16_loss:.6} | {:.4}",
        bf16_loss / f32_loss
    );
    header(
        &mut text,
        "Ablation: weight-update sharding (BERT at a ~4k global batch)",
        &[
            "Chips",
            "replicated step (ms)",
            "sharded step (ms)",
            "update share (repl.)",
        ],
    );
    for r in &wus {
        outln!(
            text,
            "{} | {:.2} | {:.2} | {:.1}%",
            r.chips,
            1e3 * r.replicated_step,
            1e3 * r.sharded_step,
            100.0 * r.replicated_update_share
        );
    }
    Ok(Outcome {
        text,
        section: Some(json!({
            "summation_1d_vs_2d": summation,
            "payload_precision": precision,
            "training_precision": json!({
                "f32_final_loss": f32_loss,
                "bf16_final_loss": bf16_loss,
            }),
            "weight_update_sharding": wus,
        })),
        ..Default::default()
    })
}

/// §3.2 ablation: weight-update sharding on/off for BERT at 512 chips.
pub fn wus(_: &Args) -> Result<Outcome, ReproError> {
    let w = bert_4k_batch();
    let mut text = String::new();
    header(
        &mut text,
        "Weight-update sharding ablation (BERT, 512 chips)",
        &["Config", "Step (ms)", "Update (ms)", "Update share"],
    );
    for (label, wus) in [("replicated", false), ("sharded (WUS)", true)] {
        let b = step_breakdown(
            &w,
            512,
            &StepOptions {
                weight_update_sharding: wus,
                ..Default::default()
            },
        )?;
        outln!(
            text,
            "{label} | {:.2} | {:.3} | {}",
            1e3 * b.total(),
            1e3 * b.weight_update,
            pct(b.weight_update / b.total())
        );
    }
    outln!(
        text,
        "(paper: the replicated LAMB update is ~{} of the step at 512 chips)",
        pct(paper::BERT_WUS_SHARE)
    );
    Ok(Outcome {
        text,
        ..Default::default()
    })
}

/// §3.5 input-pipeline studies: uncompressed cache, shuffle quality, DLRM
/// input path.
pub fn input(_: &Args) -> Result<Outcome, ReproError> {
    let mut text = String::new();
    header(
        &mut text,
        "ResNet-50 host input pipeline (64 hosts, 32 samples/host/ms)",
        &["Pipeline", "Mean stall (us)", "Stalled steps"],
    );
    for (label, cfg) in [
        ("compressed JPEG", HostPipelineConfig::compressed_imagenet()),
        (
            "uncompressed cache",
            HostPipelineConfig::uncompressed_imagenet(),
        ),
    ] {
        let s = simulate_run(&cfg, 64, 32, 1.0e-3, 300, 7)?;
        outln!(
            text,
            "{label} | {:.1} | {:.0}%",
            1e6 * s.mean_stall,
            100.0 * s.stalled_fraction
        );
    }

    header(
        &mut text,
        "BERT file-level shuffle (500 files, 4 epochs)",
        &["Order", "Cross-epoch stochasticity"],
    );
    for (label, order) in [
        ("shuffle -> repeat", FileOrder::ShuffleThenRepeat),
        ("repeat -> shuffle", FileOrder::RepeatThenShuffle),
    ] {
        let s = file_stream(500, 4, order, 1);
        outln!(text, "{label} | {:.2}", cross_epoch_stochasticity(&s, 500));
    }

    header(
        &mut text,
        "BERT sequence shuffle-buffer size vs run-to-run spread",
        &["Buffer", "Final-loss spread (stddev)"],
    );
    for buffer in [16usize, 256, 4096] {
        let spread = run_to_run_spread(8192, buffer, 64, 12)?;
        outln!(text, "{buffer} | {spread:.5}");
    }

    header(
        &mut text,
        "DLRM host input path (batch 2048/host)",
        &["Path", "Time (us)"],
    );
    let cfg = DlrmInputConfig::criteo();
    for (label, g, l) in [
        (
            "per-sample parse + per-feature PCIe",
            ParseGranularity::PerSample,
            PcieLayout::PerFeature,
        ),
        (
            "batch parse + stacked PCIe",
            ParseGranularity::PerBatch,
            PcieLayout::Stacked,
        ),
    ] {
        outln!(
            text,
            "{label} | {:.1}",
            1e6 * cfg.step_input_time(2048, g, l)
        );
    }
    Ok(Outcome {
        text,
        ..Default::default()
    })
}

/// §4.6: AUC at scale — interpreter-style baseline vs multithreaded sort
/// plus loop fusion. The one reproduction that reads the host clock: host
/// time is the claim, so its `Seconds` column differs run to run.
pub fn auc(args: &Args) -> Result<Outcome, ReproError> {
    // 90M samples is the paper's eval set; scale down via --quick.
    let n: usize = if args.has("--quick") {
        2_000_000
    } else {
        20_000_000
    };
    let mut rng = SmallRng::seed_from_u64(42);
    let mut scores = Vec::with_capacity(n);
    let mut labels = Vec::with_capacity(n);
    for _ in 0..n {
        let label = rng.gen_range(0.0..1.0f32) < 0.25;
        let base: f32 = if label { 0.6 } else { 0.4 };
        scores.push((base + rng.gen_range(-0.4..0.4f32)).clamp(0.0, 1.0));
        labels.push(label);
    }
    let mut text = String::new();
    header(
        &mut text,
        &format!("AUC over {n} synthetic pCTR samples"),
        &["Implementation", "Seconds", "AUC"],
    );
    let mut timed = |label: &str, auc: &dyn Fn() -> f64| {
        let t = Instant::now();
        let value = auc();
        outln!(
            text,
            "{label} | {:.2} | {value:.5}",
            t.elapsed().as_secs_f64()
        );
        value
    };
    let naive = timed("interpreter-style baseline", &|| {
        auc_naive(&scores, &labels)
    });
    timed("single-thread sort+fuse", &|| auc_exact(&scores, &labels));
    let fast = timed("multithreaded (8) sort+fuse", &|| {
        auc_fast(&scores, &labels, 8)
    });
    if (fast - naive).abs() >= 1e-9 {
        return Err(ReproError::failed(format!(
            "multithreaded AUC {fast} disagrees with the baseline {naive}"
        )));
    }
    outln!(
        text,
        "(paper: 60 s python-class vs 2 s multithreaded C++ on 90M samples)"
    );
    Ok(Outcome {
        text,
        ..Default::default()
    })
}
