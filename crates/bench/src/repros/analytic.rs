//! Tables 1–2 and Figures 5–11: the analytic end-to-end, scaling and
//! TPU-vs-GPU results. `--trace` / `--profile` replay the step timelines
//! of the rows (or swept chip counts) each one covers.

use multipod_core::modelpar::speedup_curve;
use multipod_core::scaling::{standard_chip_counts, ScalingCurve};
use multipod_core::{presets, Executor, Report};
use multipod_framework::{profiles, FrameworkKind, InitModel};
use multipod_models::{catalog, GpuCluster, GpuGeneration, Workload};
use serde_json::{json, Value};

use super::{Outcome, Replay};
use crate::{header, paper, pct, preset_by_name, run_named, Args, ReproError};

fn or_dash(v: Option<f64>, decimals: Option<usize>) -> String {
    match (v, decimals) {
        (None, _) => "-".into(),
        (Some(v), None) => format!("{v}"),
        (Some(v), Some(d)) => format!("{v:.d$}"),
    }
}

/// Table 1: end-to-end training minutes on the multipod.
pub fn table1(_: &Args) -> Result<Outcome, ReproError> {
    let mut text = String::new();
    header(
        &mut text,
        "Table 1: end-to-end time (minutes)",
        &[
            "Benchmark",
            "Chips",
            "TF (paper)",
            "TF (ours)",
            "JAX (paper)",
            "JAX (ours)",
            "v0.6 speedup (paper)",
            "v0.6 speedup (ours)",
        ],
    );
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &(name, chips, tf_paper, jax_paper, v06_paper) in paper::TABLE1 {
        let tf = run_named(name, chips)?;
        let tf_minutes = tf.end_to_end_minutes();
        let jax = match jax_paper {
            Some(_) => {
                let mut p = preset_by_name(name, chips)?;
                p.framework = FrameworkKind::Jax;
                Some(Executor::new(p).run()?.end_to_end_minutes())
            }
            None => None,
        };
        // The v0.6 baseline configuration (old batch caps, MPMD tiles,
        // compressed input, no WUS).
        let v06 = match v06_paper.and_then(|_| presets::v06(name)) {
            Some(p) => Some(Executor::new(p).run()?.end_to_end_minutes() / tf_minutes),
            None => None,
        };
        outln!(
            text,
            "{name} | {chips} | {tf_paper} | {tf_minutes:.2} | {} | {} | {} | {}",
            or_dash(jax_paper, None),
            or_dash(jax, Some(2)),
            or_dash(v06_paper, None),
            or_dash(v06, Some(2)),
        );
        rows.push(json!({
            "benchmark": name,
            "chips": chips,
            "tf_paper_minutes": tf_paper,
            "tf_ours_minutes": tf_minutes,
            "jax_paper_minutes": jax_paper,
            "jax_ours_minutes": jax,
            "v06_speedup_paper": v06_paper,
            "v06_speedup_ours": v06,
            "steps": tf.steps,
            "global_batch": tf.global_batch,
            "allreduce_share": tf.step.all_reduce_fraction(),
        }));
        reports.push(tf);
    }
    Ok(Outcome {
        text,
        section: Some(Value::Seq(rows)),
        replay: Replay::Steps(reports),
        ..Default::default()
    })
}

/// Table 2: initialization time, TensorFlow vs JAX. Initialization is a
/// closed-form model with no recorded spans, so the replay is every row's
/// training step timeline.
pub fn table2(_: &Args) -> Result<Outcome, ReproError> {
    let mut text = String::new();
    header(
        &mut text,
        "Table 2: initialization time (seconds)",
        &[
            "Benchmark",
            "Chips",
            "TF (paper)",
            "TF (ours)",
            "JAX (paper)",
            "JAX (ours)",
        ],
    );
    let model = InitModel::calibrated();
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for &(name, chips, tf_paper, jax_paper) in paper::TABLE2 {
        let profile = profiles::by_name(name)?;
        // The paper measured SSD's JAX entry at 2048 chips.
        let jax_chips = if name == "SSD" { 2048 } else { chips };
        let tf = model.init_seconds(FrameworkKind::TensorFlow, &profile, chips);
        let jax = model.init_seconds(FrameworkKind::Jax, &profile, jax_chips);
        outln!(
            text,
            "{name} | {chips} | {tf_paper} | {tf:.0} | {jax_paper} | {jax:.0}"
        );
        rows.push(json!({
            "benchmark": name,
            "tf_paper": tf_paper,
            "tf_ours": tf,
            "jax_paper": jax_paper,
            "jax_ours": jax,
        }));
        reports.push(run_named(name, chips)?);
    }
    Ok(Outcome {
        text,
        section: Some(Value::Seq(rows)),
        replay: Replay::Steps(reports),
        ..Default::default()
    })
}

/// A 16 → 4096 chip sweep, rendered by `render` and summarized as the
/// section Figures 5/6 (ResNet-50) and 7/8 (BERT) share.
fn sweep(
    w: &Workload,
    render: impl FnOnce(&mut String, &ScalingCurve),
) -> Result<Outcome, ReproError> {
    let curve = ScalingCurve::sweep(w, &standard_chip_counts(4096))?;
    let mut text = String::new();
    render(&mut text, &curve);
    let e2e = curve.end_to_end_speedups();
    let thr = curve.throughput_speedups();
    let rows = curve
        .points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            json!({
                "chips": p.chips,
                "e2e_speedup": e2e[i].1,
                "throughput_speedup": thr[i].1,
                "compute_ms": 1e3 * p.report.step.compute,
                "allreduce_ms": 1e3 * p.report.step.gradient_comm.total(),
                "allreduce_share": p.report.step.all_reduce_fraction(),
            })
        })
        .collect();
    Ok(Outcome {
        text,
        section: Some(Value::Seq(rows)),
        replay: Replay::Steps(curve.points.into_iter().map(|p| p.report).collect()),
        ..Default::default()
    })
}

/// Figure 5: ResNet-50 end-to-end and throughput speedup vs chips.
pub fn fig5(_: &Args) -> Result<Outcome, ReproError> {
    sweep(&catalog::resnet50(), |text, curve| {
        header(
            text,
            "Figure 5: ResNet-50 speedup vs chips (base = 16 chips)",
            &["Chips", "End-to-end speedup", "Throughput speedup", "Ideal"],
        );
        let e2e = curve.end_to_end_speedups();
        let thr = curve.throughput_speedups();
        let ideal = curve.ideal_speedups();
        for i in 0..e2e.len() {
            outln!(
                text,
                "{} | {:.1} | {:.1} | {:.0}",
                e2e[i].0,
                e2e[i].1,
                thr[i].1,
                ideal[i].1
            );
        }
        outln!(
            text,
            "(paper: throughput tracks ideal more closely than end-to-end,"
        );
        outln!(text, " because the 64k batch needs 88 epochs vs 44 at 4k)");
    })
}

/// Figure 7: BERT speedup vs chips.
pub fn fig7(_: &Args) -> Result<Outcome, ReproError> {
    sweep(&catalog::bert(), |text, curve| {
        header(
            text,
            "Figure 7: BERT speedup vs chips (base = 16 chips)",
            &["Chips", "End-to-end speedup", "Ideal"],
        );
        let e2e = curve.end_to_end_speedups();
        let ideal = curve.ideal_speedups();
        for i in 0..e2e.len() {
            outln!(text, "{} | {:.1} | {:.0}", e2e[i].0, e2e[i].1, ideal[i].1);
        }
        outln!(
            text,
            "(paper: BERT shows the highest scaling from 16 to 4096 chips)"
        );
    })
}

/// The per-step computation vs all-reduce table of Figures 6 and 8.
fn breakdown(text: &mut String, title: &str, curve: &ScalingCurve, paper_share: f64) {
    header(
        text,
        title,
        &[
            "Chips",
            "Batch/chip",
            "Compute",
            "All-reduce",
            "All-reduce share",
        ],
    );
    for p in &curve.points {
        let r = &p.report;
        outln!(
            text,
            "{} | {} | {:.2} | {:.2} | {}",
            p.chips,
            r.global_batch / p.chips,
            1e3 * (r.step.compute + r.step.weight_update),
            1e3 * r.step.gradient_comm.total(),
            pct(r.step.all_reduce_fraction()),
        );
    }
    if let Some(last) = curve.points.last() {
        outln!(
            text,
            "(paper @4096: all-reduce = {}; ours = {})",
            pct(paper_share),
            pct(last.report.step.all_reduce_fraction())
        );
    }
}

/// Figure 6: ResNet-50 per-step computation vs all-reduce time.
pub fn fig6(_: &Args) -> Result<Outcome, ReproError> {
    sweep(&catalog::resnet50(), |text, curve| {
        let title = "Figure 6: ResNet-50 step-time breakdown (ms)";
        breakdown(text, title, curve, paper::RESNET_ALLREDUCE_SHARE);
    })
}

/// Figure 8: BERT per-step computation vs all-reduce time.
pub fn fig8(_: &Args) -> Result<Outcome, ReproError> {
    sweep(&catalog::bert(), |text, curve| {
        let title = "Figure 8: BERT step-time breakdown (ms)";
        breakdown(text, title, curve, paper::BERT_ALLREDUCE_SHARE);
    })
}

/// Figure 9: speedup via model parallelism (SSD, MaskRCNN, Transformer);
/// the replay is the three benchmarks at their Table-1 scales.
pub fn fig9(_: &Args) -> Result<Outcome, ReproError> {
    let ssd = speedup_curve(&catalog::ssd(), 1.0, &[1, 2, 4, 8])?;
    let mask = speedup_curve(&catalog::maskrcnn(), 1.0, &[1, 2, 4, 8])?;
    let tra = speedup_curve(&catalog::transformer(), 1.0, &[1, 2, 4])?;
    let mut text = String::new();
    header(
        &mut text,
        "Figure 9: model-parallel speedup over 1 core",
        &["Cores", "SSD", "MaskRCNN", "Transformer"],
    );
    for (i, (s, m)) in ssd.iter().zip(&mask).enumerate() {
        outln!(
            text,
            "{} | {:.2} | {:.2} | {}",
            s.cores,
            s.speedup,
            m.speedup,
            or_dash(tra.get(i).map(|t| t.speedup), Some(2))
        );
    }
    outln!(
        text,
        "(paper: Transformer reaches {:.1}x on 4 cores; ours = {:.2}x)",
        paper::TRANSFORMER_4CORE_SPEEDUP,
        tra.last().expect("one point per core count").speedup
    );
    Ok(Outcome {
        text,
        section: Some(json!({"ssd": ssd, "maskrcnn": mask, "transformer": tra})),
        replay: Replay::Steps(vec![
            run_named("SSD", 4096)?,
            run_named("MaskRCNN", 512)?,
            run_named("Transformer", 4096)?,
        ]),
        ..Default::default()
    })
}

/// Figure 10: MLPerf v0.7 end-to-end minutes, TPU-v3 multipod vs
/// V100/A100 GPU clusters.
pub fn fig10(_: &Args) -> Result<Outcome, ReproError> {
    let mut text = String::new();
    header(
        &mut text,
        "Figure 10: end-to-end minutes, TPU vs GPU",
        &[
            "Benchmark",
            "TPU chips",
            "TPU (ours)",
            "V100x1536",
            "A100x2048",
        ],
    );
    let mut rows = Vec::new();
    let mut reports: Vec<Report> = Vec::new();
    // The last column caps the GPU count: GPU submissions cannot exceed
    // the models' batch-bound scale either.
    for (w, chips, gpu_cap) in [
        (catalog::resnet50(), 4096, u32::MAX),
        (catalog::bert(), 4096, u32::MAX),
        (catalog::ssd(), 4096, u32::MAX),
        (catalog::transformer(), 4096, 512),
        (catalog::maskrcnn(), 512, 256),
        (catalog::dlrm(), 256, 64),
    ] {
        let name = w.name;
        let tpu = run_named(name, chips)?;
        let tpu_minutes = tpu.end_to_end_minutes();
        let v100 =
            GpuCluster::new(GpuGeneration::V100, 1536.min(gpu_cap))?.end_to_end_minutes(&w)?;
        let a100 =
            GpuCluster::new(GpuGeneration::A100, 2048.min(gpu_cap))?.end_to_end_minutes(&w)?;
        outln!(
            text,
            "{name} | {chips} | {tpu_minutes:.2} | {v100:.2} | {a100:.2}"
        );
        rows.push(json!({
            "benchmark": name,
            "tpu_minutes": tpu_minutes,
            "v100_minutes": v100,
            "a100_minutes": a100,
        }));
        reports.push(tpu);
    }
    outln!(
        text,
        "(paper: TPU multipod submissions lead at the largest scales)"
    );
    Ok(Outcome {
        text,
        section: Some(Value::Seq(rows)),
        replay: Replay::Steps(reports),
        ..Default::default()
    })
}

/// Figure 11: end-to-end speedups over 16 accelerator chips of their own
/// type (TPU-v3 vs A100).
pub fn fig11(_: &Args) -> Result<Outcome, ReproError> {
    let mut text = String::new();
    header(
        &mut text,
        "Figure 11: speedup over 16 accelerators of the same type",
        &[
            "Benchmark",
            "TPU chips",
            "TPU speedup",
            "GPU count",
            "GPU speedup",
        ],
    );
    for (w, tpu_max, gpu_max) in [
        (catalog::resnet50(), 4096u32, 2048u32),
        (catalog::bert(), 4096, 2048),
        (catalog::ssd(), 4096, 1024),
        (catalog::transformer(), 4096, 512),
    ] {
        let curve = ScalingCurve::sweep(&w, &standard_chip_counts(tpu_max))?;
        let tpu_speedup = curve
            .end_to_end_speedups()
            .last()
            .expect("non-empty sweep")
            .1;
        let gpu_base = GpuCluster::new(GpuGeneration::A100, 16)?.end_to_end_minutes(&w)?;
        let gpu_top = GpuCluster::new(GpuGeneration::A100, gpu_max)?.end_to_end_minutes(&w)?;
        outln!(
            text,
            "{} | {tpu_max} | {tpu_speedup:.1} | {gpu_max} | {:.1}",
            w.name,
            gpu_base / gpu_top
        );
    }
    outln!(
        text,
        "(paper: TPUs achieve lower end-to-end times and higher speedups)"
    );
    Ok(Outcome {
        text,
        ..Default::default()
    })
}
