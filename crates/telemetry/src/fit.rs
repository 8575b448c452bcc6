//! α–β cost-model drift detection.
//!
//! The analytic collective models in `multipod-collectives::timing` predict
//! `time = α_total + bytes / effective_bandwidth` for each collective kind.
//! This module regresses *measured* collective times (from the numeric
//! simulator or a recorded trace) against message sizes and compares the
//! fitted α and β against the analytic prediction — a standing correctness
//! check that the closed-form models and the event-level simulator have not
//! drifted apart.

use serde::Serialize;

use multipod_trace::{SpanCategory, TraceEvent};

/// Least-squares fit of `time = alpha + bytes / bytes_per_second`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct AlphaBetaFit {
    /// Fitted fixed cost (latency term), seconds.
    pub alpha_seconds: f64,
    /// Fitted effective bandwidth, bytes per second.
    pub bytes_per_second: f64,
    /// RMS residual of the fit divided by the mean measured time.
    pub residual_fraction: f64,
    /// Number of (bytes, seconds) samples.
    pub samples: u64,
}

/// Fits `time = alpha + bytes / bps` by ordinary least squares over
/// `(bytes, seconds)` samples. Returns `None` with fewer than two distinct
/// message sizes or a non-positive fitted slope (no meaningful bandwidth).
pub fn fit_alpha_beta(samples: &[(f64, f64)]) -> Option<AlphaBetaFit> {
    if samples.len() < 2 {
        return None;
    }
    let n = samples.len() as f64;
    let mean_b = samples.iter().map(|&(b, _)| b).sum::<f64>() / n;
    let mean_t = samples.iter().map(|&(_, t)| t).sum::<f64>() / n;
    let var_b = samples
        .iter()
        .map(|&(b, _)| (b - mean_b) * (b - mean_b))
        .sum::<f64>();
    if var_b <= 0.0 {
        return None;
    }
    let cov = samples
        .iter()
        .map(|&(b, t)| (b - mean_b) * (t - mean_t))
        .sum::<f64>();
    let slope = cov / var_b;
    if slope <= 0.0 {
        return None;
    }
    let alpha = mean_t - slope * mean_b;
    let rss = samples
        .iter()
        .map(|&(b, t)| {
            let err = t - (alpha + slope * b);
            err * err
        })
        .sum::<f64>();
    let rms = (rss / n).sqrt();
    Some(AlphaBetaFit {
        alpha_seconds: alpha,
        bytes_per_second: 1.0 / slope,
        residual_fraction: if mean_t > 0.0 { rms / mean_t } else { 0.0 },
        samples: samples.len() as u64,
    })
}

/// Extracts `(wire bytes, seconds)` samples from recorded collective spans
/// whose name matches `name` exactly (e.g. `"2d-all-reduce"` or
/// `"reduce-scatter"`). Spans with zero recorded bytes are skipped.
pub fn collective_samples(events: &[TraceEvent], name: &str) -> Vec<(f64, f64)> {
    let mut samples: Vec<(f64, f64)> = events
        .iter()
        .filter_map(|event| match event {
            TraceEvent::Span(span)
                if matches!(
                    span.category,
                    SpanCategory::Collective | SpanCategory::CollectivePhase
                ) && span.name == name
                    && span.bytes > 0 =>
            {
                Some((span.bytes as f64, span.end - span.start))
            }
            _ => None,
        })
        .collect();
    samples.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    samples
}

/// Comparison of a measured fit against the analytic model.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct DriftReport {
    /// Which collective the fit covers (e.g. `"ring-all-reduce"`).
    pub kind: String,
    /// The measured fit.
    pub fit: AlphaBetaFit,
    /// Analytic fixed cost, seconds.
    pub model_alpha_seconds: f64,
    /// Analytic effective bandwidth, bytes per second.
    pub model_bytes_per_second: f64,
    /// `|fit α − model α| / model α`.
    pub alpha_drift_fraction: f64,
    /// `|fit bps − model bps| / model bps`.
    pub beta_drift_fraction: f64,
    /// The tolerance both drift fractions were checked against.
    pub tolerance: f64,
    /// Whether both drifts are within tolerance.
    pub within_tolerance: bool,
}

/// Compares `fit` against the analytic `(model_alpha, model_bps)` pair,
/// flagging drift beyond `tolerance` (a fraction, e.g. `0.1` for 10%).
pub fn check_drift(
    kind: impl Into<String>,
    fit: AlphaBetaFit,
    model_alpha_seconds: f64,
    model_bytes_per_second: f64,
    tolerance: f64,
) -> DriftReport {
    let alpha_drift = if model_alpha_seconds > 0.0 {
        (fit.alpha_seconds - model_alpha_seconds).abs() / model_alpha_seconds
    } else {
        fit.alpha_seconds.abs()
    };
    let beta_drift = if model_bytes_per_second > 0.0 {
        (fit.bytes_per_second - model_bytes_per_second).abs() / model_bytes_per_second
    } else {
        fit.bytes_per_second.abs()
    };
    DriftReport {
        kind: kind.into(),
        fit,
        model_alpha_seconds,
        model_bytes_per_second,
        alpha_drift_fraction: alpha_drift,
        beta_drift_fraction: beta_drift,
        tolerance,
        within_tolerance: alpha_drift <= tolerance && beta_drift <= tolerance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_model() {
        // time = 3e-6 + bytes / 70e9, sampled at power-of-two sizes.
        let samples: Vec<(f64, f64)> = (10..18)
            .map(|e| {
                let bytes = (1u64 << e) as f64;
                (bytes, 3e-6 + bytes / 70e9)
            })
            .collect();
        let fit = fit_alpha_beta(&samples).unwrap();
        assert!((fit.alpha_seconds - 3e-6).abs() < 1e-12);
        assert!((fit.bytes_per_second - 70e9).abs() / 70e9 < 1e-9);
        assert!(fit.residual_fraction < 1e-9);
    }

    #[test]
    fn rejects_degenerate_inputs() {
        assert!(fit_alpha_beta(&[]).is_none());
        assert!(fit_alpha_beta(&[(1024.0, 1e-3)]).is_none());
        // Same size twice: no slope information.
        assert!(fit_alpha_beta(&[(1024.0, 1e-3), (1024.0, 2e-3)]).is_none());
        // Negative slope: time shrinking with size is not a bandwidth.
        assert!(fit_alpha_beta(&[(1024.0, 2e-3), (2048.0, 1e-3)]).is_none());
    }

    #[test]
    fn drift_check_flags_mismatch() {
        let fit = AlphaBetaFit {
            alpha_seconds: 1e-5,
            bytes_per_second: 70e9,
            residual_fraction: 0.0,
            samples: 8,
        };
        let ok = check_drift("ring", fit.clone(), 1.05e-5, 70e9, 0.1);
        assert!(ok.within_tolerance);
        let bad = check_drift("ring", fit, 2e-5, 70e9, 0.1);
        assert!(!bad.within_tolerance);
        assert!(bad.alpha_drift_fraction > 0.4);
    }
}
