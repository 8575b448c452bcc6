//! Initialization-time models.

use serde::{Deserialize, Serialize};

use multipod_topology::CHIPS_PER_HOST;

/// Which framework's control plane drives the pod.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FrameworkKind {
    /// Single-client TensorFlow 1.x.
    TensorFlow,
    /// Multi-client JAX.
    Jax,
}

impl FrameworkKind {
    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            FrameworkKind::TensorFlow => "TensorFlow",
            FrameworkKind::Jax => "JAX",
        }
    }
}

/// Per-benchmark control-plane cost constants.
///
/// `graph_cost_per_worker` is the single-client client-side cost of
/// constructing/optimizing one worker's slice of the multi-device graph
/// (TensorFlow only); `compile_cost` is the XLA compilation time of one
/// program (paid once by the TF client, once per host — concurrently —
/// under JAX).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModelInitProfile {
    /// Benchmark name.
    pub name: &'static str,
    /// Client-side multi-device graph cost per worker, seconds.
    pub graph_cost_per_worker: f64,
    /// XLA compile time of the model program, seconds.
    pub compile_cost: f64,
}

/// Per-phase breakdown of initialization time, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InitBreakdown {
    /// Topological mesh initialization (common to both frameworks).
    pub mesh_init: f64,
    /// Client-side multi-device graph construction + optimization
    /// (TensorFlow only; Θ(workers)).
    pub graph_construction: f64,
    /// XLA compilation (TF: once on the client; JAX: per host, but all
    /// hosts compile concurrently so wall-clock is one compile).
    pub compilation: f64,
    /// Distributing compiled programs to the workers over RPC
    /// (TensorFlow only).
    pub distribution: f64,
}

impl InitBreakdown {
    /// Total initialization wall-clock.
    pub fn total(&self) -> f64 {
        self.mesh_init + self.graph_construction + self.compilation + self.distribution
    }
}

/// The initialization-time model of §2/§5.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct InitModel {
    /// Fixed mesh-bringup cost, seconds.
    pub mesh_base: f64,
    /// Additional mesh-bringup cost per chip, seconds (link training and
    /// topology discovery scale with machine size).
    pub mesh_per_chip: f64,
    /// RPC cost of shipping one worker's program (TensorFlow), seconds.
    pub rpc_per_worker: f64,
}

impl InitModel {
    /// Constants calibrated against Table 2.
    pub fn calibrated() -> InitModel {
        InitModel {
            mesh_base: 20.0,
            mesh_per_chip: 1.0 / 64.0,
            rpc_per_worker: 0.02,
        }
    }

    /// Hosts (= workers) feeding `chips` chips.
    pub fn workers(chips: u32) -> u32 {
        chips.div_ceil(CHIPS_PER_HOST as u32)
    }

    /// Initialization breakdown for a framework, benchmark and machine
    /// size.
    pub fn init_breakdown(
        &self,
        kind: FrameworkKind,
        profile: &ModelInitProfile,
        chips: u32,
    ) -> InitBreakdown {
        let workers = Self::workers(chips) as f64;
        let mesh_init = self.mesh_base + self.mesh_per_chip * chips as f64;
        match kind {
            FrameworkKind::TensorFlow => InitBreakdown {
                mesh_init,
                graph_construction: profile.graph_cost_per_worker * workers,
                compilation: profile.compile_cost,
                distribution: self.rpc_per_worker * workers,
            },
            FrameworkKind::Jax => InitBreakdown {
                mesh_init,
                graph_construction: 0.0,
                // Every host compiles its own program concurrently;
                // deterministic compilation keeps the binaries
                // compatible without exchange.
                compilation: profile.compile_cost,
                distribution: 0.0,
            },
        }
    }

    /// Total initialization seconds.
    pub fn init_seconds(&self, kind: FrameworkKind, profile: &ModelInitProfile, chips: u32) -> f64 {
        self.init_breakdown(kind, profile, chips).total()
    }
}

impl Default for InitModel {
    fn default() -> Self {
        InitModel::calibrated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn jax_init_is_flat_in_worker_count() {
        let m = InitModel::calibrated();
        let p = profiles::resnet50();
        let small = m.init_seconds(FrameworkKind::Jax, &p, 256);
        let large = m.init_seconds(FrameworkKind::Jax, &p, 4096);
        // Only the mesh-bringup term grows.
        let mesh_delta = (4096.0 - 256.0) * m.mesh_per_chip;
        assert!((large - small - mesh_delta).abs() < 1e-9);
    }

    #[test]
    fn tensorflow_init_grows_linearly_with_workers() {
        let m = InitModel::calibrated();
        let p = profiles::bert();
        let w1024 = m.init_seconds(FrameworkKind::TensorFlow, &p, 4096);
        let w512 = m.init_seconds(FrameworkKind::TensorFlow, &p, 2048);
        // Doubling the machine roughly doubles the graph-construction
        // share.
        assert!(w1024 > 1.5 * w512 - p.compile_cost - m.mesh_base * 2.0);
        assert!(w1024 > w512);
    }

    #[test]
    fn table2_magnitudes_reproduce() {
        // Paper Table 2 at 4096 chips: TF 498–1040 s, JAX 122–294 s.
        let m = InitModel::calibrated();
        for (p, tf_expect, jax_expect) in [
            (profiles::resnet50(), 498.0, 134.0),
            (profiles::bert(), 1040.0, 190.0),
            (profiles::transformer(), 868.0, 294.0),
        ] {
            let tf = m.init_seconds(FrameworkKind::TensorFlow, &p, 4096);
            let jax = m.init_seconds(FrameworkKind::Jax, &p, 4096);
            assert!(
                (tf / tf_expect - 1.0).abs() < 0.25,
                "{}: tf={tf} expected~{tf_expect}",
                p.name
            );
            assert!(
                (jax / jax_expect - 1.0).abs() < 0.25,
                "{}: jax={jax} expected~{jax_expect}",
                p.name
            );
            assert!(tf > 2.0 * jax, "{}: TF must dominate JAX", p.name);
        }
        // SSD's JAX number is reported at 2048 chips.
        let ssd_jax = m.init_seconds(FrameworkKind::Jax, &profiles::ssd(), 2048);
        assert!((ssd_jax / 122.0 - 1.0).abs() < 0.25, "ssd jax={ssd_jax}");
        let ssd_tf = m.init_seconds(FrameworkKind::TensorFlow, &profiles::ssd(), 4096);
        assert!((ssd_tf / 772.0 - 1.0).abs() < 0.25, "ssd tf={ssd_tf}");
    }

    #[test]
    fn breakdown_sums_to_total() {
        let m = InitModel::calibrated();
        let p = profiles::bert();
        let b = m.init_breakdown(FrameworkKind::TensorFlow, &p, 4096);
        assert!(
            (b.total() - (b.mesh_init + b.graph_construction + b.compilation + b.distribution))
                .abs()
                < 1e-12
        );
        assert!(b.graph_construction > 0.0);
        let j = m.init_breakdown(FrameworkKind::Jax, &p, 4096);
        assert_eq!(j.graph_construction, 0.0);
        assert_eq!(j.distribution, 0.0);
    }

    #[test]
    fn workers_follow_hosts() {
        assert_eq!(InitModel::workers(4096), 1024);
        assert_eq!(InitModel::workers(2), 1);
    }
}
