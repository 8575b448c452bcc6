//! α–β cost models for the collective schedules.
//!
//! At 4096-chip scale, materializing per-chip tensors is pointless — what
//! the executor needs is *time*. This module derives standard
//! latency–bandwidth ("α–β") costs for the exact schedules the numeric
//! layer executes, with all parameters taken from the simulated topology:
//!
//! * α (per-step latency) is computed by walking the ring and routing each
//!   member-to-member hop, so cross-pod optical links and peer-hopping
//!   strides are priced correctly;
//! * β (effective bandwidth) accounts for the link contention created when
//!   all `stride` offset rings of a model-parallel gradient reduction run
//!   concurrently over the same X links (§3.3);
//! * open chains (the X dimension has no wrap) pay a one-time wrap-path
//!   latency, since the logical ring's wrap edge must route back across
//!   the whole line on otherwise idle reverse-direction links.

use serde::{Deserialize, Serialize};

use multipod_simnet::Network;
use multipod_topology::Ring;

use crate::{CollectiveError, Precision};

/// Ring collective cost parameters extracted from a concrete ring on a
/// concrete topology.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RingCosts {
    /// Participants.
    pub n: usize,
    /// Per-step latency: per-message overhead plus the worst
    /// member-to-member path latency in the ring, seconds.
    pub alpha: f64,
    /// One-time latency penalty for the routed wrap edge of open chains,
    /// seconds (zero for true rings).
    pub wrap_penalty: f64,
    /// Effective per-direction bandwidth available to this ring,
    /// bytes/second (link bandwidth divided by overlapping-ring contention).
    pub beta: f64,
}

impl RingCosts {
    /// Derives costs for `ring` on the network's topology.
    ///
    /// `concurrent_offsets` is the number of same-stride rings sharing the
    /// physical links (e.g. `stride` for the model-peer gradient rings where
    /// every offset ring runs at once; 1 for plain data parallelism).
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::ZeroContentionFactor`] when
    /// `concurrent_offsets == 0`, and [`CollectiveError::Network`] when a
    /// ring hop cannot be routed (e.g. a degraded mesh has cut the ring) —
    /// callers on a fault path can surface this as a degradation instead
    /// of crashing.
    pub fn from_ring(
        net: &Network,
        ring: &Ring,
        concurrent_offsets: u32,
    ) -> Result<RingCosts, CollectiveError> {
        if concurrent_offsets == 0 {
            return Err(CollectiveError::ZeroContentionFactor);
        }
        let cfg = net.config();
        let n = ring.len();
        if n < 2 {
            return Ok(RingCosts {
                n,
                alpha: 0.0,
                wrap_penalty: 0.0,
                beta: cfg.link_bandwidth,
            });
        }
        // Each edge's latency is summed in hop order from 0.0; the worst
        // of edges 0..n−1 is the step, the closing edge the wrap.
        let last = n - 1;
        let (mut worst_step, mut step, mut step_edge, mut wrap_latency) = (0.0f64, 0.0, 0, 0.0);
        net.mesh().for_each_ring_hop(ring, |edge, _, _, class| {
            let hop = cfg.hop_latency * class.latency_multiplier();
            if edge == last {
                wrap_latency += hop;
                return;
            }
            if edge != step_edge {
                worst_step = worst_step.max(step);
                (step, step_edge) = (0.0, edge);
            }
            step += hop;
        })?;
        let worst_step = worst_step.max(step);
        let (alpha_path, wrap_penalty) = if ring.wraps() {
            (worst_step.max(wrap_latency), 0.0)
        } else {
            (worst_step, wrap_latency)
        };
        Ok(RingCosts {
            n,
            alpha: cfg.message_overhead + alpha_path,
            wrap_penalty,
            beta: cfg.link_bandwidth / concurrent_offsets as f64,
        })
    }

    /// Time for a reduce-scatter of `elems` elements at `precision`.
    ///
    /// `bidirectional` halves the per-direction payload (both directions of
    /// every link carry half the chunks).
    pub fn reduce_scatter_time(
        &self,
        elems: usize,
        precision: Precision,
        bidirectional: bool,
    ) -> f64 {
        self.phase_time(elems, precision, bidirectional)
    }

    /// Time for an all-gather of `elems` *total* elements (i.e. each member
    /// starts with `elems / n`).
    pub fn all_gather_time(&self, elems: usize, precision: Precision, bidirectional: bool) -> f64 {
        self.phase_time(elems, precision, bidirectional)
    }

    /// Time for a full all-reduce (reduce-scatter + all-gather).
    pub fn all_reduce_time(&self, elems: usize, precision: Precision, bidirectional: bool) -> f64 {
        2.0 * self.phase_time(elems, precision, bidirectional)
    }

    /// The latency-attributed (α) share of one phase: `(n−1)·α` plus the
    /// open-chain wrap penalty. Independent of payload size.
    pub fn phase_alpha_seconds(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        (self.n as f64 - 1.0) * self.alpha + self.wrap_penalty
    }

    /// The bandwidth-attributed (β) share of one phase: `(n−1)` chunk
    /// serializations at the ring's effective bandwidth.
    pub fn phase_beta_seconds(
        &self,
        elems: usize,
        precision: Precision,
        bidirectional: bool,
    ) -> f64 {
        if self.n < 2 || elems == 0 {
            return 0.0;
        }
        let chunk_elems = elems.div_ceil(self.n);
        let dir_divisor = if bidirectional { 2.0 } else { 1.0 };
        let chunk_bytes = precision.wire_bytes(chunk_elems) as f64 / dir_divisor;
        (self.n as f64 - 1.0) * chunk_bytes / self.beta
    }

    fn phase_time(&self, elems: usize, precision: Precision, bidirectional: bool) -> f64 {
        if self.n < 2 || elems == 0 {
            return 0.0;
        }
        self.phase_alpha_seconds() + self.phase_beta_seconds(elems, precision, bidirectional)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::{NetworkConfig, SimTime};
    use multipod_topology::{ChipId, Multipod, MultipodConfig};
    use proptest::prelude::*;

    fn net(cfg: MultipodConfig) -> Network {
        Network::new(Multipod::new(cfg), NetworkConfig::tpu_v3())
    }

    /// `RingCosts::from_ring` before the ring walk, kept as its oracle:
    /// one `for_each_hop` per member-to-member edge, then one for the
    /// closing edge.
    fn from_ring_per_edge(
        net: &Network,
        ring: &Ring,
        concurrent_offsets: u32,
    ) -> Result<RingCosts, CollectiveError> {
        if concurrent_offsets == 0 {
            return Err(CollectiveError::ZeroContentionFactor);
        }
        let cfg = net.config();
        let n = ring.len();
        if n < 2 {
            return Ok(RingCosts {
                n,
                alpha: 0.0,
                wrap_penalty: 0.0,
                beta: cfg.link_bandwidth,
            });
        }
        let mesh = net.mesh();
        let path_latency = |a, b| -> Result<f64, CollectiveError> {
            let mut latency = 0.0;
            mesh.for_each_hop(a, b, |_, _, class| {
                latency += cfg.hop_latency * class.latency_multiplier();
            })?;
            Ok(latency)
        };
        let members = ring.members();
        let mut worst_step = 0.0f64;
        for w in members.windows(2) {
            worst_step = worst_step.max(path_latency(w[0], w[1])?);
        }
        let wrap_latency = path_latency(members[n - 1], members[0])?;
        let (alpha_path, wrap_penalty) = if ring.wraps() {
            (worst_step.max(wrap_latency), 0.0)
        } else {
            (worst_step, wrap_latency)
        };
        Ok(RingCosts {
            n,
            alpha: cfg.message_overhead + alpha_path,
            wrap_penalty,
            beta: cfg.link_bandwidth / concurrent_offsets as f64,
        })
    }

    /// A `RingCosts` as the bits of its fields.
    fn bits(costs: Result<RingCosts, CollectiveError>) -> Result<[u64; 4], CollectiveError> {
        costs.map(|c| {
            [
                c.n as u64,
                c.alpha.to_bits(),
                c.wrap_penalty.to_bits(),
                c.beta.to_bits(),
            ]
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On one- and two-pod meshes with failed links and a dead chip,
        /// every ring the collectives price — Y rings, strided X lines,
        /// the snake, the survivor ring, and rings whose edges repeat a
        /// chip or leave the mesh — costs the same bits as pricing it one
        /// edge at a time, or fails with the same error.
        #[test]
        fn ring_costs_equal_the_per_edge_oracle_to_the_bit(
            pods in 1u32..4,
            pod_x_len in 1u32..9,
            pod_y_len in 1u32..9,
            torus_y in any::<bool>(),
            failed in prop::collection::vec(0usize..10_000, 0..4),
            dead_chip in prop::collection::vec(0usize..10_000, 0..2),
            concurrent_offsets in 0u32..5,
        ) {
            let mut n = net(MultipodConfig { pods, pod_x_len, pod_y_len, torus_y });
            let links = n.mesh().links();
            for sel in failed {
                if let Some(link) = links.get(sel % links.len().max(1)) {
                    n.fail_link(link.from, link.to, SimTime::ZERO);
                }
            }
            let dead: Vec<ChipId> = dead_chip
                .iter()
                .map(|sel| ChipId((sel % n.mesh().num_chips()) as u32))
                .collect();
            for &chip in &dead {
                n.fail_chip(chip, SimTime::ZERO);
            }
            let m = n.mesh();
            let mut rings: Vec<Ring> = (0..m.x_len()).map(|x| m.y_ring(x)).collect();
            for stride in (1..=4).filter(|&s| m.x_len().is_multiple_of(s)) {
                rings.extend((0..m.y_len()).map(|y| m.x_line_strided(y, 0, stride)));
            }
            rings.push(m.snake_ring());
            let survivors = m.survivor_order(|c| !dead.contains(&c));
            if !survivors.is_empty() {
                rings.push(Ring::new(survivors, m.torus_y(), 1));
            }
            let off_mesh = ChipId(m.num_chips() as u32);
            rings.push(Ring::new(vec![ChipId(0), ChipId(0), off_mesh], true, 1));
            for ring in &rings {
                prop_assert_eq!(
                    bits(RingCosts::from_ring(&n, ring, concurrent_offsets)),
                    bits(from_ring_per_edge(&n, ring, concurrent_offsets)),
                    "{:?}", ring
                );
            }
        }
    }

    #[test]
    fn closed_ring_has_no_wrap_penalty() {
        let n = net(MultipodConfig::mesh(1, 16, true));
        let ring = n.mesh().y_ring(0);
        let costs = RingCosts::from_ring(&n, &ring, 1).unwrap();
        assert_eq!(costs.wrap_penalty, 0.0);
        assert_eq!(costs.n, 16);
    }

    #[test]
    fn open_line_pays_wrap_once() {
        let n = net(MultipodConfig::mesh(16, 1, false));
        let ring = n.mesh().x_line(0);
        let costs = RingCosts::from_ring(&n, &ring, 1).unwrap();
        // Wrap path routes across 15 links.
        assert!((costs.wrap_penalty - 15.0 * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn bidirectional_halves_bandwidth_term() {
        let n = net(MultipodConfig::mesh(1, 16, true));
        let ring = n.mesh().y_ring(0);
        let costs = RingCosts::from_ring(&n, &ring, 1).unwrap();
        let elems = 1 << 24; // bandwidth-dominated
        let uni = costs.all_reduce_time(elems, Precision::F32, false);
        let bi = costs.all_reduce_time(elems, Precision::F32, true);
        let ratio = bi / uni;
        assert!((0.5..0.55).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn strided_rings_lose_bandwidth_to_contention() {
        let n = net(MultipodConfig::mesh(16, 1, false));
        let ring = n.mesh().x_line_strided(0, 0, 4);
        let costs = RingCosts::from_ring(&n, &ring, 4).unwrap();
        assert_eq!(costs.beta, NetworkConfig::tpu_v3().link_bandwidth / 4.0);
        // Per-step alpha covers the 4-hop peer distance.
        assert!(costs.alpha >= 1.5e-6 + 4.0e-6);
    }

    #[test]
    fn cross_pod_rings_pay_optical_latency() {
        let multi = net(MultipodConfig::multipod(2));
        let line = multi.mesh().x_line(0);
        let costs = RingCosts::from_ring(&multi, &line, 1).unwrap();
        // Worst step crosses the optical link: 4 µs + 1.5 µs overhead.
        assert!((costs.alpha - (1.5e-6 + 4.0e-6)).abs() < 1e-12);
    }

    #[test]
    fn bf16_halves_bandwidth_bytes() {
        let n = net(MultipodConfig::mesh(1, 32, true));
        let ring = n.mesh().y_ring(0);
        let costs = RingCosts::from_ring(&n, &ring, 1).unwrap();
        let elems = 25_600_000; // ResNet-50 parameter count
        let f = costs.all_reduce_time(elems, Precision::F32, true);
        let b = costs.all_reduce_time(elems, Precision::Bf16, true);
        // The bandwidth term halves; the per-step latency term does not,
        // so the ratio sits slightly above 0.5.
        assert!((0.48..0.62).contains(&(b / f)), "ratio={}", b / f);
    }

    #[test]
    fn trivial_rings_cost_nothing() {
        let n = net(MultipodConfig::mesh(2, 1, false));
        let ring = multipod_topology::Ring::new(vec![multipod_topology::ChipId(0)], false, 1);
        let costs = RingCosts::from_ring(&n, &ring, 1).unwrap();
        assert_eq!(costs.all_reduce_time(1000, Precision::F32, true), 0.0);
        let real = RingCosts::from_ring(&n, &n.mesh().x_line(0), 1).unwrap();
        assert_eq!(real.all_reduce_time(0, Precision::F32, false), 0.0);
    }

    #[test]
    fn zero_contention_factor_is_a_typed_error() {
        let n = net(MultipodConfig::mesh(1, 8, true));
        let ring = n.mesh().y_ring(0);
        assert!(matches!(
            RingCosts::from_ring(&n, &ring, 0),
            Err(CollectiveError::ZeroContentionFactor)
        ));
    }

    #[test]
    fn broken_ring_is_a_typed_error_not_a_panic() {
        // Non-torus 1-wide column: failing one Y link partitions the
        // chain, so a ring hop becomes unroutable. The cost model must
        // report that as a network error a degraded-mesh caller can turn
        // into a Degradation, never a crash.
        let mut n = net(MultipodConfig::mesh(1, 4, false));
        let ring = n.mesh().y_ring(0);
        let a = ring.members()[1];
        let b = ring.members()[2];
        n.fail_link(a, b, multipod_simnet::SimTime::ZERO);
        assert!(matches!(
            RingCosts::from_ring(&n, &ring, 1),
            Err(CollectiveError::Network(_))
        ));
    }

    #[test]
    fn ring_naming_an_off_mesh_chip_is_a_typed_error_not_a_panic() {
        use multipod_simnet::NetworkError;
        use multipod_topology::{ChipId, Ring, TopologyError};
        let n = net(MultipodConfig::mesh(4, 4, true));
        let ring = Ring::new(vec![ChipId(0), ChipId(1), ChipId(99)], false, 1);
        assert_eq!(
            RingCosts::from_ring(&n, &ring, 1),
            Err(CollectiveError::Network(NetworkError::Route(
                TopologyError::ChipOutOfRange {
                    chip: ChipId(99),
                    num_chips: 16,
                }
            )))
        );
    }

    #[test]
    fn paper_scale_y_then_x_payload_ratio() {
        // §3.3: "the payload transferred along the X-dimension is 32 times
        // less than the data transferred along the Y-dimension." The X
        // phase therefore is latency-bound: scaling the payload up 64x
        // grows the Y time almost linearly but barely moves the X time.
        let m = net(MultipodConfig::multipod(4));
        let y = RingCosts::from_ring(&m, &m.mesh().y_ring(0), 1).unwrap();
        let x = RingCosts::from_ring(&m, &m.mesh().x_line(0), 1).unwrap();
        let small = 1 << 20;
        let large = small * 64;
        let y_growth = y.reduce_scatter_time(large, Precision::F32, true)
            / y.reduce_scatter_time(small, Precision::F32, true);
        let x_growth = x.reduce_scatter_time(large / 32, Precision::F32, true)
            / x.reduce_scatter_time(small / 32, Precision::F32, true);
        assert!(y_growth > 10.0, "y_growth={y_growth}");
        assert!(x_growth < 5.0, "x_growth={x_growth}");
        // And the X phase never dominates by more than its step-count
        // excess (128 line steps vs 32 ring steps).
        let t_y = y.reduce_scatter_time(large, Precision::F32, true);
        let t_x = x.reduce_scatter_time(large / 32, Precision::F32, true);
        assert!(t_x < t_y, "t_x={t_x} t_y={t_y}");
    }
}
