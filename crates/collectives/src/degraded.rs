//! Typed degradation reporting for collectives on a faulty mesh.
//!
//! The routing layer silently detours around failed links (§2: sparse
//! routing on the cross-pod optical network), which keeps collectives
//! *correct* but hides the fact that they got *slower*.
//! [`ring_degradation`] compares every ring edge's actual route against
//! the route a healthy mesh would use and surfaces the difference as a
//! typed [`Degradation`] instead of absorbing it. The trainer runs it as
//! its step pre-flight and reports the result as the step's `degraded`
//! flag.

use multipod_topology::{ChipId, Multipod, Ring};

use crate::CollectiveError;

/// How far a ring's routing has strayed from the healthy-mesh plan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Degradation {
    /// Ring edges whose current route is longer than the healthy route.
    pub broken_edges: usize,
    /// Total extra hops across all edges, relative to a healthy mesh.
    pub extra_hops: usize,
}

/// Hops of the `from → to` route on a mesh with no failed link: the
/// torus-aware Manhattan distance, since a healthy route is shortest.
fn healthy_hops(mesh: &Multipod, from: ChipId, to: ChipId) -> usize {
    let (a, b) = (mesh.coord_of(from), mesh.coord_of(to));
    let dy = a.y.abs_diff(b.y);
    let dy = if mesh.torus_y() {
        dy.min(mesh.y_len() - dy)
    } else {
        dy
    };
    (a.x.abs_diff(b.x) + dy) as usize
}

/// Compares every logical ring edge's current route against the route it
/// would take were every link of `mesh` up.
///
/// Returns `Ok(None)` when every edge routes at its healthy hop count,
/// `Ok(Some(..))` when at least one edge detours.
///
/// # Errors
///
/// Returns [`CollectiveError::Network`] when an edge has no route at all
/// (the ring cannot run and the caller must re-plan membership).
pub fn ring_degradation(
    mesh: &Multipod,
    ring: &Ring,
) -> Result<Option<Degradation>, CollectiveError> {
    if ring.len() < 2 {
        return Ok(None);
    }
    let members = ring.members();
    let n = members.len();
    let mut degradation = Degradation::default();
    let mut tally = |edge: usize, actual: usize| {
        let nominal = healthy_hops(mesh, members[edge], members[(edge + 1) % n]);
        if actual > nominal {
            degradation.broken_edges += 1;
            degradation.extra_hops += actual - nominal;
        }
    };
    // Ring schedules move chunks along every logical edge, including the
    // wrap edge of open chains (which the network routes across the mesh),
    // so all n edges are inspected. An edge the walk never visits joins a
    // chip to itself: no hops, none expected.
    let (mut edge_now, mut actual) = (0, 0);
    mesh.for_each_ring_hop(ring, |edge, _, _, _| {
        if edge != edge_now {
            tally(edge_now, actual);
            (edge_now, actual) = (edge, 0);
        }
        actual += 1;
    })?;
    tally(edge_now, actual);
    Ok((degradation.broken_edges > 0).then_some(degradation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ring, Precision};
    use multipod_simnet::{Network, NetworkConfig, SimTime};
    use multipod_tensor::{Shape, Tensor};
    use multipod_topology::{Multipod, MultipodConfig};
    use proptest::prelude::*;

    /// `ring_degradation` as it was: a healed clone of the mesh routes
    /// every edge a second time to learn its healthy hop count.
    fn clone_and_heal_degradation(
        mesh: &Multipod,
        ring: &Ring,
    ) -> Result<Option<Degradation>, CollectiveError> {
        if ring.len() < 2 {
            return Ok(None);
        }
        let healthy = Multipod::new(mesh.config().clone());
        let mut degradation = Degradation::default();
        let members = ring.members();
        let n = members.len();
        for i in 0..n {
            let from = members[i];
            let to = members[(i + 1) % n];
            let actual = mesh.route(from, to)?.num_hops();
            let nominal = healthy
                .route(from, to)
                .map(|r| r.num_hops())
                .unwrap_or(actual);
            if actual > nominal {
                degradation.broken_edges += 1;
                degradation.extra_hops += actual - nominal;
            }
        }
        Ok((degradation.broken_edges > 0).then_some(degradation))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// On random failed-link sets and a dead chip, every Y ring, X
        /// line, strided X line (whose edges are multi-hop, and whose wrap
        /// edge crosses the whole line), snake and survivor ring degrades
        /// exactly as the clone-and-heal version — which routes each edge
        /// on its own, twice — says, or fails with the same error.
        #[test]
        fn degradation_matches_the_clone_and_heal_version(
            pods in 1u32..4,
            pod_x_len in 1u32..9,
            y_len in 1u32..9,
            torus_y in any::<bool>(),
            failed in prop::collection::vec(0usize..10_000, 0..6),
            dead_chip in prop::collection::vec(0usize..10_000, 0..2),
        ) {
            let mut mesh = Multipod::new(MultipodConfig {
                pods,
                pod_x_len,
                pod_y_len: y_len,
                torus_y,
            });
            let links = mesh.links();
            for sel in failed {
                if let Some(link) = links.get(sel % links.len().max(1)) {
                    mesh.fail_link(link.from, link.to);
                }
            }
            let dead: Vec<ChipId> = dead_chip
                .iter()
                .map(|sel| ChipId((sel % mesh.num_chips()) as u32))
                .collect();
            for &chip in &dead {
                mesh.fail_chip(chip);
            }
            let x_len = mesh.x_len();
            let mut rings: Vec<Ring> = (0..x_len).map(|x| mesh.y_ring(x)).collect();
            rings.extend((0..y_len).map(|y| mesh.x_line(y)));
            if x_len.is_multiple_of(2) {
                rings.extend((0..y_len).map(|y| mesh.x_line_strided(y, 1, 2)));
            }
            rings.push(mesh.snake_ring());
            let survivors = mesh.survivor_order(|c| !dead.contains(&c));
            if !survivors.is_empty() {
                rings.push(Ring::new(survivors, mesh.torus_y(), 1));
            }
            for ring in &rings {
                prop_assert_eq!(
                    ring_degradation(&mesh, ring),
                    clone_and_heal_degradation(&mesh, ring)
                );
            }
        }
    }

    fn column_net(y: u32) -> (Network, Ring) {
        let mesh = Multipod::new(MultipodConfig::mesh(1, y, true));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().y_ring(0);
        (net, ring)
    }

    fn inputs(n: usize, elems: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| Tensor::fill(Shape::vector(elems), i as f32))
            .collect()
    }

    #[test]
    fn healthy_ring_reports_no_degradation() {
        let (mut net, ring) = column_net(4);
        assert_eq!(ring_degradation(net.mesh(), &ring), Ok(None));
        let ins = inputs(4, 8);
        let out = ring::all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        let reference = Tensor::sum_all(&ins).unwrap();
        for o in &out.outputs {
            assert_eq!(o, &reference);
        }
    }

    #[test]
    fn detoured_wrap_edge_is_reported_and_result_unchanged() {
        // 2-wide mesh so the Y ring has a detour when its wrap link fails.
        let mesh = Multipod::new(MultipodConfig::mesh(2, 4, true));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().y_ring(0);
        let wrap_a = *ring.members().last().unwrap();
        let wrap_b = ring.members()[0];
        let ins = inputs(4, 8);
        let reference = Tensor::sum_all(&ins).unwrap();

        net.fail_link(wrap_a, wrap_b, SimTime::ZERO);
        let d = ring_degradation(net.mesh(), &ring)
            .unwrap()
            .expect("wrap edge must be degraded");
        assert!(d.broken_edges >= 1);
        assert!(d.extra_hops >= 1);
        let degraded =
            ring::all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        for o in &degraded.outputs {
            assert_eq!(o, &reference, "detour must not change the sum");
        }

        net.heal_link(wrap_a, wrap_b, SimTime::ZERO);
        assert_eq!(ring_degradation(net.mesh(), &ring), Ok(None));
        let healed =
            ring::all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        assert!(
            degraded.time > healed.time,
            "detour must cost time: degraded={} healed={}",
            degraded.time,
            healed.time
        );
    }

    #[test]
    fn unroutable_edge_is_a_typed_error() {
        // Non-torus 1-wide column: failing one Y link partitions the chain,
        // so there is no detour at all.
        let mesh = Multipod::new(MultipodConfig::mesh(1, 4, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().y_ring(0);
        let a = ring.members()[1];
        let b = ring.members()[2];
        net.fail_link(a, b, SimTime::ZERO);
        assert!(matches!(
            ring_degradation(net.mesh(), &ring),
            Err(CollectiveError::Network(_))
        ));
        let ins = inputs(4, 8);
        assert!(matches!(
            ring::all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::Network(_))
        ));
    }
}
