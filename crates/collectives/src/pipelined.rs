//! Payload-free timing of a ring all-reduce.
//!
//! [`all_reduce_time`] issues the messages of
//! [`crate::ring::all_reduce_unidirectional`] — the reduce-scatter's
//! `n − 1` steps, then the all-gather's — through the same executed-ring
//! timer, and folds no payload: it returns the time the numeric executor
//! reports, bit for bit. Each step starts when the previous step's slowest
//! message lands. On a ring whose messages share no link, forwarding each
//! chunk the moment it arrives would buy nothing: the steps are
//! data-dependency lockstep, which a proptest checks against that
//! event-driven recurrence. A logical ring laid on an *open line*
//! therefore pays its routed closing edge at every step — the quantitative
//! reason §3.3 routes the bulk payload over the torus Y rings rather than
//! the X lines.

use multipod_simnet::{Network, NetworkError, SimTime};
use multipod_topology::Ring;
use multipod_trace::SpanCategory;

use crate::ring::{time_schedule, Direction};
use crate::{emit_ring_span, CollectiveError, Precision, Schedule};

/// Times a ring all-reduce (reduce-scatter then all-gather) of `elems`
/// elements on `ring`, starting at `start`, without a payload. A ring of
/// fewer than two members finishes at `start`.
///
/// # Errors
///
/// Fails when `elems` does not divide across the ring, when it is zero
/// (an empty message between distinct chips), or when a hop is
/// unroutable.
pub fn all_reduce_time(
    net: &mut Network,
    ring: &Ring,
    elems: usize,
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let n = ring.len();
    let schedule = Schedule::new(n, direction)?;
    if n < 2 {
        return Ok(start);
    }
    if !elems.is_multiple_of(n) {
        return Err(CollectiveError::IndivisiblePayload { elems, parts: n });
    }
    let members = ring.members();
    if elems == 0 {
        // The executed timer skips empty messages; a lone one between
        // distinct chips is an `EmptyTransfer`, and so is this all-reduce.
        let mut edges = (0..n).map(|i| (members[i], members[schedule.downstream(i)]));
        if let Some((from, to)) = edges.find(|(from, to)| from != to) {
            return Err(NetworkError::EmptyTransfer { from, to }.into());
        }
    }
    let chunk_bytes = precision.wire_bytes(elems / n);
    let scattered = time_schedule(net, ring, schedule, chunk_bytes, start)?;
    let t = time_schedule(net, ring, schedule, chunk_bytes, scattered)?;
    let (whole, bytes) = (SpanCategory::Collective, precision.wire_bytes(elems));
    emit_ring_span(net, ring, whole, "pipelined-all-reduce", start, t, bytes);
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{self, oracle};
    use crate::timing::RingCosts;
    use multipod_simnet::NetworkConfig;
    use multipod_tensor::{Shape, Tensor, TensorRng};
    use multipod_topology::{ChipId, Multipod, MultipodConfig};
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn net(cfg: MultipodConfig) -> Network {
        Network::new(Multipod::new(cfg), NetworkConfig::tpu_v3())
    }

    fn line(x: u32) -> Network {
        net(MultipodConfig::mesh(x, 1, false))
    }

    fn torus_col(y: u32) -> Network {
        net(MultipodConfig::mesh(1, y, true))
    }

    /// The time `ring::all_reduce_unidirectional` reports for `elems`
    /// random elements per member on a fresh copy of `network`.
    fn numeric_time(network: &Network, ring: &Ring, elems: usize, precision: Precision) -> SimTime {
        let mut rng = TensorRng::seed(elems as u64);
        let ins: Vec<Tensor> = (0..ring.len())
            .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
            .collect();
        let fwd = Direction::Forward;
        ring::all_reduce_unidirectional(
            &mut network.clone(),
            ring,
            &ins,
            precision,
            fwd,
            SimTime::ZERO,
        )
        .unwrap()
        .time
    }

    #[test]
    fn equals_the_numeric_executors_time() {
        // Torus Y rings, and the benchmark probe's own call: the 128-member
        // X line of the paper's 128×32 machine, 16 384 elements.
        let mut cases: Vec<(Network, Ring, usize)> = [4u32, 8, 16]
            .into_iter()
            .map(|y| {
                let network = torus_col(y);
                let ring_y = network.mesh().y_ring(0);
                (network, ring_y, y as usize * 1024)
            })
            .collect();
        let paper = net(MultipodConfig::multipod(4));
        let x_line = paper.mesh().x_line_strided(0, 0, 1);
        cases.push((paper, x_line, 16_384));
        for (network, ring, elems) in &cases {
            for precision in [Precision::F32, Precision::Bf16] {
                let fwd = Direction::Forward;
                let payload_free = all_reduce_time(
                    &mut network.clone(),
                    ring,
                    *elems,
                    precision,
                    fwd,
                    SimTime::ZERO,
                )
                .unwrap();
                let numeric = numeric_time(network, ring, *elems, precision);
                assert_eq!(
                    payload_free.seconds().to_bits(),
                    numeric.seconds().to_bits(),
                    "n={} elems={elems} {precision:?}: {payload_free} vs {numeric}",
                    ring.len()
                );
            }
        }
    }

    /// Whether two messages of one step of `ring` (every member to its
    /// downstream neighbour) route over a common directed link; `None`
    /// when one is unroutable.
    fn shares_a_link(mesh: &Multipod, ring: &Ring, dir: Direction) -> Option<bool> {
        let schedule = Schedule::new(ring.len(), dir).ok()?;
        let members = ring.members();
        let mut seen = HashSet::new();
        let mut shared = false;
        for (i, &from) in members.iter().enumerate() {
            let to = members[schedule.downstream(i)];
            let walked = mesh.for_each_hop(from, to, |a, b, _| shared |= !seen.insert((a, b)));
            walked.ok()?;
        }
        Some(shared)
    }

    /// Where a ring is not lockstep. On a 2×3 torus with column 0's wrap
    /// link failed, the survivor ring's closing edge, chip 5 → chip 0,
    /// detours over column 1's wrap link 5 → 1, which the message 4 → 1
    /// also takes. The stepped run issues both at each step's barrier, so
    /// 5 → 0 waits out 4 → 1's serialization there. The recurrence issues
    /// each message when its own two members are ready: 4 → 1 can leave
    /// before the barrier, and 5 → 0 then waits less.
    #[test]
    fn a_detour_sharing_a_link_is_slower_stepped() {
        let mut n = net(MultipodConfig::mesh(2, 3, true));
        n.fail_link(ChipId(0), ChipId(4), SimTime::ZERO);
        let ring = Ring::new(n.mesh().survivor_order(|_| true), true, 1);
        let fwd = Direction::Forward;
        assert_eq!(shares_a_link(n.mesh(), &ring, fwd), Some(true));
        let elems = 64 * ring.len();
        let stepped = all_reduce_time(
            &mut n.clone(),
            &ring,
            elems,
            Precision::F32,
            fwd,
            SimTime::ZERO,
        )
        .unwrap();
        let recurrence = oracle::pipelined_all_reduce_time(
            &mut n,
            &ring,
            elems,
            Precision::F32,
            fwd,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(recurrence < stepped, "{recurrence} vs {stepped}");
    }

    /// A time as its bits, or the error.
    fn bits(t: Result<SimTime, CollectiveError>) -> Result<u64, CollectiveError> {
        t.map(|t| t.seconds().to_bits())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// A ring's steps are data-dependency lockstep: the event-driven
        /// recurrence (each member forwarding the moment it and its
        /// receiver are ready, the all-gather chained per member) finishes
        /// at the same bits as the barrier-stepped executed schedule, or
        /// fails with the same error — on Y rings, open and strided X
        /// lines, the snake and survivor rings, with failed links detouring
        /// them. Only where two messages of a step share a link can the
        /// barrier cost time, and then it never gains any (see
        /// `a_detour_sharing_a_link_is_slower_stepped`).
        #[test]
        fn ring_steps_are_data_dependency_lockstep(
            pods in 1u32..4,
            pod_x_len in 1u32..9,
            pod_y_len in 1u32..9,
            torus_y in any::<bool>(),
            failed in prop::collection::vec(0usize..10_000, 0..4),
            dead_chip in prop::collection::vec(0usize..10_000, 0..2),
            elems_per_member in 1usize..4096,
            forward in any::<bool>(),
            bf16 in any::<bool>(),
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
            let dir = if forward { Direction::Forward } else { Direction::Backward };
            let precision = if bf16 { Precision::Bf16 } else { Precision::F32 };
            let t0 = SimTime::from_seconds(1e-3);
            for ring in &rings {
                let elems = elems_per_member * ring.len();
                let stepped = all_reduce_time(&mut n.clone(), ring, elems, precision, dir, t0);
                let recurrence =
                    oracle::pipelined_all_reduce_time(&mut n.clone(), ring, elems, precision, dir, t0);
                match (shares_a_link(m, ring, dir), &stepped, &recurrence) {
                    (Some(true), Ok(s), Ok(r)) => prop_assert!(r <= s, "{:?}: {} > {}", ring, r, s),
                    _ => prop_assert_eq!(bits(stepped), bits(recurrence), "{:?}", ring),
                }
            }
        }
    }

    #[test]
    fn open_line_pays_the_wrap_every_step() {
        // The member downstream of the logical wrap edge receives across
        // the whole line at *every* step, so a logical ring on an open
        // line is much slower than the same-size torus ring — the
        // quantitative reason the paper routes the bulk of the payload
        // over the torus Y dimension (§3.3).
        let n = 16u32;
        let elems = (n as usize) * 64; // latency-dominated chunks
        let mut line_net = line(n);
        let chain = line_net.mesh().x_line(0);
        let on_line = all_reduce_time(
            &mut line_net,
            &chain,
            elems,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let mut torus_net = torus_col(n);
        let ring_y = torus_net.mesh().y_ring(0);
        let on_torus = all_reduce_time(
            &mut torus_net,
            &ring_y,
            elems,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(
            on_line.seconds() > 1.5 * on_torus.seconds(),
            "line={on_line} torus={on_torus}"
        );
    }

    #[test]
    fn bandwidth_bound_regime_matches_alpha_beta() {
        // A torus ring has no closing edge to pay, so its executed time is
        // the α–β closed form up to rounding.
        let y = 8u32;
        let elems = (y as usize) * (1 << 16);
        let mut pipe_net = torus_col(y);
        let ring_y = pipe_net.mesh().y_ring(0);
        let executed = all_reduce_time(
            &mut pipe_net,
            &ring_y,
            elems,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap()
        .seconds();
        let fresh = torus_col(y);
        let costs = RingCosts::from_ring(&fresh, &fresh.mesh().y_ring(0), 1).unwrap();
        let analytic = costs.all_reduce_time(elems, Precision::F32, false);
        let rel = (executed - analytic).abs() / analytic;
        assert!(rel < 1e-12, "executed={executed} analytic={analytic}");
    }

    #[test]
    fn single_member_is_free_and_odd_payloads_rejected() {
        let mut net = line(2);
        let t0 = SimTime::from_seconds(2e-6);
        let fwd = Direction::Forward;
        let solo = Ring::new(vec![ChipId(0)], false, 1);
        assert_eq!(
            all_reduce_time(&mut net, &solo, 1000, Precision::F32, fwd, t0),
            Ok(t0)
        );
        let pair = net.mesh().x_line(0);
        assert_eq!(
            all_reduce_time(&mut net, &pair, 7, Precision::F32, fwd, t0),
            Err(CollectiveError::IndivisiblePayload { elems: 7, parts: 2 })
        );
        // Nothing to send is an empty transfer, as it was message by
        // message; a ring whose every edge is a self-loop sends nothing.
        let empty = Err(CollectiveError::Network(NetworkError::EmptyTransfer {
            from: ChipId(0),
            to: ChipId(1),
        }));
        assert_eq!(
            all_reduce_time(&mut net, &pair, 0, Precision::F32, fwd, t0),
            empty
        );
        let loops = Ring::new(vec![ChipId(1), ChipId(1)], true, 1);
        for ring in [&solo, &pair, &loops] {
            for elems in [0, 7, 1000] {
                assert_eq!(
                    bits(all_reduce_time(
                        &mut net.clone(),
                        ring,
                        elems,
                        Precision::F32,
                        fwd,
                        t0
                    )),
                    bits(oracle::pipelined_all_reduce_time(
                        &mut net.clone(),
                        ring,
                        elems,
                        Precision::F32,
                        fwd,
                        t0
                    )),
                    "{ring:?} elems={elems}"
                );
            }
        }
    }
}
