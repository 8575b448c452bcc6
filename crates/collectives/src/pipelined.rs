//! Pipelined (non-barrier) ring execution.
//!
//! The numeric executor in [`crate::ring`] synchronizes every schedule
//! step with a barrier — simple and verifiable, but pessimistic: real ICI
//! collectives are *pipelined*, a member forwards a chunk the moment it
//! arrives. This module times the same [`Schedule`]s event-style through
//! the dependency recurrence
//!
//! ```text
//! done[i][s] = max(done[send(i)][s−1], done[i][s−1], link_free) + α + chunk/β
//! ```
//!
//! where `done[i][s]` is when member `i` finishes *receiving* its step-`s`
//! chunk. The event-driven run exposes two facts the tests pin down:
//! uniform rings are data-dependency lockstep (pipelining equals the
//! barrier schedule), and a logical ring laid on an *open line* pays its
//! long wrap edge at every step — the quantitative reason §3.3 routes the
//! bulk payload over the torus Y rings rather than the X lines.

use multipod_simnet::{Network, SimTime};
use multipod_topology::Ring;
use multipod_trace::SpanCategory;

use crate::ring::Direction;
use crate::{emit_ring_span, CollectiveError, Precision, Schedule};

/// Times a pipelined reduce-scatter of `elems` elements on `ring`.
///
/// # Errors
///
/// Fails when a hop is unroutable.
pub fn reduce_scatter_time(
    net: &mut Network,
    ring: &Ring,
    elems: usize,
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let schedule = Schedule::reduce_scatter(ring.len(), direction)?;
    let t = run_pipelined(net, ring, schedule, elems, precision, start)?;
    emit_ring_span(
        net,
        ring,
        SpanCategory::CollectivePhase,
        "pipelined-reduce-scatter",
        start,
        t,
        precision.wire_bytes(elems),
    );
    Ok(t)
}

/// Times a pipelined all-gather of `elems` total elements on `ring`.
///
/// # Errors
///
/// Fails when a hop is unroutable.
pub fn all_gather_time(
    net: &mut Network,
    ring: &Ring,
    elems: usize,
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let schedule = Schedule::all_gather(ring.len(), direction)?;
    let t = run_pipelined(net, ring, schedule, elems, precision, start)?;
    emit_ring_span(
        net,
        ring,
        SpanCategory::CollectivePhase,
        "pipelined-all-gather",
        start,
        t,
        precision.wire_bytes(elems),
    );
    Ok(t)
}

/// Times a pipelined all-reduce (reduce-scatter then all-gather).
///
/// # Errors
///
/// Fails when a hop is unroutable.
pub fn all_reduce_time(
    net: &mut Network,
    ring: &Ring,
    elems: usize,
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    // Chain per member, not through a global barrier: each member starts
    // gathering as soon as its own shard is reduced.
    let n = ring.len();
    let rs = Schedule::reduce_scatter(n, direction)?;
    let per_member = run_pipelined_from(net, ring, rs, elems, precision, &vec![start; n])?;
    let ag = Schedule::all_gather(n, direction)?;
    let done = run_pipelined_from(net, ring, ag, elems, precision, &per_member)?;
    let t = done.into_iter().fold(start, SimTime::max);
    emit_ring_span(
        net,
        ring,
        SpanCategory::Collective,
        "pipelined-all-reduce",
        start,
        t,
        precision.wire_bytes(elems),
    );
    Ok(t)
}

fn run_pipelined(
    net: &mut Network,
    ring: &Ring,
    schedule: Schedule,
    elems: usize,
    precision: Precision,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let starts = vec![start; ring.len()];
    let done = run_pipelined_from(net, ring, schedule, elems, precision, &starts)?;
    Ok(done.into_iter().fold(start, SimTime::max))
}

/// Event-driven schedule execution with per-member start times; returns
/// per-member completion times so chained collectives can pipeline across
/// phase boundaries.
fn run_pipelined_from(
    net: &mut Network,
    ring: &Ring,
    schedule: Schedule,
    elems: usize,
    precision: Precision,
    starts: &[SimTime],
) -> Result<Vec<SimTime>, CollectiveError> {
    let n = ring.len();
    if n < 2 {
        return Ok(starts.to_vec());
    }
    if !elems.is_multiple_of(n) {
        return Err(CollectiveError::IndivisiblePayload { elems, parts: n });
    }
    let chunk_bytes = precision.wire_bytes(elems / n);
    let members = ring.members();
    // done[i] = when member i finished receiving its chunk for the
    // current step (before step 0: the member's own start time); prev is
    // the same for the step before. Every member receives exactly once per
    // step, so a step overwrites all of `done` and the two buffers can
    // simply trade places.
    let mut done = starts.to_vec();
    let mut prev = done.clone();
    for s in 0..schedule.num_steps() {
        std::mem::swap(&mut prev, &mut done);
        for mv in schedule.step(s) {
            // A member may send its step-s chunk once it has finished its
            // own step-(s−1) receive; the receiver must also be done with
            // its previous step (single in-flight receive per member).
            let ready = prev[mv.from].max(prev[mv.to]);
            let t = net.transfer(members[mv.from], members[mv.to], chunk_bytes, ready)?;
            done[mv.to] = t.finish;
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring;
    use multipod_simnet::NetworkConfig;
    use multipod_tensor::{Shape, Tensor, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};

    fn line(x: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(x, 1, false)),
            NetworkConfig::tpu_v3(),
        )
    }

    fn torus_col(y: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(1, y, true)),
            NetworkConfig::tpu_v3(),
        )
    }

    #[test]
    fn pipelined_never_slower_than_barrier_stepped() {
        for y in [4u32, 8, 16] {
            let elems = (y as usize) * 1024;
            let mut barrier_net = torus_col(y);
            let ring_y = barrier_net.mesh().y_ring(0);
            let mut rng = TensorRng::seed(y as u64);
            let ins: Vec<Tensor> = (0..y as usize)
                .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
                .collect();
            let barrier = ring::all_reduce_unidirectional(
                &mut barrier_net,
                &ring_y,
                &ins,
                Precision::F32,
                ring::Direction::Forward,
                SimTime::ZERO,
            )
            .unwrap()
            .time;
            let mut pipe_net = torus_col(y);
            let ring_y = pipe_net.mesh().y_ring(0);
            let pipelined = all_reduce_time(
                &mut pipe_net,
                &ring_y,
                elems,
                Precision::F32,
                Direction::Forward,
                SimTime::ZERO,
            )
            .unwrap();
            assert!(
                pipelined <= barrier,
                "y={y}: pipelined={pipelined} barrier={barrier}"
            );
        }
    }

    #[test]
    fn ring_steps_are_data_dependency_lockstep() {
        // A perhaps-surprising property the event-driven run makes
        // visible: for a uniform ring, pipelining buys nothing — each
        // member's next receive depends on its neighbour's previous one,
        // so the dependency chain *is* the barrier schedule. (Pipelining
        // matters across chained collectives and staggered producers, not
        // within one uniform ring.)
        let y = 8u32;
        let elems = (y as usize) * 1024;
        let mut barrier_net = torus_col(y);
        let ring_y = barrier_net.mesh().y_ring(0);
        let mut rng = TensorRng::seed(3);
        let ins: Vec<Tensor> = (0..y as usize)
            .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
            .collect();
        let barrier = ring::all_reduce_unidirectional(
            &mut barrier_net,
            &ring_y,
            &ins,
            Precision::F32,
            ring::Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap()
        .time;
        let mut pipe_net = torus_col(y);
        let ring_y = pipe_net.mesh().y_ring(0);
        let pipelined = all_reduce_time(
            &mut pipe_net,
            &ring_y,
            elems,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let ratio = pipelined.seconds() / barrier.seconds();
        assert!((0.9..=1.0).contains(&ratio), "ratio={ratio}");
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
        // With big chunks both the pipelined run and the α–β closed form
        // are bandwidth-dominated and must agree closely.
        use crate::timing::RingCosts;
        let y = 8u32;
        let elems = (y as usize) * (1 << 16);
        let mut pipe_net = torus_col(y);
        let ring_y = pipe_net.mesh().y_ring(0);
        let pipelined = all_reduce_time(
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
        let ratio = pipelined / analytic;
        assert!((0.8..1.3).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn single_member_is_free_and_odd_payloads_rejected() {
        let mut net = line(2);
        let solo = multipod_topology::Ring::new(vec![multipod_topology::ChipId(0)], false, 1);
        let t = all_reduce_time(
            &mut net,
            &solo,
            1000,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(t, SimTime::ZERO);
        let pair = net.mesh().x_line(0);
        assert!(reduce_scatter_time(
            &mut net,
            &pair,
            7,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO
        )
        .is_err());
    }
}
