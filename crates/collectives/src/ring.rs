//! Numeric ring collectives.
//!
//! These functions execute ring collectives **for real**: tensor chunks move
//! between ring members step by step, reductions happen elementwise, and
//! every message is timed on the simulated network (so link contention —
//! e.g. a peer-hopping ring crossing occupied links — shows up in the
//! returned time). They are the ground truth for the α–β models in
//! [`crate::timing`] and for every property test.

use serde::{Deserialize, Serialize};

use multipod_simnet::{Network, SimTime};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{ChipId, Ring};
use multipod_trace::SpanCategory;

use crate::{emit_ring_span, ChunkMove, CollectiveError, Precision, Schedule};

/// Travel direction around a ring.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Increasing member index.
    Forward,
    /// Decreasing member index.
    Backward,
}

/// Result of a collective that leaves every member with a full payload.
#[derive(Clone, Debug, PartialEq)]
pub struct CollectiveOutput {
    /// Per-member output, in ring order.
    pub outputs: Vec<Tensor>,
    /// Completion time of the slowest member.
    pub time: SimTime,
}

/// Result of a reduce-scatter: every member holds one reduced shard.
#[derive(Clone, Debug, PartialEq)]
pub struct ScatterOutput {
    /// Per-member shard, in ring order (member `i` holds the chunk
    /// [`Schedule::owned_chunk`]`(i)` of the flattened payload).
    pub shards: Vec<Tensor>,
    /// Index of the payload chunk each member holds.
    pub chunk_of_member: Vec<usize>,
    /// Completion time of the slowest member.
    pub time: SimTime,
}

fn validate(inputs: &[Tensor], ring: &Ring) -> Result<(), CollectiveError> {
    if inputs.len() != ring.len() {
        return Err(CollectiveError::ParticipantMismatch {
            inputs: inputs.len(),
            members: ring.len(),
        });
    }
    if inputs.iter().any(|t| t.shape() != inputs[0].shape()) {
        return Err(CollectiveError::ShapeDisagreement);
    }
    Ok(())
}

fn run_schedule(
    net: &mut Network,
    ring: &Ring,
    schedule: &Schedule,
    chunks: &mut [Vec<Tensor>],
    precision: Precision,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let members = ring.members();
    let mut t = start;
    for step in schedule.steps() {
        // Numerics first, on a snapshot, so concurrent moves are coherent.
        let payloads: Vec<Tensor> = step
            .iter()
            .map(|mv| precision.quantize(&chunks[mv.from][mv.chunk]))
            .collect();
        for (mv, payload) in step.iter().zip(&payloads) {
            apply_move(chunks, mv, payload)?;
        }
        // Then timing: all moves in a step are concurrent.
        let msgs: Vec<(ChipId, ChipId, u64)> = step
            .iter()
            .map(|mv| {
                (
                    members[mv.from],
                    members[mv.to],
                    precision.wire_bytes(chunks[mv.from][mv.chunk].len()),
                )
            })
            .collect();
        t = net.parallel_transfers(&msgs, t)?;
    }
    Ok(t)
}

fn apply_move(
    chunks: &mut [Vec<Tensor>],
    mv: &ChunkMove,
    payload: &Tensor,
) -> Result<(), CollectiveError> {
    if mv.reduce {
        // In-place accumulate; the destination chunk is uniquely owned
        // (flatten_chunks materialized it), so no copy-on-write detach.
        chunks[mv.to][mv.chunk].axpy(1.0, payload)?;
    } else {
        // Move by handle: an O(1) refcount bump, not a payload copy.
        chunks[mv.to][mv.chunk] = payload.clone();
    }
    Ok(())
}

fn flatten_chunks(inputs: &[Tensor], n: usize) -> Result<Vec<Vec<Tensor>>, CollectiveError> {
    let elems = inputs[0].len();
    if n == 0 || !elems.is_multiple_of(n) {
        return Err(CollectiveError::IndivisiblePayload { elems, parts: n });
    }
    inputs
        .iter()
        .map(|t| {
            let flat = t.clone().reshape(Shape::vector(t.len()))?;
            flat.split(0, n).map_err(CollectiveError::from)
        })
        .collect()
}

/// Ring reduce-scatter: after the call, member `i` holds the elementwise
/// sum of chunk [`ScatterOutput::chunk_of_member`]`[i]` across all members.
///
/// # Errors
///
/// Fails on participant/shape mismatches, payloads not divisible by the
/// ring size, or unroutable messages.
pub fn reduce_scatter(
    net: &mut Network,
    ring: &Ring,
    inputs: &[Tensor],
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<ScatterOutput, CollectiveError> {
    validate(inputs, ring)?;
    let n = ring.len();
    let mut chunks = flatten_chunks(inputs, n)?;
    let schedule = Schedule::reduce_scatter(n, direction);
    let time = run_schedule(net, ring, &schedule, &mut chunks, precision, start)?;
    emit_ring_span(
        net,
        ring,
        SpanCategory::CollectivePhase,
        "reduce-scatter",
        start,
        time,
        precision.wire_bytes(inputs[0].len()),
    );
    let chunk_of_member: Vec<usize> = (0..n).map(|i| schedule.owned_chunk(i)).collect();
    // Take the owned shard out of each member's chunk row by handle; the
    // remaining (stale) chunks are dropped without copying.
    let shards = chunks
        .into_iter()
        .zip(&chunk_of_member)
        .map(|(mut row, &owned)| row.swap_remove(owned))
        .collect();
    Ok(ScatterOutput {
        shards,
        chunk_of_member,
        time,
    })
}

/// Ring all-gather: member `i` contributes `shards[i]` as payload chunk
/// [`Schedule::owned_chunk`]`(i)`; every member ends with the concatenation
/// of all chunks in payload order.
///
/// # Errors
///
/// Fails on participant/shape mismatches or unroutable messages.
pub fn all_gather(
    net: &mut Network,
    ring: &Ring,
    shards: &[Tensor],
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    validate(shards, ring)?;
    let n = ring.len();
    let schedule = Schedule::all_gather(n, direction);
    let chunk_elems = shards[0].len();
    // Pre-place each member's shard at its owned chunk slot. Flattening a
    // shard to its own element count cannot change the count, but any
    // tensor failure surfaces as a typed error rather than a panic.
    let mut chunks: Vec<Vec<Tensor>> = Vec::with_capacity(n);
    for (i, shard) in shards.iter().enumerate() {
        let mut row = vec![Tensor::zeros(Shape::vector(chunk_elems)); n];
        row[schedule.owned_chunk(i)] = shard.clone().reshape(Shape::vector(chunk_elems))?;
        chunks.push(row);
    }
    let time = run_schedule(net, ring, &schedule, &mut chunks, precision, start)?;
    emit_ring_span(
        net,
        ring,
        SpanCategory::CollectivePhase,
        "all-gather",
        start,
        time,
        precision.wire_bytes(n * chunk_elems),
    );
    let outputs = chunks
        .into_iter()
        .map(|row| Tensor::concat(&row, 0).map_err(CollectiveError::from))
        .collect::<Result<Vec<Tensor>, CollectiveError>>()?;
    Ok(CollectiveOutput { outputs, time })
}

/// Ring all-gather where member `i` contributes the `i`-th chunk of the
/// payload (index order), as SPMD resharding requires — unlike
/// [`all_gather`], whose chunk placement follows the reduce-scatter
/// ownership convention.
///
/// # Errors
///
/// See [`all_gather`].
pub fn all_gather_ordered(
    net: &mut Network,
    ring: &Ring,
    shards: &[Tensor],
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    let n = ring.len();
    let raw = all_gather(net, ring, shards, precision, direction, start)?;
    if n < 2 {
        return Ok(raw);
    }
    // `all_gather` places member i's shard at schedule-chunk
    // owned_chunk(i); permute chunks back to member-index order.
    let schedule = Schedule::all_gather(n, direction);
    let mut outputs = Vec::with_capacity(raw.outputs.len());
    for t in raw.outputs {
        let chunks = t.split(0, n)?;
        let ordered: Vec<Tensor> = (0..n)
            .map(|m| chunks[schedule.owned_chunk(m)].clone())
            .collect();
        outputs.push(Tensor::concat(&ordered, 0)?);
    }
    Ok(CollectiveOutput {
        outputs,
        time: raw.time,
    })
}

/// Unidirectional ring all-reduce: reduce-scatter followed by all-gather.
///
/// Outputs keep the input shape.
///
/// # Errors
///
/// See [`reduce_scatter`].
pub fn all_reduce_unidirectional(
    net: &mut Network,
    ring: &Ring,
    inputs: &[Tensor],
    precision: Precision,
    direction: Direction,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    let rs = reduce_scatter(net, ring, inputs, precision, direction, start)?;
    let ag = all_gather(net, ring, &rs.shards, precision, direction, rs.time)?;
    let shape = inputs[0].shape().clone();
    let outputs = ag
        .outputs
        .into_iter()
        .map(|t| t.reshape(shape.clone()).map_err(CollectiveError::from))
        .collect::<Result<Vec<Tensor>, CollectiveError>>()?;
    Ok(CollectiveOutput {
        outputs,
        time: ag.time,
    })
}

/// Bidirectional ring all-reduce: the payload is split in half and the two
/// halves travel the ring in opposite directions simultaneously, using both
/// directions of every physical link (§3.3: "A bidirectional ring is used
/// to execute a reduce-scatter operation along the Y-dimension").
///
/// Falls back to the unidirectional algorithm when the payload cannot be
/// split into `2n` chunks.
///
/// # Errors
///
/// See [`reduce_scatter`].
pub fn all_reduce(
    net: &mut Network,
    ring: &Ring,
    inputs: &[Tensor],
    precision: Precision,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    validate(inputs, ring)?;
    let n = ring.len();
    let elems = inputs[0].len();
    if n < 2 || !elems.is_multiple_of(2 * n) {
        let out =
            all_reduce_unidirectional(net, ring, inputs, precision, Direction::Forward, start)?;
        emit_ring_span(
            net,
            ring,
            SpanCategory::Collective,
            "all-reduce",
            start,
            out.time,
            precision.wire_bytes(elems),
        );
        return Ok(out);
    }
    let shape = inputs[0].shape().clone();
    // `validate` + the divisibility gate above make these tensor ops
    // well-formed; errors still propagate typed instead of panicking.
    // Each half moves into its lane by handle — no intermediate clones.
    let mut first: Vec<Tensor> = Vec::with_capacity(inputs.len());
    let mut second: Vec<Tensor> = Vec::with_capacity(inputs.len());
    for t in inputs {
        let flat = t.clone().reshape(Shape::vector(elems))?;
        let mut parts = flat.split(0, 2)?.into_iter();
        let (Some(a), Some(b)) = (parts.next(), parts.next()) else {
            return Err(CollectiveError::IndivisiblePayload { elems, parts: 2 });
        };
        first.push(a);
        second.push(b);
    }
    let lane_a =
        all_reduce_unidirectional(net, ring, &first, precision, Direction::Forward, start)?;
    let lane_b =
        all_reduce_unidirectional(net, ring, &second, precision, Direction::Backward, start)?;
    let time = lane_a.time.max(lane_b.time);
    let mut outputs = Vec::with_capacity(lane_a.outputs.len());
    for (a, b) in lane_a.outputs.into_iter().zip(lane_b.outputs) {
        outputs.push(Tensor::concat(&[a, b], 0)?.reshape(shape.clone())?);
    }
    emit_ring_span(
        net,
        ring,
        SpanCategory::Collective,
        "all-reduce",
        start,
        time,
        precision.wire_bytes(elems),
    );
    Ok(CollectiveOutput { outputs, time })
}

/// Relays a tensor from `root` around the ring (non-pipelined; the
/// optimized weight distribution path in the paper is reduce-scatter +
/// all-gather, not this).
///
/// # Errors
///
/// Fails when `root` is out of range or a hop is unroutable.
pub fn broadcast(
    net: &mut Network,
    ring: &Ring,
    root: usize,
    payload: &Tensor,
    precision: Precision,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    if root >= ring.len() {
        return Err(CollectiveError::ParticipantMismatch {
            inputs: root,
            members: ring.len(),
        });
    }
    let members = ring.members();
    let n = ring.len();
    let bytes = precision.wire_bytes(payload.len());
    let mut t = start;
    // Send both ways from the root so the farthest member is ~n/2 hops away.
    let mut fwd_t = t;
    let mut bwd_t = t;
    for d in 1..n {
        if d <= n / 2 {
            let from = members[(root + d - 1) % n];
            let to = members[(root + d) % n];
            fwd_t = net.transfer(from, to, bytes, fwd_t)?.finish;
        }
        if d < n - n / 2 {
            let from = members[(root + n - (d - 1)) % n];
            let to = members[(root + n - d) % n];
            bwd_t = net.transfer(from, to, bytes, bwd_t)?.finish;
        }
        t = fwd_t.max(bwd_t);
    }
    emit_ring_span(
        net,
        ring,
        SpanCategory::Collective,
        "broadcast",
        start,
        t,
        bytes,
    );
    let quantized = precision.quantize(payload);
    Ok(CollectiveOutput {
        outputs: vec![quantized; n],
        time: t,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::NetworkConfig;
    use multipod_topology::{Multipod, MultipodConfig};

    fn column_net(y: u32) -> (Network, Ring) {
        let mesh = Multipod::new(MultipodConfig::mesh(1, y, true));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().y_ring(0);
        (net, ring)
    }

    fn inputs(n: usize, elems: usize) -> Vec<Tensor> {
        (0..n)
            .map(|i| {
                Tensor::new(
                    Shape::vector(elems),
                    (0..elems).map(|e| (i * elems + e) as f32).collect(),
                )
            })
            .collect()
    }

    #[test]
    fn reduce_scatter_matches_reference_sum() {
        let (mut net, ring) = column_net(4);
        let ins = inputs(4, 8);
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = reduce_scatter(
            &mut net,
            &ring,
            &ins,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let ref_chunks = reference.split(0, 4).unwrap();
        for (i, shard) in out.shards.iter().enumerate() {
            assert_eq!(shard, &ref_chunks[out.chunk_of_member[i]], "member {i}");
        }
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn all_gather_restores_full_payload() {
        let (mut net, ring) = column_net(4);
        let ins = inputs(4, 8);
        let rs = reduce_scatter(
            &mut net,
            &ring,
            &ins,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let ag = all_gather(
            &mut net,
            &ring,
            &rs.shards,
            Precision::F32,
            Direction::Forward,
            rs.time,
        )
        .unwrap();
        let reference = Tensor::sum_all(&ins).unwrap();
        for out in &ag.outputs {
            assert_eq!(out, &reference);
        }
    }

    #[test]
    fn all_reduce_bidirectional_equals_sum() {
        let (mut net, ring) = column_net(8);
        let ins = inputs(8, 32);
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        for o in &out.outputs {
            assert_eq!(o, &reference);
        }
    }

    #[test]
    fn bidirectional_is_faster_than_unidirectional() {
        let elems = 1 << 20;
        let (mut net, ring) = column_net(8);
        let ins = inputs(8, elems);
        let bi = all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        let (mut net2, ring2) = column_net(8);
        let uni = all_reduce_unidirectional(
            &mut net2,
            &ring2,
            &ins,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        assert!(
            bi.time.seconds() < 0.7 * uni.time.seconds(),
            "bi={} uni={}",
            bi.time,
            uni.time
        );
    }

    #[test]
    fn bf16_payload_quantizes_but_stays_close() {
        let (mut net, ring) = column_net(4);
        let ins: Vec<Tensor> = (0..4)
            .map(|i| Tensor::fill(Shape::vector(16), 1.0 + i as f32 * 0.001))
            .collect();
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = all_reduce(&mut net, &ring, &ins, Precision::Bf16, SimTime::ZERO).unwrap();
        let diff = out.outputs[0].max_abs_diff(&reference);
        assert!(diff > 0.0, "bf16 should be lossy here");
        assert!(diff < 0.05, "but close: {diff}");
    }

    #[test]
    fn bf16_halves_wire_time() {
        let elems = 1 << 22;
        let (mut net, ring) = column_net(4);
        let ins = inputs(4, elems);
        let f32_out = all_reduce_unidirectional(
            &mut net,
            &ring,
            &ins,
            Precision::F32,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let (mut net2, ring2) = column_net(4);
        let bf_out = all_reduce_unidirectional(
            &mut net2,
            &ring2,
            &ins,
            Precision::Bf16,
            Direction::Forward,
            SimTime::ZERO,
        )
        .unwrap();
        let ratio = bf_out.time.seconds() / f32_out.time.seconds();
        assert!((0.45..0.62).contains(&ratio), "ratio={ratio}");
    }

    #[test]
    fn open_line_all_reduce_still_correct() {
        let mesh = Multipod::new(MultipodConfig::mesh(6, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().x_line(0);
        let ins = inputs(6, 12);
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        for o in &out.outputs {
            assert_eq!(o, &reference);
        }
    }

    #[test]
    fn strided_peer_ring_all_reduce_correct() {
        // 8-chip row with 4-wide model tiles: peers at x = 1, 5.
        let mesh = Multipod::new(MultipodConfig::mesh(8, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let ring = net.mesh().x_line_strided(0, 1, 4);
        assert_eq!(ring.len(), 2);
        let ins = inputs(2, 8);
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        for o in &out.outputs {
            assert_eq!(o, &reference);
        }
    }

    #[test]
    fn errors_are_reported() {
        let (mut net, ring) = column_net(4);
        // Wrong participant count.
        let bad = inputs(3, 8);
        assert!(matches!(
            all_reduce(&mut net, &ring, &bad, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::ParticipantMismatch { .. })
        ));
        // Indivisible payload (7 elements over 4 members, and 7 % 8 != 0
        // so the bidirectional path also rejects).
        let bad = inputs(4, 7);
        assert!(matches!(
            all_reduce(&mut net, &ring, &bad, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::IndivisiblePayload { .. })
        ));
        // Disagreeing shapes.
        let mut bad = inputs(4, 8);
        bad[2] = Tensor::zeros(Shape::vector(16));
        assert!(matches!(
            all_reduce(&mut net, &ring, &bad, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::ShapeDisagreement)
        ));
    }

    #[test]
    fn all_gather_ordered_concatenates_in_index_order() {
        let (mut net, ring) = column_net(4);
        let shards: Vec<Tensor> = (0..4)
            .map(|i| Tensor::fill(Shape::vector(2), i as f32))
            .collect();
        for dir in [Direction::Forward, Direction::Backward] {
            let out =
                all_gather_ordered(&mut net, &ring, &shards, Precision::F32, dir, SimTime::ZERO)
                    .unwrap();
            for o in &out.outputs {
                assert_eq!(o.data(), &[0.0, 0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
            }
        }
    }

    #[test]
    fn broadcast_reaches_everyone() {
        let (mut net, ring) = column_net(8);
        let payload = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let out = broadcast(&mut net, &ring, 3, &payload, Precision::F32, SimTime::ZERO).unwrap();
        assert_eq!(out.outputs.len(), 8);
        for o in &out.outputs {
            assert_eq!(o, &payload);
        }
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn single_member_ring_is_identity() {
        let (mut net, _) = column_net(4);
        let ring = Ring::new(vec![ChipId(0)], false, 1);
        let ins = inputs(1, 8);
        let out = all_reduce(&mut net, &ring, &ins, Precision::F32, SimTime::ZERO).unwrap();
        assert_eq!(out.outputs[0], ins[0]);
        assert_eq!(out.time, SimTime::ZERO);
    }
}
