//! Numeric ring collectives.
//!
//! These functions execute ring collectives **for real**: payload chunks
//! travel the ring hop by hop, reductions happen elementwise,
//! and every message is timed on the simulated network (so link contention
//! — e.g. a peer-hopping ring crossing occupied links — shows up in the
//! returned time). They are the ground truth for the α–β models in
//! [`crate::timing`] and for every property test.
//!
//! A reduce-scatter folds chunk by chunk: chunk `c` enters the ring at
//! member `c` and makes `n − 1` hops downstream to its owner, each
//! receiver adding its own copy of the chunk to the partial sum it was
//! sent. So a shard is one buffer carried through those hops, every input
//! element is read once, and nothing is copied into an arena or allocated
//! per hop; the ring's schedule supplies the neighbours. An all-gather moves
//! no payload at all: every member provably ends with the same row, so
//! the row is assembled once and shared by `n` handles. Either way the
//! network is timed message for message as if the chunks had moved, and
//! since every step of a ring sends the same `n` messages, the steps are
//! one batch issued `n − 1` times ([`Network::repeated_transfers`], which
//! looks each path up once). [`Tensor`]s exist only at the function
//! boundary.
//!
//! A bf16 wire rounds in two places. A reduce hop rounds the partial sum
//! it sends, and the receiver adds its own unrounded chunk to that, so a
//! reduce-scatter shard (and a weight update applied to it) is an f32 sum
//! of rounded contributions. An all-gather rounds the whole row where it is
//! assembled — the owner's own chunk included — so every replica leaves
//! with the same bits; rounding is idempotent, so re-rounding per hop
//! would change nothing.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use multipod_simnet::{Network, SimTime};
use multipod_tensor::{Bf16, Shape, Tensor};
use multipod_topology::{ChipId, Ring};
use multipod_trace::SpanCategory;

use crate::{emit_ring_span, CollectiveError, Precision, Schedule};

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
    /// Per-member shard, in ring order (member `i` holds chunk
    /// `chunk_of_member[i]` of the flattened payload).
    pub shards: Vec<Tensor>,
    /// Index of the payload chunk each member holds: its downstream
    /// neighbour's member index.
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

/// Issues every step of `schedule` on the network — each member's one
/// `bytes`-sized message per step, all of a step concurrent, a step
/// starting when the previous one's slowest message lands — and returns
/// when the last step has landed. This is all of a ring collective the
/// simulated network sees, whatever happens to the payload. Every step
/// sends the same `n` messages, member `i` to its downstream neighbour
/// (only the chunks they carry differ), so the steps are one batch
/// repeated.
pub(crate) fn time_schedule(
    net: &mut Network,
    ring: &Ring,
    schedule: Schedule,
    bytes: u64,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let members = ring.members();
    let msgs: Vec<(ChipId, ChipId, u64)> = (0..members.len())
        .map(|i| (members[i], members[schedule.downstream(i)], bytes))
        .collect();
    Ok(net.repeated_transfers(&msgs, schedule.num_steps(), start)?)
}

/// Reduces chunk `chunk` of every row (the members' flat payloads, in
/// ring order) the way the ring moves it. The chunk enters the ring at the
/// member whose index it bears and makes `n − 1` hops downstream, ending
/// at its owner; each receiver adds its own copy of the chunk to the
/// partial sum it was sent, which a bf16 wire rounds first (the sum a
/// member keeps is never rounded). So the owner's shard is one buffer
/// carried through the hops — 2 KB on the 128×32 Y rings, in L1 all the
/// way — and every input element is read once.
fn fold_chunk(rows: &[&[f32]], schedule: Schedule, chunk: usize, precision: Precision) -> Vec<f32> {
    let len = rows[chunk].len() / rows.len();
    let at = chunk * len;
    let mut sum = rows[chunk][at..at + len].to_vec();
    let mut member = chunk;
    for _ in 1..rows.len() {
        member = schedule.downstream(member);
        let own = &rows[member][at..at + len];
        match precision {
            Precision::F32 => {
                for (s, &x) in sum.iter_mut().zip(own) {
                    *s += x;
                }
            }
            Precision::Bf16 => {
                for (s, &x) in sum.iter_mut().zip(own) {
                    *s = Bf16::round_trip(*s) + x;
                }
            }
        }
    }
    sum
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
    let schedule = Schedule::new(n, direction)?;
    let elems = inputs[0].len();
    if !elems.is_multiple_of(n) {
        return Err(CollectiveError::IndivisiblePayload { elems, parts: n });
    }
    let chunk_elems = elems / n;
    let chunk_bytes = precision.wire_bytes(chunk_elems);
    let time = time_schedule(net, ring, schedule, chunk_bytes, start)?;
    let (phase, bytes) = (SpanCategory::CollectivePhase, precision.wire_bytes(elems));
    emit_ring_span(net, ring, phase, "reduce-scatter", start, time, bytes);
    // A member's flat payload *is* its `[chunk][elem]` row.
    let rows: Vec<&[f32]> = inputs.iter().map(Tensor::data).collect();
    let chunk_of_member: Vec<usize> = (0..n).map(|i| schedule.owned_chunk(i)).collect();
    let shards = chunk_of_member
        .iter()
        .map(|&chunk| {
            let shard = fold_chunk(&rows, schedule, chunk, precision);
            Tensor::new(Shape::vector(chunk_elems), shard)
        })
        .collect();
    Ok(ScatterOutput {
        shards,
        chunk_of_member,
        time,
    })
}

/// Ring all-gather: member `i` contributes `shards[i]` as the payload chunk
/// a [`reduce_scatter`] in the same direction leaves it
/// ([`ScatterOutput::chunk_of_member`]); every member ends with the
/// concatenation of all chunks in payload order.
///
/// Every member ends with the same bits on either wire, so the outputs are
/// handles to one buffer (copy-on-write: mutating one detaches it). A bf16
/// wire rounds every chunk — the one a member contributed itself included:
/// the all-gather boundary is where replicas must come to agree, while the
/// shards going in (a reduce-scatter's f32 sums, a weight update's result)
/// stay as precise as their owner computed them.
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
    gather(net, ring, shards, precision, direction, start, false)
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
    gather(net, ring, shards, precision, direction, start, true)
}

/// The all-gather behind both public flavours: one row, assembled once.
/// Member `i`'s shard lands at chunk `i` when `member_order`, else at the
/// chunk it travels as, `owned_chunk(i)`; the schedule's messages are
/// issued for their timing only.
fn gather(
    net: &mut Network,
    ring: &Ring,
    shards: &[Tensor],
    precision: Precision,
    direction: Direction,
    start: SimTime,
    member_order: bool,
) -> Result<CollectiveOutput, CollectiveError> {
    validate(shards, ring)?;
    let n = ring.len();
    let schedule = Schedule::new(n, direction)?;
    let chunk_elems = shards[0].len();
    let mut row = vec![0.0f32; n * chunk_elems];
    for (i, shard) in shards.iter().enumerate() {
        let chunk = match member_order {
            true => i,
            false => schedule.owned_chunk(i),
        };
        row[chunk * chunk_elems..][..chunk_elems].copy_from_slice(shard.data());
    }
    if precision == Precision::Bf16 {
        Bf16::quantize_slice(&mut row);
    }
    let chunk_bytes = precision.wire_bytes(chunk_elems);
    let time = time_schedule(net, ring, schedule, chunk_bytes, start)?;
    let (phase, bytes) = (SpanCategory::CollectivePhase, chunk_bytes * n as u64);
    emit_ring_span(net, ring, phase, "all-gather", start, time, bytes);
    let gathered = Tensor::new(Shape::vector(row.len()), row);
    Ok(CollectiveOutput {
        outputs: vec![gathered; n],
        time,
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
    let forward = Direction::Forward;
    let out = if n < 2 || !elems.is_multiple_of(2 * n) {
        all_reduce_unidirectional(net, ring, inputs, precision, forward, start)?
    } else {
        let lane = |half: Range<usize>| -> Vec<Tensor> {
            let cut = |t: &Tensor| Tensor::from_slice(&t.data()[half.clone()]);
            inputs.iter().map(cut).collect()
        };
        let (lo, hi) = (lane(0..elems / 2), lane(elems / 2..elems));
        let backward = Direction::Backward;
        let lo = all_reduce_unidirectional(net, ring, &lo, precision, forward, start)?;
        let hi = all_reduce_unidirectional(net, ring, &hi, precision, backward, start)?;
        let time = lo.time.max(hi.time);
        let shape = inputs[0].shape();
        let mut outputs = Vec::with_capacity(n);
        for (lo, hi) in lo.outputs.into_iter().zip(hi.outputs) {
            outputs.push(Tensor::concat(&[lo, hi], 0)?.reshape(shape.clone())?);
        }
        CollectiveOutput { outputs, time }
    };
    let (whole, bytes) = (SpanCategory::Collective, precision.wire_bytes(elems));
    emit_ring_span(net, ring, whole, "all-reduce", start, out.time, bytes);
    Ok(out)
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
    let whole = SpanCategory::Collective;
    emit_ring_span(net, ring, whole, "broadcast", start, t, bytes);
    let quantized = precision.quantize(payload);
    Ok(CollectiveOutput {
        outputs: vec![quantized; n],
        time: t,
    })
}

#[cfg(test)]
/// The seed executor — every chunk of every member its own heap
/// [`Tensor`], a quantized snapshot per step — kept as the observational
/// reference the chunk-folding executor is tested against: same output
/// bits, same times, same trace events.
pub(crate) mod oracle {
    use super::*;
    use crate::schedule::ChunkMove;

    fn run_schedule(
        net: &mut Network,
        ring: &Ring,
        schedule: Schedule,
        reduce: bool,
        chunks: &mut [Vec<Tensor>],
        precision: Precision,
        start: SimTime,
    ) -> Result<SimTime, CollectiveError> {
        let members = ring.members();
        let mut t = start;
        for s in 0..schedule.num_steps() {
            let step: Vec<ChunkMove> = schedule.step(s, reduce).collect();
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
            chunks[mv.to][mv.chunk].axpy(1.0, payload)?;
        } else {
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

    pub(crate) fn reduce_scatter(
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
        let schedule = Schedule::new(n, direction)?;
        let time = run_schedule(net, ring, schedule, true, &mut chunks, precision, start)?;
        let bytes = precision.wire_bytes(inputs[0].len());
        let phase = SpanCategory::CollectivePhase;
        emit_ring_span(net, ring, phase, "reduce-scatter", start, time, bytes);
        let chunk_of_member: Vec<usize> = (0..n).map(|i| schedule.owned_chunk(i)).collect();
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

    pub(crate) fn all_gather(
        net: &mut Network,
        ring: &Ring,
        shards: &[Tensor],
        precision: Precision,
        direction: Direction,
        start: SimTime,
    ) -> Result<CollectiveOutput, CollectiveError> {
        validate(shards, ring)?;
        let n = ring.len();
        let schedule = Schedule::new(n, direction)?;
        let chunk_elems = shards[0].len();
        let mut chunks: Vec<Vec<Tensor>> = Vec::with_capacity(n);
        for (i, shard) in shards.iter().map(|s| precision.quantize(s)).enumerate() {
            let mut row = vec![Tensor::zeros(Shape::vector(chunk_elems)); n];
            row[schedule.owned_chunk(i)] = shard.clone().reshape(Shape::vector(chunk_elems))?;
            chunks.push(row);
        }
        let time = run_schedule(net, ring, schedule, false, &mut chunks, precision, start)?;
        let bytes = precision.wire_bytes(n * chunk_elems);
        let phase = SpanCategory::CollectivePhase;
        emit_ring_span(net, ring, phase, "all-gather", start, time, bytes);
        let outputs = chunks
            .into_iter()
            .map(|row| Tensor::concat(&row, 0).map_err(CollectiveError::from))
            .collect::<Result<Vec<Tensor>, CollectiveError>>()?;
        Ok(CollectiveOutput { outputs, time })
    }

    pub(crate) fn all_gather_ordered(
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
        let schedule = Schedule::new(n, direction)?;
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

    fn all_reduce_unidirectional(
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

    pub(crate) fn all_reduce(
        net: &mut Network,
        ring: &Ring,
        inputs: &[Tensor],
        precision: Precision,
        start: SimTime,
    ) -> Result<CollectiveOutput, CollectiveError> {
        validate(inputs, ring)?;
        let n = ring.len();
        let elems = inputs[0].len();
        let bytes = precision.wire_bytes(elems);
        let whole = SpanCategory::Collective;
        if n < 2 || !elems.is_multiple_of(2 * n) {
            let forward = Direction::Forward;
            let out = all_reduce_unidirectional(net, ring, inputs, precision, forward, start)?;
            emit_ring_span(net, ring, whole, "all-reduce", start, out.time, bytes);
            return Ok(out);
        }
        let shape = inputs[0].shape().clone();
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
        emit_ring_span(net, ring, whole, "all-reduce", start, time, bytes);
        Ok(CollectiveOutput { outputs, time })
    }

    /// `pipelined::all_reduce_time` as it was before it ran the executed
    /// schedule: an event-driven recurrence, one `Network::transfer` per
    /// move, in which a member sends its step-`s` chunk as soon as it and
    /// its receiver have finished their step-`(s−1)` receives,
    ///
    /// ```text
    /// done[i][s] = max(done[send(i)][s−1], done[i][s−1], link_free) + α + chunk/β
    /// ```
    ///
    /// and each member starts its all-gather when its own reduce-scatter
    /// ends, not at a barrier. Kept as the reference the barrier-stepped
    /// run is held to: bit for bit on a ring whose messages share no link
    /// (its steps are data-dependency lockstep), never faster otherwise.
    pub(crate) fn pipelined_all_reduce_time(
        net: &mut Network,
        ring: &Ring,
        elems: usize,
        precision: Precision,
        direction: Direction,
        start: SimTime,
    ) -> Result<SimTime, CollectiveError> {
        let n = ring.len();
        let schedule = Schedule::new(n, direction)?;
        let starts = vec![start; n];
        let per_member = run_pipelined(net, ring, schedule, true, elems, precision, &starts)?;
        let done = run_pipelined(net, ring, schedule, false, elems, precision, &per_member)?;
        let t = done.into_iter().fold(start, SimTime::max);
        let (whole, bytes) = (SpanCategory::Collective, precision.wire_bytes(elems));
        emit_ring_span(net, ring, whole, "pipelined-all-reduce", start, t, bytes);
        Ok(t)
    }

    /// One phase of [`pipelined_all_reduce_time`] from per-member start
    /// times; returns per-member completion times.
    fn run_pipelined(
        net: &mut Network,
        ring: &Ring,
        schedule: Schedule,
        reduce: bool,
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
        // current step (before step 0: its own start time); prev is the
        // same for the step before.
        let mut done = starts.to_vec();
        let mut prev = done.clone();
        for s in 0..schedule.num_steps() {
            std::mem::swap(&mut prev, &mut done);
            for mv in schedule.step(s, reduce) {
                // A member may send once it has finished its own previous
                // receive; the receiver must also be done with its previous
                // step (single in-flight receive per member).
                let ready = prev[mv.from].max(prev[mv.to]);
                let t = net.transfer(members[mv.from], members[mv.to], chunk_bytes, ready)?;
                done[mv.to] = t.finish;
            }
        }
        Ok(done)
    }
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

    #[test]
    fn gather_outputs_are_one_buffer_on_either_wire() {
        let (mut net, ring) = column_net(4);
        let shards = inputs(4, 3);
        let fwd = Direction::Forward;
        for precision in [Precision::F32, Precision::Bf16] {
            let mut outputs = all_gather(&mut net, &ring, &shards, precision, fwd, SimTime::ZERO)
                .unwrap()
                .outputs;
            for i in 1..4 {
                assert!(outputs[i].shares_storage(&outputs[0]), "{precision:?}");
            }
            // Copy-on-write: writing through one handle detaches it.
            let before = outputs[1].clone();
            outputs[0].data_mut()[0] = -1.0;
            assert_eq!(outputs[1], before);
            assert_ne!(outputs[0], before);
        }
    }

    /// `outputs` are one answer: handles to member 0's buffer, or its bits.
    fn assert_replicas_agree(outputs: &[Tensor], what: &str) {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        for (i, o) in outputs.iter().enumerate() {
            assert!(
                o.shares_storage(&outputs[0]) || bits(o) == bits(&outputs[0]),
                "{what}: member {i} disagrees with member 0"
            );
        }
    }

    #[test]
    fn bf16_replicas_agree_after_every_full_payload_collective() {
        use multipod_tensor::TensorRng;
        let t0 = SimTime::ZERO;
        let bf16 = Precision::Bf16;
        for n in [1usize, 2, 5, 8] {
            let (mut net, ring) = column_net(n as u32);
            let mut rng = TensorRng::seed(n as u64);
            // Values that bf16 cannot hold, so an unrounded copy would show.
            let ins: Vec<Tensor> = (0..n)
                .map(|_| rng.uniform(Shape::vector(2 * n * 3), -8.0, 8.0))
                .collect();
            let rounded = bf16.quantize(&ins[0]);
            assert_ne!(rounded, ins[0]);
            for dir in [Direction::Forward, Direction::Backward] {
                let what = format!("n={n} {dir:?}");
                let out = all_gather(&mut net, &ring, &ins, bf16, dir, t0).unwrap();
                assert_replicas_agree(&out.outputs, &format!("all_gather {what}"));
                let out = all_gather_ordered(&mut net, &ring, &ins, bf16, dir, t0).unwrap();
                assert_replicas_agree(&out.outputs, &format!("all_gather_ordered {what}"));
                // Index order: member 0's own shard leads, and it is rounded.
                assert_eq!(&out.outputs[0].data()[..ins[0].len()], rounded.data());
                let out = all_reduce_unidirectional(&mut net, &ring, &ins, bf16, dir, t0).unwrap();
                assert_replicas_agree(&out.outputs, &format!("all_reduce_unidirectional {what}"));
            }
            let out = all_reduce(&mut net, &ring, &ins, bf16, t0).unwrap();
            assert_replicas_agree(&out.outputs, &format!("all_reduce n={n}"));
        }
    }

    mod differential {
        use super::*;
        use multipod_tensor::TensorRng;
        use multipod_trace::{Recorder, TraceEvent, TraceSink};
        use proptest::prelude::*;
        use std::sync::Arc;

        /// What a ring call leaves behind: output shapes and bits, shard
        /// placement (for a reduce-scatter), completion time, and every
        /// recorded event.
        type Observed = (Vec<(Shape, Vec<u32>)>, Vec<usize>, SimTime, Vec<TraceEvent>);

        /// An output element's bits, every NaN read as the one canonical
        /// quiet NaN: IEEE 754 leaves which NaN operand an add propagates
        /// unspecified, and a compiler may commute an add's operands, so
        /// a NaN's payload is not an answer either executor owns.
        fn answer_bits(v: f32) -> u32 {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        }

        fn observe<T>(
            n: usize,
            call: impl FnOnce(&mut Network, &Ring) -> Result<T, CollectiveError>,
            parts: impl FnOnce(T) -> (Vec<Tensor>, Vec<usize>, SimTime),
        ) -> Observed {
            let (mut net, ring) = column_net(n as u32);
            let recorder = Recorder::shared();
            let sink = recorder.clone() as Arc<dyn TraceSink>;
            net.set_obs(multipod_telemetry::Obs::new(Some(sink), None));
            let (tensors, placement, time) = parts(call(&mut net, &ring).unwrap());
            let bits = tensors
                .iter()
                .map(|t| {
                    let bits = t.data().iter().map(|&v| answer_bits(v)).collect();
                    (t.shape().clone(), bits)
                })
                .collect();
            (bits, placement, time, recorder.events())
        }

        fn full(out: CollectiveOutput) -> (Vec<Tensor>, Vec<usize>, SimTime) {
            (out.outputs, Vec::new(), out.time)
        }

        fn scattered(out: ScatterOutput) -> (Vec<Tensor>, Vec<usize>, SimTime) {
            (out.shards, out.chunk_of_member, out.time)
        }

        /// Values a sum must carry through untouched or poison on
        /// schedule: both zeros, subnormals (one below bf16's reach),
        /// both infinities (whose sum is NaN) and NaN.
        const SPECIAL: [f32; 8] = [
            0.0,
            -0.0,
            1.0e-40,
            -3.0e-39,
            1.0e-45,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];

        /// `n` members' `[2n, k]` inputs, uniform in ±8; with `specials`,
        /// about one element in six is drawn from [`SPECIAL`] instead.
        fn ring_inputs(n: usize, k: usize, seed: u64, specials: bool) -> Vec<Tensor> {
            let mut rng = TensorRng::seed(seed);
            (0..n)
                .map(|_| {
                    let mut t = rng.uniform(Shape::of(&[2 * n, k]), -8.0, 8.0);
                    if specials {
                        for v in t.data_mut() {
                            let pick = rng.index(6 * SPECIAL.len());
                            if pick < SPECIAL.len() {
                                *v = SPECIAL[pick];
                            }
                        }
                    }
                    t
                })
                .collect()
        }

        /// Every public ring collective against the seed executor: same
        /// output bits (an all-gather assembled once equals `n(n−1)`
        /// chunks moved hop by hop), same placement, same times, same
        /// trace events.
        fn matches_the_seed_executor(
            n: usize,
            ins: &[Tensor],
            precision: Precision,
            dir: Direction,
        ) -> Result<(), TestCaseError> {
            let t0 = SimTime::ZERO;
            let new = observe(
                n,
                |net, ring| reduce_scatter(net, ring, ins, precision, dir, t0),
                scattered,
            );
            let old = observe(
                n,
                |net, ring| oracle::reduce_scatter(net, ring, ins, precision, dir, t0),
                scattered,
            );
            prop_assert!(n < 2 || !new.3.is_empty(), "transfers must be recorded");
            prop_assert_eq!(new, old);

            let new = observe(
                n,
                |net, ring| all_gather(net, ring, ins, precision, dir, t0),
                full,
            );
            let old = observe(
                n,
                |net, ring| oracle::all_gather(net, ring, ins, precision, dir, t0),
                full,
            );
            prop_assert_eq!(new, old);

            let new = observe(
                n,
                |net, ring| all_gather_ordered(net, ring, ins, precision, dir, t0),
                full,
            );
            let old = observe(
                n,
                |net, ring| oracle::all_gather_ordered(net, ring, ins, precision, dir, t0),
                full,
            );
            prop_assert_eq!(new, old);

            let new = observe(
                n,
                |net, ring| all_reduce(net, ring, ins, precision, t0),
                full,
            );
            let old = observe(
                n,
                |net, ring| oracle::all_reduce(net, ring, ins, precision, t0),
                full,
            );
            prop_assert_eq!(new, old);
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// The chunk-folding executor is bit-invisible next to the
            /// seed executor, on ordinary values and on zeros, subnormals,
            /// infinities and NaNs.
            #[test]
            fn ring_executor_matches_the_seed_executor(
                n in 1usize..10,
                k in 1usize..4,
                forward in any::<bool>(),
                bf16 in any::<bool>(),
                specials in any::<bool>(),
                seed in 0u64..10_000,
            ) {
                let dir = if forward { Direction::Forward } else { Direction::Backward };
                let precision = if bf16 { Precision::Bf16 } else { Precision::F32 };
                let ins = ring_inputs(n, k, seed, specials);
                matches_the_seed_executor(n, &ins, precision, dir)?;
            }
        }

        /// The Y-ring size of the 128×32 summation: 31 hops per chunk.
        #[test]
        fn a_32_member_ring_matches_the_seed_executor() {
            for (seed, specials) in [(32, false), (33, true)] {
                let ins = ring_inputs(32, 3, seed, specials);
                for precision in [Precision::F32, Precision::Bf16] {
                    for dir in [Direction::Forward, Direction::Backward] {
                        matches_the_seed_executor(32, &ins, precision, dir).unwrap();
                    }
                }
            }
        }
    }
}
