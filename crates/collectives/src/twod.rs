//! The paper's optimized 2-D global summation (§3.3, Figure 4).
//!
//! Gradient summation on the multipod proceeds in four pipelined phases:
//!
//! 1. reduce-scatter along the torus **Y** rings (bulk of the payload),
//! 2. reduce-scatter along the **X** lines on the Y-shards (payload is
//!    `1/y_len`, i.e. 32× smaller on the paper's machine),
//! 3. the **weight update**, computed by each shard owner on its reduced
//!    shard (weight-update sharding, §3.2),
//! 4. broadcast of the updated shards: all-gather along X, then Y.
//!
//! With model parallelism, the X-phase rings *hop over* the
//! model-parallelism neighbours (`stride = tile width`): only chips holding
//! the same weight shard sum their gradients (dotted blue rings in Fig. 4).
//!
//! The numeric entry points are the two halves, [`two_dim_reduce_scatter`]
//! (phases 1–2) and [`two_dim_all_gather`] (phase 4), with the update
//! between them; [`two_dim_all_reduce`] runs them back to back. The α–β
//! counterpart is [`two_dim_all_reduce_time`].

use std::convert::Infallible;

use serde::{Deserialize, Serialize};

use multipod_simnet::{Network, SimTime};
use multipod_telemetry::{MetricId, Subsystem};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{ChipId, Multipod, Ring};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::ring::{self, Direction};
use crate::timing::RingCosts;
use crate::{CollectiveError, Precision, Schedule};

/// Per-phase breakdown of a 2-D all-reduce, seconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct TwoDimBreakdown {
    /// Phase 1: reduce-scatter along Y.
    pub y_reduce_scatter: f64,
    /// Phase 2: reduce-scatter along X.
    pub x_reduce_scatter: f64,
    /// Phase 4a: all-gather along X.
    pub x_all_gather: f64,
    /// Phase 4b: all-gather along Y.
    pub y_all_gather: f64,
}

impl TwoDimBreakdown {
    /// Total communication time.
    pub fn total(&self) -> f64 {
        self.y_reduce_scatter + self.x_reduce_scatter + self.x_all_gather + self.y_all_gather
    }
}

/// Result of the numeric 2-D all-reduce.
#[derive(Clone, Debug)]
pub struct TwoDimOutput {
    /// Per-chip outputs in chip-id order: the sum over the chip's replica
    /// group (all chips with the same `x % stride` offset).
    pub outputs: Vec<Tensor>,
    /// Completion time.
    pub time: SimTime,
    /// Per-phase times.
    pub breakdown: TwoDimBreakdown,
}

/// The reduce half of the 2-D schedule: what each shard owner holds when
/// [`two_dim_reduce_scatter`] returns, and what [`two_dim_all_gather`]
/// needs to finish the schedule.
#[derive(Clone, Debug)]
pub struct TwoDimShards {
    /// Per-chip shard in chip-id order: chip `c` holds slice
    /// [`shard_index`]`(c)` of its replica group's flattened sum. Replace
    /// them (same length each) with the updated weight shards before the
    /// all-gather.
    pub shards: Vec<Tensor>,
    /// When the X reduce-scatter ends: every owner holds its shard.
    pub time: SimTime,
    y_reduce_scatter_end: SimTime,
    shape: Shape,
    precision: Precision,
}

/// Phases 1–2 of the 2-D summation over one tensor per chip (chip-id
/// order): reduce-scatter along Y, then along the `model_stride`-strided
/// X lines, all starting at `SimTime::ZERO`.
///
/// `model_stride` is the model-parallel tile width: 1 for pure data
/// parallelism; `k > 1` makes the X-phase rings hop over model peers so
/// that only same-shard chips reduce together.
///
/// # Errors
///
/// Fails when `model_stride` is zero or does not divide the mesh X extent,
/// `inputs.len()` differs from the chip count, payloads do not divide
/// evenly across ring members, or shapes disagree.
pub fn two_dim_reduce_scatter(
    net: &mut Network,
    inputs: &[Tensor],
    precision: Precision,
    model_stride: u32,
) -> Result<TwoDimShards, CollectiveError> {
    use RingOp::Scatter;
    let mesh = net.mesh().clone();
    check_stride(&mesh, model_stride)?;
    check_participants(&mesh, inputs.len())?;
    // One tensor per chip, rewritten in place by each phase.
    let mut state = inputs.to_vec();
    let (y_rings, x_rings) = (y_rings(&mesh), x_rings(&mesh, model_stride));
    let y_end = phase(net, y_rings, &mut state, Scatter, precision, SimTime::ZERO)?;
    let x_end = phase(net, x_rings, &mut state, Scatter, precision, y_end)?;
    Ok(TwoDimShards {
        shards: state,
        time: x_end,
        y_reduce_scatter_end: y_end,
        shape: inputs[0].shape().clone(),
        precision,
    })
}

/// Phase 4 of the 2-D summation: all-gathers `reduced.shards` along X,
/// then Y, starting when the reduce half ended, and records the
/// schedule's phase spans and metrics (the reduce half's included) on
/// the network's observer.
///
/// `precision` is this half's wire and may differ from the reduce half's;
/// `model_stride` must be the one the reduce half ran with. All chips of
/// a replica group end with bit-identical outputs of the input shape on
/// either wire, and the chips of one Y ring share storage (see
/// [`ring::all_gather`]).
///
/// # Errors
///
/// Fails when `model_stride` is zero or does not divide the mesh X extent,
/// the shard count differs from the chip count, or shard lengths disagree
/// within a ring.
pub fn two_dim_all_gather(
    net: &mut Network,
    reduced: TwoDimShards,
    precision: Precision,
    model_stride: u32,
) -> Result<TwoDimOutput, CollectiveError> {
    use RingOp::Gather;
    let mesh = net.mesh().clone();
    check_stride(&mesh, model_stride)?;
    check_participants(&mesh, reduced.shards.len())?;
    let TwoDimShards {
        shards: mut state,
        time: x_rs,
        y_reduce_scatter_end: y_rs,
        shape,
        precision: rs,
    } = reduced;
    let (y_rings, x_rings) = (y_rings(&mesh), x_rings(&mesh, model_stride));
    let x_ag = phase(net, x_rings, &mut state, Gather, precision, x_rs)?;
    let y_ag = phase(net, y_rings, &mut state, Gather, precision, x_ag)?;

    // Machine-wide phase spans on the simulation track, with the α/β
    // attribution the analytic model assigns to each phase on its wire.
    // The same per-phase numbers flow into the metrics registry when
    // attached.
    let obs = net.obs();
    if !obs.is_off() {
        let elems = shape.len();
        let x_elems = elems.div_ceil(mesh.y_len().max(1) as usize);
        let (y_costs, x_costs) = ring_costs(net, model_stride)?;
        let (t0, ag) = (SimTime::ZERO, precision);
        for (name, s, e, costs, phase_elems, wire) in [
            ("y-reduce-scatter", t0, y_rs, &y_costs, elems, rs),
            ("x-reduce-scatter", y_rs, x_rs, &x_costs, x_elems, rs),
            ("x-all-gather", x_rs, x_ag, &x_costs, x_elems, ag),
            ("y-all-gather", x_ag, y_ag, &y_costs, elems, ag),
        ] {
            let alpha = costs.phase_alpha_seconds();
            let beta = costs.phase_beta_seconds(phase_elems, wire, false);
            let bytes = wire.wire_bytes(phase_elems);
            obs.span(|| {
                SpanEvent::new(Track::Sim, SpanCategory::CollectivePhase, name, s, e)
                    .with_bytes(bytes)
                    .with_arg("alpha_seconds", alpha)
                    .with_arg("beta_seconds", beta)
            });
            if let Some(metrics) = obs.metrics() {
                let id = |metric| MetricId::labeled(Subsystem::Collectives, metric, name);
                metrics.observe(id("phase_seconds"), e - s);
                metrics.inc_counter(id("phase_bytes"), bytes);
                metrics.observe(id("model_alpha_seconds"), alpha);
                metrics.observe(id("model_beta_seconds"), beta);
            }
        }
        obs.span(|| {
            SpanEvent::new(
                Track::Sim,
                SpanCategory::Collective,
                "2d-all-reduce",
                t0,
                y_ag,
            )
            .with_bytes(rs.wire_bytes(elems))
            .with_arg("model_stride", model_stride as f64)
        });
        obs.count(MetricId::new(Subsystem::Collectives, "all_reduces"), 1);
        obs.observe(
            MetricId::new(Subsystem::Collectives, "all_reduce_seconds"),
            y_ag - t0,
        );
    }

    let outputs = state
        .into_iter()
        .map(|t| t.reshape(shape.clone()))
        .collect::<Result<Vec<Tensor>, _>>()?;
    Ok(TwoDimOutput {
        outputs,
        time: y_ag,
        breakdown: TwoDimBreakdown {
            y_reduce_scatter: y_rs - SimTime::ZERO,
            x_reduce_scatter: x_rs - y_rs,
            x_all_gather: x_ag - x_rs,
            y_all_gather: y_ag - x_ag,
        },
    })
}

/// The whole 2-D summation: [`two_dim_reduce_scatter`] and
/// [`two_dim_all_gather`] back to back on one wire, with nothing between
/// them. Every chip ends with the sum over its replica group.
///
/// The last argument is always `None` (its type has no value). To update
/// shards between the halves — weight-update sharding — call the halves.
///
/// # Errors
///
/// See [`two_dim_reduce_scatter`].
pub fn two_dim_all_reduce(
    net: &mut Network,
    inputs: &[Tensor],
    precision: Precision,
    model_stride: u32,
    _shard_update: Option<Infallible>,
) -> Result<TwoDimOutput, CollectiveError> {
    let reduced = two_dim_reduce_scatter(net, inputs, precision, model_stride)?;
    two_dim_all_gather(net, reduced, precision, model_stride)
}

fn check_participants(mesh: &Multipod, inputs: usize) -> Result<(), CollectiveError> {
    if inputs != mesh.num_chips() {
        return Err(CollectiveError::ParticipantMismatch {
            inputs,
            members: mesh.num_chips(),
        });
    }
    Ok(())
}

/// The Y rings, one per column.
fn y_rings(mesh: &Multipod) -> impl Iterator<Item = Ring> + '_ {
    (0..mesh.x_len()).map(|x| mesh.y_ring(x))
}

/// The X lines, `model_stride` interleaved ones per row.
fn x_rings(mesh: &Multipod, model_stride: u32) -> impl Iterator<Item = Ring> + '_ {
    (0..mesh.y_len()).flat_map(move |y| {
        (0..model_stride).map(move |offset| mesh.x_line_strided(y, offset, model_stride))
    })
}
/// The ring collective one phase of the 2-D schedule runs.
#[derive(Clone, Copy)]
enum RingOp {
    /// [`ring::reduce_scatter`]: each member keeps one reduced shard.
    Scatter,
    /// [`ring::all_gather`]: each member ends with every shard.
    Gather,
}

/// Runs `op` over every ring of one phase, all issued at `start`, replacing
/// each member's tensor in `state` (chip-id order) with its result, and
/// returns when the slowest ring finishes. Rings run in iteration order, so
/// the order fixes link contention and trace order. A ring of fewer than
/// two members communicates nothing: its tensor passes through untouched.
fn phase(
    net: &mut Network,
    rings: impl Iterator<Item = Ring>,
    state: &mut [Tensor],
    op: RingOp,
    precision: Precision,
    start: SimTime,
) -> Result<SimTime, CollectiveError> {
    let mut end = start;
    for ring in rings {
        if ring.len() < 2 {
            continue;
        }
        let members: Vec<Tensor> = ring
            .members()
            .iter()
            .map(|c| state[c.index()].clone())
            .collect();
        let forward = Direction::Forward;
        let (results, time) = match op {
            RingOp::Scatter => {
                let rs = ring::reduce_scatter(net, &ring, &members, precision, forward, start)?;
                (rs.shards, rs.time)
            }
            RingOp::Gather => {
                let ag = ring::all_gather(net, &ring, &members, precision, forward, start)?;
                (ag.outputs, ag.time)
            }
        };
        for (member, result) in ring.members().iter().zip(results) {
            state[member.index()] = result;
        }
        end = end.max(time);
    }
    Ok(end)
}

/// The index of the (flattened) payload chunk that `chip` owns between
/// the halves, [`two_dim_reduce_scatter`] and [`two_dim_all_gather`] —
/// i.e. which slice of `payload.split(0, shards)` the chip's shard is.
/// Total shards = `y_len × (x_len / model_stride)`.
///
/// # Errors
///
/// [`CollectiveError::InvalidModelStride`] when `model_stride` is zero or
/// does not divide the mesh X extent.
pub fn shard_index(
    mesh: &Multipod,
    chip: ChipId,
    model_stride: u32,
) -> Result<usize, CollectiveError> {
    check_stride(mesh, model_stride)?;
    // What `two_dim_reduce_scatter`'s forward reduce-scatters leave member
    // `i` of an `n`-ring holding (chunk 0 of 1 when the ring is trivial).
    let owned =
        |n: usize, i: usize| Schedule::new(n, Direction::Forward).map_or(0, |s| s.owned_chunk(i));
    let c = mesh.coord_of(chip);
    let x_members = (mesh.x_len() / model_stride) as usize;
    let y_chunk = owned(mesh.y_len() as usize, c.y as usize);
    let x_chunk = owned(x_members, (c.x / model_stride) as usize);
    Ok(y_chunk * x_members + x_chunk)
}

/// A model-parallel tile width must cut the X extent into whole tiles:
/// zero would leave no X rings at all (the X phases silently skipped), a
/// non-divisor has no strided line.
fn check_stride(mesh: &Multipod, model_stride: u32) -> Result<(), CollectiveError> {
    let x_len = mesh.x_len();
    if model_stride == 0 || !x_len.is_multiple_of(model_stride) {
        return Err(CollectiveError::InvalidModelStride {
            stride: model_stride,
            x_len,
        });
    }
    Ok(())
}

/// α–β time for the 2-D all-reduce of `elems` gradient elements per
/// replica, with optional model-parallel stride.
///
/// Matches the schedule of [`two_dim_all_reduce`] but uses bidirectional
/// rings (the production configuration) and never materializes tensors.
///
/// # Errors
///
/// [`CollectiveError::InvalidModelStride`] when `model_stride` is zero or
/// does not divide the mesh X extent. Otherwise see
/// [`RingCosts::from_ring`]: an unroutable ring hop (degraded mesh)
/// surfaces as a typed [`CollectiveError`].
pub fn two_dim_all_reduce_time(
    net: &Network,
    elems: usize,
    precision: Precision,
    model_stride: u32,
) -> Result<TwoDimBreakdown, CollectiveError> {
    let (y_costs, x_costs) = ring_costs(net, model_stride)?;
    Ok(breakdown(net, &y_costs, &x_costs, elems, precision))
}

/// α–β costs of the Y ring and of the `model_stride`-strided X line.
fn ring_costs(net: &Network, model_stride: u32) -> Result<(RingCosts, RingCosts), CollectiveError> {
    let mesh = net.mesh();
    check_stride(mesh, model_stride)?;
    let y_costs = RingCosts::from_ring(net, &mesh.y_ring(0), 1)?;
    let x_ring = mesh.x_line_strided(0, 0, model_stride);
    let x_costs = RingCosts::from_ring(net, &x_ring, model_stride)?;
    Ok((y_costs, x_costs))
}

/// One Y-then-X pass over `elems` elements on bidirectional rings.
fn breakdown(
    net: &Network,
    y_costs: &RingCosts,
    x_costs: &RingCosts,
    elems: usize,
    precision: Precision,
) -> TwoDimBreakdown {
    let x_elems = elems.div_ceil(net.mesh().y_len().max(1) as usize);
    TwoDimBreakdown {
        y_reduce_scatter: y_costs.reduce_scatter_time(elems, precision, true),
        x_reduce_scatter: x_costs.reduce_scatter_time(x_elems, precision, true),
        x_all_gather: x_costs.all_gather_time(x_elems, precision, true),
        y_all_gather: y_costs.all_gather_time(elems, precision, true),
    }
}

/// Splits `elems` into `buckets` near-equal chunks: the first
/// `elems % buckets` buckets get one extra element. Every bucket is
/// non-empty only while `buckets <= elems`; trailing buckets of an
/// over-split payload are zero-sized (and cost only the per-phase α).
pub fn bucket_sizes(elems: usize, buckets: usize) -> Vec<usize> {
    let buckets = buckets.max(1);
    let base = elems / buckets;
    let extra = elems % buckets;
    (0..buckets)
        .map(|i| base + usize::from(i < extra))
        .collect()
}

/// α–β times for a **bucketed** 2-D all-reduce: the gradient payload is
/// split into `buckets` chunks (see [`bucket_sizes`]) and each chunk runs
/// the full Y-then-X schedule on its own. This is the chunked schedule
/// the deferred task-graph runtime overlaps with backprop — bucket `i`
/// can start its Y reduce-scatter as soon as backprop has produced the
/// gradients of the layers in bucket `i`, instead of waiting for the
/// whole backward pass.
///
/// More buckets mean more α (per-phase latency) cost: the bucket times
/// sum to at least the single-shot [`two_dim_all_reduce_time`], and the
/// gap grows with the bucket count. The payoff is overlap, not raw
/// collective speed.
///
/// # Errors
///
/// See [`two_dim_all_reduce_time`].
pub fn bucketed_two_dim_all_reduce_time(
    net: &Network,
    elems: usize,
    precision: Precision,
    model_stride: u32,
    buckets: usize,
) -> Result<Vec<TwoDimBreakdown>, CollectiveError> {
    let (y_costs, x_costs) = ring_costs(net, model_stride)?;
    Ok(bucket_sizes(elems, buckets)
        .into_iter()
        .map(|bucket_elems| breakdown(net, &y_costs, &x_costs, bucket_elems, precision))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::NetworkConfig;
    use multipod_tensor::{Shape, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};

    fn setup(x: u32, y: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(x, y, true)),
            NetworkConfig::tpu_v3(),
        )
    }

    fn random_inputs(n: usize, elems: usize, seed: u64) -> Vec<Tensor> {
        let mut rng = TensorRng::seed(seed);
        (0..n)
            .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
            .collect()
    }

    #[test]
    fn data_parallel_sum_over_all_chips() {
        let mut net = setup(4, 4);
        let n = net.mesh().num_chips();
        let ins = random_inputs(n, 64, 7);
        let reference = Tensor::sum_all(&ins).unwrap();
        let out = two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
        for (i, o) in out.outputs.iter().enumerate() {
            assert!(o.max_abs_diff(&reference) < 1e-4, "chip {i}");
        }
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn phases_are_ordered_and_positive() {
        let mut net = setup(4, 4);
        let n = net.mesh().num_chips();
        let ins = random_inputs(n, 64, 8);
        let out = two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
        let b = out.breakdown;
        assert!(b.y_reduce_scatter > 0.0);
        assert!(b.x_reduce_scatter > 0.0);
        assert!(b.x_all_gather > 0.0);
        assert!(b.y_all_gather > 0.0);
        assert!((b.total() - out.time.seconds()).abs() < 1e-9);
    }

    #[test]
    fn model_parallel_groups_sum_separately() {
        // 8 chips wide, stride 2: even-x chips form one replica group,
        // odd-x the other.
        let mut net = setup(8, 4);
        let mesh = net.mesh().clone();
        let n = mesh.num_chips();
        let ins = random_inputs(n, 32, 9);
        let out = two_dim_all_reduce(&mut net, &ins, Precision::F32, 2, None).unwrap();
        for offset in 0..2u32 {
            let group: Vec<Tensor> = mesh
                .chips()
                .filter(|&c| mesh.coord_of(c).x % 2 == offset)
                .map(|c| ins[c.index()].clone())
                .collect();
            let reference = Tensor::sum_all(&group).unwrap();
            for chip in mesh.chips().filter(|&c| mesh.coord_of(c).x % 2 == offset) {
                assert!(
                    out.outputs[chip.index()].max_abs_diff(&reference) < 1e-4,
                    "chip {chip}"
                );
            }
        }
    }

    #[test]
    fn shard_index_names_the_owned_slice() {
        // A chip's reduced shard must equal payload.split(shards)[shard_index].
        let mut net = setup(4, 4);
        let mesh = net.mesh().clone();
        let n = mesh.num_chips();
        let ins = random_inputs(n, 64, 12);
        let reference = Tensor::sum_all(&ins).unwrap();
        let expected = reference.split(0, n).unwrap();
        let reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, 1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for chip in mesh.chips() {
            let idx = shard_index(&mesh, chip, 1).unwrap();
            assert!(
                reduced.shards[chip.index()].max_abs_diff(&expected[idx]) < 1e-4,
                "chip {chip} does not own shard {idx}"
            );
            assert!(seen.insert(idx), "shard {idx} owned twice");
        }
        assert_eq!(seen.len(), n);
    }

    #[test]
    fn shard_index_agrees_with_the_owner_the_executor_observes() {
        // Every chip contributes the ramp 0, 1, 2, …, so position `p` of a
        // replica group's sum is `group × p` exactly and a shard's first
        // element names where in the payload it was cut from.
        for (x, y, stride) in [(4u32, 4u32, 1u32), (8, 2, 1), (8, 4, 2)] {
            let mut net = setup(x, y);
            let mesh = net.mesh().clone();
            let shards = (y * x / stride) as usize;
            let group = (mesh.num_chips() / stride as usize) as f32;
            let elems = 3 * shards;
            let ramp = Tensor::new(Shape::vector(elems), (0..elems).map(|p| p as f32).collect());
            let ins = vec![ramp; mesh.num_chips()];
            let reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, stride).unwrap();
            let mut seen = vec![0u32; shards];
            for chip in mesh.chips() {
                let shard = &reduced.shards[chip.index()];
                assert_eq!(shard.len(), elems / shards);
                let observed = (shard.data()[0] / group) as usize / shard.len();
                let named = shard_index(&mesh, chip, stride).unwrap();
                assert_eq!(named, observed, "chip {chip}");
                seen[observed] += 1;
            }
            // One owner per shard in each of the `stride` replica groups.
            assert!(
                seen.iter().all(|&owners| owners == stride),
                "{x}x{y}/{stride}"
            );
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn f32_outputs_are_identical_and_shared_along_y() {
        let mut net = setup(8, 4);
        let mesh = net.mesh().clone();
        let ins = random_inputs(mesh.num_chips(), 128, 21);
        let mut outputs = two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None)
            .unwrap()
            .outputs;
        for o in &outputs {
            assert_eq!(bits(o), bits(&outputs[0]));
        }
        let column: Vec<usize> = mesh.y_ring(3).members().iter().map(|c| c.index()).collect();
        for &i in &column[1..] {
            assert!(outputs[i].shares_storage(&outputs[column[0]]));
        }
        // Copy-on-write: a write through one handle detaches it and is
        // invisible to its ring-mates.
        let before = bits(&outputs[column[1]]);
        outputs[column[0]].data_mut()[0] += 1.0;
        assert!(!outputs[column[0]].shares_storage(&outputs[column[1]]));
        for &i in &column[1..] {
            assert_eq!(bits(&outputs[i]), before);
        }
    }

    /// The 2-D schedule driven through the seed ring executor.
    fn oracle_two_dim(
        net: &mut Network,
        inputs: &[Tensor],
        precision: Precision,
    ) -> (Vec<Tensor>, SimTime) {
        let mesh = net.mesh().clone();
        let y_rings: Vec<Ring> = (0..mesh.x_len()).map(|x| mesh.y_ring(x)).collect();
        let x_rings: Vec<Ring> = (0..mesh.y_len()).map(|y| mesh.x_line(y)).collect();
        let mut state = inputs.to_vec();
        let mut t = SimTime::ZERO;
        let fwd = Direction::Forward;
        for (rings, scatter) in [
            (&y_rings, true),
            (&x_rings, true),
            (&x_rings, false),
            (&y_rings, false),
        ] {
            let mut end = t;
            for ring in rings {
                let members: Vec<Tensor> = ring
                    .members()
                    .iter()
                    .map(|c| state[c.index()].clone())
                    .collect();
                let (results, time) = if scatter {
                    let rs = ring::oracle::reduce_scatter(net, ring, &members, precision, fwd, t);
                    let rs = rs.unwrap();
                    (rs.shards, rs.time)
                } else {
                    let ag = ring::oracle::all_gather(net, ring, &members, precision, fwd, t);
                    let ag = ag.unwrap();
                    (ag.outputs, ag.time)
                };
                for (member, result) in ring.members().iter().zip(results) {
                    state[member.index()] = result;
                }
                end = end.max(time);
            }
            t = end;
        }
        (state, t)
    }

    #[test]
    fn bf16_outputs_match_the_seed_executor_bit_for_bit() {
        // A gather rounds the owner's own shard as it places it, so every
        // chip ends with the same bits — and they are the bits the seed
        // executor gets by moving every chunk hop by hop.
        let ins = random_inputs(32, 128, 22);
        let mut net = setup(8, 4);
        let out = two_dim_all_reduce(&mut net, &ins, Precision::Bf16, 1, None).unwrap();
        let (want, want_time) = oracle_two_dim(&mut setup(8, 4), &ins, Precision::Bf16);
        assert_eq!(out.time, want_time);
        for (got, want) in out.outputs.iter().zip(&want) {
            assert_eq!(bits(got), bits(want));
            assert_eq!(bits(got), bits(&out.outputs[0]), "replicas must agree");
        }
    }

    #[test]
    fn bf16_replica_groups_agree_bit_for_bit_and_share_storage_along_y() {
        // 8 wide, stride 2: even-x and odd-x chips are separate replica
        // groups, each of which must leave with one answer.
        let mut net = setup(8, 4);
        let mesh = net.mesh().clone();
        let ins = random_inputs(mesh.num_chips(), 128, 23);
        let out = two_dim_all_reduce(&mut net, &ins, Precision::Bf16, 2, None).unwrap();
        for chip in mesh.chips() {
            // Chips (0, 0) and (1, 0) lead the two groups.
            let first = (mesh.coord_of(chip).x % 2) as usize;
            assert_eq!(
                bits(&out.outputs[chip.index()]),
                bits(&out.outputs[first]),
                "chip {chip} against its group's first"
            );
        }
        assert_ne!(bits(&out.outputs[0]), bits(&out.outputs[1]));
        for x in 0..mesh.x_len() {
            let column = mesh.y_ring(x);
            let first = &out.outputs[column.members()[0].index()];
            for chip in column.members() {
                assert!(out.outputs[chip.index()].shares_storage(first), "{chip}");
            }
        }
    }

    /// Scales every chip's reduced shard by `factor` between the halves.
    fn scale_shards(reduced: &mut TwoDimShards, factor: f32) {
        for shard in &mut reduced.shards {
            *shard = shard.scale(factor);
        }
    }

    #[test]
    fn bf16_replicas_agree_after_a_sharded_weight_update() {
        // WUS on a bf16 wire: the owner updates its f32 shard, and the
        // broadcast half must still hand every chip the same weights.
        let mut net = setup(4, 4);
        let n = net.mesh().num_chips();
        let ins = random_inputs(n, 64, 24);
        let reference = Tensor::sum_all(&ins).unwrap().scale(2.0);
        let mut reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::Bf16, 1).unwrap();
        scale_shards(&mut reduced, 2.0);
        let out = two_dim_all_gather(&mut net, reduced, Precision::Bf16, 1).unwrap();
        for o in &out.outputs {
            assert_eq!(bits(o), bits(&out.outputs[0]));
        }
        assert!(out.outputs[0].max_abs_diff(&reference) < 0.25);
    }

    #[test]
    fn an_f32_all_gather_after_a_bf16_reduce_scatter_rounds_no_shard() {
        // The trainer's wire: gradients sum over bf16, the updated f32
        // shards come back over f32, so every chip holds every owner's
        // shard exactly as the owner left it.
        let mut net = setup(4, 4);
        let mesh = net.mesh().clone();
        let ins = random_inputs(mesh.num_chips(), 64, 26);
        let reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::Bf16, 1).unwrap();
        let mut in_shard_order = reduced.shards.clone();
        for chip in mesh.chips() {
            let s = shard_index(&mesh, chip, 1).unwrap();
            in_shard_order[s] = reduced.shards[chip.index()].clone();
        }
        let want = Tensor::concat(&in_shard_order, 0).unwrap();
        assert_ne!(
            want,
            want.to_bf16_precision(),
            "the owners' sums are not bf16 values"
        );
        let out = two_dim_all_gather(&mut net, reduced, Precision::F32, 1).unwrap();
        for o in &out.outputs {
            assert_eq!(bits(o), bits(&want));
        }
    }

    #[test]
    fn model_stride_must_divide_the_x_extent() {
        let mut net = setup(8, 2);
        let mesh = net.mesh().clone();
        let ins = random_inputs(mesh.num_chips(), 32, 25);
        for stride in [0u32, 3, 16] {
            let bad = CollectiveError::InvalidModelStride { stride, x_len: 8 };
            let numeric = two_dim_all_reduce(&mut net, &ins, Precision::F32, stride, None);
            assert_eq!(numeric.unwrap_err(), bad);
            let reduce = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, stride);
            assert_eq!(reduce.unwrap_err(), bad);
            let reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, 1).unwrap();
            let gather = two_dim_all_gather(&mut net, reduced, Precision::F32, stride);
            assert_eq!(gather.unwrap_err(), bad);
            let timed = two_dim_all_reduce_time(&net, 1 << 10, Precision::F32, stride);
            assert_eq!(timed.unwrap_err(), bad);
            let bucketed =
                bucketed_two_dim_all_reduce_time(&net, 1 << 10, Precision::F32, stride, 4);
            assert_eq!(bucketed.unwrap_err(), bad);
            assert_eq!(shard_index(&mesh, ChipId(0), stride).unwrap_err(), bad);
        }
        for stride in [1u32, 2, 4, 8] {
            assert!(two_dim_all_reduce(&mut net, &ins, Precision::F32, stride, None).is_ok());
            assert!(shard_index(&mesh, ChipId(5), stride).is_ok());
        }
    }

    #[test]
    fn shard_update_is_applied_everywhere() {
        // Updating each shard (scale by 2) must yield 2 * sum at every chip:
        // exactly the weight-update-sharding dataflow of §3.2.
        let mut net = setup(4, 4);
        let n = net.mesh().num_chips();
        let ins = random_inputs(n, 64, 10);
        let reference = Tensor::sum_all(&ins).unwrap().scale(2.0);
        let mut reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, 1).unwrap();
        scale_shards(&mut reduced, 2.0);
        let out = two_dim_all_gather(&mut net, reduced, Precision::F32, 1).unwrap();
        for o in &out.outputs {
            assert!(o.max_abs_diff(&reference) < 1e-4);
        }
    }

    #[test]
    fn x_dimension_carries_y_len_times_less_payload() {
        // §3.3 verbatim: "the payload transferred along the X-dimension is
        // 32 times less than the data transferred along the Y-dimension."
        // On this 8-row mesh the factor is y_len = 8; the simulator's
        // per-link byte counters measure it directly.
        let mut net = setup(8, 8);
        let n = net.mesh().num_chips();
        let ins = random_inputs(n, 1 << 12, 3);
        net.clear_traffic_stats();
        two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
        let (x_bytes, y_bytes) = net.traffic_by_dimension();
        let ratio = y_bytes as f64 / x_bytes as f64;
        // The logical payload ratio is y_len = 8. Physical X-link bytes
        // are inflated up to ~2x because the open X chain's logical wrap
        // edge re-crosses the whole row (the torus Y wrap is free), so
        // the measured link-byte ratio sits between y_len/2 and y_len.
        assert!(
            (4.0..11.0).contains(&ratio),
            "expected ~{}x more Y traffic, got {ratio} ({y_bytes} vs {x_bytes})",
            net.mesh().y_len()
        );
    }

    #[test]
    fn timing_layer_x_phase_is_latency_bound() {
        let net = Network::new(
            Multipod::new(MultipodConfig::multipod(4)),
            NetworkConfig::tpu_v3(),
        );
        // ResNet-50-sized payload: the Y phase dominates on bytes, the X
        // phase is dominated by its 127 latency-bound line steps. Together
        // they land in the low-millisecond range the paper's Fig. 6
        // breakdown implies (~3 ms all-reduce at 4096 chips).
        let b = two_dim_all_reduce_time(&net, 25_600_000, Precision::F32, 1).unwrap();
        assert!(b.total() > 1e-3 && b.total() < 8e-3, "total={}", b.total());
        // Doubling payload moves Y but barely moves X.
        let b2 = two_dim_all_reduce_time(&net, 51_200_000, Precision::F32, 1).unwrap();
        assert!(b2.y_reduce_scatter > 1.8 * b.y_reduce_scatter);
        assert!(b2.x_reduce_scatter < 1.2 * b.x_reduce_scatter);
    }

    #[test]
    fn timing_layer_strided_rings_pay_contention() {
        // Hold the ring membership fixed (32 members) and compare a dense
        // ring against a stride-4 peer ring whose 4 offset copies share the
        // same X links: the strided ring must be slower per §3.3's
        // communication-overhead discussion.
        let wide = Network::new(
            Multipod::new(MultipodConfig::mesh(128, 1, false)),
            NetworkConfig::tpu_v3(),
        );
        let narrow = Network::new(
            Multipod::new(MultipodConfig::mesh(32, 1, false)),
            NetworkConfig::tpu_v3(),
        );
        let strided = RingCosts::from_ring(&wide, &wide.mesh().x_line_strided(0, 0, 4), 4).unwrap();
        let dense = RingCosts::from_ring(&narrow, &narrow.mesh().x_line(0), 1).unwrap();
        assert_eq!(strided.n, dense.n);
        let elems = 1 << 24; // bandwidth-dominated
        let t_strided = strided.all_reduce_time(elems, Precision::Bf16, true);
        let t_dense = dense.all_reduce_time(elems, Precision::Bf16, true);
        assert!(
            t_strided > 2.0 * t_dense,
            "strided={t_strided} dense={t_dense}"
        );
    }

    #[test]
    fn rejects_wrong_input_count() {
        let mut net = setup(2, 2);
        let ins = random_inputs(3, 16, 1);
        assert!(matches!(
            two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None),
            Err(CollectiveError::ParticipantMismatch { .. })
        ));
        let ins = random_inputs(4, 16, 1);
        let mut reduced = two_dim_reduce_scatter(&mut net, &ins, Precision::F32, 1).unwrap();
        reduced.shards.pop();
        assert!(matches!(
            two_dim_all_gather(&mut net, reduced, Precision::F32, 1),
            Err(CollectiveError::ParticipantMismatch { .. })
        ));
    }

    #[test]
    fn numeric_and_timing_layers_agree_on_shape() {
        // Same mesh, same payload: the α–β total should be within a small
        // factor of the numeric barrier-step simulation (they model the
        // same schedule with different synchronization assumptions).
        let mut net = setup(8, 8);
        let n = net.mesh().num_chips();
        let elems = 1 << 14;
        let ins = random_inputs(n, elems, 11);
        let numeric = two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
        let fresh = setup(8, 8);
        let analytic = two_dim_all_reduce_time(&fresh, elems, Precision::F32, 1).unwrap();
        let ratio = numeric.time.seconds() / analytic.total();
        assert!(
            (0.3..6.0).contains(&ratio),
            "numeric={} analytic={} ratio={ratio}",
            numeric.time.seconds(),
            analytic.total()
        );
    }

    #[test]
    fn bucket_sizes_partition_the_payload() {
        assert_eq!(bucket_sizes(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(bucket_sizes(8, 1), vec![8]);
        assert_eq!(bucket_sizes(2, 4), vec![1, 1, 0, 0]);
        assert_eq!(bucket_sizes(0, 3), vec![0, 0, 0]);
        // buckets = 0 is clamped to one bucket, never a division by zero.
        assert_eq!(bucket_sizes(5, 0), vec![5]);
        for (elems, buckets) in [(25_600_000usize, 7usize), (13, 13), (1, 64)] {
            let sizes = bucket_sizes(elems, buckets);
            assert_eq!(sizes.iter().sum::<usize>(), elems);
            assert_eq!(sizes.len(), buckets);
        }
    }

    #[test]
    fn one_bucket_matches_the_single_shot_schedule() {
        let net = setup(16, 8);
        let single = two_dim_all_reduce_time(&net, 1 << 20, Precision::F32, 1).unwrap();
        let bucketed =
            bucketed_two_dim_all_reduce_time(&net, 1 << 20, Precision::F32, 1, 1).unwrap();
        assert_eq!(bucketed.len(), 1);
        assert_eq!(bucketed[0], single);
    }

    #[test]
    fn bucketing_pays_alpha_but_stays_close() {
        let net = setup(32, 16);
        // BERT-scale payload: bandwidth dominates, so bucket α stays small.
        let elems = 334_000_000;
        let single = two_dim_all_reduce_time(&net, elems, Precision::F32, 1)
            .unwrap()
            .total();
        let mut prev_sum = single;
        for buckets in [2usize, 8, 32] {
            let sum: f64 =
                bucketed_two_dim_all_reduce_time(&net, elems, Precision::F32, 1, buckets)
                    .unwrap()
                    .iter()
                    .map(TwoDimBreakdown::total)
                    .sum();
            // More buckets cost more α (the sum grows monotonically with
            // the bucket count) but stay within a small multiple of the
            // single shot — the overlap win must not be eaten by latency.
            assert!(sum >= prev_sum - 1e-12, "buckets={buckets}");
            assert!(
                sum < 2.0 * single,
                "buckets={buckets} sum={sum} single={single}"
            );
            prev_sum = sum;
        }
    }

    #[test]
    fn bucketed_respects_model_stride() {
        let net = setup(16, 8);
        let rows = bucketed_two_dim_all_reduce_time(&net, 1 << 18, Precision::Bf16, 4, 4).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            assert!(r.total() > 0.0);
        }
    }
}
