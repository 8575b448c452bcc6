//! Halo exchange for spatial partitioning (§3.1).
//!
//! When the SPMD partitioner splits a convolution's inputs along a spatial
//! dimension, each core needs `halo` boundary rows from its spatial
//! neighbours to compute its output tile: "The SPMD partitioner inserts
//! halo exchange communication operations to compute the activations for
//! the next step from spatially partitioned computations."
//!
//! [`halo_exchange`] moves the real boundary slices between neighbouring
//! chips (timed on the network) and pads the global edges with zeros, so a
//! *valid* convolution over each padded tile reproduces a *same*-padded
//! convolution over the unpartitioned input.

use multipod_simnet::{Network, SimTime};
use multipod_tensor::Tensor;
use multipod_topology::ChipId;

use multipod_trace::{SpanCategory, SpanEvent};

use crate::ring::CollectiveOutput;
use crate::{chip_track, CollectiveError, Precision};

/// Exchanges `halo` boundary slices along `axis` between consecutive
/// parts placed on `chips`, returning each part padded with its
/// neighbours' boundaries (zeros at the global edges).
///
/// # Errors
///
/// Fails when part/chip counts mismatch, shapes disagree, a part is
/// shorter than `halo` along `axis`, or a transfer is unroutable.
pub fn halo_exchange(
    net: &mut Network,
    chips: &[ChipId],
    parts: &[Tensor],
    axis: usize,
    halo: usize,
    precision: Precision,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    if chips.len() != parts.len() || parts.is_empty() {
        return Err(CollectiveError::ParticipantMismatch {
            inputs: parts.len(),
            members: chips.len(),
        });
    }
    if parts.iter().any(|p| p.shape() != parts[0].shape()) {
        return Err(CollectiveError::ShapeDisagreement);
    }
    let shape = parts[0].shape();
    if axis >= shape.rank() {
        return Err(CollectiveError::Tensor(
            multipod_tensor::TensorError::AxisOutOfRange {
                axis,
                rank: shape.rank(),
            },
        ));
    }
    let extent = shape.dim(axis);
    if halo > extent {
        return Err(CollectiveError::IndivisiblePayload {
            elems: extent,
            parts: halo,
        });
    }
    let n = parts.len();
    let zeros_halo = Tensor::zeros(shape.with_dim(axis, halo));
    let head = |t: &Tensor| -> Tensor { slice_axis(t, axis, 0, halo) };
    let tail = |t: &Tensor| -> Tensor { slice_axis(t, axis, extent - halo, halo) };

    let mut outputs = Vec::with_capacity(n);
    let mut finish = start;
    let halo_bytes = precision.wire_bytes(zeros_halo.len());
    for i in 0..n {
        let top = if i > 0 {
            // Part i-1's last rows travel to chip i. A zero-width halo
            // puts nothing on the wire, so it costs nothing to exchange.
            if halo_bytes > 0 {
                finish = finish.max(
                    net.transfer(chips[i - 1], chips[i], halo_bytes, start)?
                        .finish,
                );
            }
            precision.quantize(&tail(&parts[i - 1]))
        } else {
            zeros_halo.clone()
        };
        let bottom = if i + 1 < n {
            if halo_bytes > 0 {
                finish = finish.max(
                    net.transfer(chips[i + 1], chips[i], halo_bytes, start)?
                        .finish,
                );
            }
            precision.quantize(&head(&parts[i + 1]))
        } else {
            zeros_halo.clone()
        };
        let padded = Tensor::concat(&[top, parts[i].clone(), bottom], axis)?;
        outputs.push(padded);
    }
    if n > 1 && halo > 0 {
        net.obs().span(|| {
            SpanEvent::new(
                chip_track(net, chips[0]),
                SpanCategory::Collective,
                "halo-exchange",
                start,
                finish,
            )
            .with_bytes(2 * (n as u64 - 1) * halo_bytes)
            .with_arg("members", n as f64)
        });
    }
    Ok(CollectiveOutput {
        outputs,
        time: finish,
    })
}

/// Extracts `len` slices starting at `offset` along `axis` (a strided copy).
fn slice_axis(t: &Tensor, axis: usize, offset: usize, len: usize) -> Tensor {
    let shape = t.shape();
    let extent = shape.dim(axis);
    // True invariant: `halo_exchange` rejects `halo > extent` up front and
    // only calls this with `offset + len <= extent`; a violation is a bug
    // in this module, not a caller-input condition.
    debug_assert!(offset + len <= extent, "slice out of range");
    let outer: usize = shape.dims()[..axis].iter().product();
    let inner: usize = shape.dims()[axis + 1..].iter().product();
    let mut data = Vec::with_capacity(outer * len * inner);
    for o in 0..outer {
        let base = (o * extent + offset) * inner;
        data.extend_from_slice(&t.data()[base..base + len * inner]);
    }
    Tensor::new(shape.with_dim(axis, len), data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::NetworkConfig;
    use multipod_tensor::{Shape, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};

    fn setup(x: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(x, 1, false)),
            NetworkConfig::tpu_v3(),
        )
    }

    /// Reference 1-D "same" convolution with kernel of odd length.
    fn conv1d_same(input: &[f32], kernel: &[f32]) -> Vec<f32> {
        let h = kernel.len() / 2;
        (0..input.len())
            .map(|i| {
                kernel
                    .iter()
                    .enumerate()
                    .map(|(k, &w)| {
                        let j = i as isize + k as isize - h as isize;
                        if j < 0 || j as usize >= input.len() {
                            0.0
                        } else {
                            w * input[j as usize]
                        }
                    })
                    .sum()
            })
            .collect()
    }

    /// Valid 1-D convolution (no padding).
    fn conv1d_valid(input: &[f32], kernel: &[f32]) -> Vec<f32> {
        (0..input.len() + 1 - kernel.len())
            .map(|i| {
                kernel
                    .iter()
                    .enumerate()
                    .map(|(k, &w)| w * input[i + k])
                    .sum()
            })
            .collect()
    }

    #[test]
    fn partitioned_conv_equals_global_conv() {
        let mut net = setup(4);
        let chips: Vec<ChipId> = net.mesh().chips().collect();
        let mut rng = TensorRng::seed(3);
        let global = rng.uniform(Shape::vector(32), -1.0, 1.0);
        let kernel = [0.25f32, 0.5, 0.25];
        let reference = conv1d_same(global.data(), &kernel);

        let parts = global.split(0, 4).unwrap();
        let out = halo_exchange(
            &mut net,
            &chips,
            &parts,
            0,
            1,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap();
        let mut distributed = Vec::new();
        for padded in &out.outputs {
            distributed.extend(conv1d_valid(padded.data(), &kernel));
        }
        assert_eq!(distributed.len(), reference.len());
        for (d, r) in distributed.iter().zip(&reference) {
            assert!((d - r).abs() < 1e-5);
        }
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn rank2_halo_pads_along_requested_axis() {
        let mut net = setup(2);
        let chips: Vec<ChipId> = net.mesh().chips().collect();
        let t = Tensor::new(Shape::of(&[4, 2]), (0..8).map(|i| i as f32).collect());
        let parts = t.split(0, 2).unwrap();
        let out = halo_exchange(
            &mut net,
            &chips,
            &parts,
            0,
            1,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap();
        // Part 0 padded: [zeros ; rows 0..2 ; row 2].
        assert_eq!(out.outputs[0].shape().dims(), &[4, 2]);
        assert_eq!(out.outputs[0].data()[0..2], [0.0, 0.0]);
        assert_eq!(out.outputs[0].data()[6..8], [4.0, 5.0]);
        // Part 1 padded: [row 1 ; rows 2..4 ; zeros].
        assert_eq!(out.outputs[1].data()[0..2], [2.0, 3.0]);
        assert_eq!(out.outputs[1].data()[6..8], [0.0, 0.0]);
    }

    #[test]
    fn neighbor_exchanges_are_concurrent() {
        // All boundary transfers are issued at the same start time over
        // disjoint links, so total time is about one halo transfer.
        let mut net = setup(8);
        let chips: Vec<ChipId> = net.mesh().chips().collect();
        let big = Tensor::fill(Shape::of(&[8 * 1024, 64]), 1.0);
        let parts = big.split(0, 8).unwrap();
        let out = halo_exchange(
            &mut net,
            &chips,
            &parts,
            0,
            8,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap();
        let cfg = net.config();
        let bytes = Precision::F32.wire_bytes(8 * 64) as f64;
        let single = cfg.message_overhead + cfg.hop_latency + bytes / cfg.link_bandwidth;
        assert!(out.time.seconds() < 3.0 * single, "time={}", out.time);
    }

    #[test]
    fn validates_inputs() {
        let mut net = setup(2);
        let chips: Vec<ChipId> = net.mesh().chips().collect();
        let parts = vec![Tensor::zeros(Shape::vector(4))];
        assert!(matches!(
            halo_exchange(
                &mut net,
                &chips,
                &parts,
                0,
                1,
                Precision::F32,
                SimTime::ZERO
            ),
            Err(CollectiveError::ParticipantMismatch { .. })
        ));
        let parts = vec![
            Tensor::zeros(Shape::vector(4)),
            Tensor::zeros(Shape::vector(4)),
        ];
        assert!(matches!(
            halo_exchange(
                &mut net,
                &chips,
                &parts,
                1,
                1,
                Precision::F32,
                SimTime::ZERO
            ),
            Err(CollectiveError::Tensor(_))
        ));
        assert!(matches!(
            halo_exchange(
                &mut net,
                &chips,
                &parts,
                0,
                5,
                Precision::F32,
                SimTime::ZERO
            ),
            Err(CollectiveError::IndivisiblePayload { .. })
        ));
    }

    #[test]
    fn zero_halo_is_identity_with_empty_pads() {
        let mut net = setup(2);
        let chips: Vec<ChipId> = net.mesh().chips().collect();
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0, 4.0]);
        let parts = t.split(0, 2).unwrap();
        let out = halo_exchange(
            &mut net,
            &chips,
            &parts,
            0,
            0,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(out.outputs[0].data(), parts[0].data());
        assert_eq!(out.outputs[1].data(), parts[1].data());
    }
}
