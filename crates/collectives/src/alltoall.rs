//! All-to-all exchange.
//!
//! DLRM's partitioned embedding tables answer lookups with an all-to-all
//! (each chip sends every other chip the rows it owns for that chip's
//! samples, §4.6); GShard-style sparse models use the same primitive
//! (§4.3 contrasts the Transformer's dense sharding with it). Unlike the
//! ring collectives, all-to-all is **bisection-bound** on a mesh: every
//! payload crosses the cut, so time scales with total bytes over bisection
//! bandwidth rather than per-ring payload.

use multipod_simnet::{Network, SimTime};
use multipod_tensor::Tensor;
use multipod_topology::ChipId;

use multipod_trace::{SpanCategory, SpanEvent};

use crate::ring::CollectiveOutput;
use crate::{chip_track, CollectiveError, Precision};

/// All-to-all over `chips`: participant `i` supplies `inputs[i]`, a
/// tensor whose axis 0 splits into `n` equal blocks; block `j` of
/// participant `i` travels to participant `j`. Participant `j` ends with
/// the concatenation of block `j` from every participant (in participant
/// order).
///
/// Every pairwise message is routed and timed on the network, so mesh
/// bisection contention emerges from link occupancy rather than a formula.
///
/// # Errors
///
/// Fails on participant/shape mismatches, blocks that do not divide, or
/// unroutable messages.
pub fn all_to_all(
    net: &mut Network,
    chips: &[ChipId],
    inputs: &[Tensor],
    precision: Precision,
    start: SimTime,
) -> Result<CollectiveOutput, CollectiveError> {
    let n = chips.len();
    if inputs.len() != n || n == 0 {
        return Err(CollectiveError::ParticipantMismatch {
            inputs: inputs.len(),
            members: n,
        });
    }
    if inputs.iter().any(|t| t.shape() != inputs[0].shape()) {
        return Err(CollectiveError::ShapeDisagreement);
    }
    // Split every input into n blocks along axis 0.
    let blocks: Vec<Vec<Tensor>> = inputs
        .iter()
        .map(|t| t.split(0, n).map_err(CollectiveError::from))
        .collect::<Result<_, _>>()?;
    let block_elems = blocks[0][0].len();
    let block_bytes = precision.wire_bytes(block_elems);

    // Timing: all pairwise messages are issued at `start`; the network's
    // per-link occupancy serializes whatever shares links.
    let mut messages = Vec::with_capacity(n * (n - 1));
    for (i, &src) in chips.iter().enumerate() {
        for (j, &dst) in chips.iter().enumerate() {
            if i != j {
                messages.push((src, dst, block_bytes));
            }
        }
    }
    let time = if messages.is_empty() {
        start
    } else {
        net.parallel_transfers(&messages, start)?
    };
    if !messages.is_empty() {
        net.obs().span(|| {
            SpanEvent::new(
                chip_track(net, chips[0]),
                SpanCategory::Collective,
                "all-to-all",
                start,
                time,
            )
            .with_bytes(messages.len() as u64 * block_bytes)
            .with_arg("members", n as f64)
        });
    }

    // Numerics: participant j receives block j from everyone.
    let outputs = (0..n)
        .map(|j| {
            let mine: Vec<Tensor> = (0..n).map(|i| precision.quantize(&blocks[i][j])).collect();
            Tensor::concat(&mine, 0).map_err(CollectiveError::from)
        })
        .collect::<Result<_, _>>()?;
    Ok(CollectiveOutput { outputs, time })
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::NetworkConfig;
    use multipod_tensor::{Shape, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};

    fn setup(x: u32, y: u32) -> (Network, Vec<ChipId>) {
        let mesh = Multipod::new(MultipodConfig::mesh(x, y, true));
        let net = Network::new(mesh, NetworkConfig::tpu_v3());
        let chips = net.mesh().chips().collect();
        (net, chips)
    }

    #[test]
    fn transposes_blocks_across_participants() {
        let (mut net, chips) = setup(2, 2);
        // Participant i's tensor: 4 blocks of 2 elems, block j = 10*i + j.
        let inputs: Vec<Tensor> = (0..4)
            .map(|i| {
                let data: Vec<f32> = (0..4).flat_map(|j| vec![(10 * i + j) as f32; 2]).collect();
                Tensor::new(Shape::vector(8), data)
            })
            .collect();
        let out = all_to_all(&mut net, &chips, &inputs, Precision::F32, SimTime::ZERO).unwrap();
        // Participant j holds [block j of 0, block j of 1, ...].
        for j in 0..4 {
            let expect: Vec<f32> = (0..4).flat_map(|i| vec![(10 * i + j) as f32; 2]).collect();
            assert_eq!(out.outputs[j].data(), &expect[..], "participant {j}");
        }
        assert!(out.time > SimTime::ZERO);
    }

    #[test]
    fn all_to_all_is_its_own_inverse() {
        let (mut net, chips) = setup(4, 2);
        let n = chips.len();
        let mut rng = TensorRng::seed(3);
        let inputs: Vec<Tensor> = (0..n)
            .map(|_| rng.uniform(Shape::vector(n * 3), -1.0, 1.0))
            .collect();
        let once = all_to_all(&mut net, &chips, &inputs, Precision::F32, SimTime::ZERO).unwrap();
        net.reset();
        let twice = all_to_all(
            &mut net,
            &chips,
            &once.outputs,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap();
        for (orig, back) in inputs.iter().zip(&twice.outputs) {
            assert_eq!(orig, back);
        }
    }

    #[test]
    fn bigger_meshes_pay_bisection_contention() {
        // Same per-chip payload; the wider mesh funnels more flows across
        // the middle links, so the *aggregate* exchange takes longer per
        // byte delivered.
        let per_chip = 1 << 14;
        let (mut small_net, small_chips) = setup(2, 2);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::fill(Shape::vector(per_chip * 4), 1.0))
            .collect();
        let t_small = all_to_all(
            &mut small_net,
            &small_chips,
            &inputs,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap()
        .time;
        let (mut big_net, big_chips) = setup(4, 4);
        let big_inputs: Vec<Tensor> = (0..16)
            .map(|_| Tensor::fill(Shape::vector(per_chip * 16), 1.0))
            .collect();
        let t_big = all_to_all(
            &mut big_net,
            &big_chips,
            &big_inputs,
            Precision::F32,
            SimTime::ZERO,
        )
        .unwrap()
        .time;
        assert!(t_big > t_small, "big={t_big} small={t_small}");
    }

    #[test]
    fn bf16_halves_exchange_bytes() {
        let (mut net_a, chips) = setup(2, 2);
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| Tensor::fill(Shape::vector(4 * (1 << 14)), 1.0))
            .collect();
        let f32_t = all_to_all(&mut net_a, &chips, &inputs, Precision::F32, SimTime::ZERO)
            .unwrap()
            .time;
        let (mut net_b, chips_b) = setup(2, 2);
        let bf_t = all_to_all(
            &mut net_b,
            &chips_b,
            &inputs,
            Precision::Bf16,
            SimTime::ZERO,
        )
        .unwrap()
        .time;
        assert!(bf_t < f32_t);
    }

    #[test]
    fn validates_inputs() {
        let (mut net, chips) = setup(2, 1);
        let bad = vec![Tensor::zeros(Shape::vector(4))];
        assert!(matches!(
            all_to_all(&mut net, &chips, &bad, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::ParticipantMismatch { .. })
        ));
        let odd = vec![
            Tensor::zeros(Shape::vector(3)),
            Tensor::zeros(Shape::vector(3)),
        ];
        assert!(matches!(
            all_to_all(&mut net, &chips, &odd, Precision::F32, SimTime::ZERO),
            Err(CollectiveError::Tensor(_)) | Err(CollectiveError::IndivisiblePayload { .. })
        ));
    }

    #[test]
    fn single_participant_is_identity() {
        let mesh = Multipod::new(MultipodConfig::mesh(2, 1, false));
        let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
        let chips = vec![ChipId(0)];
        let inputs = vec![Tensor::from_slice(&[1.0, 2.0])];
        let out = all_to_all(&mut net, &chips, &inputs, Precision::F32, SimTime::ZERO).unwrap();
        assert_eq!(out.outputs[0], inputs[0]);
        assert_eq!(out.time, SimTime::ZERO);
    }
}
