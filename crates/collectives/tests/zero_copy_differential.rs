//! Differential tests for the zero-copy collective hot path.
//!
//! The golden checksums below were captured from the pre-zero-copy seed
//! (`Vec<f32>`-backed tensors, cloned routes, copy-per-hop ring loops)
//! on the exact scenarios encoded here. The copy-on-write refactor must
//! be bit-invisible: same output bits, same simulated-time bits, and a
//! byte-identical Chrome trace export. A failing hash means the refactor
//! changed numerics or event ordering, not just performance.
//!
//! The property tests additionally pin the aliasing contract: collectives
//! may share input storage internally, but caller-held input tensors must
//! be bit-unchanged after every call.

use std::sync::Arc;

use multipod_collectives::{ring, twod, Precision};
use multipod_simnet::{Network, NetworkConfig, SimTime};
use multipod_tensor::{Shape, Tensor, TensorRng};
use multipod_topology::{Multipod, MultipodConfig};
use multipod_trace::{write_chrome_trace, Recorder, TraceSink};
use proptest::prelude::*;

fn fnv1a<I: IntoIterator<Item = u8>>(bytes: I) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hash_tensors(tensors: &[Tensor]) -> u64 {
    fnv1a(
        tensors
            .iter()
            .flat_map(|t| t.data().iter().flat_map(|v| v.to_bits().to_le_bytes())),
    )
}

fn random_inputs(n: usize, elems: usize, seed: u64) -> Vec<Tensor> {
    let mut rng = TensorRng::seed(seed);
    (0..n)
        .map(|_| rng.uniform(Shape::vector(elems), -1.0, 1.0))
        .collect()
}

fn torus(x: u32, y: u32) -> Network {
    Network::new(
        Multipod::new(MultipodConfig::mesh(x, y, true)),
        NetworkConfig::tpu_v3(),
    )
}

/// Deep snapshots for before/after aliasing comparisons.
fn snapshot(tensors: &[Tensor]) -> Vec<Vec<f32>> {
    tensors.iter().map(|t| t.data().to_vec()).collect()
}

fn assert_unmutated(inputs: &[Tensor], before: &[Vec<f32>]) {
    for (i, (t, b)) in inputs.iter().zip(before).enumerate() {
        let same = t
            .data()
            .iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        assert!(same, "input {i} was mutated by the collective");
    }
}

#[test]
fn ring_all_reduce_matches_seed_golden() {
    let mut net = torus(1, 8);
    let ring_y = net.mesh().y_ring(0);
    let ins = random_inputs(8, 1024, 42);
    let before = snapshot(&ins);
    let out = ring::all_reduce(&mut net, &ring_y, &ins, Precision::F32, SimTime::ZERO).unwrap();
    assert_eq!(hash_tensors(&out.outputs), 0x3cb9_56de_cb64_6325);
    assert_eq!(out.time.seconds().to_bits(), 0x3f09_b78a_660d_09b4);
    assert_unmutated(&ins, &before);
}

#[test]
fn twod_all_reduce_f32_matches_seed_golden() {
    let mut net = torus(4, 4);
    let ins = random_inputs(16, 256, 7);
    let before = snapshot(&ins);
    let out = twod::two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
    assert_eq!(hash_tensors(&out.outputs), 0x71d3_3e5e_74c5_c545);
    assert_eq!(out.time.seconds().to_bits(), 0x3f09_2e21_e154_eca8);
    assert_unmutated(&ins, &before);
}

#[test]
fn twod_all_reduce_bf16_matches_seed_golden() {
    let mut net = torus(4, 4);
    let ins = random_inputs(16, 256, 7);
    let out = twod::two_dim_all_reduce(&mut net, &ins, Precision::Bf16, 1, None).unwrap();
    // Re-pinned once, on purpose, from the seed's 0x5a60_304b_71c9_fe0f:
    // a shard's owner used to keep its unrounded f32 copy, so the 16 chips
    // disagreed. This is the hash of 16 copies of the row that 15 of the 16
    // seed chips held at every element — derived from the seed's own outputs.
    assert_eq!(hash_tensors(&out.outputs), 0x1036_bdc3_8e17_9725);
    assert_eq!(out.time.seconds().to_bits(), 0x3f09_2c4a_a932_e87e);
}

#[test]
fn chrome_trace_export_matches_seed_bytes() {
    let mut net = torus(4, 4);
    let recorder = Recorder::shared();
    net.set_obs(multipod_telemetry::Obs::new(
        Some(recorder.clone() as Arc<dyn TraceSink>),
        None,
    ));
    let ins = random_inputs(16, 256, 7);
    twod::two_dim_all_reduce(&mut net, &ins, Precision::F32, 1, None).unwrap();
    let mut text = Vec::new();
    write_chrome_trace(&mut text, &recorder.events()).unwrap();
    assert_eq!(text.len(), 53198, "trace length drifted from the seed");
    assert_eq!(fnv1a(text.iter().copied()), 0xed54_ab1f_9ac2_5e39);
}

#[test]
fn twod_all_reduce_model_stride_matches_seed_golden() {
    let mut net = torus(8, 4);
    let ins = random_inputs(32, 128, 9);
    let before = snapshot(&ins);
    let out = twod::two_dim_all_reduce(&mut net, &ins, Precision::F32, 2, None).unwrap();
    assert_eq!(hash_tensors(&out.outputs), 0xc0d1_4590_16fb_c3c5);
    assert_eq!(out.time.seconds().to_bits(), 0x3f19_2b8e_2c58_8066);
    assert_unmutated(&ins, &before);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For any ring size and either precision, the zero-copy all-reduce
    /// still equals the scalar reference sum and never mutates its
    /// caller-held inputs (the copy-on-write aliasing contract).
    #[test]
    fn all_reduce_is_sum_and_leaves_inputs_untouched(
        y in 2u32..10,
        chunk in 1usize..6,
        seed in 0u64..10_000,
        bf16 in any::<bool>(),
    ) {
        let mut net = torus(1, y);
        let ring_y = net.mesh().y_ring(0);
        // 2·n·chunk elements so the bidirectional split always divides.
        let elems = 2 * chunk * y as usize;
        let ins = random_inputs(y as usize, elems, seed);
        let before = snapshot(&ins);
        let precision = if bf16 { Precision::Bf16 } else { Precision::F32 };
        let reference = Tensor::sum_all(
            &ins.iter().map(|t| precision.quantize(t)).collect::<Vec<_>>(),
        ).unwrap();
        let out = ring::all_reduce(&mut net, &ring_y, &ins, precision, SimTime::ZERO).unwrap();
        let tol = if bf16 { 0.25 } else { 1e-3 };
        for o in &out.outputs {
            prop_assert!(o.max_abs_diff(&reference) < tol);
        }
        assert_unmutated(&ins, &before);
    }

    /// The 2-D summation never mutates caller inputs either, and all
    /// outputs within a replica group are bit-identical to each other.
    #[test]
    fn twod_leaves_inputs_untouched(
        x in 2u32..5,
        y in 2u32..5,
        chunk in 1usize..4,
        seed in 0u64..10_000,
    ) {
        let mut net = torus(x, y);
        let n = net.mesh().num_chips();
        let elems = 2 * chunk * (x * y) as usize;
        let ins = random_inputs(n, elems, seed);
        let before = snapshot(&ins);
        let out = twod::two_dim_all_reduce(
            &mut net, &ins, Precision::F32, 1, None,
        ).unwrap();
        assert_unmutated(&ins, &before);
        for o in &out.outputs {
            prop_assert!(o == &out.outputs[0], "replica outputs must agree bitwise");
        }
    }
}
