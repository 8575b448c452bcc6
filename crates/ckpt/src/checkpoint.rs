//! Sharded checkpoint save and restore, timed on the simulated network.
//!
//! **Save** follows the hardware path a real multipod would use: every
//! live chip owns one shard of the flattened model + optimizer state
//! (mirroring weight-update sharding), shards funnel over ICI to each
//! host's gather chip, and each host streams its shards to host memory
//! over PCIe using the same cost model as the input pipeline. The result
//! is a [`Checkpoint`]: shard payloads plus a content-hashed, versioned
//! [`Manifest`].
//!
//! **Restore** is elastic: the stored shards re-assemble into the global
//! state (pure concatenation — bit-exact regardless of the original
//! shard count) and re-shard onto whatever placement the *surviving*
//! mesh supports. Timing models hosts streaming shards back up over
//! PCIe, routed ICI transfers into a restore root, and a ring broadcast
//! propagating the state to every live chip.

use multipod_collectives::{ring, Precision};
use multipod_optim::{Optimizer, StateKey, StateSlot};
use multipod_simnet::{Network, SimTime};
use multipod_telemetry::{MetricId, Subsystem};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{ChipId, HostId, Ring};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::error::CkptError;
use crate::manifest::{combine_hashes, hash_tensor, Manifest, CKPT_FORMAT_VERSION};
use crate::placement::{ShardPlacement, ShardRange};

/// Host-link cost model for checkpoint streaming: one latency charge per
/// host transfer plus bytes over bandwidth.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PcieCost {
    /// Per-transfer latency, seconds.
    pub latency_seconds: f64,
    /// Host link bandwidth, bytes/second.
    pub bandwidth_bytes_per_sec: f64,
}

impl PcieCost {
    /// The PCIe figures the input pipeline uses for Criteo ingestion
    /// (`DlrmInputConfig::criteo`): 10 µs latency, 12 GB/s.
    pub fn criteo() -> PcieCost {
        let dlrm = multipod_input::dlrm::DlrmInputConfig::criteo();
        PcieCost {
            latency_seconds: dlrm.pcie_latency,
            bandwidth_bytes_per_sec: dlrm.pcie_bandwidth,
        }
    }

    /// Seconds to move `bytes` across the host link.
    pub fn time(&self, bytes: u64) -> f64 {
        self.latency_seconds + bytes as f64 / self.bandwidth_bytes_per_sec
    }
}

impl Default for PcieCost {
    fn default() -> PcieCost {
        PcieCost::criteo()
    }
}

/// The global training state a checkpoint snapshots: weights plus
/// whole-slot optimizer tensors, all flattened.
#[derive(Clone, Debug, PartialEq)]
pub struct StateBundle {
    /// Training step the state belongs to.
    pub step: u64,
    /// Flattened model weights.
    pub weights: Tensor,
    /// Optimizer slots as `(name, global tensor)`, sorted by name. Each
    /// global tensor concatenates the optimizer's per-shard tensors in
    /// shard order.
    pub optim: Vec<(String, Tensor)>,
}

impl StateBundle {
    /// Gathers an optimizer's exported state into whole-slot tensors.
    ///
    /// The trainer keys optimizer state as `{layer: 0, shard: 0..n}`
    /// with one entry per replica, so every slot name must export
    /// exactly `shards` tensors; they concatenate in shard order into
    /// one global tensor per slot.
    ///
    /// # Errors
    ///
    /// [`CkptError::OptimStateMismatch`] when a slot's shard count
    /// disagrees with `shards`.
    pub fn from_optimizer<O: Optimizer>(
        step: u64,
        weights: &Tensor,
        optimizer: &O,
        shards: usize,
    ) -> Result<StateBundle, CkptError> {
        let exported = optimizer.export_state();
        let mut optim: Vec<(String, Tensor)> = Vec::new();
        let mut i = 0;
        while i < exported.len() {
            let name = exported[i].name.clone();
            let group: Vec<&StateSlot> = exported[i..]
                .iter()
                .take_while(|s| s.name == name)
                .collect();
            let count = group.len();
            if count != shards {
                return Err(CkptError::OptimStateMismatch {
                    slot: name,
                    expected_shards: shards,
                    got_shards: count,
                });
            }
            // export_state is (name, key)-sorted, so the group is already
            // in shard order; flatten regardless of per-shard rank (LAMB's
            // step counter exports rank-0 scalars).
            optim.push((name, concat_flat(group.iter().map(|s| s.tensor.data()))));
            i += count;
        }
        Ok(StateBundle {
            step,
            weights: weights.clone(),
            optim,
        })
    }

    /// Scatters the whole-slot tensors back into an optimizer as
    /// `shards` evenly-split state entries (the inverse of
    /// [`StateBundle::from_optimizer`]).
    ///
    /// # Errors
    ///
    /// [`CkptError::Tensor`] when a slot does not split evenly across
    /// `shards` (the trainer always shards state evenly).
    pub fn restore_optimizer<O: Optimizer>(
        &self,
        optimizer: &mut O,
        shards: usize,
    ) -> Result<(), CkptError> {
        let mut slots = Vec::new();
        for (name, global) in &self.optim {
            let parts = global.split(0, shards)?;
            for (s, part) in parts.into_iter().enumerate() {
                slots.push(StateSlot {
                    key: StateKey { layer: 0, shard: s },
                    name: name.clone(),
                    tensor: part,
                });
            }
        }
        optimizer.import_state(&slots);
        Ok(())
    }

    /// Total elements across weights and optimizer slots.
    pub fn total_elems(&self) -> usize {
        self.weights.len() + self.optim.iter().map(|(_, t)| t.len()).sum::<usize>()
    }

    /// Slot names with their global lengths, for the manifest.
    pub fn slot_lens(&self) -> Vec<(String, usize)> {
        self.optim
            .iter()
            .map(|(n, t)| (n.clone(), t.len()))
            .collect()
    }
}

/// One shard's payload: a weight slice plus the matching slice of every
/// optimizer slot.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardData {
    /// The weight range this shard covers.
    pub range: ShardRange,
    /// Weight slice.
    pub weights: Tensor,
    /// Per-slot slices, in bundle slot order.
    pub optim: Vec<(String, Tensor)>,
}

impl ShardData {
    /// Elements in the shard across weights and optimizer slices.
    pub fn elems(&self) -> usize {
        self.weights.len() + self.optim.iter().map(|(_, t)| t.len()).sum::<usize>()
    }

    /// Bytes on the wire / host link for this shard (f32 payloads).
    pub fn bytes(&self) -> u64 {
        4 * self.elems() as u64
    }

    /// Content hash over the shard's payloads, in slot order.
    pub fn hash(&self) -> u64 {
        combine_hashes(
            std::iter::once(hash_tensor(&self.weights))
                .chain(self.optim.iter().map(|(_, t)| hash_tensor(t))),
        )
    }
}

/// A saved checkpoint: manifest plus shard payloads, in shard order.
#[derive(Clone, Debug, PartialEq)]
pub struct Checkpoint {
    /// Integrity and layout metadata.
    pub manifest: Manifest,
    /// Shard payloads, indexed by shard.
    pub shards: Vec<ShardData>,
}

/// What a save cost.
#[derive(Clone, Debug)]
pub struct SaveOutcome {
    /// The checkpoint produced.
    pub checkpoint: Checkpoint,
    /// When the slowest host finished streaming.
    pub finish: SimTime,
    /// Total bytes streamed to hosts.
    pub bytes: u64,
    /// ICI gather portion of the critical path, seconds.
    pub ici_seconds: f64,
    /// PCIe streaming portion of the critical path, seconds.
    pub pcie_seconds: f64,
}

impl SaveOutcome {
    /// Total simulated save cost in seconds.
    pub fn seconds(&self, start: SimTime) -> f64 {
        self.finish - start
    }
}

/// What a restore produced and cost.
#[derive(Clone, Debug)]
pub struct RestoreOutcome {
    /// The re-assembled global state.
    pub bundle: StateBundle,
    /// When the restore broadcast completed on the slowest chip.
    pub finish: SimTime,
    /// Total bytes streamed up from hosts.
    pub bytes: u64,
    /// PCIe portion of the critical path, seconds.
    pub pcie_seconds: f64,
    /// Ring-broadcast portion of the critical path, seconds.
    pub broadcast_seconds: f64,
}

fn shard_slice(bundle: &StateBundle, range: ShardRange, num_shards: usize) -> ShardData {
    let weights = Tensor::from_slice(&bundle.weights.data()[range.start..range.end]);
    let optim = bundle
        .optim
        .iter()
        .map(|(name, global)| {
            let r = range.scaled_to(global.len(), num_shards);
            (
                name.clone(),
                Tensor::from_slice(&global.data()[r.start..r.end]),
            )
        })
        .collect();
    ShardData {
        range,
        weights,
        optim,
    }
}

/// Saves `bundle` as a sharded checkpoint over `placement`, timing the
/// ICI gather and PCIe streaming on `net`.
///
/// # Errors
///
/// [`CkptError::StateSizeMismatch`] when the bundle's weight length
/// disagrees with the placement; [`CkptError::Network`] when a gather
/// route is unavailable on the (possibly degraded) mesh.
pub fn save_checkpoint(
    net: &mut Network,
    placement: &ShardPlacement,
    bundle: &StateBundle,
    pcie: &PcieCost,
    start: SimTime,
) -> Result<SaveOutcome, CkptError> {
    if bundle.weights.len() != placement.elems {
        return Err(CkptError::StateSizeMismatch {
            expected: placement.elems,
            got: bundle.weights.len(),
        });
    }
    net.reset();
    let mut shards: Vec<ShardData> = placement
        .ranges()
        .into_iter()
        .map(|r| shard_slice(bundle, r, placement.num_shards))
        .collect();
    shards.sort_by_key(|s| s.range.index);

    let mut finish = start;
    let mut total_bytes = 0u64;
    let mut ici_seconds = 0.0f64;
    let mut pcie_seconds = 0.0f64;
    for host in &placement.hosts {
        // Funnel every non-gather chip's shard to the host's gather chip
        // over ICI; link occupancy accumulates across hosts, so gathers
        // that share links contend.
        let messages: Vec<(ChipId, ChipId, u64)> = host
            .chips
            .iter()
            .zip(&host.shards)
            .filter(|(chip, range)| **chip != host.gather_chip && !range.is_empty())
            .map(|(chip, range)| (*chip, host.gather_chip, shards[range.index].bytes()))
            .collect();
        let mut gathered = start;
        for (from, to, bytes) in messages {
            match net.transfer(from, to, bytes, start) {
                Ok(t) => gathered = gathered.max(t.finish),
                // A dead row-sibling can leave the gather chip unroutable
                // even though both chips share a host; the shard then
                // streams over the chip's own PCIe lane instead of ICI.
                Err(e) if e.is_no_route() => {}
                Err(e) => return Err(e.into()),
            }
        }
        let host_bytes: u64 = host.shards.iter().map(|r| shards[r.index].bytes()).sum();
        let streamed = gathered + pcie.time(host_bytes);
        total_bytes += host_bytes;
        ici_seconds = ici_seconds.max(gathered - start);
        pcie_seconds = pcie_seconds.max(streamed - gathered);
        finish = finish.max(streamed);
        net.obs().span(|| {
            SpanEvent::new(
                Track::Host { host: host.host.0 },
                SpanCategory::Checkpoint,
                "ckpt-save-host",
                start,
                streamed,
            )
            .with_arg("bytes", host_bytes as f64)
            .with_arg("shards", host.shards.len() as f64)
        });
    }
    net.obs().span(|| {
        SpanEvent::new(
            Track::Sim,
            SpanCategory::Checkpoint,
            "ckpt-save",
            start,
            finish,
        )
        .with_arg("step", bundle.step as f64)
        .with_arg("bytes", total_bytes as f64)
        .with_arg("shards", placement.num_shards as f64)
        .with_arg("hosts", placement.num_hosts() as f64)
    });

    let id = |name| MetricId::new(Subsystem::Ckpt, name);
    let obs = net.obs();
    obs.count(id("saves"), 1);
    obs.count(id("saved_bytes"), total_bytes);
    obs.observe(id("save_seconds"), finish - start);
    obs.observe(id("save_ici_seconds"), ici_seconds);
    obs.observe(id("save_pcie_seconds"), pcie_seconds);

    let hashes: Vec<u64> = shards.iter().map(ShardData::hash).collect();
    let manifest = Manifest::new(bundle.step, placement, bundle.slot_lens(), &hashes);
    Ok(SaveOutcome {
        checkpoint: Checkpoint { manifest, shards },
        finish,
        bytes: total_bytes,
        ici_seconds,
        pcie_seconds,
    })
}

/// The views concatenated into one rank-1 tensor, built in place.
fn concat_flat<'a>(parts: impl Iterator<Item = &'a [f32]> + Clone) -> Tensor {
    let mut flat = Tensor::zeros(Shape::vector(parts.clone().map(<[f32]>::len).sum()));
    let (data, mut at) = (flat.data_mut(), 0);
    for part in parts {
        data[at..at + part.len()].copy_from_slice(part);
        at += part.len();
    }
    flat
}

/// Restores `ckpt` onto `target` — possibly a smaller survivor mesh —
/// verifying version and shard integrity first, then timing hosts
/// streaming shards up over PCIe, routed ICI transfers into the restore
/// root, and a ring broadcast to every live chip.
///
/// The returned bundle is re-assembled by pure concatenation, so the
/// state is bit-identical to what was saved no matter how the target
/// placement re-shards it.
///
/// # Errors
///
/// [`CkptError::UnsupportedVersion`], [`CkptError::ShardCorrupt`], and
/// [`CkptError::StateSizeMismatch`] on validation failures;
/// [`CkptError::Network`]/[`CkptError::Collective`] when the surviving
/// mesh cannot route the restore traffic.
pub fn restore_checkpoint(
    net: &mut Network,
    target: &ShardPlacement,
    ckpt: &Checkpoint,
    pcie: &PcieCost,
    start: SimTime,
) -> Result<RestoreOutcome, CkptError> {
    let manifest = &ckpt.manifest;
    if manifest.format_version != CKPT_FORMAT_VERSION {
        return Err(CkptError::UnsupportedVersion {
            found: manifest.format_version,
            supported: CKPT_FORMAT_VERSION,
        });
    }
    if manifest.elems != target.elems {
        return Err(CkptError::StateSizeMismatch {
            expected: target.elems,
            got: manifest.elems,
        });
    }
    for (entry, shard) in manifest.shards.iter().zip(&ckpt.shards) {
        let got = shard.hash();
        if got != entry.hash {
            return Err(CkptError::ShardCorrupt {
                shard: entry.shard,
                expected: entry.hash,
                got,
            });
        }
    }

    // Re-assemble the global bundle: shards are contiguous in shard
    // order, so this is pure concatenation.
    let weights = concat_flat(ckpt.shards.iter().map(|s| s.weights.data()));
    if weights.len() != manifest.elems {
        return Err(CkptError::StateSizeMismatch {
            expected: manifest.elems,
            got: weights.len(),
        });
    }
    let mut optim = Vec::with_capacity(manifest.optim_slots.len());
    for (i, (name, _)) in manifest.optim_slots.iter().enumerate() {
        let slot = concat_flat(ckpt.shards.iter().map(|s| s.optim[i].1.data()));
        optim.push((name.clone(), slot));
    }
    let bundle = StateBundle {
        step: manifest.step,
        weights,
        optim,
    };

    // Timing: hosts stream their shards up over PCIe, routed transfers
    // carry them to the restore root, and a ring broadcast fans the
    // state out to every live chip of the target placement.
    net.reset();
    let live = target.chips();
    let root = live[0];
    let mut ingest_finish = start;
    let mut total_bytes = 0u64;
    let mut pcie_seconds = 0.0f64;
    let mut host_bytes: Vec<(u32, u64)> = Vec::new();
    for entry in &manifest.shards {
        let bytes = ckpt.shards[entry.shard].bytes();
        match host_bytes.iter_mut().find(|(h, _)| *h == entry.host) {
            Some((_, b)) => *b += bytes,
            None => host_bytes.push((entry.host, bytes)),
        }
    }
    for &(host, bytes) in &host_bytes {
        let up = pcie.time(bytes);
        let ready = start + up;
        // The host's shards surface at its first live chip on the target
        // mesh; a host whose chips all died hands its data straight to
        // the root (fetched over the datacenter network, ICI cost zero).
        let entry_chip = live
            .iter()
            .copied()
            .find(|c| HostId::of_chip(*c) == HostId(host))
            .unwrap_or(root);
        let routed = if entry_chip == root {
            ready
        } else {
            match net.transfer(entry_chip, root, bytes, ready) {
                Ok(t) => t.finish,
                // Entry chip cut off from the root on the degraded mesh:
                // the host's shards reach the root host over the
                // datacenter network instead (ICI cost zero, like the
                // all-chips-dead case).
                Err(e) if e.is_no_route() => ready,
                Err(e) => return Err(e.into()),
            }
        };
        total_bytes += bytes;
        pcie_seconds = pcie_seconds.max(up);
        ingest_finish = ingest_finish.max(routed);
        net.obs().span(|| {
            SpanEvent::new(
                Track::Host { host },
                SpanCategory::Checkpoint,
                "ckpt-restore-host",
                start,
                routed,
            )
            .with_arg("bytes", bytes as f64)
        });
    }
    let finish = if live.len() >= 2 {
        let ring = Ring::new(live.clone(), false, 1);
        let payload = &bundle.weights;
        let out = ring::broadcast(net, &ring, 0, payload, Precision::F32, ingest_finish)?;
        out.time
    } else {
        ingest_finish
    };
    net.obs().span(|| {
        SpanEvent::new(
            Track::Sim,
            SpanCategory::Checkpoint,
            "ckpt-restore",
            start,
            finish,
        )
        .with_arg("step", manifest.step as f64)
        .with_arg("bytes", total_bytes as f64)
        .with_arg("target_shards", target.num_shards as f64)
    });
    let id = |name| MetricId::new(Subsystem::Ckpt, name);
    let obs = net.obs();
    obs.count(id("restores"), 1);
    obs.count(id("restored_bytes"), total_bytes);
    obs.observe(id("restore_seconds"), finish - start);
    obs.observe(id("restore_pcie_seconds"), pcie_seconds);
    obs.observe(id("restore_broadcast_seconds"), finish - ingest_finish);
    Ok(RestoreOutcome {
        bundle,
        finish,
        bytes: total_bytes,
        pcie_seconds,
        broadcast_seconds: finish - ingest_finish,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use multipod_optim::{Optimizer, SgdMomentum};
    use multipod_simnet::NetworkConfig;
    use multipod_telemetry::Obs;
    use multipod_tensor::{Shape, TensorRng};
    use multipod_topology::{Multipod, MultipodConfig};
    use multipod_trace::{Recorder, TraceEvent};

    fn network(mesh: MultipodConfig) -> Network {
        Network::new(Multipod::new(mesh), NetworkConfig::tpu_v3())
    }

    fn warm_bundle(elems: usize, shards: usize) -> (StateBundle, SgdMomentum) {
        let mut rng = TensorRng::seed(11);
        let w = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let g = rng.uniform(Shape::vector(elems), -1.0, 1.0);
        let mut opt = SgdMomentum::new(1.0, 0.9);
        let w_shards = w.split(0, shards).unwrap();
        let g_shards = g.split(0, shards).unwrap();
        for s in 0..shards {
            opt.prepare(StateKey { layer: 0, shard: s }, &w_shards[s], &g_shards[s])
                .unwrap();
        }
        let bundle = StateBundle::from_optimizer(3, &w, &opt, shards).unwrap();
        (bundle, opt)
    }

    #[test]
    fn save_then_restore_is_bit_identical_on_the_same_mesh() {
        let mut net = network(MultipodConfig::mesh(4, 4, true));
        let placement = ShardPlacement::plan(net.mesh(), &[], 64).unwrap();
        let (bundle, _) = warm_bundle(64, 16);
        let pcie = PcieCost::criteo();
        let saved = save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO).unwrap();
        assert!(saved.finish > SimTime::ZERO);
        assert_eq!(saved.bytes, 4 * bundle.total_elems() as u64);
        let restored =
            restore_checkpoint(&mut net, &placement, &saved.checkpoint, &pcie, saved.finish)
                .unwrap();
        assert_eq!(restored.bundle, bundle, "round trip must be bit-identical");
        assert!(restored.finish > saved.finish);
    }

    #[test]
    fn restore_reshards_onto_a_survivor_mesh() {
        let mut net = network(MultipodConfig::mesh(4, 4, true));
        let full = ShardPlacement::plan(net.mesh(), &[], 64).unwrap();
        let (bundle, mut opt) = warm_bundle(64, 16);
        let pcie = PcieCost::criteo();
        let saved = save_checkpoint(&mut net, &full, &bundle, &pcie, SimTime::ZERO).unwrap();

        net.fail_chip(ChipId(5), saved.finish);
        let survivor = ShardPlacement::plan(net.mesh(), &[5], 64).unwrap();
        let restored =
            restore_checkpoint(&mut net, &survivor, &saved.checkpoint, &pcie, saved.finish)
                .unwrap();
        assert_eq!(restored.bundle, bundle);
        // The re-assembled slots drop back into an optimizer losslessly.
        restored.bundle.restore_optimizer(&mut opt, 16).unwrap();
        let re_export = StateBundle::from_optimizer(3, &bundle.weights, &opt, 16).unwrap();
        assert_eq!(re_export, bundle);
    }

    #[test]
    fn corruption_and_version_skew_are_rejected() {
        let mut net = network(MultipodConfig::mesh(2, 2, true));
        let placement = ShardPlacement::plan(net.mesh(), &[], 16).unwrap();
        let (bundle, _) = warm_bundle(16, 4);
        let pcie = PcieCost::criteo();
        let saved = save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO).unwrap();

        let mut corrupt = saved.checkpoint.clone();
        corrupt.shards[2].weights.data_mut()[0] += 1.0;
        let err = restore_checkpoint(&mut net, &placement, &corrupt, &pcie, SimTime::ZERO);
        assert!(matches!(err, Err(CkptError::ShardCorrupt { shard: 2, .. })));

        let mut skewed = saved.checkpoint.clone();
        skewed.manifest.format_version = 99;
        let err = restore_checkpoint(&mut net, &placement, &skewed, &pcie, SimTime::ZERO);
        assert!(matches!(
            err,
            Err(CkptError::UnsupportedVersion { found: 99, .. })
        ));
    }

    #[test]
    fn save_and_restore_emit_checkpoint_spans() {
        let recorder = Recorder::shared();
        let mut net = network(MultipodConfig::mesh(4, 4, true));
        net.set_obs(Obs::new(Some(recorder.clone()), None));
        let placement = ShardPlacement::plan(net.mesh(), &[], 64).unwrap();
        let (bundle, _) = warm_bundle(64, 16);
        let pcie = PcieCost::criteo();
        let saved = save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO).unwrap();
        restore_checkpoint(&mut net, &placement, &saved.checkpoint, &pcie, saved.finish).unwrap();
        let spans: Vec<String> = recorder
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) if s.category == SpanCategory::Checkpoint => {
                    Some(s.name.to_string())
                }
                _ => None,
            })
            .collect();
        assert!(spans.iter().any(|n| n == "ckpt-save"));
        assert!(spans.iter().any(|n| n == "ckpt-save-host"));
        assert!(spans.iter().any(|n| n == "ckpt-restore"));
        assert!(spans.iter().any(|n| n == "ckpt-restore-host"));
    }

    #[test]
    fn save_and_restore_record_telemetry() {
        let telemetry = multipod_telemetry::Telemetry::shared();
        let mut net = network(MultipodConfig::mesh(4, 4, true));
        net.set_obs(Obs::new(None, Some(telemetry.clone())));
        let placement = ShardPlacement::plan(net.mesh(), &[], 64).unwrap();
        let (bundle, _) = warm_bundle(64, 16);
        let pcie = PcieCost::criteo();
        let saved = save_checkpoint(&mut net, &placement, &bundle, &pcie, SimTime::ZERO).unwrap();
        restore_checkpoint(&mut net, &placement, &saved.checkpoint, &pcie, saved.finish).unwrap();

        let snap = telemetry.snapshot();
        assert_eq!(snap.counter(&MetricId::new(Subsystem::Ckpt, "saves")), 1);
        assert_eq!(snap.counter(&MetricId::new(Subsystem::Ckpt, "restores")), 1);
        assert_eq!(
            snap.counter(&MetricId::new(Subsystem::Ckpt, "saved_bytes")),
            saved.bytes
        );
        let save_hist = snap
            .histogram(&MetricId::new(Subsystem::Ckpt, "save_seconds"))
            .expect("save time observed");
        assert_eq!(save_hist.count, 1);
        assert!(save_hist.sum > 0.0);
    }

    #[test]
    fn optimizer_shard_mismatch_is_a_typed_error() {
        let (bundle, opt) = warm_bundle(16, 4);
        drop(bundle);
        let w = Tensor::zeros(Shape::vector(16));
        let err = StateBundle::from_optimizer(0, &w, &opt, 8);
        assert!(matches!(
            err,
            Err(CkptError::OptimStateMismatch {
                expected_shards: 8,
                got_shards: 4,
                ..
            })
        ));
    }
}
