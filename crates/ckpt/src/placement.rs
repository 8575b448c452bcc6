//! Shard placement: which live chip owns which slice of the global
//! state, and which host stores it.
//!
//! Every live chip owns one contiguous shard of the flattened model +
//! optimizer state, in the trainer's survivor-ring order
//! ([`Multipod::survivor_order`], column-major over the mesh). That is
//! neither chip-id order (ids are row-major, `y * x_len + x`) nor the
//! weight-update-sharding owner order of §3.2, which
//! `multipod_collectives::twod::shard_index` derives from each chip's
//! position in its Y ring and X line: on a 2×2 mesh chip (0, 0) holds
//! placement shard 0 but trainer shard 3. So the chip that serializes a
//! shard is in general not the chip that applied its update. Shards are
//! grouped by host ([`HostId::of_chip`],
//! one host per [`multipod_topology::CHIPS_PER_HOST`] chips): each host
//! designates its first live chip as the **gather chip** through which the
//! host's shards funnel over ICI before streaming to host memory over
//! PCIe.

use serde::{Deserialize, Serialize};

use multipod_topology::{ChipId, HostId, Multipod};

use crate::error::CkptError;

/// One contiguous slice of the flattened global state.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardRange {
    /// Global shard index (= position of the owning chip in live-chip
    /// order).
    pub index: usize,
    /// First element of the slice.
    pub start: usize,
    /// One past the last element.
    pub end: usize,
}

impl ShardRange {
    /// Elements in the shard.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the shard is empty (more live chips than elements).
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The equivalent slice of a tensor with `len` total elements,
    /// re-partitioned by the same balanced rule. Optimizer slots have
    /// their own lengths; slicing them through the *weight* shard's
    /// index keeps every slot aligned with its owning chip.
    pub fn scaled_to(&self, len: usize, shards: usize) -> ShardRange {
        ShardRange {
            index: self.index,
            start: self.index * len / shards,
            end: (self.index + 1) * len / shards,
        }
    }
}

/// The shards one host stores, and the chip they funnel through.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostShards {
    /// The storing host.
    pub host: HostId,
    /// First live chip of the host: ICI gather point on save, scatter
    /// point on restore.
    pub gather_chip: ChipId,
    /// Live chips of this host, in shard-index (survivor-ring) order,
    /// aligned with `shards`.
    pub chips: Vec<ChipId>,
    /// One shard per live chip.
    pub shards: Vec<ShardRange>,
}

/// A partition of `elems` state elements across the live chips of a
/// mesh, grouped by host.
///
/// Balanced contiguous ranges (`start = i·elems/s`) keep every shard
/// within one element of the others with no divisibility requirement, so
/// the same state re-shards cleanly onto a survivor mesh of any size.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardPlacement {
    /// Total elements partitioned.
    pub elems: usize,
    /// Number of shards (= live chips).
    pub num_shards: usize,
    /// Per-host shard groups, in host order.
    pub hosts: Vec<HostShards>,
}

impl ShardPlacement {
    /// Plans a placement over the live chips of `mesh`.
    ///
    /// `dead` lists chip indices excluded from the placement (replicas a
    /// trainer has dropped); chips the mesh itself reports isolated are
    /// excluded as well.
    ///
    /// # Errors
    ///
    /// [`CkptError::EmptyState`] when `elems` is zero,
    /// [`CkptError::EmptyPlacement`] when no chip survives the
    /// exclusions.
    pub fn plan(
        mesh: &Multipod,
        dead: &[usize],
        elems: usize,
    ) -> Result<ShardPlacement, CkptError> {
        if elems == 0 {
            return Err(CkptError::EmptyState);
        }
        // The trainer's survivor-ring order keeps the restore broadcast
        // routable on degraded meshes.
        let live = mesh.survivor_order(|c| !dead.contains(&c.index()) && !mesh.is_isolated(c));
        if live.is_empty() {
            return Err(CkptError::EmptyPlacement);
        }
        let shards = live.len();
        let mut hosts: Vec<HostShards> = Vec::new();
        for (i, &chip) in live.iter().enumerate() {
            let host = HostId::of_chip(chip);
            let range = ShardRange {
                index: i,
                start: i * elems / shards,
                end: (i + 1) * elems / shards,
            };
            match hosts.iter_mut().find(|h| h.host == host) {
                Some(h) => {
                    h.chips.push(chip);
                    h.shards.push(range);
                }
                None => hosts.push(HostShards {
                    host,
                    gather_chip: chip,
                    chips: vec![chip],
                    shards: vec![range],
                }),
            }
        }
        Ok(ShardPlacement {
            elems,
            num_shards: shards,
            hosts,
        })
    }

    /// All shard ranges in shard-index order.
    pub fn ranges(&self) -> Vec<ShardRange> {
        let mut out: Vec<ShardRange> = self.hosts.iter().flat_map(|h| h.shards.clone()).collect();
        out.sort_by_key(|r| r.index);
        out
    }

    /// All live chips in shard-index order.
    pub fn chips(&self) -> Vec<ChipId> {
        let mut chips: Vec<(usize, ChipId)> = self
            .hosts
            .iter()
            .flat_map(|h| h.chips.iter().copied().zip(h.shards.iter()))
            .map(|(chip, range)| (range.index, chip))
            .collect();
        chips.sort_by_key(|(index, _)| *index);
        chips.into_iter().map(|(_, chip)| chip).collect()
    }

    /// Number of storing hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_topology::{MultipodConfig, CHIPS_PER_HOST};

    #[test]
    fn full_mesh_placement_covers_everything_once() {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let p = ShardPlacement::plan(&mesh, &[], 64).unwrap();
        assert_eq!(p.num_shards, 16);
        assert_eq!(p.num_hosts(), 16 / CHIPS_PER_HOST);
        let ranges = p.ranges();
        assert_eq!(ranges[0].start, 0);
        assert_eq!(ranges.last().unwrap().end, 64);
        for w in ranges.windows(2) {
            assert_eq!(w[0].end, w[1].start, "contiguous, non-overlapping");
        }
        for h in &p.hosts {
            assert_eq!(h.gather_chip, h.chips[0]);
            for c in &h.chips {
                assert_eq!(HostId::of_chip(*c), h.host);
            }
        }
    }

    #[test]
    fn survivor_placement_excludes_dead_chips_and_rebalances() {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let p = ShardPlacement::plan(&mesh, &[5], 64).unwrap();
        assert_eq!(p.num_shards, 15);
        assert!(!p.chips().contains(&ChipId(5)));
        let ranges = p.ranges();
        assert_eq!(ranges.last().unwrap().end, 64);
        // Balanced: 64 over 15 chips → shards of 4 or 5 elements.
        assert!(ranges.iter().all(|r| (4..=5).contains(&r.len())));
    }

    #[test]
    fn indivisible_and_tiny_states_still_partition() {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let p = ShardPlacement::plan(&mesh, &[], 3).unwrap();
        let total: usize = p.ranges().iter().map(ShardRange::len).sum();
        assert_eq!(total, 3);
        assert!(p.ranges().iter().filter(|r| r.is_empty()).count() >= 13);
    }

    #[test]
    fn scaled_ranges_follow_the_same_partition_rule() {
        let r = ShardRange {
            index: 2,
            start: 8,
            end: 12,
        };
        let scaled = r.scaled_to(16, 16);
        assert_eq!((scaled.start, scaled.end), (2, 3));
        let identity = r.scaled_to(64, 16);
        assert_eq!((identity.start, identity.end), (8, 12));
    }

    #[test]
    fn degenerate_inputs_are_typed_errors() {
        let mesh = Multipod::new(MultipodConfig::mesh(2, 2, true));
        assert_eq!(
            ShardPlacement::plan(&mesh, &[], 0),
            Err(CkptError::EmptyState)
        );
        assert_eq!(
            ShardPlacement::plan(&mesh, &[0, 1, 2, 3], 8),
            Err(CkptError::EmptyPlacement)
        );
    }
}
