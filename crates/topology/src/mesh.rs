//! The multipod mesh itself.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{ChipId, Coord, Link, LinkClass, CHIPS_PER_HOST};

/// Error raised by topology construction and queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Requested dimensions were zero or otherwise unusable.
    InvalidDimensions {
        /// Offending X extent.
        x_len: u32,
        /// Offending Y extent.
        y_len: u32,
    },
    /// A chip id outside the mesh was used.
    ChipOutOfRange {
        /// The bad id.
        chip: ChipId,
        /// Number of chips in the mesh.
        num_chips: usize,
    },
    /// No path exists between two chips (only possible with failed links).
    NoRoute {
        /// Source chip.
        from: ChipId,
        /// Destination chip.
        to: ChipId,
    },
    /// A slice was requested for a chip count the paper's sweeps cannot
    /// carve (not a power of two, or below 2).
    InvalidSliceShape {
        /// The rejected chip count.
        chips: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::InvalidDimensions { x_len, y_len } => {
                write!(f, "invalid mesh dimensions {x_len}x{y_len}")
            }
            TopologyError::ChipOutOfRange { chip, num_chips } => {
                write!(f, "{chip} out of range for {num_chips}-chip mesh")
            }
            TopologyError::NoRoute { from, to } => {
                write!(f, "no route from {from} to {to}")
            }
            TopologyError::InvalidSliceShape { chips } => {
                write!(f, "slice needs a power-of-two chip count >= 2, got {chips}")
            }
        }
    }
}

impl Error for TopologyError {}

/// Configuration for building a [`Multipod`].
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultipodConfig {
    /// Number of 32×32 pods concatenated along X.
    pub pods: u32,
    /// X extent of a single pod (32 for TPU-v3).
    pub pod_x_len: u32,
    /// Y extent of a single pod (32 for TPU-v3).
    pub pod_y_len: u32,
    /// Whether the Y edges carry torus wrap links (true on TPU-v3 pods).
    pub torus_y: bool,
}

impl MultipodConfig {
    /// The paper's multipod: `pods` 32×32 TPU-v3 pods in a row with torus
    /// wrap along Y. `MultipodConfig::multipod(4)` is the 4096-chip machine.
    pub fn multipod(pods: u32) -> MultipodConfig {
        MultipodConfig {
            pods,
            pod_x_len: 32,
            pod_y_len: 32,
            torus_y: true,
        }
    }

    /// An arbitrary single-pod mesh, mostly for tests and small sweeps.
    pub fn mesh(x_len: u32, y_len: u32, torus_y: bool) -> MultipodConfig {
        MultipodConfig {
            pods: 1,
            pod_x_len: x_len,
            pod_y_len: y_len,
            torus_y,
        }
    }

    /// The smallest slice holding `chips` chips, as used by the paper's
    /// scaling sweeps (16, 32, …, 4096). Slices of at most 1024 chips are
    /// cut from a single pod; larger counts concatenate whole pods.
    ///
    /// # Panics
    ///
    /// Panics if `chips` is not a power of two or is smaller than 2; use
    /// [`MultipodConfig::try_slice`] to get a typed error instead.
    pub fn slice(chips: u32) -> MultipodConfig {
        MultipodConfig::try_slice(chips).unwrap_or_else(|_| {
            panic!("chips must be a power of two >= 2, got {chips}");
        })
    }

    /// Fallible [`MultipodConfig::slice`]: returns
    /// [`TopologyError::InvalidSliceShape`] when `chips` is not a power of
    /// two ≥ 2 instead of panicking.
    ///
    /// # Errors
    ///
    /// See above.
    pub fn try_slice(chips: u32) -> Result<MultipodConfig, TopologyError> {
        if !(chips.is_power_of_two() && chips >= 2) {
            return Err(TopologyError::InvalidSliceShape { chips });
        }
        Ok(if chips <= 1024 {
            // Cut the most square power-of-two slice with y ≤ 32, matching
            // how TPU-v3 slices are carved (4x4, 8x8, 16x16, 16x32, 32x32).
            let mut y = 1u32;
            while y * 2 <= 32 && (y * 2) * (y * 2) <= chips {
                y *= 2;
            }
            let x = chips / y;
            MultipodConfig::mesh(x, y, true)
        } else {
            MultipodConfig::multipod(chips / 1024)
        })
    }
}

/// A 2-D mesh of TPU chips, possibly spanning several pods.
///
/// Chips are laid out with `x` in `0..x_len` (across pods) and `y` in
/// `0..y_len`. Dense ids are `y * x_len + x`.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Multipod {
    config: MultipodConfig,
    x_len: u32,
    y_len: u32,
    /// Canonical failed links, stored as ordered chip-id pairs.
    failed_links: Vec<(ChipId, ChipId)>,
}

impl Multipod {
    /// Builds the mesh described by `config`.
    ///
    /// # Panics
    ///
    /// Panics on zero dimensions; use [`Multipod::try_new`] for a fallible
    /// variant.
    pub fn new(config: MultipodConfig) -> Multipod {
        Multipod::try_new(config).expect("invalid multipod config")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::InvalidDimensions`] when any extent is zero.
    pub fn try_new(config: MultipodConfig) -> Result<Multipod, TopologyError> {
        let x_len = config.pods * config.pod_x_len;
        let y_len = config.pod_y_len;
        if x_len == 0 || y_len == 0 {
            return Err(TopologyError::InvalidDimensions { x_len, y_len });
        }
        Ok(Multipod {
            config,
            x_len,
            y_len,
            failed_links: Vec::new(),
        })
    }

    /// The configuration the mesh was built from.
    pub fn config(&self) -> &MultipodConfig {
        &self.config
    }

    /// Total X extent (all pods).
    pub fn x_len(&self) -> u32 {
        self.x_len
    }

    /// Y extent.
    pub fn y_len(&self) -> u32 {
        self.y_len
    }

    /// Whether Y wrap links exist.
    pub fn torus_y(&self) -> bool {
        self.config.torus_y && self.y_len > 2
    }

    /// Number of chips.
    pub fn num_chips(&self) -> usize {
        (self.x_len * self.y_len) as usize
    }

    /// Number of input hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_chips().div_ceil(CHIPS_PER_HOST)
    }

    /// The chip at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics when the coordinate is outside the mesh.
    pub fn chip_at(&self, coord: Coord) -> ChipId {
        assert!(
            coord.x < self.x_len && coord.y < self.y_len,
            "coordinate {coord} outside {}x{} mesh",
            self.x_len,
            self.y_len
        );
        ChipId(coord.y * self.x_len + coord.x)
    }

    /// The coordinate of a chip.
    ///
    /// # Panics
    ///
    /// Panics when the id is out of range.
    pub fn coord_of(&self, chip: ChipId) -> Coord {
        assert!(
            chip.index() < self.num_chips(),
            "{chip} out of range for {} chips",
            self.num_chips()
        );
        Coord::new(chip.0 % self.x_len, chip.0 / self.x_len)
    }

    /// The pod index (0-based along X) a chip belongs to.
    pub fn pod_of(&self, chip: ChipId) -> u32 {
        self.coord_of(chip).x / self.config.pod_x_len
    }

    /// Classifies the link between two chips, or `None` when they are not
    /// physically adjacent (or the link has been failed).
    pub fn link_between(&self, a: ChipId, b: ChipId) -> Option<LinkClass> {
        if self.is_failed(a, b) {
            return None;
        }
        let ca = self.coord_of(a);
        let cb = self.coord_of(b);
        if ca.y == cb.y && ca.x.abs_diff(cb.x) == 1 {
            // X neighbours: cross-pod when they straddle a pod boundary.
            let pod_a = ca.x / self.config.pod_x_len;
            let pod_b = cb.x / self.config.pod_x_len;
            return Some(if pod_a == pod_b {
                LinkClass::IntraPod
            } else {
                LinkClass::CrossPodOptical
            });
        }
        if ca.x == cb.x {
            if ca.y.abs_diff(cb.y) == 1 {
                return Some(LinkClass::IntraPod);
            }
            if self.torus_y() && ca.y.abs_diff(cb.y) == self.y_len - 1 {
                return Some(LinkClass::TorusWrap);
            }
        }
        None
    }

    /// All physical neighbours of a chip with their link classes.
    pub fn neighbors(&self, chip: ChipId) -> Vec<(ChipId, LinkClass)> {
        self.live_links(chip).collect()
    }

    /// The live links of a chip, walked without allocating: the at most
    /// four chips one step away in X and in Y (round the wrap on a Y
    /// torus) whose link to `chip` is up.
    fn live_links(&self, chip: ChipId) -> impl Iterator<Item = (ChipId, LinkClass)> + '_ {
        let c = self.coord_of(chip);
        let wrap = self.torus_y();
        let down = match c.y {
            0 => wrap.then(|| Coord::new(c.x, self.y_len - 1)),
            y => Some(Coord::new(c.x, y - 1)),
        };
        let up = match c.y + 1 {
            y if y < self.y_len => Some(Coord::new(c.x, y)),
            _ => (wrap && self.y_len > 1).then(|| Coord::new(c.x, 0)),
        };
        let left = (c.x > 0).then(|| Coord::new(c.x - 1, c.y));
        let right = (c.x + 1 < self.x_len).then(|| Coord::new(c.x + 1, c.y));
        [left, right, down, up]
            .into_iter()
            .flatten()
            .filter_map(move |coord| {
                let other = self.chip_at(coord);
                self.link_between(chip, other).map(|class| (other, class))
            })
    }

    /// All directed links in the mesh.
    pub fn links(&self) -> Vec<Link> {
        let mut out = Vec::new();
        for id in 0..self.num_chips() as u32 {
            let chip = ChipId(id);
            for (other, class) in self.neighbors(chip) {
                out.push(Link::new(chip, other, class));
            }
        }
        out
    }

    /// Marks the (undirected) link between `a` and `b` as failed.
    ///
    /// Subsequent [`Multipod::link_between`] / [`Multipod::neighbors`] calls
    /// no longer see it; routing must detour. Returns whether the link set
    /// changed (`false` when the link was already down), which is when
    /// anything derived from the topology must be dropped.
    pub fn fail_link(&mut self, a: ChipId, b: ChipId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        if self.failed_links.contains(&key) {
            return false;
        }
        self.failed_links.push(key);
        true
    }

    /// Marks every link incident to `chip` as failed (whole-chip loss:
    /// the chip is still addressable but unreachable). Returns whether the
    /// link set changed (`false` when the chip was already isolated).
    pub fn fail_chip(&mut self, chip: ChipId) -> bool {
        let neighbors: Vec<ChipId> = self.neighbors(chip).into_iter().map(|(c, _)| c).collect();
        for &other in &neighbors {
            self.fail_link(chip, other);
        }
        !neighbors.is_empty()
    }

    /// Restores the (undirected) link between `a` and `b`, leaving every
    /// other failed link down, so a fault campaign can heal one repaired
    /// link without resurrecting the rest of its failure set. Returns
    /// whether the link set changed (`false` when the link was up).
    pub fn heal_link(&mut self, a: ChipId, b: ChipId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        let Some(pos) = self.failed_links.iter().position(|&k| k == key) else {
            return false;
        };
        self.failed_links.remove(pos);
        true
    }

    /// The currently-failed links as canonical (min, max) chip-id pairs,
    /// in failure order.
    pub fn failed_links(&self) -> &[(ChipId, ChipId)] {
        &self.failed_links
    }

    /// Whether `chip` has no live links left (e.g. after
    /// [`Multipod::fail_chip`]); single-chip meshes are trivially isolated.
    pub fn is_isolated(&self, chip: ChipId) -> bool {
        self.live_links(chip).next().is_none()
    }

    fn is_failed(&self, a: ChipId, b: ChipId) -> bool {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.failed_links.contains(&key)
    }

    /// Iterates over all chip ids.
    pub fn chips(&self) -> impl Iterator<Item = ChipId> + '_ {
        (0..self.num_chips() as u32).map(ChipId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_multipod_dimensions() {
        let m = Multipod::new(MultipodConfig::multipod(4));
        assert_eq!(m.num_chips(), 4096);
        assert_eq!(m.x_len(), 128);
        assert_eq!(m.y_len(), 32);
        assert_eq!(m.num_hosts(), 1024);
        assert!(m.torus_y());
    }

    #[test]
    fn slice_configs_cover_scaling_sweep() {
        for chips in [16u32, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            let m = Multipod::new(MultipodConfig::slice(chips));
            assert_eq!(m.num_chips() as u32, chips, "chips={chips}");
        }
    }

    #[test]
    fn try_slice_rejects_bad_chip_counts_with_typed_errors() {
        for chips in [0u32, 1, 3, 6, 100, 4095] {
            assert_eq!(
                MultipodConfig::try_slice(chips),
                Err(TopologyError::InvalidSliceShape { chips }),
                "chips={chips}"
            );
        }
        assert_eq!(
            MultipodConfig::try_slice(4096),
            Ok(MultipodConfig::multipod(4))
        );
        assert_eq!(MultipodConfig::try_slice(16), Ok(MultipodConfig::slice(16)));
    }

    #[test]
    fn coords_round_trip() {
        let m = Multipod::new(MultipodConfig::multipod(2));
        for chip in m.chips() {
            assert_eq!(m.chip_at(m.coord_of(chip)), chip);
        }
    }

    #[test]
    fn cross_pod_links_at_pod_boundaries() {
        let m = Multipod::new(MultipodConfig::multipod(2));
        let a = m.chip_at(Coord::new(31, 5));
        let b = m.chip_at(Coord::new(32, 5));
        assert_eq!(m.link_between(a, b), Some(LinkClass::CrossPodOptical));
        let c = m.chip_at(Coord::new(30, 5));
        assert_eq!(m.link_between(c, a), Some(LinkClass::IntraPod));
    }

    #[test]
    fn torus_wrap_on_y_edges_only() {
        let m = Multipod::new(MultipodConfig::multipod(1));
        let top = m.chip_at(Coord::new(3, 0));
        let bottom = m.chip_at(Coord::new(3, 31));
        assert_eq!(m.link_between(top, bottom), Some(LinkClass::TorusWrap));
        // No X wrap: the mesh edge chips in X are not adjacent.
        let left = m.chip_at(Coord::new(0, 3));
        let right = m.chip_at(Coord::new(31, 3));
        assert_eq!(m.link_between(left, right), None);
    }

    #[test]
    fn interior_chips_have_four_neighbors() {
        let m = Multipod::new(MultipodConfig::multipod(1));
        let mid = m.chip_at(Coord::new(16, 16));
        assert_eq!(m.neighbors(mid).len(), 4);
        // Corner chip still has 3 (2 mesh + 1 wrap).
        let corner = m.chip_at(Coord::new(0, 0));
        assert_eq!(m.neighbors(corner).len(), 3);
    }

    #[test]
    fn neighbor_relation_is_symmetric() {
        let m = Multipod::new(MultipodConfig::mesh(8, 4, true));
        for chip in m.chips() {
            for (other, class) in m.neighbors(chip) {
                assert_eq!(m.link_between(other, chip), Some(class));
            }
        }
    }

    #[test]
    fn pod_of_tracks_x() {
        let m = Multipod::new(MultipodConfig::multipod(4));
        assert_eq!(m.pod_of(m.chip_at(Coord::new(0, 0))), 0);
        assert_eq!(m.pod_of(m.chip_at(Coord::new(33, 0))), 1);
        assert_eq!(m.pod_of(m.chip_at(Coord::new(127, 31))), 3);
    }

    #[test]
    fn failed_link_disappears_and_heals() {
        let mut m = Multipod::new(MultipodConfig::mesh(4, 4, false));
        let a = m.chip_at(Coord::new(0, 0));
        let b = m.chip_at(Coord::new(1, 0));
        assert!(m.link_between(a, b).is_some());
        assert!(m.fail_link(a, b));
        assert!(!m.fail_link(b, a), "already down: the link set stays");
        assert!(m.link_between(a, b).is_none());
        assert!(m.link_between(b, a).is_none());
        assert!(!m.neighbors(a).iter().any(|(c, _)| *c == b));
        assert!(m.heal_link(b, a));
        assert!(!m.heal_link(a, b), "already up: the link set stays");
        assert!(m.link_between(a, b).is_some());
        assert!(m.failed_links().is_empty());
    }

    #[test]
    fn fail_chip_reports_a_change_only_while_the_chip_has_live_links() {
        let mut m = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let center = m.chip_at(Coord::new(1, 1));
        assert!(m.fail_chip(center));
        assert!(m.is_isolated(center));
        assert_eq!(m.failed_links().len(), 4);
        assert!(!m.fail_chip(center), "already isolated");
        assert_eq!(m.failed_links().len(), 4);
    }

    #[test]
    fn try_new_rejects_zero_dims() {
        assert!(matches!(
            Multipod::try_new(MultipodConfig::mesh(0, 4, false)),
            Err(TopologyError::InvalidDimensions { .. })
        ));
    }

    #[test]
    fn small_mesh_without_torus_has_no_wrap() {
        let m = Multipod::new(MultipodConfig::mesh(4, 2, true));
        // y_len = 2: wrap would duplicate the existing mesh link; torus_y()
        // reports false.
        assert!(!m.torus_y());
        let a = m.chip_at(Coord::new(0, 0));
        assert_eq!(m.neighbors(a).len(), 2);
    }

    #[test]
    fn links_enumeration_is_consistent() {
        let m = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let links = m.links();
        // Every directed link's reverse is present.
        for l in &links {
            assert!(links.iter().any(|r| r.from == l.to && r.to == l.from));
        }
        // Interior count check: 4x4 torus-Y mesh has 3*4 X-links *2 dirs
        // + 4 columns * 4 Y-links (3 mesh + 1 wrap) * 2 dirs.
        assert_eq!(links.len(), 2 * (3 * 4) + 2 * (4 * 4));
    }
}
