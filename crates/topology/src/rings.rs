//! Ring enumerations used by the collective schedules.
//!
//! The paper's gradient summation (§3.3, Figure 4) is built from three ring
//! families:
//!
//! 1. **Y rings** — bidirectional rings along the torus dimension, one per
//!    column, carrying the bulk of the reduce-scatter (red rings in Fig. 4).
//! 2. **X lines** — open chains along the mesh dimension (no X wrap),
//!    carrying the second-phase reduce-scatter whose payload is `1/y_len`
//!    of the gradients.
//! 3. **Model-peer rings** — chains along X that *hop over* model-parallel
//!    neighbours (stride = tile width; dotted blue line in Fig. 4), plus the
//!    short within-tile rings used by the model-parallel forward pass
//!    (black ring in Fig. 4).

use serde::{Deserialize, Serialize};

use crate::{ChipId, Coord, Multipod};

/// An ordered set of chips traversed by a ring (or open-chain) collective.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Ring {
    members: Vec<ChipId>,
    /// Whether the last member connects back to the first by a physical link.
    wraps: bool,
    /// Physical hops between consecutive members (1 for dense rings,
    /// `tile_width` for peer rings that hop over model neighbours).
    stride: u32,
}

impl Ring {
    /// Builds a ring from an explicit member order.
    ///
    /// # Panics
    ///
    /// Panics when `members` is empty or `stride` is zero.
    pub fn new(members: Vec<ChipId>, wraps: bool, stride: u32) -> Ring {
        assert!(!members.is_empty(), "ring must have members");
        assert!(stride > 0, "ring stride must be positive");
        Ring {
            members,
            wraps,
            stride,
        }
    }

    /// The members in ring order.
    pub fn members(&self) -> &[ChipId] {
        &self.members
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Always `false`: construction rejects empty member lists, so this
    /// exists only to satisfy the `len`/`is_empty` API convention.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether the ring physically wraps.
    pub fn wraps(&self) -> bool {
        self.wraps
    }

    /// Physical hops between consecutive members.
    pub fn stride(&self) -> u32 {
        self.stride
    }
}

/// A tile of `width` neighbouring chips along X sharing model-parallel
/// shards (§3.1, §3.3).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelTile {
    members: Vec<ChipId>,
    /// The tile's 0-based index within its row.
    pub tile_index: u32,
    /// The row (Y coordinate) the tile sits on.
    pub row: u32,
}

impl ModelTile {
    /// The chips in the tile, ordered by X.
    pub fn members(&self) -> &[ChipId] {
        &self.members
    }

    /// The tile width.
    pub fn width(&self) -> usize {
        self.members.len()
    }

    /// The chip holding shard `peer` of the model.
    ///
    /// # Panics
    ///
    /// Panics when `peer >= width()`.
    pub fn peer(&self, peer: usize) -> ChipId {
        self.members[peer]
    }
}

impl Multipod {
    /// The Y ring for column `x` (red rings in Figure 4).
    ///
    /// Wraps when the pod has torus Y links.
    ///
    /// # Panics
    ///
    /// Panics when `x >= x_len`.
    pub fn y_ring(&self, x: u32) -> Ring {
        assert!(x < self.x_len(), "column {x} out of range");
        let members = (0..self.y_len())
            .map(|y| self.chip_at(Coord::new(x, y)))
            .collect();
        Ring::new(members, self.torus_y(), 1)
    }

    /// The open X chain for row `y`.
    ///
    /// # Panics
    ///
    /// Panics when `y >= y_len`.
    pub fn x_line(&self, y: u32) -> Ring {
        assert!(y < self.y_len(), "row {y} out of range");
        let members = (0..self.x_len())
            .map(|x| self.chip_at(Coord::new(x, y)))
            .collect();
        Ring::new(members, false, 1)
    }

    /// The X chain for row `y` restricted to chips at
    /// `x ≡ offset (mod stride)` — the gradient ring among model-parallel
    /// peers that hops over model neighbours (dotted blue line in Figure 4).
    ///
    /// # Panics
    ///
    /// Panics when the row is out of range, `stride` is zero, does not
    /// divide `x_len`, or `offset >= stride`.
    pub fn x_line_strided(&self, y: u32, offset: u32, stride: u32) -> Ring {
        assert!(y < self.y_len(), "row {y} out of range");
        assert!(stride > 0, "stride must be positive");
        assert!(offset < stride, "offset must be < stride");
        assert_eq!(
            self.x_len() % stride,
            0,
            "stride {stride} must divide x_len {}",
            self.x_len()
        );
        let members = (0..self.x_len() / stride)
            .map(|i| self.chip_at(Coord::new(offset + i * stride, y)))
            .collect();
        Ring::new(members, false, stride)
    }

    /// A single Hamiltonian "snake" ring over every chip: row 0 left to
    /// right, row 1 right to left, and so on — the 1-D alternative to the
    /// 2-D schedule that §3.3 improves on. Consecutive members are always
    /// physically adjacent; the wrap edge (last chip back to the first)
    /// must be routed across the mesh.
    pub fn snake_ring(&self) -> Ring {
        let mut members = Vec::with_capacity(self.num_chips());
        for y in 0..self.y_len() {
            if y % 2 == 0 {
                for x in 0..self.x_len() {
                    members.push(self.chip_at(Coord::new(x, y)));
                }
            } else {
                for x in (0..self.x_len()).rev() {
                    members.push(self.chip_at(Coord::new(x, y)));
                }
            }
        }
        Ring::new(members, false, 1)
    }

    /// The chips `live` keeps, in the order a ring over a degraded mesh
    /// visits them: column-major, by `x` then `y`.
    ///
    /// Consecutive same-column survivors can detour the long way round the
    /// torus Y wrap when the chip between them is dead. Row-major order
    /// would pair same-row survivors whose only connecting row passes
    /// through the dead chip, and the dimension-ordered router has no
    /// dogleg through an adjacent row. The trainer's survivor ring and the
    /// checkpoint shard placement both take this order, so a restore
    /// broadcast routes wherever the survivor ring does.
    pub fn survivor_order(&self, mut live: impl FnMut(ChipId) -> bool) -> Vec<ChipId> {
        (0..self.x_len())
            .flat_map(|x| (0..self.y_len()).map(move |y| Coord::new(x, y)))
            .map(|coord| self.chip_at(coord))
            .filter(|&chip| live(chip))
            .collect()
    }

    /// Partitions the mesh into model-parallel tiles of `width` neighbouring
    /// chips along X.
    ///
    /// # Panics
    ///
    /// Panics when `width` is zero or does not divide `x_len`.
    pub fn model_tiles(&self, width: u32) -> Vec<ModelTile> {
        assert!(width > 0, "tile width must be positive");
        assert_eq!(
            self.x_len() % width,
            0,
            "tile width {width} must divide x_len {}",
            self.x_len()
        );
        let tiles_per_row = self.x_len() / width;
        let mut out = Vec::with_capacity((tiles_per_row * self.y_len()) as usize);
        for y in 0..self.y_len() {
            for t in 0..tiles_per_row {
                let members = (0..width)
                    .map(|i| self.chip_at(Coord::new(t * width + i, y)))
                    .collect();
                out.push(ModelTile {
                    members,
                    tile_index: t,
                    row: y,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MultipodConfig;

    fn pod() -> Multipod {
        Multipod::new(MultipodConfig::mesh(8, 4, true))
    }

    #[test]
    fn y_ring_wraps_and_is_adjacent() {
        let m = pod();
        let r = m.y_ring(3);
        assert_eq!(r.len(), 4);
        assert!(r.wraps());
        for w in r.members().windows(2) {
            assert!(m.link_between(w[0], w[1]).is_some());
        }
        // Wrap edge is physical too.
        assert!(m
            .link_between(*r.members().last().unwrap(), r.members()[0])
            .is_some());
    }

    #[test]
    fn x_line_is_open_chain() {
        let m = pod();
        let r = m.x_line(2);
        assert_eq!(r.len(), 8);
        assert!(!r.wraps());
        for w in r.members().windows(2) {
            assert!(m.link_between(w[0], w[1]).is_some());
        }
        assert!(m
            .link_between(*r.members().last().unwrap(), r.members()[0])
            .is_none());
    }

    #[test]
    fn strided_line_hops_over_peers() {
        let m = pod();
        let r = m.x_line_strided(1, 2, 4);
        assert_eq!(r.len(), 2);
        assert_eq!(r.stride(), 4);
        let xs: Vec<u32> = r.members().iter().map(|&c| m.coord_of(c).x).collect();
        assert_eq!(xs, vec![2, 6]);
    }

    #[test]
    fn model_tiles_partition_the_mesh() {
        let m = pod();
        let tiles = m.model_tiles(4);
        assert_eq!(tiles.len(), 2 * 4); // 2 tiles per row × 4 rows
        let mut seen = std::collections::HashSet::new();
        for t in &tiles {
            assert_eq!(t.width(), 4);
            for &c in t.members() {
                assert!(seen.insert(c), "chip in two tiles");
            }
        }
        assert_eq!(seen.len(), m.num_chips());
    }

    #[test]
    fn tile_forward_ring_is_contiguous() {
        // The within-tile forward ring (black ring in Figure 4) runs over
        // the tile's members in order, one physical hop apart.
        let m = pod();
        let t = &m.model_tiles(4)[1];
        for w in t.members().windows(2) {
            assert!(m.link_between(w[0], w[1]).is_some());
        }
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn model_tiles_validate_width() {
        pod().model_tiles(3);
    }

    #[test]
    fn snake_ring_visits_every_chip_adjacently() {
        let m = pod();
        let r = m.snake_ring();
        assert_eq!(r.len(), m.num_chips());
        let mut seen = std::collections::HashSet::new();
        for w in r.members().windows(2) {
            assert!(
                m.link_between(w[0], w[1]).is_some(),
                "snake must be adjacent"
            );
            seen.insert(w[0]);
        }
        seen.insert(*r.members().last().unwrap());
        assert_eq!(seen.len(), m.num_chips());
        assert!(!r.wraps());
    }

    #[test]
    fn survivor_order_is_column_major_over_the_kept_chips() {
        let m = pod();
        let dead = m.chip_at(Coord::new(2, 1));
        let order = m.survivor_order(|c| c != dead);
        assert_eq!(order.len(), m.num_chips() - 1);
        assert!(!order.contains(&dead));
        let coords: Vec<(u32, u32)> = order
            .iter()
            .map(|&c| (m.coord_of(c).x, m.coord_of(c).y))
            .collect();
        assert!(coords.windows(2).all(|w| w[0] < w[1]), "sorted by (x, y)");
        assert_eq!(&coords[..5], &[(0, 0), (0, 1), (0, 2), (0, 3), (1, 0)]);
        assert!(m.survivor_order(|_| false).is_empty());
    }

    #[test]
    fn paper_machine_ring_counts() {
        let m = Multipod::new(MultipodConfig::multipod(4));
        assert_eq!(m.y_ring(0).len(), 32);
        assert_eq!(m.x_line(0).len(), 128);
        // 4-way model parallelism as in the Transformer benchmark.
        assert_eq!(m.model_tiles(4).len(), 32 * 32);
        let peers = m.x_line_strided(0, 0, 4);
        assert_eq!(peers.len(), 32);
    }
}
