//! Sparse routing.
//!
//! "As the TPU-v3 chip only had 1024 entries in the routing table, we used a
//! sparse routing scheme where only neighbors along rows and columns were
//! visible to each chip. This was sufficient for achieving peak throughput
//! in the all-reduce communication operations." (§1)
//!
//! This module reproduces that constraint: a [`RoutingTable`] per chip that
//! must fit in [`ROUTING_TABLE_CAPACITY`] entries, and dimension-ordered
//! routes that only traverse row/column-visible chips.

use serde::{Deserialize, Serialize};

use crate::{ChipId, Coord, LinkClass, Multipod, Ring, TopologyError};

/// Hardware routing-table capacity of a TPU-v3 chip.
pub const ROUTING_TABLE_CAPACITY: usize = 1024;

/// The set of destinations a chip can address directly.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTable {
    owner: ChipId,
    entries: Vec<ChipId>,
}

impl RoutingTable {
    /// The paper's sparse scheme: only chips in the owner's row and column
    /// are visible.
    pub fn sparse(mesh: &Multipod, owner: ChipId) -> RoutingTable {
        let c = mesh.coord_of(owner);
        let mut entries = Vec::new();
        for x in 0..mesh.x_len() {
            if x != c.x {
                entries.push(mesh.chip_at(Coord::new(x, c.y)));
            }
        }
        for y in 0..mesh.y_len() {
            if y != c.y {
                entries.push(mesh.chip_at(Coord::new(c.x, y)));
            }
        }
        RoutingTable { owner, entries }
    }

    /// A dense (all-destinations) table; does **not** fit on the multipod
    /// and exists to demonstrate why the sparse scheme is needed.
    pub fn dense(mesh: &Multipod, owner: ChipId) -> RoutingTable {
        let entries = mesh.chips().filter(|&c| c != owner).collect();
        RoutingTable { owner, entries }
    }

    /// The chip owning this table.
    pub fn owner(&self) -> ChipId {
        self.owner
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the table fits in the TPU-v3 hardware capacity.
    pub fn fits(&self) -> bool {
        self.len() <= ROUTING_TABLE_CAPACITY
    }

    /// Whether `dest` is directly addressable.
    pub fn visible(&self, dest: ChipId) -> bool {
        dest == self.owner || self.entries.contains(&dest)
    }
}

/// A hop-by-hop route between two chips.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// Every chip on the route, endpoints included.
    pub chips: Vec<ChipId>,
}

impl Route {
    /// Number of links traversed.
    pub fn num_hops(&self) -> usize {
        self.chips.len().saturating_sub(1)
    }
}

/// The ways a walk may order itself, as `(x_first, long_y)`, in the order
/// they are tried: both dimension orders with the shorter Y direction,
/// then both the long way around the torus (a failed wrap link must not
/// partition a column).
const WALK_ORDERS: [(bool, bool); 4] = [(true, false), (false, false), (true, true), (false, true)];

/// One dimension-ordered walk between two on-mesh coordinates. It holds
/// everything a hop is computed from, so no step goes back to the mesh.
struct Walk {
    x_len: u32,
    y_len: u32,
    pod_x_len: u32,
    torus_y: bool,
    src: Coord,
    dst: Coord,
}

impl Walk {
    /// Walks `src → dst` in the given order, handing `hop` every step —
    /// the chip left, the chip entered, and the class of the link between
    /// them — until it returns `false`. Returns whether `dst` was reached.
    fn run(
        &self,
        (x_first, long_y): (bool, bool),
        mut hop: impl FnMut(ChipId, ChipId, LinkClass) -> bool,
    ) -> bool {
        let mut cur = self.src;
        if x_first {
            if !self.walk_x(&mut cur, &mut hop) {
                return false;
            }
            self.walk_y(&mut cur, long_y, &mut hop)
        } else {
            if !self.walk_y(&mut cur, long_y, &mut hop) {
                return false;
            }
            self.walk_x(&mut cur, &mut hop)
        }
    }

    fn walk_x(
        &self,
        cur: &mut Coord,
        hop: &mut impl FnMut(ChipId, ChipId, LinkClass) -> bool,
    ) -> bool {
        let row = cur.y * self.x_len;
        let pod = self.pod_x_len;
        let right = self.dst.x > cur.x;
        // X neighbours straddle a pod boundary exactly when the higher of
        // the two is a pod's first column. `boundary` is the next such
        // column the walk meets (at or left of `cur` when walking left),
        // so no hop divides.
        let mut boundary = (cur.x / pod + u32::from(right)) * pod;
        while cur.x != self.dst.x {
            let (next_x, higher) = if right {
                (cur.x + 1, cur.x + 1)
            } else {
                (cur.x - 1, cur.x)
            };
            let class = if higher == boundary {
                // Walking left never steps off column 0, so here
                // `boundary ≥ pod`.
                if right {
                    boundary += pod;
                } else {
                    boundary -= pod;
                }
                LinkClass::CrossPodOptical
            } else {
                LinkClass::IntraPod
            };
            if !hop(ChipId(row + cur.x), ChipId(row + next_x), class) {
                return false;
            }
            cur.x = next_x;
        }
        true
    }

    fn walk_y(
        &self,
        cur: &mut Coord,
        long_y: bool,
        hop: &mut impl FnMut(ChipId, ChipId, LinkClass) -> bool,
    ) -> bool {
        // Pick the direction once (recomputing per hop would oscillate
        // when walking the long way around). Going down covers
        // `(dst − cur) mod y_len` rows, going up the rest of the column.
        let go_down = if self.torus_y {
            let mut down = self.dst.y + self.y_len - cur.y;
            if down >= self.y_len {
                down -= self.y_len;
            }
            (down <= self.y_len - down) != long_y
        } else {
            self.dst.y > cur.y
        };
        while cur.y != self.dst.y {
            // Off a torus the walk never leaves `0..y_len`, so only a
            // torus step can land on either wrap below.
            let next_y = if go_down {
                if cur.y + 1 == self.y_len {
                    0
                } else {
                    cur.y + 1
                }
            } else if cur.y == 0 {
                self.y_len - 1
            } else {
                cur.y - 1
            };
            let class = if cur.y.abs_diff(next_y) == 1 {
                LinkClass::IntraPod
            } else {
                LinkClass::TorusWrap
            };
            let (prev, next) = (cur.y * self.x_len + cur.x, next_y * self.x_len + cur.x);
            if !hop(ChipId(prev), ChipId(next), class) {
                return false;
            }
            cur.y = next_y;
        }
        true
    }
}

impl Multipod {
    /// Visits every hop of the route between two chips, in order, as
    /// `visit(previous chip, next chip, class of the link between them)`
    /// — the one way to ask a question of a path (its chips, its length,
    /// its latency) without materializing it.
    ///
    /// The route is dimension-ordered (X then Y), uses the shorter torus
    /// direction along Y and honours the sparse visibility rule (every
    /// intermediate turn happens at the row/column intersection). When a
    /// link on it has failed, the Y-then-X detour is tried, then both
    /// orders the long way around the torus.
    ///
    /// The order is settled before the first hop is visited, so on `Err`
    /// nothing has been visited. Settling it takes a dry walk per order
    /// tried, asking [`Multipod::link_between`] of every hop; only a
    /// failed link can block a walk, so a mesh without failed links takes
    /// the first order unprobed.
    ///
    /// # Errors
    ///
    /// Returns [`TopologyError::ChipOutOfRange`] when either endpoint is
    /// not a chip of this mesh, and [`TopologyError::NoRoute`] when every
    /// order is blocked by failed links.
    pub fn for_each_hop(
        &self,
        from: ChipId,
        to: ChipId,
        visit: impl FnMut(ChipId, ChipId, LinkClass),
    ) -> Result<(), TopologyError> {
        let src = self.checked_coord(from)?;
        let dst = self.checked_coord(to)?;
        self.walk_edge((from, src), (to, dst), visit)
    }

    /// Visits every hop of every logical edge of `ring` — member `i` to
    /// member `i + 1`, then the closing edge from the last member back to
    /// the first, whether or not the ring wraps — as `visit(edge, previous
    /// chip, next chip, class)`, where `edge` is the index of the edge's
    /// first member. Each edge is walked exactly as
    /// [`Multipod::for_each_hop`] walks it, but each member's coordinate
    /// is computed once, not once for each of its two edges.
    ///
    /// # Errors
    ///
    /// The first edge's [`Multipod::for_each_hop`] error, members checked
    /// in ring order. Every hop of the edges before it has been visited by
    /// then; none of the failing edge's has.
    pub fn for_each_ring_hop(
        &self,
        ring: &Ring,
        mut visit: impl FnMut(usize, ChipId, ChipId, LinkClass),
    ) -> Result<(), TopologyError> {
        let Some((&first, rest)) = ring.members().split_first() else {
            return Ok(());
        };
        let start = (first, self.checked_coord(first)?);
        let mut from = start;
        for (edge, &to) in rest.iter().enumerate() {
            let to = (to, self.checked_coord(to)?);
            self.walk_edge(from, to, |a, b, class| visit(edge, a, b, class))?;
            from = to;
        }
        self.walk_edge(from, start, |a, b, class| visit(rest.len(), a, b, class))
    }

    /// The coordinate of `chip`, or the error naming it off the mesh.
    fn checked_coord(&self, chip: ChipId) -> Result<Coord, TopologyError> {
        let num_chips = self.num_chips();
        if chip.index() >= num_chips {
            return Err(TopologyError::ChipOutOfRange { chip, num_chips });
        }
        Ok(Coord::new(chip.0 % self.x_len(), chip.0 / self.x_len()))
    }

    /// Walks one edge between on-mesh chips, given with their coordinates,
    /// in the first order of [`WALK_ORDERS`] that reaches `to`: both doors
    /// above come through here.
    fn walk_edge(
        &self,
        (from, src): (ChipId, Coord),
        (to, dst): (ChipId, Coord),
        mut visit: impl FnMut(ChipId, ChipId, LinkClass),
    ) -> Result<(), TopologyError> {
        let walk = Walk {
            x_len: self.x_len(),
            y_len: self.y_len(),
            pod_x_len: self.config().pod_x_len,
            torus_y: self.torus_y(),
            src,
            dst,
        };
        let order = if self.failed_links().is_empty() {
            WALK_ORDERS[0]
        } else {
            WALK_ORDERS
                .into_iter()
                .find(|&order| walk.run(order, |a, b, _| self.link_between(a, b).is_some()))
                .ok_or(TopologyError::NoRoute { from, to })?
        };
        walk.run(order, |a, b, class| {
            visit(a, b, class);
            true
        });
        Ok(())
    }

    /// The route between two chips as [`Multipod::for_each_hop`] walks
    /// it, collected.
    ///
    /// # Errors
    ///
    /// See [`Multipod::for_each_hop`].
    pub fn route(&self, from: ChipId, to: ChipId) -> Result<Route, TopologyError> {
        let mut chips = vec![from];
        self.for_each_hop(from, to, |_, next, _| chips.push(next))?;
        Ok(Route { chips })
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::MultipodConfig;

    /// The routing `Multipod::route` did before the walker, kept as its
    /// oracle: one materialized attempt per order, each hop re-deriving
    /// coordinates and asking `link_between`.
    impl Multipod {
        fn route_cascade(&self, from: ChipId, to: ChipId) -> Result<Route, TopologyError> {
            if from == to {
                return Ok(Route { chips: vec![from] });
            }
            self.route_dim_order(from, to, true, false)
                .or_else(|_| self.route_dim_order(from, to, false, false))
                .or_else(|_| self.route_dim_order(from, to, true, true))
                .or_else(|_| self.route_dim_order(from, to, false, true))
                .map_err(|_| TopologyError::NoRoute { from, to })
        }

        /// Route with an explicit dimension order (`x_first` or Y first)
        /// and Y-direction choice (`long_y` walks against the shorter
        /// torus direction).
        fn route_dim_order(
            &self,
            from: ChipId,
            to: ChipId,
            x_first: bool,
            long_y: bool,
        ) -> Result<Route, TopologyError> {
            let mut chips = vec![from];
            let mut cur = self.coord_of(from);
            let dst = self.coord_of(to);
            let walk_x = |chips: &mut Vec<ChipId>, cur: &mut Coord| -> Result<(), TopologyError> {
                while cur.x != dst.x {
                    let next_x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
                    let next = self.chip_at(Coord::new(next_x, cur.y));
                    let prev = self.chip_at(*cur);
                    if self.link_between(prev, next).is_none() {
                        return Err(TopologyError::NoRoute { from, to });
                    }
                    chips.push(next);
                    cur.x = next_x;
                }
                Ok(())
            };
            let walk_y = |this: &Multipod,
                          chips: &mut Vec<ChipId>,
                          cur: &mut Coord|
             -> Result<(), TopologyError> {
                // Pick the direction once (recomputing per hop would
                // oscillate when walking the long way around).
                let up_dist = (cur.y + this.y_len() - dst.y) % this.y_len();
                let down_dist = (dst.y + this.y_len() - cur.y) % this.y_len();
                let prefer_down = down_dist <= up_dist;
                let go_down = if long_y { !prefer_down } else { prefer_down };
                while cur.y != dst.y {
                    let next_y = if !this.torus_y() {
                        if dst.y > cur.y {
                            cur.y + 1
                        } else {
                            cur.y - 1
                        }
                    } else if go_down {
                        (cur.y + 1) % this.y_len()
                    } else {
                        (cur.y + this.y_len() - 1) % this.y_len()
                    };
                    let next = this.chip_at(Coord::new(cur.x, next_y));
                    let prev = this.chip_at(*cur);
                    if this.link_between(prev, next).is_none() {
                        return Err(TopologyError::NoRoute { from, to });
                    }
                    chips.push(next);
                    cur.y = next_y;
                }
                Ok(())
            };
            if x_first {
                walk_x(&mut chips, &mut cur)?;
                walk_y(self, &mut chips, &mut cur)?;
            } else {
                walk_y(self, &mut chips, &mut cur)?;
                walk_x(&mut chips, &mut cur)?;
            }
            Ok(Route { chips })
        }
    }

    /// The link classes the walker reports along `from → to`.
    fn link_classes(m: &Multipod, from: ChipId, to: ChipId) -> Vec<LinkClass> {
        let mut classes = Vec::new();
        m.for_each_hop(from, to, |_, _, class| classes.push(class))
            .unwrap();
        classes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// On every ordered pair of a mesh with up to three failed links
        /// and a failed chip, the walker visits exactly the cascade's
        /// chips (or fails with its `NoRoute`), each hop starts where the
        /// last one ended, and each class it computes is the one
        /// `link_between` reports — so every hop it emits is live.
        #[test]
        fn walker_matches_the_materializing_cascade(
            pods in 1u32..4,
            pod_x_len in 1u32..10,
            pod_y_len in 1u32..10,
            torus_y in any::<bool>(),
            failed in prop::collection::vec(0usize..10_000, 0..4),
            dead_chip in prop::collection::vec(0usize..10_000, 0..2),
        ) {
            let mut m = Multipod::new(MultipodConfig { pods, pod_x_len, pod_y_len, torus_y });
            let links = m.links();
            for sel in failed {
                if let Some(link) = links.get(sel % links.len().max(1)) {
                    m.fail_link(link.from, link.to);
                }
            }
            for sel in dead_chip {
                m.fail_chip(ChipId((sel % m.num_chips()) as u32));
            }
            for from in m.chips() {
                for to in m.chips() {
                    let mut chips = vec![from];
                    let walked = m.for_each_hop(from, to, |prev, next, class| {
                        assert_eq!(chips.last(), Some(&prev));
                        assert_eq!(m.link_between(prev, next), Some(class));
                        chips.push(next);
                    });
                    match m.route_cascade(from, to) {
                        Ok(route) => {
                            prop_assert_eq!(walked, Ok(()));
                            prop_assert_eq!(chips, route.chips);
                        }
                        Err(e) => {
                            prop_assert_eq!(walked, Err(e));
                            prop_assert_eq!(chips, vec![from], "hops visited before {:?}", walked);
                        }
                    }
                }
            }
        }

        /// Every ring the collectives build — Y rings, X lines at every
        /// stride that divides the row, the snake, the survivor ring round
        /// a dead chip, and a ring naming an off-mesh chip — is walked by
        /// the ring door hop for hop as one `for_each_hop` per logical
        /// edge walks it, closing edge included, and fails on the same
        /// edge with the same error.
        #[test]
        fn ring_walk_matches_one_walk_per_edge(
            pods in 1u32..4,
            pod_x_len in 1u32..9,
            pod_y_len in 1u32..6,
            torus_y in any::<bool>(),
            failed in prop::collection::vec(0usize..10_000, 0..4),
            dead_chip in prop::collection::vec(0usize..10_000, 0..2),
        ) {
            let mut m = Multipod::new(MultipodConfig { pods, pod_x_len, pod_y_len, torus_y });
            let links = m.links();
            for sel in failed {
                if let Some(link) = links.get(sel % links.len().max(1)) {
                    m.fail_link(link.from, link.to);
                }
            }
            let dead: Vec<ChipId> = dead_chip
                .iter()
                .map(|sel| ChipId((sel % m.num_chips()) as u32))
                .collect();
            for &chip in &dead {
                m.fail_chip(chip);
            }
            let mut rings: Vec<Ring> = (0..m.x_len()).map(|x| m.y_ring(x)).collect();
            for stride in (1..=8).filter(|&s| m.x_len().is_multiple_of(s)) {
                for y in 0..m.y_len() {
                    rings.push(m.x_line_strided(y, stride - 1, stride));
                }
            }
            rings.push(m.snake_ring());
            let survivors = m.survivor_order(|c| !dead.contains(&c));
            if !survivors.is_empty() {
                rings.push(Ring::new(survivors, m.torus_y(), 1));
            }
            let off_mesh = ChipId(m.num_chips() as u32);
            rings.push(Ring::new(vec![ChipId(0), off_mesh, ChipId(0)], false, 1));
            for ring in &rings {
                let mut walked = Vec::new();
                let result = m.for_each_ring_hop(ring, |edge, a, b, class| {
                    walked.push((edge, a, b, class));
                });
                let (per_edge, expected) = walk_each_edge(&m, ring);
                prop_assert_eq!(result, expected, "{:?}", ring);
                prop_assert_eq!(walked, per_edge, "{:?}", ring);
            }
        }
    }

    type EdgeHops = Vec<(usize, ChipId, ChipId, LinkClass)>;

    /// The hops of `ring`'s logical edges, one `for_each_hop` per edge,
    /// up to the first edge that fails and its error.
    fn walk_each_edge(m: &Multipod, ring: &Ring) -> (EdgeHops, Result<(), TopologyError>) {
        let members = ring.members();
        let n = members.len();
        let mut hops = Vec::new();
        for edge in 0..n {
            let (from, to) = (members[edge], members[(edge + 1) % n]);
            let walked = m.for_each_hop(from, to, |a, b, class| hops.push((edge, a, b, class)));
            if walked.is_err() {
                return (hops, walked);
            }
        }
        (hops, Ok(()))
    }

    #[test]
    fn off_mesh_endpoints_are_typed_errors_not_panics() {
        let m = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let out_of_range = |chip| TopologyError::ChipOutOfRange {
            chip,
            num_chips: 16,
        };
        for (from, to, bad) in [(0, 99, 99), (16, 0, 16), (99, 99, 99)] {
            let (from, to) = (ChipId(from), ChipId(to));
            assert_eq!(m.route(from, to), Err(out_of_range(ChipId(bad))));
            let walked = m.for_each_hop(from, to, |_, _, _| panic!("visited a hop"));
            assert_eq!(walked, Err(out_of_range(ChipId(bad))));
        }
    }

    #[test]
    fn sparse_tables_fit_on_the_multipod_dense_do_not() {
        let m = Multipod::new(MultipodConfig::multipod(4));
        let chip = m.chip_at(Coord::new(64, 16));
        let sparse = RoutingTable::sparse(&m, chip);
        assert_eq!(sparse.len(), 127 + 31);
        assert!(sparse.fits());
        let dense = RoutingTable::dense(&m, chip);
        assert_eq!(dense.len(), 4095);
        assert!(!dense.fits());
    }

    #[test]
    fn sparse_visibility_is_row_and_column() {
        let m = Multipod::new(MultipodConfig::mesh(8, 4, true));
        let chip = m.chip_at(Coord::new(2, 1));
        let t = RoutingTable::sparse(&m, chip);
        assert!(t.visible(m.chip_at(Coord::new(7, 1))));
        assert!(t.visible(m.chip_at(Coord::new(2, 3))));
        assert!(!t.visible(m.chip_at(Coord::new(3, 2))));
        assert!(t.visible(chip));
    }

    #[test]
    fn route_is_dimension_ordered_and_adjacent() {
        let m = Multipod::new(MultipodConfig::mesh(8, 8, true));
        let from = m.chip_at(Coord::new(1, 1));
        let to = m.chip_at(Coord::new(5, 6));
        let r = m.route(from, to).unwrap();
        // Adjacency along the whole route.
        let classes = link_classes(&m, from, to);
        assert_eq!(classes.len(), r.num_hops());
        // X distance 4 + torus-Y distance min(5, 3)=3.
        assert_eq!(r.num_hops(), 4 + 3);
    }

    #[test]
    fn route_uses_torus_shortcut() {
        let m = Multipod::new(MultipodConfig::mesh(4, 8, true));
        let from = m.chip_at(Coord::new(0, 0));
        let to = m.chip_at(Coord::new(0, 7));
        let r = m.route(from, to).unwrap();
        assert_eq!(r.num_hops(), 1);
        assert_eq!(link_classes(&m, from, to), vec![LinkClass::TorusWrap]);
    }

    #[test]
    fn route_without_torus_walks_the_column() {
        let m = Multipod::new(MultipodConfig::mesh(4, 8, false));
        let from = m.chip_at(Coord::new(0, 0));
        let to = m.chip_at(Coord::new(0, 7));
        let r = m.route(from, to).unwrap();
        assert_eq!(r.num_hops(), 7);
    }

    #[test]
    fn route_detours_around_failed_link() {
        let mut m = Multipod::new(MultipodConfig::mesh(4, 4, false));
        let from = m.chip_at(Coord::new(0, 0));
        let to = m.chip_at(Coord::new(2, 2));
        let a = m.chip_at(Coord::new(1, 0));
        let b = m.chip_at(Coord::new(2, 0));
        m.fail_link(a, b);
        let r = m.route(from, to).unwrap();
        assert_eq!(r.num_hops(), 4); // Y-then-X detour has equal length.
        assert!(!r
            .chips
            .windows(2)
            .any(|w| (w[0] == a && w[1] == b) || (w[0] == b && w[1] == a)));
    }

    #[test]
    fn route_fails_when_fully_blocked() {
        let mut m = Multipod::new(MultipodConfig::mesh(2, 1, false));
        let from = m.chip_at(Coord::new(0, 0));
        let to = m.chip_at(Coord::new(1, 0));
        m.fail_link(from, to);
        assert!(matches!(
            m.route(from, to),
            Err(TopologyError::NoRoute { .. })
        ));
    }

    #[test]
    fn self_route_is_trivial() {
        let m = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let c = m.chip_at(Coord::new(1, 1));
        let r = m.route(c, c).unwrap();
        assert_eq!(r.num_hops(), 0);
    }

    #[test]
    fn cross_pod_routes_use_optical_links() {
        let m = Multipod::new(MultipodConfig::multipod(2));
        let from = m.chip_at(Coord::new(30, 0));
        let to = m.chip_at(Coord::new(34, 0));
        let classes = link_classes(&m, from, to);
        assert_eq!(
            classes
                .iter()
                .filter(|&&c| c == LinkClass::CrossPodOptical)
                .count(),
            1
        );
    }
}
