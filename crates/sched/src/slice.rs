//! Rectangular slice allocation over the live chips of a 2-D mesh.
//!
//! TPU pods are multiplexed across jobs by carving the mesh into
//! rectangular *slices* (Podracer's model): every job gets a contiguous
//! `w × h` rectangle of chips, gang-scheduled as a unit. The allocator
//! here is a deterministic buddy-style first-fit: candidate shapes are
//! power-of-two rectangles, anchors are scanned in a fixed shape-aligned
//! order, and dead chips (PR 2 chip-loss state) poison every rectangle
//! that covers them. Determinism is what makes whole scheduling campaigns
//! byte-reproducible.

use std::collections::BTreeMap;
use std::mem;
use std::ops::Range;

use serde::{Deserialize, Serialize};

use multipod_topology::{ChipId, Multipod};

use crate::SchedError;

/// One allocated rectangle of chips.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Slice {
    /// Anchor column (inclusive).
    pub x0: u32,
    /// Anchor row (inclusive).
    pub y0: u32,
    /// Width in chips.
    pub w: u32,
    /// Height in chips.
    pub h: u32,
}

impl Slice {
    /// Chips in the slice.
    pub fn chips(&self) -> u32 {
        self.w * self.h
    }

    /// Whether the slice covers `(x, y)`.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        x >= self.x0 && x < self.x0 + self.w && y >= self.y0 && y < self.y0 + self.h
    }

    /// The slice's shape as `(w, h)`.
    pub fn shape(&self) -> (u32, u32) {
        (self.w, self.h)
    }

    /// The row-major cell ranges the slice covers on a mesh `x_len` chips
    /// wide, one per row.
    fn rows(self, x_len: u32) -> impl Iterator<Item = Range<usize>> {
        (self.y0..self.y0 + self.h).map(move |y| {
            let start = (y * x_len + self.x0) as usize;
            start..start + self.w as usize
        })
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cell {
    Free,
    Dead,
    Busy(u64),
}

/// Deterministic first-fit/buddy allocator over the mesh's live chips.
///
/// Cells are `Free`, `Dead`, or `Busy(job)`. Allocation scans candidate
/// power-of-two shapes from most-square to most-elongated and, within a
/// shape, anchors aligned to the shape itself (buddy alignment — slices
/// of one shape tile the mesh exactly, which keeps fragmentation at
/// zero when the job mix is power-of-two, as TPU slices are).
///
/// Beside the cells it keeps the busy and dead counts and each owner's
/// slices, updated by `allocate`, `free` and `mark_dead`: the counts are
/// O(1) and a free touches only the owner's rectangles.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceAllocator {
    x_len: u32,
    y_len: u32,
    cells: Vec<Cell>,
    /// `Busy` cells.
    busy: u32,
    /// `Dead` cells.
    dead: u32,
    /// Every owner's slices in allocation order, dead cells and all.
    owned: BTreeMap<u64, Vec<Slice>>,
}

impl SliceAllocator {
    /// Builds an allocator over `mesh`, marking already-isolated chips
    /// dead.
    pub fn new(mesh: &Multipod) -> SliceAllocator {
        let cells: Vec<Cell> = mesh
            .chips()
            .map(|c| {
                if mesh.is_isolated(c) {
                    Cell::Dead
                } else {
                    Cell::Free
                }
            })
            .collect();
        SliceAllocator {
            x_len: mesh.x_len(),
            y_len: mesh.y_len(),
            busy: 0,
            dead: cells.iter().filter(|c| **c == Cell::Dead).count() as u32,
            cells,
            owned: BTreeMap::new(),
        }
    }

    /// Candidate `(w, h)` shapes for a slice of `chips`, most-square
    /// first, every one a power-of-two rectangle that fits the mesh. The
    /// shapes are generated in order, so asking allocates nothing.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnplaceableJob`] when `chips` is not a power of two
    /// ≥ 2 or no rectangle of that area fits the mesh at all.
    pub fn shapes_for(
        &self,
        job: u64,
        chips: u32,
    ) -> Result<impl Iterator<Item = (u32, u32)> + Clone, SchedError> {
        if !(chips.is_power_of_two() && chips >= 2) {
            return Err(SchedError::UnplaceableJob { job, chips });
        }
        let (k, x_len, y_len) = (chips.trailing_zeros(), self.x_len, self.y_len);
        // Sides `2^a × 2^(k−a)` by `d = |2a − k|`, the wider of each pair
        // first (for powers of two, the order of `(|w − h|, wider first)`);
        // an even `k`'s square comes twice at `d = 0`, so one is skipped.
        let shapes = (k % 2..=k)
            .step_by(2)
            .flat_map(move |d| [(k + d) / 2, (k - d) / 2])
            .skip(usize::from(k % 2 == 0))
            .map(move |a| (1 << a, chips >> a))
            .filter(move |&(w, h)| w <= x_len && h <= y_len);
        if shapes.clone().next().is_none() {
            return Err(SchedError::UnplaceableJob { job, chips });
        }
        Ok(shapes)
    }

    /// The first rectangle whose every cell is `usable`, trying `shapes`
    /// in order and, within a shape, anchors aligned to it, scanning rows
    /// outward then columns (y-major); `None` when nothing fits.
    fn find_slice(
        &self,
        mut shapes: impl Iterator<Item = (u32, u32)>,
        usable: impl Fn(Cell) -> bool,
    ) -> Option<Slice> {
        shapes.find_map(|(w, h)| {
            let anchors =
                (0..self.y_len / h).flat_map(|j| (0..self.x_len / w).map(move |i| (i, j)));
            anchors
                .map(|(i, j)| Slice {
                    x0: i * w,
                    y0: j * h,
                    w,
                    h,
                })
                .find(|&slice| {
                    let mut cells = slice.rows(self.x_len).flat_map(|row| &self.cells[row]);
                    cells.all(|&c| usable(c))
                })
        })
    }

    /// Allocates a slice of `chips` for `job`: the first buddy-aligned
    /// free rectangle under the deterministic shape/anchor scan, or
    /// `None` when the request cannot currently be satisfied.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnplaceableJob`] when no shape of this area can
    /// *ever* fit the mesh (as opposed to not fitting right now).
    pub fn allocate(&mut self, job: u64, chips: u32) -> Result<Option<Slice>, SchedError> {
        let shapes = self.shapes_for(job, chips)?;
        let Some(slice) = self.find_slice(shapes, |c| c == Cell::Free) else {
            return Ok(None);
        };
        for row in slice.rows(self.x_len) {
            for cell in &mut self.cells[row] {
                debug_assert_eq!(*cell, Cell::Free);
                *cell = Cell::Busy(job);
            }
        }
        self.busy += slice.chips();
        self.owned.entry(job).or_default().push(slice);
        Ok(Some(slice))
    }

    /// Frees every cell `job` occupies (dead cells stay dead). Returns
    /// the number of chips released.
    pub fn free(&mut self, job: u64) -> u32 {
        let mut released = 0;
        for slice in self.owned.remove(&job).unwrap_or_default() {
            for row in slice.rows(self.x_len) {
                for cell in &mut self.cells[row] {
                    if *cell == Cell::Busy(job) {
                        *cell = Cell::Free;
                        released += 1;
                    }
                }
            }
        }
        self.busy -= released;
        released
    }

    /// How many candidates, freed in order, a claim of `chips` by
    /// `claimant` needs before one of its shapes fits, or `None` when it
    /// does not fit even with all of them gone. `candidates` yields their
    /// keys in descending order and `key` an owner's, so an owner is among
    /// the first `k` when its key is at least the `k`-th's. Read-only and
    /// allocation-free: it searches with those owners' cells counted usable,
    /// all candidates first, then each prefix (freeing more never un-fits).
    ///
    /// # Errors
    ///
    /// As [`SliceAllocator::shapes_for`].
    pub(crate) fn victims_needed<K: Ord>(
        &self,
        claimant: u64,
        chips: u32,
        mut candidates: impl Iterator<Item = K> + Clone,
        key: impl Fn(u64) -> Option<K>,
    ) -> Result<Option<usize>, SchedError> {
        let shapes = self.shapes_for(claimant, chips)?;
        // Whether the claim fits with every owner keyed at least `last` freed.
        let fits = |last: &K| {
            let usable = |cell| match cell {
                Cell::Free => true,
                Cell::Dead => false,
                Cell::Busy(o) => key(o).is_some_and(|k| k >= *last),
            };
            self.find_slice(shapes.clone(), usable).is_some()
        };
        // One search when nothing fits even with every candidate gone.
        if !candidates.clone().last().is_some_and(|last| fits(&last)) {
            return Ok(None);
        }
        Ok(candidates.position(|kth| fits(&kth)).map(|i| i + 1))
    }

    /// Marks a chip dead. Returns the job occupying it, if any; the
    /// caller is responsible for killing that job (its remaining cells
    /// free via [`SliceAllocator::free`], this one stays dead). A chip
    /// off the mesh is left alone and reports no occupant.
    pub fn mark_dead(&mut self, chip: ChipId) -> Option<u64> {
        let cell = self.cells.get_mut(chip.index())?;
        match mem::replace(cell, Cell::Dead) {
            Cell::Dead => None,
            Cell::Free => {
                self.dead += 1;
                None
            }
            Cell::Busy(job) => {
                self.dead += 1;
                self.busy -= 1;
                Some(job)
            }
        }
    }

    /// Chips not dead.
    pub fn live_chips(&self) -> u32 {
        self.cells.len() as u32 - self.dead
    }

    /// Chips currently allocated to jobs.
    pub fn busy_chips(&self) -> u32 {
        self.busy
    }

    /// The job occupying `chip`, if any (`None` off the mesh).
    pub fn owner(&self, chip: ChipId) -> Option<u64> {
        match self.cells.get(chip.index()) {
            Some(Cell::Busy(job)) => Some(*job),
            _ => None,
        }
    }

    /// Whether `chip` is dead (`false` off the mesh).
    pub fn is_dead(&self, chip: ChipId) -> bool {
        self.cells.get(chip.index()) == Some(&Cell::Dead)
    }

    /// Chip ids covered by `slice` in row-major order.
    pub fn slice_chips(&self, slice: &Slice) -> Vec<ChipId> {
        slice
            .rows(self.x_len)
            .flatten()
            .map(|i| ChipId(i as u32))
            .collect()
    }

    /// The counts and the owner index against a full scan of the cells:
    /// every cell of an owner's slices is that owner's or dead, and
    /// together they cover every busy cell.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn accounting_consistent(&self) -> bool {
        let count = |want: fn(&Cell) -> bool| self.cells.iter().filter(|c| want(c)).count();
        let mut indexed = 0;
        let mut ok = true;
        for (&owner, slices) in &self.owned {
            ok &= !slices.is_empty();
            for i in slices.iter().flat_map(|s| s.rows(self.x_len).flatten()) {
                match self.cells[i] {
                    Cell::Busy(o) if o == owner => indexed += 1,
                    Cell::Dead => {}
                    _ => ok = false,
                }
            }
        }
        let busy = count(|c| matches!(c, Cell::Busy(_)));
        ok && indexed == busy
            && self.busy as usize == busy
            && self.dead as usize == count(|c| *c == Cell::Dead)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_topology::MultipodConfig;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    fn allocator(x: u32, y: u32) -> SliceAllocator {
        SliceAllocator::new(&Multipod::new(MultipodConfig::mesh(x, y, true)))
    }

    #[test]
    fn shapes_are_most_square_first() {
        let a = allocator(8, 8);
        let shapes: Vec<_> = a.shapes_for(0, 16).unwrap().collect();
        assert_eq!(shapes, [(4, 4), (8, 2), (2, 8)]);
    }

    /// The order `shapes_for` generated by sorting every fitting
    /// power-of-two rectangle, kept as the oracle of its generator.
    fn shapes_by_sort(x_len: u32, y_len: u32, chips: u32) -> Vec<(u32, u32)> {
        let mut shapes: Vec<(u32, u32)> = (0..=chips.trailing_zeros())
            .map(|a| (1 << a, chips >> a))
            .filter(|&(w, h)| w <= x_len && h <= y_len)
            .collect();
        shapes.sort_by_key(|&(w, h)| (w.abs_diff(h), std::cmp::Reverse(w)));
        shapes
    }

    #[test]
    fn generated_shapes_are_the_sorted_shapes() {
        for (x, y) in [(8, 8), (128, 32), (32, 128), (3, 5), (16, 1), (1, 1)] {
            let a = allocator(x, y);
            for k in 1..16 {
                let want = shapes_by_sort(x, y, 1 << k);
                match a.shapes_for(0, 1 << k) {
                    Ok(shapes) => assert_eq!(shapes.collect::<Vec<_>>(), want, "{x}x{y}, 2^{k}"),
                    Err(_) => assert!(want.is_empty(), "{x}x{y}, 2^{k}"),
                }
            }
        }
    }

    #[test]
    fn allocation_is_aligned_and_disjoint() {
        let mut a = allocator(8, 4);
        let s1 = a.allocate(1, 8).unwrap().unwrap();
        let s2 = a.allocate(2, 8).unwrap().unwrap();
        assert_ne!((s1.x0, s1.y0), (s2.x0, s2.y0));
        assert_eq!(s1.x0 % s1.w, 0);
        assert_eq!(a.busy_chips(), 16);
        for y in 0..4 {
            for x in 0..8 {
                let both = s1.contains(x, y) && s2.contains(x, y);
                assert!(!both, "slices overlap at ({x},{y})");
            }
        }
    }

    #[test]
    fn full_mesh_rejects_then_accepts_after_free() {
        let mut a = allocator(4, 4);
        assert!(a.allocate(1, 16).unwrap().is_some());
        assert!(a.allocate(2, 2).unwrap().is_none());
        a.free(1);
        assert!(a.allocate(2, 2).unwrap().is_some());
    }

    #[test]
    fn dead_chips_poison_rectangles() {
        let mut a = allocator(4, 4);
        a.mark_dead(ChipId(0));
        // The whole mesh no longer fits, but the other 4x2 half does.
        assert!(a.allocate(1, 16).unwrap().is_none());
        let s = a.allocate(1, 8).unwrap().unwrap();
        assert!(!s.contains(0, 0));
    }

    #[test]
    fn mark_dead_reports_the_occupant() {
        let mut a = allocator(4, 4);
        let s = a.allocate(7, 4).unwrap().unwrap();
        let victim = ChipId(s.y0 * 4 + s.x0);
        assert_eq!(a.mark_dead(victim), Some(7));
        assert_eq!(a.free(7), 3); // the dead cell is not released
        assert!(a.is_dead(victim));
        assert_eq!(a.live_chips(), 15);
    }

    #[test]
    fn non_power_of_two_is_a_typed_error() {
        let mut a = allocator(4, 4);
        assert!(matches!(
            a.allocate(9, 3),
            Err(SchedError::UnplaceableJob { job: 9, chips: 3 })
        ));
    }

    #[test]
    fn off_mesh_chips_have_no_owner_and_never_die() {
        let mut a = allocator(4, 4);
        a.allocate(1, 16).unwrap().unwrap();
        let before = a.clone();
        for chip in [ChipId(16), ChipId(u32::MAX)] {
            assert_eq!(a.owner(chip), None);
            assert!(!a.is_dead(chip));
            assert_eq!(a.mark_dead(chip), None);
        }
        assert_eq!(a, before, "an off-mesh mark_dead is a no-op");
        assert_eq!((a.live_chips(), a.busy_chips()), (16, 16));
    }

    #[test]
    fn one_free_releases_every_slice_of_an_owner() {
        let mut a = allocator(8, 4);
        a.allocate(3, 8).unwrap().unwrap();
        a.allocate(3, 4).unwrap().unwrap();
        a.allocate(4, 2).unwrap().unwrap();
        assert_eq!(a.free(3), 12);
        assert_eq!(a.busy_chips(), 2);
        assert!(a.accounting_consistent());
    }

    /// The victim trial the scheduler ran before the read-only one, kept
    /// as its oracle: free each candidate on a copy of the allocator, by a
    /// scan of every cell, until the claim fits.
    fn victims_needed_by_clone(
        a: &SliceAllocator,
        claimant: u64,
        chips: u32,
        candidates: &[u64],
    ) -> Result<Option<usize>, SchedError> {
        let mut trial = a.clone();
        for (k, &v) in candidates.iter().enumerate() {
            for cell in &mut trial.cells {
                if *cell == Cell::Busy(v) {
                    *cell = Cell::Free;
                }
            }
            if trial.allocate(claimant, chips)?.is_some() {
                return Ok(Some(k + 1));
            }
        }
        Ok(None)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// On any occupancy (owners holding one slice or two, dead chips
        /// inside and outside slices), candidate order and claim size up to
        /// the whole mesh, the read-only trial needs as many victims as the
        /// copying one, and leaves the allocator exactly as it found it.
        #[test]
        fn read_only_trial_matches_the_copying_trial(
            x in 1u32..17,
            y in 1u32..17,
            grants in proptest::collection::vec((0u64..10, 1u32..7), 0..24),
            dead in proptest::collection::vec(0u32..256, 0..6),
            candidates in proptest::collection::vec(0u64..12, 0..12),
            claim in 0u32..64,
        ) {
            let mut a = allocator(x, y);
            for (owner, log) in grants {
                let _ = a.allocate(owner, 1 << log);
            }
            for chip in dead {
                a.mark_dead(ChipId(chip % (x * y)));
            }
            prop_assert!(a.accounting_consistent());
            // 2 chips up to the largest power of two the mesh holds.
            let top = (x * y).ilog2().max(1);
            let claim = 1 << (1 + claim % top);
            let before = a.clone();
            let want = victims_needed_by_clone(&a, 99, claim, &candidates).ok();
            // An owner's key is its first place in the candidate order,
            // reversed to descend.
            let key = |o| candidates.iter().position(|&c| c == o).map(Reverse);
            let got = a.victims_needed(99, claim, (0..candidates.len()).map(Reverse), key).ok();
            prop_assert_eq!(got, want);
            prop_assert_eq!(&a, &before);
        }
    }

    #[test]
    fn oversized_request_is_a_typed_error() {
        let mut a = allocator(4, 4);
        assert!(matches!(
            a.allocate(1, 32),
            Err(SchedError::UnplaceableJob { .. })
        ));
    }
}
