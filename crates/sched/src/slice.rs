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
    /// first, every one a power-of-two rectangle that fits the mesh.
    ///
    /// # Errors
    ///
    /// [`SchedError::UnplaceableJob`] when `chips` is not a power of two
    /// ≥ 2 or no rectangle of that area fits the mesh at all.
    pub fn shapes_for(&self, job: u64, chips: u32) -> Result<Vec<(u32, u32)>, SchedError> {
        if !(chips.is_power_of_two() && chips >= 2) {
            return Err(SchedError::UnplaceableJob { job, chips });
        }
        let mut shapes: Vec<(u32, u32)> = Vec::new();
        let mut w = 1u32;
        while w <= chips {
            let h = chips / w;
            if w <= self.x_len && h <= self.y_len {
                shapes.push((w, h));
            }
            w *= 2;
        }
        if shapes.is_empty() {
            return Err(SchedError::UnplaceableJob { job, chips });
        }
        // Most-square first; ties broken wider-first so the order is total.
        shapes.sort_by_key(|&(w, h)| (w.abs_diff(h), std::cmp::Reverse(w)));
        Ok(shapes)
    }

    fn rect_free(&self, slice: Slice) -> bool {
        slice
            .rows(self.x_len)
            .all(|row| self.cells[row].iter().all(|c| *c == Cell::Free))
    }

    /// First free shape-aligned `w × h` rectangle, scanning rows outward
    /// then columns (y-major), or `None` when nothing fits.
    fn find_anchor(&self, w: u32, h: u32) -> Option<Slice> {
        (0..self.y_len / h)
            .flat_map(|j| {
                (0..self.x_len / w).map(move |i| Slice {
                    x0: i * w,
                    y0: j * h,
                    w,
                    h,
                })
            })
            .find(|&slice| self.rect_free(slice))
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
        let Some(slice) = shapes.into_iter().find_map(|(w, h)| self.find_anchor(w, h)) else {
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

    /// How many of `candidates`, freed in order, a claim of `chips` by
    /// `claimant` needs before one of its shapes fits, or `None` when it
    /// does not fit even with all of them gone. The trial frees the
    /// candidates' cells in place and puts every one back before it
    /// returns, so the allocator is left as it was.
    ///
    /// # Errors
    ///
    /// As [`SliceAllocator::shapes_for`], before any cell is touched.
    pub(crate) fn victims_needed(
        &mut self,
        claimant: u64,
        chips: u32,
        candidates: impl IntoIterator<Item = u64>,
    ) -> Result<Option<usize>, SchedError> {
        let shapes = self.shapes_for(claimant, chips)?;
        let mut undo: Vec<(usize, u64)> = Vec::new();
        let mut needed = None;
        for (k, owner) in candidates.into_iter().enumerate() {
            for slice in self.owned.get(&owner).into_iter().flatten() {
                for i in slice.rows(self.x_len).flatten() {
                    if self.cells[i] == Cell::Busy(owner) {
                        self.cells[i] = Cell::Free;
                        undo.push((i, owner));
                    }
                }
            }
            if shapes
                .iter()
                .any(|&(w, h)| self.find_anchor(w, h).is_some())
            {
                needed = Some(k + 1);
                break;
            }
        }
        for (i, owner) in undo {
            self.cells[i] = Cell::Busy(owner);
        }
        Ok(needed)
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

    fn allocator(x: u32, y: u32) -> SliceAllocator {
        SliceAllocator::new(&Multipod::new(MultipodConfig::mesh(x, y, true)))
    }

    #[test]
    fn shapes_are_most_square_first() {
        let a = allocator(8, 8);
        let shapes = a.shapes_for(0, 16).unwrap();
        assert_eq!(shapes[0], (4, 4));
        assert!(shapes.contains(&(8, 2)) && shapes.contains(&(2, 8)));
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

    /// The victim trial the scheduler ran before the in-place one, kept as
    /// its oracle: free each candidate on a copy of the allocator, by a
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
        /// inside and outside slices), candidate order and claim size, the
        /// in-place trial needs as many victims as the copying one, and
        /// leaves the allocator exactly as it found it.
        #[test]
        fn in_place_trial_matches_the_copying_trial(
            x in 1u32..17,
            y in 1u32..17,
            grants in proptest::collection::vec((0u64..10, 1u32..7), 0..24),
            dead in proptest::collection::vec(0u32..256, 0..6),
            candidates in proptest::collection::vec(0u64..12, 1..12),
            claim in 1u32..9,
        ) {
            let mut a = allocator(x, y);
            for (owner, log) in grants {
                let _ = a.allocate(owner, 1 << log);
            }
            for chip in dead {
                a.mark_dead(ChipId(chip));
            }
            prop_assert!(a.accounting_consistent());
            let before = a.clone();
            let want = victims_needed_by_clone(&a, 99, 1 << claim, &candidates).ok();
            let got = a.victims_needed(99, 1 << claim, candidates.iter().copied()).ok();
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
