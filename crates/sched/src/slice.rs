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
#[derive(Clone, Debug)]
pub struct SliceAllocator {
    x_len: u32,
    y_len: u32,
    cells: Vec<Cell>,
}

impl SliceAllocator {
    /// Builds an allocator over `mesh`, marking already-isolated chips
    /// dead.
    pub fn new(mesh: &Multipod) -> SliceAllocator {
        let x_len = mesh.x_len();
        let y_len = mesh.y_len();
        let cells = mesh
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
            x_len,
            y_len,
            cells,
        }
    }

    fn idx(&self, x: u32, y: u32) -> usize {
        (y * self.x_len + x) as usize
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

    fn rect_free(&self, x0: u32, y0: u32, w: u32, h: u32) -> bool {
        for y in y0..y0 + h {
            for x in x0..x0 + w {
                if self.cells[self.idx(x, y)] != Cell::Free {
                    return false;
                }
            }
        }
        true
    }

    /// First free shape-aligned anchor for a `w × h` rectangle, scanning
    /// rows outward then columns (y-major), or `None` when nothing fits.
    fn find_anchor(&self, w: u32, h: u32) -> Option<(u32, u32)> {
        let mut y0 = 0;
        while y0 + h <= self.y_len {
            let mut x0 = 0;
            while x0 + w <= self.x_len {
                if self.rect_free(x0, y0, w, h) {
                    return Some((x0, y0));
                }
                x0 += w;
            }
            y0 += h;
        }
        None
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
        for (w, h) in self.shapes_for(job, chips)? {
            if let Some((x0, y0)) = self.find_anchor(w, h) {
                let slice = Slice { x0, y0, w, h };
                for y in y0..y0 + h {
                    for x in x0..x0 + w {
                        let i = self.idx(x, y);
                        debug_assert_eq!(self.cells[i], Cell::Free);
                        self.cells[i] = Cell::Busy(job);
                    }
                }
                return Ok(Some(slice));
            }
        }
        Ok(None)
    }

    /// Frees every cell `job` occupies (dead cells stay dead). Returns
    /// the number of chips released.
    pub fn free(&mut self, job: u64) -> u32 {
        let mut released = 0;
        for cell in &mut self.cells {
            if *cell == Cell::Busy(job) {
                *cell = Cell::Free;
                released += 1;
            }
        }
        released
    }

    /// Marks a chip dead. Returns the job occupying it, if any; the
    /// caller is responsible for killing that job (its remaining cells
    /// free via [`SliceAllocator::free`], this one stays dead).
    pub fn mark_dead(&mut self, chip: ChipId) -> Option<u64> {
        let i = chip.index();
        let previous = self.cells[i];
        self.cells[i] = Cell::Dead;
        match previous {
            Cell::Busy(job) => Some(job),
            _ => None,
        }
    }

    /// Chips not dead.
    pub fn live_chips(&self) -> u32 {
        self.cells.iter().filter(|c| **c != Cell::Dead).count() as u32
    }

    /// Chips currently allocated to jobs.
    pub fn busy_chips(&self) -> u32 {
        self.cells
            .iter()
            .filter(|c| matches!(c, Cell::Busy(_)))
            .count() as u32
    }

    /// The job occupying `chip`, if any.
    pub fn owner(&self, chip: ChipId) -> Option<u64> {
        match self.cells[chip.index()] {
            Cell::Busy(job) => Some(job),
            _ => None,
        }
    }

    /// Whether `chip` is dead.
    pub fn is_dead(&self, chip: ChipId) -> bool {
        self.cells[chip.index()] == Cell::Dead
    }

    /// Chip ids covered by `slice` in row-major order.
    pub fn slice_chips(&self, slice: &Slice) -> Vec<ChipId> {
        let mut out = Vec::with_capacity(slice.chips() as usize);
        for y in slice.y0..slice.y0 + slice.h {
            for x in slice.x0..slice.x0 + slice.w {
                out.push(ChipId(y * self.x_len + x));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_topology::MultipodConfig;

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
    fn oversized_request_is_a_typed_error() {
        let mut a = allocator(4, 4);
        assert!(matches!(
            a.allocate(1, 32),
            Err(SchedError::UnplaceableJob { .. })
        ));
    }
}
