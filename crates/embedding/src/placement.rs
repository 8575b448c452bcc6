//! Table placement: replicate small, partition large.

use serde::{Deserialize, Serialize};

use crate::EmbeddingError;

/// Size description of one categorical feature's table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmbeddingSpec {
    /// Vocabulary size.
    pub rows: usize,
    /// Embedding dimension.
    pub dim: usize,
}

impl EmbeddingSpec {
    /// Bytes of f32 storage for the full table.
    pub fn bytes(&self) -> u64 {
        (self.rows * self.dim) as u64 * 4
    }
}

/// Where one table lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TablePlacement {
    /// Every chip holds the whole table (lookups are local).
    Replicated,
    /// Rows are range-partitioned across all chips; chip `c` owns rows
    /// `[c·ceil(rows/chips), …)`. Lookups for remote rows cross the mesh.
    RowPartitioned,
}

/// A placement decision for every table.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Placement {
    specs: Vec<EmbeddingSpec>,
    decisions: Vec<TablePlacement>,
    chips: usize,
}

impl Placement {
    /// Plans placements for `chips` chips: a table is replicated when its
    /// full copy fits inside `replication_budget_bytes` (per chip,
    /// cumulative across replicated tables); larger tables are
    /// row-partitioned — the paper's "choosing to replicate small tables
    /// and partition large ones".
    ///
    /// # Panics
    ///
    /// Panics when `chips` is zero.
    pub fn plan(specs: &[EmbeddingSpec], chips: usize, replication_budget_bytes: u64) -> Placement {
        assert!(chips > 0, "need at least one chip");
        let mut budget = replication_budget_bytes;
        let decisions = specs
            .iter()
            .map(|s| {
                if s.bytes() <= budget {
                    budget -= s.bytes();
                    TablePlacement::Replicated
                } else {
                    TablePlacement::RowPartitioned
                }
            })
            .collect();
        Placement {
            specs: specs.to_vec(),
            decisions,
            chips,
        }
    }

    /// Chips the placement was planned for.
    pub fn chips(&self) -> usize {
        self.chips
    }

    /// Number of tables.
    pub fn num_tables(&self) -> usize {
        self.specs.len()
    }

    /// The spec of table `t`.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn spec(&self, t: usize) -> EmbeddingSpec {
        self.specs[t]
    }

    /// Whether table `t` is replicated.
    ///
    /// # Panics
    ///
    /// Panics when `t` is out of range.
    pub fn is_replicated(&self, t: usize) -> bool {
        self.decisions[t] == TablePlacement::Replicated
    }

    /// The chip owning row `row` of table `t` (for partitioned tables).
    ///
    /// # Errors
    ///
    /// [`EmbeddingError::TableOutOfRange`] / [`EmbeddingError::RowOutOfRange`]
    /// when `t` or `row` is out of range.
    pub fn owner_of(&self, t: usize, row: usize) -> Result<usize, EmbeddingError> {
        let tables = self.specs.len();
        let spec = self
            .specs
            .get(t)
            .ok_or(EmbeddingError::TableOutOfRange { table: t, tables })?;
        if row >= spec.rows {
            return Err(EmbeddingError::RowOutOfRange {
                table: t,
                row,
                rows: spec.rows,
            });
        }
        Ok(row / spec.rows.div_ceil(self.chips))
    }

    /// Rows of table `t` stored on `chip`.
    pub fn rows_on_chip(&self, t: usize, chip: usize) -> std::ops::Range<usize> {
        let spec = self.specs[t];
        if self.is_replicated(t) {
            return 0..spec.rows;
        }
        let rows_per_chip = spec.rows.div_ceil(self.chips);
        let lo = (chip * rows_per_chip).min(spec.rows);
        let hi = ((chip + 1) * rows_per_chip).min(spec.rows);
        lo..hi
    }

    /// Per-chip storage bytes under this placement.
    pub fn bytes_per_chip(&self) -> u64 {
        self.specs
            .iter()
            .zip(&self.decisions)
            .map(|(s, d)| match d {
                TablePlacement::Replicated => s.bytes(),
                TablePlacement::RowPartitioned => (s.rows.div_ceil(self.chips) * s.dim) as u64 * 4,
            })
            .sum()
    }

    /// Total bytes if everything were replicated (the infeasible layout
    /// the paper rules out).
    pub fn bytes_fully_replicated(&self) -> u64 {
        self.specs.iter().map(EmbeddingSpec::bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn criteo_like() -> Vec<EmbeddingSpec> {
        // A mix of tiny and huge vocabularies, Criteo-style.
        let mut specs = vec![
            EmbeddingSpec { rows: 10, dim: 16 },
            EmbeddingSpec {
                rows: 1000,
                dim: 16,
            },
            EmbeddingSpec { rows: 300, dim: 16 },
        ];
        specs.push(EmbeddingSpec {
            rows: 40_000_000,
            dim: 16,
        });
        specs.push(EmbeddingSpec {
            rows: 25_000_000,
            dim: 16,
        });
        specs
    }

    #[test]
    fn small_tables_replicate_large_partition() {
        let p = Placement::plan(&criteo_like(), 16, 1 << 20);
        assert!(p.is_replicated(0));
        assert!(p.is_replicated(1));
        assert!(p.is_replicated(2));
        assert!(!p.is_replicated(3));
        assert!(!p.is_replicated(4));
    }

    #[test]
    fn partitioning_is_necessary_to_fit() {
        // §4.6: partitioning "is actually necessary to run the model".
        let p = Placement::plan(&criteo_like(), 16, 1 << 20);
        let hbm: u64 = 32 * (1 << 30);
        assert!(p.bytes_per_chip() < hbm / 4);
        // Fully replicated would still fit 16 GiB here but scales with
        // table count; the real Criteo model does not fit (checked with
        // the catalog numbers in multipod-models).
        assert!(p.bytes_per_chip() < p.bytes_fully_replicated() / 10);
    }

    #[test]
    fn row_ranges_tile_the_table() {
        let p = Placement::plan(&criteo_like(), 4, 0);
        let spec = p.spec(3);
        let mut covered = 0;
        for chip in 0..4 {
            let r = p.rows_on_chip(3, chip);
            assert_eq!(r.start, covered);
            covered = r.end;
        }
        assert_eq!(covered, spec.rows);
    }

    #[test]
    fn owner_matches_row_ranges() {
        let p = Placement::plan(&criteo_like(), 8, 0);
        for &row in &[0usize, 1, 4_999_999, 5_000_000, 39_999_999] {
            let owner = p.owner_of(3, row).unwrap();
            assert!(p.rows_on_chip(3, owner).contains(&row));
        }
    }

    #[test]
    fn owner_of_out_of_range_is_a_typed_error() {
        let p = Placement::plan(&criteo_like(), 8, 0);
        assert_eq!(
            p.owner_of(5, 0),
            Err(EmbeddingError::TableOutOfRange {
                table: 5,
                tables: 5
            })
        );
        assert_eq!(
            p.owner_of(0, 10),
            Err(EmbeddingError::RowOutOfRange {
                table: 0,
                row: 10,
                rows: 10
            })
        );
    }

    #[test]
    fn zero_budget_partitions_everything() {
        let p = Placement::plan(&criteo_like(), 4, 0);
        for t in 0..p.num_tables() {
            assert!(!p.is_replicated(t));
        }
    }
}
