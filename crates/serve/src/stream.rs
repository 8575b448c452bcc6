//! The deterministic open-loop query-stream generator.
//!
//! Serving experiments are open-loop: requests arrive on their own
//! schedule regardless of how fast the replica drains them, which is
//! what exposes queueing tails. The generator draws inter-arrival gaps,
//! per-request sample counts and skewed embedding keys from one seeded
//! generator, so a [`QueryStreamConfig`] *is* the request log — the same
//! config always replays byte-for-byte the same stream.

use std::ops::Range;
use std::slice::ChunksExact;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;

use crate::{check, ServeError};

/// Parameters of the deterministic query stream.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct QueryStreamConfig {
    /// Requests to generate.
    pub queries: u32,
    /// Seed for the stream.
    pub seed: u64,
    /// Mean inter-arrival gap in simulated seconds (exponential).
    pub mean_interarrival_seconds: f64,
    /// Mean samples per request (shifted-exponential, ≥ 1).
    pub mean_samples: f64,
    /// Hard cap on samples per request.
    pub max_samples: usize,
    /// Embedding tables each sample indexes.
    pub tables: usize,
    /// Rows per table.
    pub rows_per_table: usize,
    /// Key skew exponent: row = rows · u^skew for uniform u, so
    /// `skew > 1` concentrates traffic on low row ids (the hot head a
    /// serving cache exploits); `skew = 1` is uniform.
    pub skew: f64,
}

impl QueryStreamConfig {
    /// A canned DLRM-shaped stream: Criteo's 26 sparse features over
    /// moderately hot keys, a few thousand QPS offered.
    pub fn dlrm(queries: u32, seed: u64) -> QueryStreamConfig {
        QueryStreamConfig {
            queries,
            seed,
            mean_interarrival_seconds: 2.0e-4,
            mean_samples: 4.0,
            max_samples: 64,
            tables: 26,
            rows_per_table: 100_000,
            skew: 3.0,
        }
    }
}

/// One inference request.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Unique id, in arrival order.
    pub id: u64,
    /// When the request arrives.
    pub arrival: SimTime,
    /// `samples[i][t]` is sample `i`'s row in table `t`.
    pub samples: Vec<Vec<usize>>,
}

/// The request log in one flat block, without a heap block per sample:
/// request `i` arrives at `arrivals[i]` and carries samples
/// `offsets[i]..offsets[i + 1]`; sample `s`'s row in table `t` is
/// `rows[s · tables + t]`, a `u32`.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryLog {
    pub(crate) arrivals: Vec<SimTime>,
    offsets: Vec<usize>,
    rows: Vec<u32>,
    tables: usize,
}

impl QueryLog {
    /// Generates the request log for `config`. Deterministic: the same
    /// config always yields the same log.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidConfig`] when a parameter is non-positive,
    /// non-finite, or inconsistent (e.g. `mean_samples` above
    /// `max_samples`), a row id would not fit a `u32`, or the arrival
    /// clock leaves the finite range (`mean_interarrival_seconds`).
    pub fn new(config: &QueryStreamConfig) -> Result<QueryLog, ServeError> {
        let c = config;
        let (gap, mean, max) = (c.mean_interarrival_seconds, c.mean_samples, c.max_samples);
        let (tables, rows, skew) = (c.tables, c.rows_per_table, c.skew);
        check(c.queries > 0, "queries", 0.0)?;
        let gap_ok = gap > 0.0 && gap.is_finite();
        check(gap_ok, "mean_interarrival_seconds", gap)?;
        check(mean.is_finite() && mean >= 1.0, "mean_samples", mean)?;
        check(max > 0 && max as f64 >= mean, "max_samples", max as f64)?;
        check(tables > 0, "tables", 0.0)?;
        let id_fits = rows > 0 && u32::try_from(rows - 1).is_ok();
        check(id_fits, "rows_per_table", rows as f64)?;
        check(skew.is_finite() && skew > 0.0, "skew", skew)?;

        let mut rng = SmallRng::seed_from_u64(c.seed);
        // `mean` bounds the expected samples per request from above, so the
        // rows rarely outgrow this; they are trimmed to fit at the end.
        let expected = ((f64::from(c.queries) * mean) as usize).saturating_mul(tables);
        let mut log = QueryLog {
            arrivals: Vec::with_capacity(c.queries as usize),
            offsets: Vec::with_capacity(c.queries as usize + 1),
            rows: Vec::with_capacity(expected),
            tables,
        };
        log.offsets.push(0);
        let mut at = 0.0f64;
        for _ in 0..c.queries {
            at += -gap * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
            check(at.is_finite(), "mean_interarrival_seconds", gap)?;
            // Samples per request: 1 + Exp(mean - 1), truncated at the cap.
            let extra = -(mean - 1.0) * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
            let n = (extra.floor() as usize).min(max - 1) + 1;
            log.rows.extend((0..n * tables).map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                // Below `rows`, which the check above keeps within `u32`.
                ((rows as f64 * u.powf(skew)) as usize).min(rows - 1) as u32
            }));
            log.arrivals.push(SimTime::from_seconds(at));
            log.offsets.push(log.rows.len() / tables);
        }
        log.rows.shrink_to_fit();
        Ok(log)
    }

    /// Each request's `(id, arrival, samples)`, in arrival order.
    pub(crate) fn sizes(&self) -> impl Iterator<Item = (u64, SimTime, usize)> + '_ {
        let o = &self.offsets;
        let size = |i: usize| (i as u64, self.arrivals[i], o[i + 1] - o[i]);
        (0..self.arrivals.len()).map(size)
    }

    /// The rows of flat samples `samples`, one table-wide chunk each.
    pub(crate) fn rows(&self, samples: &Range<usize>) -> ChunksExact<'_, u32> {
        let t = self.tables;
        self.rows[samples.start * t..samples.end * t].chunks_exact(t)
    }
}

/// The [`QueryLog`] for `config`, request by request.
///
/// # Errors
///
/// As [`QueryLog::new`].
pub fn query_stream(config: &QueryStreamConfig) -> Result<Vec<Request>, ServeError> {
    let log = QueryLog::new(config)?;
    let mut rows = log.rows.chunks_exact(log.tables);
    let sample = |s: &[u32]| s.iter().map(|&row| row as usize).collect();
    let requests = log.sizes().map(|(id, arrival, n)| Request {
        id,
        arrival,
        samples: rows.by_ref().take(n).map(sample).collect(),
    });
    Ok(requests.collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The nested generator the flat log replaced, kept as its oracle: one
    /// heap `Vec` per sample, drawn in the same order.
    fn nested_oracle(config: &QueryStreamConfig) -> Result<Vec<Request>, ServeError> {
        if config.queries == 0 {
            return Err(ServeError::InvalidConfig {
                field: "queries",
                value: 0.0,
            });
        }
        let gap = config.mean_interarrival_seconds;
        if !(gap.is_finite() && gap > 0.0) {
            return Err(ServeError::InvalidConfig {
                field: "mean_interarrival_seconds",
                value: gap,
            });
        }
        if !(config.mean_samples.is_finite() && config.mean_samples >= 1.0) {
            return Err(ServeError::InvalidConfig {
                field: "mean_samples",
                value: config.mean_samples,
            });
        }
        if config.max_samples == 0 || (config.max_samples as f64) < config.mean_samples {
            return Err(ServeError::InvalidConfig {
                field: "max_samples",
                value: config.max_samples as f64,
            });
        }
        if config.tables == 0 {
            return Err(ServeError::InvalidConfig {
                field: "tables",
                value: 0.0,
            });
        }
        if config.rows_per_table == 0 {
            return Err(ServeError::InvalidConfig {
                field: "rows_per_table",
                value: 0.0,
            });
        }
        if !(config.skew.is_finite() && config.skew > 0.0) {
            return Err(ServeError::InvalidConfig {
                field: "skew",
                value: config.skew,
            });
        }

        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut at = 0.0f64;
        let mut requests = Vec::with_capacity(config.queries as usize);
        for id in 0..u64::from(config.queries) {
            at += -gap * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
            // Samples per request: 1 + Exp(mean - 1), truncated at the cap.
            let extra = -(config.mean_samples - 1.0) * (1.0 - rng.gen_range(0.0..1.0f64)).ln();
            let n = (1 + extra.floor() as usize).min(config.max_samples);
            let samples = (0..n)
                .map(|_| {
                    (0..config.tables)
                        .map(|_| {
                            let u: f64 = rng.gen_range(0.0..1.0);
                            ((config.rows_per_table as f64 * u.powf(config.skew)) as usize)
                                .min(config.rows_per_table - 1)
                        })
                        .collect()
                })
                .collect();
            requests.push(Request {
                id,
                arrival: SimTime::from_seconds(at),
                samples,
            });
        }
        Ok(requests)
    }

    /// Row counts on both sides of the `u32` row-id bound, and the ends of
    /// `usize`.
    fn rows_per_table() -> impl Strategy<Value = usize> {
        let bound = u32::MAX as usize + 1;
        prop_oneof![
            0usize..5000,
            prop::sample::select(vec![1, bound - 1, bound, bound + 1, u64::MAX as usize]),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The flat log, materialised, is the nested generator's stream to
        /// the bit: every arrival and every row. Where the nested one would
        /// hand out row ids past `u32`, the log is a typed error instead.
        #[test]
        fn the_flat_log_is_the_nested_stream(
            (queries, seed) in (0u32..120, any::<u64>()),
            (gap, mean_samples, max_samples) in (1e-7f64..1.0, 0.5f64..9.0, 0usize..12),
            (tables, rows_per_table, skew) in (0usize..6, rows_per_table(), 0.05f64..6.0),
        ) {
            let config = QueryStreamConfig {
                queries,
                seed,
                mean_interarrival_seconds: gap,
                mean_samples,
                max_samples,
                tables,
                rows_per_table,
                skew,
            };
            match (query_stream(&config), nested_oracle(&config)) {
                (Ok(flat), Ok(nested)) => {
                    prop_assert_eq!(flat.len(), nested.len());
                    for (f, n) in flat.iter().zip(&nested) {
                        prop_assert_eq!(f.arrival.seconds().to_bits(), n.arrival.seconds().to_bits());
                        prop_assert_eq!(f, n);
                    }
                }
                (
                    Err(ServeError::InvalidConfig { field: f, value: a }),
                    Err(ServeError::InvalidConfig { field: n, value: b }),
                ) => {
                    prop_assert_eq!(f, n);
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
                (Err(ServeError::InvalidConfig { field: "rows_per_table", .. }), Ok(_)) => {
                    prop_assert!(rows_per_table > u32::MAX as usize + 1);
                }
                (flat, nested) => {
                    prop_assert!(false, "flat {:?} against nested {:?}", flat.err(), nested.err());
                }
            }
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let config = QueryStreamConfig::dlrm(300, 7);
        assert_eq!(
            query_stream(&config).unwrap(),
            query_stream(&config).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = query_stream(&QueryStreamConfig::dlrm(100, 1)).unwrap();
        let b = query_stream(&QueryStreamConfig::dlrm(100, 2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn arrivals_are_monotone_and_samples_bounded() {
        let config = QueryStreamConfig::dlrm(500, 42);
        let requests = query_stream(&config).unwrap();
        assert_eq!(requests.len(), 500);
        let mut last = SimTime::ZERO;
        for r in &requests {
            assert!(r.arrival >= last);
            last = r.arrival;
            assert!(!r.samples.is_empty() && r.samples.len() <= config.max_samples);
            for s in &r.samples {
                assert_eq!(s.len(), config.tables);
                assert!(s.iter().all(|&row| row < config.rows_per_table));
            }
        }
    }

    #[test]
    fn skew_concentrates_keys_on_the_head() {
        let mut hot = QueryStreamConfig::dlrm(400, 9);
        hot.skew = 4.0;
        let mut uniform = hot.clone();
        uniform.skew = 1.0;
        let head_share = |requests: &[Request]| {
            let head = hot.rows_per_table / 10;
            let (mut in_head, mut total) = (0u64, 0u64);
            for r in requests {
                for s in &r.samples {
                    for &row in s {
                        total += 1;
                        if row < head {
                            in_head += 1;
                        }
                    }
                }
            }
            in_head as f64 / total as f64
        };
        let hot_share = head_share(&query_stream(&hot).unwrap());
        let uni_share = head_share(&query_stream(&uniform).unwrap());
        assert!(
            hot_share > 2.0 * uni_share,
            "skewed head share {hot_share:.3} vs uniform {uni_share:.3}"
        );
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        let ok = QueryStreamConfig::dlrm(10, 0);
        for (mutate, field) in [
            (
                Box::new(|c: &mut QueryStreamConfig| c.queries = 0)
                    as Box<dyn Fn(&mut QueryStreamConfig)>,
                "queries",
            ),
            (
                Box::new(|c: &mut QueryStreamConfig| c.mean_interarrival_seconds = 0.0),
                "mean_interarrival_seconds",
            ),
            (
                Box::new(|c: &mut QueryStreamConfig| c.mean_samples = 0.5),
                "mean_samples",
            ),
            (
                Box::new(|c: &mut QueryStreamConfig| c.max_samples = 2),
                "max_samples",
            ),
            (Box::new(|c: &mut QueryStreamConfig| c.tables = 0), "tables"),
            (
                Box::new(|c: &mut QueryStreamConfig| c.rows_per_table = 0),
                "rows_per_table",
            ),
            (
                Box::new(|c: &mut QueryStreamConfig| c.skew = f64::NAN),
                "skew",
            ),
            (
                Box::new(|c: &mut QueryStreamConfig| c.rows_per_table = u32::MAX as usize + 2),
                "rows_per_table",
            ),
        ] {
            let mut bad = ok.clone();
            mutate(&mut bad);
            match query_stream(&bad) {
                Err(ServeError::InvalidConfig { field: got, .. }) => assert_eq!(got, field),
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn an_arrival_clock_past_the_finite_range_is_a_typed_error() {
        // A finite mean gap whose running sum overflows: the first gaps
        // are finite, the clock is not.
        let mut c = QueryStreamConfig::dlrm(50, 0);
        c.mean_interarrival_seconds = 1e308;
        match query_stream(&c) {
            Err(ServeError::InvalidConfig { field, value }) => {
                assert_eq!(field, "mean_interarrival_seconds");
                assert_eq!(value, 1e308);
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn the_largest_row_id_fits_a_u32() {
        // 2^32 rows: the last row id is u32::MAX.
        let mut c = QueryStreamConfig::dlrm(20, 5);
        c.rows_per_table = u32::MAX as usize + 1;
        c.skew = 1e-3;
        let rows = query_stream(&c).unwrap();
        let top = rows.iter().flat_map(|r| r.samples.iter().flatten()).max();
        assert!(top.is_some_and(|&row| row <= u32::MAX as usize && row > u32::MAX as usize / 2));
    }
}
