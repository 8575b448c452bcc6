//! Config fuzzing for the serving tier: any query-stream, batching or
//! replica config either is a typed error or yields a result that holds
//! the serving invariants. Nothing panics.
//!
//! Floats take the values that break arithmetic (zeros of both signs,
//! NaN, infinities, subnormals, 1e308) besides ordinary ones, and
//! `rows_per_table` crosses the `u32` row-id bound up to `u64::MAX`.
//! Counts stay small (at most 64 queries of at most 64 samples over at
//! most 8 tables), so no config asks for a large allocation.

use multipod_serve::{
    assemble, query_stream, BatchingConfig, DlrmServeConfig, DlrmServer, QueryLog,
    QueryStreamConfig, ServeError,
};
use multipod_topology::MultipodConfig;
use proptest::prelude::*;

/// Ordinary values three times in four, else one that breaks float
/// arithmetic.
fn hostile_f64(ordinary: std::ops::Range<f64>) -> impl Strategy<Value = f64> {
    prop_oneof![
        ordinary.clone(),
        ordinary.clone(),
        ordinary,
        prop::sample::select(vec![
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE / 4.0,
            5e-324,
            1e308,
            -1.0,
        ]),
    ]
}

/// Small row counts, the `u32` row-id bound, and all of `usize`.
fn rows_per_table() -> impl Strategy<Value = usize> {
    let bound = u32::MAX as usize + 1;
    prop_oneof![
        1usize..5000,
        0usize..5000,
        any::<usize>(),
        prop::sample::select(vec![bound - 1, bound, bound + 1, u64::MAX as usize]),
    ]
}

fn stream_config() -> impl Strategy<Value = QueryStreamConfig> {
    (
        (0u32..65, any::<u64>(), hostile_f64(1e-6..1e-2)),
        (hostile_f64(1.0..8.0), 0usize..65),
        (0usize..9, rows_per_table(), hostile_f64(0.1..6.0)),
    )
        .prop_map(
            |((queries, seed, gap), (mean_samples, max_samples), (tables, rows, skew))| {
                QueryStreamConfig {
                    queries,
                    seed,
                    mean_interarrival_seconds: gap,
                    mean_samples,
                    max_samples,
                    tables,
                    rows_per_table: rows,
                    skew,
                }
            },
        )
}

fn batching_config() -> impl Strategy<Value = BatchingConfig> {
    (0usize..129, hostile_f64(0.0..5e-3)).prop_map(|(max_batch_samples, window_seconds)| {
        BatchingConfig {
            max_batch_samples,
            window_seconds,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A stream is a typed error or a log whose arrivals are finite and
    /// monotone and whose requests carry 1..=`max_samples` in-range
    /// samples; batching it is a typed error or a plan that places every
    /// request once, in order, under the cap and never before it arrives.
    #[test]
    fn streams_and_batches_are_typed_errors_or_hold_their_invariants(
        stream in stream_config(),
        batching in batching_config(),
    ) {
        let log = QueryLog::new(&stream);
        let requests = match query_stream(&stream) {
            Ok(requests) => requests,
            Err(ServeError::InvalidConfig { field, .. }) => {
                let log_field = match log {
                    Err(ServeError::InvalidConfig { field, .. }) => field,
                    other => return Err(TestCaseError::fail(format!("log gave {other:?}"))),
                };
                prop_assert_eq!(field, log_field);
                return Ok(());
            }
            Err(other) => return Err(TestCaseError::fail(format!("untyped: {other:?}"))),
        };
        prop_assert!(log.is_ok());
        prop_assert_eq!(requests.len(), stream.queries as usize);
        let mut last = 0.0;
        for (i, r) in requests.iter().enumerate() {
            let at = r.arrival.seconds();
            prop_assert!(at.is_finite() && at >= last, "request {} arrives at {}", i, at);
            last = at;
            prop_assert_eq!(r.id, i as u64);
            prop_assert!((1..=stream.max_samples).contains(&r.samples.len()));
            for sample in &r.samples {
                prop_assert_eq!(sample.len(), stream.tables);
                prop_assert!(sample.iter().all(|&row| row < stream.rows_per_table));
            }
        }

        let batches = match assemble(&requests, &batching) {
            Ok(batches) => batches,
            Err(ServeError::InvalidConfig { field, .. }) => {
                prop_assert!(
                    field == "max_batch_samples" || field == "window_seconds",
                    "batching rejected on {}", field
                );
                return Ok(());
            }
            Err(ServeError::RequestExceedsBatchCap { request, samples, cap }) => {
                prop_assert_eq!(cap, batching.max_batch_samples);
                prop_assert!(samples > cap);
                prop_assert_eq!(requests[request as usize].samples.len(), samples);
                return Ok(());
            }
            Err(other) => return Err(TestCaseError::fail(format!("untyped: {other:?}"))),
        };
        let mut next = 0;
        for b in &batches {
            prop_assert!(!b.requests.is_empty());
            prop_assert!(b.samples <= batching.max_batch_samples);
            prop_assert!(b.dispatch.seconds().is_finite());
            let mut samples = 0;
            for &i in &b.requests {
                // Conservation: each request once, in arrival order.
                prop_assert_eq!(i, next);
                next += 1;
                samples += requests[i].samples.len();
                prop_assert!(b.dispatch >= requests[i].arrival);
            }
            prop_assert_eq!(samples, b.samples);
        }
        prop_assert_eq!(next, requests.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A replica is a typed error or serves every request: zero-extent
    /// slices and a zero embedding dim are rejected on their own field
    /// once the stream and batching are valid.
    #[test]
    fn a_replica_is_a_typed_error_or_serves_every_request(
        mut stream in stream_config(),
        batching in batching_config(),
        (x, y) in (0u32..4, 0u32..4),
        embedding_dim in 0usize..3,
        cache_rows_per_chip in 0usize..64,
    ) {
        stream.queries = stream.queries.min(16);
        let mut config = DlrmServeConfig::demo(MultipodConfig::mesh(x, y, false), 1, 0);
        config.stream = stream.clone();
        config.batching = batching.clone();
        config.embedding_dim = embedding_dim;
        config.cache_rows_per_chip = cache_rows_per_chip;
        let planned = query_stream(&stream).map(|r| assemble(&r, &batching).is_ok());
        match DlrmServer::new(config).run() {
            Ok(report) => {
                prop_assert_eq!(report.requests, u64::from(stream.queries));
                prop_assert_eq!(report.latency.count, u64::from(stream.queries));
                prop_assert!(report.latency.p999.is_finite());
            }
            Err(ServeError::InvalidConfig { field, value }) if matches!(planned, Ok(true)) => {
                if x == 0 || y == 0 {
                    prop_assert_eq!((field, value), ("slice", 0.0));
                } else {
                    prop_assert_eq!(field, "embedding_dim");
                    prop_assert_eq!(embedding_dim, 0);
                }
            }
            Err(ServeError::InvalidConfig { .. } | ServeError::RequestExceedsBatchCap { .. }) => {
                prop_assert!(!matches!(planned, Ok(true)));
            }
            Err(other) => return Err(TestCaseError::fail(format!("untyped: {other:?}"))),
        }
    }
}
