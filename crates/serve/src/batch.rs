//! Bounded-window request batching.
//!
//! A serving replica trades latency for MXU efficiency by accumulating
//! requests into batches: a batch dispatches when its accumulation
//! window expires or its sample cap fills, whichever comes first. The
//! batcher is a pure function of the request log, so the batch plan is
//! deterministic.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;

use crate::stream::Request;
use crate::{check, ServeError};

/// Batching policy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BatchingConfig {
    /// Most samples one batch may hold.
    pub max_batch_samples: usize,
    /// Accumulation window: a batch dispatches at most this long after
    /// the request that opened it arrived.
    pub window_seconds: f64,
}

impl BatchingConfig {
    /// A canned serving policy: 256-sample batches, 2 ms windows.
    pub fn demo() -> BatchingConfig {
        BatchingConfig {
            max_batch_samples: 256,
            window_seconds: 2.0e-3,
        }
    }
}

/// One dispatched batch.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// Indices into the request log, in arrival order.
    pub requests: Vec<usize>,
    /// Total samples across member requests.
    pub samples: usize,
    /// Arrival of the request that opened the batch.
    pub opened_at: SimTime,
    /// When the batch dispatches: the arrival of the request that filled
    /// the cap, or `opened_at + window` when the window expired first.
    /// Never before any member's arrival.
    pub dispatch: SimTime,
}

/// Assembles the request log into batches under `config`.
///
/// Invariants (property-tested): every request lands in exactly one
/// batch, no batch exceeds the sample cap, and no batch dispatches
/// before one of its members has arrived.
///
/// # Errors
///
/// * [`ServeError::InvalidConfig`] for a non-positive cap, a
///   non-finite/negative window, or a window that pushes a dispatch past
///   the finite range (both on `window_seconds`).
/// * [`ServeError::RequestExceedsBatchCap`] when a single request could
///   never fit any batch.
pub fn assemble(requests: &[Request], config: &BatchingConfig) -> Result<Vec<Batch>, ServeError> {
    let mut batches = Vec::new();
    let log = requests.iter().map(|r| (r.id, r.arrival, r.samples.len()));
    plan(log, config, |members, samples, opened_at, dispatch| {
        let requests = members.collect();
        batches.push(Batch {
            requests,
            samples,
            opened_at,
            dispatch,
        });
    })?;
    Ok(batches)
}

/// The batching policy over `(id, arrival, samples)` per request in
/// arrival order: calls `close(requests, samples, opened_at, dispatch)`
/// once per batch, in opening order, its members a run of log positions.
/// Errors as [`assemble`].
pub(crate) fn plan(
    log: impl IntoIterator<Item = (u64, SimTime, usize)>,
    config: &BatchingConfig,
    mut close: impl FnMut(Range<usize>, usize, SimTime, SimTime),
) -> Result<(), ServeError> {
    let (cap, window) = (config.max_batch_samples, config.window_seconds);
    check(cap > 0, "max_batch_samples", 0.0)?;
    let window_ok = window.is_finite() && window >= 0.0;
    check(window_ok, "window_seconds", window)?;
    let deadline = |opened_at: SimTime| {
        let finite = (opened_at.seconds() + window).is_finite();
        check(finite, "window_seconds", window).map(|()| opened_at + window)
    };
    // The open batch: requests `first..next`, `samples` in all; nothing is
    // open while `first == next`.
    let (mut first, mut next, mut samples, mut opened_at) = (0, 0, 0, SimTime::ZERO);
    for (id, arrival, n) in log {
        if n > cap {
            return Err(ServeError::RequestExceedsBatchCap {
                request: id,
                samples: n,
                cap,
            });
        }
        // Close the open batch if its window expired before this arrival,
        // or if this request does not fit (it then waits out its window).
        if first < next {
            let deadline = deadline(opened_at)?;
            if arrival >= deadline || samples + n > cap {
                close(first..next, samples, opened_at, deadline);
                (first, samples) = (next, 0);
            }
        }
        if first == next {
            opened_at = arrival;
        }
        (next, samples) = (next + 1, samples + n);
        // A full batch dispatches immediately on the filling arrival.
        if samples == cap {
            close(first..next, samples, opened_at, arrival);
            (first, samples) = (next, 0);
        }
    }
    if first < next {
        // The stream ended; the replica still waits out the window.
        close(first..next, samples, opened_at, deadline(opened_at)?);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64, at: f64, samples: usize) -> Request {
        Request {
            id,
            arrival: SimTime::from_seconds(at),
            samples: vec![vec![0]; samples],
        }
    }

    #[test]
    fn window_expiry_closes_a_batch() {
        let requests = vec![request(0, 0.0, 2), request(1, 0.5, 2)];
        let config = BatchingConfig {
            max_batch_samples: 16,
            window_seconds: 0.1,
        };
        let batches = assemble(&requests, &config).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].dispatch, SimTime::from_seconds(0.1));
        assert_eq!(batches[1].dispatch, SimTime::from_seconds(0.6));
    }

    #[test]
    fn cap_fill_dispatches_immediately() {
        let requests = vec![request(0, 0.0, 3), request(1, 0.01, 5)];
        let config = BatchingConfig {
            max_batch_samples: 8,
            window_seconds: 1.0,
        };
        let batches = assemble(&requests, &config).unwrap();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].samples, 8);
        assert_eq!(batches[0].dispatch, SimTime::from_seconds(0.01));
    }

    #[test]
    fn overflow_opens_the_next_batch() {
        // The second request does not fit; the first batch waits out its
        // window while the second accumulates in parallel.
        let requests = vec![request(0, 0.0, 6), request(1, 0.01, 6)];
        let config = BatchingConfig {
            max_batch_samples: 8,
            window_seconds: 0.05,
        };
        let batches = assemble(&requests, &config).unwrap();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].requests, vec![0]);
        assert_eq!(batches[0].dispatch, SimTime::from_seconds(0.05));
        assert_eq!(batches[1].requests, vec![1]);
        // Same float expression as the batcher computes, to the bit.
        assert_eq!(
            batches[1].dispatch,
            SimTime::from_seconds(0.01) + config.window_seconds
        );
    }

    #[test]
    fn oversized_request_is_a_typed_error() {
        let requests = vec![request(7, 0.0, 9)];
        let config = BatchingConfig {
            max_batch_samples: 8,
            window_seconds: 0.05,
        };
        assert!(matches!(
            assemble(&requests, &config),
            Err(ServeError::RequestExceedsBatchCap {
                request: 7,
                samples: 9,
                cap: 8
            })
        ));
    }

    #[test]
    fn zero_cap_is_a_typed_error() {
        let config = BatchingConfig {
            max_batch_samples: 0,
            window_seconds: 0.05,
        };
        assert!(matches!(
            assemble(&[], &config),
            Err(ServeError::InvalidConfig {
                field: "max_batch_samples",
                ..
            })
        ));
    }

    #[test]
    fn a_dispatch_past_the_finite_range_is_a_typed_error() {
        // Each deadline is finite on its own terms; their sum is not.
        let requests = vec![request(0, 1e308, 1), request(1, 1.5e308, 1)];
        let config = BatchingConfig {
            max_batch_samples: 8,
            window_seconds: 1e308,
        };
        assert!(matches!(
            assemble(&requests, &config),
            Err(ServeError::InvalidConfig {
                field: "window_seconds",
                ..
            })
        ));
        // The same window is fine for a batch that opens at zero.
        let batches = assemble(&[request(0, 0.0, 1)], &config).unwrap();
        assert_eq!(batches[0].dispatch, SimTime::from_seconds(1e308));
    }
}
