//! Bounded-window request batching.
//!
//! A serving replica trades latency for MXU efficiency by accumulating
//! requests into batches: a batch dispatches when its accumulation
//! window expires or its sample cap fills, whichever comes first. The
//! batcher is a pure function of the request log, so the batch plan is
//! deterministic.

use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;

use crate::stream::Request;
use crate::ServeError;

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
/// * [`ServeError::InvalidConfig`] for a non-positive cap or a
///   non-finite/negative window.
/// * [`ServeError::RequestExceedsBatchCap`] when a single request could
///   never fit any batch.
pub fn assemble(requests: &[Request], config: &BatchingConfig) -> Result<Vec<Batch>, ServeError> {
    if config.max_batch_samples == 0 {
        return Err(ServeError::InvalidConfig {
            field: "max_batch_samples",
            value: 0.0,
        });
    }
    if !(config.window_seconds.is_finite() && config.window_seconds >= 0.0) {
        return Err(ServeError::InvalidConfig {
            field: "window_seconds",
            value: config.window_seconds,
        });
    }
    let cap = config.max_batch_samples;
    let mut batches: Vec<Batch> = Vec::new();
    // The accumulating batch; nothing is open while it holds no request.
    let mut open = Batch::default();
    let mut close = |open: &mut Batch, dispatch: SimTime| {
        open.dispatch = dispatch;
        batches.push(std::mem::take(open));
    };
    for (i, r) in requests.iter().enumerate() {
        let n = r.samples.len();
        if n > cap {
            return Err(ServeError::RequestExceedsBatchCap {
                request: r.id,
                samples: n,
                cap,
            });
        }
        // Close the open batch if its window expired before this arrival,
        // or if this request does not fit (it then waits out its window).
        let deadline = open.opened_at + config.window_seconds;
        if !open.requests.is_empty() && (r.arrival >= deadline || open.samples + n > cap) {
            close(&mut open, deadline);
        }
        if open.requests.is_empty() {
            open.opened_at = r.arrival;
        }
        open.requests.push(i);
        open.samples += n;
        // A full batch dispatches immediately on the filling arrival.
        if open.samples == cap {
            close(&mut open, r.arrival);
        }
    }
    if !open.requests.is_empty() {
        // The stream ended; the replica still waits out the window.
        let deadline = open.opened_at + config.window_seconds;
        close(&mut open, deadline);
    }
    Ok(batches)
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
}
