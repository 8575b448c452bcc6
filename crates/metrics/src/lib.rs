//! Evaluation metrics, distributed and fast.
//!
//! Three pieces of the paper's evaluation machinery live here:
//!
//! * [`accuracy`] — top-1 accuracy over logits, computed per shard and
//!   combined either JAX-style (an on-device all-reduce, §3.4) or
//!   TF-style (host RPC gather at the coordinator), including the
//!   dummy-example padding the MLPerf rules force when the eval batch
//!   exceeds the eval set.
//! * [`auc`] — AUC-ROC for DLRM's 90M-sample eval set (§4.6): an exact
//!   reference, a deliberately allocation-heavy "interpreter-style"
//!   baseline standing in for the 60 s/py implementation, and the paper's
//!   multithreaded-sort + fused-pass implementation (2 s-class).
//! * [`placement`] — where eval runs: TF's coordinator process vs JAX's
//!   round-robin over workers (§4.4's COCO eval discussion).

pub mod accuracy;
pub mod auc;
pub mod placement;
