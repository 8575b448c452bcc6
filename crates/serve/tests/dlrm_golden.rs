//! Golden report of the canned DLRM replica.
//!
//! The serving path prices embedding traffic without reading embedding
//! values, so no change to how rows are stored or routed may move a
//! single byte of the report. The digest below was captured from the
//! dense-table, gather-every-row implementation.

use multipod_serve::{DlrmServeConfig, DlrmServer};
use multipod_topology::MultipodConfig;

/// Captured at the last commit that stored dense tables (PR 16).
const GOLDEN: u64 = 0x8e61_eecf_14b0_1045;

/// FNV-1a over the report's JSON.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn demo_report_matches_the_golden_digest() {
    let config = DlrmServeConfig::demo(MultipodConfig::mesh(16, 16, false), 2000, 42);
    let report = DlrmServer::new(config).run().expect("serving run");
    let json = serde_json::to_string(&report).expect("report serializes");
    assert_eq!(
        fnv1a(json.as_bytes()),
        GOLDEN,
        "DLRM report changed: {json}"
    );
}
