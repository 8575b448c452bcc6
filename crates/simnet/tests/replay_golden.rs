//! Golden pins for the event-driven message pattern of one 2-D all-reduce
//! step: every member of every Y-ring and X-ring chains 2(n-1) forward
//! sends, each completion scheduling the next.
//!
//! The constants were captured from the *seed* core (binary-heap queue,
//! uncached hash-map network) before it was deleted; `EventQueue` +
//! `Network::transfer` must keep reproducing them bit for bit.

use multipod_simnet::{EventQueue, Network, NetworkConfig, SimTime};
use multipod_topology::{Multipod, MultipodConfig};

/// Replays one step at 2^18 f32 elements per chip; returns (events,
/// final-time bits, FNV-1a over every pop's (ring, member, step) and
/// finish-time bits, in pop order).
fn replay(x: u32, y: u32) -> (u64, u64, u64) {
    let mut net = Network::new(
        Multipod::new(MultipodConfig::mesh(x, y, true)),
        NetworkConfig::tpu_v3(),
    );
    let mesh = net.mesh().clone();
    let rings: Vec<_> = (0..x)
        .map(|col| mesh.y_ring(col))
        .chain((0..y).map(|row| mesh.x_line_strided(row, 0, 1)))
        .collect();
    let mut queue = EventQueue::new();
    for (r, ring) in rings.iter().enumerate() {
        for m in 0..ring.len() {
            queue.schedule(SimTime::ZERO, (r, m, 0usize));
        }
    }
    let (mut events, mut last, mut digest) = (0u64, SimTime::ZERO, 0xcbf29ce484222325u64);
    let mut fnv = |word: u64| {
        for b in word.to_le_bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x100000001b3);
        }
    };
    while let Some((t, (r, m, step))) = queue.pop() {
        events += 1;
        let members = rings[r].members();
        let n = members.len();
        let bytes = (((1usize << 18) / n).max(1) * 4) as u64;
        let finish = net
            .transfer(members[m], members[(m + 1) % n], bytes, t)
            .expect("a live torus routes every pair")
            .finish;
        last = last.max(finish);
        fnv(((r as u64) << 40) | ((m as u64) << 16) | step as u64);
        fnv(finish.seconds().to_bits());
        if step + 1 < 2 * (n - 1) {
            queue.schedule(finish, (r, m, step + 1));
        }
    }
    (events, last.seconds().to_bits(), digest)
}

#[test]
fn replay_matches_the_seed_core() {
    assert_eq!(
        replay(16, 8),
        (5_632, 0x3f4123f878e1f7ce, 0xc38a5c1d4cf09645)
    );
    assert_eq!(
        replay(64, 16),
        (159_744, 0x3f80b459b7a20554, 0x41fa284f8ac07795)
    );
}
