//! Property tests for the network simulator.

use multipod_simnet::{EventQueue, Network, NetworkConfig, SimTime};
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use proptest::prelude::*;

fn net(x: u32, y: u32) -> Network {
    Network::new(
        Multipod::new(MultipodConfig::mesh(x, y, true)),
        NetworkConfig::tpu_v3(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Transfer times are deterministic and monotone in payload size.
    #[test]
    fn transfers_deterministic_and_monotone(
        x in 2u32..8, y in 1u32..8,
        a_sel in 0usize..1000, b_sel in 0usize..1000,
        bytes in 1u64..100_000_000,
        extra in 1u64..100_000_000,
    ) {
        let run = |payload: u64| {
            let mut n = net(x, y);
            let chips = n.mesh().num_chips();
            let a = ChipId((a_sel % chips) as u32);
            let b = ChipId((b_sel % chips) as u32);
            n.transfer(a, b, payload, SimTime::ZERO).unwrap().finish
        };
        prop_assert_eq!(run(bytes), run(bytes));
        prop_assert!(run(bytes + extra) >= run(bytes));
    }

    /// Contention never makes things faster: issuing a second transfer on
    /// the same link after a first one finishes no earlier than the first
    /// alone.
    #[test]
    fn contention_is_monotone(
        bytes1 in 1u64..50_000_000,
        bytes2 in 1u64..50_000_000,
    ) {
        let mut quiet = net(2, 1);
        let alone = quiet
            .transfer(ChipId(0), ChipId(1), bytes2, SimTime::ZERO)
            .unwrap()
            .finish;
        let mut busy = net(2, 1);
        busy.transfer(ChipId(0), ChipId(1), bytes1, SimTime::ZERO)
            .unwrap();
        let contended = busy
            .transfer(ChipId(0), ChipId(1), bytes2, SimTime::ZERO)
            .unwrap()
            .finish;
        prop_assert!(contended >= alone);
    }

    /// A later start time never produces an earlier finish.
    #[test]
    fn start_time_shifts_finish(
        bytes in 1u64..10_000_000,
        delay in 0.0f64..1.0,
    ) {
        let mut a = net(4, 4);
        let early = a
            .transfer(ChipId(0), ChipId(1), bytes, SimTime::ZERO)
            .unwrap()
            .finish;
        let mut b = net(4, 4);
        let late = b
            .transfer(ChipId(0), ChipId(1), bytes, SimTime::from_seconds(delay))
            .unwrap()
            .finish;
        prop_assert!(late.seconds() >= early.seconds());
        prop_assert!((late.seconds() - delay - early.seconds()).abs() < 1e-12);
    }

    /// The event queue pops every scheduled event exactly once, in
    /// non-decreasing time order with FIFO ties.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u32..1000, 1..50)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_seconds(t as f64), i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((t, payload)) = q.pop() {
            prop_assert!(t >= last);
            // FIFO among equal times: payload indices with the same time
            // appear in insertion order.
            if t == last {
                if let Some(&prev) = popped.last() {
                    let prev: usize = prev;
                    if times[prev] == times[payload] {
                        prop_assert!(prev < payload);
                    }
                }
            }
            last = t;
            popped.push(payload);
        }
        prop_assert_eq!(popped.len(), times.len());
    }

    /// Failing or healing a link invalidates memoized routes and link
    /// occupancy exactly as on a network that never cached anything: after
    /// the same fault lands on a traffic-warmed network and a fresh one,
    /// both produce bit-identical transfer times, and again after healing.
    #[test]
    fn fault_invalidation_matches_fresh_network(
        warm in prop::collection::vec((0usize..64, 0usize..64, 1u64..5_000_000), 0..12),
        probe in prop::collection::vec((0usize..64, 0usize..64, 1u64..5_000_000), 1..12),
        fx in 0u32..8, fy in 0u32..8,
        horizontal in prop::bool::ANY,
    ) {
        let (x, y) = (8u32, 8u32);
        let mut warmed = net(x, y);
        let chips = warmed.mesh().num_chips();
        let chip = |sel: usize| ChipId((sel % chips) as u32);
        // Warm the route cache and link occupancy with arbitrary traffic.
        for &(a, b, bytes) in &warm {
            warmed.transfer(chip(a), chip(b), bytes, SimTime::ZERO).unwrap();
        }
        // Fail one torus link incident to (fx, fy) on the warmed network
        // and on a network that has never routed anything.
        let la = ChipId(fy * x + fx);
        let lb = if horizontal {
            ChipId(fy * x + (fx + 1) % x)
        } else {
            ChipId(((fy + 1) % y) * x + fx)
        };
        let mut fresh = net(x, y);
        warmed.fail_link(la, lb, SimTime::ZERO);
        fresh.fail_link(la, lb, SimTime::ZERO);
        // Dimension-order routing does not detour, so some probes can hit
        // `NoRoute` while the link is down — both networks must then fail
        // identically, not just succeed identically.
        let run_probes = |n: &mut Network| -> Vec<Result<u64, String>> {
            probe
                .iter()
                .map(|&(a, b, bytes)| {
                    n.transfer(chip(a), chip(b), bytes, SimTime::ZERO)
                        .map(|t| t.finish.seconds().to_bits())
                        .map_err(|e| e.to_string())
                })
                .collect()
        };
        prop_assert_eq!(run_probes(&mut warmed), run_probes(&mut fresh));
        // Healing must bring the link back identically on both.
        warmed.heal_link(la, lb, SimTime::ZERO);
        fresh.heal_link(la, lb, SimTime::ZERO);
        prop_assert_eq!(run_probes(&mut warmed), run_probes(&mut fresh));
    }
}
