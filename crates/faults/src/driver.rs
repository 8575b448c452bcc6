//! Applying a [`FaultPlan`] to the simulated network over time.

use std::collections::BTreeMap;

use multipod_simnet::{Network, SimTime};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::plan::{FaultAction, FaultEvent, FaultPlan};

/// Replays a [`FaultPlan`] against a [`Network`] as simulated time
/// advances.
///
/// [`advance`](FaultDriver::advance) applies every event whose time has
/// come — link and chip faults go straight to the network's fault
/// wrappers (which invalidate cached routes and emit `link-down` /
/// `link-up` / `chip-down` spans); straggler windows are tracked here and
/// exposed through [`max_slowdown`](FaultDriver::max_slowdown) for the
/// campaign runner to fold into host compute time.
#[derive(Debug)]
pub struct FaultDriver {
    events: Vec<FaultEvent>,
    next: usize,
    stragglers: BTreeMap<u32, f64>,
}

impl FaultDriver {
    /// Builds a driver from `plan`, ordering events by time (ties keep
    /// the plan's insertion order).
    pub fn new(plan: FaultPlan) -> FaultDriver {
        let mut events = plan.into_events();
        events.sort_by_key(|e| e.at);
        FaultDriver {
            events,
            next: 0,
            stragglers: BTreeMap::new(),
        }
    }

    /// Applies every event with `at <= now` to `net`; returns how many
    /// fired.
    pub fn advance(&mut self, net: &mut Network, now: SimTime) -> usize {
        let mut fired = 0;
        while let Some(event) = self.events.get(self.next) {
            if event.at > now {
                break;
            }
            let event = event.clone();
            self.next += 1;
            fired += 1;
            match event.action {
                FaultAction::LinkDown { a, b } => net.fail_link(a, b, event.at),
                FaultAction::LinkUp { a, b } => net.heal_link(a, b, event.at),
                FaultAction::ChipDown { chip } => net.fail_chip(chip, event.at),
                FaultAction::StragglerStart { host, slowdown } => {
                    self.stragglers.insert(host, slowdown);
                    emit_host_fault(net, host, "straggler-start", event.at, slowdown);
                }
                FaultAction::StragglerEnd { host } => {
                    let slowdown = self.stragglers.remove(&host).unwrap_or(1.0);
                    emit_host_fault(net, host, "straggler-end", event.at, slowdown);
                }
            }
        }
        fired
    }

    /// The worst slowdown across all currently active stragglers (1.0
    /// when none). A data-parallel step runs at the pace of its slowest
    /// host, so this is the factor a campaign applies to compute time.
    pub fn max_slowdown(&self) -> f64 {
        self.stragglers.values().fold(1.0, |worst, &s| worst.max(s))
    }

    /// Currently active stragglers as `(host, slowdown)` pairs.
    pub fn active_stragglers(&self) -> Vec<(u32, f64)> {
        self.stragglers.iter().map(|(&h, &s)| (h, s)).collect()
    }

    /// Events not yet applied.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

fn emit_host_fault(net: &Network, host: u32, name: &'static str, at: SimTime, slowdown: f64) {
    net.obs().span(|| {
        SpanEvent::new(Track::Host { host }, SpanCategory::Fault, name, at, at)
            .with_arg("slowdown", slowdown)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::NetworkConfig;
    use multipod_topology::{Multipod, MultipodConfig};

    fn net() -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(2, 4, true)),
            NetworkConfig::tpu_v3(),
        )
    }

    #[test]
    fn events_fire_in_time_order_and_only_once() {
        let mut net = net();
        let chips: Vec<_> = net.mesh().chips().collect();
        // Inserted out of order on purpose.
        let plan = FaultPlan::new()
            .link_up(SimTime::from_seconds(0.2), chips[0], chips[1])
            .link_down(SimTime::from_seconds(0.1), chips[0], chips[1]);
        let mut driver = FaultDriver::new(plan);
        assert_eq!(driver.advance(&mut net, SimTime::from_seconds(0.05)), 0);
        assert_eq!(driver.advance(&mut net, SimTime::from_seconds(0.15)), 1);
        assert_eq!(net.mesh().failed_links().len(), 1);
        assert_eq!(driver.advance(&mut net, SimTime::from_seconds(0.25)), 1);
        assert!(net.mesh().failed_links().is_empty());
        assert_eq!(driver.remaining(), 0);
        assert_eq!(driver.advance(&mut net, SimTime::from_seconds(1.0)), 0);
    }

    #[test]
    fn straggler_windows_track_slowdown() {
        let mut net = net();
        let plan = FaultPlan::new().straggler(
            SimTime::from_seconds(0.1),
            SimTime::from_seconds(0.2),
            3,
            2.5,
        );
        let mut driver = FaultDriver::new(plan);
        assert_eq!(driver.max_slowdown(), 1.0);
        driver.advance(&mut net, SimTime::from_seconds(0.1));
        assert_eq!(driver.max_slowdown(), 2.5);
        assert_eq!(driver.active_stragglers(), vec![(3, 2.5)]);
        driver.advance(&mut net, SimTime::from_seconds(0.2));
        assert_eq!(driver.max_slowdown(), 1.0);
    }
}
