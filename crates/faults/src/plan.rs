//! Declarative fault plans.
//!
//! A [`FaultPlan`] is a list of [`FaultEvent`]s pinned to simulated time.
//! Because both the schedule and the network it drives are deterministic,
//! re-running the same plan produces byte-identical traces — fault
//! campaigns are reproducible experiments, not chaos monkeys.

use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;
use multipod_topology::{ChipId, Coord, Multipod, MultipodConfig, TopologyError};

/// One scheduled fault (or repair) on the simulated machine.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum FaultAction {
    /// Both directions of the link between `a` and `b` go down.
    LinkDown { a: ChipId, b: ChipId },
    /// The link between `a` and `b` is repaired.
    LinkUp { a: ChipId, b: ChipId },
    /// Every link incident to `chip` goes down (the chip is lost).
    ChipDown { chip: ChipId },
    /// `host` starts running `slowdown`× slower than its peers.
    StragglerStart { host: u32, slowdown: f64 },
    /// `host` returns to full speed.
    StragglerEnd { host: u32 },
}

/// A [`FaultAction`] pinned to a point in simulated time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// When the fault takes effect.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// An ordered campaign of scheduled faults.
///
/// Build one with the chained constructors:
///
/// ```
/// use multipod_faults::FaultPlan;
/// use multipod_simnet::SimTime;
/// use multipod_topology::{Multipod, MultipodConfig};
///
/// let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
/// let chips: Vec<_> = mesh.chips().collect();
/// let plan = FaultPlan::new()
///     .link_down(SimTime::from_seconds(0.1), chips[0], chips[1])
///     .link_up(SimTime::from_seconds(0.2), chips[0], chips[1])
///     .straggler(SimTime::from_seconds(0.1), SimTime::from_seconds(0.3), 2, 1.8);
/// assert_eq!(plan.events().len(), 4);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Schedules an arbitrary event.
    pub fn with_event(mut self, at: SimTime, action: FaultAction) -> FaultPlan {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Schedules a link failure at `at`.
    pub fn link_down(self, at: SimTime, a: ChipId, b: ChipId) -> FaultPlan {
        self.with_event(at, FaultAction::LinkDown { a, b })
    }

    /// Schedules a link repair at `at`.
    pub fn link_up(self, at: SimTime, a: ChipId, b: ChipId) -> FaultPlan {
        self.with_event(at, FaultAction::LinkUp { a, b })
    }

    /// Schedules the loss of a whole chip at `at`.
    pub fn chip_down(self, at: SimTime, chip: ChipId) -> FaultPlan {
        self.with_event(at, FaultAction::ChipDown { chip })
    }

    /// Schedules a straggler window: `host` runs `slowdown`× slower from
    /// `from` until `until`.
    ///
    /// # Panics
    ///
    /// Panics if `slowdown < 1.0` (a straggler cannot be faster than its
    /// peers) or `until < from`.
    pub fn straggler(self, from: SimTime, until: SimTime, host: u32, slowdown: f64) -> FaultPlan {
        assert!(
            slowdown >= 1.0,
            "straggler slowdown must be >= 1, got {slowdown}"
        );
        assert!(
            until >= from,
            "straggler window must not end before it starts"
        );
        self.with_event(from, FaultAction::StragglerStart { host, slowdown })
            .with_event(until, FaultAction::StragglerEnd { host })
    }

    /// The canned campaign from the paper's degradation experiments: the
    /// torus Y wrap link of `column` goes down over `[t_down, t_up)` while
    /// `straggler_host` runs `slowdown`× slower over the same window.
    ///
    /// # Panics
    ///
    /// Panics if the mesh has no torus wrap links or `column` is out of
    /// range.
    pub fn wrap_outage_with_straggler(
        mesh: &Multipod,
        column: u32,
        t_down: SimTime,
        t_up: SimTime,
        straggler_host: u32,
        slowdown: f64,
    ) -> FaultPlan {
        assert!(mesh.torus_y(), "wrap outage needs a torus-Y mesh");
        assert!(column < mesh.x_len(), "column {column} out of range");
        let top = mesh.chip_at(Coord::new(column, mesh.y_len() - 1));
        let bottom = mesh.chip_at(Coord::new(column, 0));
        FaultPlan::new()
            .link_down(t_down, top, bottom)
            .link_up(t_up, top, bottom)
            .straggler(t_down, t_up, straggler_host, slowdown)
    }

    /// All scheduled events, in insertion order. [`FaultDriver`] applies
    /// them in time order (ties broken by insertion order).
    ///
    /// [`FaultDriver`]: crate::FaultDriver
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Consumes the plan into its events.
    pub(crate) fn into_events(self) -> Vec<FaultEvent> {
        self.events
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether `mesh` has every chip the plan names (a link's two ends, a
    /// lost chip).
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidDimensions`] when `mesh` has a zero extent,
    /// [`TopologyError::ChipOutOfRange`] for the first chip off it.
    pub fn check(&self, mesh: &MultipodConfig) -> Result<(), TopologyError> {
        let num_chips = Multipod::try_new(mesh.clone())?.num_chips();
        for event in &self.events {
            let (a, b) = match event.action {
                FaultAction::LinkDown { a, b } | FaultAction::LinkUp { a, b } => (a, b),
                FaultAction::ChipDown { chip } => (chip, chip),
                FaultAction::StragglerStart { .. } | FaultAction::StragglerEnd { .. } => continue,
            };
            if let Some(chip) = [a, b].into_iter().find(|chip| chip.index() >= num_chips) {
                return Err(TopologyError::ChipOutOfRange { chip, num_chips });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrap_outage_targets_the_wrap_link() {
        let mesh = Multipod::new(MultipodConfig::mesh(4, 4, true));
        let t1 = SimTime::from_seconds(0.1);
        let t2 = SimTime::from_seconds(0.2);
        let plan = FaultPlan::wrap_outage_with_straggler(&mesh, 1, t1, t2, 0, 2.0);
        assert_eq!(plan.events().len(), 4);
        let top = mesh.chip_at(Coord::new(1, 3));
        let bottom = mesh.chip_at(Coord::new(1, 0));
        assert_eq!(
            plan.events()[0].action,
            FaultAction::LinkDown { a: top, b: bottom }
        );
        assert_eq!(plan.events()[0].at, t1);
        assert_eq!(plan.events()[1].at, t2);
    }

    #[test]
    #[should_panic(expected = "slowdown must be >= 1")]
    fn rejects_speedup_stragglers() {
        FaultPlan::new().straggler(SimTime::ZERO, SimTime::ZERO, 0, 0.5);
    }
}
