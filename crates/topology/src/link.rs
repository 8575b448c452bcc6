//! Inter-chip links.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::ChipId;

/// The physical class of an inter-chip interconnect (ICI) link.
///
/// The paper distinguishes standard within-pod links from the longer
/// cross-pod optical links added to assemble the multipod (§1, Figure 2),
/// plus the torus wrap links on the Y edges that the 2-D gradient-summation
/// schedule exploits (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LinkClass {
    /// A standard within-pod ICI link between adjacent chips.
    IntraPod,
    /// A longer optical link connecting the facing edges of two pods.
    CrossPodOptical,
    /// A torus wrap link connecting the Y=0 and Y=max rows of a pod.
    TorusWrap,
}

impl LinkClass {
    /// Relative propagation-latency multiplier versus an intra-pod link.
    ///
    /// Cross-pod links are physically longer (they leave the pod enclosure
    /// and traverse the datacenter floor), which we model as a latency
    /// multiplier; bandwidth is the same fiber rate.
    pub fn latency_multiplier(self) -> f64 {
        match self {
            LinkClass::IntraPod => 1.0,
            LinkClass::CrossPodOptical => 4.0,
            LinkClass::TorusWrap => 2.0,
        }
    }
}

impl fmt::Display for LinkClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            LinkClass::IntraPod => "intra-pod",
            LinkClass::CrossPodOptical => "cross-pod-optical",
            LinkClass::TorusWrap => "torus-wrap",
        };
        f.write_str(s)
    }
}

/// A directed link between two adjacent chips.
///
/// The topology stores links in canonical (undirected) form but collective
/// schedules consume them directionally; each physical link is
/// full-duplex with independent bandwidth per direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Link {
    /// Source chip.
    pub from: ChipId,
    /// Destination chip.
    pub to: ChipId,
    /// Physical class.
    pub class: LinkClass,
}

impl Link {
    /// Builds a link.
    pub fn new(from: ChipId, to: ChipId, class: LinkClass) -> Link {
        Link { from, to, class }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_pod_links_are_slower() {
        assert!(
            LinkClass::CrossPodOptical.latency_multiplier()
                > LinkClass::IntraPod.latency_multiplier()
        );
        assert!(
            LinkClass::TorusWrap.latency_multiplier() > LinkClass::IntraPod.latency_multiplier()
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(LinkClass::CrossPodOptical.to_string(), "cross-pod-optical");
    }
}
