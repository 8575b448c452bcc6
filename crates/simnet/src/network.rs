//! Cut-through network timing with per-directed-link occupancy.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_topology::{ChipId, LinkClass, Multipod, Route, TopologyError};
use multipod_trace::{LinkTransferEvent, SpanCategory, SpanEvent, Track};

use crate::{NetworkError, SimTime};

/// Physical parameters of the ICI network.
///
/// Defaults are calibrated for TPU-v3 (Jouppi et al. 2020: ~656 Gb/s links,
/// microsecond-class hop latencies). They are *simulation* constants — the
/// reproduction targets the shape of the paper's scaling curves, not
/// absolute seconds.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct NetworkConfig {
    /// Per-direction bandwidth of one ICI link, bytes/second.
    pub link_bandwidth: f64,
    /// Propagation + switching latency of one intra-pod hop, seconds.
    /// Cross-pod and wrap links multiply this by their
    /// [`LinkClass::latency_multiplier`].
    pub hop_latency: f64,
    /// Fixed software/DMA overhead charged once per message, seconds.
    pub message_overhead: f64,
}

impl NetworkConfig {
    /// TPU-v3 interconnect constants.
    pub fn tpu_v3() -> NetworkConfig {
        NetworkConfig {
            link_bandwidth: 70.0e9,
            hop_latency: 1.0e-6,
            message_overhead: 1.5e-6,
        }
    }

    /// TPU-v4 projection: roughly doubled ICI bandwidth per link with
    /// similar latencies (used with
    /// `multipod_models::TpuV3::v4_projection` for the paper's DLRM
    /// footnote).
    pub fn tpu_v4() -> NetworkConfig {
        NetworkConfig {
            link_bandwidth: 140.0e9,
            hop_latency: 1.0e-6,
            message_overhead: 1.0e-6,
        }
    }
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig::tpu_v3()
    }
}

/// The outcome of a simulated transfer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// When the last byte arrives at the destination.
    pub finish: SimTime,
    /// Links traversed.
    pub num_hops: usize,
    /// Bytes moved.
    pub bytes: u64,
}

/// Dense per-directed-link occupancy state.
///
/// Directed links are interned lazily into small integer ids the first
/// time a route touches them, so the per-transfer hot loop indexes flat
/// vectors instead of hashing `(from, to)` pairs three times per hop.
/// The interner survives topology mutations (chip ids are stable), which
/// keeps cumulative byte counters alive across fault campaigns exactly
/// like the old per-pair hash map did.
#[derive(Clone, Debug, Default)]
struct LinkTable {
    ids: HashMap<(u32, u32), u32>,
    /// Directed endpoints per id, for reverse lookups.
    endpoints: Vec<(u32, u32)>,
    /// When each link next becomes free. `SimTime::ZERO` means idle —
    /// equivalent to the link being absent from the old map, since every
    /// departure time is already `≥ start + overhead ≥ 0`.
    free: Vec<SimTime>,
    /// Cumulative bytes carried, across resets.
    bytes: Vec<u64>,
}

impl LinkTable {
    fn intern(&mut self, from: u32, to: u32) -> u32 {
        let next = self.endpoints.len() as u32;
        let id = *self.ids.entry((from, to)).or_insert(next);
        if id == next {
            self.endpoints.push((from, to));
            self.free.push(SimTime::ZERO);
            self.bytes.push(0);
        }
        id
    }

    fn reset_free(&mut self) {
        self.free.fill(SimTime::ZERO);
    }

    fn clear_bytes(&mut self) {
        self.bytes.fill(0);
    }
}

/// A fully memoized route: the hop vector plus everything the timing
/// loop would otherwise recompute per transfer — interned link ids, the
/// route-order latency sum, and per-hop trace classes.
///
/// Valid only for the [`Multipod::version`] it was built against;
/// [`Network::sync_topology`] drops every cached path on any topology
/// mutation, so a stale path can never time a transfer.
#[derive(Debug)]
struct CachedPath {
    route: Route,
    /// Interned directed-link ids, in route order.
    links: Vec<u32>,
    /// `Σ hop_latency × class multiplier`, accumulated in route order
    /// (bit-identical to summing over `Route::link_classes`).
    latency: f64,
    /// Per-hop trace classification, for the trace sink.
    trace_classes: Vec<multipod_trace::LinkClass>,
}

/// The simulated interconnect: a [`Multipod`] plus per-directed-link
/// occupancy state.
///
/// The timing model is cut-through (wormhole) routing: a message's finish
/// time is `depart + Σ hop latencies + bytes / bandwidth`, where `depart`
/// waits for every link on the route to drain earlier traffic. Each link is
/// then held busy for the serialization time, which is what creates
/// contention between overlapping transfers (e.g. peer-hopping gradient
/// rings crossing model-parallel tiles, §3.3).
///
/// Repeated collective phases hit the memoized [`CachedPath`] state: after
/// the first iteration over a route, a transfer is one hash lookup plus a
/// walk over dense occupancy vectors — no route recomputation, no per-hop
/// adjacency queries, no allocation.
#[derive(Clone)]
pub struct Network {
    mesh: Multipod,
    config: NetworkConfig,
    links: LinkTable,
    /// Memoized mesh-preferred routes keyed by `(from, to)`, shared by
    /// handle so a cache hit never copies the hop vector.
    route_cache: HashMap<(u32, u32), Arc<CachedPath>>,
    /// The [`Multipod::version`] the cached state was computed against.
    mesh_version: u64,
    obs: Obs,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("config", &self.config)
            .field("links", &self.links)
            .field("cached_routes", &self.route_cache.len())
            .field("obs", &self.obs)
            .finish()
    }
}

impl Network {
    /// Builds a quiescent network over `mesh`.
    pub fn new(mesh: Multipod, config: NetworkConfig) -> Network {
        let mesh_version = mesh.version();
        Network {
            mesh,
            config,
            links: LinkTable::default(),
            route_cache: HashMap::new(),
            mesh_version,
            obs: Obs::default(),
        }
    }

    /// Attaches the observability handle: every subsequent transfer emits
    /// one [`LinkTransferEvent`] per traversed directed link to its sink
    /// and its queueing delay, serialization time and byte counts to its
    /// registry. `Obs::default()` restores the zero-overhead path.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The attached handle — everything that instruments through a
    /// network (collectives, checkpoints, faults, the trainer) reads it
    /// from here so one recorder and one registry see the whole run.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    fn classify(&self, class: LinkClass, from: ChipId, to: ChipId) -> multipod_trace::LinkClass {
        match class {
            LinkClass::IntraPod => {
                let a = self.mesh.coord_of(from);
                let b = self.mesh.coord_of(to);
                if a.y == b.y {
                    multipod_trace::LinkClass::MeshX
                } else {
                    multipod_trace::LinkClass::MeshY
                }
            }
            LinkClass::TorusWrap => multipod_trace::LinkClass::WrapY,
            LinkClass::CrossPodOptical => multipod_trace::LinkClass::CrossPod,
        }
    }

    /// The underlying topology.
    pub fn mesh(&self) -> &Multipod {
        &self.mesh
    }

    /// Mutable access to the topology (e.g. to fail links mid-simulation).
    ///
    /// Mutations are detected via [`Multipod::version`]: the next transfer
    /// notices the bump and drops cached routes and link occupancy, so a
    /// manual [`Network::reset`] is no longer required. Prefer
    /// [`Network::fail_link`] / [`Network::heal_link`] / ...
    /// [`Network::fail_chip`], which also emit fault trace spans.
    pub fn mesh_mut(&mut self) -> &mut Multipod {
        &mut self.mesh
    }

    /// Reconciles cached state with the mesh: when the topology has been
    /// mutated since the cache was built (its version counter moved), drops
    /// memoized paths and in-flight link occupancy. Called lazily at the
    /// start of every transfer, so callers mutating the mesh through
    /// [`Network::mesh_mut`] never observe stale routing.
    pub fn sync_topology(&mut self) {
        if self.mesh_version != self.mesh.version() {
            self.route_cache.clear();
            self.links.reset_free();
            self.mesh_version = self.mesh.version();
        }
    }

    fn emit_fault_span(&self, name: &str, at: SimTime, args: &[(&str, f64)]) {
        self.obs.span(|| {
            args.iter().fold(
                SpanEvent::new(Track::Sim, SpanCategory::Fault, name, at, at),
                |span, &(key, value)| span.with_arg(key, value),
            )
        });
    }

    /// Fails the undirected link `a — b` at sim time `at`.
    ///
    /// Cached routes and occupancy are invalidated immediately, and a
    /// zero-duration `link-down` fault span is emitted (when the link was
    /// actually up and a sink is attached).
    pub fn fail_link(&mut self, a: ChipId, b: ChipId, at: SimTime) {
        let before = self.mesh.version();
        self.mesh.fail_link(a, b);
        if self.mesh.version() != before {
            self.sync_topology();
            self.emit_fault_span("link-down", at, &[("a", a.0 as f64), ("b", b.0 as f64)]);
        }
    }

    /// Heals the undirected link `a — b` at sim time `at`, emitting a
    /// `link-up` fault span when the link was actually down.
    pub fn heal_link(&mut self, a: ChipId, b: ChipId, at: SimTime) {
        let before = self.mesh.version();
        self.mesh.heal_link(a, b);
        if self.mesh.version() != before {
            self.sync_topology();
            self.emit_fault_span("link-up", at, &[("a", a.0 as f64), ("b", b.0 as f64)]);
        }
    }

    /// Takes a whole chip down at sim time `at` by failing every link
    /// incident to it, emitting a single `chip-down` fault span.
    pub fn fail_chip(&mut self, chip: ChipId, at: SimTime) {
        let before = self.mesh.version();
        self.mesh.fail_chip(chip);
        if self.mesh.version() != before {
            self.sync_topology();
            self.emit_fault_span("chip-down", at, &[("chip", chip.0 as f64)]);
        }
    }

    /// The physical parameters.
    pub fn config(&self) -> NetworkConfig {
        self.config
    }

    /// Forgets all in-flight occupancy (start of a new simulated step).
    /// Cumulative traffic statistics are kept; see
    /// [`Network::clear_traffic_stats`].
    pub fn reset(&mut self) {
        self.links.reset_free();
    }

    /// Clears the cumulative per-link byte counters.
    pub fn clear_traffic_stats(&mut self) {
        self.links.clear_bytes();
    }

    /// Cumulative bytes carried by the directed link `from → to`.
    pub fn link_traffic(&self, from: ChipId, to: ChipId) -> u64 {
        match self.links.ids.get(&(from.0, to.0)) {
            Some(&id) => self.links.bytes[id as usize],
            None => 0,
        }
    }

    /// Total bytes moved over X-direction links vs Y-direction links —
    /// the quantity behind §3.3's "the payload transferred along the
    /// X-dimension is 32 times less than the data transferred along the
    /// Y-dimension".
    pub fn traffic_by_dimension(&self) -> (u64, u64) {
        let mut x = 0u64;
        let mut y = 0u64;
        for (&(from, to), &bytes) in self.links.endpoints.iter().zip(&self.links.bytes) {
            let a = self.mesh.coord_of(ChipId(from));
            let b = self.mesh.coord_of(ChipId(to));
            if a.y == b.y {
                x += bytes;
            } else {
                y += bytes;
            }
        }
        (x, y)
    }

    /// Builds the memoized form of `route`: interned link ids, the
    /// route-order latency sum, and trace classes.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Route`] when the route traverses a pair of chips
    /// with no live link between them (stale route on a mutated mesh).
    fn build_path(&mut self, route: Route) -> Result<CachedPath, NetworkError> {
        let hops = route.num_hops();
        let mut links = Vec::with_capacity(hops);
        let mut trace_classes = Vec::with_capacity(hops);
        let mut latency = 0.0f64;
        for w in route.chips.windows(2) {
            let class = self
                .mesh
                .link_between(w[0], w[1])
                .ok_or(NetworkError::Route(TopologyError::NoRoute {
                    from: w[0],
                    to: w[1],
                }))?;
            latency += self.config.hop_latency * class.latency_multiplier();
            trace_classes.push(self.classify(class, w[0], w[1]));
            links.push(self.links.intern(w[0].0, w[1].0));
        }
        Ok(CachedPath {
            route,
            links,
            latency,
            trace_classes,
        })
    }

    /// The timing hot loop: reserves every link of a memoized path for
    /// one message and returns the transfer outcome. Touches only dense
    /// vectors — no hashing, no allocation.
    fn reserve(&mut self, path: &CachedPath, bytes: u64, start: SimTime) -> Transfer {
        let serialization = bytes as f64 / self.config.link_bandwidth;
        let mut depart = start + self.config.message_overhead;
        for &id in &path.links {
            depart = depart.max(self.links.free[id as usize]);
        }
        let finish = depart + path.latency + serialization;
        let busy_until = depart + serialization;
        for &id in &path.links {
            self.links.free[id as usize] = busy_until;
            self.links.bytes[id as usize] += bytes;
        }
        if let Some(sink) = self.obs.sink() {
            // Cut-through: the message holds every link of the route for
            // the same serialization window, so each hop gets the same
            // [depart, busy_until] occupancy the contention model charged.
            for (i, w) in path.route.chips.windows(2).enumerate() {
                sink.record_link(LinkTransferEvent {
                    src: w[0].0,
                    dst: w[1].0,
                    class: path.trace_classes[i],
                    bytes,
                    start: depart,
                    end: busy_until,
                });
            }
        }
        if let Some(telemetry) = self.obs.metrics() {
            telemetry.inc_counter(MetricId::new(Subsystem::Simnet, "transfers"), 1);
            telemetry.inc_counter(
                MetricId::new(Subsystem::Simnet, "link_hops"),
                path.links.len() as u64,
            );
            telemetry.inc_counter(MetricId::new(Subsystem::Simnet, "payload_bytes"), bytes);
            // Queueing delay: how long the head flit waited for occupied
            // links beyond the fixed per-message overhead.
            telemetry.observe(
                MetricId::new(Subsystem::Simnet, "queueing_delay_seconds"),
                depart - (start + self.config.message_overhead),
            );
            telemetry.observe(
                MetricId::new(Subsystem::Simnet, "serialization_seconds"),
                serialization,
            );
        }
        Transfer {
            finish,
            num_hops: path.links.len(),
            bytes,
        }
    }

    /// Times a message of `bytes` from `from` to `to`, issued at `start`.
    ///
    /// A self-transfer (`from == to`) is a zero-cost fast path: nothing
    /// crosses the wire, so it completes at `start` regardless of size.
    ///
    /// # Errors
    ///
    /// * [`NetworkError::Route`] when no route exists (failed links).
    /// * [`NetworkError::EmptyTransfer`] when `bytes == 0` between
    ///   distinct chips — there is no message to time, and silently
    ///   charging α-cost for it has historically hidden schedule bugs.
    pub fn transfer(
        &mut self,
        from: ChipId,
        to: ChipId,
        bytes: u64,
        start: SimTime,
    ) -> Result<Transfer, NetworkError> {
        self.sync_topology();
        if from == to {
            return Ok(Transfer {
                finish: start,
                num_hops: 0,
                bytes,
            });
        }
        if bytes == 0 {
            return Err(NetworkError::EmptyTransfer { from, to });
        }
        let path = match self.route_cache.get(&(from.0, to.0)) {
            Some(path) => Arc::clone(path),
            None => {
                let route = self.mesh.route(from, to)?;
                let path = Arc::new(self.build_path(route)?);
                self.route_cache.insert((from.0, to.0), Arc::clone(&path));
                path
            }
        };
        Ok(self.reserve(&path, bytes, start))
    }

    /// Issues a batch of transfers at the same instant and returns the time
    /// the last one completes.
    ///
    /// Transfers are reserved in argument order, which makes contention
    /// resolution deterministic. Zero-byte messages (e.g. an all-to-all
    /// fan-out with nothing for some peer) are skipped as a zero-cost fast
    /// path: they put nothing on the wire, reserve no occupancy, and never
    /// extend the batch finish time.
    ///
    /// # Errors
    ///
    /// Fails if any non-empty message has no route.
    pub fn parallel_transfers(
        &mut self,
        messages: &[(ChipId, ChipId, u64)],
        start: SimTime,
    ) -> Result<SimTime, NetworkError> {
        let mut finish = start;
        for &(from, to, bytes) in messages {
            if bytes == 0 {
                continue;
            }
            let t = self.transfer(from, to, bytes, start)?;
            finish = finish.max(t.finish);
        }
        Ok(finish)
    }

    /// Pure (state-free) time for a contention-free message over `hops`
    /// intra-pod links; used by analytic fast paths and tests.
    pub fn uncontended_time(&self, hops: usize, bytes: u64) -> f64 {
        self.config.message_overhead
            + hops as f64 * self.config.hop_latency
            + bytes as f64 / self.config.link_bandwidth
    }

    /// Latency multiplier-aware hop latency of a single link.
    pub fn hop_latency(&self, class: LinkClass) -> f64 {
        self.config.hop_latency * class.latency_multiplier()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_topology::{Coord, MultipodConfig};

    fn net(x: u32, y: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(x, y, true)),
            NetworkConfig::tpu_v3(),
        )
    }

    #[test]
    fn one_hop_transfer_time_matches_formula() {
        let mut n = net(4, 4);
        let t = n
            .transfer(ChipId(0), ChipId(1), 70_000_000, SimTime::ZERO)
            .unwrap();
        // 70 MB at 70 GB/s = 1 ms, plus 1 µs hop and 1.5 µs overhead.
        let expect = 1e-3 + 1e-6 + 1.5e-6;
        assert!((t.finish.seconds() - expect).abs() < 1e-12);
        assert_eq!(t.num_hops, 1);
    }

    #[test]
    fn multi_hop_adds_latency_not_serialization() {
        let mut a = net(8, 1);
        let t1 = a
            .transfer(ChipId(0), ChipId(1), 1_000_000, SimTime::ZERO)
            .unwrap();
        let mut b = net(8, 1);
        let t4 = b
            .transfer(ChipId(0), ChipId(4), 1_000_000, SimTime::ZERO)
            .unwrap();
        // Cut-through: 3 extra hops only add 3 µs of latency.
        assert!((t4.finish.seconds() - t1.finish.seconds() - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn contention_serializes_same_link() {
        let mut n = net(4, 1);
        let bytes = 70_000_000u64; // 1 ms serialization
        let first = n
            .transfer(ChipId(0), ChipId(1), bytes, SimTime::ZERO)
            .unwrap();
        let second = n
            .transfer(ChipId(0), ChipId(1), bytes, SimTime::ZERO)
            .unwrap();
        assert!(second.finish.seconds() > first.finish.seconds() + 0.9e-3);
    }

    #[test]
    fn opposite_directions_do_not_contend() {
        let mut n = net(4, 1);
        let bytes = 70_000_000u64;
        let fwd = n
            .transfer(ChipId(0), ChipId(1), bytes, SimTime::ZERO)
            .unwrap();
        let bwd = n
            .transfer(ChipId(1), ChipId(0), bytes, SimTime::ZERO)
            .unwrap();
        assert!((fwd.finish.seconds() - bwd.finish.seconds()).abs() < 1e-12);
    }

    #[test]
    fn disjoint_links_run_in_parallel() {
        let mut n = net(8, 1);
        let msgs = vec![
            (ChipId(0), ChipId(1), 70_000_000u64),
            (ChipId(2), ChipId(3), 70_000_000u64),
            (ChipId(4), ChipId(5), 70_000_000u64),
        ];
        let finish = n.parallel_transfers(&msgs, SimTime::ZERO).unwrap();
        assert!(finish.seconds() < 1.1e-3);
    }

    #[test]
    fn cross_pod_links_cost_more_latency() {
        let mesh = Multipod::new(MultipodConfig::multipod(2));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let a = n.mesh().chip_at(Coord::new(31, 0));
        let b = n.mesh().chip_at(Coord::new(32, 0));
        let c = n.mesh().chip_at(Coord::new(30, 0));
        let cross = n.transfer(a, b, 1000, SimTime::ZERO).unwrap();
        n.reset();
        let intra = n.transfer(c, a, 1000, SimTime::ZERO).unwrap();
        assert!(cross.finish > intra.finish);
    }

    #[test]
    fn reset_clears_occupancy() {
        let mut n = net(2, 1);
        n.transfer(ChipId(0), ChipId(1), 700_000_000, SimTime::ZERO)
            .unwrap();
        n.reset();
        let t = n
            .transfer(ChipId(0), ChipId(1), 1000, SimTime::ZERO)
            .unwrap();
        assert!(t.finish.seconds() < 1e-4);
    }

    #[test]
    fn self_transfer_is_free() {
        let mut n = net(2, 2);
        let t = n
            .transfer(ChipId(0), ChipId(0), 12345, SimTime::from_seconds(1.0))
            .unwrap();
        assert_eq!(t.finish, SimTime::from_seconds(1.0));
        assert_eq!(t.num_hops, 0);
    }

    #[test]
    fn zero_byte_transfer_is_a_typed_error() {
        let mut n = net(4, 1);
        let err = n
            .transfer(ChipId(0), ChipId(1), 0, SimTime::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            NetworkError::EmptyTransfer {
                from: ChipId(0),
                to: ChipId(1)
            }
        );
        assert!(!err.is_no_route());
        // No occupancy was reserved: a follow-up message sees a free link.
        let t = n
            .transfer(ChipId(0), ChipId(1), 1000, SimTime::ZERO)
            .unwrap();
        assert!((t.finish.seconds() - n.uncontended_time(1, 1000)).abs() < 1e-15);
    }

    #[test]
    fn parallel_transfers_skip_zero_byte_messages() {
        let mut n = net(8, 1);
        let with_empty = vec![
            (ChipId(0), ChipId(1), 70_000u64),
            (ChipId(2), ChipId(3), 0u64),
            (ChipId(4), ChipId(5), 70_000u64),
        ];
        let finish = n.parallel_transfers(&with_empty, SimTime::ZERO).unwrap();
        let mut clean = net(8, 1);
        let without = vec![
            (ChipId(0), ChipId(1), 70_000u64),
            (ChipId(4), ChipId(5), 70_000u64),
        ];
        let expect = clean.parallel_transfers(&without, SimTime::ZERO).unwrap();
        assert_eq!(finish.seconds().to_bits(), expect.seconds().to_bits());
        // The skipped message reserved nothing on its link.
        let t = n
            .transfer(ChipId(2), ChipId(3), 1000, SimTime::ZERO)
            .unwrap();
        assert!((t.finish.seconds() - n.uncontended_time(1, 1000)).abs() < 1e-15);
        assert_eq!(n.link_traffic(ChipId(2), ChipId(3)), 1000);
    }

    #[test]
    fn failed_link_reroutes_or_errors() {
        let mesh = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let a = n.mesh().chip_at(Coord::new(0, 0));
        let x_next = n.mesh().chip_at(Coord::new(1, 0));
        let dst = n.mesh().chip_at(Coord::new(1, 1));
        n.mesh_mut().fail_link(a, x_next);
        // X-first is blocked at the first hop; Y-then-X succeeds.
        let t = n.transfer(a, dst, 1000, SimTime::ZERO).unwrap();
        assert_eq!(t.num_hops, 2);
    }

    #[test]
    fn traffic_stats_accumulate_per_link() {
        let mut n = net(4, 1);
        n.transfer(ChipId(0), ChipId(1), 100, SimTime::ZERO)
            .unwrap();
        n.transfer(ChipId(0), ChipId(1), 50, SimTime::ZERO).unwrap();
        n.transfer(ChipId(0), ChipId(2), 10, SimTime::ZERO).unwrap();
        assert_eq!(n.link_traffic(ChipId(0), ChipId(1)), 160);
        assert_eq!(n.link_traffic(ChipId(1), ChipId(2)), 10);
        assert_eq!(n.link_traffic(ChipId(1), ChipId(0)), 0);
        let (x, y) = n.traffic_by_dimension();
        assert_eq!(x, 170);
        assert_eq!(y, 0);
        n.clear_traffic_stats();
        assert_eq!(n.link_traffic(ChipId(0), ChipId(1)), 0);
    }

    #[test]
    fn trace_sink_sees_per_link_occupancy() {
        use multipod_trace::Recorder;
        let mut n = net(4, 1);
        let recorder = Recorder::shared();
        n.set_obs(Obs::new(Some(recorder.clone()), None));
        n.transfer(ChipId(0), ChipId(2), 70_000_000, SimTime::ZERO)
            .unwrap();
        // Cut-through: both hops of 0→1→2 are held for the same 1 ms
        // serialization window and each carries the full payload.
        let links = recorder.link_summaries();
        assert_eq!(links.len(), 2);
        for link in &links {
            assert_eq!(link.bytes, 70_000_000);
            assert_eq!(link.class, multipod_trace::LinkClass::MeshX);
            assert!((link.busy_seconds - 1e-3).abs() < 1e-9);
        }
        n.set_obs(Obs::default());
        n.transfer(ChipId(0), ChipId(1), 1000, SimTime::ZERO)
            .unwrap();
        assert_eq!(recorder.len(), 2, "detached sink must see nothing");
    }

    #[test]
    fn telemetry_sees_transfers_and_queueing_delay() {
        let mut n = net(4, 1);
        let telemetry = multipod_telemetry::Telemetry::shared();
        n.set_obs(Obs::new(None, Some(telemetry.clone())));
        // Two back-to-back messages over the same link: the second queues
        // behind the first's serialization window.
        n.transfer(ChipId(0), ChipId(1), 70_000, SimTime::ZERO)
            .unwrap();
        n.transfer(ChipId(0), ChipId(1), 70_000, SimTime::ZERO)
            .unwrap();
        let snap = telemetry.snapshot();
        assert_eq!(
            snap.counter(&MetricId::new(Subsystem::Simnet, "transfers")),
            2
        );
        assert_eq!(
            snap.counter(&MetricId::new(Subsystem::Simnet, "link_hops")),
            2
        );
        assert_eq!(
            snap.counter(&MetricId::new(Subsystem::Simnet, "payload_bytes")),
            140_000
        );
        let delay = snap
            .histogram(&MetricId::new(Subsystem::Simnet, "queueing_delay_seconds"))
            .unwrap();
        assert_eq!(delay.count, 2);
        assert_eq!(delay.min, 0.0, "first message sees a free link");
        assert!(delay.max > 0.0, "second message must queue");
        n.set_obs(Obs::default());
        n.transfer(ChipId(0), ChipId(1), 1000, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            telemetry
                .snapshot()
                .counter(&MetricId::new(Subsystem::Simnet, "transfers")),
            2,
            "detached telemetry must see nothing"
        );
    }

    #[test]
    fn topology_mutation_invalidates_cached_state_automatically() {
        let mesh = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let a = n.mesh().chip_at(Coord::new(0, 0));
        let x_next = n.mesh().chip_at(Coord::new(1, 0));
        let dst = n.mesh().chip_at(Coord::new(1, 1));
        // Populate the route cache and the link occupancy on the X-first
        // route with a slow transfer.
        let direct = n.transfer(a, dst, 70_000_000, SimTime::ZERO).unwrap();
        assert_eq!(direct.num_hops, 2);
        // Mutate the mesh through raw access — no manual reset.
        n.mesh_mut().fail_link(a, x_next);
        let rerouted = n.transfer(a, dst, 1000, SimTime::ZERO).unwrap();
        assert_eq!(rerouted.num_hops, 2, "Y-then-X detour");
        // Occupancy was dropped with the stale routes, so the rerouted
        // message does not queue behind the earlier megabyte transfer.
        assert!(rerouted.finish.seconds() < 1e-4);
    }

    #[test]
    fn fail_and_heal_link_round_trip_with_fault_spans() {
        use multipod_trace::{Recorder, SpanCategory, TraceEvent};
        let mesh = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let recorder = Recorder::shared();
        n.set_obs(Obs::new(Some(recorder.clone()), None));
        let a = n.mesh().chip_at(Coord::new(0, 0));
        let x_next = n.mesh().chip_at(Coord::new(1, 0));
        n.fail_link(a, x_next, SimTime::from_seconds(1.0));
        // Idempotent: failing an already-failed link emits nothing.
        n.fail_link(a, x_next, SimTime::from_seconds(2.0));
        assert_eq!(n.mesh().failed_links().len(), 1);
        n.heal_link(a, x_next, SimTime::from_seconds(3.0));
        assert!(n.mesh().failed_links().is_empty());
        let spans: Vec<_> = recorder
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) if s.category == SpanCategory::Fault => Some(s.name),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec!["link-down".to_string(), "link-up".to_string()]);
    }

    #[test]
    fn fail_chip_isolates_and_traces() {
        use multipod_trace::Recorder;
        let mesh = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let recorder = Recorder::shared();
        n.set_obs(Obs::new(Some(recorder.clone()), None));
        let victim = n.mesh().chip_at(Coord::new(1, 1));
        n.fail_chip(victim, SimTime::ZERO);
        assert!(n.mesh().is_isolated(victim));
        let corner = n.mesh().chip_at(Coord::new(0, 0));
        assert!(n.transfer(corner, victim, 100, SimTime::ZERO).is_err());
        // Traffic between survivors still routes (around the dead center).
        let far = n.mesh().chip_at(Coord::new(2, 2));
        assert!(n.transfer(corner, far, 100, SimTime::ZERO).is_ok());
        assert_eq!(recorder.span_totals().len(), 1, "one chip-down span");
    }

    #[test]
    fn uncontended_time_formula() {
        let n = net(2, 2);
        let t = n.uncontended_time(3, 70_000_000);
        assert!((t - (1.5e-6 + 3e-6 + 1e-3)).abs() < 1e-12);
    }
}
