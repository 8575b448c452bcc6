//! Cut-through network timing with per-directed-link occupancy.

use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_topology::{ChipId, LinkClass, Multipod};
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

/// Marks an empty [`PairTable`] slot.
const EMPTY: u64 = u64::MAX;

/// The table key of the ordered chip pair `from → to`. Self-pairs never
/// reach a table (a self-transfer returns before the lookup, a self-link
/// does not exist), which leaves `u64::MAX` free to mark an empty slot.
fn pair_key(from: u32, to: u32) -> u64 {
    debug_assert!(from != to, "self-pair {from} has no table key");
    u64::from(from) << 32 | u64::from(to)
}

/// The one map of this module: chip pairs to dense `u32` ids, open
/// addressing over a power-of-two slot vector, linear probing from a
/// Fibonacci-hashed home slot.
///
/// A slot is 16 bytes and carries its key, so a hit at home — the warm
/// `transfer` — reads one cache line; there is no separate control-byte
/// array and no SipHash. Nothing is ever removed: the route index is
/// dropped whole on a topology mutation and the link interner only grows,
/// so there are no tombstones. The table grows before it passes 7/8 full,
/// so every probe sequence ends at an empty slot.
#[derive(Clone, Debug, Default)]
struct PairTable {
    slots: Vec<(u64, u32)>,
    len: usize,
}

impl PairTable {
    /// Where probing for `key` starts among `slots` (a power of two ≥ 2)
    /// slots: the top `log2(slots)` bits of the multiplicative hash.
    fn home(key: u64, slots: usize) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - slots.trailing_zeros())) as usize
    }

    /// The slot holding `key`, or else the empty slot that ends its probe
    /// run (where it would be added). The table must have slots.
    fn probe(&self, key: u64) -> usize {
        let mask = self.slots.len() - 1;
        let mut slot = PairTable::home(key, self.slots.len());
        while self.slots[slot].0 != key && self.slots[slot].0 != EMPTY {
            slot = (slot + 1) & mask;
        }
        slot
    }

    fn get(&self, key: u64) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let (found, id) = self.slots[self.probe(key)];
        (found == key).then_some(id)
    }

    /// Adds `key`, which must be absent.
    fn insert(&mut self, key: u64, id: u32) {
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            let doubled = vec![(EMPTY, 0); (self.slots.len() * 2).max(16)];
            for (key, id) in std::mem::replace(&mut self.slots, doubled) {
                if key != EMPTY {
                    let slot = self.probe(key);
                    self.slots[slot] = (key, id);
                }
            }
        }
        let slot = self.probe(key);
        self.slots[slot] = (key, id);
        self.len += 1;
    }
}

/// Dense per-directed-link state.
///
/// Directed links are interned lazily into small integer ids the first
/// time a route touches them, so the per-transfer hot loop indexes one
/// flat vector instead of hashing `(from, to)` pairs per hop. The
/// interner survives topology mutations (chip ids are stable, and so is
/// a link's class), which keeps cumulative byte counters alive across
/// fault campaigns.
#[derive(Clone, Debug, Default)]
struct LinkTable {
    ids: PairTable,
    /// Directed endpoints per id, for reverse lookups and the trace sink.
    endpoints: Vec<(u32, u32)>,
    /// Trace classification per id, for the trace sink.
    classes: Vec<multipod_trace::LinkClass>,
    /// Per id: when the link next becomes free, and the cumulative bytes
    /// it has carried across resets — side by side because a reservation
    /// writes both. `SimTime::ZERO` means idle: every departure time is
    /// already `≥ start + overhead ≥ 0`.
    occupancy: Vec<(SimTime, u64)>,
}

impl LinkTable {
    fn intern(&mut self, from: u32, to: u32, class: multipod_trace::LinkClass) -> u32 {
        let key = pair_key(from, to);
        if let Some(id) = self.ids.get(key) {
            return id;
        }
        let id = self.endpoints.len() as u32;
        self.ids.insert(key, id);
        self.endpoints.push((from, to));
        self.classes.push(class);
        self.occupancy.push((SimTime::ZERO, 0));
        id
    }

    fn reset_free(&mut self) {
        for (free, _) in &mut self.occupancy {
            *free = SimTime::ZERO;
        }
    }

    fn clear_bytes(&mut self) {
        for (_, bytes) in &mut self.occupancy {
            *bytes = 0;
        }
    }
}

/// A memoized route: where its interned link ids sit in
/// [`RouteStore::hops`], plus the one figure the timing loop would
/// otherwise recompute per transfer.
#[derive(Clone, Copy, Debug)]
struct Path {
    /// `Σ hop_latency × class multiplier`, accumulated in route order
    /// from `0.0` — the same adds `RingCosts::from_ring` makes.
    latency: f64,
    start: u32,
    len: u32,
}

/// Every memoized mesh-preferred route, in three flat vectors.
///
/// `paths` and `hops` fill in first-use order, so a lockstep collective
/// that repeats its first pass walks both sequentially. Valid only for
/// the link set it was built against: the mesh changes only through
/// [`Network::fail_link`], [`Network::heal_link`] and
/// [`Network::fail_chip`], and each drops the whole store when the link
/// set changed, so a stale path can never time a transfer.
#[derive(Clone, Debug, Default)]
struct RouteStore {
    /// `(from, to)` → index into `paths`.
    index: PairTable,
    paths: Vec<Path>,
    /// Interned directed-link ids of every path, each in route order.
    hops: Vec<u32>,
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
/// Repeated collective phases hit the memoized route store: after the
/// first iteration over a route, a transfer is one table probe plus a
/// walk over the dense occupancy vector — no route recomputation, no
/// per-hop adjacency queries, no allocation.
#[derive(Clone)]
pub struct Network {
    mesh: Multipod,
    config: NetworkConfig,
    links: LinkTable,
    routes: RouteStore,
    obs: Obs,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("mesh", &self.mesh)
            .field("config", &self.config)
            .field("links", &self.links.endpoints.len())
            .field("cached_routes", &self.routes.paths.len())
            .field("obs", &self.obs)
            .finish()
    }
}

/// The trace's name for the link `from → to` of class `class`: it tells
/// the two mesh dimensions apart, which the topology's classes do not.
fn trace_class(
    mesh: &Multipod,
    class: LinkClass,
    from: ChipId,
    to: ChipId,
) -> multipod_trace::LinkClass {
    match class {
        // Ids are row-major: X neighbours share `id / x_len`.
        LinkClass::IntraPod if from.0 / mesh.x_len() == to.0 / mesh.x_len() => {
            multipod_trace::LinkClass::MeshX
        }
        LinkClass::IntraPod => multipod_trace::LinkClass::MeshY,
        LinkClass::TorusWrap => multipod_trace::LinkClass::WrapY,
        LinkClass::CrossPodOptical => multipod_trace::LinkClass::CrossPod,
    }
}

impl Network {
    /// Builds a quiescent network over `mesh`.
    pub fn new(mesh: Multipod, config: NetworkConfig) -> Network {
        Network {
            mesh,
            config,
            links: LinkTable::default(),
            routes: RouteStore::default(),
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

    /// The underlying topology.
    pub fn mesh(&self) -> &Multipod {
        &self.mesh
    }

    /// Drops what was derived from the old link set after the mesh changed:
    /// memoized paths and in-flight link occupancy. Link ids and their
    /// byte counters stay.
    fn sync_topology(&mut self) {
        self.routes = RouteStore::default();
        self.links.reset_free();
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
        if self.mesh.fail_link(a, b) {
            self.sync_topology();
            self.emit_fault_span("link-down", at, &[("a", a.0 as f64), ("b", b.0 as f64)]);
        }
    }

    /// Heals the undirected link `a — b` at sim time `at`, emitting a
    /// `link-up` fault span when the link was actually down.
    pub fn heal_link(&mut self, a: ChipId, b: ChipId, at: SimTime) {
        if self.mesh.heal_link(a, b) {
            self.sync_topology();
            self.emit_fault_span("link-up", at, &[("a", a.0 as f64), ("b", b.0 as f64)]);
        }
    }

    /// Takes a whole chip down at sim time `at` by failing every link
    /// incident to it, emitting a single `chip-down` fault span.
    pub fn fail_chip(&mut self, chip: ChipId, at: SimTime) {
        if self.mesh.fail_chip(chip) {
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
        if from == to {
            return 0;
        }
        match self.links.ids.get(pair_key(from.0, to.0)) {
            Some(id) => self.links.occupancy[id as usize].1,
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
        for (&(from, to), &(_, bytes)) in self.links.endpoints.iter().zip(&self.links.occupancy) {
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

    /// Walks `from → to` on the current mesh and memoizes the result under
    /// `key`: link ids (interned as they are met) appended to the flat hop
    /// arena, and the route-order latency sum.
    ///
    /// # Errors
    ///
    /// [`NetworkError::Route`] when no route exists or an endpoint is off
    /// the mesh; the store is left as it was.
    fn intern_route(&mut self, from: ChipId, to: ChipId, key: u64) -> Result<Path, NetworkError> {
        let Network {
            mesh,
            config,
            links,
            routes,
            ..
        } = self;
        let start = routes.hops.len();
        let mut latency = 0.0f64;
        let walked = mesh.for_each_hop(from, to, |a, b, class| {
            latency += config.hop_latency * class.latency_multiplier();
            routes
                .hops
                .push(links.intern(a.0, b.0, trace_class(mesh, class, a, b)));
        });
        if let Err(e) = walked {
            routes.hops.truncate(start);
            return Err(e.into());
        }
        let path = Path {
            latency,
            start: start as u32,
            len: (routes.hops.len() - start) as u32,
        };
        let id = routes.paths.len() as u32;
        routes.index.insert(key, id);
        routes.paths.push(path);
        Ok(path)
    }

    /// The memoized path `from → to` (distinct chips), walked and interned
    /// on first use.
    #[inline(always)]
    fn path(&mut self, from: ChipId, to: ChipId) -> Result<Path, NetworkError> {
        let key = pair_key(from.0, to.0);
        match self.routes.index.get(key) {
            Some(id) => Ok(self.routes.paths[id as usize]),
            None => self.intern_route(from, to, key),
        }
    }

    /// How long `bytes` hold a link.
    fn serialization(&self, bytes: u64) -> f64 {
        bytes as f64 / self.config.link_bandwidth
    }

    /// The timing hot loop, and the only place link arithmetic happens
    /// per message: reserves every link of a memoized path for one message
    /// of `bytes` (which occupy a link for `serialization`) issued at
    /// `start`, and returns when it lands and whether it was *wait-free*:
    /// departed at exactly `start + message_overhead`, with a hold that
    /// does not round away (`depart + serialization > depart`). Touches
    /// only dense vectors — no hashing, no allocation. Forced inline: with
    /// three call sites the compiler would otherwise keep it out of line,
    /// a call per warm transfer.
    #[inline(always)]
    fn reserve(
        &mut self,
        path: Path,
        bytes: u64,
        serialization: f64,
        start: SimTime,
    ) -> (SimTime, bool) {
        let links = &self.routes.hops[path.start as usize..][..path.len as usize];
        let occupancy = &mut self.links.occupancy;
        let ready = start + self.config.message_overhead;
        let mut depart = ready;
        for &id in links {
            depart = depart.max(occupancy[id as usize].0);
        }
        let finish = depart + path.latency + serialization;
        let busy_until = depart + serialization;
        for &id in links {
            let (free, carried) = &mut occupancy[id as usize];
            *free = busy_until;
            *carried += bytes;
        }
        if !self.obs.is_off() {
            self.record(path, bytes, serialization, start, depart);
        }
        (finish, depart == ready && busy_until > depart)
    }

    /// What an attached [`Obs`] sees of one reservation: a link event per
    /// hop and the transfer's metrics. Out of line, so the untraced
    /// `reserve` stays small.
    #[cold]
    fn record(&self, path: Path, bytes: u64, serialization: f64, start: SimTime, depart: SimTime) {
        let busy_until = depart + serialization;
        if let Some(sink) = self.obs.sink() {
            // Cut-through: the message holds every link of the route for
            // the same serialization window, so each hop gets the same
            // [depart, busy_until] occupancy the contention model charged.
            for &id in &self.routes.hops[path.start as usize..][..path.len as usize] {
                let (src, dst) = self.links.endpoints[id as usize];
                sink.record_link(LinkTransferEvent {
                    src,
                    dst,
                    class: self.links.classes[id as usize],
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
                u64::from(path.len),
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
        let path = self.path(from, to)?;
        let (finish, _) = self.reserve(path, bytes, self.serialization(bytes), start);
        Ok(Transfer {
            finish,
            num_hops: path.len as usize,
            bytes,
        })
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
        self.repeated_transfers(messages, 1, start)
    }

    /// Issues the batch `messages` `rounds` times over — a round as
    /// [`Network::parallel_transfers`] issues it, each round at the instant
    /// the previous one's last message lands — and returns when the last
    /// round lands (`start` when `rounds == 0`). This is a ring
    /// collective's timing: every step sends the same `n` messages.
    ///
    /// Bit for bit the same as `rounds` chained `parallel_transfers` calls
    /// — finish time, link occupancy and traffic, recorded events and
    /// metrics — but each message's path is looked up, and its
    /// serialization time computed, once: in round 0, which reserves as it
    /// goes.
    ///
    /// Once a round is *wait-free* — every message departs at exactly
    /// `round_start + message_overhead` and holds its links for a time
    /// that does not round away — the rounds after it reserve nothing
    /// hop by hop. Such a round proves three things:
    ///
    /// * No two of the batch's paths share a directed link: the later
    ///   message would have found the earlier one's hold and waited.
    /// * Each link is next free at its own message's
    ///   `busy_until = depart + serialization ≤ finish ≤` the next round's
    ///   start (the overhead and every hop latency being non-negative,
    ///   and rounded addition monotone).
    /// * So every message of the next round departs on time too (the
    ///   paths stay disjoint), and by induction of every later round.
    ///
    /// The remaining rounds are then only their start-time chain,
    /// `depart = round_start + overhead` and `finish = finish.max(depart +
    /// latency + serialization)` over the batch's non-dominated
    /// `(latency, serialization)` pairs — the same float operations in the
    /// same order as the per-message reservation, so the same bits — and
    /// one write-back per link. A round that waited (paths sharing a link,
    /// or foreign traffic still holding one in round 0) is reserved hop by
    /// hop and the next round tested again; with an [`Obs`] attached every
    /// round is, since each reservation is recorded.
    ///
    /// # Errors
    ///
    /// Fails if any non-empty message has no route. Only round 0 can fail,
    /// and it leaves the state the first chained call would: the messages
    /// before the failing one reserved.
    pub fn repeated_transfers(
        &mut self,
        messages: &[(ChipId, ChipId, u64)],
        rounds: usize,
        start: SimTime,
    ) -> Result<SimTime, NetworkError> {
        if rounds == 0 {
            return Ok(start);
        }
        // Only a batch that repeats keeps its paths.
        let mut routed = Vec::with_capacity(if rounds > 1 { messages.len() } else { 0 });
        let mut finish = start;
        let mut wait_free = true;
        for &(from, to, bytes) in messages {
            // Neither puts anything on the wire (see `transfer`).
            if bytes == 0 || from == to {
                continue;
            }
            let path = self.path(from, to)?;
            let serialization = self.serialization(bytes);
            let (landed, on_time) = self.reserve(path, bytes, serialization, start);
            finish = finish.max(landed);
            wait_free &= on_time;
            if rounds > 1 {
                routed.push((path, bytes, serialization));
            }
        }
        let mut may_chain = self.obs.is_off()
            && !routed.is_empty()
            && self.config.message_overhead >= 0.0
            && self.config.hop_latency >= 0.0;
        for round in 1..rounds {
            if may_chain && wait_free {
                match self.chain(&routed, rounds - round, finish) {
                    Some(last) => return Ok(last),
                    None => may_chain = false,
                }
            }
            let round_start = finish;
            wait_free = true;
            for &(path, bytes, serialization) in &routed {
                let (landed, on_time) = self.reserve(path, bytes, serialization, round_start);
                finish = finish.max(landed);
                wait_free &= on_time;
            }
        }
        Ok(finish)
    }

    /// Runs `rounds` more rounds of the link-disjoint batch `routed`, the
    /// first starting at `start`, as their start-time chain (see
    /// [`Network::repeated_transfers`]), and leaves every link of the
    /// batch as the last round's reservation would: free at its message's
    /// `depart + serialization`, `rounds × bytes` more carried. `None`,
    /// touching nothing, when the batch has more non-dominated
    /// `(latency, serialization)` pairs than the chain keeps — a ring's
    /// messages differ in at most a routed closing edge and a one-element
    /// chunk remainder.
    fn chain(
        &mut self,
        routed: &[(Path, u64, f64)],
        rounds: usize,
        start: SimTime,
    ) -> Option<SimTime> {
        // Rounded addition is monotone, so a pair no later and no longer
        // than another never sets a round's finish.
        let mut front = [(0.0f64, 0.0f64); 4];
        let mut len = 0;
        for &(path, _, serialization) in routed {
            let (latency, hold) = (path.latency, serialization);
            if front[..len].iter().any(|&(l, s)| l >= latency && s >= hold) {
                continue;
            }
            let mut kept = 0;
            for i in 0..len {
                let (l, s) = front[i];
                if l > latency || s > hold {
                    front[kept] = front[i];
                    kept += 1;
                }
            }
            if kept == front.len() {
                return None;
            }
            front[kept] = (latency, hold);
            len = kept + 1;
        }
        count_chained(rounds);
        let mut finish = start;
        let mut depart = start;
        for _ in 0..rounds {
            depart = finish + self.config.message_overhead;
            for &(latency, serialization) in &front[..len] {
                finish = finish.max(depart + latency + serialization);
            }
        }
        for &(path, bytes, serialization) in routed {
            let busy_until = depart + serialization;
            for &id in &self.routes.hops[path.start as usize..][..path.len as usize] {
                let (free, carried) = &mut self.links.occupancy[id as usize];
                *free = busy_until;
                *carried += rounds as u64 * bytes;
            }
        }
        Some(finish)
    }
}

/// Counts the rounds [`Network::chain`] replays: on this thread, under
/// test, so a test can pin which path a batch takes; otherwise nothing.
#[cfg(not(test))]
fn count_chained(_rounds: usize) {}

#[cfg(test)]
thread_local! {
    static CHAINED_ROUNDS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_chained(rounds: usize) {
    CHAINED_ROUNDS.with(|chained| chained.set(chained.get() + rounds));
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use multipod_topology::{Coord, MultipodConfig, TopologyError};
    use multipod_trace::{Recorder, TraceEvent};
    use proptest::prelude::*;

    use super::*;

    fn net(x: u32, y: u32) -> Network {
        Network::new(
            Multipod::new(MultipodConfig::mesh(x, y, true)),
            NetworkConfig::tpu_v3(),
        )
    }

    /// When a `bytes` message over one free intra-pod link lands, issued
    /// at zero.
    fn one_hop(n: &Network, bytes: u64) -> f64 {
        let cfg = n.config();
        cfg.message_overhead + cfg.hop_latency + bytes as f64 / cfg.link_bandwidth
    }

    /// The layout `Network` had before the flat store — a SipHash map from
    /// chip pair to a per-route `Vec` of link ids, links interned through
    /// a second map, occupancy in two parallel vectors — kept as the
    /// observational reference [`Network`] must match call for call.
    struct MapNetwork {
        mesh: Multipod,
        config: NetworkConfig,
        link_ids: HashMap<(u32, u32), u32>,
        free: Vec<SimTime>,
        bytes: Vec<u64>,
        routes: HashMap<(u32, u32), (Vec<u32>, f64)>,
    }

    impl MapNetwork {
        fn new(mesh: Multipod, config: NetworkConfig) -> MapNetwork {
            MapNetwork {
                mesh,
                config,
                link_ids: HashMap::new(),
                free: Vec::new(),
                bytes: Vec::new(),
                routes: HashMap::new(),
            }
        }

        /// Called when a mesh mutation reports that the link set changed.
        fn sync_topology(&mut self) {
            self.routes.clear();
            self.free.fill(SimTime::ZERO);
        }

        fn build_path(&mut self, from: ChipId, to: ChipId) -> Result<(), NetworkError> {
            let route = self.mesh.route(from, to)?;
            let mut links = Vec::new();
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
                let next = self.free.len() as u32;
                let id = *self.link_ids.entry((w[0].0, w[1].0)).or_insert(next);
                if id == next {
                    self.free.push(SimTime::ZERO);
                    self.bytes.push(0);
                }
                links.push(id);
            }
            self.routes.insert((from.0, to.0), (links, latency));
            Ok(())
        }

        fn transfer(
            &mut self,
            from: ChipId,
            to: ChipId,
            bytes: u64,
            start: SimTime,
        ) -> Result<Transfer, NetworkError> {
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
            if !self.routes.contains_key(&(from.0, to.0)) {
                self.build_path(from, to)?;
            }
            let (links, latency) = &self.routes[&(from.0, to.0)];
            let serialization = bytes as f64 / self.config.link_bandwidth;
            let mut depart = start + self.config.message_overhead;
            for &id in links {
                depart = depart.max(self.free[id as usize]);
            }
            for &id in links {
                self.free[id as usize] = depart + serialization;
                self.bytes[id as usize] += bytes;
            }
            Ok(Transfer {
                finish: depart + *latency + serialization,
                num_hops: links.len(),
                bytes,
            })
        }

        fn parallel_transfers(
            &mut self,
            messages: &[(ChipId, ChipId, u64)],
            start: SimTime,
        ) -> Result<SimTime, NetworkError> {
            let mut finish = start;
            for &(from, to, bytes) in messages {
                if bytes != 0 {
                    finish = finish.max(self.transfer(from, to, bytes, start)?.finish);
                }
            }
            Ok(finish)
        }

        fn link_traffic(&self, from: ChipId, to: ChipId) -> u64 {
            let id = self.link_ids.get(&(from.0, to.0));
            id.map_or(0, |&id| self.bytes[id as usize])
        }

        fn traffic_by_dimension(&self) -> (u64, u64) {
            let (mut x, mut y) = (0u64, 0u64);
            for (&(from, to), &id) in &self.link_ids {
                let same_row =
                    self.mesh.coord_of(ChipId(from)).y == self.mesh.coord_of(ChipId(to)).y;
                *(if same_row { &mut x } else { &mut y }) += self.bytes[id as usize];
            }
            (x, y)
        }
    }

    /// One of `chip`'s live neighbours, if it has any left.
    fn live_neighbour(mesh: &Multipod, chip: ChipId, pick: usize) -> Option<ChipId> {
        let near = mesh.neighbors(chip);
        near.get(pick % near.len().max(1)).map(|&(other, _)| other)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat store is observationally equivalent to the map-based
        /// reference: identical `Transfer`s to the bit, identical errors,
        /// identical per-link and per-dimension traffic, under arbitrary
        /// interleavings of transfers, batches, resets and faults on
        /// two-pod meshes from 4×4 to 16×8.
        #[test]
        fn flat_store_matches_map_reference(
            shape in prop::sample::select(vec![(2u32, 4u32), (4, 4), (4, 8), (8, 8)]),
            torus_y in prop::bool::ANY,
            ops in prop::collection::vec(
                (0u32..14, 0usize..1000, 0usize..1000, 0u64..3_000_000, 0u32..500),
                1..100,
            ),
        ) {
            let config = MultipodConfig {
                pods: 2,
                pod_x_len: shape.0,
                pod_y_len: shape.1,
                torus_y,
            };
            let pristine = Multipod::new(config);
            let chips = pristine.num_chips();
            let mut flat = Network::new(pristine.clone(), NetworkConfig::tpu_v3());
            let mut map = MapNetwork::new(pristine.clone(), NetworkConfig::tpu_v3());
            for &(kind, a_sel, b_sel, bytes, micros) in &ops {
                let a = ChipId((a_sel % chips) as u32);
                let b = ChipId((b_sel % chips) as u32);
                let at = SimTime::from_seconds(f64::from(micros) * 1e-6);
                match kind {
                    // Any pair (self-transfers and multi-hop included), any
                    // size (zero included).
                    0..=3 => prop_assert_eq!(
                        flat.transfer(a, b, bytes, at),
                        map.transfer(a, b, bytes, at)
                    ),
                    // One hop to a live neighbour: the ring-collective case.
                    4..=6 => {
                        if let Some(b) = live_neighbour(flat.mesh(), a, b_sel) {
                            prop_assert_eq!(
                                flat.transfer(a, b, bytes, at),
                                map.transfer(a, b, bytes, at)
                            );
                        }
                    }
                    7 | 8 => {
                        let batch: Vec<_> = (0..2 + bytes as usize % 7)
                            .map(|i| {
                                let from = ChipId(((a_sel + 3 * i) % chips) as u32);
                                let to = ChipId(((b_sel + 5 * i) % chips) as u32);
                                (from, to, bytes * (i as u64 % 3))
                            })
                            .collect();
                        prop_assert_eq!(
                            flat.parallel_transfers(&batch, at),
                            map.parallel_transfers(&batch, at)
                        );
                    }
                    9 => {
                        flat.reset();
                        map.free.fill(SimTime::ZERO);
                    }
                    10 => {
                        flat.clear_traffic_stats();
                        map.bytes.fill(0);
                    }
                    11 => {
                        if let Some(b) = live_neighbour(flat.mesh(), a, b_sel) {
                            flat.fail_link(a, b, at);
                            if map.mesh.fail_link(a, b) {
                                map.sync_topology();
                            }
                        }
                    }
                    12 => {
                        let failed = flat.mesh().failed_links();
                        if let Some(&(a, b)) = failed.get(a_sel % failed.len().max(1)) {
                            flat.heal_link(a, b, at);
                            if map.mesh.heal_link(a, b) {
                                map.sync_topology();
                            }
                        }
                    }
                    _ => {
                        flat.fail_chip(a, at);
                        if map.mesh.fail_chip(a) {
                            map.sync_topology();
                        }
                    }
                }
                prop_assert_eq!(flat.traffic_by_dimension(), map.traffic_by_dimension());
            }
            for link in pristine.links() {
                prop_assert_eq!(
                    flat.link_traffic(link.from, link.to),
                    map.link_traffic(link.from, link.to)
                );
            }
        }
    }

    /// Holds `repeated_transfers(messages, rounds, at)` on a clone of
    /// `base` to `rounds` chained `parallel_transfers` calls on another,
    /// the next starting where the last finished: the same finish bits or
    /// the same `Err` (the chain stops at its first), the same occupancy
    /// and traffic on every link — so the same next transfer — and,
    /// `traced`, the same recorded events and metrics.
    fn assert_rounds_equal_chain(
        base: Network,
        messages: &[(ChipId, ChipId, u64)],
        rounds: usize,
        at: SimTime,
        traced: bool,
    ) -> Result<(), TestCaseError> {
        let (mut once, mut chained) = (base.clone(), base);
        let observe = |net: &mut Network| {
            let recorder = Recorder::shared();
            let telemetry = multipod_telemetry::Telemetry::shared();
            if traced {
                net.set_obs(Obs::new(Some(recorder.clone()), Some(telemetry.clone())));
            }
            (recorder, telemetry)
        };
        let (once_events, once_metrics) = observe(&mut once);
        let (chained_events, chained_metrics) = observe(&mut chained);

        let repeated = once.repeated_transfers(messages, rounds, at);
        let mut chain = Ok(at);
        for _ in 0..rounds {
            let Ok(t) = chain else { break };
            chain = chained.parallel_transfers(messages, t);
        }
        prop_assert_eq!(&repeated, &chain);
        prop_assert_eq!(&once.links.endpoints, &chained.links.endpoints);
        prop_assert_eq!(&once.links.occupancy, &chained.links.occupancy);
        prop_assert_eq!(&once.routes.hops, &chained.routes.hops);
        for link in once.mesh().links() {
            prop_assert_eq!(
                once.link_traffic(link.from, link.to),
                chained.link_traffic(link.from, link.to)
            );
        }
        prop_assert_eq!(&*once_events.events(), &*chained_events.events());
        prop_assert_eq!(once_metrics.snapshot(), chained_metrics.snapshot());
        let next = repeated.unwrap_or(at);
        for &(from, to, _) in messages {
            prop_assert_eq!(
                once.transfer(from, to, 512, next),
                chained.transfer(from, to, 512, next)
            );
        }
        Ok(())
    }

    /// Round counts from the empty batch to a 256-member ring's steps.
    fn ring_rounds() -> impl Strategy<Value = usize> {
        prop_oneof![0usize..5, Just(31), Just(127), Just(255)]
    }

    /// Unroutable foreign traffic just leaves nothing behind.
    fn preload(net: &mut Network, foreign: &[(usize, usize, u64)]) {
        let chips = net.mesh().num_chips();
        for &(a, b, bytes) in foreign {
            let (a, b) = (ChipId((a % chips) as u32), ChipId((b % chips) as u32));
            let _ = net.transfer(a, b, bytes, SimTime::ZERO);
        }
    }

    /// One step of a ring collective over `members`: each sends to the
    /// next, the last back to the first.
    fn ring_batch(members: &[ChipId], bytes: u64) -> Vec<(ChipId, ChipId, u64)> {
        let n = members.len();
        (0..n)
            .map(|i| (members[i], members[(i + 1) % n], bytes))
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `repeated_transfers` is chained `parallel_transfers` (see
        /// [`assert_rounds_equal_chain`]). Batches mix one-hop messages
        /// that share links, multi-hop, zero-byte and self messages and
        /// off-mesh chips, on a two-pod mesh carrying foreign traffic,
        /// with failed links or a failed chip.
        #[test]
        fn repeated_rounds_equal_chained_batches(
            rounds in ring_rounds(),
            batch in prop::collection::vec((0usize..1000, 0u32..6, 0usize..1000, 0u64..4), 0..12),
            foreign in prop::collection::vec((0usize..1000, 0usize..1000, 1u64..100_000), 0..6),
            faults in prop::collection::vec((0usize..1000, 0usize..1000, any::<bool>()), 0..3),
            micros in 0u32..20,
            traced in any::<bool>(),
        ) {
            let mut base = Network::new(
                Multipod::new(MultipodConfig {
                    pods: 2,
                    pod_x_len: 4,
                    pod_y_len: 4,
                    torus_y: true,
                }),
                NetworkConfig::tpu_v3(),
            );
            let chips = base.mesh().num_chips();
            let chip = |sel: usize| ChipId((sel % chips) as u32);
            for &(a, b_sel, whole_chip) in &faults {
                if whole_chip {
                    base.fail_chip(chip(a), SimTime::ZERO);
                } else if let Some(b) = live_neighbour(base.mesh(), chip(a), b_sel) {
                    base.fail_link(chip(a), b, SimTime::ZERO);
                }
            }
            preload(&mut base, &foreign);
            let messages: Vec<(ChipId, ChipId, u64)> = batch
                .iter()
                .map(|&(a, kind, b_sel, size)| {
                    let from = chip(a);
                    let to = match kind {
                        0..=2 => live_neighbour(base.mesh(), from, b_sel).unwrap_or(from),
                        3 => chip(b_sel),
                        4 => from,
                        _ => ChipId((chips + b_sel % 3) as u32),
                    };
                    (from, to, 4096 * size)
                })
                .collect();
            let at = SimTime::from_seconds(f64::from(micros) * 1e-6);
            assert_rounds_equal_chain(base, &messages, rounds, at, traced)?;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The same at ring scale, on the batches the 2-D summation sends:
        /// a whole Y ring, an open X line with its routed closing edge, X
        /// lines strided by 2 and 4, a survivor Y ring detoured round a
        /// failed link, and a stride-2 line's two offsets in one batch
        /// (which share links) — each with and without foreign traffic
        /// pre-loaded, traced and untraced, chunks a few bytes apart.
        #[test]
        fn ring_rounds_equal_chained_batches(
            pod in prop::sample::select(vec![4u32, 8]),
            kind in 0u32..6,
            line in 0u32..64,
            cut in 0usize..64,
            rounds in ring_rounds(),
            bytes in 1u64..1 << 20,
            spread in 0u64..3,
            foreign in prop::collection::vec((0usize..1000, 0usize..1000, 1u64..100_000), 0..6),
            traced in any::<bool>(),
        ) {
            let mut base = Network::new(
                Multipod::new(MultipodConfig {
                    pods: 2,
                    pod_x_len: pod,
                    pod_y_len: pod,
                    torus_y: true,
                }),
                NetworkConfig::tpu_v3(),
            );
            let mesh = base.mesh().clone();
            let (x, y) = (line % mesh.x_len(), line % mesh.y_len());
            let members: Vec<ChipId> = match kind {
                0 | 4 => mesh.y_ring(x).members().to_vec(),
                1 => mesh.x_line(y).members().to_vec(),
                2 => mesh.x_line_strided(y, 1, 2).members().to_vec(),
                3 => mesh.x_line_strided(y, 3, 4).members().to_vec(),
                _ => {
                    let mut both = mesh.x_line_strided(y, 0, 2).members().to_vec();
                    both.extend_from_slice(mesh.x_line_strided(y, 1, 2).members());
                    both
                }
            };
            if kind == 4 {
                let k = cut % members.len();
                base.fail_link(members[k], members[(k + 1) % members.len()], SimTime::ZERO);
            }
            let mut messages = if kind == 5 {
                let half = members.len() / 2;
                let mut batch = ring_batch(&members[..half], bytes);
                batch.extend(ring_batch(&members[half..], bytes));
                batch
            } else {
                ring_batch(&members, bytes)
            };
            // A chunk remainder: the last members send a little more.
            let len = messages.len();
            for message in &mut messages[len - spread as usize..] {
                message.2 += 4;
            }
            preload(&mut base, &foreign);
            assert_rounds_equal_chain(base, &messages, rounds, SimTime::ZERO, traced)?;
        }
    }

    /// Which path a batch takes is pinned, so an edit that disables the
    /// chain cannot pass unnoticed: every batch of the healthy 2-D
    /// summation (Y rings, then X lines at strides 1, 2 and 4) chains
    /// every round after the first — the first after the second for a
    /// strided line offset behind another, whose round 0 waits for the
    /// line before it — while two messages over one link, a batch with
    /// more non-dominated `(latency, serialization)` pairs than the chain
    /// keeps, or an attached `Obs`, reserve every round hop by hop.
    #[test]
    fn wait_free_batches_chain_and_contended_or_traced_ones_do_not() {
        let chained = || CHAINED_ROUNDS.with(std::cell::Cell::get);
        let mesh = Multipod::new(MultipodConfig {
            pods: 2,
            pod_x_len: 8,
            pod_y_len: 8,
            torus_y: true,
        });
        for stride in [1, 2, 4] {
            let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
            let mut phase_end = SimTime::ZERO;
            for x in 0..mesh.x_len() {
                let batch = ring_batch(mesh.y_ring(x).members(), 4096);
                let before = chained();
                let rounds = batch.len() - 1;
                let t = net
                    .repeated_transfers(&batch, rounds, SimTime::ZERO)
                    .unwrap();
                phase_end = phase_end.max(t);
                assert_eq!(chained() - before, rounds - 1, "Y ring {x}");
            }
            for y in 0..mesh.y_len() {
                for offset in 0..stride {
                    let line = mesh.x_line_strided(y, offset, stride);
                    let batch = ring_batch(line.members(), 4096);
                    let before = chained();
                    let rounds = batch.len() - 1;
                    net.repeated_transfers(&batch, rounds, phase_end).unwrap();
                    let waited = usize::from(offset > 0);
                    assert_eq!(
                        chained() - before,
                        rounds - 1 - waited,
                        "row {y} stride {stride} offset {offset}"
                    );
                }
            }
        }

        let (a, b) = (
            mesh.chip_at(Coord::new(0, 0)),
            mesh.chip_at(Coord::new(1, 0)),
        );
        let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
        let before = chained();
        net.repeated_transfers(&[(a, b, 4096), (a, b, 4096)], 31, SimTime::ZERO)
            .unwrap();
        assert_eq!(chained(), before, "two messages over one link");

        // Row-disjoint messages, each longer and lighter than the last:
        // wait-free, and four of them chain, but five are more
        // non-dominated pairs than the chain keeps, so every round stays
        // on the loop — either way the chained calls' bits.
        let staircase: Vec<(ChipId, ChipId, u64)> = (0..5u32)
            .map(|row| {
                let from = mesh.chip_at(Coord::new(0, row));
                let to = mesh.chip_at(Coord::new(row + 1, row));
                (from, to, 4096 * u64::from(6 - row))
            })
            .collect();
        for (steps, chains) in [(4, 30), (5, 0)] {
            let net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
            let before = chained();
            assert_rounds_equal_chain(net, &staircase[..steps], 31, SimTime::ZERO, false).unwrap();
            assert_eq!(chained() - before, chains, "{steps}-step staircase");
        }
        let before = chained();

        let mut net = Network::new(mesh.clone(), NetworkConfig::tpu_v3());
        net.set_obs(Obs::new(Some(Recorder::shared()), None));
        net.repeated_transfers(
            &ring_batch(mesh.y_ring(0).members(), 4096),
            7,
            SimTime::ZERO,
        )
        .unwrap();
        assert_eq!(chained(), before, "traced");
    }

    /// `0x9E37_79B9_7F4A_7C15⁻¹ mod 2⁶⁴`, by Newton iteration: the key
    /// whose multiplicative hash is `hash` is `hash × inverse`.
    fn key_hashing_to(hash: u64) -> u64 {
        let m = 0x9E37_79B9_7F4A_7C15u64;
        let mut inverse = m;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inverse)));
        }
        assert_eq!(m.wrapping_mul(inverse), 1);
        hash.wrapping_mul(inverse)
    }

    #[test]
    fn table_growth_keeps_every_key_reachable() {
        let mut table = PairTable::default();
        assert_eq!(table.get(pair_key(0, 1)), None, "empty table");
        let key = |i: u32| pair_key(i, i.wrapping_mul(7919) ^ 0x5555_5555);
        for i in 0..5000u32 {
            table.insert(key(i), i);
            if i % 257 == 0 {
                assert!((0..=i).all(|j| table.get(key(j)) == Some(j)), "at {i}");
            }
        }
        assert!(table.slots.len() >= 16 << 6, "{} slots", table.slots.len());
        assert!(table.slots.len().is_power_of_two());
        assert!((0..5000).all(|j| table.get(key(j)) == Some(j)));
        assert!((5000..6000).all(|j| table.get(key(j)).is_none()));
    }

    #[test]
    fn keys_sharing_one_home_slot_all_resolve() {
        // Equal top 20 hash bits: one home slot in every table of up to
        // 2²⁰ slots, so the whole set is a single linear-probe run (which
        // wraps round the end of the slot vector: the home is the last
        // slot).
        let key = |j: u64| key_hashing_to(0xFFFF_F000_0000_0000 | j << 8);
        let mut table = PairTable::default();
        for j in 0..200 {
            table.insert(key(j), j as u32);
        }
        let slots = table.slots.len();
        assert!((0..200).all(|j| PairTable::home(key(j), slots) == slots - 1));
        assert!((0..200).all(|j| table.get(key(j)) == Some(j as u32)));
        assert!((200..400).all(|j| table.get(key(j)).is_none()));
    }

    #[test]
    fn absent_key_lookup_terminates_at_maximum_load() {
        let mut table = PairTable::default();
        let key = |i: u32| pair_key(i + 1, 0);
        let mut next = 0u32;
        for _ in 0..8 {
            // Fill to the brim: one more insertion would double the table.
            while (table.len + 1) * 8 <= table.slots.len() * 7 || table.slots.is_empty() {
                table.insert(key(next), next);
                next += 1;
            }
            assert!(table.len * 8 <= table.slots.len() * 7, "never above 7/8");
            let empty = table.slots.iter().filter(|s| s.0 == EMPTY).count();
            assert_eq!(empty, table.slots.len() - table.len);
            assert!(empty >= table.slots.len() / 8);
            assert!((next..next + 1000).all(|i| table.get(key(i)).is_none()));
            let slots = table.slots.len();
            table.insert(key(next), next);
            next += 1;
            assert_eq!(table.slots.len(), 2 * slots, "grows exactly at the brim");
        }
    }

    #[test]
    fn link_ids_and_byte_counters_survive_invalidation() {
        let mut n = net(8, 8);
        let pairs: Vec<(ChipId, ChipId)> = (0..64u32)
            .map(|i| (ChipId(i), ChipId((i * 13 + 5) % 64)))
            .filter(|(a, b)| a != b)
            .collect();
        for &(a, b) in &pairs {
            n.transfer(a, b, 100, SimTime::ZERO).unwrap();
        }
        let endpoints = n.links.endpoints.clone();
        let traffic: Vec<u64> = n.links.occupancy.iter().map(|o| o.1).collect();
        assert_eq!(n.routes.paths.len(), pairs.len());
        // A mutation far from every route above drops the whole route
        // store and all occupancy, but not the interner.
        n.fail_link(ChipId(0), ChipId(1), SimTime::ZERO);
        n.heal_link(ChipId(0), ChipId(1), SimTime::ZERO);
        assert!(n.routes.paths.is_empty() && n.routes.hops.is_empty());
        assert!(n.links.occupancy.iter().all(|o| o.0 == SimTime::ZERO));
        for &(a, b) in &pairs {
            n.transfer(a, b, 100, SimTime::ZERO).unwrap();
        }
        assert_eq!(n.links.endpoints, endpoints, "same pairs, same ids");
        for (id, &(from, to)) in endpoints.iter().enumerate() {
            assert_eq!(n.links.ids.get(pair_key(from, to)), Some(id as u32));
            assert_eq!(n.link_traffic(ChipId(from), ChipId(to)), 2 * traffic[id]);
        }
        assert_eq!(n.link_traffic(ChipId(3), ChipId(3)), 0, "no self-link");
    }

    #[test]
    fn sink_events_follow_the_topology_hop_by_hop() {
        // Two 4×4 pods with Y wrap; each case crosses something the link
        // table must classify by itself: the pod boundary, the Y wrap, a
        // detour round a failed link.
        let mut n = Network::new(
            Multipod::new(MultipodConfig {
                pods: 2,
                pod_x_len: 4,
                pod_y_len: 4,
                torus_y: true,
            }),
            NetworkConfig::tpu_v3(),
        );
        let at = |x, y| n.mesh().chip_at(Coord::new(x, y));
        let (pod_a, pod_b) = (at(2, 1), at(6, 2));
        let (top, bottom) = (at(1, 0), at(1, 3));
        let (blocked_from, blocked_to) = (at(0, 0), at(1, 0));
        let cases = [
            (pod_a, pod_b, Some(multipod_trace::LinkClass::CrossPod)),
            (top, bottom, Some(multipod_trace::LinkClass::WrapY)),
            (blocked_from, at(2, 1), None),
        ];
        n.fail_link(blocked_from, blocked_to, SimTime::ZERO);
        for (from, to, must_cross) in cases {
            // Twice: the cold call interns the route, the warm one reads it.
            for _ in 0..2 {
                let recorder = Recorder::shared();
                n.set_obs(Obs::new(Some(recorder.clone()), None));
                let sent = n.transfer(from, to, 4096, SimTime::ZERO).unwrap();
                let route = n.mesh().route(from, to).unwrap();
                assert_eq!(sent.num_hops, route.num_hops());
                let seen: Vec<_> = recorder
                    .events()
                    .iter()
                    .map(|e| match e {
                        TraceEvent::Link(l) => (l.src, l.dst, l.class),
                        TraceEvent::Span(s) => panic!("unexpected span {s:?}"),
                    })
                    .collect();
                let expect: Vec<_> = route
                    .chips
                    .windows(2)
                    .map(|w| {
                        let class = n.mesh().link_between(w[0], w[1]).unwrap();
                        (w[0].0, w[1].0, trace_class(n.mesh(), class, w[0], w[1]))
                    })
                    .collect();
                assert_eq!(seen, expect);
                assert!(must_cross.iter().all(|c| seen.iter().any(|s| s.2 == *c)));
                let failed = (blocked_from.0, blocked_to.0);
                assert!(seen.iter().all(|s| (s.0, s.1) != failed));
            }
        }
    }

    #[test]
    fn debug_rendering_is_counts_not_tables() {
        let mut n = net(32, 32);
        for i in 0..1024u32 {
            n.transfer(ChipId(i), ChipId((i * 37 + 11) % 1024), 64, SimTime::ZERO)
                .unwrap();
        }
        let text = format!("{n:?}");
        assert!(text.len() < 1024, "{} bytes: {text}", text.len());
        assert!(text.contains(&format!("links: {}", n.links.endpoints.len())));
        assert!(text.contains(&format!("cached_routes: {}", n.routes.paths.len())));
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
        assert!((t.finish.seconds() - one_hop(&n, 1000)).abs() < 1e-15);
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
        assert!((t.finish.seconds() - one_hop(&n, 1000)).abs() < 1e-15);
        assert_eq!(n.link_traffic(ChipId(2), ChipId(3)), 1000);
    }

    #[test]
    fn failed_link_reroutes_or_errors() {
        let mesh = Multipod::new(MultipodConfig::mesh(3, 3, false));
        let mut n = Network::new(mesh, NetworkConfig::tpu_v3());
        let a = n.mesh().chip_at(Coord::new(0, 0));
        let x_next = n.mesh().chip_at(Coord::new(1, 0));
        let dst = n.mesh().chip_at(Coord::new(1, 1));
        n.fail_link(a, x_next, SimTime::ZERO);
        // X-first is blocked at the first hop; Y-then-X succeeds.
        let t = n.transfer(a, dst, 1000, SimTime::ZERO).unwrap();
        assert_eq!(t.num_hops, 2);
    }

    #[test]
    fn off_mesh_chip_is_a_typed_error_and_interns_nothing() {
        let mut n = net(4, 4);
        let off_mesh = NetworkError::Route(TopologyError::ChipOutOfRange {
            chip: ChipId(99),
            num_chips: 16,
        });
        assert_eq!(
            n.transfer(ChipId(0), ChipId(99), 8, SimTime::ZERO),
            Err(off_mesh.clone())
        );
        assert_eq!(
            n.transfer(ChipId(99), ChipId(0), 8, SimTime::ZERO),
            Err(off_mesh.clone())
        );
        let batch = [(ChipId(0), ChipId(1), 8), (ChipId(2), ChipId(99), 8)];
        assert_eq!(n.parallel_transfers(&batch, SimTime::ZERO), Err(off_mesh));
        // Only the batch's good message left anything behind.
        assert_eq!(n.routes.paths.len(), 1);
        assert_eq!(n.routes.hops.len(), 1);
        assert_eq!(n.links.endpoints, vec![(0, 1)]);
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
        // Mutate the mesh through the one door — no manual reset.
        n.fail_link(a, x_next, SimTime::ZERO);
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
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Span(s) if s.category == SpanCategory::Fault => Some(s.name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(spans, vec!["link-down".to_string(), "link-up".to_string()]);
    }

    #[test]
    fn mutations_that_change_no_link_keep_the_warm_store_and_trace_nothing() {
        let mut n = net(4, 4);
        let (a, b) = (ChipId(0), ChipId(1));
        n.fail_link(a, b, SimTime::ZERO);
        let victim = ChipId(10);
        n.fail_chip(victim, SimTime::ZERO);
        let pairs = [(ChipId(0), ChipId(15)), (ChipId(4), ChipId(7))];
        for &(from, to) in &pairs {
            n.transfer(from, to, 1000, SimTime::ZERO).unwrap();
        }
        let (paths, hops, busy) = (
            n.routes.paths.len(),
            n.routes.hops.len(),
            n.links.occupancy.clone(),
        );
        let recorder = Recorder::shared();
        n.set_obs(Obs::new(Some(recorder.clone()), None));
        // Already down, already up, already isolated: no link changes.
        n.fail_link(b, a, SimTime::ZERO);
        n.heal_link(ChipId(2), ChipId(3), SimTime::ZERO);
        n.fail_chip(victim, SimTime::ZERO);
        assert_eq!(recorder.len(), 0, "no fault span");
        assert_eq!(n.links.occupancy, busy, "occupancy kept");
        n.set_obs(Obs::default());
        for &(from, to) in &pairs {
            n.transfer(from, to, 1000, SimTime::ZERO).unwrap();
        }
        assert_eq!(n.routes.paths.len(), paths, "warm: nothing interned");
        assert_eq!(n.routes.hops.len(), hops);
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
}
