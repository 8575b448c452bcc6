//! The gang scheduler: priorities, fair share, preemption via real
//! checkpoint save/restore, and the campaign driver.
//!
//! The scheduler runs an event loop over simnet's sim-time clock
//! ([`multipod_simnet::EventQueue`]). Jobs arrive from a deterministic
//! stream, queue under `(priority, fair-share usage, arrival)` order, and
//! gang-schedule onto rectangular slices from the [`SliceAllocator`].
//! A blocked higher-priority job preempts lower-priority work: the
//! victims' model state is saved through `multipod-ckpt`'s sharded save
//! (priced on a slice-shaped network), their slices free when the save
//! completes, and when a preempted job is re-dispatched the checkpoint is
//! restored — with the restored bundle verified **bit-identical** to what
//! was saved, the PR 4 elastic-restart guarantee. Chip-loss faults kill
//! the occupying job back to its last checkpoint.
//!
//! A job exists once, as a row of the job table, and its lifecycle is
//! that row's [`Phase`]; the table is the only per-job state there is.
//!
//! Every decision is deterministic, so a campaign re-run is byte-identical
//! — the property `repro sched --check-determinism` gates in CI.

use std::collections::btree_map::{BTreeMap, Entry};
use std::collections::BTreeSet;
use std::mem;

use serde::{Deserialize, Serialize};

use multipod_ckpt::{
    restore_checkpoint, save_checkpoint, Checkpoint, PcieCost, ShardPlacement, StateBundle,
};
use multipod_core::step::step_breakdown;
use multipod_core::StepOptions;
use multipod_faults::{FaultAction, FaultPlan};
use multipod_optim::{Optimizer, SgdMomentum};
use multipod_simnet::{EventQueue, Network, NetworkConfig, SimTime};
use multipod_telemetry::{DistSummary, MetricId, Obs, Subsystem};
use multipod_tensor::{Shape, Tensor};
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::job::{arrival_stream, ArrivalConfig, JobKind, JobSpec, ServiceSpec};
use crate::slice::{Slice, SliceAllocator};
use crate::SchedError;

/// Allocator owner ids at or above this value belong to service
/// reservations, not stream jobs (stream ids are dense from 0, far below
/// this).
const SERVICE_ID_BASE: u64 = 1 << 48;

/// Campaign parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SchedConfig {
    /// The machine being multiplexed.
    pub mesh: MultipodConfig,
    /// The arrival stream.
    pub arrivals: ArrivalConfig,
    /// Long-lived serving reservations, allocated before the first job
    /// arrival and held for the whole campaign.
    pub services: Vec<ServiceSpec>,
    /// Elements of model + optimizer state each job checkpoints.
    pub state_elems: usize,
    /// Learning rate of the per-job model updates.
    pub lr: f32,
}

impl SchedConfig {
    /// The canned heavy heterogeneous campaign on a given mesh.
    pub fn demo(mesh: MultipodConfig, jobs: u32, seed: u64) -> SchedConfig {
        SchedConfig {
            mesh,
            arrivals: ArrivalConfig::heavy(jobs, seed),
            services: Vec::new(),
            state_elems: 4096,
            lr: 0.05,
        }
    }
}

/// Per-kind campaign stats.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct KindStats {
    /// Job kind label.
    pub kind: String,
    /// Jobs of this kind in the stream.
    pub jobs: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Mean queue wait across dispatches, seconds.
    pub mean_queue_wait_seconds: f64,
    /// Mean turnaround (arrival → completion), seconds.
    pub mean_turnaround_seconds: f64,
}

/// Per-service campaign stats.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ServiceStats {
    /// Service name.
    pub name: String,
    /// Chips reserved.
    pub chips: u32,
    /// Final slice shape `(w, h)`; `(0, 0)` if displaced at campaign end.
    pub shape: (u32, u32),
    /// Fault-driven migrations to a new slice.
    pub migrations: u64,
}

/// What a campaign did and what it cost.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedReport {
    /// Jobs in the stream.
    pub jobs: u64,
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Preemptions performed (each a real checkpoint save).
    pub preemptions: u64,
    /// Jobs killed by chip loss (recovered from their last checkpoint).
    pub fault_kills: u64,
    /// Elastic restores performed on re-dispatch.
    pub restores: u64,
    /// Every restore was bit-identical to its save.
    pub restores_bit_identical: bool,
    /// Completion time of the last job, seconds.
    pub makespan_seconds: f64,
    /// Busy-chip-seconds / live-chip-seconds over the makespan.
    pub mean_utilization: f64,
    /// Queue-wait distribution across dispatches, seconds.
    pub queue_wait: DistSummary,
    /// Preemption overhead distribution (save + restore per event), seconds.
    pub preemption_overhead: DistSummary,
    /// Total simulated checkpoint-save time, seconds.
    pub save_seconds: f64,
    /// Total simulated restore time, seconds.
    pub restore_seconds: f64,
    /// Per-kind breakdown, in kind order.
    pub per_kind: Vec<KindStats>,
    /// Long-lived service reservations, in config order.
    pub services: Vec<ServiceStats>,
}

/// Events driving the scheduler's sim-time loop. A `usize` is a row of the
/// job table; only the arrival handler creates rows.
#[derive(Clone, Debug)]
enum Event {
    /// The next job of the stream arrives.
    Arrival(JobSpec),
    /// A running job finished its remaining steps. Live only while the
    /// job is [`Phase::Running`] with this `token`; a preemption or fault
    /// kill in between leaves it stale.
    Completion { job: usize, token: u64 },
    /// Preemption saves finished; the victims' slices free up.
    SliceFreed { victims: Vec<usize> },
    /// A chip of the fault plan dies.
    Fault(ChipId),
}

/// A job's mutable model state: the "real training" the checkpoint
/// protocol protects, advanced with genuine optimizer updates so state
/// divergence would be caught by the bit-identity check. Only a
/// preemption save reads it, so only preempted jobs build and train one.
struct JobModel {
    weights: Tensor,
    opt: SgdMomentum,
}

impl JobModel {
    fn fresh(spec: &JobSpec, elems: usize, lr: f32) -> JobModel {
        count_training(spec.id, 1, 0);
        // Deterministic per-job initialization.
        let weights = Tensor::from_fn(Shape::vector(elems), |i| {
            let h = spec
                .id
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(i as u64)
                .wrapping_mul(0xbf58_476d_1ce4_e5b9);
            ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
        });
        JobModel {
            weights,
            opt: SgdMomentum::new(lr, 0.9),
        }
    }

    /// One deterministic training step: the gradient is a pure function
    /// of the job id and step index, written into `grad` (the weights'
    /// shape) in place.
    fn advance(&mut self, job: u64, step: u64, grad: &mut Tensor) -> Result<(), SchedError> {
        count_training(job, 0, 1);
        let g = job.wrapping_mul(0x94d0_49bb_1331_11eb).wrapping_add(step);
        grad.data_mut()
            .fill(((g >> 40) as f32 / (1u64 << 24) as f32) - 0.5);
        Ok(self.opt.step(0, &mut self.weights, grad)?)
    }

    fn bundle(&self, steps_done: u64) -> Result<StateBundle, SchedError> {
        Ok(StateBundle::from_optimizer(
            steps_done,
            &self.weights,
            &self.opt,
            1,
        )?)
    }

    fn load(&mut self, bundle: &StateBundle) -> Result<(), SchedError> {
        self.weights = bundle.weights.clone();
        bundle.restore_optimizer(&mut self.opt, 1)?;
        Ok(())
    }
}

/// Where a job is in its lifecycle. Three containment invariants hang on
/// it (`PodScheduler::consistent` checks them after every event in debug
/// builds): exactly the `Queued` jobs are in `pending`, exactly the
/// `Running` jobs are in `running`, and exactly the `Running` and
/// `Draining` jobs own allocator cells.
enum Phase {
    /// Waiting in `pending` since `since`.
    Queued { since: SimTime },
    /// On a slice, stepping toward its scheduled `Completion`.
    Running(Running),
    /// Preempted: still on its slice while the checkpoint save streams
    /// out; the round's `SliceFreed` requeues it.
    Draining,
    /// Ran every step.
    Done { at: SimTime },
}

/// A dispatched job's slice occupancy.
struct Running {
    slice: Slice,
    started: SimTime,
    /// When the restore (if any) finished and stepping began.
    compute_from: SimTime,
    step_seconds: f64,
    /// Matches the one `Completion` event that may finish this run.
    token: u64,
}

/// One row of the job table; the row index is the job's `spec.id`.
struct Job {
    spec: JobSpec,
    /// Built when a preemption first reads it and released at `Done`, so
    /// only preempted jobs that have not finished hold one.
    model: Option<JobModel>,
    steps_done: u64,
    /// Last checkpoint (from a preemption save), if any.
    ckpt: Option<Checkpoint>,
    /// Whether in-memory state was lost (fault kill) and the next
    /// dispatch must restart from the last checkpoint or from scratch.
    lost_state: bool,
    /// Cost of a preemption save whose restore has not happened yet; the
    /// two together are one preemption-overhead sample.
    unpaired_save: Option<f64>,
    queue_waits: Vec<f64>,
    phase: Phase,
}

impl Job {
    /// The job's model, built fresh when a preemption or restore first asks.
    fn model(&mut self, config: &SchedConfig) -> &mut JobModel {
        let spec = &self.spec;
        self.model
            .get_or_insert_with(|| JobModel::fresh(spec, config.state_elems, config.lr))
    }

    /// Trains the model forward to `steps_done == target`, every step
    /// through one gradient buffer, and bundles it for a checkpoint save.
    fn bundle_at(&mut self, target: u64, config: &SchedConfig) -> Result<StateBundle, SchedError> {
        let (first, id) = (self.steps_done, self.spec.id);
        self.steps_done = target;
        let model = self.model(config);
        if target > first {
            let mut grad = Tensor::zeros(model.weights.shape().clone());
            for s in first..target {
                model.advance(id, s, &mut grad)?;
            }
        }
        model.bundle(target)
    }
}

/// A `Queued` row as the round orders it: the order's keys and the
/// slice size, so ordering and backfill never touch the job table.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Waiting {
    priority: u8,
    tenant: u32,
    arrival: SimTime,
    chips: u32,
    job: usize,
}

impl Waiting {
    fn of(spec: &JobSpec) -> Waiting {
        Waiting {
            priority: spec.priority,
            tenant: spec.tenant,
            arrival: spec.arrival,
            chips: spec.chips,
            job: spec.id as usize,
        }
    }
}

/// Queue order: priority, then fair-share usage (lighter tenants first),
/// then arrival, then id — a total order, so scheduling is deterministic.
/// `usage` is the chip-seconds billed so far, indexed by tenant (0.0 past it).
fn queue_cmp(a: &Waiting, b: &Waiting, usage: &[f64]) -> std::cmp::Ordering {
    let used = |w: &Waiting| usage.get(w.tenant as usize).copied().unwrap_or(0.0);
    a.priority
        .cmp(&b.priority)
        .then(used(a).total_cmp(&used(b)))
        .then(a.arrival.cmp(&b.arrival))
        .then(a.job.cmp(&b.job))
}

/// Inserts `waiting` into `pending`, which is in queue order, at its
/// place: the order is total, so that is where a push and a sort put it.
fn enqueue(pending: &mut Vec<Waiting>, waiting: Waiting, usage: &[f64]) {
    let at = pending.partition_point(|w| queue_cmp(w, &waiting, usage).is_lt());
    pending.insert(at, waiting);
}

/// Bills `tenant` and returns whether that changed how it compares with
/// another tenant, an unbilled one (0.0) included: no other bill can take
/// a queue out of queue order.
fn bill(usage: &mut Vec<f64>, tenant: usize, chip_seconds: f64) -> bool {
    if tenant >= usage.len() {
        usage.resize(tenant + 1, 0.0);
    }
    let (old, new) = (usage[tenant], usage[tenant] + chip_seconds);
    usage[tenant] = new;
    let moved = |u: &f64| old.total_cmp(u) != new.total_cmp(u);
    moved(&0.0) || (0..usage.len()).any(|t| t != tenant && moved(&usage[t]))
}

/// Runtime state of one long-lived service reservation.
struct ServiceRun {
    spec: ServiceSpec,
    /// Current slice, or `None` while displaced by a fault and awaiting
    /// re-placement.
    slice: Option<Slice>,
    migrations: u64,
}

/// Per-(shape, elems) checkpoint pricing context: a slice-shaped network
/// and placement, reused across every save/restore of that shape.
struct ShapeCtx {
    net: Network,
    placement: ShardPlacement,
}

/// The multi-tenant pod scheduler. One value runs one campaign:
/// [`PodScheduler::run`] consumes it.
pub struct PodScheduler {
    config: SchedConfig,
    /// Chips on the mesh, dead or alive.
    mesh_chips: u32,
    allocator: SliceAllocator,
    /// The sim-time event loop's future.
    queue: EventQueue<Event>,
    /// The job table, in arrival order.
    jobs: Vec<Job>,
    /// The `Queued` rows of `jobs`, in queue order.
    pending: Vec<Waiting>,
    /// Slice sizes (one bit each) with no `Free` rectangle: `Free` cells
    /// only disappear until [`PodScheduler::free`] clears this.
    blocked: u32,
    /// The last queue head's `(priority, chips)` claim if it found no
    /// victim set: its usable cells only shrink until the next `free`.
    no_victims: Option<(u8, u32)>,
    /// The `Running` rows of `jobs` as `(priority, started, id)`: the
    /// last is the most expendable.
    running: BTreeSet<(u8, SimTime, usize)>,
    services: Vec<ServiceRun>,
    /// Chip-seconds billed per tenant, indexed by tenant; a tenant past
    /// the end has not been billed yet.
    tenant_usage: Vec<f64>,
    /// Memoized per-(kind, chips) step seconds.
    step_cache: BTreeMap<(JobKind, u32), f64>,
    /// Memoized per-shape checkpoint pricing networks.
    shape_cache: BTreeMap<(u32, u32), ShapeCtx>,
    pcie: PcieCost,
    obs: Obs,
    // Utilization accounting.
    clock: SimTime,
    busy_area: f64,
    live_area: f64,
    // Tallies.
    next_token: u64,
    preemptions: u64,
    fault_kills: u64,
    restores: u64,
    save_seconds: f64,
    restore_seconds: f64,
    preempt_overheads: Vec<f64>,
}

impl PodScheduler {
    /// Builds a scheduler over the configured mesh.
    pub fn new(config: SchedConfig) -> PodScheduler {
        let mesh = Multipod::new(config.mesh.clone());
        PodScheduler {
            mesh_chips: mesh.num_chips() as u32,
            allocator: SliceAllocator::new(&mesh),
            queue: EventQueue::new(),
            jobs: Vec::new(),
            pending: Vec::new(),
            blocked: 0,
            no_victims: None,
            running: BTreeSet::new(),
            services: Vec::new(),
            tenant_usage: Vec::new(),
            step_cache: BTreeMap::new(),
            shape_cache: BTreeMap::new(),
            pcie: PcieCost::criteo(),
            obs: Obs::default(),
            clock: SimTime::ZERO,
            busy_area: 0.0,
            live_area: 0.0,
            next_token: 0,
            preemptions: 0,
            fault_kills: 0,
            restores: 0,
            save_seconds: 0.0,
            restore_seconds: 0.0,
            preempt_overheads: Vec::new(),
            config,
        }
    }

    /// Attaches the observability handle. Its sink gets job lifecycle
    /// spans (`Sched` category) and the checkpoint traffic of every
    /// preemption; its registry gets queue waits, preemption overheads and
    /// checkpoint costs as `pod.*` metrics.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn observe(&self, name: &'static str, value: f64) {
        self.obs.observe(MetricId::new(Subsystem::Pod, name), value);
    }

    fn count(&self, name: &'static str, by: u64) {
        self.obs.count(MetricId::new(Subsystem::Pod, name), by);
    }

    fn span(&self, name: &'static str, start: SimTime, end: SimTime, args: &[(&str, f64)]) {
        self.obs.span(|| {
            args.iter().fold(
                SpanEvent::new(Track::Sim, SpanCategory::Sched, name, start, end),
                |span, &(k, v)| span.with_arg(k, v),
            )
        });
    }

    /// Advances the utilization integrals to `now`.
    fn advance_clock(&mut self, now: SimTime) {
        let dt = now - self.clock;
        if dt > 0.0 {
            self.busy_area += dt * f64::from(self.allocator.busy_chips());
            self.live_area += dt * f64::from(self.allocator.live_chips());
            self.clock = now;
        }
    }

    /// Simulated seconds of one step of `kind` on a `chips` slice,
    /// memoized across the campaign.
    fn step_seconds(&mut self, kind: JobKind, chips: u32) -> Result<f64, SchedError> {
        if let Some(&s) = self.step_cache.get(&(kind, chips)) {
            return Ok(s);
        }
        let s = step_breakdown(&kind.workload(), chips, &StepOptions::default())?.total();
        self.step_cache.insert((kind, chips), s);
        Ok(s)
    }

    fn shape_ctx(&mut self, shape: (u32, u32)) -> Result<&mut ShapeCtx, SchedError> {
        match self.shape_cache.entry(shape) {
            Entry::Occupied(ctx) => Ok(ctx.into_mut()),
            Entry::Vacant(slot) => {
                let mesh = Multipod::new(MultipodConfig::mesh(shape.0, shape.1, false));
                let placement = ShardPlacement::plan(&mesh, &[], self.config.state_elems)?;
                let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
                net.set_obs(self.obs.clone());
                Ok(slot.insert(ShapeCtx { net, placement }))
            }
        }
    }

    /// Runs the campaign to completion, consuming the scheduler: its
    /// clock, tenant bills and service placements belong to one campaign.
    ///
    /// # Errors
    ///
    /// [`SchedError`] when the arrival gap is not a positive finite
    /// number, a job or service can never fit the mesh, the checkpoint
    /// layer fails, or a restore is not bit-identical.
    pub fn run(self) -> Result<SchedReport, SchedError> {
        self.run_with_faults(&FaultPlan::new())
    }

    /// Runs the campaign with a chip-loss fault plan (link faults and
    /// stragglers are ignored; the scheduler models whole-chip loss).
    ///
    /// # Errors
    ///
    /// As [`PodScheduler::run`], plus [`SchedError::FaultOffMesh`] when
    /// the plan kills a chip the mesh does not have.
    pub fn run_with_faults(mut self, plan: &FaultPlan) -> Result<SchedReport, SchedError> {
        // Everything the configuration alone can get wrong surfaces as a
        // typed error before the campaign starts.
        let gap = self.config.arrivals.mean_interarrival_seconds;
        if !(gap.is_finite() && gap > 0.0) {
            return Err(SchedError::InvalidConfig {
                field: "arrivals.mean_interarrival_seconds",
                value: gap,
            });
        }
        for spec in arrival_stream(&self.config.arrivals) {
            let _ = self.allocator.shapes_for(spec.id, spec.chips)?;
            self.queue.schedule(spec.arrival, Event::Arrival(spec));
        }
        for fault in plan.events() {
            if let FaultAction::ChipDown { chip } = fault.action {
                if chip.0 >= self.mesh_chips {
                    return Err(SchedError::FaultOffMesh {
                        chip,
                        chips: self.mesh_chips,
                    });
                }
                self.queue.schedule(fault.at, Event::Fault(chip));
            }
        }
        // Service reservations claim their slices before the first job
        // arrives — they are the highest-priority tenants on the mesh.
        for (i, spec) in self.config.services.clone().into_iter().enumerate() {
            let id = SERVICE_ID_BASE + i as u64;
            let Ok(Some(slice)) = self.allocator.allocate(id, spec.chips) else {
                return Err(SchedError::ServiceUnplaceable {
                    service: spec.name,
                    chips: spec.chips,
                });
            };
            self.count("service_placements", 1);
            self.services.push(ServiceRun {
                spec,
                slice: Some(slice),
                migrations: 0,
            });
        }

        while let Some((now, event)) = self.queue.pop() {
            self.advance_clock(now);
            match event {
                Event::Arrival(spec) => self.admit(spec, now),
                Event::Completion { job, token } => {
                    if !matches!(&self.jobs[job].phase, Phase::Running(r) if r.token == token) {
                        continue;
                    }
                    self.complete_job(job, now);
                }
                Event::SliceFreed { victims } => {
                    for v in victims {
                        // A fault may have killed (and already freed) a
                        // draining victim; it could even be running again
                        // on a new slice by now. Only release slices of
                        // jobs still draining.
                        if matches!(self.jobs[v].phase, Phase::Draining) {
                            self.jobs[v].phase = Phase::Queued { since: now };
                            self.free(v as u64);
                            let waiting = Waiting::of(&self.jobs[v].spec);
                            enqueue(&mut self.pending, waiting, &self.tenant_usage);
                        }
                    }
                }
                Event::Fault(chip) => self.handle_fault(chip, now),
            }
            self.schedule_round(now)?;
            #[cfg(debug_assertions)]
            debug_assert!(self.consistent(), "job table out of step at {now:?}");
        }

        let report = self.report();
        self.obs.gauge(
            MetricId::new(Subsystem::Pod, "mean_utilization"),
            report.mean_utilization,
        );
        Ok(report)
    }

    /// The arrival handler: the one place a job-table row is created.
    fn admit(&mut self, spec: JobSpec, now: SimTime) {
        debug_assert_eq!(spec.id, self.jobs.len() as u64, "ids are row indexes");
        self.count("arrivals", 1);
        enqueue(&mut self.pending, Waiting::of(&spec), &self.tenant_usage);
        self.jobs.push(Job {
            model: None,
            spec,
            steps_done: 0,
            ckpt: None,
            lost_state: false,
            unpaired_save: None,
            queue_waits: Vec::new(),
            phase: Phase::Queued { since: now },
        });
    }

    /// The campaign's report: a function of the job table and the
    /// tallies. Jobs still queued at the end (they never fit again) simply
    /// report as uncompleted.
    fn report(&self) -> SchedReport {
        let of_kind = |kind| self.jobs.iter().filter(move |j| j.spec.kind == kind);
        let turnaround = |j: &Job| match j.phase {
            Phase::Done { at } => Some(at - j.spec.arrival),
            _ => None,
        };
        let mut per_kind = Vec::new();
        for kind in [
            JobKind::Eval,
            JobKind::Bert,
            JobKind::Resnet50,
            JobKind::Dlrm,
        ] {
            let jobs = of_kind(kind).count() as u64;
            if jobs == 0 {
                continue;
            }
            let turnarounds: Vec<f64> = of_kind(kind).filter_map(turnaround).collect();
            per_kind.push(KindStats {
                kind: kind.label().to_string(),
                jobs,
                completed: turnarounds.len() as u64,
                mean_queue_wait_seconds: mean(&queue_waits(of_kind(kind))),
                mean_turnaround_seconds: mean(&turnarounds),
            });
        }
        SchedReport {
            jobs: self.jobs.len() as u64,
            completed: self.jobs.iter().filter_map(turnaround).count() as u64,
            preemptions: self.preemptions,
            fault_kills: self.fault_kills,
            restores: self.restores,
            // A restore that is not bit-identical aborts the campaign with
            // `RestoreMismatch`, so a report exists only if every one was.
            restores_bit_identical: true,
            makespan_seconds: self.clock.seconds(),
            mean_utilization: if self.live_area > 0.0 {
                self.busy_area / self.live_area
            } else {
                0.0
            },
            queue_wait: DistSummary::of(queue_waits(self.jobs.iter())),
            preemption_overhead: DistSummary::of(self.preempt_overheads.clone()),
            save_seconds: self.save_seconds,
            restore_seconds: self.restore_seconds,
            per_kind,
            services: self
                .services
                .iter()
                .map(|s| ServiceStats {
                    name: s.spec.name.clone(),
                    chips: s.spec.chips,
                    shape: s.slice.map_or((0, 0), |sl| sl.shape()),
                    migrations: s.migrations,
                })
                .collect(),
        }
    }

    /// One scheduling round: dispatch every pending job that fits (in
    /// queue order, smaller jobs backfilling behind blocked big ones),
    /// then consider one preemption for the highest-priority blocked job.
    fn schedule_round(&mut self, now: SimTime) -> Result<(), SchedError> {
        // Displaced services re-place before any job is considered: a
        // serving reservation outranks every job priority.
        for i in 0..self.services.len() {
            if self.services[i].slice.is_some() {
                continue;
            }
            let id = SERVICE_ID_BASE + i as u64;
            let chips = self.services[i].spec.chips;
            if let Some(slice) = self.allocator.allocate(id, chips)? {
                let svc = &mut self.services[i];
                svc.slice = Some(slice);
                svc.migrations += 1;
                self.count("service_migrations", 1);
                self.span(
                    "service-migrate",
                    now,
                    now,
                    &[("service", i as f64), ("chips", f64::from(chips))],
                );
            } else if !self.preempt_to_fit(id, chips, None, now)?
                && !self.jobs.iter().any(|j| matches!(j.phase, Phase::Draining))
            {
                // Nothing (left) to preempt and no draining victim of an
                // earlier round about to free space: the mesh genuinely
                // cannot host the reservation any more.
                return Err(SchedError::ServiceUnplaceable {
                    service: self.services[i].spec.name.clone(),
                    chips,
                });
            }
        }
        let mut kept = 0;
        for i in 0..self.pending.len() {
            let waiting = self.pending[i];
            if self.blocked & waiting.chips == 0 {
                let slice = self.allocator.allocate(waiting.job as u64, waiting.chips)?;
                log_alloc(Some((waiting.chips, slice.is_some())));
                if let Some(slice) = slice {
                    self.dispatch(waiting.job, slice, now)?;
                    continue;
                }
                self.blocked |= waiting.chips;
            }
            self.pending[kept] = waiting;
            kept += 1;
        }
        self.pending.truncate(kept);
        // What is left is blocked, most urgent first.
        if let Some(&w) = self.pending.first() {
            let claim = Some((w.priority, w.chips));
            if self.no_victims != claim
                && !self.preempt_to_fit(w.job as u64, w.chips, Some(w.priority), now)?
            {
                self.no_victims = claim;
            }
        }
        Ok(())
    }

    /// Dispatches queued `job` onto `slice`: restore its checkpoint if
    /// it has one, then schedule its completion.
    fn dispatch(&mut self, job: usize, slice: Slice, now: SimTime) -> Result<(), SchedError> {
        let j = &self.jobs[job];
        let (kind, chips) = (j.spec.kind, j.spec.chips);
        let Phase::Queued { since } = j.phase else {
            return Ok(()); // `pending` holds only queued jobs
        };
        let wait = now - since;
        self.observe("queue_wait_seconds", wait);
        self.span(
            "job-queued",
            since,
            now,
            &[("job", job as f64), ("chips", f64::from(chips))],
        );

        let step_seconds = self.step_seconds(kind, chips)?;
        let mut compute_from = now;
        // Only a preemption save writes a checkpoint, and every dispatch
        // after one — requeued or fault-killed — resumes from it, so it
        // goes back in place once this restore has read it.
        if let Some(ckpt) = self.jobs[job].ckpt.take() {
            let restored = self.restore_job(job, &ckpt, slice.shape(), now);
            self.jobs[job].ckpt = Some(ckpt);
            let restore_cost = restored?;
            compute_from = now + restore_cost;
            // Preemption overhead per event: this restore plus the save
            // that evicted the job.
            if let Some(save_cost) = self.jobs[job].unpaired_save.take() {
                let overhead = save_cost + restore_cost;
                self.preempt_overheads.push(overhead);
                self.observe("preemption_overhead_seconds", overhead);
            }
        } else if self.jobs[job].lost_state {
            // Fault-killed with no checkpoint: restart from scratch (the
            // next use builds a fresh model).
            let j = &mut self.jobs[job];
            j.model = None;
            j.steps_done = 0;
            j.lost_state = false;
        }

        self.next_token += 1;
        let token = self.next_token;
        let j = &mut self.jobs[job];
        j.queue_waits.push(wait);
        self.running.insert((j.spec.priority, now, job));
        let remaining = j.spec.steps.saturating_sub(j.steps_done);
        let finish = compute_from + step_seconds * remaining as f64;
        j.phase = Phase::Running(Running {
            slice,
            started: now,
            compute_from,
            step_seconds,
            token,
        });
        self.queue
            .schedule(finish, Event::Completion { job, token });
        Ok(())
    }

    /// Takes `job` off the clock at `now` and moves it to `next`. If it
    /// was running, its tenant is billed the chip-seconds since dispatch
    /// (re-sorting `pending` if the bill reorders tenants) and the
    /// occupancy it held is returned; the slice itself stays allocated
    /// until the caller frees it.
    fn stop(&mut self, job: usize, now: SimTime, next: Phase) -> Option<Running> {
        let j = &mut self.jobs[job];
        let Phase::Running(running) = mem::replace(&mut j.phase, next) else {
            return None;
        };
        self.running
            .remove(&(j.spec.priority, running.started, job));
        let chip_seconds = f64::from(j.spec.chips) * (now - running.started);
        if bill(&mut self.tenant_usage, j.spec.tenant as usize, chip_seconds) {
            // A total order: an unstable sort is the stable one, and allocates nothing.
            self.pending
                .sort_unstable_by(|a, b| queue_cmp(a, b, &self.tenant_usage));
        }
        Some(running)
    }

    /// Completes running `job` at `now`: count its steps done, bill its
    /// tenant, free the slice. No step is trained: nothing reads a finished
    /// job's model, which is released with its last checkpoint.
    fn complete_job(&mut self, job: usize, now: SimTime) {
        let Some(running) = self.stop(job, now, Phase::Done { at: now }) else {
            return;
        };
        let j = &mut self.jobs[job];
        j.steps_done = j.spec.steps;
        j.model = None;
        j.ckpt = None;
        let (chips, steps) = (j.spec.chips, j.spec.steps);
        self.free(job as u64);
        self.count("jobs_completed", 1);
        self.span(
            "job-run",
            running.started,
            now,
            &[
                ("job", job as f64),
                ("chips", f64::from(chips)),
                ("steps", steps as f64),
            ],
        );
    }

    /// Frees every cell `owner` holds: the one way cells return to `Free`,
    /// so what the rounds learned from their absence is forgotten.
    fn free(&mut self, owner: u64) {
        self.allocator.free(owner);
        (self.blocked, self.no_victims) = (0, None);
        log_alloc(None);
    }

    /// Preempts running jobs so that `chips` for `claimant` (an allocator
    /// owner id) fit. Candidates are the running jobs of strictly lower
    /// priority than `outranks` — every running job for `None`, a service
    /// — taken cheapest first (lowest priority, then latest started, then
    /// highest id: a total order, read off the back of `running`), and a
    /// read-only trial on the allocator finds the shortest prefix whose
    /// cells make the claim fit.
    /// Exactly that prefix checkpoints; the slices free together when the
    /// slowest save completes. Returns whether a victim set was found.
    fn preempt_to_fit(
        &mut self,
        claimant: u64,
        chips: u32,
        outranks: Option<u8>,
        now: SimTime,
    ) -> Result<bool, SchedError> {
        let expendable = |r: &&(u8, SimTime, usize)| outranks.is_none_or(|p| r.0 > p);
        let candidates = self.running.iter().rev().take_while(expendable).copied();
        // Every running job keyed at or after a candidate is one too.
        let key = |o: u64| match &self.jobs.get(o as usize)?.phase {
            Phase::Running(r) => Some((self.jobs[o as usize].spec.priority, r.started, o as usize)),
            _ => None,
        };
        let needed = self
            .allocator
            .victims_needed(claimant, chips, candidates.clone(), key)?;
        let Some(needed) = needed else {
            return Ok(false);
        };
        // Sized exactly: the list rides in the `SliceFreed` event until the saves finish.
        let mut victims = Vec::with_capacity(needed);
        victims.extend(candidates.take(needed).map(|r| r.2));
        let mut latest = now;
        for &v in &victims {
            latest = latest.max(self.preempt(v, now)?);
        }
        self.queue.schedule(latest, Event::SliceFreed { victims });
        Ok(true)
    }

    /// Preempts running `job` at `now`: advance its model for the steps
    /// that completed, save a real sharded checkpoint on its slice, and
    /// leave it draining until the save finishes. Returns when its slice
    /// frees.
    fn preempt(&mut self, job: usize, now: SimTime) -> Result<SimTime, SchedError> {
        let Some(running) = self.stop(job, now, Phase::Draining) else {
            return Ok(now);
        };
        // Whole steps completed before the preemption hit (none if it hit
        // while the restore was still streaming in).
        let elapsed = now - running.compute_from;
        let ran = (elapsed / running.step_seconds).floor().max(0.0) as u64;
        let j = &mut self.jobs[job];
        let steps_done = j.steps_done.saturating_add(ran).min(j.spec.steps);
        let bundle = j.bundle_at(steps_done, &self.config)?;
        let pcie = self.pcie;
        let ctx = self.shape_ctx(running.slice.shape())?;
        let outcome = save_checkpoint(&mut ctx.net, &ctx.placement, &bundle, &pcie, now)?;
        let save_cost = outcome.finish - now;
        let j = &mut self.jobs[job];
        j.ckpt = Some(outcome.checkpoint);
        j.unpaired_save = Some(save_cost);
        self.preemptions += 1;
        self.save_seconds += save_cost;
        self.count("preemptions", 1);
        self.observe("preempt_save_seconds", save_cost);
        self.span(
            "job-preempt",
            running.started,
            outcome.finish,
            &[
                ("job", job as f64),
                ("steps_done", steps_done as f64),
                ("save_seconds", save_cost),
            ],
        );
        Ok(outcome.finish)
    }

    /// Restores `job` from `ckpt` onto a slice of `shape`, verifying the
    /// restored bundle is bit-identical to the saved state. Returns the
    /// restore's simulated cost in seconds.
    fn restore_job(
        &mut self,
        job: usize,
        ckpt: &Checkpoint,
        shape: (u32, u32),
        now: SimTime,
    ) -> Result<f64, SchedError> {
        let pcie = self.pcie;
        let ctx = self.shape_ctx(shape)?;
        let outcome = restore_checkpoint(&mut ctx.net, &ctx.placement, ckpt, &pcie, now)?;
        let cost = outcome.finish - now;
        let j = &mut self.jobs[job];
        let (lost_state, steps_done) = (j.lost_state, j.steps_done);
        let model = j.model(&self.config);
        // The PR 4 guarantee, enforced per event: restoring onto the new
        // slice must reproduce the saved state bit for bit. (After a fault
        // kill the in-memory state it would be compared with is gone.)
        if !lost_state && outcome.bundle != model.bundle(steps_done)? {
            return Err(SchedError::RestoreMismatch { job: job as u64 });
        }
        model.load(&outcome.bundle)?;
        j.steps_done = outcome.bundle.step;
        j.lost_state = false;
        self.restores += 1;
        self.restore_seconds += cost;
        self.count("restores", 1);
        self.observe("restore_seconds", cost);
        Ok(cost)
    }

    /// A chip dies at `now`: the allocator marks it dead and whatever
    /// held it loses the rest of its slice. A service is left displaced
    /// for the next scheduling round to re-place (preempting training work
    /// if the mesh is full); a job — running or draining — is killed back
    /// to its last checkpoint and requeued.
    fn handle_fault(&mut self, chip: ChipId, now: SimTime) {
        self.count("chip_faults", 1);
        let Some(owner) = self.allocator.mark_dead(chip) else {
            return;
        };
        self.free(owner);
        if owner >= SERVICE_ID_BASE {
            let svc = (owner - SERVICE_ID_BASE) as usize;
            self.services[svc].slice = None;
            self.count("service_faults", 1);
            self.span(
                "service-fault",
                now,
                now,
                &[("service", svc as f64), ("chip", chip.index() as f64)],
            );
            return;
        }
        let job = owner as usize;
        // In-flight progress since the last checkpoint is lost.
        if let Some(running) = self.stop(job, now, Phase::Queued { since: now }) {
            self.span(
                "job-fault-kill",
                running.started,
                now,
                &[("job", job as f64), ("chip", chip.index() as f64)],
            );
        }
        let j = &mut self.jobs[job];
        j.lost_state = true;
        // Roll the step counter back to the last durable state.
        j.steps_done = j.ckpt.as_ref().map_or(0, |c| c.manifest.step);
        enqueue(&mut self.pending, Waiting::of(&j.spec), &self.tenant_usage);
        self.fault_kills += 1;
        self.count("fault_kills", 1);
    }

    /// The containment invariants of [`Phase`], plus token uniqueness (no
    /// two running jobs wait on the same `Completion`), the allocator's
    /// counts and owner index against its cells, no model kept past
    /// `Done`, and every fact the rounds remember.
    #[cfg(debug_assertions)]
    fn consistent(&self) -> bool {
        let placed = |i: usize| self.services[i].slice.map(|_| SERVICE_ID_BASE + i as u64);
        let mut on_mesh: BTreeSet<u64> = (0..self.services.len()).filter_map(placed).collect();
        let (mut queued, mut tokens, mut running) =
            (BTreeSet::new(), BTreeSet::new(), BTreeSet::new());
        let mut ok = true;
        for (id, j) in self.jobs.iter().enumerate() {
            ok &= match &j.phase {
                Phase::Queued { .. } => queued.insert(id),
                Phase::Running(r) => {
                    running.insert((j.spec.priority, r.started, id));
                    on_mesh.insert(id as u64) && tokens.insert(r.token)
                }
                Phase::Draining => on_mesh.insert(id as u64),
                Phase::Done { .. } => j.model.is_none(),
            };
        }
        let owners: BTreeSet<u64> = (0..self.mesh_chips)
            .filter_map(|c| self.allocator.owner(ChipId(c)))
            .collect();
        let in_order = |a: &Waiting, b: &Waiting| queue_cmp(a, b, &self.tenant_usage).is_lt();
        let no_room = |chips| matches!(self.allocator.clone().allocate(0, chips), Ok(None));
        // The remembered claim fails even with every expendable job's cells freed.
        let no_victims = |(p, chips)| {
            let mut trial = self.allocator.clone();
            (self.running.iter().filter(|r| r.0 > p)).for_each(|r| _ = trial.free(r.2 as u64));
            matches!(trial.allocate(0, chips), Ok(None))
        };
        ok && owners == on_mesh
            && self.pending.is_sorted_by(in_order)
            && (0..32).all(|b| self.blocked >> b & 1 == 0 || no_room(1 << b))
            && self.no_victims.is_none_or(no_victims)
            && running == self.running
            && self.allocator.accounting_consistent()
            && self.pending.len() == queued.len()
            && self
                .pending
                .iter()
                .all(|w| queued.contains(&w.job) && *w == Waiting::of(&self.jobs[w.job].spec))
    }
}

/// Every queue wait of `jobs`, in table order then dispatch order.
fn queue_waits<'a>(jobs: impl Iterator<Item = &'a Job>) -> Vec<f64> {
    jobs.flat_map(|j| j.queue_waits.iter().copied()).collect()
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Counts `job`'s model builds and trained steps under test; otherwise nothing.
#[cfg(not(test))]
fn count_training(_job: u64, _models: u64, _steps: u64) {}

/// Logs a job's slice search `(chips, found)` or a free (`None`) under test.
#[cfg(not(test))]
fn log_alloc(_search: Option<(u32, bool)>) {}

#[cfg(test)]
thread_local! {
    static TRAINING: std::cell::RefCell<BTreeMap<u64, (u64, u64)>> =
        const { std::cell::RefCell::new(BTreeMap::new()) };
}

#[cfg(test)]
thread_local! {
    static ALLOC_LOG: std::cell::RefCell<Vec<Option<(u32, bool)>>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
fn log_alloc(search: Option<(u32, bool)>) {
    ALLOC_LOG.with(|log| log.borrow_mut().push(search));
}

#[cfg(test)]
fn count_training(job: u64, models: u64, steps: u64) {
    TRAINING.with(|t| {
        let mut t = t.borrow_mut();
        let (m, s) = t.entry(job).or_default();
        (*m, *s) = (*m + models, *s + steps);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::SimTime;
    use proptest::prelude::*;

    /// The queue order before `Waiting` carried its keys, kept as the
    /// oracle: specs read from the job table and usage looked up in a
    /// per-tenant map on every comparison.
    fn queue_order_by_table(pending: &mut [usize], specs: &[JobSpec], usage: &BTreeMap<u32, f64>) {
        let used = |spec: &JobSpec| usage.get(&spec.tenant).copied().unwrap_or(0.0);
        pending.sort_by(|&a, &b| {
            let (ja, jb) = (&specs[a], &specs[b]);
            ja.priority
                .cmp(&jb.priority)
                .then(used(ja).total_cmp(&used(jb)))
                .then(ja.arrival.cmp(&jb.arrival))
                .then(a.cmp(&b))
        });
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over random priorities, tenants, bills and arrivals, all with
        /// ties, and any subset of the jobs queued in any order, the keyed
        /// order equals the table order. Then the other jobs arrive by
        /// ordered insertion between random bills, unbilled tenants among
        /// the billed, and `bill` re-sorts only when a tenant comparison
        /// changes: after every step the queue is still in table order.
        #[test]
        fn keyed_queue_order_matches_the_table_order(
            jobs in proptest::collection::vec((0u8..4, 0u32..5, 0u32..4, 0u64..1000, proptest::bool::ANY), 0..40),
            bills in proptest::collection::vec(0usize..5, 0..5),
            steps in proptest::collection::vec((0usize..6, 0usize..5), 0..40),
        ) {
            const BILLS: [f64; 5] = [0.0, -0.0, 1.0, 2.5, 2.5];
            // Chip-seconds of a later bill; the last entry is an arrival.
            const LATER: [f64; 4] = [0.0, 0.5, 1.0, 2.5];
            let specs: Vec<JobSpec> = jobs
                .iter()
                .enumerate()
                .map(|(id, &(priority, tenant, arrival, _, _))| JobSpec {
                    id: id as u64,
                    kind: JobKind::Eval,
                    tenant,
                    priority,
                    chips: 2,
                    steps: 1,
                    arrival: SimTime::from_seconds(f64::from(arrival) * 0.5),
                })
                .collect();
            // Tenants past the end of `bills` were never billed.
            let mut usage: Vec<f64> = bills.iter().map(|&b| BILLS[b]).collect();
            let by_table = |queued: &[usize], usage: &[f64]| {
                let by_tenant: BTreeMap<u32, f64> =
                    usage.iter().enumerate().map(|(t, &u)| (t as u32, u)).collect();
                let mut queued = queued.to_vec();
                queue_order_by_table(&mut queued, &specs, &by_tenant);
                queued
            };
            let ids = |keyed: &[Waiting]| keyed.iter().map(|w| w.job).collect::<Vec<_>>();
            // A random subset, in an order set by a random key per job.
            let (mut queued, mut later): (Vec<usize>, Vec<usize>) =
                (0..specs.len()).partition(|&i| jobs[i].4);
            queued.sort_by_key(|&i| jobs[i].3);
            later.sort_by_key(|&i| jobs[i].3);
            let mut keyed: Vec<Waiting> = queued.iter().map(|&i| Waiting::of(&specs[i])).collect();
            keyed.sort_by(|a, b| queue_cmp(a, b, &usage));
            prop_assert_eq!(ids(&keyed), by_table(&queued, &usage));
            let mut later = later.into_iter();
            for (tenant, step) in steps {
                match LATER.get(step) {
                    Some(&chip_seconds) => {
                        if bill(&mut usage, tenant, chip_seconds) {
                            keyed.sort_unstable_by(|a, b| queue_cmp(a, b, &usage));
                        }
                    }
                    None => {
                        let Some(i) = later.next() else { continue };
                        enqueue(&mut keyed, Waiting::of(&specs[i]), &usage);
                        queued.push(i);
                    }
                }
                prop_assert_eq!(ids(&keyed), by_table(&queued, &usage));
            }
        }
    }

    #[test]
    fn a_saved_bundle_is_unchanged_by_later_steps() {
        let spec = arrival_stream(&ArrivalConfig::heavy(1, 5)).remove(0);
        let mut model = JobModel::fresh(&spec, 64, 0.05);
        let mut grad = Tensor::zeros(Shape::vector(64));
        model.advance(spec.id, 0, &mut grad).unwrap();
        let saved = model.bundle(1).unwrap();
        let bits = |b: &StateBundle| -> Vec<u32> {
            let tensors = std::iter::once(&b.weights).chain(b.optim.iter().map(|(_, t)| t));
            tensors
                .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
                .collect()
        };
        let before = bits(&saved);
        model.advance(spec.id, 1, &mut grad).unwrap();
        assert_eq!(
            bits(&saved),
            before,
            "the step wrote through a shared buffer"
        );
        assert_ne!(bits(&model.bundle(2).unwrap()), before);
    }

    fn small_config(jobs: u32, seed: u64) -> SchedConfig {
        SchedConfig {
            mesh: MultipodConfig::mesh(16, 8, true),
            arrivals: ArrivalConfig {
                jobs,
                seed,
                mean_interarrival_seconds: 0.01,
                tenants: 4,
            },
            services: Vec::new(),
            state_elems: 512,
            lr: 0.05,
        }
    }

    /// Shrinks the canned stream's slice sizes to the test mesh.
    fn shrunk_stream_config(jobs: u32, seed: u64) -> SchedConfig {
        let mut c = small_config(jobs, seed);
        c.arrivals.mean_interarrival_seconds = 0.005;
        c
    }

    #[test]
    fn campaign_completes_every_job_that_fits() {
        // 16x8 = 128 chips; the heavy stream asks for up to 512-chip
        // BERT slices, which can never fit — those surface as typed
        // errors up front.
        let sched = PodScheduler::new(shrunk_stream_config(50, 3));
        match sched.run() {
            Err(SchedError::UnplaceableJob { chips, .. }) => assert!(chips > 128),
            other => panic!("expected UnplaceableJob, got {:?}", other.map(|r| r.jobs)),
        }
    }

    fn fitted_config(jobs: u32, seed: u64) -> SchedConfig {
        SchedConfig {
            mesh: MultipodConfig::mesh(32, 32, true),
            arrivals: ArrivalConfig {
                jobs,
                seed,
                mean_interarrival_seconds: 0.004,
                tenants: 4,
            },
            services: Vec::new(),
            state_elems: 512,
            lr: 0.05,
        }
    }

    #[test]
    fn campaign_runs_and_reports() {
        let sched = PodScheduler::new(fitted_config(60, 11));
        let report = sched.run().expect("campaign");
        assert_eq!(report.jobs, 60);
        assert_eq!(report.completed, 60, "all jobs fit a 1024-chip mesh");
        assert!(report.makespan_seconds > 0.0);
        assert!(report.mean_utilization > 0.0 && report.mean_utilization <= 1.0);
        assert!(report.restores_bit_identical);
        assert_eq!(
            report.queue_wait.count,
            60 + report.preemptions + report.fault_kills
        );
    }

    #[test]
    fn only_preempted_jobs_build_and_train_a_model() {
        use multipod_trace::{Recorder, TraceEvent};
        use std::sync::Arc;
        // The report, every job's `(models built, steps trained)`, and
        // every preempted job's last checkpoint step off its spans.
        let campaign = |config: SchedConfig| {
            let recorder = Recorder::shared();
            let mut sched = PodScheduler::new(config);
            sched.set_obs(Obs::new(Some(Arc::clone(&recorder) as _), None));
            TRAINING.with(|t| t.borrow_mut().clear());
            let report = sched.run().expect("campaign");
            let mut saved = BTreeMap::new();
            for event in recorder.events().iter() {
                let TraceEvent::Span(span) = event else {
                    continue;
                };
                let arg = |k: &str| {
                    span.args
                        .iter()
                        .find(|(key, _)| key == k)
                        .map(|a| a.1 as u64)
                };
                if span.name == "job-preempt" {
                    saved.insert(arg("job").unwrap(), arg("steps_done").unwrap());
                }
            }
            (report, TRAINING.with(|t| t.take()), saved)
        };
        let mut quiet = fitted_config(20, 11);
        quiet.arrivals.mean_interarrival_seconds = 10.0;
        let (report, trained, saved) = campaign(quiet);
        assert_eq!((report.completed, report.preemptions), (20, 0));
        assert!(trained.is_empty() && saved.is_empty(), "{trained:?}");

        let (report, trained, saved) = campaign(fitted_config(60, 11));
        assert_eq!(report.completed, 60);
        assert!(report.preemptions as usize >= saved.len() && !saved.is_empty());
        // One model per preempted job, trained from scratch to its last
        // checkpoint and not a step further.
        let want: BTreeMap<u64, (u64, u64)> =
            saved.iter().map(|(&job, &step)| (job, (1, step))).collect();
        assert_eq!(trained, want);
    }

    #[test]
    fn a_size_without_room_is_not_searched_again_before_a_free() {
        // Completions, preemptions, a service migration and a fault kill:
        // every kind of free.
        let config = with_service(fitted_config(60, 11), "dlrm-serve", 256);
        let plan = FaultPlan::new()
            .chip_down(SimTime::from_seconds(0.05), ChipId(0))
            .chip_down(SimTime::from_seconds(0.06), ChipId(33 * 16));
        ALLOC_LOG.with(|log| log.borrow_mut().clear());
        let report = PodScheduler::new(config).run_with_faults(&plan);
        assert!(report.is_ok_and(|r| r.preemptions > 0 && r.fault_kills > 0));
        // Sizes found without room since the last free.
        let (mut blocked, mut sizes) = (0u32, 0u32);
        let (mut frees, mut no_room) = (0, 0);
        for entry in ALLOC_LOG.with(|log| log.take()) {
            let Some((chips, found)) = entry else {
                (frees, blocked) = (frees + 1, 0);
                continue;
            };
            assert_eq!(
                blocked & chips,
                0,
                "{chips} chips searched again before a free"
            );
            sizes |= chips;
            if !found {
                (no_room, blocked) = (no_room + 1, blocked | chips);
            }
        }
        assert!(no_room > 0);
        assert!(
            no_room <= (frees + 1) * sizes.count_ones(),
            "{no_room} {frees} {sizes:b}"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let sched = PodScheduler::new(fitted_config(60, 11));
            sched.run().expect("campaign")
        };
        assert_eq!(run(), run());
    }

    fn with_service(mut c: SchedConfig, name: &str, chips: u32) -> SchedConfig {
        c.services.push(crate::ServiceSpec {
            name: name.to_string(),
            chips,
        });
        c
    }

    #[test]
    fn service_reservation_holds_chips_for_the_whole_campaign() {
        let config = with_service(fitted_config(60, 11), "dlrm-serve", 256);
        let sched = PodScheduler::new(config);
        let report = sched.run().expect("campaign");
        assert_eq!(report.services.len(), 1);
        let svc = &report.services[0];
        assert_eq!(svc.name, "dlrm-serve");
        assert_eq!(svc.chips, 256);
        assert_eq!(svc.shape.0 * svc.shape.1, 256, "service is resident");
        assert_eq!(svc.migrations, 0, "no faults, no migrations");
        // Training still completes around the reservation.
        assert_eq!(report.completed, 60);
        assert!(report.restores_bit_identical);
    }

    #[test]
    fn oversized_service_is_a_typed_error() {
        let config = with_service(fitted_config(10, 1), "too-big", 2048);
        let sched = PodScheduler::new(config);
        assert!(matches!(
            sched.run(),
            Err(SchedError::ServiceUnplaceable { chips: 2048, .. })
        ));
    }

    #[test]
    fn service_migrates_off_a_dead_chip() {
        // The service lands most-square-first at (0,0) as 16x16, so chip
        // (0,0) is inside its slice.
        let config = with_service(fitted_config(40, 5), "dlrm-serve", 256);
        let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.05), ChipId(0));
        let sched = PodScheduler::new(config);
        let report = sched.run_with_faults(&plan).expect("campaign");
        let svc = &report.services[0];
        assert_eq!(svc.migrations, 1, "the fault displaced the service once");
        assert_eq!(svc.shape.0 * svc.shape.1, 256, "re-placed at full size");
        assert!(report.restores_bit_identical);
    }

    #[test]
    fn campaign_with_service_is_deterministic() {
        let run = || {
            let config = with_service(fitted_config(60, 11), "dlrm-serve", 128);
            let sched = PodScheduler::new(config);
            sched.run().expect("campaign")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_plan_off_the_mesh_is_a_typed_error() {
        // 32x32 has chips 0..1024; the parent indexed the allocator's
        // cells with 5000 and panicked.
        let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.01), ChipId(5000));
        assert!(matches!(
            PodScheduler::new(fitted_config(10, 1)).run_with_faults(&plan),
            Err(SchedError::FaultOffMesh {
                chip: ChipId(5000),
                chips: 1024
            })
        ));
        // The last chip on the mesh is still a legal victim.
        let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.01), ChipId(1023));
        let report = PodScheduler::new(fitted_config(10, 1)).run_with_faults(&plan);
        assert_eq!(report.expect("campaign").completed, 10);
    }

    #[test]
    fn unusable_arrival_gap_is_a_typed_error() {
        for gap in [f64::NAN, f64::INFINITY, 0.0, -0.004] {
            let mut config = fitted_config(10, 1);
            config.arrivals.mean_interarrival_seconds = gap;
            match PodScheduler::new(config).run() {
                Err(SchedError::InvalidConfig { field, value }) => {
                    assert_eq!(field, "arrivals.mean_interarrival_seconds");
                    assert!(value.is_nan() == gap.is_nan() && (gap.is_nan() || value == gap));
                }
                other => panic!("gap {gap}: got {:?}", other.map(|r| r.jobs)),
            }
        }
    }

    #[test]
    fn chip_fault_kills_and_recovers_the_job() {
        let config = fitted_config(40, 5);
        let clean = PodScheduler::new(config.clone());
        let clean_report = clean.run().expect("clean campaign");
        let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.01), ChipId(33));
        let faulty = PodScheduler::new(config);
        let report = faulty.run_with_faults(&plan).expect("faulty campaign");
        assert_eq!(report.completed, clean_report.completed);
        assert!(report.restores_bit_identical);
        // The mesh shrank, so utilization accounting saw 1023 live chips
        // after the fault.
        assert!(report.makespan_seconds >= clean_report.makespan_seconds);
    }

    #[test]
    fn registry_counts_agree_with_the_report() {
        use multipod_telemetry::Telemetry;
        // One fault inside the service's slice (it migrates), one inside a
        // training slice (the job is killed back to its checkpoint), on a
        // stream busy enough to preempt.
        let config = with_service(fitted_config(60, 11), "dlrm-serve", 256);
        let plan = FaultPlan::new()
            .chip_down(SimTime::from_seconds(0.05), ChipId(0))
            .chip_down(SimTime::from_seconds(0.06), ChipId(33 * 16));
        let telemetry = Telemetry::shared();
        let mut sched = PodScheduler::new(config);
        sched.set_obs(Obs::new(None, Some(telemetry.clone())));
        let report = sched.run_with_faults(&plan).expect("campaign");
        assert!(report.preemptions > 0 && report.fault_kills > 0);
        assert_eq!(report.services[0].migrations, 1);

        let snap = telemetry.snapshot();
        let count = |name| snap.counter(&MetricId::new(Subsystem::Pod, name));
        let observed = |name| {
            snap.histogram(&MetricId::new(Subsystem::Pod, name))
                .map_or(0, |h| h.count)
        };
        assert_eq!(count("arrivals"), report.jobs);
        assert_eq!(count("jobs_completed"), report.completed);
        assert_eq!(count("preemptions"), report.preemptions);
        assert_eq!(count("fault_kills"), report.fault_kills);
        assert_eq!(count("restores"), report.restores);
        assert_eq!(count("chip_faults"), 2);
        assert_eq!(count("service_placements"), 1);
        assert_eq!(count("service_faults"), 1);
        assert_eq!(count("service_migrations"), 1);
        assert_eq!(observed("queue_wait_seconds"), report.queue_wait.count);
        assert_eq!(
            observed("preemption_overhead_seconds"),
            report.preemption_overhead.count
        );
        assert_eq!(observed("preempt_save_seconds"), report.preemptions);
        assert_eq!(observed("restore_seconds"), report.restores);
        assert_eq!(
            snap.gauge(&MetricId::new(Subsystem::Pod, "mean_utilization")),
            Some(report.mean_utilization)
        );
        // The preemption checkpoints ran on networks carrying the same
        // handle, so their traffic is metered too.
        assert_eq!(
            snap.counter(&MetricId::new(Subsystem::Ckpt, "restores")),
            report.restores
        );
    }
}
