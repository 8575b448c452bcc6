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
//! Every decision is deterministic, so a campaign re-run is byte-identical
//! — the property `repro sched --check-determinism` gates in CI.

use std::collections::BTreeMap;

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

/// Job ids at or above this value belong to service reservations, not
/// stream jobs (stream ids are dense from 0, far below this).
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

/// Events driving the scheduler's sim-time loop.
#[derive(Clone, Debug)]
enum Event {
    /// Job `index` of the stream arrives.
    Arrival(usize),
    /// A running job finished its remaining steps. Stale completions
    /// (after a preemption or fault kill) are filtered by `token`.
    Completion { job: u64, token: u64 },
    /// Preemption saves finished; the victims' slices free up.
    SliceFreed { victims: Vec<u64> },
    /// Chip-loss fault `index` of the plan fires.
    Fault(usize),
}

/// A job's mutable model state: the "real training" the checkpoint
/// protocol protects. Small on purpose — thousands of jobs run per
/// campaign — but advanced with genuine optimizer updates so state
/// divergence would be caught by the bit-identity check.
struct JobModel {
    weights: Tensor,
    opt: SgdMomentum,
}

impl JobModel {
    fn fresh(spec: &JobSpec, elems: usize, lr: f32) -> JobModel {
        // Deterministic per-job initialization.
        let data: Vec<f32> = (0..elems)
            .map(|i| {
                let h = spec
                    .id
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(i as u64)
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9);
                ((h >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            })
            .collect();
        JobModel {
            weights: Tensor::new(Shape::vector(elems), data),
            opt: SgdMomentum::new(lr, 0.9),
        }
    }

    /// One deterministic training step: the gradient is a pure function
    /// of the job id and step index.
    fn advance(&mut self, spec: &JobSpec, step: u64) -> Result<(), SchedError> {
        let g = spec
            .id
            .wrapping_mul(0x94d0_49bb_1331_11eb)
            .wrapping_add(step);
        let grad = Tensor::fill(
            self.weights.shape().clone(),
            ((g >> 40) as f32 / (1u64 << 24) as f32) - 0.5,
        );
        Ok(self.opt.step(0, &mut self.weights, &grad)?)
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

/// Runtime state of one job.
struct JobRun {
    spec: JobSpec,
    model: JobModel,
    steps_done: u64,
    /// Last checkpoint (from a preemption save), if any.
    ckpt: Option<Checkpoint>,
    /// When the job last entered the queue.
    enqueued_at: SimTime,
    /// Whether in-memory state was lost (fault kill) and the next
    /// dispatch must restart from the last checkpoint or from scratch.
    lost_state: bool,
    /// Set while a preemption save is streaming out of the slice.
    draining: bool,
    preemptions: u64,
    queue_waits: Vec<f64>,
    completed_at: Option<SimTime>,
}

/// Runtime state of one long-lived service reservation.
struct ServiceRun {
    spec: ServiceSpec,
    /// Current slice, or `None` while displaced by a fault and awaiting
    /// re-placement.
    slice: Option<Slice>,
    migrations: u64,
}

/// A dispatched job's slice occupancy.
struct Running {
    slice: Slice,
    started: SimTime,
    /// When the restore (if any) finished and stepping began.
    compute_from: SimTime,
    step_seconds: f64,
    token: u64,
}

/// Per-(shape, elems) checkpoint pricing context: a slice-shaped network
/// and placement, reused across every save/restore of that shape.
struct ShapeCtx {
    net: Network,
    placement: ShardPlacement,
}

/// The multi-tenant pod scheduler.
pub struct PodScheduler {
    config: SchedConfig,
    allocator: SliceAllocator,
    jobs: BTreeMap<u64, JobRun>,
    running: BTreeMap<u64, Running>,
    services: Vec<ServiceRun>,
    pending: Vec<u64>,
    tenant_usage: BTreeMap<u32, f64>,
    /// Memoized per-(kind chips) step seconds.
    step_cache: BTreeMap<(&'static str, u32), f64>,
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
    restores_identical: bool,
    save_seconds: f64,
    restore_seconds: f64,
    preempt_overheads: Vec<f64>,
    /// Per-job pending restore cost attributed on re-dispatch.
    pending_restore_overhead: BTreeMap<u64, f64>,
}

impl PodScheduler {
    /// Builds a scheduler over the configured mesh.
    pub fn new(config: SchedConfig) -> PodScheduler {
        let mesh = Multipod::new(config.mesh.clone());
        PodScheduler {
            allocator: SliceAllocator::new(&mesh),
            jobs: BTreeMap::new(),
            running: BTreeMap::new(),
            services: Vec::new(),
            pending: Vec::new(),
            tenant_usage: BTreeMap::new(),
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
            restores_identical: true,
            save_seconds: 0.0,
            restore_seconds: 0.0,
            preempt_overheads: Vec::new(),
            pending_restore_overhead: BTreeMap::new(),
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
        let key = (kind.label(), chips);
        if let Some(&s) = self.step_cache.get(&key) {
            return Ok(s);
        }
        let breakdown = step_breakdown(&kind.workload(), chips, &StepOptions::default())?;
        let s = breakdown.total();
        self.step_cache.insert(key, s);
        Ok(s)
    }

    fn shape_ctx(&mut self, shape: (u32, u32)) -> Result<&mut ShapeCtx, SchedError> {
        if !self.shape_cache.contains_key(&shape) {
            let mesh = Multipod::new(MultipodConfig::mesh(shape.0, shape.1, false));
            let placement = ShardPlacement::plan(&mesh, &[], self.config.state_elems)?;
            let mut net = Network::new(mesh, NetworkConfig::tpu_v3());
            net.set_obs(self.obs.clone());
            self.shape_cache.insert(shape, ShapeCtx { net, placement });
        }
        Ok(self.shape_cache.get_mut(&shape).expect("just inserted"))
    }

    /// Queue order: priority, then fair-share usage (lighter tenants
    /// first), then arrival, then id — a total order, so scheduling is
    /// deterministic.
    fn queue_order(&mut self) {
        let usage = &self.tenant_usage;
        let jobs = &self.jobs;
        self.pending.sort_by(|a, b| {
            let ja = &jobs[a];
            let jb = &jobs[b];
            let ua = usage.get(&ja.spec.tenant).copied().unwrap_or(0.0);
            let ub = usage.get(&jb.spec.tenant).copied().unwrap_or(0.0);
            ja.spec
                .priority
                .cmp(&jb.spec.priority)
                .then(ua.total_cmp(&ub))
                .then(ja.spec.arrival.cmp(&jb.spec.arrival))
                .then(a.cmp(b))
        });
    }

    /// Runs the campaign to completion.
    ///
    /// # Errors
    ///
    /// [`SchedError`] when a job can never fit the mesh, the checkpoint
    /// layer fails, or a restore is not bit-identical.
    pub fn run(&mut self) -> Result<SchedReport, SchedError> {
        let stream = arrival_stream(&self.config.arrivals);
        // Pre-validate every job's shape so impossible requests surface
        // as typed errors before the campaign starts.
        for spec in &stream {
            self.allocator.shapes_for(spec.id, spec.chips)?;
        }
        self.run_stream(stream, &FaultPlan::new())
    }

    /// Runs the campaign with a chip-loss fault plan (link faults and
    /// stragglers are ignored; the scheduler models whole-chip loss).
    ///
    /// # Errors
    ///
    /// As [`PodScheduler::run`].
    pub fn run_with_faults(&mut self, plan: &FaultPlan) -> Result<SchedReport, SchedError> {
        let stream = arrival_stream(&self.config.arrivals);
        for spec in &stream {
            self.allocator.shapes_for(spec.id, spec.chips)?;
        }
        self.run_stream(stream, plan)
    }

    fn run_stream(
        &mut self,
        stream: Vec<JobSpec>,
        faults: &FaultPlan,
    ) -> Result<SchedReport, SchedError> {
        // Service reservations claim their slices before the first job
        // arrives — they are the highest-priority tenants on the mesh.
        for (i, spec) in self.config.services.clone().into_iter().enumerate() {
            let id = SERVICE_ID_BASE + i as u64;
            let slice = self.allocator.allocate(id, spec.chips).map_err(|_| {
                SchedError::ServiceUnplaceable {
                    service: spec.name.clone(),
                    chips: spec.chips,
                }
            })?;
            let Some(slice) = slice else {
                return Err(SchedError::ServiceUnplaceable {
                    service: spec.name.clone(),
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

        let mut queue: EventQueue<Event> = EventQueue::new();
        for (i, spec) in stream.iter().enumerate() {
            queue.schedule(spec.arrival, Event::Arrival(i));
        }
        let fault_chips: Vec<(SimTime, ChipId)> = faults
            .events()
            .iter()
            .filter_map(|e| match e.action {
                FaultAction::ChipDown { chip } => Some((e.at, chip)),
                _ => None,
            })
            .collect();
        for (i, (at, _)) in fault_chips.iter().enumerate() {
            queue.schedule(*at, Event::Fault(i));
        }

        while let Some((now, event)) = queue.pop() {
            self.advance_clock(now);
            match event {
                Event::Arrival(i) => {
                    let spec = stream[i].clone();
                    self.count("arrivals", 1);
                    let id = spec.id;
                    let model = JobModel::fresh(&spec, self.config.state_elems, self.config.lr);
                    self.jobs.insert(
                        id,
                        JobRun {
                            spec,
                            model,
                            steps_done: 0,
                            ckpt: None,
                            enqueued_at: now,
                            lost_state: false,
                            draining: false,
                            preemptions: 0,
                            queue_waits: Vec::new(),
                            completed_at: None,
                        },
                    );
                    self.pending.push(id);
                    self.schedule_round(now, &mut queue)?;
                }
                Event::Completion { job, token } => {
                    let valid = self.running.get(&job).is_some_and(|r| r.token == token);
                    if !valid {
                        continue;
                    }
                    self.complete_job(job, now)?;
                    self.schedule_round(now, &mut queue)?;
                }
                Event::SliceFreed { victims } => {
                    for v in victims {
                        // A fault may have killed (and already freed) a
                        // draining victim; it could even be running again
                        // on a new slice by now. Only release slices of
                        // jobs still draining.
                        let Some(run) = self.jobs.get_mut(&v) else {
                            continue;
                        };
                        if !run.draining {
                            continue;
                        }
                        run.draining = false;
                        run.enqueued_at = now;
                        self.allocator.free(v);
                        self.pending.push(v);
                    }
                    self.schedule_round(now, &mut queue)?;
                }
                Event::Fault(i) => {
                    let (_, chip) = fault_chips[i];
                    self.handle_fault(chip, now)?;
                    self.schedule_round(now, &mut queue)?;
                }
            }
        }

        // Drain any jobs still draining at the end (their SliceFreed
        // event fired; pending jobs that never fit again simply report
        // as uncompleted).
        let end = self.clock;
        let completed: u64 = self
            .jobs
            .values()
            .filter(|j| j.completed_at.is_some())
            .count() as u64;
        let queue_wait = DistSummary::of(
            self.jobs
                .values()
                .flat_map(|j| j.queue_waits.clone())
                .collect(),
        );
        let preemption_overhead = DistSummary::of(self.preempt_overheads.clone());
        let mean_utilization = if self.live_area > 0.0 {
            self.busy_area / self.live_area
        } else {
            0.0
        };
        self.obs.gauge(
            MetricId::new(Subsystem::Pod, "mean_utilization"),
            mean_utilization,
        );

        let mut per_kind = Vec::new();
        for kind in [
            JobKind::Eval,
            JobKind::Bert,
            JobKind::Resnet50,
            JobKind::Dlrm,
        ] {
            let of_kind: Vec<&JobRun> =
                self.jobs.values().filter(|j| j.spec.kind == kind).collect();
            if of_kind.is_empty() {
                continue;
            }
            let waits: Vec<f64> = of_kind.iter().flat_map(|j| j.queue_waits.clone()).collect();
            let turnarounds: Vec<f64> = of_kind
                .iter()
                .filter_map(|j| j.completed_at.map(|c| c - j.spec.arrival))
                .collect();
            per_kind.push(KindStats {
                kind: kind.label().to_string(),
                jobs: of_kind.len() as u64,
                completed: of_kind.iter().filter(|j| j.completed_at.is_some()).count() as u64,
                mean_queue_wait_seconds: mean(&waits),
                mean_turnaround_seconds: mean(&turnarounds),
            });
        }

        Ok(SchedReport {
            jobs: self.jobs.len() as u64,
            completed,
            preemptions: self.preemptions,
            fault_kills: self.fault_kills,
            restores: self.restores,
            restores_bit_identical: self.restores_identical,
            makespan_seconds: end.seconds(),
            mean_utilization,
            queue_wait,
            preemption_overhead,
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
        })
    }

    /// One scheduling round: dispatch every pending job that fits (in
    /// queue order, smaller jobs backfilling behind blocked big ones),
    /// then consider one preemption for the highest-priority blocked job.
    fn schedule_round(
        &mut self,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), SchedError> {
        // Displaced services re-place before any job is considered: a
        // serving reservation outranks every job priority.
        for i in 0..self.services.len() {
            if self.services[i].slice.is_some() {
                continue;
            }
            let id = SERVICE_ID_BASE + i as u64;
            let chips = self.services[i].spec.chips;
            match self.allocator.allocate(id, chips)? {
                Some(slice) => {
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
                }
                None => self.try_preempt_for_service(i, now, queue)?,
            }
        }
        self.queue_order();
        let order: Vec<u64> = self.pending.clone();
        let mut blocked_shapes: Vec<u32> = Vec::new();
        let mut first_blocked: Option<u64> = None;
        for id in order {
            let run = &self.jobs[&id];
            if run.draining {
                continue;
            }
            let chips = run.spec.chips;
            if blocked_shapes.contains(&chips) {
                if first_blocked.is_none() {
                    first_blocked = Some(id);
                }
                continue;
            }
            match self.allocator.allocate(id, chips)? {
                Some(slice) => {
                    self.pending.retain(|&p| p != id);
                    self.dispatch(id, slice, now, queue)?;
                }
                None => {
                    blocked_shapes.push(chips);
                    if first_blocked.is_none() {
                        first_blocked = Some(id);
                    }
                }
            }
        }
        if let Some(id) = first_blocked {
            self.try_preempt_for(id, now, queue)?;
        }
        Ok(())
    }

    /// Dispatches `job` onto `slice`: restore its checkpoint if needed,
    /// then schedule its completion.
    fn dispatch(
        &mut self,
        job: u64,
        slice: Slice,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), SchedError> {
        let (kind, chips, enqueued_at, needs_restore, lost_state) = {
            let run = &self.jobs[&job];
            (
                run.spec.kind,
                run.spec.chips,
                run.enqueued_at,
                run.ckpt.is_some() && (run.preemptions > 0 || run.lost_state),
                run.lost_state,
            )
        };
        let wait = now - enqueued_at;
        self.observe("queue_wait_seconds", wait);
        self.span(
            "job-queued",
            enqueued_at,
            now,
            &[("job", job as f64), ("chips", f64::from(chips))],
        );

        let step_seconds = self.step_seconds(kind, chips)?;
        let mut compute_from = now;

        if needs_restore {
            let restore_cost = self.restore_job(job, slice.shape(), now)?;
            compute_from = now + restore_cost;
            // Preemption overhead per event: this restore plus the save
            // that evicted the job.
            if let Some(save_cost) = self.pending_restore_overhead.remove(&job) {
                let overhead = save_cost + restore_cost;
                self.preempt_overheads.push(overhead);
                self.observe("preemption_overhead_seconds", overhead);
            }
        } else if lost_state {
            // Fault-killed with no checkpoint: restart from scratch.
            let (spec, elems, lr) = {
                let run = &self.jobs[&job];
                (run.spec.clone(), self.config.state_elems, self.config.lr)
            };
            let run = self.jobs.get_mut(&job).expect("job exists");
            run.model = JobModel::fresh(&spec, elems, lr);
            run.steps_done = 0;
            run.lost_state = false;
        }

        let run = self.jobs.get_mut(&job).expect("job exists");
        run.queue_waits.push(wait);
        let remaining = run.spec.steps.saturating_sub(run.steps_done);
        self.next_token += 1;
        let token = self.next_token;
        let finish = compute_from + step_seconds * remaining as f64;
        self.running.insert(
            job,
            Running {
                slice,
                started: now,
                compute_from,
                step_seconds,
                token,
            },
        );
        queue.schedule(finish, Event::Completion { job, token });
        Ok(())
    }

    /// Completes `job` at `now`: advance its model through the steps it
    /// ran, bill its tenant, free the slice.
    fn complete_job(&mut self, job: u64, now: SimTime) -> Result<(), SchedError> {
        let running = self
            .running
            .remove(&job)
            .expect("completion for running job");
        let (spec, steps_from) = {
            let run = &self.jobs[&job];
            (run.spec.clone(), run.steps_done)
        };
        {
            let run = self.jobs.get_mut(&job).expect("job exists");
            for s in steps_from..spec.steps {
                run.model.advance(&spec, s)?;
            }
            run.steps_done = spec.steps;
            run.completed_at = Some(now);
        }
        *self.tenant_usage.entry(spec.tenant).or_insert(0.0) +=
            f64::from(spec.chips) * (now - running.started);
        self.allocator.free(job);
        self.count("jobs_completed", 1);
        self.span(
            "job-run",
            running.started,
            now,
            &[
                ("job", job as f64),
                ("chips", f64::from(spec.chips)),
                ("steps", spec.steps as f64),
            ],
        );
        Ok(())
    }

    /// Considers preempting lower-priority running jobs so the blocked
    /// `job` can fit. Victims checkpoint; their slices free when the
    /// slowest save completes.
    fn try_preempt_for(
        &mut self,
        job: u64,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), SchedError> {
        let (priority, chips) = {
            let run = &self.jobs[&job];
            (run.spec.priority, run.spec.chips)
        };
        // Victims: strictly lower-priority running jobs, cheapest
        // (latest-started, lowest-priority) first. Deterministic order.
        let mut candidates: Vec<u64> = self
            .running
            .keys()
            .copied()
            .filter(|id| self.jobs[id].spec.priority > priority)
            .collect();
        if candidates.is_empty() {
            return Ok(());
        }
        candidates.sort_by(|a, b| {
            let ja = &self.jobs[a];
            let jb = &self.jobs[b];
            jb.spec
                .priority
                .cmp(&ja.spec.priority)
                .then(self.running[b].started.cmp(&self.running[a].started))
                .then(b.cmp(a))
        });
        // Free victims hypothetically until the blocked job fits.
        let mut trial = self.allocator.clone();
        let mut victims = Vec::new();
        for v in candidates {
            trial.free(v);
            victims.push(v);
            if trial.allocate(job, chips)?.is_some() {
                // Enough space: preempt exactly this set.
                let mut latest = now;
                for &v in &victims {
                    let free_at = self.preempt(v, now)?;
                    latest = latest.max(free_at);
                }
                queue.schedule(latest, Event::SliceFreed { victims });
                return Ok(());
            }
        }
        Ok(())
    }

    /// Preempts running jobs so a displaced service can re-place. Every
    /// running job is a candidate (services outrank all priorities),
    /// cheapest victims first, exactly as [`PodScheduler::try_preempt_for`].
    fn try_preempt_for_service(
        &mut self,
        svc: usize,
        now: SimTime,
        queue: &mut EventQueue<Event>,
    ) -> Result<(), SchedError> {
        let id = SERVICE_ID_BASE + svc as u64;
        let chips = self.services[svc].spec.chips;
        let mut candidates: Vec<u64> = self.running.keys().copied().collect();
        candidates.sort_by(|a, b| {
            let ja = &self.jobs[a];
            let jb = &self.jobs[b];
            jb.spec
                .priority
                .cmp(&ja.spec.priority)
                .then(self.running[b].started.cmp(&self.running[a].started))
                .then(b.cmp(a))
        });
        let mut trial = self.allocator.clone();
        let mut victims = Vec::new();
        for v in candidates {
            trial.free(v);
            victims.push(v);
            if trial.allocate(id, chips)?.is_some() {
                let mut latest = now;
                for &v in &victims {
                    let free_at = self.preempt(v, now)?;
                    latest = latest.max(free_at);
                }
                queue.schedule(latest, Event::SliceFreed { victims });
                return Ok(());
            }
        }
        // Nothing (left) to preempt. Draining victims from an earlier
        // round will free space shortly; otherwise the mesh genuinely
        // cannot host the reservation any more.
        if self.jobs.values().any(|j| j.draining) {
            return Ok(());
        }
        Err(SchedError::ServiceUnplaceable {
            service: self.services[svc].spec.name.clone(),
            chips,
        })
    }

    /// Preempts running `job` at `now`: advance its model for the steps
    /// that completed, save a real sharded checkpoint on its slice, and
    /// mark it draining until the save finishes. Returns when its slice
    /// frees.
    fn preempt(&mut self, job: u64, now: SimTime) -> Result<SimTime, SchedError> {
        let running = self.running.remove(&job).expect("preempting a running job");
        let spec = self.jobs[&job].spec.clone();
        // Whole steps completed before the preemption hit.
        let ran = if now > running.compute_from {
            ((now - running.compute_from) / running.step_seconds).floor() as u64
        } else {
            0
        };
        let (bundle, steps_done) = {
            let run = self.jobs.get_mut(&job).expect("job exists");
            let target = (run.steps_done + ran).min(spec.steps);
            for s in run.steps_done..target {
                run.model.advance(&spec, s)?;
            }
            run.steps_done = target;
            (run.model.bundle(target)?, target)
        };
        let shape = running.slice.shape();
        let pcie = self.pcie;
        let ctx = self.shape_ctx(shape)?;
        let outcome = save_checkpoint(&mut ctx.net, &ctx.placement, &bundle, &pcie, now)?;
        let save_cost = outcome.finish - now;
        {
            let run = self.jobs.get_mut(&job).expect("job exists");
            run.ckpt = Some(outcome.checkpoint);
            run.draining = true;
            run.preemptions += 1;
        }
        *self.tenant_usage.entry(spec.tenant).or_insert(0.0) +=
            f64::from(spec.chips) * (now - running.started);
        self.preemptions += 1;
        self.save_seconds += save_cost;
        self.pending_restore_overhead.insert(job, save_cost);
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

    /// Restores `job`'s checkpoint onto a slice of `shape`, verifying the
    /// restored bundle is bit-identical to the saved state. Returns the
    /// restore's simulated cost in seconds.
    fn restore_job(
        &mut self,
        job: u64,
        shape: (u32, u32),
        now: SimTime,
    ) -> Result<f64, SchedError> {
        let ckpt = self.jobs[&job]
            .ckpt
            .clone()
            .expect("restore_job requires a checkpoint");
        let pcie = self.pcie;
        let ctx = self.shape_ctx(shape)?;
        let outcome = restore_checkpoint(&mut ctx.net, &ctx.placement, &ckpt, &pcie, now)?;
        let cost = outcome.finish - now;
        let run = self.jobs.get_mut(&job).expect("job exists");
        // The PR 4 guarantee, enforced per event: restoring onto the new
        // slice must reproduce the saved state bit for bit.
        let expected = run.model.bundle(run.steps_done)?;
        let identical = outcome.bundle == expected || run.lost_state;
        run.model.load(&outcome.bundle)?;
        run.steps_done = outcome.bundle.step;
        run.lost_state = false;
        if !identical {
            self.restores_identical = false;
            return Err(SchedError::RestoreMismatch { job });
        }
        self.restores += 1;
        self.restore_seconds += cost;
        self.count("restores", 1);
        self.observe("restore_seconds", cost);
        Ok(cost)
    }

    /// A chip dies at `now`: the allocator marks it dead; the occupying
    /// job (if any) is killed back to its last checkpoint and requeued.
    fn handle_fault(&mut self, chip: ChipId, now: SimTime) -> Result<(), SchedError> {
        let victim = self.allocator.mark_dead(chip);
        self.count("chip_faults", 1);
        let Some(job) = victim else {
            return Ok(());
        };
        if job >= SERVICE_ID_BASE {
            // A service lost a chip: release the rest of its slice and
            // mark it displaced; the next scheduling round re-places it
            // (preempting training work if the mesh is full).
            let svc = (job - SERVICE_ID_BASE) as usize;
            self.allocator.free(job);
            self.services[svc].slice = None;
            self.count("service_faults", 1);
            self.span(
                "service-fault",
                now,
                now,
                &[("service", svc as f64), ("chip", chip.index() as f64)],
            );
            return Ok(());
        }
        // In-flight progress since the last checkpoint is lost.
        if let Some(running) = self.running.remove(&job) {
            let spec = self.jobs[&job].spec.clone();
            *self.tenant_usage.entry(spec.tenant).or_insert(0.0) +=
                f64::from(spec.chips) * (now - running.started);
            self.span(
                "job-fault-kill",
                running.started,
                now,
                &[("job", job as f64), ("chip", chip.index() as f64)],
            );
        }
        self.allocator.free(job);
        let run = self.jobs.get_mut(&job).expect("job exists");
        if run.completed_at.is_some() {
            return Ok(());
        }
        run.lost_state = true;
        // Roll the step counter back to the last durable state.
        run.steps_done = run.ckpt.as_ref().map_or(0, |c| c.manifest.step);
        run.enqueued_at = now;
        run.draining = false;
        if !self.pending.contains(&job) {
            self.pending.push(job);
        }
        self.fault_kills += 1;
        self.count("fault_kills", 1);
        Ok(())
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipod_simnet::SimTime;

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
        let mut sched = PodScheduler::new(shrunk_stream_config(50, 3));
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
        let mut sched = PodScheduler::new(fitted_config(60, 11));
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
    fn campaign_is_deterministic() {
        let run = || {
            let mut sched = PodScheduler::new(fitted_config(60, 11));
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
        let mut sched = PodScheduler::new(config);
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
        let mut sched = PodScheduler::new(config);
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
        let mut sched = PodScheduler::new(config);
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
            let mut sched = PodScheduler::new(config);
            sched.run().expect("campaign")
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn chip_fault_kills_and_recovers_the_job() {
        let config = fitted_config(40, 5);
        let mut clean = PodScheduler::new(config.clone());
        let clean_report = clean.run().expect("clean campaign");
        let plan = FaultPlan::new().chip_down(SimTime::from_seconds(0.01), ChipId(33));
        let mut faulty = PodScheduler::new(config);
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
