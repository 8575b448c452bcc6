//! The deterministic list scheduler.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use multipod_simnet::{EventQueue, SimTime};
use multipod_telemetry::{MetricId, Obs, Subsystem};
use multipod_trace::{SpanCategory, SpanEvent, Track};

use crate::graph::TaskGraph;
use crate::task::{Resource, TaskId, TaskKind};

/// One task's placement in simulated time.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScheduledTask {
    /// The task.
    pub id: TaskId,
    /// Its kind (copied out of the graph for reporting).
    pub kind: TaskKind,
    /// The resource it ran on.
    pub resource: Resource,
    /// Requested duration, seconds.
    pub seconds: f64,
    /// When it started.
    pub start: SimTime,
    /// When it finished (`start + seconds`).
    pub end: SimTime,
}

/// The executed schedule: every task placed, plus the makespan.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TaskSchedule {
    /// Placements in task-id order.
    pub tasks: Vec<ScheduledTask>,
    /// When the last task finished.
    pub makespan: SimTime,
}

impl TaskGraph {
    /// Executes the graph over the simnet event engine and returns the
    /// schedule.
    ///
    /// Each [`Resource`] runs one task at a time; among ready tasks on a
    /// resource the lowest id starts first, resources dispatch in
    /// [`Resource::ALL`] order, and completion ties pop FIFO — so the
    /// schedule is a pure function of the graph (the determinism
    /// contract in the crate docs).
    ///
    /// A task with a non-zero release time (see
    /// [`TaskGraph::add_released`](crate::TaskGraph::add_released)) joins
    /// its resource's ready set only once sim-time reaches the release:
    /// the event queue carries both completion events (for tasks that
    /// have started) and release events (for tasks whose dependencies
    /// are done but whose release lies in the future): an event is a
    /// completion exactly when its task is the one running on its
    /// resource.
    pub fn run(&self) -> TaskSchedule {
        let n = self.tasks.len();
        let mut remaining: Vec<usize> = self.tasks.iter().map(|t| t.deps.len()).collect();
        // Dependents in one compressed array: task `d`'s are
        // `dependents[first[d]..first[d + 1]]`, ascending. `first` is
        // counted, summed to range ends, and filled back to front.
        let mut first: Vec<usize> = vec![0; n + 1];
        for d in &self.deps {
            first[d.0] += 1;
        }
        let mut end = 0;
        for f in &mut first {
            end += *f;
            *f = end;
        }
        let mut dependents: Vec<usize> = vec![0; end];
        for (i, t) in self.tasks.iter().enumerate().rev() {
            for d in &self.deps[t.deps.clone()] {
                first[d.0] -= 1;
                dependents[first[d.0]] = i;
            }
        }

        // Min-heaps by id, so the lowest ready id starts first; slots are
        // in `Resource::ALL` order.
        let mut ready: [BinaryHeap<Reverse<usize>>; 4] = Default::default();
        let mut running: [Option<usize>; 4] = [None; 4];
        let mut starts: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut ends: Vec<SimTime> = vec![SimTime::ZERO; n];
        let mut queue: EventQueue<usize> = EventQueue::new();

        for (i, t) in self.tasks.iter().enumerate() {
            if t.deps.is_empty() {
                if t.release > SimTime::ZERO {
                    queue.schedule(t.release, i);
                } else {
                    ready[t.resource.index()].push(Reverse(i));
                }
            }
        }

        // Instants pop in time order, so the last one is the makespan.
        let mut now = SimTime::ZERO;
        let mut done: Vec<usize> = Vec::new();
        loop {
            for (slot, running) in running.iter_mut().enumerate() {
                if running.is_some() {
                    continue;
                }
                let Some(Reverse(next)) = ready[slot].pop() else {
                    continue;
                };
                starts[next] = now;
                ends[next] = now + self.tasks[next].seconds;
                *running = Some(next);
                queue.schedule(ends[next], next);
            }
            let Some(at) = queue.pop_batch(&mut done) else {
                break;
            };
            now = at;
            for &i in &done {
                let slot = self.tasks[i].resource.index();
                if running[slot] != Some(i) {
                    // Release event: dependencies were already satisfied,
                    // the task was only waiting for sim-time to reach its
                    // release. It now contends for its resource.
                    ready[slot].push(Reverse(i));
                    continue;
                }
                running[slot] = None;
                for &d in &dependents[first[i]..first[i + 1]] {
                    remaining[d] -= 1;
                    if remaining[d] == 0 {
                        let release = self.tasks[d].release;
                        if release > now {
                            queue.schedule(release, d);
                        } else {
                            ready[self.tasks[d].resource.index()].push(Reverse(d));
                        }
                    }
                }
            }
        }

        let tasks = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| ScheduledTask {
                id: TaskId(i),
                kind: t.kind,
                resource: t.resource,
                seconds: t.seconds,
                start: starts[i],
                end: ends[i],
            })
            .collect();
        TaskSchedule {
            tasks,
            makespan: now,
        }
    }
}

impl TaskSchedule {
    /// Total busy seconds of a resource: the left-fold sum, in task-id
    /// order, of the durations placed on it. Because a resource runs one
    /// task at a time, the makespan can never be (more than a rounding
    /// error) below any resource's busy time.
    pub fn busy_seconds(&self, resource: Resource) -> f64 {
        self.tasks
            .iter()
            .filter(|t| t.resource == resource)
            .fold(0.0, |acc, t| acc + t.seconds)
    }

    /// MXU busy seconds (the "compute" side of the overlap bound).
    pub fn compute_seconds(&self) -> f64 {
        self.busy_seconds(Resource::Mxu)
    }

    /// ICI busy seconds (the "comm" side of the overlap bound).
    pub fn comm_seconds(&self) -> f64 {
        self.busy_seconds(Resource::Ici)
    }

    /// Records the schedule on `obs` and returns `base + makespan` so
    /// successive steps can be laid out back to back. The sink gets every
    /// task as a span starting at `base` on the simulation track —
    /// concurrent tasks produce overlapping spans, which is exactly what
    /// the critical-path profiler's `overlap_fraction` measures; the
    /// registry gets a task counter, per-resource busy-time histograms and
    /// the makespan.
    pub fn record(&self, obs: &Obs, base: SimTime) -> SimTime {
        if let Some(sink) = obs.sink() {
            for t in self.tasks.iter().filter(|t| t.seconds > 0.0) {
                sink.record_span(SpanEvent::new(
                    Track::Sim,
                    span_category(t.kind),
                    t.kind.label(),
                    base + t.start.seconds(),
                    base + t.end.seconds(),
                ));
            }
        }
        if let Some(metrics) = obs.metrics() {
            metrics.inc_counter(
                MetricId::new(Subsystem::Sched, "tasks"),
                self.tasks.len() as u64,
            );
            for r in Resource::ALL {
                let busy = self.busy_seconds(r);
                if busy > 0.0 {
                    metrics.observe(
                        MetricId::labeled(Subsystem::Sched, "resource_busy_seconds", r.label()),
                        busy,
                    );
                }
            }
            metrics.observe(
                MetricId::new(Subsystem::Sched, "makespan_seconds"),
                self.makespan.seconds(),
            );
        }
        base + self.makespan.seconds()
    }
}

/// The trace category a task's span is filed under.
fn span_category(kind: TaskKind) -> SpanCategory {
    match kind {
        TaskKind::ReduceScatter { .. } | TaskKind::AllGather { .. } => {
            SpanCategory::CollectivePhase
        }
        TaskKind::OptimizerShardUpdate { .. } => SpanCategory::Optimizer,
        TaskKind::InputFetch => SpanCategory::Input,
        TaskKind::CheckpointSave { .. } => SpanCategory::Checkpoint,
        TaskKind::ServeLookup { .. }
        | TaskKind::ServeAllToAll { .. }
        | TaskKind::ServeDense { .. } => SpanCategory::Serve,
        TaskKind::Serial { phase } => match phase {
            crate::task::SerialPhase::GradientComm => SpanCategory::CollectivePhase,
            crate::task::SerialPhase::WeightUpdate => SpanCategory::Optimizer,
            crate::task::SerialPhase::InputStall => SpanCategory::Input,
            _ => SpanCategory::StepPhase,
        },
        _ => SpanCategory::StepPhase,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SerialPhase;

    #[test]
    fn independent_resources_overlap() {
        let mut g = TaskGraph::new();
        g.add(TaskKind::Forward, Resource::Mxu, 3.0, &[]).unwrap();
        g.add(TaskKind::InputFetch, Resource::Host, 2.0, &[])
            .unwrap();
        let s = g.run();
        assert_eq!(s.makespan, SimTime::from_seconds(3.0));
        assert_eq!(s.tasks[1].start, SimTime::ZERO);
    }

    #[test]
    fn same_resource_serializes_lowest_id_first() {
        let mut g = TaskGraph::new();
        g.add(TaskKind::reduce_scatter_y(0), Resource::Ici, 1.0, &[])
            .unwrap();
        g.add(TaskKind::reduce_scatter_y(1), Resource::Ici, 1.0, &[])
            .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[0].start, SimTime::ZERO);
        assert_eq!(s.tasks[1].start, SimTime::from_seconds(1.0));
        assert_eq!(s.makespan, SimTime::from_seconds(2.0));
        assert_eq!(s.comm_seconds(), 2.0);
    }

    #[test]
    fn dependencies_gate_start_times() {
        let mut g = TaskGraph::new();
        let fwd = g.add(TaskKind::Forward, Resource::Mxu, 2.0, &[]).unwrap();
        let bwd = g
            .add(
                TaskKind::LayerBackprop { layer: 0 },
                Resource::Mxu,
                1.0,
                &[fwd],
            )
            .unwrap();
        let rs = g
            .add(TaskKind::reduce_scatter_y(0), Resource::Ici, 4.0, &[bwd])
            .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[rs.0].start, SimTime::from_seconds(3.0));
        assert_eq!(s.makespan, SimTime::from_seconds(7.0));
    }

    #[test]
    fn serial_chain_folds_left_bit_for_bit() {
        // The overlap-disabled contract: a dependency chain accumulates
        // its makespan as the left fold of the durations.
        let durations = [0.1, 0.2, 0.3, 0.4, 0.05, 0.007];
        let mut g = TaskGraph::new();
        let mut prev: Option<TaskId> = None;
        for &d in &durations {
            let deps: Vec<TaskId> = prev.into_iter().collect();
            prev = Some(
                g.add(
                    TaskKind::Serial {
                        phase: SerialPhase::Compute,
                    },
                    Resource::Mxu,
                    d,
                    &deps,
                )
                .unwrap(),
            );
        }
        let expected = durations.iter().fold(0.0f64, |acc, &d| acc + d);
        let s = g.run();
        assert_eq!(s.makespan.seconds().to_bits(), expected.to_bits());
    }

    #[test]
    fn zero_duration_tasks_complete() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Forward, Resource::Mxu, 0.0, &[]).unwrap();
        let b = g
            .add(
                TaskKind::LayerBackprop { layer: 0 },
                Resource::Mxu,
                0.0,
                &[a],
            )
            .unwrap();
        g.add(TaskKind::reduce_scatter_y(0), Resource::Ici, 1.0, &[b])
            .unwrap();
        let s = g.run();
        assert_eq!(s.makespan, SimTime::from_seconds(1.0));
    }

    #[test]
    fn schedule_is_deterministic_across_runs() {
        let build = || {
            let mut g = TaskGraph::new();
            let fwd = g.add(TaskKind::Forward, Resource::Mxu, 0.31, &[]).unwrap();
            let mut grads = Vec::new();
            for b in 0..4u32 {
                let bwd = g
                    .add(
                        TaskKind::LayerBackprop { layer: b },
                        Resource::Mxu,
                        0.17,
                        &[fwd],
                    )
                    .unwrap();
                let rs = g
                    .add(TaskKind::reduce_scatter_y(b), Resource::Ici, 0.11, &[bwd])
                    .unwrap();
                grads.push(rs);
            }
            g.add(TaskKind::InputFetch, Resource::Host, 0.5, &[])
                .unwrap();
            g.run()
        };
        let a = serde_json::to_string(&build()).unwrap();
        let b = serde_json::to_string(&build()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn release_time_delays_start_on_idle_resource() {
        let mut g = TaskGraph::new();
        g.add_released(
            TaskKind::ServeLookup { batch: 0 },
            Resource::Host,
            0.5,
            SimTime::from_seconds(2.0),
            &[],
        )
        .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[0].start, SimTime::from_seconds(2.0));
        assert_eq!(s.makespan, SimTime::from_seconds(2.5));
    }

    #[test]
    fn release_after_deps_done_gates_start() {
        // Dependency finishes at t=1 but the dependent's release is t=3:
        // the dependent starts at its release, not at the dep completion.
        let mut g = TaskGraph::new();
        let a = g
            .add(TaskKind::ServeLookup { batch: 0 }, Resource::Host, 1.0, &[])
            .unwrap();
        let b = g
            .add_released(
                TaskKind::ServeAllToAll { batch: 0 },
                Resource::Ici,
                0.25,
                SimTime::from_seconds(3.0),
                &[a],
            )
            .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[b.0].start, SimTime::from_seconds(3.0));
        assert_eq!(s.makespan, SimTime::from_seconds(3.25));
    }

    #[test]
    fn release_before_deps_done_is_a_no_op() {
        // Release at t=0.5 but the dependency runs until t=2: the
        // dependency chain dominates and the release adds nothing.
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Forward, Resource::Mxu, 2.0, &[]).unwrap();
        let b = g
            .add_released(
                TaskKind::ServeDense { batch: 0 },
                Resource::Mxu,
                1.0,
                SimTime::from_seconds(0.5),
                &[a],
            )
            .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[b.0].start, SimTime::from_seconds(2.0));
        assert_eq!(s.makespan, SimTime::from_seconds(3.0));
    }

    #[test]
    fn released_tasks_queue_behind_running_work() {
        // A batch released at t=1 while the Ici resource is busy until
        // t=4 waits for the resource, not just the release.
        let mut g = TaskGraph::new();
        g.add(TaskKind::reduce_scatter_y(0), Resource::Ici, 4.0, &[])
            .unwrap();
        let b = g
            .add_released(
                TaskKind::ServeAllToAll { batch: 0 },
                Resource::Ici,
                0.5,
                SimTime::from_seconds(1.0),
                &[],
            )
            .unwrap();
        let s = g.run();
        assert_eq!(s.tasks[b.0].start, SimTime::from_seconds(4.0));
        assert_eq!(s.makespan, SimTime::from_seconds(4.5));
    }

    #[test]
    fn makespan_bounded_by_busy_sums() {
        let mut g = TaskGraph::new();
        let fwd = g.add(TaskKind::Forward, Resource::Mxu, 1.0, &[]).unwrap();
        let mut prev = fwd;
        for b in 0..3u32 {
            let bwd = g
                .add(
                    TaskKind::LayerBackprop { layer: b },
                    Resource::Mxu,
                    0.5,
                    &[prev],
                )
                .unwrap();
            g.add(TaskKind::reduce_scatter_y(b), Resource::Ici, 0.6, &[bwd])
                .unwrap();
            prev = bwd;
        }
        let s = g.run();
        let compute = s.compute_seconds();
        let comm = s.comm_seconds();
        let m = s.makespan.seconds();
        assert!(m >= compute.max(comm) - 1e-12);
        assert!(m <= compute + comm + 1e-12);
    }
}
