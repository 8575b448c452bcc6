//! `TaskGraph::run` against a naive list scheduler.
//!
//! The oracle below shares nothing with the scheduler but the graph and
//! `SimTime` arithmetic: no event queue, no ready sets, no dependents
//! index. It steps from instant to instant and, at each, rescans every
//! task (O(n) per decision, O(n²) per graph):
//!
//! 1. the next instant is the earliest end of a running task or release
//!    of a waiting task whose dependencies are done — possibly the
//!    current instant again, when a zero-duration task just started;
//! 2. every running task ending at that instant completes;
//! 3. each idle resource, in `Resource::ALL` order, starts the lowest-id
//!    task on it whose dependencies are done and whose release has come.
//!
//! Repeating the instant for zero-duration tasks is the scheduler's
//! contract, not an accident of its queue: work that completes at an
//! instant frees its dependents only after the resources have chosen at
//! that instant once.

use proptest::prelude::*;

use multipod_simnet::SimTime;
use multipod_taskgraph::{Resource, ScheduledTask, TaskGraph, TaskId, TaskKind, TaskSchedule};

fn naive_list_schedule(g: &TaskGraph) -> TaskSchedule {
    let tasks = g.tasks();
    let n = tasks.len();
    let mut started = vec![false; n];
    let mut done = vec![false; n];
    let mut starts = vec![SimTime::ZERO; n];
    let mut ends = vec![SimTime::ZERO; n];
    let mut running: [Option<usize>; 4] = [None; 4];
    let slot = |r: Resource| Resource::ALL.iter().position(|&x| x == r).unwrap();
    let deps_done = |done: &[bool], i: usize| g.deps(TaskId(i)).iter().all(|d| done[d.0]);

    let mut now = SimTime::ZERO;
    let mut makespan = SimTime::ZERO;
    loop {
        for r in Resource::ALL {
            if running[slot(r)].is_some() {
                continue;
            }
            let next = (0..n).find(|&i| {
                tasks[i].resource == r
                    && !started[i]
                    && tasks[i].release <= now
                    && deps_done(&done, i)
            });
            if let Some(i) = next {
                started[i] = true;
                starts[i] = now;
                ends[i] = now + tasks[i].seconds;
                running[slot(r)] = Some(i);
            }
        }
        let ending = running.iter().flatten().map(|&i| ends[i]);
        let releasing = (0..n)
            .filter(|&i| !started[i] && tasks[i].release > now && deps_done(&done, i))
            .map(|i| tasks[i].release);
        let Some(at) = ending.chain(releasing).min() else {
            break;
        };
        now = at;
        makespan = makespan.max(now);
        for r in &mut running {
            if r.is_some_and(|i| ends[i] == now) {
                done[r.take().unwrap()] = true;
            }
        }
    }

    TaskSchedule {
        tasks: tasks
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
            .collect(),
        makespan,
    }
}

/// One task to add: its resource, duration, release and dependencies
/// (indices reduced modulo the task's own id, so they always precede it).
type Spec = (usize, u8, u8, Vec<usize>);

fn build(specs: &[Spec]) -> TaskGraph {
    // Quarter-second durations and releases from a small range put many
    // completions and releases on the same instant, on different
    // resources; duration 0 is a zero-duration task.
    let mut g = TaskGraph::new();
    for (i, (resource, quarters, release, deps)) in specs.iter().enumerate() {
        let deps: Vec<TaskId> = if i == 0 {
            Vec::new()
        } else {
            deps.iter().map(|d| TaskId(d % i)).collect()
        };
        let release = if *release < 4 {
            SimTime::ZERO
        } else {
            SimTime::from_seconds(f64::from(*release) * 0.25)
        };
        g.add_released(
            TaskKind::LayerBackprop { layer: i as u32 },
            Resource::ALL[resource % 4],
            f64::from(*quarters) * 0.25,
            release,
            &deps,
        )
        .unwrap();
    }
    g
}

fn spec() -> impl Strategy<Value = Spec> {
    (
        0usize..4,
        0u8..5,
        0u8..16,
        prop::collection::vec(any::<usize>(), 0..4),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random DAGs with releases, zero-duration tasks, repeated
    /// dependencies and equal-instant completions on different resources
    /// schedule exactly as the naive list scheduler places them.
    #[test]
    fn run_equals_the_naive_list_scheduler(specs in prop::collection::vec(spec(), 0..40)) {
        let g = build(&specs);
        prop_assert_eq!(g.run(), naive_list_schedule(&g));
    }

    /// Durations that do not sum exactly in binary still agree: both
    /// sides add the same `f64`s to the same instants.
    #[test]
    fn inexact_durations_agree(
        specs in prop::collection::vec(spec(), 1..30),
        scale in 0.01f64..1.0,
    ) {
        let exact = build(&specs);
        let mut g = TaskGraph::new();
        for (i, t) in exact.tasks().iter().enumerate() {
            g.add_released(t.kind, t.resource, t.seconds * scale, t.release, exact.deps(TaskId(i)))
                .unwrap_or_else(|e| panic!("task {i}: {e}"));
        }
        prop_assert_eq!(g.run(), naive_list_schedule(&g));
    }
}

#[test]
fn zero_duration_work_frees_its_dependents_after_the_instant_chooses() {
    // At t = 0 the ICI runs task 0, which takes no time, and the MXU
    // chooses task 2, the only MXU task ready. Task 0's completion at
    // t = 0 readies task 1 only after that choice, so task 1 waits for
    // task 2 although its id is lower.
    let mut g = TaskGraph::new();
    let zero = g.add(TaskKind::Forward, Resource::Ici, 0.0, &[]).unwrap();
    let after_zero = g
        .add(TaskKind::Forward, Resource::Mxu, 1.0, &[zero])
        .unwrap();
    let free = g.add(TaskKind::Forward, Resource::Mxu, 1.0, &[]).unwrap();
    let s = g.run();
    assert_eq!(s.tasks[free.0].start, SimTime::ZERO);
    assert_eq!(s.tasks[after_zero.0].start, SimTime::from_seconds(1.0));
    assert_eq!(s, naive_list_schedule(&g));
}
