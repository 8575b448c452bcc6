//! The dependency-graph builder.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

use multipod_simnet::SimTime;

use crate::task::{Resource, Task, TaskId, TaskKind};

/// Error raised while building a [`TaskGraph`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum TaskGraphError {
    /// A dependency referenced a task that has not been added yet (tasks
    /// may only depend on earlier tasks, which is what makes the graph a
    /// DAG by construction).
    UnknownDependency {
        /// Index the offending task would have received.
        task: usize,
        /// The dependency that does not precede it.
        dep: TaskId,
    },
    /// A task duration was NaN, infinite, or negative.
    InvalidDuration {
        /// Index the offending task would have received.
        task: usize,
        /// The rejected duration.
        seconds: f64,
    },
}

impl fmt::Display for TaskGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskGraphError::UnknownDependency { task, dep } => {
                write!(f, "task {task} depends on not-yet-added task {dep:?}")
            }
            TaskGraphError::InvalidDuration { task, seconds } => {
                write!(f, "task {task} has invalid duration {seconds}s")
            }
        }
    }
}

impl Error for TaskGraphError {}

/// A DAG of typed tasks, built in topological order. Every dependency
/// list lives in one arena, `deps`; a task holds the range of its own.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TaskGraph {
    pub(crate) tasks: Vec<Task>,
    pub(crate) deps: Vec<TaskId>,
}

impl TaskGraph {
    /// An empty graph.
    pub fn new() -> TaskGraph {
        TaskGraph::default()
    }

    /// Adds a task that starts once every task in `deps` has finished.
    ///
    /// # Errors
    ///
    /// Returns [`TaskGraphError::UnknownDependency`] when a dependency id
    /// does not precede the new task, and
    /// [`TaskGraphError::InvalidDuration`] for a NaN/infinite/negative
    /// duration — the guards that keep the scheduler's sim-time arithmetic
    /// total.
    pub fn add(
        &mut self,
        kind: TaskKind,
        resource: Resource,
        seconds: f64,
        deps: &[TaskId],
    ) -> Result<TaskId, TaskGraphError> {
        self.add_released(kind, resource, seconds, SimTime::ZERO, deps)
    }

    /// Adds a task that starts once every task in `deps` has finished
    /// **and** sim-time has reached `release`.
    ///
    /// Open-loop serving workloads use releases to pin each request
    /// batch's work to its arrival time: the batch cannot start before
    /// its accumulation window closes even if the mesh is idle.
    /// ([`SimTime`] construction already rejects NaN/infinite/negative
    /// values, so no release-specific validation is needed here.)
    ///
    /// # Errors
    ///
    /// Everything [`TaskGraph::add`] raises.
    pub fn add_released(
        &mut self,
        kind: TaskKind,
        resource: Resource,
        seconds: f64,
        release: SimTime,
        deps: &[TaskId],
    ) -> Result<TaskId, TaskGraphError> {
        let task = self.tasks.len();
        if !(seconds.is_finite() && seconds >= 0.0) {
            return Err(TaskGraphError::InvalidDuration { task, seconds });
        }
        if let Some(&dep) = deps.iter().find(|d| d.0 >= task) {
            return Err(TaskGraphError::UnknownDependency { task, dep });
        }
        let start = self.deps.len();
        self.deps.extend_from_slice(deps);
        self.tasks.push(Task {
            kind,
            resource,
            seconds,
            release,
            deps: start..self.deps.len(),
        });
        Ok(TaskId(task))
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The tasks that must finish before `id` starts, in the order they
    /// were given to [`TaskGraph::add`]; empty for an id not in the graph.
    pub fn deps(&self, id: TaskId) -> &[TaskId] {
        self.tasks
            .get(id.0)
            .map_or(&[], |t| &self.deps[t.deps.clone()])
    }

    /// All tasks in id order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_dependencies_are_rejected() {
        let mut g = TaskGraph::new();
        let err = g
            .add(TaskKind::Forward, Resource::Mxu, 1.0, &[TaskId(0)])
            .unwrap_err();
        assert_eq!(
            err,
            TaskGraphError::UnknownDependency {
                task: 0,
                dep: TaskId(0)
            }
        );
    }

    #[test]
    fn nan_and_negative_durations_are_rejected() {
        let mut g = TaskGraph::new();
        for bad in [f64::NAN, f64::INFINITY, -1.0e-9] {
            let err = g
                .add(TaskKind::Forward, Resource::Mxu, bad, &[])
                .unwrap_err();
            assert!(matches!(
                err,
                TaskGraphError::InvalidDuration { task: 0, .. }
            ));
        }
        assert!(g.is_empty());
    }

    #[test]
    fn valid_chains_build() {
        let mut g = TaskGraph::new();
        let a = g.add(TaskKind::Forward, Resource::Mxu, 1.0, &[]).unwrap();
        let b = g
            .add(
                TaskKind::LayerBackprop { layer: 0 },
                Resource::Mxu,
                2.0,
                &[a],
            )
            .unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.deps(a), []);
        assert_eq!(g.deps(b), [a]);
        assert_eq!(g.deps(TaskId(2)), []);
    }
}
