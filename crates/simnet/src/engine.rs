//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is an ordered map from each pending instant to the FIFO
//! of events scheduled for it, plus one spare FIFO that the next new
//! instant takes over. It is the queue behind the simulator's hot loops
//! (task-graph scheduling, the pod scheduler, the serving tier, the
//! event replay of `tests/replay_golden.rs`). Its contract — earliest
//! time first, FIFO among ties whatever traffic surrounds them,
//! bit-stable across runs — is pinned against the seed `BinaryHeap`
//! queue, which survives as the oracle of this module's tests.

use std::collections::{BTreeMap, VecDeque};
use std::mem::take;

use crate::SimTime;

/// Lifetime statistics of an event queue, for telemetry export.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Total events ever scheduled.
    pub scheduled: u64,
    /// Total events popped.
    pub popped: u64,
    /// Deepest the queue ever got.
    pub max_depth: usize,
    /// Events currently pending.
    pub pending: usize,
}

/// A min-queue of timestamped events with FIFO tie-breaking.
///
/// Pending events are grouped by *exact* timestamp: one `VecDeque` per
/// distinct instant, the instants in a `BTreeMap`. Arrival order inside a
/// group is schedule order, so `push_back`/`pop_front` on the earliest
/// group is exactly (time, schedule order) — no per-event key, sort, sift
/// or scan. This is what makes lockstep collectives cheap: a step
/// completion there schedules thousands of events at the *identical*
/// instant (same bytes, same hops, no contention skew), so the map holds
/// a handful of keys and each event is one sequential push and pop.
///
/// A drained group's `VecDeque` becomes the one spare, the FIFO of the
/// next new instant: an instant costs no allocation once a buffer of its
/// size has grown, and the spare capacity is one instant's at most.
///
/// ```
/// use multipod_simnet::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_seconds(2.0), "late");
/// q.schedule(SimTime::from_seconds(1.0), "early");
/// assert_eq!(q.pop().unwrap().1, "early");
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    /// Invariant: no group is empty.
    groups: BTreeMap<SimTime, VecDeque<T>>,
    /// Invariant: empty; the buffer of the group that drained last.
    spare: VecDeque<T>,
    scheduled: u64,
    popped: u64,
    max_depth: usize,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> EventQueue<T> {
        EventQueue {
            groups: BTreeMap::new(),
            spare: VecDeque::new(),
            scheduled: 0,
            popped: 0,
            max_depth: 0,
        }
    }

    /// Schedules `payload` at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: T) {
        let spare = &mut self.spare;
        let group = self.groups.entry(time).or_insert_with(|| take(spare));
        group.push_back(payload);
        self.scheduled += 1;
        self.max_depth = self.max_depth.max(self.len());
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let mut first = self.groups.first_entry()?;
        let time = *first.key();
        // Groups are never empty, so this `?` never fires.
        let payload = first.get_mut().pop_front()?;
        if first.get().is_empty() {
            self.spare = first.remove();
        }
        self.popped += 1;
        Some((time, payload))
    }

    /// Moves every event scheduled for the earliest pending instant into
    /// `out` (cleared first, also when this returns `None`), in insertion
    /// order, and returns that instant. Schedulers use this to process all
    /// completions at a timestamp before dispatching new work, so the
    /// dispatch decision sees the full set of freed resources; one `out`
    /// serves a whole run.
    pub fn pop_batch(&mut self, out: &mut Vec<T>) -> Option<SimTime> {
        out.clear();
        let (time, mut group) = self.groups.pop_first()?;
        self.popped += group.len() as u64;
        out.extend(group.drain(..));
        self.spare = group;
        Some(time)
    }

    /// Lifetime scheduling statistics.
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.scheduled,
            popped: self.popped,
            max_depth: self.max_depth,
            pending: self.len(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        (self.scheduled - self.popped) as usize
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    #[derive(Debug, Clone)]
    struct Entry<T> {
        time: SimTime,
        seq: u64,
        payload: T,
    }

    impl<T> Entry<T> {
        /// The total-order key: earliest time first, FIFO among ties.
        fn key(&self) -> (SimTime, u64) {
            (self.time, self.seq)
        }
    }

    impl<T> PartialEq for Entry<T> {
        fn eq(&self, other: &Self) -> bool {
            self.key() == other.key()
        }
    }
    impl<T> Eq for Entry<T> {}
    impl<T> PartialOrd for Entry<T> {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<T> Ord for Entry<T> {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.key().cmp(&other.key())
        }
    }

    /// The seed binary-heap event queue — a min-heap with a monotonic
    /// sequence number breaking same-instant ties FIFO — kept as the
    /// observational reference [`EventQueue`] must match pop for pop.
    struct HeapEventQueue<T> {
        heap: BinaryHeap<Reverse<Entry<T>>>,
        seq: u64,
        popped: u64,
        max_depth: usize,
    }

    impl<T> HeapEventQueue<T> {
        fn new() -> HeapEventQueue<T> {
            HeapEventQueue {
                heap: BinaryHeap::new(),
                seq: 0,
                popped: 0,
                max_depth: 0,
            }
        }

        fn schedule(&mut self, time: SimTime, payload: T) {
            let entry = Entry {
                time,
                seq: self.seq,
                payload,
            };
            self.seq += 1;
            self.heap.push(Reverse(entry));
            self.max_depth = self.max_depth.max(self.heap.len());
        }

        fn pop(&mut self) -> Option<(SimTime, T)> {
            let popped = self.heap.pop().map(|Reverse(e)| (e.time, e.payload));
            if popped.is_some() {
                self.popped += 1;
            }
            popped
        }

        /// Pops the heap while the head's time equals the first pop's.
        fn pop_batch(&mut self) -> Option<(SimTime, Vec<T>)> {
            let (time, first) = self.pop()?;
            let mut batch = vec![first];
            while self.heap.peek().is_some_and(|Reverse(e)| e.time == time) {
                batch.extend(self.pop().map(|(_, payload)| payload));
            }
            Some((time, batch))
        }

        fn stats(&self) -> QueueStats {
            QueueStats {
                scheduled: self.seq,
                popped: self.popped,
                max_depth: self.max_depth,
                pending: self.heap.len(),
            }
        }
    }

    /// The queue's batch and the instant it drained, as the oracle's
    /// `pop_batch` returns them.
    fn pop_batch<T>(q: &mut EventQueue<T>) -> Option<(SimTime, Vec<T>)> {
        let mut out = Vec::new();
        q.pop_batch(&mut out).map(|time| (time, out))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The grouped map is observationally equivalent to the
        /// binary-heap reference: identical `pop` and `pop_batch` results
        /// (times and payloads, FIFO ties included) and identical stats
        /// under arbitrary interleaved traffic — spread over up to 2000
        /// instants at any timescale, or piled lockstep-deep on eight.
        #[test]
        fn event_queue_matches_heap_reference(
            (ops, scale) in prop_oneof![
                (
                    prop::collection::vec((0u32..2000, 0u8..3), 1..120),
                    prop::sample::select(vec![1e-9f64, 1e-6, 1e-3, 0.5]),
                ),
                (prop::collection::vec((0u32..8, 0u8..3), 1..120), Just(1.0f64)),
            ],
        ) {
            let mut q = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            for (i, &(t, after)) in ops.iter().enumerate() {
                let time = SimTime::from_seconds(t as f64 * scale);
                q.schedule(time, i);
                heap.schedule(time, i);
                match after {
                    1 => prop_assert_eq!(q.pop(), heap.pop()),
                    2 => prop_assert_eq!(pop_batch(&mut q), heap.pop_batch()),
                    _ => {}
                }
                prop_assert_eq!(q.len(), heap.heap.len());
            }
            while let Some(expected) = heap.pop() {
                prop_assert_eq!(q.pop(), Some(expected));
            }
            prop_assert_eq!(q.pop(), None);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.stats(), heap.stats());
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_seconds(3.0), 'c');
        q.schedule(SimTime::from_seconds(1.0), 'a');
        q.schedule(SimTime::from_seconds(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_seconds(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// Regression pin for the event-ordering determinism bug: same-time
    /// events must pop FIFO (by schedule order) no matter what other
    /// traffic surrounds them or how the internal groups/heap were
    /// shaped by insertion history.
    #[test]
    fn colliding_events_pop_fifo_under_shuffled_surrounding_traffic() {
        // Four events collide at t=5; decoy events at other instants are
        // interleaved differently in every scenario.
        let collide = SimTime::from_seconds(5.0);
        let decoys: Vec<f64> = vec![9.0, 1.0, 5.5, 0.25, 7.0, 4.75, 6.0, 2.0];
        // Deterministic shuffles: rotations and a reversal of the decoy
        // insertion positions.
        let scenarios: Vec<Vec<usize>> = (0..decoys.len())
            .map(|r| (0..decoys.len()).map(|i| (i + r) % decoys.len()).collect())
            .chain(std::iter::once((0..decoys.len()).rev().collect()))
            .collect();
        let mut reference: Option<Vec<(u64, i64)>> = None;
        for order in &scenarios {
            let mut q: EventQueue<i64> = EventQueue::new();
            let mut h: HeapEventQueue<i64> = HeapEventQueue::new();
            // Interleave: decoy, then one collider, decoy, collider, ...
            let mut collider = 0i64;
            for (k, &d) in order.iter().enumerate() {
                let t = SimTime::from_seconds(decoys[d]);
                q.schedule(t, 100 + d as i64);
                h.schedule(t, 100 + d as i64);
                if k % 2 == 0 && collider < 4 {
                    q.schedule(collide, collider);
                    h.schedule(collide, collider);
                    collider += 1;
                }
            }
            let drained: Vec<(u64, i64)> =
                std::iter::from_fn(|| q.pop().map(|(t, p)| (t.seconds().to_bits(), p))).collect();
            let heap_drained: Vec<(u64, i64)> =
                std::iter::from_fn(|| h.pop().map(|(t, p)| (t.seconds().to_bits(), p))).collect();
            assert_eq!(drained, heap_drained, "queue and heap must agree");
            // The colliding block pops as 0,1,2,3 in every scenario.
            let block: Vec<i64> = drained
                .iter()
                .filter(|&&(t, _)| t == collide.seconds().to_bits())
                .map(|&(_, p)| p)
                .collect();
            assert_eq!(block, vec![0, 1, 2, 3]);
            // Final state identical across scenarios: same multiset of
            // (time, payload) pops in the same total order for the
            // colliding block, same stats.
            assert_eq!(q.len(), 0);
            assert_eq!(q.stats().popped, drained.len() as u64);
            match &reference {
                None => reference = Some(block.iter().map(|&p| (0, p)).collect()),
                Some(r) => assert_eq!(r, &block.iter().map(|&p| (0, p)).collect::<Vec<_>>()),
            }
        }
    }

    #[test]
    fn stats_track_depth_and_throughput() {
        let mut q = EventQueue::new();
        for i in 0..4 {
            q.schedule(SimTime::from_seconds(i as f64), i);
        }
        q.pop();
        q.schedule(SimTime::from_seconds(9.0), 99);
        let stats = q.stats();
        assert_eq!(stats.scheduled, 5);
        assert_eq!(stats.popped, 1);
        assert_eq!(stats.max_depth, 4);
        assert_eq!(stats.pending, 4);
    }

    #[test]
    fn pop_batch_drains_one_instant_in_fifo_order() {
        let mut q = EventQueue::new();
        let t1 = SimTime::from_seconds(1.0);
        q.schedule(SimTime::from_seconds(2.0), "later");
        q.schedule(t1, "a");
        q.schedule(t1, "b");
        let mut batch = vec!["stale"];
        assert_eq!(q.pop_batch(&mut batch), Some(t1));
        assert_eq!(batch, vec!["a", "b"]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_batch(&mut batch), Some(SimTime::from_seconds(2.0)));
        assert_eq!(batch, vec!["later"]);
        assert_eq!(q.pop_batch(&mut batch), None);
        assert!(batch.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_seconds(2.0), "b");
        q.schedule(SimTime::from_seconds(4.0), "d");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule(SimTime::from_seconds(1.0), "a");
        q.schedule(SimTime::from_seconds(3.0), "c");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }

    #[test]
    fn adaptive_resize_survives_dense_and_sparse_schedules() {
        // Dense: thousands of events piled on seven instants.
        let mut q = EventQueue::new();
        for i in 0..4096u64 {
            q.schedule(SimTime::from_seconds(1e-9 * (i % 7) as f64), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            count += 1;
        }
        assert_eq!(count, 4096);
        // Sparse: every event its own instant, scheduled latest first.
        let mut q = EventQueue::new();
        for i in (0..64u64).rev() {
            q.schedule(SimTime::from_seconds(i as f64), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_equal_times_fall_back_to_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::ZERO, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// `-0.0` and `0.0` are one instant (`SimTime::from_seconds`
    /// canonicalises the sign), so they share a group and keep FIFO order.
    #[test]
    fn negative_and_positive_zero_drain_as_one_fifo_batch() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_seconds(-0.0), 'a');
        q.schedule(SimTime::from_seconds(0.0), 'b');
        q.schedule(SimTime::from_seconds(-0.0), 'c');
        assert_eq!(
            pop_batch(&mut q),
            Some((SimTime::ZERO, vec!['a', 'b', 'c']))
        );
        assert!(q.is_empty());
    }

    #[test]
    fn heap_queue_matches_calendar_queue_on_interleaved_traffic() {
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
        let times = [3.0, 1.0, 1.0, 2.0, 0.5, 3.0, 1.0, 0.5];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_seconds(t), i);
            heap.schedule(SimTime::from_seconds(t), i);
            if i % 3 == 2 {
                assert_eq!(q.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (q.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(q.stats(), heap.stats());
    }
}
