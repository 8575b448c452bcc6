//! A deterministic discrete-event queue.
//!
//! [`EventQueue`] is a **calendar queue**: events hash into time buckets of
//! a fixed width, so schedule/pop are O(1) amortized instead of the
//! `O(log n)` sift of a binary heap. It is the queue behind the
//! simulator's hot loops (task-graph scheduling, the input pipeline, the
//! event replay of `tests/replay_golden.rs`). Its contract — earliest time
//! first, FIFO among ties, bit-stable across runs — is pinned against the
//! seed `BinaryHeap` queue, which survives as the oracle of this module's
//! tests.
//!
//! Determinism matters more than raw speed: two events scheduled for the
//! same instant pop in insertion order (a monotonic sequence number breaks
//! ties), so simulation results are bit-stable regardless of how the
//! events were bucketed by earlier traffic.

use std::collections::VecDeque;

use crate::SimTime;

/// Default bucket width, seconds. Sized to the α timescale of the TPU-v3
/// interconnect (microsecond-class hop latencies): completions separated
/// by at least one hop land in distinct buckets, so a bucket holds only
/// genuinely colliding events.
const DEFAULT_BUCKET_WIDTH: f64 = 1.0e-6;

/// Initial number of buckets; grows/shrinks with queue depth.
const MIN_BUCKETS: usize = 16;

/// A pop that finds this many *distinct instants* sharing one bucket
/// means the width is stale for the current event spacing (inserts then
/// pay a per-push group shuffle); an adaptive queue re-derives the width
/// from the pending events, rate-limited so the rebuild itself stays
/// amortized O(1). Same-instant ties never count toward crowding — they
/// collapse into one FIFO group no matter how many there are.
const CROWDED_BUCKET: usize = 16;

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

/// A calendar bucket: pending events grouped by *exact* timestamp, with
/// groups sorted ascending by time and each group a FIFO in insertion
/// (`seq`) order.
///
/// The sequence number increases monotonically across the whole queue, so
/// `push_back`/`pop_front` on a group is exactly `(time, seq)` order — no
/// sort, sift, or scan. This is what makes lockstep collectives cheap: a
/// step completion there schedules thousands of events at the *identical*
/// instant (same bytes, same hops, no contention skew), which no bucket
/// width can spread. Grouped, those ties cost O(1) per pop with purely
/// sequential memory traffic, where a per-bucket heap would pay an
/// O(log k) random-access sift and an unsorted bucket an O(k) min-scan.
#[derive(Debug, Clone)]
struct Bucket<T> {
    groups: Vec<(SimTime, VecDeque<Entry<T>>)>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket { groups: Vec::new() }
    }
}

impl<T> Bucket<T> {
    fn push(&mut self, e: Entry<T>) {
        let time = e.time;
        match self.groups.binary_search_by(|g| g.0.cmp(&time)) {
            Ok(i) => self.groups[i].1.push_back(e),
            Err(i) => self.groups.insert(i, (time, VecDeque::from([e]))),
        }
    }

    /// The minimum-key entry: front of the earliest time group.
    fn peek(&self) -> Option<&Entry<T>> {
        self.groups.first().and_then(|(_, g)| g.front())
    }

    fn pop(&mut self) -> Option<Entry<T>> {
        let (_, group) = self.groups.first_mut()?;
        let e = group.pop_front()?;
        if group.is_empty() {
            self.groups.remove(0);
        }
        Some(e)
    }

    /// Removes and returns the entire earliest time group.
    fn pop_group(&mut self) -> Option<(SimTime, VecDeque<Entry<T>>)> {
        if self.groups.is_empty() {
            return None;
        }
        Some(self.groups.remove(0))
    }

    /// Distinct instants in this bucket — the crowding metric for width
    /// adaptation (ties are free; too many separate times are not).
    fn group_count(&self) -> usize {
        self.groups.len()
    }

    /// Drains every entry; groups come out in time order and each group
    /// in `seq` order, so re-pushing in iteration order preserves FIFO.
    fn take_entries(&mut self) -> impl Iterator<Item = Entry<T>> + '_ {
        self.groups.drain(..).flat_map(|(_, g)| g)
    }
}

/// A calendar-queue (bucketed) min-queue of timestamped events with FIFO
/// tie-breaking.
///
/// Events land in the bucket `floor(time / width) mod num_buckets`; the
/// pop cursor walks epochs in order, so a pop inspects only the handful
/// of events that collide in the current time bucket instead of sifting a
/// global heap. Within a bucket, events are grouped by exact timestamp
/// (see [`Bucket`]), so locating the next event is a peek and removing it
/// is an O(1) `pop_front` — even when thousands of lockstep completions
/// tie at one instant. Bucket count adapts to queue depth; the width
/// defaults to the interconnect hop-latency timescale and can be pinned
/// with [`EventQueue::with_bucket_width`].
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
    buckets: Vec<Bucket<T>>,
    /// Bucket width in seconds; strictly positive and finite.
    width: f64,
    /// `1.0 / width`, cached so the per-event epoch computation is a
    /// multiply instead of a divide. Any fixed positive factor yields a
    /// monotone epoch map, so pop order does not depend on rounding here.
    inv_width: f64,
    /// The epoch (`floor(time / width)`) the pop cursor is at. Invariant:
    /// no pending event has an epoch below the cursor.
    cursor: u64,
    /// Pending events.
    len: usize,
    /// `true` when the caller pinned the width; adaptive resizing then
    /// only changes the bucket count.
    fixed_width: bool,
    seq: u64,
    popped: u64,
    max_depth: usize,
    /// `popped` at the last crowd-triggered width re-derivation; gates
    /// the rebuild rate.
    last_adapt: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue with the default (hop-latency-scale) bucket width,
    /// adapted automatically as the observed event spacing drifts.
    pub fn new() -> EventQueue<T> {
        let mut q = EventQueue::with_bucket_width(DEFAULT_BUCKET_WIDTH);
        q.fixed_width = false;
        q
    }

    /// An empty queue with a pinned bucket width in seconds — size it to
    /// the timescale separating independent completions (e.g. the α of an
    /// α–β cost model). The width is clamped to a positive finite value.
    pub fn with_bucket_width(seconds: f64) -> EventQueue<T> {
        let width = if seconds.is_finite() && seconds > 0.0 {
            seconds
        } else {
            DEFAULT_BUCKET_WIDTH
        };
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Bucket::default()).collect(),
            width,
            inv_width: width.recip(),
            cursor: 0,
            len: 0,
            fixed_width: seconds.is_finite() && seconds > 0.0,
            seq: 0,
            popped: 0,
            max_depth: 0,
            last_adapt: 0,
        }
    }

    fn epoch_of(&self, time: SimTime) -> u64 {
        // Saturating f64→u64 cast: times far beyond width * u64::MAX all
        // collapse into the last epoch, where in-bucket (time, seq)
        // ordering still applies.
        (time.seconds() * self.inv_width) as u64
    }

    fn bucket_of_epoch(&self, epoch: u64) -> usize {
        (epoch % self.buckets.len() as u64) as usize
    }

    /// Schedules `payload` at `time`.
    pub fn schedule(&mut self, time: SimTime, payload: T) {
        if self.len >= self.buckets.len() * 2 {
            self.resize(self.buckets.len() * 2);
        }
        let entry = Entry {
            time,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        let epoch = self.epoch_of(time);
        if self.len == 0 || epoch < self.cursor {
            self.cursor = epoch;
        }
        let b = self.bucket_of_epoch(epoch);
        self.buckets[b].push(entry);
        self.len += 1;
        self.max_depth = self.max_depth.max(self.len);
    }

    /// Rebuilds the calendar with `num_buckets` buckets, re-deriving the
    /// width from the observed event spacing (unless pinned).
    fn resize(&mut self, num_buckets: usize) {
        let num_buckets = num_buckets.max(MIN_BUCKETS);
        let entries: Vec<Entry<T>> = self
            .buckets
            .iter_mut()
            .flat_map(Bucket::take_entries)
            .collect();
        if !self.fixed_width && self.len >= 2 {
            let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
            for e in &entries {
                lo = lo.min(e.time.seconds());
                hi = hi.max(e.time.seconds());
            }
            // Three average gaps per bucket keeps the walk short without
            // spraying one event per bucket; degenerate spans keep the
            // current width.
            let gap = 3.0 * (hi - lo) / self.len as f64;
            if gap.is_finite() && gap > 0.0 {
                self.width = gap;
                self.inv_width = gap.recip();
            }
        }
        self.buckets = (0..num_buckets).map(|_| Bucket::default()).collect();
        let mut min_epoch = u64::MAX;
        for e in &entries {
            min_epoch = min_epoch.min(self.epoch_of(e.time));
        }
        self.cursor = if entries.is_empty() { 0 } else { min_epoch };
        for e in entries {
            let b = self.bucket_of_epoch(self.epoch_of(e.time));
            self.buckets[b].push(e);
        }
    }

    /// Whether `bucket`'s minimum entry belongs to `epoch`.
    ///
    /// The bucket's peek is its minimum `(time, seq)` key, and epochs are
    /// monotone in time, so the peek also carries the bucket's minimum
    /// epoch: a mismatch means the bucket holds no event of `epoch` at all
    /// (only later calendar years aliasing onto the same slot).
    fn min_is_in_epoch(&self, bucket: usize, epoch: u64) -> bool {
        self.buckets[bucket]
            .peek()
            .is_some_and(|e| self.epoch_of(e.time) == epoch)
    }

    /// The smallest epoch among all pending events (queue must be
    /// non-empty); an O(buckets) peek sweep, used to leap over empty
    /// calendar years instead of walking them bucket by bucket.
    fn global_min_epoch(&self) -> u64 {
        let mut min = u64::MAX;
        for bucket in &self.buckets {
            if let Some(e) = bucket.peek() {
                min = min.min(self.epoch_of(e.time));
            }
        }
        min
    }

    /// Advances the cursor to the first epoch holding a pending event and
    /// returns that epoch's bucket; the bucket's heap peek is then the
    /// queue-wide minimum entry.
    fn advance_to_next(&mut self) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut scanned = 0usize;
        let mut rebuilt = false;
        loop {
            let b = self.bucket_of_epoch(self.cursor);
            if self.min_is_in_epoch(b, self.cursor) {
                return Some(b);
            }
            self.cursor = self.cursor.saturating_add(1);
            scanned += 1;
            if scanned >= self.buckets.len() {
                // A whole calendar year without a hit means the width no
                // longer matches the event spacing (e.g. it was derived
                // from an initial same-instant burst). Rebuild once,
                // re-deriving the width from the pending events; the walk
                // restarts at their minimum epoch, so the next iterations
                // find the event within a few buckets.
                if !self.fixed_width && !rebuilt {
                    self.resize(self.buckets.len());
                    rebuilt = true;
                    scanned = 0;
                    continue;
                }
                // Pinned (or degenerate) width: jump straight to the
                // earliest pending epoch. The entry achieving the global
                // minimum time lives in that epoch's own bucket, so its
                // peek is guaranteed to match.
                self.cursor = self.global_min_epoch();
                return Some(self.bucket_of_epoch(self.cursor));
            }
        }
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let b = self.advance_to_next()?;
        // `advance_to_next` returned a bucket whose peek is the queue-wide
        // minimum, so the bucket pop cannot come back empty.
        let e = self.buckets[b].pop()?;
        self.len -= 1;
        self.popped += 1;
        self.maybe_adapt(b);
        Some((e.time, e.payload))
    }

    /// Post-pop maintenance: shrinks the calendar when depth drops, and
    /// re-derives the width when the pop found bucket `b` crowded.
    ///
    /// Crowding means the width is stale for the current event spacing —
    /// e.g. it was derived while a same-instant burst pinned the span to
    /// zero, and live events with *distinct* times now pile into a few
    /// buckets, paying O(log k) heap sifts in the pile size instead of
    /// O(1). Resizing in place re-derives the width from the *pending*
    /// events (see [`EventQueue::resize`]), spreading them back out.
    /// Rebuilds are rate-limited to one per half-queue of pops so bursts
    /// that genuinely share an instant (which no width can spread) cost
    /// amortized O(1) rather than a rebuild per pop.
    fn maybe_adapt(&mut self, b: usize) {
        if self.buckets.len() > MIN_BUCKETS && self.len < self.buckets.len() / 4 {
            self.resize(self.buckets.len() / 2);
        } else if !self.fixed_width
            && self.buckets[b].group_count() >= CROWDED_BUCKET
            && self.popped.saturating_sub(self.last_adapt) >= (self.len as u64 / 2).max(64)
        {
            self.last_adapt = self.popped;
            self.resize(self.buckets.len());
        }
    }

    /// Lifetime scheduling statistics (`seq` doubles as the scheduled
    /// count — it increments once per schedule and never resets).
    pub fn stats(&self) -> QueueStats {
        QueueStats {
            scheduled: self.seq,
            popped: self.popped,
            max_depth: self.max_depth,
            pending: self.len,
        }
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        // Read-only version of the cursor walk (the cursor itself only
        // moves on pop).
        let mut epoch = self.cursor;
        let mut scanned = 0usize;
        loop {
            let b = self.bucket_of_epoch(epoch);
            if self.min_is_in_epoch(b, epoch) {
                return self.buckets[b].peek().map(|e| e.time);
            }
            epoch = epoch.saturating_add(1);
            scanned += 1;
            if scanned >= self.buckets.len() {
                let epoch = self.global_min_epoch();
                let b = self.bucket_of_epoch(epoch);
                return self.buckets[b].peek().map(|e| e.time);
            }
        }
    }

    /// Removes and returns every event scheduled for the earliest pending
    /// instant, in insertion order. Schedulers use this to process all
    /// completions at a timestamp before dispatching new work, so the
    /// dispatch decision sees the full set of freed resources.
    ///
    /// Equal times share an epoch, so the whole batch lives in one bucket
    /// as a single time group and drains in one `pop_group`, already in
    /// insertion order.
    pub fn pop_batch(&mut self) -> Option<(SimTime, Vec<T>)> {
        let b = self.advance_to_next()?;
        let (time, group) = self.buckets[b].pop_group()?;
        self.len -= group.len();
        self.popped += group.len() as u64;
        self.maybe_adapt(b);
        Some((time, group.into_iter().map(|e| e.payload).collect()))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

    /// The seed binary-heap event queue — a min-heap with the same
    /// monotonic sequence number breaking same-instant ties FIFO — kept as
    /// the observational reference [`EventQueue`] must match pop for pop.
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

        fn stats(&self) -> QueueStats {
            QueueStats {
                scheduled: self.seq,
                popped: self.popped,
                max_depth: self.max_depth,
                pending: self.heap.len(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The calendar queue is observationally equivalent to the
        /// binary-heap reference: identical pop sequences (times and
        /// payloads, FIFO ties included) under arbitrary interleaved
        /// schedule/pop traffic at any timescale — from sub-bucket-width
        /// spacings to multi-second gaps.
        #[test]
        fn calendar_queue_matches_heap_reference(
            ops in prop::collection::vec((0u32..2000, prop::bool::ANY), 1..120),
            scale in prop::sample::select(vec![1e-9f64, 1e-6, 1e-3, 0.5]),
        ) {
            let mut cal = EventQueue::new();
            let mut heap = HeapEventQueue::new();
            for (i, &(t, pop_after)) in ops.iter().enumerate() {
                let time = SimTime::from_seconds(t as f64 * scale);
                cal.schedule(time, i);
                heap.schedule(time, i);
                if pop_after {
                    prop_assert_eq!(cal.pop(), heap.pop());
                }
            }
            while let Some(expected) = heap.pop() {
                prop_assert_eq!(cal.pop(), Some(expected));
            }
            prop_assert_eq!(cal.pop(), None);
            prop_assert!(cal.is_empty());
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
    /// traffic surrounds them or how the internal buckets/heap were
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
            assert_eq!(drained, heap_drained, "calendar and heap must agree");
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
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_seconds(5.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_seconds(5.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
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
        let (time, batch) = q.pop_batch().unwrap();
        assert_eq!(time, t1);
        assert_eq!(batch, vec!["a", "b"]);
        assert_eq!(q.len(), 1);
        let (time, batch) = q.pop_batch().unwrap();
        assert_eq!(time, SimTime::from_seconds(2.0));
        assert_eq!(batch, vec!["later"]);
        assert!(q.pop_batch().is_none());
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
        // Dense: thousands of events inside one default bucket width.
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
        // Sparse: events separated by millions of bucket widths.
        let mut q = EventQueue::with_bucket_width(1e-9);
        for i in (0..64u64).rev() {
            q.schedule(SimTime::from_seconds(i as f64), i);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_and_equal_times_fall_back_to_fifo() {
        let mut q = EventQueue::with_bucket_width(0.0); // clamped to default
        for i in 0..100 {
            q.schedule(SimTime::ZERO, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn heap_queue_matches_calendar_queue_on_interleaved_traffic() {
        let mut cal: EventQueue<usize> = EventQueue::new();
        let mut heap: HeapEventQueue<usize> = HeapEventQueue::new();
        let times = [3.0, 1.0, 1.0, 2.0, 0.5, 3.0, 1.0, 0.5];
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(SimTime::from_seconds(t), i);
            heap.schedule(SimTime::from_seconds(t), i);
            if i % 3 == 2 {
                assert_eq!(cal.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.stats(), heap.stats());
    }
}
