//! Per-host embedding caches for the serving path.
//!
//! An online DLRM replica keeps the hottest rows of the partitioned
//! tables in host memory so that a skewed query stream mostly skips the
//! interconnect: a hit serves the row from the home chip's cache, a miss
//! pays the all-to-all to the owning chip and installs the row. The cache
//! is a true LRU (exact recency order), which gives it the inclusion
//! property — a larger cache's hit set contains a smaller cache's on the
//! same access sequence — so hit rate is monotone in capacity.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const NIL: usize = usize::MAX;

/// A multiply-rotate hasher for the `(table, row)` keys. They come from
/// the simulation's own seeded streams, never from outside the program,
/// so SipHash's resistance to crafted collisions buys nothing here.
#[derive(Clone, Copy, Debug, Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_usize(b as usize));
    }

    fn write_usize(&mut self, n: usize) {
        self.0 = (self.0.rotate_left(5) ^ n as u64).wrapping_mul(0x517C_C1B7_2722_0A95);
    }

    fn finish(&self) -> u64 {
        // A multiply mixes upwards only; the map indexes by the low bits.
        self.0.rotate_left(26)
    }
}

/// One arena slot of the recency list.
#[derive(Clone, Debug)]
struct Node {
    key: (usize, usize),
    prev: usize,
    next: usize,
}

/// An exact-LRU cache over `(table, row)` keys.
///
/// O(1) access and insert: a `HashMap` finds the arena slot, a doubly
/// linked list threaded through the arena keeps recency order.
#[derive(Clone, Debug, Default)]
pub struct LruCache {
    capacity: usize,
    map: HashMap<(usize, usize), usize, BuildHasherDefault<KeyHasher>>,
    nodes: Vec<Node>,
    /// Most recently used.
    head: usize,
    /// Least recently used (the eviction victim).
    tail: usize,
    hits: u64,
    misses: u64,
}

impl LruCache {
    /// A cache holding at most `capacity` rows. Zero capacity disables
    /// caching (every access misses and nothing is stored).
    pub fn new(capacity: usize) -> LruCache {
        let mut cache = LruCache::with_room(capacity, 0);
        cache.nodes.reserve_exact(capacity.min(1 << 20));
        cache
    }

    /// A cache of `capacity` rows whose map and arena are sized up front
    /// for `room` of them: while it holds no more, it allocates nothing.
    pub(crate) fn with_room(capacity: usize, room: usize) -> LruCache {
        let room = room.min(capacity);
        LruCache {
            capacity,
            map: HashMap::with_capacity_and_hasher(room, Default::default()),
            nodes: Vec::with_capacity(room),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Forgets every row, keeping the allocation and the hit/miss
    /// counters.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Rows currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no rows.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hits recorded so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses recorded so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Accesses `(table, row)`: returns `true` on a hit (and refreshes
    /// recency); on a miss installs the row, evicting the least recently
    /// used row if the cache is full.
    pub fn access(&mut self, table: usize, row: usize) -> bool {
        let key = (table, row);
        if let Some(&slot) = self.map.get(&key) {
            self.hits += 1;
            self.unlink(slot);
            self.push_front(slot);
            return true;
        }
        self.misses += 1;
        if self.capacity == 0 {
            return false;
        }
        let slot = if self.map.len() == self.capacity {
            // Evict the tail and reuse its slot.
            let victim = self.tail;
            self.map.remove(&self.nodes[victim].key);
            self.unlink(victim);
            self.nodes[victim].key = key;
            victim
        } else {
            self.nodes.push(Node {
                key,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.push_front(slot);
        self.map.insert(key, slot);
        false
    }

    fn unlink(&mut self, slot: usize) {
        let Node { prev, next, .. } = self.nodes[slot];
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.nodes[slot].prev = NIL;
        self.nodes[slot].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

/// One LRU per home chip: each serving host caches the remote rows its
/// own samples fetch.
#[derive(Clone, Debug)]
pub struct EmbeddingCache {
    per_chip: Vec<LruCache>,
}

impl EmbeddingCache {
    /// A cache of `rows_per_chip` rows on each of `chips` hosts.
    pub fn new(chips: usize, rows_per_chip: usize) -> EmbeddingCache {
        EmbeddingCache {
            per_chip: (0..chips).map(|_| LruCache::new(rows_per_chip)).collect(),
        }
    }

    /// Accesses `(table, row)` through chip `chip`'s cache.
    pub fn access(&mut self, chip: usize, table: usize, row: usize) -> bool {
        self.per_chip[chip].access(table, row)
    }

    /// Total hits across all chips.
    pub fn hits(&self) -> u64 {
        self.per_chip.iter().map(LruCache::hits).sum()
    }

    /// Total misses across all chips.
    pub fn misses(&self) -> u64 {
        self.per_chip.iter().map(LruCache::misses).sum()
    }

    /// Hit rate over every access so far (0 when nothing was accessed).
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits(), self.misses())
    }
}

/// `hits / (hits + misses)`, 0 when nothing was accessed.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Every cache outcome of a query stream, from
/// [`ShardedEmbedding::replay_caches`](crate::ShardedEmbedding::replay_caches):
/// one hit bit per `(sample, table)` position of the flattened stream.
#[derive(Clone, Debug)]
pub struct CacheReplay {
    tables: usize,
    bits: Vec<u64>,
}

impl CacheReplay {
    /// No hits yet over `samples × tables` positions.
    pub(crate) fn new(samples: usize, tables: usize) -> CacheReplay {
        CacheReplay {
            tables,
            bits: vec![0; (samples * tables).div_ceil(64)],
        }
    }

    /// Records the outcome of the probe at `(sample, table)`.
    pub(crate) fn record(&mut self, sample: usize, table: usize, hit: bool) {
        let at = sample * self.tables + table;
        self.bits[at / 64] |= u64::from(hit) << (at % 64);
    }

    /// Whether the remote row at `(sample, table)` — `sample` indexing the
    /// flattened stream — was served from its home host's cache. Local
    /// rows and positions outside the stream never hit.
    pub fn hit(&self, sample: usize, table: usize) -> bool {
        let at = sample * self.tables + table;
        table < self.tables
            && self
                .bits
                .get(at / 64)
                .is_some_and(|w| w >> (at % 64) & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn repeat_access_hits() {
        let mut c = LruCache::new(4);
        assert!(!c.access(0, 7));
        assert!(c.access(0, 7));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_removes_least_recently_used() {
        let mut c = LruCache::new(2);
        c.access(0, 1);
        c.access(0, 2);
        assert!(c.access(0, 1)); // refresh 1 → LRU is now 2
        c.access(0, 3); // evicts 2
        assert!(c.access(0, 1));
        assert!(c.access(0, 3));
        assert!(!c.access(0, 2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn zero_capacity_stores_nothing() {
        let mut c = LruCache::new(0);
        assert!(!c.access(0, 1));
        assert!(!c.access(0, 1));
        assert_eq!(c.len(), 0);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn clear_forgets_rows_but_keeps_counters() {
        let mut c = LruCache::new(2);
        c.access(0, 1);
        c.access(0, 2);
        assert!(c.access(0, 1));
        c.clear();
        assert!(c.is_empty());
        assert!(!c.access(0, 1), "a cleared cache holds nothing");
        c.access(0, 2);
        c.access(0, 3); // evicts 1: recency restarted at the clear
        assert!(!c.access(0, 1));
        assert_eq!((c.hits(), c.misses()), (1, 6));
    }

    #[test]
    fn tables_do_not_collide() {
        let mut c = LruCache::new(4);
        c.access(0, 5);
        assert!(!c.access(1, 5));
        assert!(c.access(0, 5));
        assert!(c.access(1, 5));
    }

    #[test]
    fn inclusion_makes_hit_rate_monotone_in_capacity() {
        let mut rng = SmallRng::seed_from_u64(11);
        let accesses: Vec<(usize, usize)> = (0..4000)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                (rng.gen_range(0..4usize), (1024.0 * u.powi(3)) as usize)
            })
            .collect();
        let mut prev = 0u64;
        for cap in [0usize, 16, 64, 256, 1024] {
            let mut c = LruCache::new(cap);
            for &(t, r) in &accesses {
                c.access(t, r);
            }
            assert!(
                c.hits() >= prev,
                "capacity {cap} regressed hits: {} < {prev}",
                c.hits()
            );
            prev = c.hits();
        }
        assert!(prev > 0, "largest cache should hit on a skewed stream");
    }

    #[test]
    fn per_chip_caches_are_independent() {
        let mut c = EmbeddingCache::new(2, 4);
        c.access(0, 0, 9);
        assert!(!c.access(1, 0, 9));
        assert!(c.access(0, 0, 9));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 2);
        assert!((c.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_cache_reports_zero_hit_rate() {
        let c = EmbeddingCache::new(4, 16);
        assert_eq!(c.hit_rate(), 0.0);
    }
}
