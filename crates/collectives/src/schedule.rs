//! Pure ring-collective schedules.
//!
//! A [`Schedule`] is the communication pattern of a ring collective,
//! independent of payload contents: in each of its `n − 1` steps every
//! member sends one message to its downstream neighbour, and a reduce-scatter
//! and an all-gather differ only in which chunk a message carries. The
//! pattern is arithmetic in `(n, direction)`, so a schedule is a two-field
//! `Copy` value and nothing is stored per move. The numeric executor
//! ([`crate::ring`]) folds payload chunks along it and times its steps on
//! the network, [`crate::pipelined::all_reduce_time`] times the same steps
//! without a payload, and [`crate::twod::shard_index`] reads shard
//! ownership from it. Keeping the pattern in one place guarantees they all
//! model the same algorithm. The per-move expansion — which chunk each
//! member sends in each step — is walked only by the seed executor kept as
//! a test oracle, so it is compiled for tests only.

use std::num::NonZeroUsize;

use crate::ring::Direction;
use crate::CollectiveError;

/// The step-by-step pattern of a ring collective over `n` members.
///
/// In every step each member sends exactly one chunk to its ring
/// neighbour and receives exactly one from the other side; the chunk a
/// member sends is never the chunk it receives in the same step (for
/// `n ≥ 2`), so a step's moves can be applied in place, in any order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Schedule {
    n: NonZeroUsize,
    direction: Direction,
}

impl Schedule {
    /// The `n − 1`-step ring reduce-scatter or all-gather over `n`
    /// members. After a reduce-scatter, member `i` owns the fully reduced
    /// chunk [`Schedule::owned_chunk`]`(i)`; an all-gather expects member
    /// `i` to start with that chunk, and every member ends with all chunks.
    ///
    /// # Errors
    ///
    /// [`CollectiveError::EmptyRing`] when `n == 0`.
    pub(crate) fn new(n: usize, direction: Direction) -> Result<Schedule, CollectiveError> {
        let n = NonZeroUsize::new(n).ok_or(CollectiveError::EmptyRing)?;
        Ok(Schedule { n, direction })
    }

    /// Number of steps: `n - 1`.
    pub(crate) fn num_steps(self) -> usize {
        self.n.get() - 1
    }

    /// The chunk member `i` owns after a reduce-scatter (equivalently, must
    /// hold before an all-gather): the index of its downstream neighbour.
    pub(crate) fn owned_chunk(self, member: usize) -> usize {
        self.downstream(member % self.n)
    }

    /// Downstream neighbour of member `i < n`: where everything member `i`
    /// sends goes, in every step.
    pub(crate) fn downstream(self, i: usize) -> usize {
        let n = self.n.get();
        match self.direction {
            Direction::Forward => wrap(i + 1, n),
            Direction::Backward => wrap(i + n - 1, n),
        }
    }
}

/// `v mod n` for `v < 2n`, without a division.
fn wrap(v: usize, n: usize) -> usize {
    if v >= n {
        v - n
    } else {
        v
    }
}

/// One chunk transfer between ring members within a step.
#[cfg(test)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct ChunkMove {
    /// Sending member index.
    pub from: usize,
    /// Receiving member index.
    pub to: usize,
    /// Which of the `n` payload chunks moves.
    pub chunk: usize,
    /// `true` when the receiver accumulates (reduce-scatter) rather than
    /// stores (all-gather).
    pub reduce: bool,
}

#[cfg(test)]
impl Schedule {
    /// The moves of step `s` of a reduce-scatter (`reduce`) or an
    /// all-gather, one per member in sender order. All moves within a
    /// step are concurrent.
    pub(crate) fn step(self, s: usize, reduce: bool) -> impl Iterator<Item = ChunkMove> {
        let rotation = self.rotation(s);
        (0..self.n.get()).map(move |from| self.move_from(from, rotation, reduce))
    }

    /// How far step `s` has rotated the chunk indices, in `0..n`: a
    /// reduce-scatter sender `i` ships chunk `(i + rotation) mod n`.
    fn rotation(self, s: usize) -> usize {
        let s = s % self.n;
        match self.direction {
            Direction::Forward => wrap(self.n.get() - s, self.n.get()),
            Direction::Backward => s,
        }
    }

    /// A reduce-scatter sender ships the chunk its own index rotates to; an
    /// all-gather sender ships the one its *receiver's* index rotates to
    /// (at step 0 that is the sender's owned chunk).
    fn move_from(self, from: usize, rotation: usize, reduce: bool) -> ChunkMove {
        let to = self.downstream(from);
        let base = if reduce { from } else { to };
        ChunkMove {
            from,
            to,
            chunk: wrap(base + rotation, self.n.get()),
            reduce,
        }
    }

    /// The one move `member` sends in step `s` (element `member` of
    /// [`Schedule::step`]`(s, reduce)`).
    fn sent_by(self, member: usize, s: usize, reduce: bool) -> ChunkMove {
        self.move_from(member % self.n, self.rotation(s), reduce)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Replays a reduce-scatter schedule symbolically: each member starts
    /// with contribution sets {i} per chunk; at the end the owned chunk
    /// must contain all n contributions.
    fn verify_rs(n: usize, dir: Direction) {
        let sched = Schedule::new(n, dir).unwrap();
        // contrib[member][chunk] = set of source members already summed in.
        let mut contrib: Vec<Vec<Vec<bool>>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|_| {
                        let mut v = vec![false; n];
                        v[i] = true;
                        v
                    })
                    .collect()
            })
            .collect();
        for s in 0..sched.num_steps() {
            let snapshot = contrib.clone();
            for mv in sched.step(s, true) {
                assert!(mv.reduce);
                let incoming = snapshot[mv.from][mv.chunk].clone();
                for (dst, src) in contrib[mv.to][mv.chunk].iter_mut().zip(&incoming) {
                    *dst = *dst || *src;
                }
            }
        }
        for (i, member) in contrib.iter().enumerate() {
            let owned = sched.owned_chunk(i);
            assert!(
                member[owned].iter().all(|&b| b),
                "member {i} chunk {owned} incomplete for n={n} dir={dir:?}"
            );
        }
    }

    /// Replays an all-gather schedule symbolically: each member starts
    /// holding only its owned chunk; at the end it must hold all chunks.
    fn verify_ag(n: usize, dir: Direction) {
        let sched = Schedule::new(n, dir).unwrap();
        let mut has: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                let mut v = vec![false; n];
                v[sched.owned_chunk(i)] = true;
                v
            })
            .collect();
        for s in 0..sched.num_steps() {
            let snapshot = has.clone();
            for mv in sched.step(s, false) {
                assert!(!mv.reduce);
                assert!(
                    snapshot[mv.from][mv.chunk],
                    "member {} sends chunk {} it does not hold (n={n}, {dir:?})",
                    mv.from, mv.chunk
                );
                has[mv.to][mv.chunk] = true;
            }
        }
        for (i, v) in has.iter().enumerate() {
            assert!(v.iter().all(|&b| b), "member {i} missing chunks (n={n})");
        }
    }

    #[test]
    fn reduce_scatter_completes_for_many_sizes() {
        for n in 1..=9 {
            verify_rs(n, Direction::Forward);
            verify_rs(n, Direction::Backward);
        }
        verify_rs(32, Direction::Forward);
        verify_rs(32, Direction::Backward);
    }

    #[test]
    fn all_gather_completes_for_many_sizes() {
        for n in 1..=9 {
            verify_ag(n, Direction::Forward);
            verify_ag(n, Direction::Backward);
        }
        verify_ag(32, Direction::Forward);
    }

    #[test]
    fn step_counts_are_n_minus_one() {
        let steps = |s: Result<Schedule, CollectiveError>| s.unwrap().num_steps();
        assert_eq!(steps(Schedule::new(8, Direction::Forward)), 7);
        assert_eq!(steps(Schedule::new(8, Direction::Backward)), 7);
        assert_eq!(steps(Schedule::new(1, Direction::Forward)), 0);
    }

    #[test]
    fn empty_ring_is_a_typed_error_not_a_panic() {
        for dir in [Direction::Forward, Direction::Backward] {
            assert_eq!(Schedule::new(0, dir), Err(CollectiveError::EmptyRing));
        }
    }

    #[test]
    fn owned_chunks_are_a_permutation() {
        for dir in [Direction::Forward, Direction::Backward] {
            let sched = Schedule::new(8, dir).unwrap();
            let mut owned: Vec<usize> = (0..8).map(|i| sched.owned_chunk(i)).collect();
            owned.sort_unstable();
            assert_eq!(owned, (0..8).collect::<Vec<_>>());
        }
    }

    #[test]
    fn forward_and_backward_use_disjoint_directed_edges() {
        let f = Schedule::new(6, Direction::Forward).unwrap();
        let b = Schedule::new(6, Direction::Backward).unwrap();
        let fe: Vec<(usize, usize)> = f.step(0, true).map(|m| (m.from, m.to)).collect();
        for mv in b.step(0, true) {
            assert!(!fe.contains(&(mv.from, mv.to)));
        }
    }

    /// The stored step lists this type used to build, move for move: the
    /// seed's closed forms, kept here as the reference for the
    /// division-free arithmetic.
    #[test]
    fn steps_match_the_seed_closed_forms() {
        for n in 1..=9usize {
            for dir in [Direction::Forward, Direction::Backward] {
                let next = |i: usize| match dir {
                    Direction::Forward => (i + 1) % n,
                    Direction::Backward => (i + n - 1) % n,
                };
                let rs_chunk = |i: usize, s: usize| match dir {
                    Direction::Forward => (i + n - s % n) % n,
                    Direction::Backward => (i + s) % n,
                };
                let ag_chunk = |i: usize, s: usize| match dir {
                    Direction::Forward => (i + 1 + n - s % n) % n,
                    Direction::Backward => (i + n - 1 + s) % n,
                };
                let sched = Schedule::new(n, dir).unwrap();
                for s in 0..sched.num_steps() {
                    let want_rs: Vec<ChunkMove> = (0..n)
                        .map(|from| ChunkMove {
                            from,
                            to: next(from),
                            chunk: rs_chunk(from, s),
                            reduce: true,
                        })
                        .collect();
                    let want_ag: Vec<ChunkMove> = (0..n)
                        .map(|from| ChunkMove {
                            from,
                            to: next(from),
                            chunk: ag_chunk(from, s),
                            reduce: false,
                        })
                        .collect();
                    let rs: Vec<ChunkMove> = sched.step(s, true).collect();
                    let ag: Vec<ChunkMove> = sched.step(s, false).collect();
                    assert_eq!(rs, want_rs, "n={n} {dir:?}");
                    assert_eq!(ag, want_ag, "n={n} {dir:?}");
                    for i in 0..n {
                        assert_eq!(sched.sent_by(i, s, true), want_rs[i]);
                        assert_eq!(sched.sent_by(i, s, false), want_ag[i]);
                    }
                }
                for i in 0..n {
                    assert_eq!(sched.owned_chunk(i), next(i));
                }
            }
        }
    }

    /// What lets a step be applied in place: the chunk a member receives
    /// is never the chunk it sends in the same step, and every member
    /// receives exactly once.
    #[test]
    fn no_member_sends_the_chunk_it_receives() {
        for n in 2..=9usize {
            for dir in [Direction::Forward, Direction::Backward] {
                let sched = Schedule::new(n, dir).unwrap();
                for reduce in [true, false] {
                    for s in 0..sched.num_steps() {
                        let mut received = vec![0usize; n];
                        for mv in sched.step(s, reduce) {
                            assert_ne!(sched.sent_by(mv.to, s, reduce).chunk, mv.chunk);
                            received[mv.to] += 1;
                        }
                        assert!(received.iter().all(|&r| r == 1));
                    }
                }
            }
        }
    }
}
