//! Property tests for the pod scheduler.
//!
//! Two invariants the whole design hangs on:
//!
//! * the slice allocator never double-books a chip and never hands out a
//!   dead one, no matter how arrivals, completions and faults interleave;
//! * preempting a job with a real checkpoint save and elastically
//!   restoring it — possibly onto a different slice shape — is
//!   bit-identical, end to end, for arbitrary campaigns;
//! * chip loss at any moment, beside a service reservation or not, leaves
//!   a campaign that still ends, deterministically, with every dispatch,
//!   restore and preemption-overhead sample accounted for.

use std::collections::BTreeMap;

use multipod_faults::FaultPlan;
use multipod_sched::{ArrivalConfig, PodScheduler, SchedConfig, ServiceSpec, SliceAllocator};
use multipod_simnet::SimTime;
use multipod_topology::{ChipId, Multipod, MultipodConfig};
use proptest::prelude::*;

/// One step of an interleaved campaign against the allocator.
#[derive(Clone, Debug)]
enum Op {
    /// A job arrives wanting `2^log_chips` chips.
    Arrive { log_chips: u32 },
    /// The `sel`-th live job (mod live count) takes a second slice of
    /// `2^log_chips` chips under the same owner id.
    Grow { sel: usize, log_chips: u32 },
    /// The `sel`-th live job (mod live count) completes.
    Complete { sel: usize },
    /// Chip `sel % num_chips` dies.
    Fault { sel: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..6).prop_map(|log_chips| Op::Arrive { log_chips }),
        (0usize..64, 1u32..4).prop_map(|(sel, log_chips)| Op::Grow { sel, log_chips }),
        (0usize..64).prop_map(|sel| Op::Complete { sel }),
        (0usize..256).prop_map(|sel| Op::Fault { sel }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Under any interleaving of arrivals, second slices, completions and
    /// chip faults, every allocated slice covers only chips the allocator
    /// still considers owned by that job, no chip is owned by two jobs, no
    /// allocation ever lands on a dead chip, and one free releases every
    /// slice its owner holds.
    #[test]
    fn allocator_never_double_books_or_uses_dead_chips(
        ops in proptest::collection::vec(op_strategy(), 1..120),
    ) {
        let mesh = Multipod::new(MultipodConfig::mesh(16, 8, true));
        let mut alloc = SliceAllocator::new(&mesh);
        let mut next_job = 0u64;
        // job -> chips of its slices
        let mut live: BTreeMap<u64, Vec<ChipId>> = BTreeMap::new();
        let mut dead: Vec<ChipId> = Vec::new();
        let num_chips = 16 * 8;

        for op in ops {
            match op {
                Op::Arrive { .. } | Op::Grow { .. } => {
                    let (job, log_chips) = match op {
                        Op::Grow { sel, log_chips } if !live.is_empty() => {
                            (*live.keys().nth(sel % live.len()).unwrap(), log_chips)
                        }
                        Op::Arrive { log_chips } => {
                            next_job += 1;
                            (next_job - 1, log_chips)
                        }
                        _ => continue,
                    };
                    let chips = 1u32 << log_chips;
                    if let Some(slice) = alloc.allocate(job, chips).unwrap() {
                        prop_assert_eq!(slice.chips(), chips);
                        let owned = alloc.slice_chips(&slice);
                        for &c in &owned {
                            // Never a dead chip.
                            prop_assert!(!dead.contains(&c),
                                "job {} allocated dead chip {:?}", job, c);
                            // Never a chip some live job already holds.
                            for (other, theirs) in &live {
                                prop_assert!(!theirs.contains(&c),
                                    "chip {:?} double-booked by {} and {}", c, other, job);
                            }
                            prop_assert_eq!(alloc.owner(c), Some(job));
                        }
                        live.entry(job).or_default().extend(owned);
                    }
                }
                Op::Complete { sel } => {
                    if live.is_empty() { continue; }
                    let job = *live.keys().nth(sel % live.len()).unwrap();
                    let owned = live.remove(&job).unwrap();
                    let released = alloc.free(job);
                    // Every non-dead chip of every slice comes back.
                    let expect = owned.iter().filter(|c| !dead.contains(c)).count() as u32;
                    prop_assert_eq!(released, expect);
                    prop_assert_eq!(alloc.free(job), 0, "a second free finds nothing");
                    for c in owned {
                        if !dead.contains(&c) {
                            prop_assert_eq!(alloc.owner(c), None);
                        }
                    }
                }
                Op::Fault { sel } => {
                    let chip = ChipId((sel % num_chips) as u32);
                    if dead.contains(&chip) { continue; }
                    let victim = alloc.mark_dead(chip);
                    dead.push(chip);
                    prop_assert!(alloc.is_dead(chip));
                    // The reported victim matches the model, and the
                    // killed job's remaining chips free up.
                    let expected = live.iter()
                        .find(|(_, chips)| chips.contains(&chip))
                        .map(|(j, _)| *j);
                    prop_assert_eq!(victim, expected);
                    if let Some(job) = victim {
                        live.remove(&job);
                        alloc.free(job);
                    }
                }
            }
            // Global accounting stays consistent.
            let owned_live: usize = live.values()
                .map(|chips| chips.iter().filter(|c| !dead.contains(c)).count())
                .sum();
            prop_assert_eq!(alloc.busy_chips() as usize, owned_live);
            prop_assert_eq!(alloc.live_chips() as usize, num_chips - dead.len());
        }
    }

    /// Whole campaigns — with preemption-heavy priority mixes — restore
    /// every preempted job bit-identically and deterministically: the
    /// same seed reproduces the exact report, and every elastic restore
    /// matches its save byte for byte (`restores_bit_identical`).
    #[test]
    fn preempt_restore_is_bit_identical_and_deterministic(
        seed in 0u64..1_000,
        jobs in 20u32..60,
    ) {
        let config = SchedConfig {
            mesh: MultipodConfig::mesh(32, 32, true),
            arrivals: ArrivalConfig {
                jobs,
                seed,
                // Heavy overload so big jobs block and preempt.
                mean_interarrival_seconds: 0.002,
                tenants: 4,
            },
            services: Vec::new(),
            state_elems: 256,
            lr: 0.05,
        };
        let run = || {
            let sched = PodScheduler::new(config.clone());
            sched.run().unwrap()
        };
        let a = run();
        prop_assert!(a.restores_bit_identical);
        prop_assert_eq!(a.completed, u64::from(jobs));
        // Preemption overhead is exactly the checkpoint traffic: the sum
        // over events never exceeds total save+restore time.
        prop_assert!(
            a.preemption_overhead.mean * a.preemption_overhead.count as f64
                <= a.save_seconds + a.restore_seconds + 1e-9
        );
        let b = run();
        prop_assert_eq!(a, b);
    }

    /// The same preemption-heavy campaigns under random chip loss (0–4
    /// on-mesh chips, dying inside the arrival window) and with or without
    /// a service reservation: the campaign always ends without an error,
    /// reruns byte-identically, and its counts stay within what the
    /// lifecycle allows — a job is dispatched at most once per arrival
    /// plus once per preemption or kill, restores only follow one of those,
    /// and an overhead sample needs the save of a preemption.
    #[test]
    fn campaigns_survive_random_chip_loss(
        seed in 0u64..1_000,
        jobs in 20u32..60,
        faults in proptest::collection::vec((0.0f64..1.0, 0u32..1024), 0..5),
        with_service in proptest::bool::ANY,
    ) {
        let mut config = SchedConfig {
            mesh: MultipodConfig::mesh(32, 32, true),
            arrivals: ArrivalConfig {
                jobs,
                seed,
                mean_interarrival_seconds: 0.002,
                tenants: 4,
            },
            services: Vec::new(),
            // A displaced service preempts even 512-chip slices, and a
            // save needs at least one element per chip.
            state_elems: 512,
            lr: 0.05,
        };
        if with_service {
            // 128 chips: four dead chips cannot poison all sixteen 16×8
            // and 8×16 anchors, so the reservation stays placeable.
            config.services.push(ServiceSpec { name: "serve".to_string(), chips: 128 });
        }
        let window = 0.002 * f64::from(jobs);
        let plan = faults.iter().fold(FaultPlan::new(), |plan, &(frac, chip)| {
            plan.chip_down(SimTime::from_seconds(frac * window), ChipId(chip))
        });
        let run = || PodScheduler::new(config.clone()).run_with_faults(&plan);
        let a = match run() {
            Ok(report) => report,
            Err(e) => return Err(TestCaseError::fail(format!("campaign failed: {e}"))),
        };
        let jobs = u64::from(jobs);
        prop_assert!(a.restores_bit_identical);
        prop_assert!(a.completed <= jobs && a.fault_kills <= faults.len() as u64);
        // (Dead chips can leave a 512-chip job with no slice that will
        // ever fit; it ends the campaign queued, never dispatched.)
        prop_assert!(a.completed <= a.queue_wait.count);
        prop_assert!(a.queue_wait.count <= jobs + a.preemptions + a.fault_kills);
        prop_assert!(a.restores <= a.preemptions + a.fault_kills);
        prop_assert!(a.preemption_overhead.count <= a.preemptions);
        prop_assert_eq!(Some(a), run().ok());
    }
}
