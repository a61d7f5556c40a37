//! Property-based tests (proptest) on the core invariants of DESIGN.md §5.

use proptest::prelude::*;
use sraps_data::packer::{pack_jobs, JobSpec};
use sraps_sched::backfill::{easy_admits, easy_reservation};
use sraps_sched::{
    BackfillKind, BuiltinScheduler, JobQueue, PolicyKind, QueuedJob, ResourceManager, RunningView,
    SchedContext, SchedulerBackend,
};
use sraps_types::{AccountId, Bitset, JobId, NodeSet, SimDuration, SimTime};

// ---------------------------------------------------------------- bitset

proptest! {
    #[test]
    fn bitset_set_clear_count_invariant(ops in prop::collection::vec((0usize..256, any::<bool>()), 1..200)) {
        let mut b = Bitset::new(256);
        let mut model = std::collections::HashSet::new();
        for (i, set) in ops {
            if set {
                b.set(i);
                model.insert(i);
            } else {
                b.clear(i);
                model.remove(&i);
            }
            prop_assert_eq!(b.count_ones(), model.len());
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        let mut expected: Vec<usize> = model.into_iter().collect();
        expected.sort_unstable();
        prop_assert_eq!(ones, expected);
    }
}

// ------------------------------------------------------ resource manager

proptest! {
    /// allocated + free + down == total after any operation sequence.
    #[test]
    fn rm_conservation(ops in prop::collection::vec(0u32..40, 1..60)) {
        let mut rm = ResourceManager::new(128);
        let mut held: Vec<NodeSet> = Vec::new();
        for op in ops {
            if op < 30 {
                // Try to allocate `op+1` nodes.
                if let Ok(set) = rm.allocate(op + 1) {
                    held.push(set);
                }
            } else if let Some(set) = if held.is_empty() { None } else { Some(held.remove(0)) } {
                rm.release(&set);
            }
            prop_assert_eq!(
                rm.free_count() + rm.busy_count() + rm.down_count(),
                rm.total_nodes()
            );
        }
    }

    /// No two live allocations ever share a node.
    #[test]
    fn rm_no_double_allocation(sizes in prop::collection::vec(1u32..20, 1..20)) {
        let mut rm = ResourceManager::new(64);
        let mut held: Vec<NodeSet> = Vec::new();
        for s in sizes {
            if let Ok(set) = rm.allocate(s) {
                for other in &held {
                    prop_assert!(set.is_disjoint(other));
                }
                held.push(set);
            }
        }
    }
}

// ----------------------------------------------------------------- packer

proptest! {
    /// The packer never oversubscribes and never starts before submission.
    #[test]
    fn packer_feasibility(
        raw in prop::collection::vec((0i64..10_000, 1i64..2_000, 1u32..32), 1..80)
    ) {
        let specs: Vec<JobSpec> = raw
            .into_iter()
            .map(|(submit, dur, nodes)| JobSpec {
                submit: SimTime::seconds(submit),
                duration: SimDuration::seconds(dur),
                walltime: SimDuration::seconds(dur * 2),
                nodes,
                user: 0,
                account: 0,
                priority: 0.0,
            })
            .collect();
        let packed = pack_jobs(specs, 32);
        for p in &packed {
            prop_assert!(p.start >= p.spec.submit);
            prop_assert_eq!(p.placement.len() as u32, p.spec.nodes);
        }
        // Pairwise: overlapping jobs have disjoint placements.
        for (i, a) in packed.iter().enumerate() {
            for b in packed.iter().skip(i + 1) {
                if a.start < b.end && b.start < a.end {
                    prop_assert!(a.placement.is_disjoint(&b.placement));
                }
            }
        }
    }
}

// ------------------------------------------------------------------ EASY

proptest! {
    /// An admitted backfill job can never delay the head's reservation:
    /// either it ends by the shadow time, or it fits in the extra nodes.
    #[test]
    fn easy_admission_preserves_reservation(
        head_nodes in 2u32..64,
        free in 0u32..32,
        running in prop::collection::vec((1u32..32, 1i64..5_000), 1..12),
        cand_nodes in 1u32..64,
        cand_est in 1i64..10_000,
    ) {
        prop_assume!(head_nodes > free);
        let views: Vec<RunningView> = running
            .iter()
            .enumerate()
            .map(|(i, &(n, end))| RunningView {
                id: JobId(i as u64),
                nodes: n,
                estimated_end: SimTime::seconds(end),
                power_kw: 0.0,
            })
            .collect();
        if let Some(res) = easy_reservation(head_nodes, free, &views) {
            let cand = QueuedJob {
                id: JobId(999),
                account: AccountId(0),
                submit: SimTime::ZERO,
                nodes: cand_nodes,
                estimate: SimDuration::seconds(cand_est),
                priority: 0.0,
                ml_score: None,
                recorded_start: SimTime::ZERO,
                recorded_nodes: None,
            };
            let now = SimTime::ZERO;
            if easy_admits(&cand, now, free, &res) {
                prop_assert!(cand.nodes <= free);
                prop_assert!(
                    now + cand.estimate <= res.shadow_time || cand.nodes <= res.extra_nodes,
                    "admitted job would delay the reservation"
                );
            }
        }
    }
}

// ------------------------------------------------------------- scheduler

fn arb_queue() -> impl Strategy<Value = Vec<(u32, i64, i64)>> {
    // (nodes, estimate, submit)
    prop::collection::vec((1u32..16, 10i64..1_000, 0i64..100), 1..24)
}

proptest! {
    /// Whatever the policy/backfill, scheduling never places a job twice,
    /// never exceeds capacity, and placed jobs leave the queue.
    #[test]
    fn builtin_scheduler_is_safe(
        jobs in arb_queue(),
        policy_ix in 0usize..4,
        backfill_ix in 0usize..3,
    ) {
        let policy = [PolicyKind::Fcfs, PolicyKind::Sjf, PolicyKind::Ljf, PolicyKind::Priority][policy_ix];
        let backfill = [BackfillKind::None, BackfillKind::FirstFit, BackfillKind::Easy][backfill_ix];
        let mut sched = BuiltinScheduler::new(policy, backfill);
        let mut rm = ResourceManager::new(32);
        let mut queue = JobQueue::new();
        let total = jobs.len();
        for (i, (nodes, est, submit)) in jobs.into_iter().enumerate() {
            queue.push(QueuedJob {
                id: JobId(i as u64),
                account: AccountId(0),
                submit: SimTime::seconds(submit),
                nodes,
                estimate: SimDuration::seconds(est),
                priority: i as f64,
                ml_score: None,
                recorded_start: SimTime::seconds(submit),
                recorded_nodes: None,
            });
        }
        let ctx = SchedContext { running: &[], accounts: None };
        let mut placed = Vec::new();
        sched
            .schedule(SimTime::seconds(100), &mut queue, &mut rm, &ctx, &mut placed)
            .unwrap();
        // No duplicate ids.
        let mut ids: Vec<u64> = placed.iter().map(|p| p.job.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), placed.len());
        // Capacity respected.
        let used: usize = placed.iter().map(|p| p.nodes.len()).sum();
        prop_assert!(used <= 32);
        // Placements disjoint.
        for (i, a) in placed.iter().enumerate() {
            for b in placed.iter().skip(i + 1) {
                prop_assert!(a.nodes.is_disjoint(&b.nodes));
            }
        }
        // Queue shrank exactly by the placements.
        prop_assert_eq!(queue.len() + placed.len(), total);
    }
}

// ------------------------------------------------------------ accounting

proptest! {
    /// Account aggregation: node-hour-weighted power stays within the
    /// min/max of inputs, points are monotone in savings.
    #[test]
    fn accounts_weighted_mean_bounded(
        jobs in prop::collection::vec((1u32..64, 60i64..10_000, 1u64..30), 1..30)
    ) {
        let mut acc = sraps_acct::Accounts::new(1.0);
        let mut powers = Vec::new();
        for (i, (nodes, dur, tenths_kw)) in jobs.iter().enumerate() {
            let p = *tenths_kw as f64 / 10.0;
            powers.push(p);
            acc.record(&sraps_acct::JobOutcome {
                id: JobId(i as u64),
                user: sraps_types::UserId(0),
                account: AccountId(7),
                nodes: *nodes,
                submit: SimTime::ZERO,
                start: SimTime::ZERO,
                end: SimTime::seconds(*dur),
                energy_kwh: p * *nodes as f64 * *dur as f64 / 3600.0,
                avg_node_power_kw: p,
                avg_cpu_util: 0.5,
                avg_gpu_util: 0.0,
                priority: 1.0,
            });
        }
        let s = acc.get(AccountId(7)).unwrap();
        let lo = powers.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = powers.iter().cloned().fold(0.0, f64::max);
        prop_assert!(s.avg_node_power_kw >= lo - 1e-9);
        prop_assert!(s.avg_node_power_kw <= hi + 1e-9);
    }
}

// ---------------------------------------------------------------- traces

proptest! {
    /// Last-known-value sampling never invents values outside the trace's
    /// range and is total over all offsets.
    #[test]
    fn trace_sampling_is_bounded(
        values in prop::collection::vec(0.0f32..5_000.0, 1..200),
        offset in -100_000i64..1_000_000,
    ) {
        let t = sraps_types::Trace::new(
            SimDuration::ZERO,
            SimDuration::seconds(15),
            values.clone(),
        );
        let v = t.sample(SimDuration::seconds(offset));
        let lo = values.iter().cloned().fold(f32::INFINITY, f32::min);
        let hi = values.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        prop_assert!(v >= lo && v <= hi);
    }
}

// ---------------------------------------------------------------- engine

proptest! {
    /// End-to-end engine invariants on small random workloads: starts
    /// never precede submits, ends never precede starts, concurrent jobs
    /// never oversubscribe the machine, energy is non-negative.
    #[test]
    fn engine_invariants_random_workloads(
        seed in 0u64..50,
        policy_ix in 0usize..4,
        backfill_ix in 0usize..4,
    ) {
        use sraps_core::{Engine, SimConfig};
        use sraps_data::WorkloadSpec;
        let cfg = sraps_systems::presets::adastra();
        let mut spec = WorkloadSpec::for_system(&cfg, 0.8, seed);
        spec.span = SimDuration::hours(2);
        let ds = sraps_data::adastra::synthesize(&cfg, &spec);
        let policy = ["fcfs", "sjf", "ljf", "priority"][policy_ix];
        let backfill = ["none", "firstfit", "easy", "conservative"][backfill_ix];
        let sim = SimConfig::new(cfg.clone(), policy, backfill).unwrap();
        let out = Engine::new(sim, &ds).unwrap().run().unwrap();
        // Lifecycle ordering.
        for o in &out.outcomes {
            prop_assert!(o.start >= o.submit, "{policy}-{backfill}: early start");
            prop_assert!(o.end >= o.start);
            prop_assert!(o.energy_kwh >= 0.0);
        }
        // Concurrency: sweep outcomes for oversubscription.
        let mut events: Vec<(SimTime, i64)> = Vec::new();
        for o in &out.outcomes {
            events.push((o.start, o.nodes as i64));
            events.push((o.end, -(o.nodes as i64)));
        }
        events.sort();
        let mut level = 0i64;
        for (_, d) in events {
            level += d;
            prop_assert!(level <= cfg.total_nodes as i64, "oversubscription");
        }
        // Utilization history bounded.
        prop_assert!(out.utilization.iter().all(|&u| (0.0..=1.0).contains(&u)));
    }
}

// ------------------------------------------------------------- ML pieces

proptest! {
    /// The §4.4.2 score is finite and monotone decreasing in every feature.
    #[test]
    fn score_monotone_and_finite(
        base in prop::collection::vec(0.0f64..1_000.0, 3),
        bump_ix in 0usize..3,
        bump in 0.1f64..100.0,
    ) {
        let w = sraps_ml::ScoreWeights { alphas: vec![1.0, 1.0, 1.0] };
        let s0 = sraps_ml::score(&w, &base);
        let mut bigger = base.clone();
        bigger[bump_ix] += bump;
        let s1 = sraps_ml::score(&w, &bigger);
        prop_assert!(s0.is_finite() && s1.is_finite());
        prop_assert!(s1 < s0);
    }

    /// K-means assignment is the true argmin over centroids.
    #[test]
    fn kmeans_predict_is_nearest(
        data in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 2), 8..40),
        probe in prop::collection::vec(-100.0f64..100.0, 2),
    ) {
        let km = sraps_ml::KMeans::fit(&data, 3, 20, 1);
        let label = km.predict(&probe);
        let d = |c: &Vec<f64>| -> f64 {
            c.iter().zip(&probe).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        let best = km
            .centroids
            .iter()
            .map(d)
            .fold(f64::INFINITY, f64::min);
        prop_assert!((d(&km.centroids[label]) - best).abs() < 1e-9);
    }
}
