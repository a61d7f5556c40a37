//! Equivalence properties for the scheduler hot-path rewrites:
//!
//! * the incrementally-sorted [`JobQueue`] equals a from-scratch
//!   [`JobQueue::sort_by_key_stable`] under arbitrary push / remove /
//!   re-key sequences;
//! * the timeline-backed EASY reservation equals the from-scratch one in
//!   [`sraps_sched::backfill`] on random running sets;
//! * the timeline-backed conservative plan is a decided prefix of the
//!   from-scratch plan on random running/queue states
//!   ([`check_decided_prefix`]): equal entry for entry as far as it goes,
//!   with a bound after `now` that no later job starts before; and the
//!   hint it gives the engine is after `now` and no later than the
//!   from-scratch plan's next start ([`check_hint`]).
//!
//! These are the oracles that let the engine swap the per-call rebuilds
//! for incremental state without risking the bit-parity claim.

use proptest::prelude::*;
use sraps_sched::backfill::{
    check_decided_prefix, conservative_plan, easy_reservation, next_planned_start,
};
use sraps_sched::{
    CapacityTimeline, JobQueue, OrderStamp, PlanScratch, PolicyKind, QueuedJob, RunningView,
};
use sraps_types::{AccountId, JobId, SimDuration, SimTime};

fn qj(id: u64, submit: i64, nodes: u32, est: i64, prio: f64) -> QueuedJob {
    QueuedJob {
        id: JobId(id),
        account: AccountId((id % 5) as u32),
        submit: SimTime::seconds(submit),
        nodes,
        estimate: SimDuration::seconds(est),
        priority: prio,
        ml_score: None,
        recorded_start: SimTime::seconds(submit),
        recorded_nodes: None,
    }
}

fn ids(q: &JobQueue) -> Vec<u64> {
    q.jobs().iter().map(|j| j.id.0).collect()
}

/// Whether the hint a plan gives the engine
/// ([`PlanScratch::next_decision_time`]) is after `now` and no later than
/// the next start of `full`, the whole plan: the engine then calls at
/// every instant the full plan starts a job.
fn check_hint(scratch: &PlanScratch, full: &[SimTime], now: SimTime) -> Result<(), String> {
    let hint = scratch.next_decision_time(now);
    let next = next_planned_start(full, now);
    if hint.is_some_and(|h| h <= now) || hint.unwrap_or(SimTime::MAX) > next.unwrap_or(SimTime::MAX)
    {
        return Err(format!(
            "hint {hint:?} at now {now:?}, full plan's next start {next:?}"
        ));
    }
    Ok(())
}

proptest! {
    /// Arbitrary interleavings of push, remove_placed, and key-version
    /// bumps: after every ensure_order_by the queue must be exactly what
    /// a full stable re-sort with the same key would produce.
    #[test]
    fn incremental_order_equals_full_sort(
        ops in prop::collection::vec((0u32..10, 0i64..100, 1u32..32, 10i64..500, 0u32..6), 1..60),
    ) {
        // Key table per epoch: epoch e orders by priority * sign(e) with a
        // shift, exercising genuine re-keying (not just re-sorts).
        let key_for = |epoch: u64, j: &QueuedJob| -> f64 {
            if epoch.is_multiple_of(2) { j.priority + epoch as f64 } else { -j.priority }
        };
        let mut epoch = 0u64;
        let mut q = JobQueue::new();
        let mut next_id = 0u64;
        for (op, submit, nodes, est, prio) in ops {
            match op {
                // push one job (~half of all ops)
                0..=4 => {
                    q.push(qj(next_id, submit, nodes, est, prio as f64));
                    next_id += 1;
                }
                // remove up to three queued jobs: in queue order (as the
                // builtin schedulers place), out of it (as an external
                // scheduler may), or beside an id the queue does not hold
                5 | 6 => {
                    let present = ids(&q);
                    let mut victims: Vec<JobId> = present
                        .iter()
                        .skip(submit as usize % (present.len().max(1)))
                        .take(2 + nodes as usize % 2)
                        .map(|&i| JobId(i))
                        .collect();
                    match est % 3 {
                        0 => {}
                        1 => victims.reverse(),
                        _ => victims.insert(nodes as usize % (victims.len() + 1), JobId(u64::MAX)),
                    }
                    q.remove_placed(&victims);
                    let kept: Vec<u64> = present
                        .into_iter()
                        .filter(|&i| !victims.contains(&JobId(i)))
                        .collect();
                    prop_assert_eq!(ids(&q), kept, "removing {:?}", victims);
                }
                // bump the key epoch (keys change identity)
                7 => epoch += 1,
                // no-op call: order must already hold
                _ => {}
            }
            let stamp = OrderStamp { policy: PolicyKind::Priority, key_epoch: epoch };
            q.ensure_order_by(stamp, |j| key_for(epoch, j));
            let mut reference = q.clone();
            reference.sort_by_key_stable(|j| key_for(epoch, j));
            prop_assert_eq!(ids(&q), ids(&reference), "epoch {}", epoch);
            prop_assert_eq!(
                q.demand_nodes(),
                q.jobs().iter().map(|j| j.nodes as u64).sum::<u64>()
            );
        }
    }

    /// Timeline EASY == from-scratch EASY on random running sets,
    /// including tied estimated ends and overdue estimates.
    #[test]
    fn timeline_easy_equals_from_scratch(
        running in prop::collection::vec((1u32..64, -50i64..500), 0..24),
        head in 1u32..128,
        free in 0u32..64,
    ) {
        prop_assume!(head > free);
        let views: Vec<RunningView> = running
            .iter()
            .enumerate()
            .map(|(i, &(n, end))| RunningView {
                id: JobId(i as u64),
                nodes: n,
                estimated_end: SimTime::seconds(end % 7), // force tie collisions
                power_kw: 0.0,
            })
            .collect();
        let mut timeline = CapacityTimeline::new();
        for v in &views {
            timeline.add(v.estimated_end, v.nodes);
        }
        prop_assert!(timeline.matches(&views));
        prop_assert_eq!(
            timeline.easy_reservation(head, free),
            easy_reservation(head, free, &views)
        );
    }

    /// Timeline conservative plan is a decided prefix of the from-scratch
    /// plan on random running/queue states — after random add/remove
    /// churn on the timeline, not just a fresh build.
    #[test]
    fn timeline_conservative_plan_equals_from_scratch(
        running in prop::collection::vec((1u32..48, -100i64..2_000), 0..16),
        queue in prop::collection::vec((1u32..80, 1i64..800, 0i64..50), 0..16),
        churn in prop::collection::vec((1u32..48, -100i64..2_000), 0..8),
        now in 0i64..200,
        free in 0u32..64,
        total in 1u32..64,
    ) {
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
        let mut timeline = CapacityTimeline::new();
        // Exercise the incremental maintenance: transient jobs come and go
        // before the final running set settles.
        for &(n, end) in &churn {
            timeline.add(SimTime::seconds(end), n);
        }
        for v in &views {
            timeline.add(v.estimated_end, v.nodes);
        }
        for &(n, end) in &churn {
            timeline.remove(SimTime::seconds(end), n);
        }
        prop_assert!(timeline.matches(&views));

        let jobs: Vec<QueuedJob> = queue
            .iter()
            .enumerate()
            .map(|(i, &(nodes, est, submit))| qj(i as u64, submit, nodes, est, 0.0))
            .collect();
        let now = SimTime::seconds(now);
        let mut scratch = PlanScratch::new();
        timeline.plan_conservative(&jobs, now, free, total, &mut scratch);
        let reference = conservative_plan(&jobs, now, free, total, &views);
        let (first, bound) = (scratch.plan().to_vec(), scratch.bound());
        prop_assert_eq!(check_decided_prefix(&first, bound, &reference, now), Ok(()));
        prop_assert_eq!(check_hint(&scratch, &reference, now), Ok(()));
        // Scratch reuse across calls must not leak state between plans.
        timeline.plan_conservative(&jobs, now, free, total, &mut scratch);
        prop_assert_eq!(scratch.plan(), first.as_slice());
        prop_assert_eq!(scratch.bound(), bound);
    }

    /// High-headroom regime: generous free capacity and mostly-narrow
    /// jobs, so most queue entries anchor at the first breakpoint, with
    /// occasional wide jobs searching past their reservations. The
    /// interleaving matters: every reservation must leave the profile
    /// exactly as the from-scratch oracle's planned set describes it, or
    /// later searches diverge.
    #[test]
    fn timeline_conservative_fast_path_equals_from_scratch(
        running in prop::collection::vec((1u32..24, -100i64..2_000), 0..12),
        queue in prop::collection::vec((1u32..200, 0i64..800, 0i64..50), 0..24),
        now in 0i64..200,
        free in 64u32..256,
    ) {
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
        let mut timeline = CapacityTimeline::new();
        for v in &views {
            timeline.add(v.estimated_end, v.nodes);
        }
        let jobs: Vec<QueuedJob> = queue
            .iter()
            .enumerate()
            // Mostly narrow (room at once under `free` ≥ 64), every fifth
            // wide enough to search past them or be outright infeasible.
            .map(|(i, &(nodes, est, submit))| {
                let nodes = if i % 5 == 4 { nodes.max(64) } else { nodes % 16 + 1 };
                qj(i as u64, submit, nodes, est, 0.0)
            })
            .collect();
        let now = SimTime::seconds(now);
        let total = 255u32;
        let mut scratch = PlanScratch::new();
        timeline.plan_conservative(&jobs, now, free, total, &mut scratch);
        let reference = conservative_plan(&jobs, now, free, total, &views);
        prop_assert_eq!(
            check_decided_prefix(scratch.plan(), scratch.bound(), &reference, now),
            Ok(())
        );
        prop_assert_eq!(check_hint(&scratch, &reference, now), Ok(()));
    }

    /// Class-floor coverage: a saturated machine (little free, many
    /// running jobs) and a queue drawn from at most four repeated
    /// `(nodes, estimate)` classes, zero estimates included, so most
    /// searches start at the floor an earlier job of their class left.
    /// The other generators almost never repeat a class.
    #[test]
    fn timeline_conservative_class_floors_equal_from_scratch(
        classes in prop::collection::vec((1u32..40, 0i64..600), 1..5),
        picks in prop::collection::vec((0usize..4, 0i64..50), 0..41),
        running in prop::collection::vec((1u32..12, -100i64..2_000), 8..25),
        now in 0i64..200,
        free in 0u32..6,
    ) {
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
        let mut timeline = CapacityTimeline::new();
        for v in &views {
            timeline.add(v.estimated_end, v.nodes);
        }
        let jobs: Vec<QueuedJob> = picks
            .iter()
            .enumerate()
            .map(|(i, &(pick, submit))| {
                let (nodes, est) = classes[pick % classes.len()];
                qj(i as u64, submit, nodes, est, 0.0)
            })
            .collect();
        let now = SimTime::seconds(now);
        let total = free + views.iter().map(|v| v.nodes).sum::<u32>();
        let mut scratch = PlanScratch::new();
        timeline.plan_conservative(&jobs, now, free, total, &mut scratch);
        let reference = conservative_plan(&jobs, now, free, total, &views);
        prop_assert_eq!(
            check_decided_prefix(scratch.plan(), scratch.bound(), &reference, now),
            Ok(())
        );
        prop_assert_eq!(check_hint(&scratch, &reference, now), Ok(()));
    }

    /// Deep saturated queues: a hundred to three hundred jobs drawn from
    /// up to 24 `(nodes, estimate)` classes, zero estimates and jobs wider
    /// than the machine included, behind a machine with little free.
    /// Planning stops deep in such queues, after many reservations have
    /// lowered the profile; the generators above queue at most 41 jobs.
    #[test]
    fn timeline_conservative_deep_queue_is_a_decided_prefix(
        classes in prop::collection::vec((1u32..160, 0i64..3_000), 4..25),
        picks in prop::collection::vec((0usize..24, 0i64..50), 100..301),
        running in prop::collection::vec((1u32..12, -100i64..4_000), 16..41),
        now in 0i64..200,
        free in 0u32..8,
    ) {
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
        let mut timeline = CapacityTimeline::new();
        for v in &views {
            timeline.add(v.estimated_end, v.nodes);
        }
        let jobs: Vec<QueuedJob> = picks
            .iter()
            .enumerate()
            .map(|(i, &(pick, submit))| {
                let (nodes, est) = classes[pick % classes.len()];
                qj(i as u64, submit, nodes, est, 0.0)
            })
            .collect();
        let now = SimTime::seconds(now);
        let total = free + views.iter().map(|v| v.nodes).sum::<u32>();
        let mut scratch = PlanScratch::new();
        timeline.plan_conservative(&jobs, now, free, total, &mut scratch);
        let reference = conservative_plan(&jobs, now, free, total, &views);
        prop_assert_eq!(
            check_decided_prefix(scratch.plan(), scratch.bound(), &reference, now),
            Ok(())
        );
        prop_assert_eq!(check_hint(&scratch, &reference, now), Ok(()));
    }
}
