//! Backfill strategies: the `--backfill` option.
//!
//! * `none` — strict queue order; the head blocks everyone behind it.
//! * `first-fit` — after the head blocks, any queued job that fits now is
//!   placed (no guarantee the head isn't delayed).
//! * `easy` — EASY backfill \[36\]: the head receives a reservation at the
//!   earliest time enough nodes free up (computed from running jobs'
//!   wall-time estimates); a later job may jump ahead only if it cannot
//!   delay that reservation (finishes before it, or fits in the nodes the
//!   reservation leaves over).

use crate::queue::QueuedJob;
use crate::scheduler::RunningView;
use serde::{Deserialize, Serialize};
use sraps_types::SimTime;

/// Which backfill strategy augments the policy order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BackfillKind {
    None,
    FirstFit,
    Easy,
    /// Conservative backfill: *every* queued job holds a reservation; a
    /// job may jump ahead only if it delays nobody. The paper lists this
    /// among the "more sophisticated implementations" the default
    /// scheduler leaves to extensions — provided here.
    Conservative,
}

impl BackfillKind {
    /// Parse a `--backfill` string (artifact spellings accepted).
    pub fn parse(s: &str) -> Option<BackfillKind> {
        Some(match s {
            "none" | "nobf" | "no-backfill" => BackfillKind::None,
            "firstfit" | "first-fit" => BackfillKind::FirstFit,
            "easy" => BackfillKind::Easy,
            "conservative" => BackfillKind::Conservative,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            BackfillKind::None => "none",
            BackfillKind::FirstFit => "firstfit",
            BackfillKind::Easy => "easy",
            BackfillKind::Conservative => "conservative",
        }
    }
}

/// Conservative plan: the earliest feasible start per queued job, in queue
/// order, holding all earlier jobs' reservations fixed.
///
/// Returns one planned start per queue entry (`SimTime::MAX` for jobs wider
/// than the machine can ever free). A job may be *placed now* exactly when
/// its planned start is ≤ `now` — by construction that cannot delay any
/// earlier job's reservation.
///
/// This is the from-scratch reference implementation (kept for the
/// equivalence property tests); the scheduler hot path runs
/// [`CapacityTimeline::plan_conservative`](crate::timeline::CapacityTimeline::plan_conservative),
/// which produces the identical plan from the incrementally-maintained
/// availability profile.
pub fn conservative_plan(
    queue: &[QueuedJob],
    now: SimTime,
    free_now: u32,
    total_nodes: u32,
    running: &[RunningView],
) -> Vec<SimTime> {
    // Capacity-release timeline from running jobs' estimates.
    let releases: Vec<(SimTime, u32)> =
        running.iter().map(|r| (r.estimated_end, r.nodes)).collect();
    // Reservations made so far: (start, est_end, nodes).
    let mut planned: Vec<(SimTime, SimTime, u32)> = Vec::new();
    let mut out = Vec::with_capacity(queue.len());
    for job in queue {
        if job.nodes > total_nodes {
            out.push(SimTime::MAX);
            continue;
        }
        // Candidate starts: now plus every future capacity edge.
        let mut candidates: Vec<SimTime> = Vec::with_capacity(1 + releases.len() + planned.len());
        candidates.push(now);
        candidates.extend(releases.iter().map(|&(t, _)| t));
        candidates.extend(planned.iter().map(|&(_, e, _)| e));
        candidates.sort_unstable();
        candidates.dedup();
        let start = candidates
            .into_iter()
            .find(|&s| {
                // Enough nodes free over [s, s + estimate)? With stepwise
                // capacity, checking at `s` and at each edge inside the
                // window suffices; edges only *increase* capacity from
                // releases and *decrease* it at planned starts, so check
                // both kinds inside the window.
                let window_end = s + job.estimate;
                let free_at = |t: SimTime| -> i64 {
                    let mut free = free_now as i64;
                    for &(e, n) in &releases {
                        if e <= t {
                            free += n as i64;
                        }
                    }
                    for &(ps, pe, pn) in &planned {
                        if ps <= t && t < pe {
                            free -= pn as i64;
                        }
                    }
                    free
                };
                if free_at(s) < job.nodes as i64 {
                    return false;
                }
                // Planned starts inside our window can steal nodes.
                planned
                    .iter()
                    .filter(|&&(ps, _, _)| ps > s && ps < window_end)
                    .all(|&(ps, _, _)| free_at(ps) >= job.nodes as i64)
            })
            .unwrap_or(SimTime::MAX);
        out.push(start);
        if start != SimTime::MAX {
            planned.push((start, start + job.estimate, job.nodes));
        }
    }
    out
}

/// The earliest *future* reservation in a conservative plan: the next
/// instant at which the plan can start a job with time alone (no
/// completion/submission event needed, because reservations mature on
/// running jobs' estimated ends). `None` when no queued job holds a
/// finite future reservation — the plan is then fully event-bound.
///
/// With a frozen running set and queue, the plan's feasibility tests do
/// not depend on `now`, so no placement can fire strictly before the
/// earliest planned start. Over a decided prefix it is one half of the
/// scheduler's `next_decision_time` hint for the engine's event core; the
/// planner's bound on the rest of the queue is the other
/// ([`PlanScratch::next_decision_time`](crate::timeline::PlanScratch::next_decision_time)).
pub fn next_planned_start(plan: &[SimTime], now: SimTime) -> Option<SimTime> {
    plan.iter()
        .copied()
        .filter(|&s| s > now && s != SimTime::MAX)
        .min()
}

/// Whether `prefix` and `bound` are a decided prefix of `full`, a whole
/// conservative plan of the same queue at `now` — the contract of
/// [`CapacityTimeline::plan_conservative`](crate::timeline::CapacityTimeline::plan_conservative),
/// checked against [`conservative_plan`] by the tests. The prefix equals
/// `full` entry for entry, `bound` is after `now`, and each later entry
/// of `full` is `SimTime::MAX` or at or after `bound`. The jobs due by
/// `now` read off the prefix are then the full plan's. `Err` names the
/// first entry, or the bound, that breaks it.
pub fn check_decided_prefix(
    prefix: &[SimTime],
    bound: SimTime,
    full: &[SimTime],
    now: SimTime,
) -> Result<(), String> {
    if let Some(k) = (0..prefix.len()).find(|&k| full.get(k) != Some(&prefix[k])) {
        return Err(format!(
            "entry {k} of the prefix is {:?}, of the full plan {:?}",
            prefix[k],
            full.get(k)
        ));
    }
    if bound <= now {
        return Err(format!("the bound {bound:?} is not after now ({now:?})"));
    }
    match (prefix.len()..full.len()).find(|&k| full[k] != SimTime::MAX && full[k] < bound) {
        Some(k) => Err(format!(
            "entry {k} past the prefix of {} starts at {:?}, before the bound {bound:?}",
            prefix.len(),
            full[k]
        )),
        None => Ok(()),
    }
}

/// The head job's reservation: when it can start at the latest-known
/// estimates, and how many nodes remain unused at that moment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    /// Earliest time the blocked head job can start (the "shadow time").
    pub shadow_time: SimTime,
    /// Nodes left over at `shadow_time` after the head takes its share —
    /// a backfill job of at most this width can never delay the head.
    pub extra_nodes: u32,
}

/// Compute the EASY reservation for a blocked head job needing
/// `head_nodes`, given `free_now` free nodes and the running jobs' node
/// counts and estimated ends.
///
/// Walks the distinct estimated ends in ascending order, accumulating
/// freed nodes until the head fits; all estimates maturing at the same
/// instant release together, so `extra_nodes` is well-defined under ties.
/// Returns `None` when the head can never fit (more nodes than the
/// machine will ever free — a config error upstream).
///
/// This is the from-scratch reference for
/// [`CapacityTimeline::easy_reservation`](crate::timeline::CapacityTimeline::easy_reservation),
/// which answers the same query without the per-call collect + sort.
pub fn easy_reservation(
    head_nodes: u32,
    free_now: u32,
    running: &[RunningView],
) -> Option<Reservation> {
    debug_assert!(head_nodes > free_now, "reservation only for blocked heads");
    let mut ends: Vec<(SimTime, u32)> =
        running.iter().map(|r| (r.estimated_end, r.nodes)).collect();
    ends.sort_unstable_by_key(|(t, _)| *t);
    let mut avail = free_now;
    let mut i = 0;
    while i < ends.len() {
        let end = ends[i].0;
        while i < ends.len() && ends[i].0 == end {
            avail += ends[i].1;
            i += 1;
        }
        if avail >= head_nodes {
            return Some(Reservation {
                shadow_time: end,
                extra_nodes: avail - head_nodes,
            });
        }
    }
    None
}

/// Whether `candidate` may backfill under EASY: it must fit in the free
/// nodes now, and either complete before the reservation or be narrow
/// enough to use only the reservation's spare nodes.
pub fn easy_admits(candidate: &QueuedJob, now: SimTime, free_now: u32, res: &Reservation) -> bool {
    if candidate.nodes > free_now {
        return false;
    }
    let ends_by = now + candidate.estimate;
    ends_by <= res.shadow_time || candidate.nodes <= res.extra_nodes
}

#[cfg(test)]
mod tests {
    use super::*;
    use sraps_types::{AccountId, JobId, SimDuration};

    fn running(id: u64, nodes: u32, end: i64) -> RunningView {
        RunningView {
            id: JobId(id),
            nodes,
            estimated_end: SimTime::seconds(end),
            power_kw: 0.0,
        }
    }

    fn qj(nodes: u32, est: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(99),
            account: AccountId(0),
            submit: SimTime::ZERO,
            nodes,
            estimate: SimDuration::seconds(est),
            priority: 0.0,
            ml_score: None,
            recorded_start: SimTime::ZERO,
            recorded_nodes: None,
        }
    }

    #[test]
    fn parse_accepts_artifact_spellings() {
        assert_eq!(BackfillKind::parse("no-backfill"), Some(BackfillKind::None));
        assert_eq!(
            BackfillKind::parse("first-fit"),
            Some(BackfillKind::FirstFit)
        );
        assert_eq!(
            BackfillKind::parse("firstfit"),
            Some(BackfillKind::FirstFit)
        );
        assert_eq!(BackfillKind::parse("easy"), Some(BackfillKind::Easy));
        assert_eq!(BackfillKind::parse("zeno"), None);
    }

    #[test]
    fn reservation_at_first_sufficient_completion() {
        // Head needs 10; 2 free now. Jobs of 4 and 6 end at t=100 and t=200.
        let res = easy_reservation(10, 2, &[running(1, 4, 100), running(2, 6, 200)]).unwrap();
        // After t=100: 2+4=6 < 10. After t=200: 12 ≥ 10 → shadow at 200.
        assert_eq!(res.shadow_time, SimTime::seconds(200));
        assert_eq!(res.extra_nodes, 2);
    }

    #[test]
    fn reservation_orders_by_end_time_not_input_order() {
        let res = easy_reservation(5, 1, &[running(1, 8, 500), running(2, 4, 50)]).unwrap();
        assert_eq!(
            res.shadow_time,
            SimTime::seconds(50),
            "earlier end suffices"
        );
        assert_eq!(res.extra_nodes, 0);
    }

    #[test]
    fn impossible_reservation_is_none() {
        assert_eq!(easy_reservation(100, 1, &[running(1, 4, 10)]), None);
    }

    #[test]
    fn tied_ends_release_together() {
        // Two jobs end at the same instant; the crossing happens inside
        // the tie group, so the whole group's nodes back the reservation.
        let res = easy_reservation(5, 0, &[running(1, 3, 100), running(2, 4, 100)]).unwrap();
        assert_eq!(res.shadow_time, SimTime::seconds(100));
        assert_eq!(res.extra_nodes, 2, "both tied releases count");
    }

    #[test]
    fn easy_admits_short_jobs_ending_before_shadow() {
        let res = Reservation {
            shadow_time: SimTime::seconds(1000),
            extra_nodes: 0,
        };
        let short = qj(3, 500);
        let long = qj(3, 5000);
        assert!(easy_admits(&short, SimTime::ZERO, 4, &res));
        assert!(!easy_admits(&long, SimTime::ZERO, 4, &res));
    }

    #[test]
    fn easy_admits_narrow_long_jobs_via_extra_nodes() {
        let res = Reservation {
            shadow_time: SimTime::seconds(10),
            extra_nodes: 4,
        };
        let narrow_long = qj(4, 1_000_000);
        let wide_long = qj(5, 1_000_000);
        assert!(easy_admits(&narrow_long, SimTime::ZERO, 8, &res));
        assert!(!easy_admits(&wide_long, SimTime::ZERO, 8, &res));
    }

    #[test]
    fn easy_never_admits_what_does_not_fit_now() {
        let res = Reservation {
            shadow_time: SimTime::seconds(10_000),
            extra_nodes: 50,
        };
        assert!(!easy_admits(&qj(10, 1), SimTime::ZERO, 9, &res));
    }

    #[test]
    fn boundary_job_ending_exactly_at_shadow_is_admitted() {
        let res = Reservation {
            shadow_time: SimTime::seconds(100),
            extra_nodes: 0,
        };
        assert!(easy_admits(&qj(2, 100), SimTime::ZERO, 2, &res));
        assert!(!easy_admits(&qj(2, 101), SimTime::ZERO, 2, &res));
    }

    #[test]
    fn parse_conservative() {
        assert_eq!(
            BackfillKind::parse("conservative"),
            Some(BackfillKind::Conservative)
        );
    }

    #[test]
    fn conservative_plan_immediate_when_free() {
        let q = vec![qj(4, 100), qj(4, 100)];
        let plan = conservative_plan(&q, SimTime::ZERO, 8, 8, &[]);
        assert_eq!(plan, vec![SimTime::ZERO, SimTime::ZERO]);
    }

    #[test]
    fn conservative_plan_serializes_conflicts() {
        // 8-node machine, both jobs want all of it: second reserved at the
        // first's estimated end.
        let q = vec![qj(8, 100), qj(8, 50)];
        let plan = conservative_plan(&q, SimTime::ZERO, 8, 8, &[]);
        assert_eq!(plan[0], SimTime::ZERO);
        assert_eq!(plan[1], SimTime::seconds(100));
    }

    #[test]
    fn conservative_backfill_never_delays_earlier_reservations() {
        // Head blocked behind a running job; a short job may only start if
        // it ends before the head's reserved start.
        let running = vec![running(1, 6, 100)];
        let q = vec![qj(8, 100), qj(2, 50), qj(2, 500)];
        let plan = conservative_plan(&q, SimTime::ZERO, 2, 8, &running);
        assert_eq!(plan[0], SimTime::seconds(100), "head reserved at release");
        assert_eq!(plan[1], SimTime::ZERO, "short job fits before the head");
        assert!(
            plan[2] >= SimTime::seconds(100),
            "long job would delay the head, must wait: {:?}",
            plan[2]
        );
    }

    #[test]
    fn next_planned_start_skips_past_and_impossible() {
        let now = SimTime::seconds(100);
        let plan = vec![
            SimTime::seconds(50),  // already matured (placement attempted)
            SimTime::seconds(100), // == now: not a *future* deadline
            SimTime::seconds(400),
            SimTime::seconds(250),
            SimTime::MAX, // can never run
        ];
        assert_eq!(next_planned_start(&plan, now), Some(SimTime::seconds(250)));
        assert_eq!(next_planned_start(&[SimTime::MAX], now), None);
        assert_eq!(next_planned_start(&[], now), None);
    }

    #[test]
    fn conservative_plan_marks_impossible_jobs() {
        let q = vec![qj(100, 10)];
        let plan = conservative_plan(&q, SimTime::ZERO, 8, 8, &[]);
        assert_eq!(plan[0], SimTime::MAX);
    }

    #[test]
    fn conservative_plan_respects_future_capacity_dips() {
        // One node free now; the earlier job reserves 8 nodes at t=100 for
        // 100 s. A 1-node job with a 150 s estimate starting now would
        // still hold its node across t=100 — that is fine (8 reserved of
        // 8 total? no: 1 busy). Machine: 8 total, 7 running until t=100.
        let running = vec![running(1, 7, 100)];
        let q = vec![qj(8, 100), qj(1, 150)];
        let plan = conservative_plan(&q, SimTime::ZERO, 1, 8, &running);
        assert_eq!(plan[0], SimTime::seconds(100));
        // The 1-node job overlaps the head's full-machine reservation →
        // cannot start now; earliest is after the head's estimated end.
        assert_eq!(plan[1], SimTime::seconds(200));
    }
}
