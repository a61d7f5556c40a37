//! The free-capacity timeline: a persistent availability profile over the
//! running jobs' *estimated* ends.
//!
//! Every reservation computation — EASY's shadow time, conservative
//! backfill's per-job plan — is a question about when capacity frees up
//! at the latest-known wall-time estimates. The from-scratch planners in
//! [`crate::backfill`] answer it by collecting and sorting every
//! [`RunningView`](crate::scheduler::RunningView) end on every scheduler
//! call; on a saturated machine that sort dominates the whole simulation.
//!
//! [`CapacityTimeline`] keeps the same information incrementally: the
//! engine notifies the scheduler on every job start and completion
//! ([`SchedulerBackend::on_job_started`](crate::scheduler::SchedulerBackend::on_job_started)
//! /
//! [`on_job_completed`](crate::scheduler::SchedulerBackend::on_job_completed)),
//! and the timeline maintains a sorted map from estimated end to the
//! total nodes releasing at that instant — O(log n) per transition, zero
//! allocation and zero sorting per query. Outages need no notification:
//! like the from-scratch planners, the timeline prices a running job at
//! its full width (nodes downed mid-run stay down on release, but the
//! scheduler's view has always treated estimates as full releases).
//!
//! The conservative planner expands the timeline once per call into an
//! explicit free-capacity profile (breakpoint times with the free nodes
//! between them) and searches it per queued job with forward scans. The
//! scans start at a per-class floor: reservations only ever lower the
//! profile within a call, so a `(nodes, estimate)` class's earliest
//! feasible start never moves earlier than its previous job's.
//!
//! Queries are *bit-identical* to their from-scratch counterparts: the
//! EASY reservation to
//! [`backfill::easy_reservation`](crate::backfill::easy_reservation), and
//! the conservative plan, entry for entry as far as it plans, to
//! [`backfill::conservative_plan`](crate::backfill::conservative_plan)
//! (it stops once no job left can start by `now`; see
//! [`backfill::check_decided_prefix`](crate::backfill::check_decided_prefix)).
//! The property tests in `tests/incremental.rs` pin both on random
//! running/queue states.

use crate::backfill::{next_planned_start, Reservation};
use crate::queue::QueuedJob;
use crate::scheduler::RunningView;
use serde::{Deserialize, Serialize};
use sraps_types::{SimDuration, SimTime};
use std::collections::HashMap;

/// Serializable image of a [`CapacityTimeline`] for engine snapshots.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TimelineState {
    pub ends: Vec<(SimTime, u32)>,
    pub jobs: usize,
    pub nodes: u64,
}

/// Sorted aggregate of the running jobs' estimated ends: for each distinct
/// end time, the total nodes whose estimates mature then.
///
/// Backed by a sorted `Vec` rather than a tree: estimated ends are
/// quantized to the tick grid, so many jobs share an end and most
/// transitions are an in-place `+=`/`-=` after a binary search; a true
/// insert is a small memmove within retained capacity. Steady-state
/// maintenance therefore allocates nothing and stays cache-resident.
#[derive(Debug, Clone, Default)]
pub struct CapacityTimeline {
    /// (estimated end, total nodes releasing then), ascending by time.
    ends: Vec<(SimTime, u32)>,
    /// Running jobs tracked (for the cross-check against `ctx.running`).
    jobs: usize,
    /// Σ nodes over tracked jobs.
    nodes: u64,
}

impl CapacityTimeline {
    pub fn new() -> Self {
        CapacityTimeline::default()
    }

    /// A job started: `nodes` wide, estimated to end at `est_end`.
    pub fn add(&mut self, est_end: SimTime, nodes: u32) {
        let at = self.ends.partition_point(|&(t, _)| t < est_end);
        match self.ends.get_mut(at) {
            Some(entry) if entry.0 == est_end => {
                entry.1 += nodes;
                sraps_obs::bump(sraps_obs::Counter::TimelineInPlace);
            }
            _ => {
                self.ends.insert(at, (est_end, nodes));
                sraps_obs::bump(sraps_obs::Counter::TimelineEdits);
            }
        }
        self.jobs += 1;
        self.nodes += nodes as u64;
    }

    /// A running job completed; `est_end`/`nodes` must match its `add`.
    pub fn remove(&mut self, est_end: SimTime, nodes: u32) {
        let at = self.ends.partition_point(|&(t, _)| t < est_end);
        let entry = self
            .ends
            .get_mut(at)
            .filter(|e| e.0 == est_end)
            .expect("remove of an end never added");
        debug_assert!(entry.1 >= nodes, "timeline node count underflow");
        entry.1 -= nodes;
        if entry.1 == 0 {
            self.ends.remove(at);
            sraps_obs::bump(sraps_obs::Counter::TimelineEdits);
        } else {
            sraps_obs::bump(sraps_obs::Counter::TimelineInPlace);
        }
        self.jobs -= 1;
        self.nodes -= nodes as u64;
    }

    /// Running jobs tracked.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Capture the timeline for an engine snapshot.
    pub fn snapshot(&self) -> TimelineState {
        TimelineState {
            ends: self.ends.clone(),
            jobs: self.jobs,
            nodes: self.nodes,
        }
    }

    /// Replace this timeline with a previously captured image.
    pub fn restore(&mut self, state: &TimelineState) {
        self.ends.clear();
        self.ends.extend_from_slice(&state.ends);
        self.jobs = state.jobs;
        self.nodes = state.nodes;
    }

    /// Whether the timeline agrees with a [`RunningView`] slice — the
    /// engine-plumbing invariant the builtin scheduler asserts in debug
    /// builds.
    pub fn matches(&self, running: &[RunningView]) -> bool {
        self.jobs == running.len()
            && self.nodes == running.iter().map(|r| r.nodes as u64).sum::<u64>()
    }

    /// The EASY reservation for a blocked head needing `head_nodes`, with
    /// `free_now` nodes free: walk the ends in order accumulating freed
    /// nodes until the head fits. Same contract as
    /// [`backfill::easy_reservation`](crate::backfill::easy_reservation),
    /// minus the per-call collect + sort.
    pub fn easy_reservation(&self, head_nodes: u32, free_now: u32) -> Option<Reservation> {
        debug_assert!(head_nodes > free_now, "reservation only for blocked heads");
        sraps_obs::bump(sraps_obs::Counter::SchedEasyReservations);
        let mut avail = free_now;
        for &(end, nodes) in &self.ends {
            avail += nodes;
            if avail >= head_nodes {
                return Some(Reservation {
                    shadow_time: end,
                    extra_nodes: avail - head_nodes,
                });
            }
        }
        None
    }

    /// Conservative plan over the timeline: the earliest feasible start
    /// per queued job, in queue order, holding earlier jobs' reservations
    /// fixed — exactly
    /// [`backfill::conservative_plan`](crate::backfill::conservative_plan)
    /// (`SimTime::MAX` for jobs wider than the machine can ever free) for
    /// every job it plans. It plans a prefix of the queue: a call places
    /// only the jobs due by `now`, and it stops once no job left can start
    /// by `now`, keeping a lower bound on when the rest can start instead.
    ///
    /// The free capacity is an explicit step profile: distinct breakpoint
    /// times (every estimated end, plus `now`) with the free nodes holding
    /// from each until the next. A job's search is two forward scans from
    /// its class floor (see [`PlanScratch`]): the first breakpoint with
    /// room, then the first later one that dips below the job's width or
    /// reaches the end of its window — accept, or restart past the dip.
    /// A reservation lowers the profile over its window and adds only its
    /// end breakpoint, since every anchor already is one.
    ///
    /// Before each job the same search runs for a phantom job as narrow as
    /// the narrowest and as short as the shortest job left to plan. The
    /// phantom fits wherever one of them fits, and the profile only falls
    /// within a call, so none of them can start before the phantom's
    /// earliest anchor. Once that anchor is after `now`, or there is none,
    /// no job left starts by `now`: planning stops, and the anchor is kept
    /// as the bound ([`PlanScratch::bound`]; `SimTime::MAX` when the queue
    /// ran out or no job left can ever start). The jobs due by `now` are
    /// then the prefix's, and the earlier of the prefix's next start and
    /// the bound is no later than a full plan's next start
    /// ([`PlanScratch::next_decision_time`]). The phantom only grows and
    /// the profile only falls, so its anchor only moves later within a
    /// call: its search resumes from the last anchor, and runs again only
    /// when the phantom grows or a reservation lowers its window.
    ///
    /// The profile lives in `scratch` (read the result via
    /// [`PlanScratch::plan`]), so steady-state calls allocate nothing.
    pub fn plan_conservative(
        &self,
        queue: &[QueuedJob],
        now: SimTime,
        free_now: u32,
        total_nodes: u32,
        scratch: &mut PlanScratch,
    ) {
        let PlanScratch {
            times,
            free,
            floors,
            rest,
            plan,
            bound,
        } = scratch;
        // All estimates maturing at an instant release together, and
        // `now` is a candidate start even when nothing releases then.
        times.clear();
        free.clear();
        let at = self.ends.partition_point(|&(t, _)| t < now);
        let (before, after) = self.ends.split_at(at);
        let mut f = free_now as i64;
        for &(t, n) in before.iter().chain(&[(now, 0)]).chain(after) {
            f += n as i64;
            if times.last() == Some(&t) {
                *free.last_mut().expect("a breakpoint was pushed") = f;
            } else {
                times.push(t);
                free.push(f);
            }
        }
        // The phantom per queue position, last position first: the
        // narrowest width and the shortest estimate from there on, over the
        // jobs that fit the machine (the others plan to `SimTime::MAX`
        // whatever the profile).
        rest.clear();
        let mut phantom = (u32::MAX, SimDuration(i64::MAX));
        rest.extend(queue.iter().rev().map(|job| {
            if job.nodes <= total_nodes {
                phantom = (phantom.0.min(job.nodes), phantom.1.min(job.estimate));
            }
            phantom
        }));
        floors.clear();
        plan.clear();
        *bound = SimTime::MAX;
        // The phantom last searched for, and its earliest anchor then. A
        // reservation can move that anchor only if it lowers the phantom's
        // window.
        let mut searched = None;
        let mut anchor = times[0];
        let mut sweeps = 0u64;
        for (job, &phantom) in queue.iter().zip(rest.iter().rev()) {
            let (nodes, estimate) = phantom;
            if nodes > total_nodes {
                break;
            }
            if searched != Some(phantom) {
                let from = times.partition_point(|&t| t < anchor);
                let Some((i, _)) = earliest_anchor(times, free, from, nodes as i64, estimate)
                else {
                    break;
                };
                anchor = times[i];
                searched = Some(phantom);
            }
            if anchor > now {
                *bound = anchor;
                break;
            }
            if job.nodes > total_nodes {
                plan.push(SimTime::MAX);
                continue;
            }
            sweeps += 1;
            let need = job.nodes as i64;
            let floor = floors.entry((job.nodes, job.estimate)).or_insert(times[0]);
            let from = times.partition_point(|&t| t < *floor);
            let start = match earliest_anchor(times, free, from, need, job.estimate) {
                None => SimTime::MAX,
                Some((i, j)) => {
                    let end = times[i] + job.estimate;
                    // Past the last breakpoint the profile is flat forever,
                    // so `j == len` covers the window whatever the estimate.
                    if end > times[i] {
                        free[i..j].iter_mut().for_each(|f| *f -= need);
                        if times.get(j) != Some(&end) {
                            times.insert(j, end);
                            free.insert(j, free[j - 1] + need);
                        }
                        // Every start is at or past `anchor`; one past the
                        // phantom's window leaves its anchor where it is.
                        if times[i] == anchor || times[i] < anchor + estimate {
                            searched = None;
                        }
                    }
                    times[i]
                }
            };
            *floor = start;
            plan.push(start);
        }
        sraps_obs::add(sraps_obs::Counter::SchedAnchorSweeps, sweeps);
    }
}

/// The earliest breakpoint at or after index `i` where `need` nodes stay
/// free for `estimate`, as `(anchor, window end)`: the window end is the
/// first later breakpoint at or past the anchor plus `estimate`, or
/// `times.len()`. `None` when no breakpoint from `i` on has room.
fn earliest_anchor(
    times: &[SimTime],
    free: &[i64],
    mut i: usize,
    need: i64,
    estimate: SimDuration,
) -> Option<(usize, usize)> {
    loop {
        i += free[i..].iter().position(|&f| f >= need)?;
        let end = times[i] + estimate;
        let j = times[i + 1..]
            .iter()
            .zip(&free[i + 1..])
            .position(|(&t, &f)| t >= end || f < need)
            .map_or(times.len(), |k| i + 1 + k);
        if j < times.len() && times[j] < end {
            // Every anchor before the dip has it inside its window.
            i = j + 1;
            continue;
        }
        return Some((i, j));
    }
}

/// Reusable buffers for [`CapacityTimeline::plan_conservative`]: the
/// per-call capacity profile, class floors, phantom widths and estimates,
/// and resulting plan and bound, retained across scheduler invocations so
/// the conservative hot path stops allocating.
#[derive(Debug, Clone, Default)]
pub struct PlanScratch {
    /// Distinct breakpoint times, ascending.
    times: Vec<SimTime>,
    /// Free nodes over `[times[i], times[i + 1])` (the last: forever).
    free: Vec<i64>,
    /// `(nodes, estimate)` → the last anchor planned for that class this
    /// call. Within one call the profile only ever decreases (a
    /// reservation subtracts; a new breakpoint splits a step without
    /// changing it), so a start infeasible for a class stays infeasible:
    /// the class's earliest feasible anchor never moves earlier, and its
    /// next job's search starts here. `SimTime::MAX` once it never fits.
    floors: HashMap<(u32, SimDuration), SimTime>,
    /// Per queue position, last position first, the narrowest width and
    /// the shortest estimate from there to the end of the queue among the
    /// jobs that fit the machine (`u32::MAX` wide when none does): the
    /// phantom job whose earliest anchor bounds every start left to plan.
    rest: Vec<(u32, SimDuration)>,
    /// One planned start per queue entry of the decided prefix, in queue
    /// order.
    plan: Vec<SimTime>,
    /// The phantom's earliest anchor where planning stopped: after `now`,
    /// and no later than any start left unplanned. `SimTime::MAX` when
    /// nothing is left unplanned that can ever start.
    bound: SimTime,
}

impl PlanScratch {
    pub fn new() -> Self {
        PlanScratch::default()
    }

    /// The decided prefix of the last `plan_conservative` call: one
    /// planned start per queue entry up to where planning stopped, each
    /// equal to [`backfill::conservative_plan`](crate::backfill::conservative_plan)'s
    /// entry. Every job past it would plan to `SimTime::MAX` or at or
    /// after [`bound`](Self::bound), which is after `now`; so the jobs due
    /// by `now` read off the prefix are a full plan's.
    pub fn plan(&self) -> &[SimTime] {
        &self.plan
    }

    /// The last call's bound: no job past [`plan`](Self::plan) can start
    /// before it, and it is after that call's `now` (`SimTime::MAX` when
    /// no job past the prefix can ever start).
    pub fn bound(&self) -> SimTime {
        self.bound
    }

    /// The conservative scheduler's next decision time after a plan at
    /// `now`: the earlier of the prefix's [`next_planned_start`] and the
    /// [`bound`](Self::bound), `None` when neither exists. It is after
    /// `now` and no later than a full plan's next start, so the engine
    /// still calls at every instant the full plan starts a job; a call at
    /// a bound that precedes every real start places nothing.
    pub fn next_decision_time(&self, now: SimTime) -> Option<SimTime> {
        let next = next_planned_start(&self.plan, now)
            .unwrap_or(SimTime::MAX)
            .min(self.bound);
        (next != SimTime::MAX).then_some(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill;
    use sraps_types::{AccountId, JobId, SimDuration};

    fn view(id: u64, nodes: u32, end: i64) -> RunningView {
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

    fn timeline_of(running: &[RunningView]) -> CapacityTimeline {
        let mut t = CapacityTimeline::new();
        for r in running {
            t.add(r.estimated_end, r.nodes);
        }
        t
    }

    #[test]
    fn add_remove_roundtrip_empties() {
        let mut t = CapacityTimeline::new();
        t.add(SimTime::seconds(100), 4);
        t.add(SimTime::seconds(100), 2);
        t.add(SimTime::seconds(50), 8);
        assert_eq!(t.jobs(), 3);
        t.remove(SimTime::seconds(100), 4);
        t.remove(SimTime::seconds(50), 8);
        t.remove(SimTime::seconds(100), 2);
        assert_eq!(t.jobs(), 0);
        assert!(t.matches(&[]));
    }

    #[test]
    fn matches_checks_count_and_width() {
        let running = [view(1, 4, 100), view(2, 6, 200)];
        let t = timeline_of(&running);
        assert!(t.matches(&running));
        assert!(!t.matches(&running[..1]));
    }

    #[test]
    fn easy_reservation_equals_from_scratch() {
        let running = [view(1, 4, 100), view(2, 6, 200), view(3, 2, 100)];
        let t = timeline_of(&running);
        for (head, free) in [(10, 2), (5, 1), (100, 1), (7, 0)] {
            assert_eq!(
                t.easy_reservation(head, free),
                backfill::easy_reservation(head, free, &running),
                "head={head} free={free}"
            );
        }
    }

    #[test]
    fn conservative_plan_equals_from_scratch() {
        let running = [view(1, 6, 100), view(2, 7, 100), view(3, 3, 250)];
        let t = timeline_of(&running);
        let queue = vec![qj(8, 100), qj(2, 50), qj(2, 500), qj(100, 10), qj(16, 40)];
        let mut scratch = PlanScratch::new();
        let now = SimTime::seconds(10);
        t.plan_conservative(&queue, now, 2, 16, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 2, 16, &running);
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        // The second job takes the two nodes free now until t=60, so no
        // job left, 2 nodes wide at the narrowest, can start before then.
        assert_eq!(scratch.plan(), [100, 10].map(SimTime::seconds));
        assert_eq!(scratch.bound(), SimTime::seconds(60));
    }

    #[test]
    fn planning_stops_once_nothing_left_can_start_now() {
        // Two of four nodes run until t=100, and the wide head job takes
        // the whole machine from then. The two nodes free before t=100 fit
        // a 50 s job now. After it, no job left, not even the 10 s one at
        // the tail, can start before t=50: planning stops there, though
        // the tail job was the phantom's estimate all along.
        let running = [view(1, 2, 100)];
        let t = timeline_of(&running);
        let mut queue = vec![qj(4, 100)];
        queue.extend((0..6).map(|_| qj(2, 50)));
        queue.push(qj(2, 10));
        let mut scratch = PlanScratch::new();
        let now = SimTime::ZERO;
        t.plan_conservative(&queue, now, 2, 4, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 2, 4, &running);
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        assert_eq!(scratch.plan(), [100, 0].map(SimTime::seconds));
        assert_eq!(scratch.bound(), SimTime::seconds(50));
    }

    #[test]
    fn hint_comes_from_the_bound_when_a_later_job_starts_first() {
        // One of four nodes is free now, one more at t=50 and two at
        // t=200. The wide head reserves the machine at t=200 and a 1-node
        // job takes the free node until t=40. Planning stops there with
        // the prefix's next start at t=200, but the next job, 2 nodes
        // wide, starts at t=50: the hint must be the bound, not the
        // prefix's next start.
        let running = [view(1, 1, 50), view(2, 2, 200)];
        let t = timeline_of(&running);
        let queue = vec![qj(4, 100), qj(1, 40), qj(2, 100)];
        let mut scratch = PlanScratch::new();
        let now = SimTime::ZERO;
        t.plan_conservative(&queue, now, 1, 4, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 1, 4, &running);
        assert_eq!(full, [200, 0, 50].map(SimTime::seconds));
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        assert_eq!(scratch.plan(), [200, 0].map(SimTime::seconds));
        assert_eq!(
            backfill::next_planned_start(scratch.plan(), now),
            Some(SimTime::seconds(200))
        );
        assert_eq!(scratch.next_decision_time(now), Some(SimTime::seconds(50)));
    }

    #[test]
    fn fast_path_plan_equals_from_scratch() {
        // Plenty of headroom: the narrow jobs anchor at the first
        // breakpoint, the wide one searches past their reservations; both
        // must match the from-scratch planner, including the reservations
        // the narrow jobs leave behind for later queue entries.
        let running = [view(1, 2, 100), view(2, 3, 200)];
        let t = timeline_of(&running);
        let queue = vec![qj(1, 50), qj(2, 80), qj(14, 30), qj(1, 10)];
        let mut scratch = PlanScratch::new();
        let now = SimTime::seconds(10);
        t.plan_conservative(&queue, now, 11, 16, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 11, 16, &running);
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        assert_eq!(scratch.plan()[0], now, "headroom jobs start immediately");
    }

    #[test]
    fn overdue_estimates_count_as_phantom_capacity() {
        // A running job past its estimated end still releases "phantom"
        // nodes in the plan — the overrun case the engine pin relies on.
        let running = [view(1, 8, 50)];
        let t = timeline_of(&running);
        let queue = vec![qj(8, 100)];
        let mut scratch = PlanScratch::new();
        let now = SimTime::seconds(100);
        t.plan_conservative(&queue, now, 0, 8, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 0, 8, &running);
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        assert_eq!(scratch.plan()[0], SimTime::seconds(50), "phantom release");
    }

    #[test]
    fn zero_estimate_job_reserves_nothing() {
        // The zero-estimate 12-node job anchors at t=200, between two
        // 10-node reservations ([100, 200) and [200, 300)). It must leave
        // the profile untouched: a duplicate breakpoint at t=200 would
        // read as a dip there, and the long 6-node job, which fits in the
        // 6 nodes free at every instant, would slip from `now` to t=200.
        let running = [view(1, 10, 100)];
        let t = timeline_of(&running);
        let queue = vec![qj(10, 100), qj(12, 0), qj(10, 100), qj(6, 1_000)];
        let mut scratch = PlanScratch::new();
        let now = SimTime::seconds(10);
        t.plan_conservative(&queue, now, 6, 16, &mut scratch);
        let full = backfill::conservative_plan(&queue, now, 6, 16, &running);
        assert_eq!(
            backfill::check_decided_prefix(scratch.plan(), scratch.bound(), &full, now),
            Ok(())
        );
        assert_eq!(scratch.plan()[1], SimTime::seconds(200));
        assert_eq!(scratch.plan()[3], now, "no phantom dip at t=200");
    }
}
