//! The built-in scheduler: policy ordering + backfill + placement.
//!
//! This is the simulation's hot path on saturated machines, so every
//! per-call rebuild is replaced with incrementally-maintained state:
//! policy order lives in the queue ([`JobQueue::ensure_order_by`]),
//! capacity-release information lives in a [`CapacityTimeline`] fed by
//! the engine's start/complete notifications, and the conservative
//! planner's working buffers persist across calls ([`PlanScratch`]). A
//! scheduler call that places nothing performs no allocation at all.

use crate::backfill::{easy_admits, BackfillKind};
use crate::policy::PolicyKind;
use crate::queue::JobQueue;
use crate::resource_manager::ResourceManager;
use crate::scheduler::{
    snapshot_unsupported, BuiltinSchedulerState, Placement, PlacementPath, SchedContext,
    SchedulerBackend, SchedulerState, SchedulerStats,
};
use crate::timeline::{CapacityTimeline, PlanScratch};
use sraps_types::{JobId, Result, SimTime};

/// The default scheduler (`--scheduler default`): one of the built-in
/// policies combined with a backfill strategy.
#[derive(Debug, Clone)]
pub struct BuiltinScheduler {
    policy: PolicyKind,
    backfill: BackfillKind,
    stats: SchedulerStats,
    /// [`SchedulerBackend::next_decision_time`] answer, refreshed by every
    /// `schedule` call (the engine consults it right after one):
    /// * none/first-fit/EASY — `None`: every built-in policy orders by a
    ///   time-invariant key, EASY admission only hardens as `now`
    ///   advances, so decisions change only at events;
    /// * replay — earliest future recorded start still in the queue;
    /// * conservative — the earlier of the decided prefix's next
    ///   reservation and the planner's bound on every later start
    ///   ([`PlanScratch::next_decision_time`]), or "pin to every tick"
    ///   when a matured reservation could not actually be allocated
    ///   (estimates overran: the plan's phantom free nodes shift with
    ///   `now`, so no sound bound exists).
    decision_hint: Option<SimTime>,
    /// Free-capacity timeline over the running jobs' estimated ends, kept
    /// in lockstep with the engine via the start/complete notifications.
    timeline: CapacityTimeline,
    /// Completions seen so far: versions the account-policy sort keys
    /// (account statistics only move when a job completes).
    completion_epoch: u64,
    /// Conservative-plan working buffers, reused across calls.
    plan: PlanScratch,
    /// Scratch for the ids handed to [`JobQueue::remove_placed`].
    placed_ids: Vec<JobId>,
}

impl BuiltinScheduler {
    pub fn new(policy: PolicyKind, backfill: BackfillKind) -> Self {
        BuiltinScheduler {
            policy,
            backfill,
            stats: SchedulerStats::default(),
            decision_hint: None,
            timeline: CapacityTimeline::new(),
            completion_epoch: 0,
            plan: PlanScratch::new(),
            placed_ids: Vec::new(),
        }
    }

    pub fn policy(&self) -> PolicyKind {
        self.policy
    }

    pub fn backfill(&self) -> BackfillKind {
        self.backfill
    }

    /// Replay placement: jobs start exactly at their recorded start, on
    /// their recorded nodes when those are free (always true for
    /// self-consistent traces); otherwise fall back to first-fit and count
    /// the deviation.
    fn schedule_replay(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        out: &mut Vec<Placement>,
    ) {
        // Queued replay jobs start exactly at their recorded start (or
        // wait for capacity, which only completions — events — release),
        // so the earliest *future* recorded start bounds the next
        // time-driven decision change. Jobs already due are either placed
        // below or stuck on capacity, never a time deadline.
        self.decision_hint = queue
            .jobs()
            .iter()
            .map(|j| j.recorded_start)
            .filter(|&rs| rs > now)
            .min();
        for job in queue.jobs() {
            if job.recorded_start > now {
                continue;
            }
            let (nodes, path) = match &job.recorded_nodes {
                Some(set) if rm.allocate_exact(set).is_ok() => {
                    (set.clone(), PlacementPath::Ordered)
                }
                Some(_) => {
                    // Recorded nodes busy (capture-window edge) → fall back
                    // to count-based placement and flag the deviation.
                    match rm.allocate(job.nodes) {
                        Ok(set) => (set, PlacementPath::RecordedFallback),
                        Err(_) => continue, // machine full; retry next tick
                    }
                }
                // Summary datasets publish no node lists; count-based
                // placement is the expected path, not a fallback.
                None => match rm.allocate(job.nodes) {
                    Ok(set) => (set, PlacementPath::Ordered),
                    Err(_) => continue,
                },
            };
            out.push(Placement::via(job.id, nodes, path));
        }
    }

    /// Scheduled placement: policy order, then walk the queue placing jobs
    /// according to the backfill rule.
    fn schedule_ordered(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
        out: &mut Vec<Placement>,
    ) {
        self.order(queue, ctx);
        self.stats.recomputations += 1;

        if self.backfill == BackfillKind::Conservative {
            return self.schedule_conservative(now, queue, rm, out);
        }
        // Every built-in policy key is time-invariant between events
        // (aging is uniform-rate, so pairwise order never changes), and
        // none/first-fit/EASY admission can only *harden* as `now`
        // advances against a fixed reservation: no internal deadline.
        self.decision_hint = None;

        let mut reservation = None;
        // Nodes virtually consumed by jobs placed in this pass are already
        // reflected in `rm`, so free_count is always current.
        for job in queue.jobs() {
            if reservation.is_none() {
                // Queue-order phase: place until the head blocks.
                if rm.can_allocate(job.nodes) {
                    if let Ok(nodes) = rm.allocate(job.nodes) {
                        out.push(Placement::new(job.id, nodes));
                        continue;
                    }
                }
                // Head blocked: stop (none), or switch to a backfill phase.
                match self.backfill {
                    BackfillKind::None => break,
                    BackfillKind::FirstFit => {
                        // Sentinel reservation admitting any fitting job.
                        reservation = Some(crate::backfill::Reservation {
                            shadow_time: SimTime::MAX,
                            extra_nodes: u32::MAX,
                        });
                        continue;
                    }
                    BackfillKind::Easy => {
                        match self.timeline.easy_reservation(job.nodes, rm.free_count()) {
                            Some(res) => {
                                reservation = Some(res);
                                continue;
                            }
                            // Head cannot ever fit (wider than machine):
                            // skip it and keep scheduling in order.
                            None => continue,
                        }
                    }
                    BackfillKind::Conservative => unreachable!("handled above"),
                }
            }
            // Backfill phase. With zero free nodes no candidate can be
            // admitted (`easy_admits` rejects on width first) and
            // admission is the only thing that mutates reservation or
            // occupancy state — the rest of the walk is a provable no-op.
            // On a saturated machine this truncates the O(queue) scan to
            // the handful of jobs that fit before capacity ran out.
            if rm.free_count() == 0 {
                break;
            }
            let res = reservation.as_mut().expect("set when head blocked");
            if easy_admits(job, now, rm.free_count(), res) {
                // A job that outlives the shadow time was admitted on the
                // strength of the reservation's spare nodes — consume them,
                // or a train of long narrow jobs would eat the head's
                // reserved nodes and starve it.
                if now + job.estimate > res.shadow_time {
                    res.extra_nodes = res.extra_nodes.saturating_sub(job.nodes);
                }
                if let Ok(nodes) = rm.allocate(job.nodes) {
                    out.push(Placement::via(job.id, nodes, PlacementPath::Backfilled));
                }
            }
        }
    }

    /// Conservative backfill: plan reservations in policy order, then
    /// start exactly those whose reserved time has come. The planner stops
    /// once no job left can start by `now`, so the decided prefix it
    /// leaves ([`PlanScratch::plan`]) holds every placement, and the hint
    /// is the earlier of the prefix's next reservation and the bound the
    /// planner keeps on every later start. That may come before any real
    /// start; a call there places nothing.
    fn schedule_conservative(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        out: &mut Vec<Placement>,
    ) {
        let mut scratch = std::mem::take(&mut self.plan);
        self.timeline.plan_conservative(
            queue.jobs(),
            now,
            rm.free_count(),
            rm.total_nodes(),
            &mut scratch,
        );
        let mut unallocatable_due = false;
        let mut placed_any = false;
        for (job, &start) in queue.jobs().iter().zip(scratch.plan()) {
            if start > now {
                continue;
            }
            if let Ok(nodes) = rm.allocate(job.nodes) {
                // Everything after the head position counts as backfilled.
                let path = if placed_any {
                    PlacementPath::Backfilled
                } else {
                    PlacementPath::Ordered
                };
                placed_any = true;
                out.push(Placement::via(job.id, nodes, path));
            } else {
                // The plan thought this reservation matured (estimated
                // ends counted as releases) but the nodes are still busy:
                // the phantom capacity now slides with `now`, re-planning
                // each tick, so later jobs' reservations are unstable.
                unallocatable_due = true;
            }
        }
        self.decision_hint = if unallocatable_due {
            Some(now) // pin: no sound time bound until the plan settles
        } else {
            scratch.next_decision_time(now)
        };
        self.plan = scratch;
    }

    /// Put `queue` in policy order: the first step of an ordered pass
    /// (replay never reorders). The power-cap wrapper calls it alone when
    /// its budget admits nothing, so the queue reads as after a full pass.
    pub(crate) fn order(&self, queue: &mut JobQueue, ctx: &SchedContext<'_>) {
        if self.policy != PolicyKind::Replay {
            self.policy
                .order_incremental(queue, ctx, self.completion_epoch);
        }
    }

    /// Order or plan, allocate each placement on `rm`, record it in the
    /// stats, and append it to `out`: a `schedule` call short of taking
    /// the placed jobs off the queue. The power-cap wrapper calls this
    /// directly, keeps the placements its budget admits, and hands the
    /// others' nodes back to `rm`.
    pub(crate) fn propose(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
        out: &mut Vec<Placement>,
    ) {
        debug_assert!(
            self.timeline.matches(ctx.running),
            "timeline out of lockstep with ctx.running: {} tracked vs {} running",
            self.timeline.jobs(),
            ctx.running.len()
        );
        let _s = sraps_obs::span(sraps_obs::Phase::SchedSchedule);
        self.stats.invocations += 1;
        if self.policy == PolicyKind::Replay {
            self.schedule_replay(now, queue, rm, out);
        } else {
            self.schedule_ordered(now, queue, rm, ctx, out);
        }
        self.stats.record_placements(out);
    }

    /// Take the `placed` jobs off `queue` — the rest of a `schedule` call.
    pub(crate) fn dequeue(&mut self, queue: &mut JobQueue, placed: &[Placement]) {
        self.placed_ids.clear();
        self.placed_ids.extend(placed.iter().map(|p| p.job));
        queue.remove_placed(&self.placed_ids);
    }

    /// The builtin's mid-run state (also what wrappers embed).
    pub(crate) fn state(&self) -> BuiltinSchedulerState {
        BuiltinSchedulerState {
            stats: self.stats,
            decision_hint: self.decision_hint,
            timeline: self.timeline.snapshot(),
            completion_epoch: self.completion_epoch,
        }
    }

    pub(crate) fn apply_state(&mut self, state: &BuiltinSchedulerState) {
        self.stats = state.stats;
        self.decision_hint = state.decision_hint;
        self.timeline.restore(&state.timeline);
        self.completion_epoch = state.completion_epoch;
    }
}

impl SchedulerBackend for BuiltinScheduler {
    fn name(&self) -> &'static str {
        "default"
    }

    fn schedule(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
        out: &mut Vec<Placement>,
    ) -> Result<()> {
        self.propose(now, queue, rm, ctx, out);
        self.dequeue(queue, out);
        Ok(())
    }

    fn on_job_started(&mut self, est_end: SimTime, nodes: u32) {
        self.timeline.add(est_end, nodes);
    }

    fn on_job_completed(&mut self, est_end: SimTime, nodes: u32) {
        self.timeline.remove(est_end, nodes);
        // Account statistics fold in completed jobs, so account-policy
        // sort keys are only stale across completions: version them.
        self.completion_epoch += 1;
    }

    fn next_decision_time(&self, _now: SimTime) -> Option<SimTime> {
        self.decision_hint
    }

    fn stats(&self) -> SchedulerStats {
        self.stats
    }

    fn snapshot_state(&self) -> Result<SchedulerState> {
        Ok(SchedulerState::Builtin(self.state()))
    }

    /// Accepts its own record, and tolerates a power-cap record by
    /// adopting the embedded inner state — the cap-removal direction of a
    /// late-binding fork.
    fn restore_state(&mut self, state: &SchedulerState) -> Result<()> {
        match state {
            SchedulerState::Builtin(s) => self.apply_state(s),
            SchedulerState::PowerCap(s) => self.apply_state(&s.inner),
            SchedulerState::External(_) => return Err(snapshot_unsupported(self.name())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueuedJob;
    use crate::scheduler::RunningView;
    use sraps_types::{AccountId, JobId, NodeSet, SimDuration};

    fn qj(id: u64, submit: i64, nodes: u32, est: i64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            account: AccountId(0),
            submit: SimTime::seconds(submit),
            nodes,
            estimate: SimDuration::seconds(est),
            priority: 0.0,
            ml_score: None,
            recorded_start: SimTime::seconds(submit),
            recorded_nodes: None,
        }
    }

    fn ctx_with<'a>(running: &'a [RunningView]) -> SchedContext<'a> {
        SchedContext {
            running,
            accounts: None,
        }
    }

    /// Engine contract: every entry of `running` was announced to the
    /// scheduler via `on_job_started` before this call (tests do that
    /// with [`announce`]).
    fn schedule(
        s: &mut BuiltinScheduler,
        now: i64,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        running: &[RunningView],
    ) -> Vec<Placement> {
        let mut out = Vec::new();
        s.schedule(
            SimTime::seconds(now),
            queue,
            rm,
            &ctx_with(running),
            &mut out,
        )
        .unwrap();
        out
    }

    fn announce(s: &mut BuiltinScheduler, running: &[RunningView]) {
        for r in running {
            s.on_job_started(r.estimated_end, r.nodes);
        }
    }

    #[test]
    fn fcfs_no_backfill_blocks_behind_head() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::None);
        let mut rm = ResourceManager::new(10);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 8, 100)); // fits
        q.push(qj(2, 1, 8, 100)); // blocks (2 free)
        q.push(qj(3, 2, 1, 100)); // would fit, must NOT run (no backfill)
        let placed = schedule(&mut s, 10, &mut q, &mut rm, &[]);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].job, JobId(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn first_fit_backfills_any_fitting_job() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::FirstFit);
        let mut rm = ResourceManager::new(10);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 8, 100));
        q.push(qj(2, 1, 8, 100)); // blocks
        q.push(qj(3, 2, 2, 1_000_000)); // long but fits → first-fit takes it
        let placed = schedule(&mut s, 10, &mut q, &mut rm, &[]);
        let ids: Vec<u64> = placed.iter().map(|p| p.job.0).collect();
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(s.stats().backfilled, 1);
    }

    #[test]
    fn easy_backfill_respects_reservation() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::Easy);
        let mut rm = ResourceManager::new(10);
        // 8 nodes busy until t=1000 (estimated).
        let busy = rm.allocate(8).unwrap();
        let running = [RunningView {
            id: JobId(100),
            nodes: 8,
            estimated_end: SimTime::seconds(1000),
            power_kw: 0.0,
        }];
        announce(&mut s, &running);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 10, 100)); // head: needs the whole machine → blocked
        q.push(qj(2, 1, 2, 500)); // ends at 10+500 < 1000 → backfills
        q.push(qj(3, 2, 2, 5000)); // would end after shadow & extra=0 → no
        let placed = schedule(&mut s, 10, &mut q, &mut rm, &running);
        let ids: Vec<u64> = placed.iter().map(|p| p.job.0).collect();
        assert_eq!(ids, vec![2]);
        rm.release(&busy);
    }

    #[test]
    fn easy_skips_impossible_head_and_continues() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::Easy);
        let mut rm = ResourceManager::new(4);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 100, 10)); // wider than machine, no running jobs
        q.push(qj(2, 1, 2, 10));
        let placed = schedule(&mut s, 10, &mut q, &mut rm, &[]);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].job, JobId(2));
    }

    #[test]
    fn replay_waits_for_recorded_start_and_uses_recorded_nodes() {
        let mut s = BuiltinScheduler::new(PolicyKind::Replay, BackfillKind::None);
        let mut rm = ResourceManager::new(10);
        let mut q = JobQueue::new();
        let mut j = qj(1, 0, 2, 100);
        j.recorded_start = SimTime::seconds(50);
        j.recorded_nodes = Some(NodeSet::from_indices(vec![7, 8]));
        q.push(j);
        // Too early: nothing placed.
        assert!(schedule(&mut s, 10, &mut q, &mut rm, &[]).is_empty());
        // At recorded start: exact placement honored.
        let placed = schedule(&mut s, 50, &mut q, &mut rm, &[]);
        assert_eq!(placed.len(), 1);
        assert_eq!(placed[0].nodes.as_slice(), &[7, 8]);
        assert_eq!(s.stats().placement_fallbacks, 0);
    }

    #[test]
    fn replay_falls_back_when_recorded_nodes_busy() {
        let mut s = BuiltinScheduler::new(PolicyKind::Replay, BackfillKind::None);
        let mut rm = ResourceManager::new(10);
        rm.allocate_exact(&NodeSet::from_indices(vec![7, 8]))
            .unwrap();
        let mut q = JobQueue::new();
        let mut j = qj(1, 0, 2, 100);
        j.recorded_start = SimTime::seconds(0);
        j.recorded_nodes = Some(NodeSet::from_indices(vec![7, 8]));
        q.push(j);
        let placed = schedule(&mut s, 0, &mut q, &mut rm, &[]);
        assert_eq!(placed.len(), 1);
        assert_ne!(placed[0].nodes.as_slice(), &[7, 8]);
        assert_eq!(s.stats().placement_fallbacks, 1);
    }

    #[test]
    fn placed_jobs_leave_the_queue_and_stats_count() {
        let mut s = BuiltinScheduler::new(PolicyKind::Sjf, BackfillKind::FirstFit);
        let mut rm = ResourceManager::new(4);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 2, 10));
        q.push(qj(2, 0, 2, 5));
        let placed = schedule(&mut s, 0, &mut q, &mut rm, &[]);
        assert_eq!(placed.len(), 2);
        assert!(q.is_empty());
        assert_eq!(s.stats().invocations, 1);
        assert_eq!(s.stats().placements, 2);
        // SJF: shorter job (2) placed first.
        assert_eq!(placed[0].job, JobId(2));
    }

    #[test]
    fn event_bound_backfills_report_no_deadline() {
        for backfill in [
            BackfillKind::None,
            BackfillKind::FirstFit,
            BackfillKind::Easy,
        ] {
            let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, backfill);
            let mut rm = ResourceManager::new(4);
            let mut q = JobQueue::new();
            q.push(qj(1, 0, 8, 100)); // wider than free → blocked
            schedule(&mut s, 10, &mut q, &mut rm, &[]);
            assert_eq!(
                s.next_decision_time(SimTime::seconds(10)),
                None,
                "{backfill:?} must be event-bound"
            );
        }
    }

    #[test]
    fn replay_hint_is_earliest_future_recorded_start() {
        let mut s = BuiltinScheduler::new(PolicyKind::Replay, BackfillKind::None);
        let mut rm = ResourceManager::new(10);
        let mut q = JobQueue::new();
        let mut a = qj(1, 0, 2, 100);
        a.recorded_start = SimTime::seconds(500);
        let mut b = qj(2, 0, 2, 100);
        b.recorded_start = SimTime::seconds(300);
        q.push(a);
        q.push(b);
        schedule(&mut s, 10, &mut q, &mut rm, &[]);
        assert_eq!(
            s.next_decision_time(SimTime::seconds(10)),
            Some(SimTime::seconds(300))
        );
        // Once every queued job is due (stuck on capacity only), the
        // backend is event-bound: completions release capacity.
        rm.allocate(10).unwrap();
        schedule(&mut s, 600, &mut q, &mut rm, &[]);
        assert_eq!(s.next_decision_time(SimTime::seconds(600)), None);
    }

    #[test]
    fn conservative_hint_is_earliest_future_reservation() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::Conservative);
        let mut rm = ResourceManager::new(8);
        let busy = rm.allocate(8).unwrap();
        let running = [RunningView {
            id: JobId(100),
            nodes: 8,
            estimated_end: SimTime::seconds(1000),
            power_kw: 0.0,
        }];
        announce(&mut s, &running);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 8, 100)); // reserved at the running job's est end
        let placed = schedule(&mut s, 10, &mut q, &mut rm, &running);
        assert!(placed.is_empty());
        assert_eq!(
            s.next_decision_time(SimTime::seconds(10)),
            Some(SimTime::seconds(1000)),
            "reservation matures at the estimated end"
        );
        rm.release(&busy);
    }

    #[test]
    fn conservative_pins_when_matured_reservation_cannot_allocate() {
        // The running job overran its estimate: the plan's release at
        // t=50 is phantom, the queued job's reservation matures but the
        // allocation fails — the scheduler must demand per-tick calls.
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::Conservative);
        let mut rm = ResourceManager::new(8);
        let _busy = rm.allocate(8).unwrap();
        let running = [RunningView {
            id: JobId(100),
            nodes: 8,
            estimated_end: SimTime::seconds(50), // already passed
            power_kw: 0.0,
        }];
        announce(&mut s, &running);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 8, 100));
        let placed = schedule(&mut s, 100, &mut q, &mut rm, &running);
        assert!(placed.is_empty(), "nodes are actually still busy");
        assert_eq!(
            s.next_decision_time(SimTime::seconds(100)),
            Some(SimTime::seconds(100)),
            "phantom capacity ⇒ pin to every tick"
        );
    }

    /// A collection-phase table: account 1 drew 0.3 kW per node, account
    /// 2 drew 1.8 kW.
    fn collected_accounts() -> sraps_acct::Accounts {
        let mut acc = sraps_acct::Accounts::new(1.0);
        for (acct, power) in [(1u32, 0.3f64), (2, 1.8)] {
            acc.record(&sraps_acct::JobOutcome {
                id: JobId(0),
                user: sraps_types::UserId(0),
                account: AccountId(acct),
                nodes: 8,
                submit: SimTime::ZERO,
                start: SimTime::ZERO,
                end: SimTime::seconds(3600),
                energy_kwh: power * 8.0,
                avg_node_power_kw: power,
                avg_cpu_util: 0.5,
                avg_gpu_util: 0.0,
                priority: 1.0,
            });
        }
        acc
    }

    /// The one job `policy` starts when account 2's job 10 and account
    /// 1's job 11 both want the whole machine, ranked by the collected
    /// accounts in the context.
    fn account_race(policy: PolicyKind) -> JobId {
        let mut s = BuiltinScheduler::new(policy, BackfillKind::None);
        let mut rm = ResourceManager::new(4);
        let mut q = JobQueue::new();
        for (id, account) in [(10, 2), (11, 1)] {
            let mut job = qj(id, 0, 4, 100);
            job.account = AccountId(account);
            q.push(job);
        }
        let accounts = collected_accounts();
        let ctx = SchedContext {
            running: &[],
            accounts: Some(&accounts),
        };
        let mut placed = Vec::new();
        s.schedule(SimTime::ZERO, &mut q, &mut rm, &ctx, &mut placed)
            .unwrap();
        assert_eq!(placed.len(), 1);
        placed[0].job
    }

    #[test]
    fn fugaku_points_policy_prefers_frugal_account() {
        assert_eq!(account_race(PolicyKind::AcctFugakuPts), JobId(11));
    }

    #[test]
    fn low_avg_power_policy_inverts_avg_power_policy() {
        assert_eq!(account_race(PolicyKind::AcctAvgPower), JobId(10));
        assert_eq!(account_race(PolicyKind::AcctLowAvgPower), JobId(11));
    }

    #[test]
    fn no_double_allocation_across_ticks() {
        let mut s = BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::FirstFit);
        let mut rm = ResourceManager::new(6);
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 4, 100));
        q.push(qj(2, 0, 4, 100));
        let p1 = schedule(&mut s, 0, &mut q, &mut rm, &[]);
        assert_eq!(p1.len(), 1);
        let p2 = schedule(&mut s, 10, &mut q, &mut rm, &[]);
        assert!(p2.is_empty(), "only 2 nodes free");
        rm.release(&p1[0].nodes);
        let p3 = schedule(&mut s, 20, &mut q, &mut rm, &[]);
        assert_eq!(p3.len(), 1);
        assert!(p1[0].nodes.is_disjoint(&p3[0].nodes) || p1[0].nodes == p3[0].nodes);
    }
}
