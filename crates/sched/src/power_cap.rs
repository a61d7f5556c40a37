//! Power-cap-aware scheduling — the energy-aware direction the paper's
//! discussion motivates ("accurate forecasting of such events can inform
//! energy-aware scheduling to mitigate the effects of such significant
//! fluctuation in the power draw", §4.2.2).
//!
//! [`PowerCapScheduler`] wraps any inner policy and admits its placements
//! only while the facility's estimated *job* power stays under a cap. The
//! per-job power estimates come from whatever the site has — user
//! estimates, fingerprinting, or the ML predictor (§5 names these the
//! candidates); the engine supplies telemetry-derived estimates.

use crate::builtin::BuiltinScheduler;
use crate::queue::{JobQueue, QueuedJob};
use crate::resource_manager::ResourceManager;
use crate::scheduler::{
    snapshot_unsupported, Placement, PowerCapSchedulerState, SchedContext, SchedulerBackend,
    SchedulerState, SchedulerStats,
};
use sraps_types::{JobId, JobIdMap, Result, SimTime};
use std::sync::Arc;

/// A scheduler that enforces an aggregate job-power budget.
pub struct PowerCapScheduler {
    inner: BuiltinScheduler,
    /// Cap on Σ estimated job power, kW (idle/static floor excluded — the
    /// cap governs the *schedulable* portion of the load).
    cap_kw: f64,
    /// Estimated total power per job, kW (nodes × per-node estimate),
    /// shared with every engine over the same window. Read once per
    /// arrival and once per proposal; running jobs carry theirs in
    /// [`RunningView::power_kw`](crate::RunningView::power_kw).
    estimates_kw: Arc<JobIdMap<f64>>,
    /// Placements deferred because of the cap (for reporting).
    deferred: u64,
    /// Whether the most recent `schedule` call deferred anything — the
    /// wrapper's contribution to [`SchedulerBackend::next_decision_time`].
    deferred_last_call: bool,
    /// Whether the most recent `schedule` call skipped the inner pass
    /// because no queued estimate fits the budget. Not snapshotted: the
    /// engine reads it only through `next_decision_time`, right after a
    /// call, and every call sets it.
    nothing_fits: bool,
    /// Lower bound on the smallest queued estimate.
    floor: QueueFloor,
    /// The wrapper's own counters: placements that *took effect*. The
    /// inner scheduler's counters describe its proposals, which the cap
    /// may re-defer call after call — counting those would inflate
    /// `placements`/`backfilled` with every re-proposal (and make them
    /// depend on how often the engine polls the scheduler).
    stats: SchedulerStats,
}

/// A lower bound on the smallest estimate in the queue, at O(1)
/// amortized cost per call. Between calls the engine only appends
/// arrivals (the [`SchedulerBackend`] contract), so the jobs past `seen`
/// are exactly the arrivals since the last call. Removals can only raise
/// the true minimum, so the bound survives them; it is rebuilt only when
/// the job holding it leaves, to keep it tight.
#[derive(Debug, Clone, Copy)]
struct QueueFloor {
    /// Queue length when the last call returned.
    seen: usize,
    /// No greater than any non-NaN queued estimate; `+inf` when there
    /// is none.
    min_kw: f64,
    /// A queued job whose estimate is `min_kw`.
    holder: Option<JobId>,
}

impl QueueFloor {
    /// The bound for a wrapper that has seen no queue yet.
    const UNSEEN: QueueFloor = QueueFloor {
        seen: 0,
        min_kw: f64::INFINITY,
        holder: None,
    };

    /// Lower the bound to cover `jobs`. `<` is false for NaN, so a NaN
    /// estimate never becomes the bound — it can never be admitted
    /// either (`NaN <= budget` is false).
    fn fold(&mut self, jobs: &[QueuedJob], estimate: impl Fn(JobId) -> f64) {
        for j in jobs {
            let kw = estimate(j.id);
            if kw < self.min_kw {
                self.min_kw = kw;
                self.holder = Some(j.id);
            }
        }
    }
}

impl PowerCapScheduler {
    pub fn new(inner: BuiltinScheduler, cap_kw: f64, estimates_kw: Arc<JobIdMap<f64>>) -> Self {
        PowerCapScheduler {
            inner,
            cap_kw,
            estimates_kw,
            deferred: 0,
            deferred_last_call: false,
            nothing_fits: false,
            floor: QueueFloor::UNSEEN,
            stats: SchedulerStats::default(),
        }
    }

    /// Placements deferred by the cap so far, in calls that ran the inner
    /// pass (a call that skips it proposes nothing, so defers nothing).
    pub fn deferred(&self) -> u64 {
        self.deferred
    }
}

impl SchedulerBackend for PowerCapScheduler {
    fn name(&self) -> &'static str {
        "power-cap"
    }

    /// Admission is greedy in proposal order: a proposal is admitted iff
    /// `est <= budget`, and the budget moves only when one is. So if every
    /// queued estimate exceeds the budget, the first proposal is deferred
    /// with the budget unchanged, and so is every later one — the call
    /// admits nothing, whatever the inner policy proposes. The queue floor
    /// bounds every queued estimate from below, so `floor > budget` proves
    /// that without the inner pass, and the call skips it. What the pass
    /// would have done is undone or unobservable: its allocations would
    /// all be released, nothing would leave the queue, the queue order is
    /// still established here, and the rest (inner counters, decision
    /// hint, plan scratch) is diagnostic or rewritten by the next pass
    /// before anything reads it. The edge cases:
    ///
    /// * zero estimates — a zero-kW job fits any budget `>= 0`; the floor
    ///   is then 0, which is not `> budget`, so the pass runs;
    /// * a negative budget — a cap switched on late, above a running load
    ///   already past it — defers even zero-kW jobs (`0 <= -x` is false),
    ///   and `0 > -x` skips: the same answer;
    /// * NaN estimates are never admitted and never lower the floor; a
    ///   NaN budget (a running job with a NaN estimate) fails
    ///   `floor > budget`, so the pass runs and defers everything;
    /// * outage edges move nodes, which changes what the inner pass
    ///   proposes, not what admission admits: the skip reads only
    ///   estimates and the budget;
    /// * replay's recorded starts and conservative's matured reservations
    ///   make jobs due in the inner pass; due jobs are proposals like any
    ///   other, deferred like any other.
    fn schedule(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
        out: &mut Vec<Placement>,
    ) -> Result<()> {
        self.stats.invocations += 1;
        // Budget left after the jobs already running, summed afresh in
        // `ctx.running` order: a running total kept across starts and
        // completions would add and subtract in another order, and the
        // rounding could flip an `est <= budget` at the margin.
        let running_kw: f64 = ctx.running.iter().map(|r| r.power_kw).sum();
        let mut budget = self.cap_kw - running_kw;

        let estimates = &self.estimates_kw;
        let estimate = |id: JobId| estimates.get(&id).copied().unwrap_or(0.0);
        debug_assert!(
            self.floor.seen <= queue.len(),
            "queue shrank between calls: {} seen, {} queued",
            self.floor.seen,
            queue.len()
        );
        self.floor.fold(&queue.jobs()[self.floor.seen..], estimate);
        self.nothing_fits = self.floor.min_kw > budget;
        if self.nothing_fits {
            self.inner.order(queue, ctx);
            self.deferred_last_call = false;
            self.floor.seen = queue.len();
            return Ok(());
        }

        // Let the inner policy place on the real queue and machine, then
        // admit its proposals in order while the budget lasts and hand
        // each deferred proposal's nodes straight back. Admission reads
        // only the estimates and the budget, never the machine, and
        // `release` exactly undoes `allocate` (the nodes were free, and
        // free and down nodes are disjoint), so `rm` ends holding just
        // the admitted placements.
        self.inner.propose(now, queue, rm, ctx, out);
        let proposed = out.len();
        let holder = self.floor.holder;
        let mut holder_admitted = false;
        out.retain(|p| {
            let est = estimate(p.job);
            if est <= budget {
                budget -= est;
                holder_admitted |= Some(p.job) == holder;
                return true;
            }
            rm.release(&p.nodes);
            false
        });
        let deferred = (proposed - out.len()) as u64;
        self.deferred += deferred;
        self.deferred_last_call = deferred > 0;
        sraps_obs::add(sraps_obs::Counter::SchedCapDeferrals, deferred);
        self.stats.record_placements(out);
        self.inner.dequeue(queue, out);
        if holder_admitted {
            self.floor = QueueFloor::UNSEEN;
            self.floor.fold(queue.jobs(), estimate);
        }
        self.floor.seen = queue.len();
        Ok(())
    }

    fn on_job_started(&mut self, est_end: SimTime, nodes: u32) {
        self.inner.on_job_started(est_end, nodes);
    }

    fn on_job_completed(&mut self, est_end: SimTime, nodes: u32) {
        self.inner.on_job_completed(est_end, nodes);
    }

    /// After a call that skipped the inner pass, `None`. The budget moves
    /// only with starts, which happen only inside calls, and with
    /// completions, which are events; the queue grows only at arrivals,
    /// events too. So until the next event every call would skip again,
    /// whatever an inner deadline (a recorded start, a maturing
    /// reservation, an EASY window closing) changes about the proposal.
    ///
    /// Otherwise the budget moves only with the running set, and
    /// admission is a deterministic greedy filter over the inner policy's
    /// proposal, so the wrapper usually inherits the inner deadline. The
    /// exception is a *deferred* proposal under a time-variant backfill
    /// rule:
    ///
    /// * EASY — a deferred proposal still takes its nodes in the inner
    ///   pass, and admission hardens with time; once it ages out of the
    ///   reservation window it is no longer proposed, so its nodes go to
    ///   a different (possibly cheaper) job that can be admitted with no
    ///   event in between;
    /// * conservative — a deferred proposal keeps re-planning a
    ///   reservation anchored at `now`, so its sliding window shifts
    ///   every later job's reservation between events.
    ///
    /// Deferral + EASY/conservative therefore pins the engine to per-tick
    /// calls. None/first-fit proposals are exact functions of queue and
    /// occupancy (no time term), and replay proposals change only at
    /// recorded starts — those keep the inner hint even while deferring.
    fn next_decision_time(&self, now: SimTime) -> Option<SimTime> {
        use crate::backfill::BackfillKind;
        use crate::policy::PolicyKind;
        if self.nothing_fits {
            return None;
        }
        if self.deferred_last_call
            && self.inner.policy() != PolicyKind::Replay
            && matches!(
                self.inner.backfill(),
                BackfillKind::Easy | BackfillKind::Conservative
            )
        {
            return Some(now);
        }
        self.inner.next_decision_time(now)
    }

    fn stats(&self) -> SchedulerStats {
        SchedulerStats {
            // Plan recomputations remain meaningful inner telemetry (they
            // happen per inner pass, like any per-invocation overhead).
            recomputations: self.inner.stats().recomputations,
            ..self.stats
        }
    }

    fn snapshot_state(&self) -> Result<SchedulerState> {
        Ok(SchedulerState::PowerCap(PowerCapSchedulerState {
            inner: self.inner.state(),
            deferred: self.deferred,
            deferred_last_call: self.deferred_last_call,
            stats: self.stats,
        }))
    }

    /// Accepts its own record, and tolerates a plain builtin record — the
    /// cap-applied-at-*t* fork: the prefix ran uncapped, so the wrapper's
    /// own deferral counters start from zero. Everything else the wrapper
    /// holds is construction input, or rebuilt by the next call: the
    /// queue floor restarts from the whole restored queue.
    fn restore_state(&mut self, state: &SchedulerState) -> Result<()> {
        self.floor = QueueFloor::UNSEEN;
        self.nothing_fits = false;
        match state {
            SchedulerState::PowerCap(s) => {
                self.inner.apply_state(&s.inner);
                self.deferred = s.deferred;
                self.deferred_last_call = s.deferred_last_call;
                self.stats = s.stats;
            }
            SchedulerState::Builtin(s) => {
                self.inner.apply_state(s);
                self.deferred = 0;
                self.deferred_last_call = false;
                self.stats = SchedulerStats::default();
            }
            SchedulerState::External(_) => return Err(snapshot_unsupported(self.name())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::BackfillKind;
    use crate::policy::PolicyKind;
    use crate::queue::QueuedJob;
    use sraps_types::{AccountId, NodeId, NodeSet, SimDuration};

    fn qj(id: u64, nodes: u32) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            account: AccountId(0),
            submit: SimTime::ZERO,
            nodes,
            estimate: SimDuration::seconds(100),
            priority: 0.0,
            ml_score: None,
            recorded_start: SimTime::ZERO,
            recorded_nodes: None,
        }
    }

    fn capped(cap_kw: f64, estimates: &[(u64, f64)]) -> PowerCapScheduler {
        PowerCapScheduler::new(
            BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::FirstFit),
            cap_kw,
            Arc::new(estimates.iter().map(|&(id, kw)| (JobId(id), kw)).collect()),
        )
    }

    fn ctx() -> SchedContext<'static> {
        SchedContext {
            running: &[],
            accounts: None,
        }
    }

    fn run(
        s: &mut PowerCapScheduler,
        now: SimTime,
        q: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
    ) -> Vec<Placement> {
        let mut out = Vec::new();
        s.schedule(now, q, rm, ctx, &mut out).unwrap();
        out
    }

    #[test]
    fn admits_until_budget_exhausted() {
        let mut s = capped(100.0, &[(1, 60.0), (2, 60.0), (3, 30.0)]);
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 2));
        q.push(qj(3, 2));
        let mut rm = ResourceManager::new(16);
        let placed = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &ctx());
        let ids: Vec<u64> = placed.iter().map(|p| p.job.0).collect();
        // Job 1 (60) fits; job 2 (60) would exceed 100; job 3 (30) fits.
        assert_eq!(ids, vec![1, 3]);
        assert_eq!(s.deferred(), 1);
        assert_eq!(q.len(), 1, "deferred job stays queued");
    }

    #[test]
    fn running_jobs_consume_budget() {
        // The running job's estimate rides its view. Job 2's estimate
        // fits what that leaves, but job 2 is wider than the machine: the
        // inner pass runs (something could fit the budget) and proposes
        // only job 1, which the cap defers.
        let mut s = capped(100.0, &[(1, 50.0), (2, 10.0)]);
        let running = [crate::scheduler::RunningView {
            id: JobId(9),
            nodes: 4,
            estimated_end: SimTime::seconds(1000),
            power_kw: 80.0,
        }];
        s.on_job_started(SimTime::seconds(1000), 4);
        let c = SchedContext {
            running: &running,
            accounts: None,
        };
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 17));
        let mut rm = ResourceManager::new(16);
        rm.allocate(4).unwrap(); // the running job's nodes
        let placed = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &c);
        assert!(placed.is_empty(), "80 running + 50 requested > 100 cap");
        assert_eq!(s.deferred(), 1);
    }

    #[test]
    fn deferred_jobs_run_once_power_frees_up() {
        let mut s = capped(100.0, &[(1, 90.0), (2, 90.0)]);
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 2));
        let mut rm = ResourceManager::new(8);
        let first = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &ctx());
        assert_eq!(first.len(), 1);
        // Job 1 finished: nodes released, no longer in ctx.running.
        rm.release(&first[0].nodes);
        let second = run(&mut s, SimTime::seconds(100), &mut q, &mut rm, &ctx());
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].job, JobId(2));
    }

    #[test]
    fn deferring_every_proposal_leaves_machine_and_queue_as_they_were() {
        // Jobs 1–3 each exceed the cap on their own; job 4 fits the
        // budget but not the machine, so the inner pass still runs. It
        // proposes jobs 1–3, and the wrapper defers all three.
        let mut s = capped(50.0, &[(1, 60.0), (2, 70.0), (3, 80.0), (4, 10.0)]);
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 3));
        q.push(qj(3, 1));
        q.push(qj(4, 17));
        let mut rm = ResourceManager::new(16);
        rm.allocate(4).unwrap();
        rm.mark_down(&NodeSet::from_indices(vec![9]));
        let free = |rm: &ResourceManager| -> Vec<bool> {
            (0..16).map(|n| rm.is_free(NodeId(n))).collect()
        };
        let (free_before, count_before) = (free(&rm), rm.free_count());
        let (jobs_before, demand_before) = (q.jobs().to_vec(), q.demand_nodes());
        let placed = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &ctx());
        assert!(placed.is_empty());
        assert_eq!(s.deferred(), 3);
        assert_eq!(free(&rm), free_before, "deferred nodes are free again");
        assert_eq!(rm.free_count(), count_before);
        assert_eq!(rm.down_count(), 1);
        assert_eq!(q.jobs(), &jobs_before[..], "every job still queued");
        assert_eq!(q.demand_nodes(), demand_before);
    }

    #[test]
    fn skips_the_pass_while_nothing_fits_until_a_cheaper_arrival() {
        let mut s = PowerCapScheduler::new(
            BuiltinScheduler::new(PolicyKind::Fcfs, BackfillKind::Easy),
            50.0,
            Arc::new(
                [(1, 60.0), (2, 70.0), (3, 10.0)]
                    .map(|(id, kw)| (JobId(id), kw))
                    .into_iter()
                    .collect(),
            ),
        );
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 3));
        let mut rm = ResourceManager::new(16);
        let now = SimTime::seconds(10);
        let placed = run(&mut s, now, &mut q, &mut rm, &ctx());
        assert!(placed.is_empty());
        assert_eq!(s.deferred(), 0, "no pass ran, so nothing was proposed");
        assert_eq!(s.next_decision_time(now), None, "frozen until an event");
        assert_eq!((q.len(), rm.free_count()), (2, 16));
        // An arrival the budget admits must lift the skip.
        q.push(qj(3, 1));
        let placed = run(&mut s, SimTime::seconds(20), &mut q, &mut rm, &ctx());
        let ids: Vec<u64> = placed.iter().map(|p| p.job.0).collect();
        assert_eq!(ids, vec![3]);
        assert_eq!(s.deferred(), 2);
    }

    #[test]
    fn unknown_estimates_pass_freely() {
        // Jobs without estimates cost 0 budget (no data ⇒ no veto).
        let mut s = capped(10.0, &[]);
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        let mut rm = ResourceManager::new(8);
        let placed = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &ctx());
        assert_eq!(placed.len(), 1);
    }

    #[test]
    fn consecutive_calls_see_the_real_state() {
        // Consecutive calls with mutating real state: each places on the
        // machine exactly as the previous calls and releases left it.
        let mut s = capped(1000.0, &[(1, 10.0), (2, 10.0), (3, 10.0)]);
        let mut q = JobQueue::new();
        q.push(qj(1, 2));
        q.push(qj(2, 2));
        let mut rm = ResourceManager::new(4);
        let first = run(&mut s, SimTime::ZERO, &mut q, &mut rm, &ctx());
        assert_eq!(first.len(), 2);
        assert!(q.is_empty());
        q.push(qj(3, 2));
        let blocked = run(&mut s, SimTime::seconds(60), &mut q, &mut rm, &ctx());
        assert!(blocked.is_empty(), "machine is full");
        rm.release(&first[0].nodes);
        let third = run(&mut s, SimTime::seconds(120), &mut q, &mut rm, &ctx());
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].job, JobId(3));
    }
}
