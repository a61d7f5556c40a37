//! Differential oracle for the power-cap wrapper.
//!
//! [`PowerCapScheduler`] reads running estimates off the running views,
//! keeps a lower bound on the queued estimates, skips the inner pass when
//! that bound exceeds the budget, and then answers `None` from
//! `next_decision_time`. This suite drives it through random call
//! sequences — arrivals, completions and tick advances under caps that
//! bind — and checks every call against a from-scratch reference: the
//! inner builtin run on clones of itself, the queue and the machine,
//! followed by greedy admission with estimates read from a plain map and
//! summed over the running jobs.
//!
//! After every wrapper call the placements (ids, node sets, paths), the
//! queue and the free nodes must equal the reference's. While the wrapper
//! has declared its decisions frozen — after a call that placed nothing,
//! until its deadline or the next arrival or completion — the engine
//! would not call it; the reference, called at those later ticks, must
//! admit nothing.

use proptest::prelude::*;
use sraps_sched::{
    BackfillKind, BuiltinScheduler, JobQueue, Placement, PolicyKind, PowerCapScheduler, QueuedJob,
    ResourceManager, RunningView, SchedContext, SchedulerBackend,
};
use sraps_types::{AccountId, JobId, NodeId, NodeSet, SimDuration, SimTime};
use std::collections::HashMap;
use std::sync::Arc;

const NODES: u32 = 16;
const TICK_S: i64 = 60;

/// A job-power estimate from a draw in `0..100`: NaN, zero, fractional
/// (sums round), or a multiple of 5 kW (sums land exactly on the cap).
fn estimate_kw(code: u32) -> f64 {
    match code {
        0..=4 => f64::NAN,
        5..=14 => 0.0,
        15..=49 => (code as f64 * 1.37) % 60.0,
        _ => 5.0 * ((code - 50) % 13) as f64,
    }
}

fn queued(id: u64, submit: SimTime, nodes: u32, estimate_s: i64) -> QueuedJob {
    QueuedJob {
        id: JobId(id),
        account: AccountId(0),
        submit,
        nodes,
        estimate: SimDuration::seconds(estimate_s),
        priority: 0.0,
        ml_score: None,
        recorded_start: submit,
        recorded_nodes: None,
    }
}

fn ctx(running: &[RunningView]) -> SchedContext<'_> {
    SchedContext {
        running,
        accounts: None,
    }
}

fn free_nodes(rm: &ResourceManager) -> Vec<bool> {
    (0..NODES).map(|n| rm.is_free(NodeId(n))).collect()
}

/// What one wrapper call must produce.
struct Expected {
    placements: Vec<Placement>,
    queue: Vec<QueuedJob>,
    free: Vec<bool>,
}

/// The reference call: the inner pass on clones, then greedy admission
/// over its proposal with the budget summed from `estimates`.
fn reference(
    inner: &BuiltinScheduler,
    now: SimTime,
    queue: &JobQueue,
    rm: &ResourceManager,
    running: &[RunningView],
    cap_kw: f64,
    estimates: &HashMap<JobId, f64>,
) -> Expected {
    let estimate = |id: JobId| estimates.get(&id).copied().unwrap_or(0.0);
    let mut proposed = Vec::new();
    inner
        .clone()
        .schedule(
            now,
            &mut queue.clone(),
            &mut rm.clone(),
            &ctx(running),
            &mut proposed,
        )
        .unwrap();
    let mut budget = cap_kw - running.iter().map(|r| estimate(r.id)).sum::<f64>();
    let placements: Vec<Placement> = proposed
        .into_iter()
        .filter(|p| {
            let kw = estimate(p.job);
            let admit = kw <= budget;
            if admit {
                budget -= kw;
            }
            admit
        })
        .collect();
    let mut order = queue.clone();
    inner.policy().order(&mut order, &ctx(running));
    let admitted: Vec<JobId> = placements.iter().map(|p| p.job).collect();
    order.remove_placed(&admitted);
    let mut machine = rm.clone();
    for p in &placements {
        machine.allocate_exact(&p.nodes).unwrap();
    }
    Expected {
        placements,
        queue: order.jobs().to_vec(),
        free: free_nodes(&machine),
    }
}

/// The engine side of the harness: queue, machine, running jobs, and the
/// wrapper plus the reference's own builtin, both fed every start and
/// completion.
struct Harness {
    now: SimTime,
    queue: JobQueue,
    rm: ResourceManager,
    running: Vec<RunningView>,
    running_nodes: Vec<NodeSet>,
    estimates: HashMap<JobId, f64>,
    /// Wall-time limits, s: a started job's estimated end is `now` plus
    /// its limit.
    walltime_s: HashMap<JobId, i64>,
    cap_kw: f64,
    wrapper: PowerCapScheduler,
    reference_inner: BuiltinScheduler,
    /// Set after a call that placed nothing: the wrapper's decisions are
    /// frozen until this deadline (`None`: until the next event).
    frozen_until: Option<Option<SimTime>>,
}

impl Harness {
    fn start(&mut self, id: JobId, nodes: NodeSet) {
        let est_end = self.now + SimDuration::seconds(self.walltime_s[&id]);
        let width = nodes.len() as u32;
        self.running.push(RunningView {
            id,
            nodes: width,
            estimated_end: est_end,
            power_kw: self.estimates.get(&id).copied().unwrap_or(0.0),
        });
        self.running_nodes.push(nodes);
        self.wrapper.on_job_started(est_end, width);
        self.reference_inner.on_job_started(est_end, width);
    }

    fn complete(&mut self, pick: usize) {
        if self.running.is_empty() {
            return;
        }
        let i = pick % self.running.len();
        let view = self.running.swap_remove(i);
        let nodes = self.running_nodes.swap_remove(i);
        self.rm.release(&nodes);
        self.wrapper
            .on_job_completed(view.estimated_end, view.nodes);
        self.reference_inner
            .on_job_completed(view.estimated_end, view.nodes);
    }

    fn expected(&self) -> Expected {
        reference(
            &self.reference_inner,
            self.now,
            &self.queue,
            &self.rm,
            &self.running,
            self.cap_kw,
            &self.estimates,
        )
    }

    /// One control step at `now`, the way the engine runs it.
    fn step(&mut self) -> Result<(), TestCaseError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        if let Some(deadline) = self.frozen_until {
            if deadline.is_none_or(|t| self.now < t) {
                let expected = self.expected();
                prop_assert!(
                    expected.placements.is_empty(),
                    "at {}: frozen until {:?}, but the reference admits {:?}",
                    self.now,
                    deadline,
                    expected.placements
                );
                return Ok(());
            }
        }
        let expected = self.expected();
        let mut out = Vec::new();
        self.wrapper
            .schedule(
                self.now,
                &mut self.queue,
                &mut self.rm,
                &ctx(&self.running),
                &mut out,
            )
            .unwrap();
        prop_assert_eq!(&out, &expected.placements, "placements at {}", self.now);
        prop_assert_eq!(
            self.queue.jobs(),
            &expected.queue[..],
            "queue at {}",
            self.now
        );
        prop_assert_eq!(
            free_nodes(&self.rm),
            expected.free,
            "free nodes at {}",
            self.now
        );
        self.frozen_until = if out.is_empty() {
            match self.wrapper.next_decision_time(self.now) {
                None => Some(None),
                Some(t) if t > self.now => Some(Some(t)),
                Some(_) => None,
            }
        } else {
            None
        };
        for p in out {
            self.start(p.job, p.nodes);
        }
        Ok(())
    }
}

proptest! {
    /// fcfs and sjf × none, first-fit, EASY and conservative, under caps
    /// of 20–120 kW against jobs of up to 60 kW, some of them already
    /// running (possibly above the cap, as after a late switch) when the
    /// first call comes.
    #[test]
    fn wrapper_matches_the_reference_call_by_call(
        config in (0u32..2, 0u32..4, 2u32..13),
        prepop in prop::collection::vec((1u32..9, 0u32..100, 1i64..40), 0..4),
        ops in prop::collection::vec((0u32..10, 0u32..100, 1u32..19, 1i64..16, 0u32..6), 1..90),
    ) {
        let (policy, backfill, cap) = config;
        let policy = [PolicyKind::Fcfs, PolicyKind::Sjf][policy as usize];
        let backfill = [
            BackfillKind::None,
            BackfillKind::FirstFit,
            BackfillKind::Easy,
            BackfillKind::Conservative,
        ][backfill as usize];
        let cap_kw = 10.0 * cap as f64;
        // Every job's estimate is known up front, as in the engine's
        // window table; the wrapper and the reference share the values.
        let mut estimates = HashMap::new();
        let mut walltime_s = HashMap::new();
        for (id, &(_, code, est)) in prepop.iter().enumerate() {
            estimates.insert(JobId(id as u64), estimate_kw(code));
            walltime_s.insert(JobId(id as u64), est * TICK_S);
        }
        let first_arrival = prepop.len() as u64;
        for (k, &(_, code, _, est, _)) in ops.iter().enumerate() {
            let id = JobId(first_arrival + k as u64);
            estimates.insert(id, estimate_kw(code));
            walltime_s.insert(id, est * TICK_S);
        }
        let table = estimates.iter().map(|(&id, &kw)| (id, kw)).collect();
        let mut h = Harness {
            now: SimTime::ZERO,
            queue: JobQueue::new(),
            rm: ResourceManager::new(NODES),
            running: Vec::new(),
            running_nodes: Vec::new(),
            estimates,
            walltime_s,
            cap_kw,
            wrapper: PowerCapScheduler::new(
                BuiltinScheduler::new(policy, backfill),
                cap_kw,
                Arc::new(table),
            ),
            reference_inner: BuiltinScheduler::new(policy, backfill),
            frozen_until: None,
        };
        for (id, &(nodes, _, _)) in prepop.iter().enumerate() {
            if let Ok(set) = h.rm.allocate(nodes) {
                h.start(JobId(id as u64), set);
            }
        }
        for (k, &(kind, pick, nodes, est, ticks)) in ops.iter().enumerate() {
            match kind {
                0..=3 => {
                    let id = first_arrival + k as u64;
                    h.queue.push(queued(id, h.now, nodes, est * TICK_S));
                    h.frozen_until = None;
                }
                4 | 5 => {
                    h.complete(pick as usize);
                    h.frozen_until = None;
                }
                _ => h.now += SimDuration::seconds(TICK_S * (1 + ticks as i64)),
            }
            h.step()?;
        }
    }
}
