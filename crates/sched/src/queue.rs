//! The scheduler-facing job queue.

use crate::policy::PolicyKind;
use serde::{Deserialize, Serialize};
use sraps_types::{AccountId, JobId, NodeSet, SimDuration, SimTime};
use std::cmp::Ordering;

/// What the scheduler knows about one queued job — deliberately *only*
/// pre-submission information plus the recorded fields replay needs
/// (§3.2.3: "the scheduler is not aware of jobs not yet in the queue", and
/// knows nothing a real scheduler would not).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueuedJob {
    pub id: JobId,
    pub account: AccountId,
    pub submit: SimTime,
    pub nodes: u32,
    /// Runtime estimate (wall-time limit) used for reservations.
    pub estimate: SimDuration,
    /// Site/dataset priority.
    pub priority: f64,
    /// ML pipeline score, if the inference pass annotated this job (§4.4).
    pub ml_score: Option<f64>,
    /// Recorded start (replay only).
    pub recorded_start: SimTime,
    /// Recorded placement (replay only).
    pub recorded_nodes: Option<NodeSet>,
}

/// Identity of the key function a sorted [`JobQueue`] reflects: the
/// policy, plus a version for key sources that can change between calls
/// (account statistics fold in completed jobs, so account-policy keys are
/// versioned by the scheduler's completion count; every other builtin key
/// is a pure function of immutable job fields and stays at epoch 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OrderStamp {
    pub policy: PolicyKind,
    pub key_epoch: u64,
}

/// FIFO-by-submission queue that policies reorder in place each tick.
///
/// The queue maintains its aggregate node demand incrementally (every
/// mutation goes through [`JobQueue::push`] / [`JobQueue::remove_placed`]),
/// so the engine's per-tick `queue_demand` history is O(1) instead of
/// re-summing the queue.
///
/// Policy order is maintained incrementally too: builtin sort keys are
/// time-invariant between queue mutations (PR 4 made even aging a pure
/// function of the job), so once sorted under an [`OrderStamp`], only
/// jobs pushed since need placing — [`JobQueue::ensure_order_by`] inserts
/// them by binary search and falls back to a full stable sort only when
/// the stamp (policy or key version) actually changes.
/// Serialization (engine snapshots) round-trips every field, including
/// the sorted-prefix length and order stamp, so a restored queue resumes
/// the incremental-order fast path without a re-sort.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct JobQueue {
    jobs: Vec<QueuedJob>,
    /// Σ `nodes` over queued jobs, kept in sync by push/remove.
    demand_nodes: u64,
    /// `jobs[..sorted_len]` is in `stamp` order; entries past it are
    /// unsorted arrivals awaiting the next `ensure_order_by`.
    sorted_len: usize,
    /// Which key function the sorted prefix reflects, if any.
    stamp: Option<OrderStamp>,
}

impl JobQueue {
    pub fn new() -> Self {
        JobQueue::default()
    }

    pub fn push(&mut self, job: QueuedJob) {
        self.demand_nodes += job.nodes as u64;
        self.jobs.push(job);
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn jobs(&self) -> &[QueuedJob] {
        &self.jobs
    }

    /// Aggregate node demand of all queued jobs.
    pub fn demand_nodes(&self) -> u64 {
        self.demand_nodes
    }

    /// Remove the queued entries whose ids are in `placed` (called by the
    /// engine after starting them). Removal preserves relative order, so
    /// the sorted prefix stays sorted; only its length shrinks.
    pub fn remove_placed(&mut self, placed: &[JobId]) {
        if placed.is_empty() {
            return;
        }
        let demand = &mut self.demand_nodes;
        let sorted_len = self.sorted_len;
        let mut index = 0usize;
        let mut removed_sorted = 0usize;
        self.jobs.retain(|j| {
            let keep = !placed.contains(&j.id);
            if !keep {
                *demand -= j.nodes as u64;
                if index < sorted_len {
                    removed_sorted += 1;
                }
            }
            index += 1;
            keep
        });
        self.sorted_len -= removed_sorted;
    }

    /// Stable sort by a policy key, breaking ties by submit time then id so
    /// results are deterministic across runs.
    ///
    /// This is the from-scratch path; it forgets any incremental-order
    /// stamp (the key's identity is unknown here). Schedulers use
    /// [`JobQueue::ensure_order_by`] instead.
    pub fn sort_by_key_stable<F: FnMut(&QueuedJob) -> f64>(&mut self, mut key: F) {
        self.jobs.sort_by(|a, b| Self::cmp_by(&mut key, a, b));
        self.stamp = None;
        self.sorted_len = self.jobs.len();
    }

    /// The canonical policy order: ascending key, ties by submit time then
    /// id. Ids are unique, so this is a strict total order — which is why
    /// binary insertion reproduces the stable sort exactly.
    fn cmp_by<F: FnMut(&QueuedJob) -> f64>(key: &mut F, a: &QueuedJob, b: &QueuedJob) -> Ordering {
        key(a)
            .partial_cmp(&key(b))
            .unwrap_or(Ordering::Equal)
            .then(a.submit.cmp(&b.submit))
            .then(a.id.cmp(&b.id))
    }

    /// Establish the total order defined by `key` (ties by submit, then
    /// id), incrementally when possible:
    ///
    /// * stamp matches, no arrivals — nothing to do (the no-op scheduler
    ///   call's path: zero work, zero allocation);
    /// * stamp matches — binary-insert each arrival into the sorted
    ///   prefix (O(log n) key probes each, one `rotate_right` memmove);
    /// * stamp differs (policy switched or the key source was re-versioned)
    ///   — full stable sort, and the stamp is adopted.
    ///
    /// The result is always exactly what [`JobQueue::sort_by_key_stable`]
    /// would produce with the same key.
    pub fn ensure_order_by<F: FnMut(&QueuedJob) -> f64>(&mut self, stamp: OrderStamp, mut key: F) {
        if self.stamp != Some(stamp) {
            sraps_obs::bump(sraps_obs::Counter::QueueResorts);
            self.jobs.sort_by(|a, b| Self::cmp_by(&mut key, a, b));
            self.stamp = Some(stamp);
            self.sorted_len = self.jobs.len();
            return;
        }
        sraps_obs::add(
            sraps_obs::Counter::QueueBinaryInserts,
            (self.jobs.len() - self.sorted_len) as u64,
        );
        for i in self.sorted_len..self.jobs.len() {
            let new_key = key(&self.jobs[i]);
            let (submit, id) = (self.jobs[i].submit, self.jobs[i].id);
            let pos = self.jobs[..i].partition_point(|p| {
                key(p)
                    .partial_cmp(&new_key)
                    .unwrap_or(Ordering::Equal)
                    .then(p.submit.cmp(&submit))
                    .then(p.id.cmp(&id))
                    != Ordering::Greater
            });
            self.jobs[pos..=i].rotate_right(1);
        }
        self.sorted_len = self.jobs.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn qj(id: u64, submit: i64, nodes: u32, est: i64, prio: f64) -> QueuedJob {
        QueuedJob {
            id: JobId(id),
            account: AccountId(0),
            submit: SimTime::seconds(submit),
            nodes,
            estimate: SimDuration::seconds(est),
            priority: prio,
            ml_score: None,
            recorded_start: SimTime::seconds(submit),
            recorded_nodes: None,
        }
    }

    #[test]
    fn push_and_remove_placed() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 10, 0.0));
        q.push(qj(2, 1, 1, 10, 0.0));
        q.push(qj(3, 2, 1, 10, 0.0));
        q.remove_placed(&[JobId(2)]);
        assert_eq!(q.len(), 2);
        assert!(q.jobs().iter().all(|j| j.id != JobId(2)));
    }

    #[test]
    fn demand_nodes_tracks_mutations() {
        let mut q = JobQueue::new();
        assert_eq!(q.demand_nodes(), 0);
        q.push(qj(1, 0, 4, 10, 0.0));
        q.push(qj(2, 1, 16, 10, 0.0));
        q.push(qj(3, 2, 1, 10, 0.0));
        assert_eq!(q.demand_nodes(), 21);
        q.remove_placed(&[JobId(2), JobId(3)]);
        assert_eq!(q.demand_nodes(), 4);
        q.sort_by_key_stable(|j| j.priority);
        assert_eq!(q.demand_nodes(), 4, "sorting must not change demand");
        q.remove_placed(&[JobId(1)]);
        assert_eq!(q.demand_nodes(), 0);
    }

    #[test]
    fn sort_is_stable_and_deterministic() {
        let mut q = JobQueue::new();
        q.push(qj(2, 5, 1, 10, 1.0));
        q.push(qj(1, 5, 1, 10, 1.0)); // same key & submit → id breaks tie
        q.push(qj(3, 0, 1, 10, 1.0));
        q.sort_by_key_stable(|j| j.priority);
        let ids: Vec<u64> = q.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![3, 1, 2]);
    }

    fn stamp() -> OrderStamp {
        OrderStamp {
            policy: PolicyKind::Priority,
            key_epoch: 0,
        }
    }

    fn ids(q: &JobQueue) -> Vec<u64> {
        q.jobs().iter().map(|j| j.id.0).collect()
    }

    #[test]
    fn ensure_order_inserts_arrivals_like_a_full_sort() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 10, 3.0));
        q.push(qj(2, 1, 1, 10, 1.0));
        q.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&q), vec![2, 1]);
        // Arrivals land at their sorted positions without a re-sort.
        q.push(qj(3, 2, 1, 10, 2.0));
        q.push(qj(4, 3, 1, 10, 0.5));
        q.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&q), vec![4, 2, 3, 1]);
        // And match what the stable sort would say.
        let mut full = q.clone();
        full.sort_by_key_stable(|j| j.priority);
        assert_eq!(ids(&q), ids(&full));
    }

    #[test]
    fn ensure_order_resorts_on_stamp_change() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 1, 300, 0.0));
        q.push(qj(2, 1, 1, 100, 9.0));
        q.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&q), vec![1, 2]);
        // New epoch: keys changed identity → full re-sort under new key.
        let bumped = OrderStamp {
            policy: PolicyKind::Priority,
            key_epoch: 1,
        };
        q.ensure_order_by(bumped, |j| -j.priority);
        assert_eq!(ids(&q), vec![2, 1]);
    }

    #[test]
    fn removal_keeps_the_sorted_prefix_consistent() {
        let mut q = JobQueue::new();
        for (id, prio) in [(1, 5.0), (2, 1.0), (3, 3.0), (4, 4.0)] {
            q.push(qj(id, id as i64, 1, 10, prio));
        }
        q.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&q), vec![2, 3, 4, 1]);
        q.remove_placed(&[JobId(3), JobId(1)]);
        q.push(qj(5, 9, 1, 10, 2.0));
        q.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&q), vec![2, 5, 4]);
    }

    #[test]
    fn clone_carries_the_order_stamp() {
        let mut q = JobQueue::new();
        q.push(qj(1, 0, 2, 10, 1.0));
        q.push(qj(2, 1, 3, 10, 0.0));
        q.ensure_order_by(stamp(), |j| j.priority);
        let mut copy = q.clone();
        assert_eq!(ids(&copy), ids(&q));
        assert_eq!(copy.demand_nodes(), q.demand_nodes());
        // The copy sees the same stamp, so ensuring order is a no-op
        // that cannot scramble anything.
        copy.ensure_order_by(stamp(), |j| j.priority);
        assert_eq!(ids(&copy), ids(&q));
    }
}
