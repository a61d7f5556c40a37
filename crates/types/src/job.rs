//! Jobs and their lifecycle.
//!
//! A [`Job`] carries everything a dataloader extracts for scheduling
//! (§3.2.2: submit/start/end time, time limit, requested node count or the
//! exact recorded node set) plus the telemetry used by the digital-twin
//! replay, and bookkeeping the engine fills in as the job moves through
//! [`JobState`].

use crate::node::NodeSet;
use crate::telemetry::JobTelemetry;
use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Unique job identifier within one dataset.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct JobId(pub u64);

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// A map keyed by [`JobId`] for per-job lookups on hot paths. Job ids
/// come from datasets, not from an adversary, so the default SipHash's
/// flooding defence buys nothing, and [`JobIdHasher`] costs one multiply.
pub type JobIdMap<V> = HashMap<JobId, V, BuildHasherDefault<JobIdHasher>>;

/// [`JobIdMap`]'s hasher: the FxHash step (rotate, xor, multiply) per
/// written word, with the well-mixed high bits rotated down into the
/// bucket index.
#[derive(Debug, Default, Clone, Copy)]
pub struct JobIdHasher(u64);

impl Hasher for JobIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// Identifier of the submitting user (anonymized in the open datasets).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct UserId(pub u32);

/// Identifier of the charged account/project; the unit of the incentive
/// structures of §4.3.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct AccountId(pub u32);

impl fmt::Display for AccountId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "acct{}", self.0)
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobState {
    /// Known to the dataset, not yet submitted in simulation time. The
    /// scheduler must not see these (§3.2.3: "the digital twin observes the
    /// jobs as they are submitted, just like a real system").
    Unsubmitted,
    /// Submitted and waiting in the scheduler queue.
    Queued,
    /// Placed on nodes and executing.
    Running,
    /// Finished (ran to completion of its recorded/estimated duration).
    Completed,
    /// Outside the simulation window (ended before start or submitted after
    /// end) and therefore never simulated (§3.2.2: "dismissed").
    Dismissed,
}

/// A batch job as loaded from a dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    pub id: JobId,
    pub user: UserId,
    pub account: AccountId,

    /// When the user submitted the job.
    pub submit: SimTime,
    /// Recorded start time in the source telemetry (replay uses it; a
    /// rescheduler is free to start anywhere ≥ `submit`).
    pub recorded_start: SimTime,
    /// Recorded end time in the source telemetry.
    pub recorded_end: SimTime,
    /// The user-requested wall-time limit. Schedulers use this as the
    /// runtime *estimate* (EASY backfill reservations are computed from it).
    pub walltime_limit: SimDuration,
    /// Number of whole nodes requested.
    pub nodes_requested: u32,
    /// Exact recorded placement, when the dataset provides it. Replay mode
    /// enforces this placement (§3.2.3); reschedule ignores it.
    pub recorded_nodes: Option<NodeSet>,
    /// Dataset- or site-assigned priority (higher = more urgent). For
    /// Frontier this encodes the node-count-boosted FIFO of \[16\].
    pub priority: f64,
    /// Telemetry for the digital-twin models.
    pub telemetry: JobTelemetry,
    /// Score attached by the ML inference pipeline (§4.4); consumed by the
    /// `ml` policy. Lower score = schedule earlier.
    pub ml_score: Option<f64>,
}

impl Job {
    /// The recorded duration — what the job will actually run for when
    /// re-scheduled (the application does the same work regardless of when
    /// it starts).
    pub fn duration(&self) -> SimDuration {
        (self.recorded_end - self.recorded_start).clamp_non_negative()
    }

    /// Runtime estimate available to the scheduler *before* the job runs:
    /// the wall-time limit when present, otherwise the recorded duration.
    pub fn estimate(&self) -> SimDuration {
        if self.walltime_limit.is_positive() {
            self.walltime_limit
        } else {
            self.duration()
        }
    }

    /// Node-hours of the recorded execution.
    pub fn node_hours(&self) -> f64 {
        self.nodes_requested as f64 * self.duration().as_hours_f64()
    }
}

/// Builder for [`Job`] — dataloaders assemble jobs field by field from
/// heterogeneous dataset schemas, so a builder keeps call sites readable.
#[derive(Debug, Clone)]
pub struct JobBuilder {
    job: Job,
}

impl JobBuilder {
    pub fn new(id: u64) -> Self {
        JobBuilder {
            job: Job {
                id: JobId(id),
                user: UserId(0),
                account: AccountId(0),
                submit: SimTime::ZERO,
                recorded_start: SimTime::ZERO,
                recorded_end: SimTime::ZERO,
                walltime_limit: SimDuration::ZERO,
                nodes_requested: 1,
                recorded_nodes: None,
                priority: 0.0,
                telemetry: JobTelemetry::default(),
                ml_score: None,
            },
        }
    }

    pub fn user(mut self, u: u32) -> Self {
        self.job.user = UserId(u);
        self
    }

    pub fn account(mut self, a: u32) -> Self {
        self.job.account = AccountId(a);
        self
    }

    pub fn submit(mut self, t: SimTime) -> Self {
        self.job.submit = t;
        self
    }

    pub fn window(mut self, start: SimTime, end: SimTime) -> Self {
        self.job.recorded_start = start;
        self.job.recorded_end = end;
        self
    }

    pub fn walltime(mut self, d: SimDuration) -> Self {
        self.job.walltime_limit = d;
        self
    }

    pub fn nodes(mut self, n: u32) -> Self {
        self.job.nodes_requested = n;
        self
    }

    pub fn placement(mut self, nodes: NodeSet) -> Self {
        self.job.recorded_nodes = Some(nodes);
        self
    }

    pub fn priority(mut self, p: f64) -> Self {
        self.job.priority = p;
        self
    }

    pub fn telemetry(mut self, t: JobTelemetry) -> Self {
        self.job.telemetry = t;
        self
    }

    pub fn ml_score(mut self, s: f64) -> Self {
        self.job.ml_score = Some(s);
        self
    }

    /// Finish the builder. Panics (debug) if times are inconsistent, which
    /// signals a dataloader bug rather than bad data — loaders must repair
    /// or reject malformed records before building.
    pub fn build(self) -> Job {
        debug_assert!(
            self.job.submit <= self.job.recorded_start || self.job.recorded_start == SimTime::ZERO,
            "job {}: submit after recorded start",
            self.job.id
        );
        self.job
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        JobBuilder::new(1)
            .submit(SimTime::seconds(100))
            .window(SimTime::seconds(200), SimTime::seconds(500))
            .walltime(SimDuration::seconds(600))
            .nodes(4)
            .build()
    }

    #[test]
    fn duration_from_recorded_window() {
        assert_eq!(job().duration(), SimDuration::seconds(300));
    }

    #[test]
    fn duration_clamps_inverted_window() {
        let j = JobBuilder::new(2)
            .window(SimTime::seconds(500), SimTime::seconds(400))
            .build();
        assert_eq!(j.duration(), SimDuration::ZERO);
    }

    #[test]
    fn estimate_prefers_walltime_limit() {
        assert_eq!(job().estimate(), SimDuration::seconds(600));
        let j = JobBuilder::new(3)
            .window(SimTime::ZERO, SimTime::seconds(120))
            .build();
        assert_eq!(j.estimate(), SimDuration::seconds(120));
    }

    #[test]
    fn node_hours() {
        // 4 nodes for 300 s = 4 * 300/3600 node-hours.
        assert!((job().node_hours() - 4.0 * 300.0 / 3600.0).abs() < 1e-12);
    }

    #[test]
    fn builder_sets_all_fields() {
        let j = JobBuilder::new(9)
            .user(3)
            .account(7)
            .priority(42.0)
            .placement(NodeSet::contiguous(0, 2))
            .ml_score(1.5)
            .build();
        assert_eq!(j.user, UserId(3));
        assert_eq!(j.account, AccountId(7));
        assert_eq!(j.priority, 42.0);
        assert_eq!(j.recorded_nodes.as_ref().unwrap().len(), 2);
        assert_eq!(j.ml_score, Some(1.5));
    }
}
