//! The scheduler abstraction (§3.2.4): the contract between the simulation
//! engine and any scheduler, built-in or external.

use crate::queue::JobQueue;
use crate::resource_manager::ResourceManager;
use crate::timeline::TimelineState;
use serde::{Deserialize, Serialize};
use sraps_acct::Accounts;
use sraps_types::{JobId, NodeSet, Result, SimTime, SrapsError};

/// How a placement came about — carried on the [`Placement`] itself so
/// wrappers that admit only a subset of a proposal (the power-cap
/// scheduler) can attribute statistics to the placements that actually
/// took effect instead of to everything the inner policy proposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPath {
    /// Queue/policy order, or replay on its recorded nodes.
    #[default]
    Ordered,
    /// A backfill rule moved it ahead of queue order.
    Backfilled,
    /// Replay fell back from busy recorded nodes to count-based placement
    /// (capture-window edge).
    RecordedFallback,
}

/// A placement decision: start `job` now on `nodes`.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    pub job: JobId,
    pub nodes: NodeSet,
    pub path: PlacementPath,
}

impl Placement {
    pub fn new(job: JobId, nodes: NodeSet) -> Placement {
        Placement {
            job,
            nodes,
            path: PlacementPath::Ordered,
        }
    }

    pub fn via(job: JobId, nodes: NodeSet, path: PlacementPath) -> Placement {
        Placement { job, nodes, path }
    }
}

/// The scheduler's view of one running job — what a real batch system
/// would know: when the job is *expected* to end (from its wall-time
/// limit), not when it actually will, and what it is *expected* to draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunningView {
    pub id: JobId,
    pub nodes: u32,
    /// Estimated end = start + wall-time limit.
    pub estimated_end: SimTime,
    /// Estimated total power, kW — the power-cap wrapper's budget input,
    /// stamped once when the job starts (0 when the run has no cap).
    pub power_kw: f64,
}

/// Read-only context handed to the scheduler each invocation.
pub struct SchedContext<'a> {
    /// Jobs currently executing (for reservation computation).
    pub running: &'a [RunningView],
    /// Account statistics from a collection run, when the incentive
    /// policies are active (§4.3).
    pub accounts: Option<&'a Accounts>,
}

/// Counters every backend maintains; surfaced in the run statistics so the
/// overhead comparisons of §4.2 can be reproduced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Times `schedule` was invoked by the engine.
    pub invocations: u64,
    /// Jobs placed.
    pub placements: u64,
    /// Full schedule recomputations performed (≫ placements for the
    /// recompute-per-event ScheduleFlow integration).
    pub recomputations: u64,
    /// Replay placements that fell back from the recorded node set to a
    /// first-fit allocation (recorded nodes busy — capture-window edge).
    pub placement_fallbacks: u64,
    /// Jobs placed via a backfill path rather than queue order.
    pub backfilled: u64,
}

impl SchedulerStats {
    /// Fold a batch of *effected* placements into the placement-derived
    /// counters, attributing by [`PlacementPath`].
    pub fn record_placements(&mut self, placed: &[Placement]) {
        self.placements += placed.len() as u64;
        for p in placed {
            match p.path {
                PlacementPath::Ordered => {}
                PlacementPath::Backfilled => self.backfilled += 1,
                PlacementPath::RecordedFallback => self.placement_fallbacks += 1,
            }
        }
    }
}

/// Serializable mid-run state of a scheduler backend — everything a
/// backend accumulates between `schedule` calls that is not rebuilt from
/// its construction inputs. Captured by
/// [`SchedulerBackend::snapshot_state`] and replayed into a freshly
/// constructed backend by [`SchedulerBackend::restore_state`], so an
/// engine snapshot round-trips the PR 5 incremental structures (capacity
/// timeline, decision hints, power-cap deferral state, external-adapter
/// bookkeeping) bit-identically.
///
/// Restoration is tolerant across *wrapper* boundaries: a
/// [`SchedulerState::Builtin`] record restores into a power-cap wrapper
/// (the wrapper's own counters start at zero) and vice versa. That is
/// what makes late-binding forks — "run uncapped to *t*, then continue
/// under a cap" — a plain snapshot/restore composition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SchedulerState {
    /// [`crate::BuiltinScheduler`] (also the state the experimental
    /// wrapper delegates to — its account table is construction input).
    Builtin(BuiltinSchedulerState),
    /// [`crate::PowerCapScheduler`] wrapper around a builtin.
    PowerCap(PowerCapSchedulerState),
    /// An external-simulator adapter: bookkeeping plus the engine's own
    /// opaque serialized state.
    External(ExternalSchedulerState),
}

/// Mid-run state of the builtin scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BuiltinSchedulerState {
    pub stats: SchedulerStats,
    /// The cached [`SchedulerBackend::next_decision_time`] answer.
    pub decision_hint: Option<SimTime>,
    pub timeline: TimelineState,
    pub completion_epoch: u64,
}

/// Mid-run state of the power-cap wrapper (inner builtin included).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCapSchedulerState {
    pub inner: BuiltinSchedulerState,
    pub deferred: u64,
    pub deferred_last_call: bool,
    pub stats: SchedulerStats,
}

/// Mid-run state of an external-scheduler adapter. The wrapped engine
/// serializes itself to an opaque `engine` blob (JSON by convention) via
/// its own snapshot hooks, so this crate needs no knowledge of the
/// engine's internals.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExternalSchedulerState {
    /// Sorted ids already forwarded as submissions.
    pub submitted: Vec<JobId>,
    /// Sorted ids the adapter last saw running.
    pub last_running: Vec<JobId>,
    pub stats: SchedulerStats,
    pub engine: String,
}

/// The uniform "this backend/state combination cannot round-trip" error.
pub fn snapshot_unsupported(name: &str) -> SrapsError {
    SrapsError::Snapshot(format!(
        "scheduler '{name}' does not support state snapshots"
    ))
}

/// Any scheduler S-RAPS can drive: the built-in one, the experimental
/// account-priority one, or adapters around external simulators (§4.2).
///
/// The engine guarantees: `queue` contains only submitted, unstarted jobs;
/// `rm` reflects current occupancy; invocations are monotone in `now`.
/// Between calls the engine only pushes to `queue` (arrivals append at
/// the end); only `schedule` itself reorders queued jobs or removes them.
/// The backend guarantees: returned placements reference queued job ids
/// and nodes handed out by `rm` within this call.
pub trait SchedulerBackend {
    /// Name for logs and output directories.
    fn name(&self) -> &'static str;

    /// Decide placements for this tick, appending them to `out` (handed
    /// in empty; the engine owns and reuses the buffer across calls so
    /// the hot path stops allocating a placement list per invocation).
    /// Implementations allocate from `rm` themselves so the engine can
    /// trust the returned node sets.
    fn schedule(
        &mut self,
        now: SimTime,
        queue: &mut JobQueue,
        rm: &mut ResourceManager,
        ctx: &SchedContext<'_>,
        out: &mut Vec<Placement>,
    ) -> Result<()>;

    /// Notification: a job `nodes` wide started (or was prepopulated)
    /// with scheduler-visible estimated end `est_end`. The engine calls
    /// this for every activation, letting backends maintain incremental
    /// state — the builtin scheduler's free-capacity timeline — instead
    /// of rebuilding it from [`SchedContext::running`] each invocation.
    fn on_job_started(&mut self, _est_end: SimTime, _nodes: u32) {}

    /// Notification: a running job completed and released its nodes.
    /// `est_end`/`nodes` match the values its `on_job_started` carried.
    fn on_job_completed(&mut self, _est_end: SimTime, _nodes: u32) {}

    /// The earliest future instant at which this backend's scheduling
    /// answer could change *without* an engine-visible event (completion,
    /// submission, outage edge) happening first — an internal deadline
    /// such as a conservative reservation maturing, a replay job reaching
    /// its recorded start, or an external engine's internal completion.
    ///
    /// The engine's event core consults this immediately after a
    /// [`SchedulerBackend::schedule`] call that placed nothing, so
    /// implementations may answer from state cached by that call:
    ///
    /// * `None` — fully event-bound: no internal deadline exists; the
    ///   engine may skip straight to its event horizon.
    /// * `Some(t)` with `t > now` — decisions are frozen before `t`; the
    ///   engine may skip to `min(horizon, t)`.
    /// * `Some(t)` with `t <= now` — the backend cannot bound its next
    ///   decision change; the engine must offer the queue every tick.
    ///
    /// The default, `Some(now)`, is the always-sound "call me every tick".
    fn next_decision_time(&self, now: SimTime) -> Option<SimTime> {
        Some(now)
    }

    /// Cumulative counters.
    fn stats(&self) -> SchedulerStats;

    /// Capture this backend's mid-run state for an engine snapshot.
    ///
    /// The default refuses: a backend must opt in, because a silently
    /// partial snapshot would restore into a run that diverges from the
    /// uninterrupted one — the one guarantee snapshots exist to give.
    fn snapshot_state(&self) -> Result<SchedulerState> {
        Err(snapshot_unsupported(self.name()))
    }

    /// Replay a previously captured state into this freshly constructed
    /// backend, after which scheduling continues bit-identically to the
    /// run the state was captured from.
    fn restore_state(&mut self, _state: &SchedulerState) -> Result<()> {
        Err(snapshot_unsupported(self.name()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_default_is_zeroed() {
        let s = SchedulerStats::default();
        assert_eq!(s.invocations, 0);
        assert_eq!(s.placements, 0);
    }
}
