//! Serializable engine state: pause a run mid-window, persist it, and
//! rebuild an engine that continues bit-identically.
//!
//! [`EngineSnapshot`] is the full state of [`crate::Engine`] at a tick
//! boundary — everything [`crate::Engine::run`] mutates, and nothing it
//! can rebuild deterministically from the config and the shared window
//! (completion heap, running views, trace profiles, outage edges, the
//! physical models). Restore goes through [`crate::Engine::resume`]; the
//! snapshot carries [`crate::fingerprint::ENGINE_SCHEMA_VERSION`], so a
//! snapshot written by an engine whose state layout has since changed is
//! rejected instead of silently resuming wrong.
//!
//! Because `--checkpoint` files outlive the process that wrote them, the
//! schema is pinned by a golden fixture in the repo's test suite: any
//! field change must bump `ENGINE_SCHEMA_VERSION`.

use serde::{Deserialize, Serialize};
use sraps_acct::{Accounts, JobOutcome};
use sraps_cooling::CoolingSample;
use sraps_power::PowerSample;
use sraps_sched::{JobQueue, ResourceManager, SchedulerState};
use sraps_types::{JobId, NodeSet, SimDuration, SimTime};

/// One running job as captured mid-run. The trace profile classification
/// and the scheduler-facing running view are recomputed on restore (both
/// are deterministic functions of the job's telemetry and these fields).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ActiveSnapshot {
    pub id: JobId,
    /// Index into the shared window job set — validated against the job
    /// id on restore.
    pub job: usize,
    pub nodes: NodeSet,
    pub start: SimTime,
    pub actual_end: SimTime,
    pub est_end: SimTime,
    pub telemetry_offset: SimDuration,
    pub energy_kwh: f64,
    pub node_power_sum_kw: f64,
    pub cpu_util_sum: f64,
    pub gpu_util_sum: f64,
    pub ticks: u64,
}

/// The full mid-run state of an [`crate::Engine`], taken by
/// [`crate::Engine::snapshot`] at a tick boundary.
///
/// Restoring over the same window and config continues the run
/// bit-identically to never having paused (histories, outcomes, and
/// scheduler counters included — the resume-parity suite pins this).
/// Restoring under a *different* late-binding config (a power cap, a
/// policy switch) forks the run at the captured instant: the scheduler
/// state round-trips across compatible backend variants, and the queue's
/// order stamp names its policy, so a cross-policy fork re-sorts exactly
/// once.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// [`crate::fingerprint::ENGINE_SCHEMA_VERSION`] at capture time.
    pub schema: u32,
    /// Size of the window job set the indices below refer to.
    pub jobs_len: usize,
    /// The paused instant (a tick boundary).
    pub now: SimTime,
    /// Tick instants left to visit.
    pub remaining: i64,
    /// Ticks of the current decided span not yet advanced — control
    /// already ran for them, so resume must not run it again.
    pub span_left: i64,
    /// Cursor into the window's pending-submission list.
    pub next_pending: usize,
    pub active: Vec<ActiveSnapshot>,
    pub queue: JobQueue,
    pub rm: ResourceManager,
    pub scheduler: SchedulerState,
    pub outage_active: Vec<bool>,
    pub outage_cursor: usize,
    pub outcomes: Vec<JobOutcome>,
    pub accounts: Accounts,
    pub power_hist: Vec<PowerSample>,
    pub cooling_hist: Vec<CoolingSample>,
    pub util_hist: Vec<f64>,
    pub queue_hist: Vec<usize>,
    pub queue_demand_hist: Vec<u64>,
    /// The cooling plant's integrated loop temperature, if cooling is on
    /// (its only mutable state; the plant itself rebuilds from the spec).
    pub cooling_loop_temp_c: Option<f64>,
}
