//! Scheduler abstraction and built-in scheduling (§3.2.4–§3.2.5).
//!
//! The engine calls one [`SchedulerBackend`] per tick with the current
//! [`JobQueue`], the [`ResourceManager`], and a [`SchedContext`] describing
//! running jobs and (optionally) account statistics. The backend returns
//! [`Placement`]s; the engine starts the placed jobs. This split — policy
//! decides, resource manager places — is the refactor the paper credits
//! with enabling external schedulers.
//!
//! Built-in policies: FCFS, SJF, LJF, priority, replay (the original RAPS
//! mechanism), the account-incentive policies of §4.3 (which rank by the
//! accounts in [`SchedContext`]), and the ML score policy of §4.4.
//! Backfill options: none, first-fit, and EASY \[36\].

pub mod backfill;
pub mod builtin;
pub mod policy;
pub mod power_cap;
pub mod queue;
pub mod resource_manager;
pub mod scheduler;
pub mod timeline;

pub use backfill::BackfillKind;
pub use builtin::BuiltinScheduler;
pub use policy::PolicyKind;
pub use power_cap::PowerCapScheduler;
pub use queue::{JobQueue, OrderStamp, QueuedJob};
pub use resource_manager::ResourceManager;
pub use scheduler::{
    BuiltinSchedulerState, ExternalSchedulerState, Placement, PlacementPath,
    PowerCapSchedulerState, RunningView, SchedContext, SchedulerBackend, SchedulerState,
    SchedulerStats,
};
pub use timeline::{CapacityTimeline, PlanScratch, TimelineState};
