//! **S-RAPS**: the Scheduled Resource Allocator and Power Simulator — a
//! data-center digital twin with integrated batch scheduling (the paper's
//! primary contribution).
//!
//! The [`Engine`] runs the refactored simulation loop of §3.2.3:
//!
//! 1. **Preparation** — completed jobs are cleared, freeing resources;
//! 2. **Eligibility** — jobs submitted by the current simulation time join
//!    the queue (the scheduler never sees future jobs);
//! 3. **Schedule** — the selected [`sraps_sched::SchedulerBackend`]
//!    (built-in, experimental/incentive, or an external simulator via
//!    [`sraps_extsched`]) reorders the queue and places jobs through the
//!    resource manager;
//! 4. **Tick** — the physical models advance: utilization → power
//!    ([`sraps_power`]) → losses → cooling ([`sraps_cooling`]), and all
//!    histories/statistics are recorded.
//!
//! Two main-loop cores drive the steps ([`EngineMode`]): the default
//! hybrid **event** core skips idle spans (steps 1–3 only at event
//! times, physics batched in between) and the **tick** core runs the
//! paper's fixed-tick loop; their outputs are bit-identical.
//!
//! # Quickstart
//!
//! ```
//! use sraps_core::{Engine, SimConfig};
//! use sraps_data::{scenario, WorkloadSpec};
//! use sraps_systems::presets;
//!
//! // A small Adastra workload, rescheduled with FCFS + EASY backfill.
//! let cfg = presets::adastra();
//! let mut spec = WorkloadSpec::for_system(&cfg, 0.6, 42);
//! spec.span = sraps_types::SimDuration::hours(4);
//! let dataset = sraps_data::adastra::synthesize(&cfg, &spec);
//! let sim = SimConfig::new(cfg, "fcfs", "easy").unwrap();
//! let output = Engine::new(sim, &dataset).unwrap().run().unwrap();
//! assert!(output.stats.jobs_completed > 0);
//! ```

pub mod config;
pub mod engine;
pub mod fingerprint;
pub mod output;
pub mod snapshot;
pub mod validate;

pub use config::{EngineMode, Outage, SchedulerSelect, SimConfig};
pub use engine::{Engine, SimWindow};
pub use fingerprint::{Fingerprint, Fingerprinter, ENGINE_SCHEMA_VERSION};
pub use output::SimOutput;
pub use snapshot::{ActiveSnapshot, EngineSnapshot};
pub use validate::{compare_power, compare_series, compare_utilization, SeriesAgreement};
