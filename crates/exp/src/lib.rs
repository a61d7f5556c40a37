//! **sraps-exp** — the experiment-orchestration layer above
//! [`sraps_core`].
//!
//! Every result in the source paper is a *fleet* of S-RAPS runs compared
//! against each other: Fig 4 crosses policies × backfills on one recorded
//! window, Fig 8 replays one day under five incentive policies, Fig 10
//! pits ML scheduling against baselines, and Table 1 spans five systems.
//! This crate is the subsystem that expresses and executes such fleets:
//!
//! * [`ExperimentMatrix`] — a declarative cross-product over axes
//!   (systems × loads × seeds × policies × backfills × cooling ×
//!   power caps), or explicit policy/backfill pairs, over synthetic
//!   workloads or prebuilt [`sraps_data::scenario`] datasets;
//! * [`SweepRunner`] — a work-stealing multi-threaded executor
//!   (std `thread::scope` + a shared atomic cursor) whose collected
//!   results are **bit-identical** regardless of `--jobs`: cells land in
//!   matrix order and every metric is a pure function of the simulation;
//! * [`pipeline`] — the one cell pipeline sweep workers and the serve
//!   daemon share: a per-workload memo ([`WorkloadMemo`]: dataset, then
//!   the shared simulation window, then prefix snapshots) and the cell
//!   state machine ([`CellJob::step`]: cache probe, claim, simulate under
//!   retries, write back, release);
//! * [`CellCache`] — a content-addressed on-disk memo of finished cells:
//!   every cell is a pure function of (workload plan, cell spec), so its
//!   metrics are stored under a canonical fingerprint
//!   ([`sraps_core::fingerprint`]) and re-running a matrix after editing
//!   one axis only simulates the cells that axis touched;
//! * [`Report`] — aggregation of cell outputs into comparison tables
//!   (wait/utilization/power/energy deltas against a baseline cell,
//!   seed-averaged summaries) with CSV and JSON export — byte-identical
//!   whether the cells were simulated, cached, or metrics-only.
//!
//! The `sraps sweep` CLI subcommand ([`cli`]) is a thin veneer over these
//! types; benches and integration tests drive them directly.
//!
//! # Quickstart
//!
//! ```
//! use sraps_exp::{ExperimentMatrix, Report, SweepRunner};
//! use sraps_types::SimDuration;
//!
//! let matrix = ExperimentMatrix::synthetic(["lassen"])
//!     .span(SimDuration::hours(2))
//!     .loads([0.6])
//!     .seed_count(1)
//!     .policies(["fcfs", "sjf"])
//!     .backfills(["easy"]);
//! let results = SweepRunner::new(2).run(&matrix).unwrap();
//! assert_eq!(results.cells.len(), 2);
//! let report = Report::from_results(&results);
//! assert_eq!(report.to_csv().lines().count(), 3); // header + 2 cells
//! ```

pub mod cache;
pub mod cell;
pub mod claims;
pub mod cli;
pub mod faults;
pub mod matrix;
pub mod metrics;
pub mod pipeline;
pub mod report;
pub mod runner;

pub use cache::{CellCache, CACHE_SCHEMA_VERSION};
pub use cell::{CellSpec, WorkloadPlan};
pub use claims::{release_all_live, ClaimOutcome, ClaimSet, Lease};
pub use faults::FaultPlan;
pub use matrix::{ExperimentMatrix, PrebuiltWorkload};
pub use metrics::CellMetrics;
pub use pipeline::{CellJob, Probe, Step, WorkloadMemo};
pub use report::{Report, ReportRow};
pub use runner::{CellFailure, CellResult, SweepOptions, SweepResults, SweepRunner};
