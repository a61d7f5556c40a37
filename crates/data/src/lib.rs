//! Dataloaders (§3.2.2) and synthetic dataset generators for the five
//! systems of Table 1.
//!
//! The paper's datasets (PM100, F-Data, LAST, Cirou's Adastra set, and the
//! proprietary Frontier excerpt) are multi-gigabyte parquet archives that
//! cannot ship with this reproduction. Instead, each system has:
//!
//! 1. a **raw record type** mirroring that dataset's schema (what a parquet
//!    row carries: e.g. PM100 has 20 s power traces and a shared-node flag;
//!    LAST splits jobs across allocation/step records; Adastra reports
//!    component powers with GPU power *derivable* but not stored), and
//! 2. a **generator** that emits statistically-shaped raw records — arrival
//!    process, size and runtime distributions, utilization level, and
//!    telemetry fidelity matched to the published characteristics — packed
//!    into a *feasible* historical schedule by a FCFS packer (so replay is
//!    physically consistent: no node oversubscription), and
//! 3. a **loader** that converts raw records into [`Dataset`]s of
//!    [`sraps_types::Job`]s, performing the same repairs the paper
//!    documents (PM100 shared-node filtering, LAST record combination,
//!    Adastra GPU-power derivation).
//!
//! [`scenario`] provides the exact workload used by each figure
//! reproduction.

pub mod adastra;
pub mod arrival;
pub mod dataset;
pub mod distributions;
pub mod frontier;
pub mod fugaku;
pub mod lassen;
pub mod marconi100;
pub mod packer;
pub mod scenario;
pub mod swf;
pub mod synthetic;

pub use dataset::Dataset;
pub use packer::{pack_jobs, JobSpec, PackedJob};
pub use synthetic::{WorkloadSpec, MAX_OFFERED_LOAD};
