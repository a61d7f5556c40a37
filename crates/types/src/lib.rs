//! Shared vocabulary types for the `sraps` digital-twin simulator.
//!
//! This crate holds the types that every other `sraps` crate speaks:
//! simulation time ([`SimTime`], [`SimDuration`]), jobs and their lifecycle
//! ([`Job`], [`JobState`]), node identity and sets ([`NodeId`], [`NodeSet`]),
//! recorded telemetry traces ([`Trace`], [`JobTelemetry`]), and the common
//! error type ([`SrapsError`]).
//!
//! Nothing here depends on any model or policy — it is the bottom layer of
//! the workspace so that schedulers, power/cooling models, dataloaders and
//! the engine can interoperate without cyclic dependencies.

pub mod bitset;
pub mod env;
pub mod error;
pub mod fsio;
pub mod job;
pub mod node;
pub mod signals;
pub mod telemetry;
pub mod time;

pub use bitset::Bitset;
pub use env::{parse_env, parse_env_value, string_env};
pub use error::{Result, SrapsError};
pub use job::{AccountId, Job, JobId, JobIdHasher, JobIdMap, JobState, UserId};
pub use node::{NodeId, NodeSet};
pub use telemetry::{CaptureFlags, JobTelemetry, Trace, TraceSegment, TraceSegments};
pub use time::{SimDuration, SimTime};
