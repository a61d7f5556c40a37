//! **sraps-serve** — a resident what-if twin service over the sweep
//! subsystem.
//!
//! The paper's digital-twin workflow is interactive at its core:
//! operators ask "what if we capped power at N kW?", "what if the
//! scheduler switched to SJF at noon?" against a standing model of the
//! machine. Re-running `sraps sweep` per question pays process startup,
//! workload synthesis, and cache probing every time. This crate keeps
//! one process resident: scenarios (workload plans) register at
//! startup, their datasets and simulation windows build lazily and stay
//! warm, and queries arrive as newline-delimited JSON over TCP.
//!
//! * Warm queries — cells already in the [`sraps_exp::CellCache`] —
//!   are answered on the connection thread in microseconds.
//! * Cold queries run on an in-process worker pool through the sweep's
//!   own cell pipeline ([`sraps_exp::CellJob`]), under the same
//!   claim-lease protocol external `sraps sweep` workers use:
//!   co-computation and kill-9 recovery come from the protocol, not
//!   from daemon-specific code.
//! * Robustness is first-class: bounded admission with
//!   reject-plus-retry-after, per-request deadlines with structured
//!   timeouts, per-client fairness, per-request panic isolation, and
//!   graceful drain on SIGTERM/ctrl-c (finish in-flight cells, release
//!   claim leases, flush the obs trace, exit 0).
//!
//! [`protocol`] defines the wire schema, [`server`] the daemon,
//! [`cli`] the `sraps serve` / `sraps query` subcommands.

pub mod cli;
pub mod protocol;
pub mod server;

pub use protocol::{Request, Response, StatsBody};
pub use server::{serve, ServeConfig};
