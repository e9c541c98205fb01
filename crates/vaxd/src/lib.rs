//! `vaxd` — a multi-tenant fork-per-request VM-serving daemon.
//!
//! The serving model the snapshot/fork subsystem was built for: boot a
//! guest OS **once** into a warm quiescent base, then serve each
//! request by forking a copy-on-write child that copies no memory up
//! front (one word per page, then 512 bytes per page it writes),
//! injecting the request's guest payload, running it under a
//! per-tenant cycle budget, capturing console output, and reaping the
//! child — hundreds of isolated VM executions per second from one
//! boot.
//!
//! The pieces:
//!
//! * [`proto`] — the line-delimited TCP wire protocol and the typed
//!   rejection taxonomy ([`proto::RequestError`]).
//! * [`base`] — [`base::WarmBase`]: a booted quiescent monitor plus
//!   its snapshot, forked per request and used as the standalone
//!   bit-identity oracle.
//! * [`tenant`] — per-tenant admission (concurrency, real-frame
//!   quotas via the monitor's own admission arithmetic, cycle-budget
//!   clamps) with RAII release.
//! * [`stats`] — serving metrics, rendered by the `/metrics` HTTP
//!   endpoint in the repo's existing Prometheus exposition.
//! * [`server`] — [`server::Daemon`]: accept loop with a bounded shed
//!   queue, worker pool, graceful drain-and-reap shutdown.
//! * [`payload`] — guest payload builders for clients and tests.
//!
//! Serving guarantees, all enforced by tests: responses are
//! bit-identical to running the same payload on a monitor restored
//! standalone from the base's snapshot; reaping returns base memory to
//! its baseline (no Arc or overlay-page leaks); over-quota and
//! over-capacity requests fail fast with typed errors instead of
//! queueing unboundedly.

#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

pub mod base;
pub mod payload;
pub mod proto;
pub mod server;
pub mod stats;
pub mod tenant;

pub use base::{BaseError, RunOutput, WarmBase};
pub use proto::{Request, RequestError, Response, RunStatus};
pub use server::{Daemon, DaemonConfig, ShutdownReport};
pub use stats::DaemonStats;
pub use tenant::{Admission, TenantQuota};
