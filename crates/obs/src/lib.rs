#![warn(missing_docs)]
// Library (non-test) code must justify every panic site.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! Observability for the VAX VMM: exit-reason tracing, per-cause
//! cycle-cost histograms, cycle-attributed guest profiling, and a
//! metrics exposition layer — collected in one sink behind one switch.
//!
//! The paper's whole evaluation (§7) is an attribution exercise: how many
//! simulated cycles went to which VM-exit cause (MTPR-to-IPL emulation at
//! 10–12× the bare-hardware path, ~17 page faults between guest context
//! switches, the §7.2 shadow-fill reduction). This crate provides the
//! raw machinery for producing those numbers from any run:
//!
//! * [`ObsSink`] — the one collection point. A machine owns one; its
//!   retire path and the VMM's exit seams feed it. `ObsSink::Off` makes
//!   every hook a single discriminant test and allocates nothing;
//!   `ObsSink::On` holds an [`Obs`]:
//!   * a [`TraceRing`] — one bounded, preallocated ring of
//!     [`TraceRecord`]s, VM exits and superblock lifecycle events in
//!     push (simulated-time) order;
//!   * one [`Histogram`] per [`ExitCause`] — log2-bucket emulation cost
//!     from exit to resume;
//!   * a [`Prof`] — the interval sampler attributing simulated cycles to
//!     `(tier, PC)`, plus the per-superblock hot-block table;
//!   * a window of the last [`PC_WINDOW`] instruction addresses;
//! * [`Metrics`] — a snapshot registry rendering counters and histograms
//!   as JSON or Prometheus text exposition, plus [`chrome_trace`] for
//!   Chrome `about:tracing` / Perfetto timeline viewing.
//!
//! The contract enforced by the repo's equivalence tests: enabling
//! observability must never change simulated cycles or architectural
//! counters — this crate only ever *reads* the simulated clock.
//!
//! # Example
//!
//! ```
//! use vax_obs::{ExitCause, ObsSink, DEFAULT_SAMPLE_INTERVAL};
//!
//! let ObsSink::On(mut obs) = ObsSink::on(16, DEFAULT_SAMPLE_INTERVAL) else {
//!     unreachable!("`on` builds the enabled sink")
//! };
//! obs.exit_begin(ExitCause::EmulMtprIpl, 0x1000, 0, 100);
//! obs.exit_end(190); // resume 90 simulated cycles later
//! assert_eq!(obs.histogram(ExitCause::EmulMtprIpl).count(), 1);
//! assert_eq!(obs.histogram(ExitCause::EmulMtprIpl).sum(), 90);
//! ```

pub mod cause;
pub mod hist;
pub mod metrics;
pub mod prof;
pub mod ring;
pub mod sink;

pub use cause::ExitCause;
pub use hist::Histogram;
pub use metrics::{chrome_trace, Metrics};
pub use prof::{PcBucket, Prof, ProfTier, SuperblockProfile, DEFAULT_SAMPLE_INTERVAL};
pub use ring::{SuperblockEvent, TraceEvent, TraceRecord, TraceRing};
pub use sink::{Obs, ObsSink, PC_WINDOW};
