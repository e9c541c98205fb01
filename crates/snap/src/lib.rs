#![warn(missing_docs)]
// Restore parses untrusted bytes (DESIGN.md §11 discipline): no path
// through this crate may panic on input. CI runs clippy with
// `-D warnings`, so outside of tests any unwrap/expect needs an
// `#[allow]` with a justification.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! Deterministic snapshot/restore, copy-on-write fork, and migration
//! support for the VAX VMM (DESIGN.md §13).
//!
//! A snapshot captures a quiescent [`Monitor`] — machine state including
//! the TLB exactly, full physical memory, every VM, the shadow-cache
//! bookkeeping, and the scheduler position — into a versioned,
//! checksummed byte image. Restoring and resuming produces cycles,
//! counters, halt reasons, and console output **bit-identical** to the
//! uninterrupted run (given the same [`Monitor::run`] call boundaries):
//! the snapshot joins the determinism contracts already enforced for
//! parallel-vs-serial fleets and decode-cache on/off.
//!
//! The format is hand-rolled little-endian with explicit bounds checks
//! (no serde, no unsafe): a `VAXSNAP1` magic, a version word, a length,
//! an FNV-1a-64 checksum, and zero-page run-length encoding for memory
//! and disks. Every malformed input surfaces as a [`SnapshotError`]
//! (convertible to `VmmError::Snapshot`), never a panic.
//!
//! # Example
//!
//! ```
//! use vax_vmm::{Monitor, MonitorConfig, VmConfig};
//!
//! let mut m = Monitor::new(MonitorConfig::default());
//! m.create_vm("guest", VmConfig::default());
//! let bytes = vax_snap::snapshot_monitor(&m).unwrap();
//! let restored = vax_snap::restore_monitor(&bytes).unwrap();
//! assert_eq!(restored.vm_count(), 1);
//! ```

pub mod delta;
pub mod error;
pub mod format;
pub mod image;
pub mod wire;

pub use delta::{
    decode_delta, encode_delta, restore_chain, snapshot_chain_base, snapshot_delta,
    snapshot_digest, DeltaExtent, DeltaImage, DELTA_MAGIC, DELTA_VERSION,
};
pub use error::SnapshotError;
pub use format::{decode, encode, MAGIC, VERSION};
pub use image::{capture, rebuild, MemSource, MonitorImage, VmImage};

use vax_vmm::Monitor;

/// Serializes a quiescent monitor into a snapshot image.
///
/// Pure function of monitor state: the same state always produces the
/// same bytes, so snapshot determinism is byte equality.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] if any VM uses `EmulatedMmio` (bus
/// device state cannot be extracted) or the monitor's state exceeds a
/// structural cap of the wire format — capture enforces every cap the
/// decoder does, so a snapshot this function returns is always
/// restorable; [`SnapshotError::Invalid`] if the machine memory is
/// unreadable (a VMM bug).
pub fn snapshot_monitor(monitor: &Monitor) -> Result<Vec<u8>, SnapshotError> {
    Ok(encode(&capture(monitor, true)?))
}

/// Reconstructs a monitor from a snapshot image.
///
/// The bytes are untrusted: framing, checksum, every discriminant, and
/// every cross-field invariant are validated before any state is
/// injected, so a malformed image is always an error and never a panic
/// or an over-size allocation — each variable-length field is capped
/// individually, and a global budget bounds the *total* bytes a decode
/// may materialize, so stacking many individually-legal fields cannot
/// amplify a small image into gigabytes. The restored monitor has observability
/// off (tracing is proven non-intrusive, so this cannot perturb the
/// resumed run).
///
/// # Errors
///
/// Any [`SnapshotError`] the validation pipeline detects.
pub fn restore_monitor(bytes: &[u8]) -> Result<Monitor, SnapshotError> {
    rebuild(decode(bytes)?, MemSource::Image)
}

/// Forks one copy-on-write child of `parent` from `image`, a
/// memory-less image captured from `parent` at its current quiescent
/// point ([`capture`] with `with_memory = false`; the parent must not
/// have run since).
///
/// The child is a complete, independent monitor built directly over a
/// [`vax_mem::PhysMemory::fork`] of the parent's memory, sharing every
/// page until one side writes it. Cost: one word per page of machine
/// memory for the child's page table, a fresh CPU (its decoded-
/// instruction cache starts cold), and a clone of the image's non-memory
/// state — no memory contents are copied or zeroed; a page is copied
/// when either side first writes it. A never-forked parent's memory
/// becomes the shared base without a copy; a parent that wrote pages
/// since its previous fork pays one `O(memory)` merge on its next.
/// Parent and child both resume bit-identically to an unforked run.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] if the image does not describe the
/// parent's memory and frame layout.
pub fn fork_child(image: &MonitorImage, parent: &mut Monitor) -> Result<Monitor, SnapshotError> {
    let mem = parent.machine_mut().fork_mem();
    rebuild(image.clone(), MemSource::Forked(mem))
}

/// Forks a quiescent monitor into `n` copy-on-write children: one
/// [`capture`], then [`fork_child`] per child.
/// `PhysMemory::shared_fraction` on a child reports how much is still
/// shared.
///
/// # Errors
///
/// Same conditions as [`snapshot_monitor`]; the parent is unchanged on
/// error.
pub fn fork_monitor(parent: &mut Monitor, n: usize) -> Result<Vec<Monitor>, SnapshotError> {
    let image = capture(parent, false)?;
    (0..n).map(|_| fork_child(&image, parent)).collect()
}
