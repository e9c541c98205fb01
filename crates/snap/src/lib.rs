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
//! and disks. There is one encoding: every image is a delta against a
//! parent named by digest, and a full snapshot is the delta against
//! all-zero memory, so incremental chains (DESIGN.md §16) and full
//! images share one writer and one reader. Every malformed input
//! surfaces as a [`SnapshotError`] (convertible to
//! `VmmError::Snapshot`), never a panic.
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

pub mod error;
pub mod format;
pub mod image;
pub mod wire;

#[cfg(test)]
mod hostile;

pub use error::SnapshotError;
pub use format::{MAGIC, VERSION};
pub use image::{capture, rebuild, MonitorImage, VmImage};

use vax_mem::PhysMemory;
use vax_vmm::Monitor;
use wire::fnv1a64;

/// The digest images are linked by: FNV-1a 64 over the complete bytes
/// (header, payload and checksum) of a snapshot. Feed it the bytes
/// [`snapshot_monitor`], [`snapshot_chain_base`] or [`snapshot_delta`]
/// returned to name that image as the parent of the next delta. The
/// digest of no bytes names all-zero memory, the parent of every full
/// snapshot.
pub fn snapshot_digest(bytes: &[u8]) -> u64 {
    fnv1a64(bytes)
}

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
/// restorable; [`SnapshotError::Invalid`] if the machine memory is not
/// its configured size (a VMM bug).
pub fn snapshot_monitor(monitor: &Monitor) -> Result<Vec<u8>, SnapshotError> {
    encode_full(&capture(monitor)?, monitor.machine().mem())
}

/// Encodes `image`, captured from a monitor whose memory is `mem`, as a
/// full snapshot: the delta against all-zero memory that carries every
/// page. [`snapshot_monitor`] is this over a fresh [`capture`]; a caller
/// that keeps its capture (a fork source) gets the same bytes without
/// capturing twice.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] if `mem` is not the image's configured
/// memory size.
pub fn encode_full(image: &MonitorImage, mem: &PhysMemory) -> Result<Vec<u8>, SnapshotError> {
    format::encode(image, snapshot_digest(&[]), mem, 0..mem.pages())
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
    restore_chain::<&[u8]>(bytes, &[])
}

/// Captures a full snapshot to anchor a delta chain: identical bytes to
/// [`snapshot_monitor`], but also *drains* the chain's view of written
/// pages, so the first [`snapshot_delta`] carries only pages written
/// after this capture rather than everything written since the memory
/// was created.
///
/// # Errors
///
/// The conditions of [`snapshot_monitor`]. The chain's view is not
/// drained on error.
pub fn snapshot_chain_base(monitor: &mut Monitor) -> Result<Vec<u8>, SnapshotError> {
    let bytes = snapshot_monitor(monitor)?;
    let _ = monitor.machine_mut().mem_mut().take_dirty_pages();
    Ok(bytes)
}

/// Serializes the pages written since the previous chain link, plus the
/// complete non-memory monitor state, into a delta image —
/// `O(dirty pages)`, not `O(memory)`.
///
/// `parent_digest` is [`snapshot_digest`] of the predecessor's bytes:
/// the base snapshot for the first delta, the previous delta after that.
/// The call *drains* the chain's view of written pages, so the next
/// delta picks up exactly where this one left off. Tracking is always
/// on and only the chain drains its view, so a delta carries at least
/// every page written since its parent — more when the parent was a
/// [`snapshot_monitor`] image rather than a [`snapshot_chain_base`] —
/// and a chain restores exactly whatever else runs on the monitor
/// (profiling, live migration of other VMs).
///
/// # Errors
///
/// The conditions of [`snapshot_monitor`]. The chain's view is not
/// drained on error.
pub fn snapshot_delta(monitor: &mut Monitor, parent_digest: u64) -> Result<Vec<u8>, SnapshotError> {
    let image = capture(monitor)?;
    let dirty = monitor.machine_mut().mem_mut().take_dirty_pages();
    format::encode(&image, parent_digest, monitor.machine().mem(), dirty)
}

/// Reconstructs a monitor from a base snapshot plus an ordered chain of
/// deltas, decoding every image straight into the one memory the
/// monitor then runs on.
///
/// Digest linkage is enforced image by image: the base must be a full
/// snapshot (its parent is all-zero memory) and delta `i` must record
/// the digest of the exact bytes of image `i-1`, so a wrong base, an
/// out-of-order chain, or a corrupted link fails before any monitor is
/// built. The result re-snapshots byte-equal to a full snapshot of the
/// source monitor at the final delta's capture point — the bit-identity
/// oracle the delta-chain fuzzer enforces on all three execution tiers.
///
/// # Errors
///
/// Any [`SnapshotError`] from decoding an image;
/// `SnapshotError::Invalid` with `"delta chain digest mismatch"` when
/// linkage fails, or `"image is a delta, not a full snapshot"` when the
/// base is a delta.
pub fn restore_chain<D: AsRef<[u8]>>(base: &[u8], deltas: &[D]) -> Result<Monitor, SnapshotError> {
    let (image, memory) = format::decode_chain(base, deltas, format::MAX_TOTAL_BYTES)?;
    rebuild(image, memory)
}

/// Forks one copy-on-write child from `image`, captured from a parent
/// monitor at a quiescent point, and `parent`, that monitor's memory
/// (the parent must not have run since; a fork of its memory serves as
/// well as the memory itself).
///
/// The child is a complete, independent monitor built directly over a
/// [`PhysMemory::fork`] of the parent's memory, sharing every page
/// until one side writes it. Cost: one word per page of machine
/// memory for the child's page table, a fresh CPU whose decode and
/// translation caches hold no storage until the child decodes (each
/// allocates a small segment of slots on its first insert there), and
/// a clone of the image's non-memory state — no memory contents are
/// copied or zeroed; a page is copied when either side first writes
/// it. A never-forked parent's memory
/// becomes the shared base without a copy; a parent that wrote pages
/// since its previous fork pays one `O(memory)` merge on its next.
/// Parent and child both resume bit-identically to an unforked run.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] if the image does not describe the
/// parent's memory and frame layout.
pub fn fork_child(image: &MonitorImage, parent: &mut PhysMemory) -> Result<Monitor, SnapshotError> {
    rebuild(image.clone(), parent.fork())
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
    let image = capture(parent)?;
    let mem = parent.machine_mut().mem_mut();
    (0..n).map(|_| fork_child(&image, mem)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_vmm::{MonitorConfig, VmConfig};

    #[test]
    fn empty_delta_round_trips_and_chains() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.create_vm("guest", VmConfig::default());
        let base = snapshot_monitor(&m).expect("base");
        // Quiescent monitor: the delta may still carry pages create_vm
        // wrote before the base; drain those first for a truly empty one.
        let _ = snapshot_delta(&mut m, snapshot_digest(&base)).expect("drain");
        let d = snapshot_delta(&mut m, snapshot_digest(&base)).expect("delta");
        // The extent count, last before the checksum, is zero.
        assert_eq!(d[d.len() - 12..d.len() - 8], [0; 4], "no extents");
        assert!(
            d.len() * 10 < base.len(),
            "empty delta ({}) must be far smaller than base ({})",
            d.len(),
            base.len()
        );
        let restored = restore_chain(&base, &[d]).expect("chain");
        assert_eq!(restored.machine().mem().dirty_page_count(), 0);
    }
}
