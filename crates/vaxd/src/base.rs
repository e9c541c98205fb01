//! Warm serving bases: booted, quiescent monitors forked per request.
//!
//! A [`WarmBase`] is created once at daemon startup — either by booting
//! a MiniVMS guest to its orderly halt, or by restoring a `VAXSNAP1`
//! snapshot — and then serves as the copy-on-write fork source for
//! every request naming it. Construction captures the parent once and
//! keeps two artifacts of that one capture:
//!
//! * the [`MonitorImage`] plus the parent's memory, frozen into the
//!   copy-on-write base, the pair [`WarmBase::fork_child`] hands to
//!   [`vax_snap::fork_child`] — `fork_monitor` amortized: capture once,
//!   fork many. The parent monitor itself is dropped: a fork needs its
//!   memory, not its CPU caches. A fork copies no memory: it costs one
//!   word per page plus a fresh CPU whose caches start empty, and the
//!   child then pays 512 bytes per page it writes and one small cache
//!   segment per 64-slot range its payload's code decodes into;
//! * the full snapshot bytes, encoded from the image and the parent's
//!   memory, which make [`WarmBase::run_standalone`] an *independent*
//!   oracle — a restored-from-bytes monitor running the same payload
//!   must produce bit-identical console output to any forked child,
//!   which is the serving determinism contract the tests and the bench
//!   assert.

use crate::payload::PAYLOAD_GPA;
use crate::proto::{RequestError, RunStatus};
use vax_mem::PhysMemory;
use vax_snap::{capture, encode_full, restore_monitor, MonitorImage, SnapshotError};
use vax_vmm::{Monitor, MonitorConfig, RunExit, VmConfig};

/// Why a warm base could not be constructed.
#[derive(Debug)]
pub enum BaseError {
    /// The monitor still has runnable VMs or in-flight disk I/O.
    NotQuiescent,
    /// The base has no VM to serve requests on.
    NoVms,
    /// The guest OS did not reach its orderly halt within the boot
    /// budget.
    BootTimeout,
    /// The guest image could not be built.
    Image(String),
    /// Snapshot capture/restore failed.
    Snapshot(SnapshotError),
}

impl core::fmt::Display for BaseError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BaseError::NotQuiescent => write!(f, "base monitor is not quiescent"),
            BaseError::NoVms => write!(f, "base monitor has no VMs"),
            BaseError::BootTimeout => write!(f, "guest OS did not halt within the boot budget"),
            BaseError::Image(what) => write!(f, "guest image: {what}"),
            BaseError::Snapshot(e) => write!(f, "snapshot: {e}"),
        }
    }
}

impl std::error::Error for BaseError {}

impl From<SnapshotError> for BaseError {
    fn from(e: SnapshotError) -> BaseError {
        BaseError::Snapshot(e)
    }
}

/// The outcome of one served payload run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutput {
    /// How the run ended.
    pub status: RunStatus,
    /// Simulated cycles consumed (machine clock delta).
    pub cycles: u64,
    /// Console bytes the payload produced.
    pub console: Vec<u8>,
}

/// A warm booted base image ready to be forked per request.
pub struct WarmBase {
    name: String,
    /// Fork skeleton: everything but memory, which a fork shares.
    image: MonitorImage,
    /// Full snapshot from the same quiescent point (standalone oracle,
    /// persistence).
    snapshot: Vec<u8>,
    /// The parent's memory, frozen into the copy-on-write base every
    /// child forks; never written.
    mem: PhysMemory,
    /// Real frames one forked child's VM set admits
    /// ([`Monitor::admission_frames`] summed over the base's VMs) —
    /// the per-request cost charged against tenant frame quotas.
    frame_cost: u64,
    /// VM 0 memory size in bytes (payload bounds check).
    vm0_mem_bytes: u64,
}

impl WarmBase {
    /// Wraps a quiescent monitor as a warm base. Console output and logs
    /// accumulated during boot are drained first, so every forked child
    /// starts with an empty console and the response carries payload
    /// output only.
    ///
    /// # Errors
    ///
    /// [`BaseError::NotQuiescent`] unless every VM is console-halted
    /// with no disk I/O pending; [`BaseError::NoVms`] on an empty
    /// monitor; [`BaseError::Snapshot`] if capture fails (e.g. an
    /// `EmulatedMmio` VM).
    pub fn from_monitor(name: &str, mut monitor: Monitor) -> Result<WarmBase, BaseError> {
        if monitor.vm_count() == 0 {
            return Err(BaseError::NoVms);
        }
        if !monitor.is_quiescent() {
            return Err(BaseError::NotQuiescent);
        }
        let ids: Vec<_> = monitor.vm_ids().collect();
        for id in ids {
            let _ = monitor.vm_console_output(id);
            monitor.vm_mut(id).vmm_log.clear();
        }
        let image = capture(&monitor)?;
        let snapshot = encode_full(&image, monitor.machine().mem())?;
        let frame_cost: u64 = image
            .vms
            .iter()
            .map(|v| Monitor::admission_frames(&v.config))
            .sum();
        let vm0_mem_bytes = u64::from(image.vms[0].config.mem_pages) * 512;
        // Freeze the copy-on-write base now, keeping one fork of it as
        // the fork source, so the Arc ref-count baseline the hygiene
        // tests assert on is established before the first request.
        let mem = monitor.machine_mut().fork_mem();
        Ok(WarmBase {
            name: name.to_string(),
            image,
            snapshot,
            mem,
            frame_cost,
            vm0_mem_bytes,
        })
    }

    /// Boots a MiniVMS guest (`nproc` processes of the compute workload,
    /// `iterations` each) to its orderly halt and wraps it.
    ///
    /// # Errors
    ///
    /// [`BaseError::Image`] if the guest image fails to build,
    /// [`BaseError::BootTimeout`] if it does not halt in `boot_budget`
    /// cycles, plus anything [`WarmBase::from_monitor`] rejects.
    pub fn boot_minivms(
        name: &str,
        nproc: u32,
        iterations: u32,
        boot_budget: u64,
    ) -> Result<WarmBase, BaseError> {
        let image = vax_os::build_image(&vax_os::OsConfig {
            nproc,
            workload: vax_os::Workload::Compute,
            iterations,
            ..vax_os::OsConfig::default()
        })
        .map_err(|e| BaseError::Image(e.to_string()))?;
        let mut monitor = Monitor::new(MonitorConfig::default());
        vax_os::boot_in_monitor(&mut monitor, &image, VmConfig::default());
        if monitor.run(boot_budget) != RunExit::AllHalted {
            return Err(BaseError::BootTimeout);
        }
        WarmBase::from_monitor(name, monitor)
    }

    /// Restores a `VAXSNAP1` image and wraps it. The snapshot must be of
    /// a quiescent monitor.
    ///
    /// # Errors
    ///
    /// Any decode/validation error, plus [`WarmBase::from_monitor`]'s.
    pub fn from_snapshot_bytes(name: &str, bytes: &[u8]) -> Result<WarmBase, BaseError> {
        WarmBase::from_monitor(name, restore_monitor(bytes)?)
    }

    /// The base's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Real frames one forked child admits against a tenant quota.
    pub fn frame_cost(&self) -> u64 {
        self.frame_cost
    }

    /// Largest payload that fits VM 0's memory at [`PAYLOAD_GPA`].
    pub fn payload_room(&self) -> u64 {
        self.vm0_mem_bytes.saturating_sub(u64::from(PAYLOAD_GPA))
    }

    /// The full snapshot bytes captured at construction (persistence,
    /// debugging).
    pub fn snapshot_bytes(&self) -> &[u8] {
        &self.snapshot
    }

    /// The parent's physical memory — the hygiene seam: after every
    /// child is reaped, `base_ref_count()` must be back to `Some(1)`
    /// and `resident_pages()` still 0 (the parent is never written).
    pub fn parent_mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Forks one copy-on-write child with [`vax_snap::fork_child`]: the
    /// image skeleton is cloned and the child's monitor is built over a
    /// fork of the parent's memory, which copies none of it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] if reconstruction fails (cannot happen for an
    /// image captured by this base unless memory sizes diverge — a bug).
    pub fn fork_child(&mut self) -> Result<Monitor, SnapshotError> {
        vax_snap::fork_child(&self.image, &mut self.mem)
    }

    /// Runs `payload` on a monitor restored from the base's snapshot
    /// bytes — the standalone oracle a forked child's response must be
    /// bit-identical to.
    ///
    /// # Errors
    ///
    /// [`RequestError::PayloadOutOfRange`] if the payload does not fit;
    /// restore failures surface as [`RequestError::BadRequest`] (they
    /// indicate a corrupted base, not a client mistake — but the typed
    /// error keeps this path panic-free).
    pub fn run_standalone(&self, payload: &[u8], budget: u64) -> Result<RunOutput, RequestError> {
        let mut monitor = restore_monitor(&self.snapshot)
            .map_err(|_| RequestError::BadRequest("base snapshot unrestorable"))?;
        run_payload(&mut monitor, payload, budget)
    }
}

/// Injects `payload` at [`PAYLOAD_GPA`] in the monitor's first VM,
/// boots it there, and runs for at most `budget` cycles. Shared by the
/// serving path (on a forked child) and the standalone oracle (on a
/// restored monitor) — using one function for both is what makes the
/// bit-identity contract a property of the *base*, not of the caller.
///
/// # Errors
///
/// [`RequestError::PayloadOutOfRange`] if the payload does not fit the
/// VM's memory at the payload origin.
pub fn run_payload(
    monitor: &mut Monitor,
    payload: &[u8],
    budget: u64,
) -> Result<RunOutput, RequestError> {
    let Some(vm) = monitor.vm_ids().next() else {
        return Err(RequestError::BadRequest("base has no VMs"));
    };
    if !payload.is_empty() {
        monitor
            .vm_write_phys(vm, PAYLOAD_GPA, payload)
            .map_err(|_| RequestError::PayloadOutOfRange)?;
    }
    monitor.boot_vm(vm, PAYLOAD_GPA);
    let before = monitor.machine().cycles();
    let exit = monitor.run(budget);
    let cycles = monitor.machine().cycles() - before;
    let status = if monitor.vm(vm).halt_reason.is_some() {
        RunStatus::SecurityHalt
    } else if exit == RunExit::AllHalted {
        RunStatus::Halted
    } else {
        RunStatus::Budget
    };
    let console = monitor.vm_console_output(vm);
    Ok(RunOutput {
        status,
        cycles,
        console,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::{hang_payload, print_payload};

    fn tiny_base() -> WarmBase {
        WarmBase::boot_minivms("t", 2, 4, 100_000_000).expect("base boots")
    }

    #[test]
    fn forked_child_matches_standalone_oracle() {
        let mut base = tiny_base();
        let payload = print_payload(b"hello from a fork").expect("assembles");
        let standalone = base.run_standalone(&payload, 5_000_000).expect("runs");
        assert_eq!(standalone.status, RunStatus::Halted);
        assert_eq!(standalone.console, b"hello from a fork");

        let mut child = base.fork_child().expect("forks");
        let served = run_payload(&mut child, &payload, 5_000_000).expect("runs");
        assert_eq!(served, standalone, "fork-serve == standalone, bit for bit");
        assert!(child.machine().mem().shared_fraction() > 0.8);
    }

    #[test]
    fn hang_payload_exhausts_budget() {
        let mut base = tiny_base();
        let payload = hang_payload().expect("assembles");
        let mut child = base.fork_child().expect("forks");
        let out = run_payload(&mut child, &payload, 200_000).expect("runs");
        assert_eq!(out.status, RunStatus::Budget);
        assert!(out.cycles >= 200_000);
        assert!(out.console.is_empty());
    }

    #[test]
    fn hang_payload_replays_and_matches_standalone_oracle() {
        let mut base = tiny_base();
        let payload = hang_payload().expect("assembles");
        let budget = 50_000_000;
        let standalone = base.run_standalone(&payload, budget).expect("runs");
        assert_eq!(standalone.status, RunStatus::Budget);
        let mut child = base.fork_child().expect("forks");
        let served = run_payload(&mut child, &payload, budget).expect("runs");
        assert_eq!(served, standalone, "fork-serve == standalone, bit for bit");
        let replay = child.machine().loop_replay_stats();
        assert!(replay.loop_replayed_instructions > 0, "{replay:?}");
    }

    #[test]
    fn oversize_payload_is_typed_not_a_panic() {
        let mut base = tiny_base();
        let huge = vec![0u8; base.payload_room() as usize + 1];
        let mut child = base.fork_child().expect("forks");
        assert_eq!(
            run_payload(&mut child, &huge, 1_000).unwrap_err(),
            RequestError::PayloadOutOfRange
        );
    }

    #[test]
    fn non_quiescent_monitor_is_refused() {
        let image = vax_os::build_image(&vax_os::OsConfig {
            nproc: 2,
            workload: vax_os::Workload::Compute,
            iterations: 2000,
            ..vax_os::OsConfig::default()
        })
        .expect("image");
        let mut monitor = Monitor::new(MonitorConfig::default());
        vax_os::boot_in_monitor(&mut monitor, &image, VmConfig::default());
        monitor.run(50_000); // mid-boot: still runnable
        assert!(matches!(
            WarmBase::from_monitor("mid", monitor),
            Err(BaseError::NotQuiescent)
        ));
    }

    #[test]
    fn empty_payload_halts_immediately() {
        // Zeroed memory decodes as HALT: an empty payload is the nop
        // request. Useful as the cheapest possible liveness probe.
        let mut base = tiny_base();
        let mut child = base.fork_child().expect("forks");
        let out = run_payload(&mut child, &[], 1_000_000).expect("runs");
        assert_eq!(out.status, RunStatus::Halted);
        assert!(out.console.is_empty());
    }
}
