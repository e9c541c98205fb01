//! Capture and reconstruction of a whole [`Monitor`].
//!
//! A snapshot does not serialize the monitor's internal structure — it
//! serializes the *inputs* that reproduce it. Restore is
//! reconstruction: [`Monitor::with_mem`] builds the monitor directly
//! over the memory it will run on, then [`Monitor::recreate_vm`] replays
//! each VM's creation in order. Because the frame allocator is a
//! deterministic bump allocator, this re-derives the exact physical
//! frame layout (VM memory blocks, shadow page tables) of the
//! snapshotted monitor, and installs the captured VM state; the
//! serialized `mem_base_pfn` is checked against the re-derived one so a
//! layout mismatch is an error, not a corrupted guest. The memory
//! already holds the real SPT and shadow table *contents*, so
//! re-creation writes none of them. The shadow bookkeeping is then
//! overwritten in place and the machine state — including the TLB,
//! exactly — injected.
//!
//! Restore and copy-on-write fork share this one path and differ only in
//! the [`PhysMemory`] they hand over: a restore passes the memory its
//! images were decoded into, and a fork passes a fork of the parent's,
//! sharing every page. Neither allocates a memory only to throw it
//! away, and a forked child's rebuild writes none of its shared pages.

use crate::error::SnapshotError;
use vax_cpu::MachineState;
use vax_mem::PhysMemory;
use vax_vmm::{IoStrategy, Monitor, MonitorConfig, SchedulerState, ShadowCacheState, Vm, VmConfig};

/// Everything a snapshot carries for one VM.
#[derive(Debug, Clone)]
pub struct VmImage {
    /// Creation parameters — replayed through [`Monitor::recreate_vm`].
    pub config: VmConfig,
    /// The VM's complete state, installed by [`Monitor::recreate_vm`].
    pub vm: Vm,
    /// Shadow process-table cache bookkeeping.
    pub shadow: ShadowCacheState,
}

/// A captured monitor minus its memory: the plain-data form between a
/// live [`Monitor`] and the wire format. Memory never passes through
/// it — the encoder reads pages from the machine's [`PhysMemory`] and
/// the decoder writes them into the memory being restored.
#[derive(Debug, Clone)]
pub struct MonitorImage {
    /// Monitor-wide configuration, replayed through [`Monitor::new`].
    pub config: MonitorConfig,
    /// Scheduler position and VMM accounting.
    pub sched: SchedulerState,
    /// Complete machine state (registers, MMU, TLB, console, timer).
    pub machine: MachineState,
    /// Per-VM state, in creation order.
    pub vms: Vec<VmImage>,
}

/// Captures a monitor into its plain-data image.
///
/// The monitor must be quiescent — between [`Monitor::run`] calls — which
/// is the only state a caller outside the dispatch loop can observe
/// anyway.
///
/// # Errors
///
/// [`SnapshotError::Unsupported`] if any VM uses `EmulatedMmio` (its
/// device state lives behind the machine's bus and cannot be
/// extracted), or if the monitor's state exceeds a structural cap of
/// the wire format (an undrained console or `vmm_log` past its cap,
/// memory over the format's 1 GiB limit, aggregate state over the
/// global size budget). Capture enforces every cap the decoder checks,
/// so an image this function produces is always restorable — oversize
/// state fails here, not at restore.
pub fn capture(monitor: &Monitor) -> Result<MonitorImage, SnapshotError> {
    let mut vms = Vec::new();
    for id in monitor.vm_ids() {
        let vm = monitor.vm(id);
        if vm.io_strategy == IoStrategy::EmulatedMmio || vm.real_io_base.is_some() {
            return Err(SnapshotError::Unsupported {
                what: "EmulatedMmio VM in snapshot",
            });
        }
        let shadow = monitor.shadow(id);
        vms.push(VmImage {
            config: VmConfig {
                mem_pages: vm.mem_pages,
                shadow: shadow.config(),
                io_strategy: vm.io_strategy,
                dirty_strategy: vm.dirty_strategy,
                vdisk_sectors: vm.vdisk.len() as u32,
            },
            vm: vm.clone(),
            shadow: shadow.export_cache_state(),
        });
    }
    let image = MonitorImage {
        config: monitor.config().clone(),
        sched: monitor.scheduler_state(),
        machine: monitor.machine().export_state(),
        vms,
    };
    crate::format::validate_caps(&image)?;
    Ok(image)
}

/// Rebuilds a live monitor from an image over `mem`, the memory it will
/// run on.
///
/// For images that came through the decoder, validation has already
/// run and this cannot panic; the residual checks here
/// (memory size, admission, frame-layout reproduction) guard images
/// built in process against monitors whose configuration cannot host
/// them.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] when the memory does not match the
/// configured size, when the VMs do not fit in the configured machine
/// memory, or when reconstruction derives a different frame layout than
/// the image records.
pub fn rebuild(image: MonitorImage, mem: PhysMemory) -> Result<Monitor, SnapshotError> {
    let configured = u64::from(image.config.mem_bytes).div_ceil(512) * 512;
    if u64::from(mem.size()) != configured {
        return Err(SnapshotError::Invalid {
            what: "memory size disagrees with configuration",
        });
    }
    let mut monitor = Monitor::with_mem(image.config, mem);
    // Replay every VM's creation. This re-runs the deterministic frame
    // allocation sequence, so the layout matches the snapshotted monitor
    // frame for frame — checked below, because everything downstream
    // (guest PTEs, shadow tables, the TLB image) encodes physical
    // addresses from that layout.
    for vm_image in image.vms {
        if Monitor::admission_frames(&vm_image.config) > u64::from(monitor.frames_remaining()) {
            return Err(SnapshotError::Invalid {
                what: "VMs do not fit in machine memory",
            });
        }
        let Some(id) = monitor.recreate_vm(vm_image.vm, vm_image.config) else {
            return Err(SnapshotError::Invalid {
                what: "memory layout does not reproduce",
            });
        };
        monitor.shadow_mut(id).import_cache_state(vm_image.shadow);
    }
    // Importing the state resets the decode cache. The memory's views
    // start empty, as any restored or forked memory's do.
    monitor.machine_mut().import_state(image.machine);
    monitor.set_scheduler_state(image.sched);
    Ok(monitor)
}
