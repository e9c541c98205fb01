//! The snapshot wire format: one writer and one reader for every image,
//! full or incremental (DESIGN.md §13, §16).
//!
//! Layout:
//!
//! ```text
//! magic    "VAXSNAP1"            8 bytes
//! version  u32                   currently 3
//! length   u64                   payload byte count
//! payload  parent digest (u64)   snapshot_digest of the image this one
//!                                patches
//!          monitor config, scheduler, machine state
//!          VM count + per-VM config/state/shadow
//!          extent count (u32)
//!          per extent: start page (u32) + its pages (zero-page RLE)
//! checksum u64                   FNV-1a 64 over the payload
//! ```
//!
//! Every image is a delta: the complete non-memory monitor state plus
//! the memory pages that differ from its parent, as sorted runs of
//! consecutive pages. A full snapshot is the image whose parent is
//! all-zero memory — digest `snapshot_digest(&[])` — and whose extents
//! cover every page; an incremental one names its predecessor's digest
//! and carries the pages written since. Restoring a chain decodes each
//! image in turn straight into the one memory being restored.
//!
//! Two older layouts stay readable. `VAXDLT1\0` version 1 (the delta
//! images of earlier builds) has exactly this payload. `VAXSNAP1`
//! version 2 (their full images) has no parent digest — its parent is
//! the zero image — and carries all of memory as one RLE stream between
//! the machine state and the VMs. Any other (magic, version) pair is
//! refused.
//!
//! Every multi-byte field is little-endian, and the writer is a pure
//! function of its inputs. The reader treats an image as untrusted
//! input: every
//! discriminant is range-checked, every length validated against both
//! the bytes present and the format's own caps, every cross-field
//! inconsistency (a `current` index past the VM count, an extent past
//! the configured memory) is an error, and every allocation is charged
//! against a budget first — so the reconstruction path behind it can
//! never panic.

use crate::error::SnapshotError;
use crate::image::{MonitorImage, VmImage};
use crate::wire::{fnv1a64, Reader, Writer, PAGE};
use std::collections::VecDeque;
use vax_arch::{AccessMode, CostModel, Protection, Psl, VmPsl};
use vax_cpu::{CpuCounters, IntervalTimer, IrqRequest, MachineState};
use vax_mem::{MemCounters, MmuState, PhysMemory, TlbEntry, TlbState};
use vax_vmm::vm::VirtualIrq;
use vax_vmm::{
    intern_diagnostic, DirtyStrategy, IoStrategy, MonitorConfig, SchedulerState, ShadowCacheState,
    ShadowConfig, Vm, VmConfig, VmState, VmmCosts, VmmError,
};

/// The file magic.
pub const MAGIC: &[u8; 8] = b"VAXSNAP1";
/// The format version this build writes. Version 3 made every image a
/// delta; version 2 added the machine's write-tracking enablement flag,
/// which this build always writes as 1 (tracking is always on) and
/// reads as a validated but ignored bool.
pub const VERSION: u32 = 3;
/// The last version whose full images carry memory as one stream.
const FULL_V2: u32 = 2;
/// The magic of the version-1 delta images earlier builds wrote.
const DELTA_MAGIC: &[u8; 8] = b"VAXDLT1\0";
/// Frame bytes before the payload: magic, version, payload length.
pub(crate) const HEADER: usize = 20;

// Structural caps. Each bounds an allocation or a reconstruction cost
// that a length prefix alone cannot (zero RLE runs and table capacities
// expand beyond their encoded size).
pub(crate) const MAX_MEM_BYTES: u32 = 1 << 30;
const MAX_VMS: u32 = 256;
const MAX_TLB_SLOTS: u32 = 1 << 16;
const MAX_NAME: usize = 256;
const MAX_DIAG: usize = 256;
const MAX_LOG_LINES: u32 = 1 << 16;
const MAX_LOG_LINE: usize = 4096;
const MAX_CONSOLE: usize = 1 << 24;
const MAX_VDISK_SECTORS: u32 = 1 << 20;
const MAX_PENDING: u32 = 4096;
const MAX_CACHE_SLOTS: u32 = 4096;
const MAX_TABLE_PAGES: u32 = 1 << 22;

// Global materialization budget, per image. The per-field caps above
// bound each allocation individually; this bounds their *sum*, so a
// few-KB hostile image cannot claim the memory cap plus 256 maximal
// zero-RLE vdisks (~129 GiB) one legal field at a time. Every image of
// a chain is charged for the machine memory it decodes into, whether it
// allocates it (the base) or patches it (each delta), so an image costs
// the same wherever it sits in a chain. [`validate_caps`] enforces the
// same budget at capture, so a monitor that snapshots is a monitor that
// restores.
pub(crate) const MAX_TOTAL_BYTES: u64 = 2 * MAX_MEM_BYTES as u64;

/// Deducts `bytes` of materialized decode output from the budget.
fn charge(remaining: &mut u64, bytes: u64) -> Result<(), SnapshotError> {
    if bytes > *remaining {
        return Err(SnapshotError::Invalid {
            what: "image over decode size budget",
        });
    }
    *remaining -= bytes;
    Ok(())
}

/// The image writer. Frames `image` as a delta against the image whose
/// digest is `parent`, carrying `pages` of `mem` — strictly ascending
/// page numbers — coalesced into runs of consecutive pages and
/// run-length coded straight from memory. A full snapshot passes
/// `snapshot_digest(&[])` and every page; an incremental one passes its
/// predecessor's digest and the pages written since. A pure function of
/// its inputs: identical state encodes to identical bytes, which is
/// what lets tests assert snapshot determinism as byte equality.
///
/// # Errors
///
/// [`SnapshotError::Invalid`] if `mem` is not the configured size or
/// `pages` is not strictly ascending within it.
pub(crate) fn encode(
    image: &MonitorImage,
    parent: u64,
    mem: &PhysMemory,
    pages: impl IntoIterator<Item = u32>,
) -> Result<Vec<u8>, SnapshotError> {
    if mem.size() != image.config.mem_bytes {
        return Err(SnapshotError::Invalid {
            what: "memory size disagrees with configuration",
        });
    }
    let mut w = Writer::new();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u64(0); // payload length, set below
    write_payload(&mut w, image, parent, mem, pages)?;
    let mut bytes = w.into_bytes();
    let len = (bytes.len() - HEADER) as u64;
    bytes[HEADER - 8..HEADER].copy_from_slice(&len.to_le_bytes());
    let checksum = fnv1a64(&bytes[HEADER..]);
    bytes.extend_from_slice(&checksum.to_le_bytes());
    Ok(bytes)
}

fn write_payload(
    w: &mut Writer,
    image: &MonitorImage,
    parent: u64,
    mem: &PhysMemory,
    pages: impl IntoIterator<Item = u32>,
) -> Result<(), SnapshotError> {
    w.u64(parent);
    write_monitor_config(w, &image.config);
    write_scheduler(w, &image.sched);
    write_machine(w, &image.machine);
    w.u32(image.vms.len() as u32);
    for vm in &image.vms {
        write_vm_config(w, &vm.config);
        write_vm(w, &vm.vm);
        write_shadow(w, &vm.shadow);
    }
    let invalid = SnapshotError::Invalid {
        what: "page list unsorted or past the end of memory",
    };
    let count_at = w.u32_placeholder();
    let mut count = 0;
    // First page not yet covered: the writer's mirror of the reader's
    // sorted-and-disjoint check.
    let mut next_free = 0;
    let mut pages = pages.into_iter().peekable();
    while let Some(start) = pages.next() {
        if start < next_free || start >= mem.pages() {
            return Err(invalid);
        }
        let mut end = start + 1;
        while pages.next_if_eq(&end).is_some() {
            end += 1;
        }
        if end > mem.pages() {
            return Err(invalid);
        }
        w.u32(start);
        w.rle_pages((start..end).map_while(|p| mem.page(p)));
        count += 1;
        next_free = end;
    }
    w.patch_u32(count_at, count);
    Ok(())
}

/// The payload layouts the reader accepts, by frame magic and version.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// Version 3, and the `VAXDLT1\0` version-1 deltas: parent digest
    /// first, memory as page extents last.
    Extents,
    /// Version 2 full images: no parent digest (the zero image's), all
    /// of memory as one RLE stream between machine state and VMs.
    FullV2,
}

/// Reconstructs the state at the end of a chain — `base`, then each of
/// `deltas` in order — decoding every image straight into the one
/// memory it returns. Each image must name the digest of its
/// predecessor's bytes as its parent, and `base` the zero image's, so a
/// wrong base, a reordered chain, or a delta restored on its own fails
/// before its state is used. `budget` is the per-image materialization
/// budget ([`MAX_TOTAL_BYTES`] outside tests, which use it to exercise
/// the aggregate limit without multi-GiB images).
pub(crate) fn decode_chain<D: AsRef<[u8]>>(
    base: &[u8],
    deltas: &[D],
    budget: u64,
) -> Result<(MonitorImage, PhysMemory), SnapshotError> {
    // Empty until the base sizes it: the one memory of the restore.
    let mut memory = Vec::new();
    let mut image = decode_image(base, fnv1a64(&[]), &mut memory, budget)?;
    let mut parent = base;
    for delta in deltas {
        let delta = delta.as_ref();
        image = decode_image(delta, fnv1a64(parent), &mut memory, budget)?;
        parent = delta;
    }
    let memory = PhysMemory::from_vec(memory).ok_or(SnapshotError::Invalid {
        what: "machine memory size",
    })?;
    Ok((image, memory))
}

/// Decodes one image, checking that it names `parent`, into `memory`.
fn decode_image(
    bytes: &[u8],
    parent: u64,
    memory: &mut Vec<u8>,
    budget: u64,
) -> Result<MonitorImage, SnapshotError> {
    let (layout, payload) = unframe(bytes)?;
    let mut r = Reader::new(payload);
    let mut remaining = budget;
    let image = read_payload(&mut r, layout, parent, memory, &mut remaining)?;
    if !r.is_empty() {
        return Err(SnapshotError::TrailingBytes);
    }
    Ok(image)
}

/// The frame reader: magic and version pick the payload layout; the
/// length, the checksum and the absence of trailing bytes are checked
/// before the payload is parsed.
fn unframe(bytes: &[u8]) -> Result<(Layout, &[u8]), SnapshotError> {
    let mut r = Reader::new(bytes);
    let magic = r.take(8)?;
    let version = r.u32()?;
    let layout = match version {
        VERSION if magic == MAGIC => Layout::Extents,
        FULL_V2 if magic == MAGIC => Layout::FullV2,
        1 if magic == DELTA_MAGIC => Layout::Extents,
        found if magic == MAGIC || magic == DELTA_MAGIC => {
            return Err(SnapshotError::UnsupportedVersion { found })
        }
        _ => return Err(SnapshotError::BadMagic),
    };
    let len = usize::try_from(r.u64()?).map_err(|_| SnapshotError::Truncated)?;
    let payload = r.take(len)?;
    let expected = r.u64()?;
    if !r.is_empty() {
        return Err(SnapshotError::TrailingBytes);
    }
    let actual = fnv1a64(payload);
    if actual != expected {
        return Err(SnapshotError::Checksum { expected, actual });
    }
    Ok((layout, payload))
}

/// The payload reader. `memory` is empty for the first image of a
/// chain, which allocates it zeroed; every later image must agree on
/// its size and overwrites the pages it carries.
fn read_payload(
    r: &mut Reader<'_>,
    layout: Layout,
    parent: u64,
    memory: &mut Vec<u8>,
    remaining: &mut u64,
) -> Result<MonitorImage, SnapshotError> {
    let recorded = match layout {
        Layout::Extents => r.u64()?,
        Layout::FullV2 => fnv1a64(&[]),
    };
    if recorded != parent {
        return Err(SnapshotError::Invalid {
            what: if parent == fnv1a64(&[]) {
                "image is a delta, not a full snapshot"
            } else {
                "delta chain digest mismatch"
            },
        });
    }
    let config = read_monitor_config(r)?;
    charge(remaining, u64::from(config.mem_bytes))?;
    let zeroed = memory.is_empty();
    if zeroed {
        *memory = vec![0; config.mem_bytes as usize];
    } else if memory.len() != config.mem_bytes as usize {
        return Err(SnapshotError::Invalid {
            what: "delta memory size disagrees with base",
        });
    }
    let sched = read_scheduler(r)?;
    let machine = read_machine(r, remaining)?;
    if layout == Layout::FullV2 {
        r.rle_pages(memory, zeroed, "memory image")?;
    }
    let vm_count = r.u32()?;
    if vm_count > MAX_VMS {
        return Err(SnapshotError::Invalid {
            what: "VM count over format cap",
        });
    }
    if let Some(current) = sched.current {
        if current >= vm_count as usize {
            return Err(SnapshotError::Invalid {
                what: "current VM index out of range",
            });
        }
    }
    let mut vms = Vec::new();
    for _ in 0..vm_count {
        let vm_config = read_vm_config(r)?;
        let vm = read_vm(r, &vm_config, remaining)?;
        let shadow = read_shadow(r, &vm_config)?;
        vms.push(VmImage {
            config: vm_config,
            vm,
            shadow,
        });
    }
    if layout == Layout::Extents {
        read_extents(r, memory, zeroed)?;
    }
    Ok(MonitorImage {
        config,
        sched,
        machine,
        vms,
    })
}

/// Decodes the page extents into `memory`: strictly ascending, disjoint
/// and within the memory, each checked before any of its bytes land.
fn read_extents(r: &mut Reader<'_>, memory: &mut [u8], zeroed: bool) -> Result<(), SnapshotError> {
    let mem_pages = (memory.len() / PAGE) as u32;
    let count = r.u32()?;
    // Extents are non-empty and disjoint, so more of them than pages
    // cannot be legal.
    if count > mem_pages {
        return Err(SnapshotError::Invalid {
            what: "extent count over memory size",
        });
    }
    // First page not yet covered; enforces sorted + disjoint.
    let mut next_free = 0u32;
    for _ in 0..count {
        let start = r.u32()?;
        if start < next_free || start >= mem_pages {
            return Err(SnapshotError::Invalid {
                what: "extents unsorted or out of range",
            });
        }
        let pages = r.u32()?;
        if pages == 0 || pages > mem_pages - start {
            return Err(SnapshotError::Invalid {
                what: "extent size out of range",
            });
        }
        let at = start as usize * PAGE;
        r.rle_body(
            &mut memory[at..at + pages as usize * PAGE],
            zeroed,
            "memory extent",
        )?;
        next_free = start + pages;
    }
    Ok(())
}

/// Checks a captured image against every structural cap the decoder
/// enforces, including the aggregate [`MAX_TOTAL_BYTES`] budget. Called
/// by [`crate::image::capture`] so that a monitor whose legitimate
/// running state outgrew the wire format (an undrained console past
/// [`MAX_CONSOLE`], a marathon `vmm_log`) fails **at snapshot** with
/// [`SnapshotError::Unsupported`] — never the trap of an image that
/// encodes fine but can never be restored.
pub(crate) fn validate_caps(image: &MonitorImage) -> Result<(), SnapshotError> {
    validate_caps_with_budget(image, MAX_TOTAL_BYTES)
}

/// [`validate_caps`] with an explicit aggregate budget (test seam).
pub(crate) fn validate_caps_with_budget(
    image: &MonitorImage,
    budget: u64,
) -> Result<(), SnapshotError> {
    let unsupported = |what| Err(SnapshotError::Unsupported { what });
    let diag_fits = |e: VmmError| match e {
        VmmError::Undeliverable { what }
        | VmmError::GuestState { what }
        | VmmError::Mmio { what }
        | VmmError::Internal { what }
        | VmmError::Snapshot { what } => what.len() <= MAX_DIAG,
        _ => true,
    };
    if image.config.mem_bytes > MAX_MEM_BYTES {
        return unsupported("machine memory over snapshot cap");
    }
    // The wire format carries memory as whole pages; decode rejects a
    // misaligned size, so refuse to capture one.
    if !image.config.mem_bytes.is_multiple_of(PAGE as u32) {
        return unsupported("machine memory not page-aligned");
    }
    if image.vms.len() > MAX_VMS as usize {
        return unsupported("VM count over snapshot cap");
    }
    let m = &image.machine;
    if m.mmu.tlb.slots.len() > MAX_TLB_SLOTS as usize {
        return unsupported("TLB slot count over snapshot cap");
    }
    if m.pending_irqs.len() > MAX_PENDING as usize {
        return unsupported("pending interrupt count over snapshot cap");
    }
    if m.console_tx.len() > MAX_CONSOLE || m.console_rx.len() > MAX_CONSOLE {
        return unsupported("machine console buffer over snapshot cap");
    }
    // Mirror of decode's running total: memory by configured size, then
    // every variable-length buffer the decoder materializes.
    let mut total =
        u64::from(image.config.mem_bytes) + m.console_tx.len() as u64 + m.console_rx.len() as u64;
    for vm in &image.vms {
        if vm.vm.name.len() > MAX_NAME {
            return unsupported("VM name over snapshot cap");
        }
        let s = &vm.config.shadow;
        if s.s_capacity > MAX_TABLE_PAGES
            || s.p0_capacity > MAX_TABLE_PAGES
            || s.p1_capacity > MAX_TABLE_PAGES
            || s.cache_slots > MAX_CACHE_SLOTS as usize
        {
            return unsupported("shadow configuration over snapshot cap");
        }
        if vm.vm.console_out.len() > MAX_CONSOLE || vm.vm.console_in.len() > MAX_CONSOLE {
            return unsupported("VM console buffer over snapshot cap");
        }
        if vm.vm.vmm_log.len() > MAX_LOG_LINES as usize {
            return unsupported("VMM log line count over snapshot cap");
        }
        if vm.vm.vmm_log.iter().any(|l| l.len() > MAX_LOG_LINE) {
            return unsupported("VMM log line over snapshot cap");
        }
        if vm.vm.vdisk.len() > MAX_VDISK_SECTORS as usize {
            return unsupported("virtual disk over snapshot cap");
        }
        if vm.vm.pending_virqs.len() > MAX_PENDING as usize {
            return unsupported("pending virtual interrupt count over snapshot cap");
        }
        if let Some(e) = vm.vm.halt_reason {
            if !diag_fits(e) {
                return unsupported("halt diagnostic over snapshot cap");
            }
        }
        total += vm.vm.console_out.len() as u64
            + vm.vm.console_in.len() as u64
            + vm.vm.vmm_log.iter().map(|l| l.len() as u64).sum::<u64>()
            + vm.vm.vdisk.len() as u64 * PAGE as u64;
    }
    if total > budget {
        return unsupported("monitor state over snapshot size budget");
    }
    Ok(())
}

// ---- monitor-level state ----

fn write_monitor_config(w: &mut Writer, c: &MonitorConfig) {
    w.u32(c.mem_bytes);
    w.u64(c.quantum);
    w.u64(c.wait_timeout);
    w.u64(c.vdisk_latency);
    let v = &c.costs;
    for field in [
        v.dispatch,
        v.chm,
        v.rei,
        v.mtpr_ipl,
        v.mtpr_other,
        v.shadow_fill,
        v.modify_fault,
        v.reflect,
        v.virq_delivery,
        v.context_switch,
        v.kcall,
        v.mmio_access,
        v.wait,
        v.world_switch,
    ] {
        w.u64(field);
    }
}

fn read_monitor_config(r: &mut Reader<'_>) -> Result<MonitorConfig, SnapshotError> {
    let mem_bytes = r.u32()?;
    if mem_bytes == 0 || mem_bytes % PAGE as u32 != 0 || mem_bytes > MAX_MEM_BYTES {
        return Err(SnapshotError::Invalid {
            what: "machine memory size",
        });
    }
    let quantum = r.u64()?;
    if quantum == 0 {
        return Err(SnapshotError::Invalid {
            what: "zero scheduling quantum",
        });
    }
    let wait_timeout = r.u64()?;
    let vdisk_latency = r.u64()?;
    let mut f = [0u64; 14];
    for slot in &mut f {
        *slot = r.u64()?;
    }
    Ok(MonitorConfig {
        mem_bytes,
        quantum,
        wait_timeout,
        vdisk_latency,
        costs: VmmCosts {
            dispatch: f[0],
            chm: f[1],
            rei: f[2],
            mtpr_ipl: f[3],
            mtpr_other: f[4],
            shadow_fill: f[5],
            modify_fault: f[6],
            reflect: f[7],
            virq_delivery: f[8],
            context_switch: f[9],
            kcall: f[10],
            mmio_access: f[11],
            wait: f[12],
            world_switch: f[13],
        },
    })
}

fn write_scheduler(w: &mut Writer, s: &SchedulerState) {
    w.opt_u32(s.current.map(|c| c as u32));
    w.u64(s.vmm_cycles);
    w.u64(s.world_switches);
}

fn read_scheduler(r: &mut Reader<'_>) -> Result<SchedulerState, SnapshotError> {
    Ok(SchedulerState {
        current: r.opt_u32("current VM")?.map(|c| c as usize),
        vmm_cycles: r.u64()?,
        world_switches: r.u64()?,
    })
}

// ---- machine state ----

fn write_vmpsl(w: &mut Writer, v: VmPsl) {
    w.u8(v.cur_mode().bits() as u8);
    w.u8(v.prv_mode().bits() as u8);
    w.u8(v.ipl());
}

fn read_vmpsl(r: &mut Reader<'_>) -> Result<VmPsl, SnapshotError> {
    let cur = r.u8()?;
    let prv = r.u8()?;
    let ipl = r.u8()?;
    if cur > 3 || prv > 3 {
        return Err(SnapshotError::BadDiscriminant { what: "VMPSL mode" });
    }
    if ipl > 31 {
        return Err(SnapshotError::BadDiscriminant { what: "VMPSL IPL" });
    }
    Ok(VmPsl::new(
        AccessMode::from_bits(u32::from(cur)),
        AccessMode::from_bits(u32::from(prv)),
    )
    .with_ipl(ipl))
}

fn write_cost_model(w: &mut Writer, c: &CostModel) {
    for field in [
        c.base_instruction,
        c.memory_reference,
        c.tlb_miss_system,
        c.tlb_miss_process,
        c.exception_entry,
        c.rei,
        c.chm,
        c.mtpr_ipl_fast,
        c.mtpr_other,
        c.context_switch,
        c.probe_fast,
        c.probevm,
        c.movpsl,
        c.string_per_byte,
        c.set_modify_bit,
        c.vm_emulation_trap,
        c.device_csr,
    ] {
        w.u64(field);
    }
}

fn read_cost_model(r: &mut Reader<'_>) -> Result<CostModel, SnapshotError> {
    let mut f = [0u64; 17];
    for slot in &mut f {
        *slot = r.u64()?;
    }
    Ok(CostModel {
        base_instruction: f[0],
        memory_reference: f[1],
        tlb_miss_system: f[2],
        tlb_miss_process: f[3],
        exception_entry: f[4],
        rei: f[5],
        chm: f[6],
        mtpr_ipl_fast: f[7],
        mtpr_other: f[8],
        context_switch: f[9],
        probe_fast: f[10],
        probevm: f[11],
        movpsl: f[12],
        string_per_byte: f[13],
        set_modify_bit: f[14],
        vm_emulation_trap: f[15],
        device_csr: f[16],
    })
}

fn write_counters(w: &mut Writer, c: &CpuCounters) {
    for field in [
        c.instructions,
        c.exceptions,
        c.interrupts,
        c.chm,
        c.rei,
        c.movpsl,
        c.probe,
        c.probevm,
        c.mtpr_ipl,
        c.mtpr_other,
        c.vm_emulation_traps,
        c.vm_exception_exits,
        c.vm_interrupt_exits,
        c.context_switches,
        c.device_csr_accesses,
        c.tlb_hits,
        c.tlb_misses,
    ] {
        w.u64(field);
    }
}

fn read_counters(r: &mut Reader<'_>) -> Result<CpuCounters, SnapshotError> {
    let mut f = [0u64; 17];
    for slot in &mut f {
        *slot = r.u64()?;
    }
    Ok(CpuCounters {
        instructions: f[0],
        exceptions: f[1],
        interrupts: f[2],
        chm: f[3],
        rei: f[4],
        movpsl: f[5],
        probe: f[6],
        probevm: f[7],
        mtpr_ipl: f[8],
        mtpr_other: f[9],
        vm_emulation_traps: f[10],
        vm_exception_exits: f[11],
        vm_interrupt_exits: f[12],
        context_switches: f[13],
        device_csr_accesses: f[14],
        tlb_hits: f[15],
        tlb_misses: f[16],
    })
}

fn write_tlb(w: &mut Writer, t: &TlbState) {
    w.u32(t.slots.len() as u32);
    for slot in &t.slots {
        match slot {
            None => w.bool(false),
            Some(e) => {
                w.bool(true);
                w.u32(e.tag);
                w.u32(e.pfn);
                w.u8(e.prot.bits() as u8);
                w.bool(e.modified);
                w.u32(e.pte_pa);
                w.bool(e.process);
            }
        }
    }
    w.u64(t.hits);
    w.u64(t.misses);
}

fn read_tlb(r: &mut Reader<'_>) -> Result<TlbState, SnapshotError> {
    let n = r.u32()?;
    // Tlb::import_state asserts on a non-power-of-two count; reject
    // here so the importer can never fire.
    if n == 0 || !n.is_power_of_two() || n > MAX_TLB_SLOTS {
        return Err(SnapshotError::Invalid {
            what: "TLB slot count",
        });
    }
    let mut slots = Vec::with_capacity(n as usize);
    for _ in 0..n {
        if r.bool("TLB slot presence")? {
            let tag = r.u32()?;
            let pfn = r.u32()?;
            let prot = r.u8()?;
            if prot > 0xf {
                return Err(SnapshotError::BadDiscriminant {
                    what: "TLB protection code",
                });
            }
            let modified = r.bool("TLB modified bit")?;
            let pte_pa = r.u32()?;
            let process = r.bool("TLB process bit")?;
            slots.push(Some(TlbEntry {
                tag,
                pfn,
                prot: Protection::from_bits(u32::from(prot)),
                modified,
                pte_pa,
                process,
            }));
        } else {
            slots.push(None);
        }
    }
    Ok(TlbState {
        slots,
        hits: r.u64()?,
        misses: r.u64()?,
    })
}

fn write_mmu(w: &mut Writer, m: &MmuState) {
    w.bool(m.mapen);
    w.u32(m.p0br);
    w.u32(m.p0lr);
    w.u32(m.p1br);
    w.u32(m.p1lr);
    w.u32(m.sbr);
    w.u32(m.slr);
    w.bool(m.modify_fault_enabled);
    w.u64(m.counters.walks);
    w.u64(m.counters.m_bit_sets);
    w.u64(m.counters.modify_faults);
    write_tlb(w, &m.tlb);
}

fn read_mmu(r: &mut Reader<'_>) -> Result<MmuState, SnapshotError> {
    Ok(MmuState {
        mapen: r.bool("MAPEN")?,
        p0br: r.u32()?,
        p0lr: r.u32()?,
        p1br: r.u32()?,
        p1lr: r.u32()?,
        sbr: r.u32()?,
        slr: r.u32()?,
        modify_fault_enabled: r.bool("modify-fault enable")?,
        counters: MemCounters {
            walks: r.u64()?,
            m_bit_sets: r.u64()?,
            modify_faults: r.u64()?,
        },
        tlb: read_tlb(r)?,
    })
}

fn write_timer(w: &mut Writer, t: &IntervalTimer) {
    w.u32(t.iccs);
    w.i64(t.nicr);
    w.i64(t.icr);
}

fn read_timer(r: &mut Reader<'_>) -> Result<IntervalTimer, SnapshotError> {
    Ok(IntervalTimer {
        iccs: r.u32()?,
        nicr: r.i64()?,
        icr: r.i64()?,
    })
}

fn write_machine(w: &mut Writer, m: &MachineState) {
    for reg in m.regs {
        w.u32(reg);
    }
    w.u32(m.psl_raw);
    write_vmpsl(w, m.vmpsl);
    for sp in m.sp_bank {
        w.u32(sp);
    }
    w.u32(m.scbb);
    w.u32(m.pcbb);
    w.u32(m.astlvl);
    w.u16(m.sisr);
    w.u32(m.todr);
    w.u64(m.todr_acc);
    write_cost_model(w, &m.costs);
    write_mmu(w, &m.mmu);
    w.blob(&m.console_tx);
    w.blob(&m.console_rx);
    write_timer(w, &m.timer);
    w.u32(m.pending_irqs.len() as u32);
    for irq in &m.pending_irqs {
        w.u8(irq.ipl);
        w.u16(irq.vector);
    }
    w.u64(m.cycles);
    w.u64(m.exit_stamp);
    write_counters(w, &m.counters);
    w.bool(m.halted);
    // The write-tracking byte: always 1, as tracking cannot be off; the
    // layout keeps it so stored images and the pinned digest still hold
    // (DESIGN.md §13).
    w.bool(true);
}

fn read_machine(r: &mut Reader<'_>, remaining: &mut u64) -> Result<MachineState, SnapshotError> {
    let mut regs = [0u32; 16];
    for reg in &mut regs {
        *reg = r.u32()?;
    }
    let psl_raw = r.u32()?;
    let vmpsl = read_vmpsl(r)?;
    let mut sp_bank = [0u32; 5];
    for sp in &mut sp_bank {
        *sp = r.u32()?;
    }
    let scbb = r.u32()?;
    let pcbb = r.u32()?;
    let astlvl = r.u32()?;
    let sisr = r.u16()?;
    let todr = r.u32()?;
    let todr_acc = r.u64()?;
    let costs = read_cost_model(r)?;
    let mmu = read_mmu(r)?;
    let console_tx = r.blob_capped(MAX_CONSOLE, "console output length")?;
    charge(remaining, console_tx.len() as u64)?;
    let console_tx = console_tx.to_vec();
    let console_rx = r.blob_capped(MAX_CONSOLE, "console input length")?;
    charge(remaining, console_rx.len() as u64)?;
    let console_rx = console_rx.to_vec();
    let timer = read_timer(r)?;
    let n_irqs = r.u32()?;
    if n_irqs > MAX_PENDING {
        return Err(SnapshotError::Invalid {
            what: "pending interrupt count",
        });
    }
    let mut pending_irqs = Vec::new();
    for _ in 0..n_irqs {
        pending_irqs.push(IrqRequest {
            ipl: r.u8()?,
            vector: r.u16()?,
        });
    }
    let state = MachineState {
        regs,
        psl_raw,
        vmpsl,
        sp_bank,
        scbb,
        pcbb,
        astlvl,
        sisr,
        todr,
        todr_acc,
        costs,
        mmu,
        console_tx,
        console_rx,
        timer,
        pending_irqs,
        cycles: r.u64()?,
        exit_stamp: r.u64()?,
        counters: read_counters(r)?,
        halted: r.bool("halted")?,
    };
    // Validated, then ignored: tracking is always on.
    r.bool("write tracking")?;
    Ok(state)
}

// ---- per-VM state ----

fn write_vm_config(w: &mut Writer, c: &VmConfig) {
    w.u32(c.mem_pages);
    w.u32(c.shadow.s_capacity);
    w.u32(c.shadow.p0_capacity);
    w.u32(c.shadow.p1_capacity);
    w.u32(c.shadow.cache_slots as u32);
    w.u32(c.shadow.prefill_group);
    w.u8(match c.io_strategy {
        IoStrategy::StartIo => 0,
        IoStrategy::EmulatedMmio => 1,
    });
    w.u8(match c.dirty_strategy {
        DirtyStrategy::ModifyFault => 0,
        DirtyStrategy::ReadOnlyShadow => 1,
    });
    w.u32(c.vdisk_sectors);
}

fn read_vm_config(r: &mut Reader<'_>) -> Result<VmConfig, SnapshotError> {
    let mem_pages = r.u32()?;
    if mem_pages == 0 || mem_pages > MAX_MEM_BYTES / PAGE as u32 {
        return Err(SnapshotError::Invalid {
            what: "VM memory size",
        });
    }
    let s_capacity = r.u32()?;
    let p0_capacity = r.u32()?;
    let p1_capacity = r.u32()?;
    if s_capacity > MAX_TABLE_PAGES
        || p0_capacity > MAX_TABLE_PAGES
        || p1_capacity > MAX_TABLE_PAGES
    {
        return Err(SnapshotError::Invalid {
            what: "shadow capacity over format cap",
        });
    }
    let cache_slots = r.u32()?;
    // ShadowSet::new asserts at least one slot; reject zero here.
    if cache_slots == 0 || cache_slots > MAX_CACHE_SLOTS {
        return Err(SnapshotError::Invalid {
            what: "shadow cache slot count",
        });
    }
    let prefill_group = r.u32()?;
    if prefill_group == 0 {
        return Err(SnapshotError::Invalid {
            what: "zero prefill group",
        });
    }
    let io_strategy = match r.u8()? {
        0 => IoStrategy::StartIo,
        1 => {
            // The capture side refuses EmulatedMmio VMs; an image
            // claiming one is either corrupt or from a future format.
            return Err(SnapshotError::Unsupported {
                what: "EmulatedMmio VM in snapshot",
            });
        }
        _ => {
            return Err(SnapshotError::BadDiscriminant {
                what: "I/O strategy",
            })
        }
    };
    let dirty_strategy = match r.u8()? {
        0 => DirtyStrategy::ModifyFault,
        1 => DirtyStrategy::ReadOnlyShadow,
        _ => {
            return Err(SnapshotError::BadDiscriminant {
                what: "dirty-bit strategy",
            })
        }
    };
    let vdisk_sectors = r.u32()?;
    if vdisk_sectors > MAX_VDISK_SECTORS {
        return Err(SnapshotError::Invalid {
            what: "virtual disk size",
        });
    }
    Ok(VmConfig {
        mem_pages,
        shadow: ShadowConfig {
            s_capacity,
            p0_capacity,
            p1_capacity,
            cache_slots: cache_slots as usize,
            prefill_group,
        },
        io_strategy,
        dirty_strategy,
        vdisk_sectors,
    })
}

fn write_vmm_error(w: &mut Writer, e: VmmError) {
    match e {
        VmmError::PageTableWalk { gpa } => {
            w.u8(0);
            w.u32(gpa);
        }
        VmmError::ProcessBaseNotS { base } => {
            w.u8(1);
            w.u32(base);
        }
        VmmError::PteFrame { gpfn } => {
            w.u8(2);
            w.u32(gpfn);
        }
        VmmError::NonexistentMemory { gpa } => {
            w.u8(3);
            w.u32(gpa);
        }
        VmmError::RealMachineCheck { code } => {
            w.u8(4);
            w.u32(code);
        }
        VmmError::Undeliverable { what } => {
            w.u8(5);
            w.str(what);
        }
        VmmError::GuestState { what } => {
            w.u8(6);
            w.str(what);
        }
        VmmError::Mmio { what } => {
            w.u8(7);
            w.str(what);
        }
        VmmError::Internal { what } => {
            w.u8(8);
            w.str(what);
        }
        VmmError::DiskSector { sector, capacity } => {
            w.u8(9);
            w.u32(sector);
            w.u32(capacity);
        }
        VmmError::DiskBuffer { len } => {
            w.u8(10);
            w.u64(len as u64);
        }
        VmmError::GuestRange { gpa, len } => {
            w.u8(11);
            w.u32(gpa);
            w.u32(len);
        }
        VmmError::Snapshot { what } => {
            w.u8(12);
            w.str(what);
        }
    }
}

fn read_vmm_error(r: &mut Reader<'_>) -> Result<VmmError, SnapshotError> {
    let diag = |r: &mut Reader<'_>| -> Result<&'static str, SnapshotError> {
        Ok(intern_diagnostic(
            r.str_capped(MAX_DIAG, "diagnostic message")?,
        ))
    };
    Ok(match r.u8()? {
        0 => VmmError::PageTableWalk { gpa: r.u32()? },
        1 => VmmError::ProcessBaseNotS { base: r.u32()? },
        2 => VmmError::PteFrame { gpfn: r.u32()? },
        3 => VmmError::NonexistentMemory { gpa: r.u32()? },
        4 => VmmError::RealMachineCheck { code: r.u32()? },
        5 => VmmError::Undeliverable { what: diag(r)? },
        6 => VmmError::GuestState { what: diag(r)? },
        7 => VmmError::Mmio { what: diag(r)? },
        8 => VmmError::Internal { what: diag(r)? },
        9 => VmmError::DiskSector {
            sector: r.u32()?,
            capacity: r.u32()?,
        },
        10 => VmmError::DiskBuffer {
            len: usize::try_from(r.u64()?).map_err(|_| SnapshotError::Invalid {
                what: "disk buffer length",
            })?,
        },
        11 => VmmError::GuestRange {
            gpa: r.u32()?,
            len: r.u32()?,
        },
        12 => VmmError::Snapshot { what: diag(r)? },
        _ => {
            return Err(SnapshotError::BadDiscriminant {
                what: "halt reason",
            })
        }
    })
}

fn write_vm(w: &mut Writer, v: &Vm) {
    w.str(&v.name);
    w.u32(v.mem_base_pfn);
    w.u32(v.mem_pages);
    for reg in v.regs {
        w.u32(reg);
    }
    w.u32(v.psl_flags.raw());
    write_vmpsl(w, v.vmpsl);
    for sp in v.vsp {
        w.u32(sp);
    }
    w.u32(v.vsp_is);
    w.bool(v.v_is);
    w.u32(v.guest_scbb);
    w.u32(v.guest_pcbb);
    w.u32(v.guest_sbr);
    w.u32(v.guest_slr);
    w.u32(v.guest_p0br);
    w.u32(v.guest_p0lr);
    w.u32(v.guest_p1br);
    w.u32(v.guest_p1lr);
    w.bool(v.guest_mapen);
    w.u32(v.guest_astlvl);
    w.u16(v.guest_sisr);
    w.u32(v.guest_todr);
    write_timer(w, &v.vtimer);
    w.blob(&v.console_out);
    w.u32(v.vmm_log.len() as u32);
    for line in &v.vmm_log {
        w.str(line);
    }
    let console_in: Vec<u8> = v.console_in.iter().copied().collect();
    w.blob(&console_in);
    w.rle_pages(v.vdisk.iter().map(|sector| &sector[..]));
    match v.vdisk_pending {
        None => w.bool(false),
        Some((at, irq, status_gpa)) => {
            w.bool(true);
            w.u64(at);
            w.u8(irq.ipl);
            w.u16(irq.vector);
            w.u32(status_gpa);
        }
    }
    w.opt_u32(v.uptime_cell);
    match v.state {
        VmState::Ready => w.u8(0),
        VmState::Idle { until } => {
            w.u8(1);
            w.u64(until);
        }
        VmState::ConsoleHalt => w.u8(2),
    }
    match v.halt_reason {
        None => w.bool(false),
        Some(e) => {
            w.bool(true);
            write_vmm_error(w, e);
        }
    }
    w.u32(v.pending_virqs.len() as u32);
    for irq in &v.pending_virqs {
        w.u8(irq.ipl);
        w.u16(irq.vector);
    }
    w.u32(v.uptime_ticks);
    let s = &v.stats;
    for field in [
        s.cycles_run,
        s.vmm_cycles,
        s.emulation_traps,
        s.chm,
        s.rei,
        s.mtpr_ipl,
        s.mtpr_other,
        s.shadow_fills,
        s.shadow_faults,
        s.modify_faults,
        s.dirty_upgrades,
        s.probew_extra_traps,
        s.reflected,
        s.virqs,
        s.guest_context_switches,
        s.shadow_cache_hits,
        s.shadow_cache_misses,
        s.kcalls,
        s.mmio_accesses,
        s.waits,
        s.guest_page_faults,
        s.machine_checks,
    ] {
        w.u64(field);
    }
}

fn read_vm(
    r: &mut Reader<'_>,
    config: &VmConfig,
    remaining: &mut u64,
) -> Result<Vm, SnapshotError> {
    let name = r.str_capped(MAX_NAME, "VM name length")?.to_string();
    let mem_base_pfn = r.u32()?;
    let mem_pages = r.u32()?;
    if mem_pages != config.mem_pages {
        return Err(SnapshotError::Invalid {
            what: "VM memory size disagrees with its config",
        });
    }
    let mut regs = [0u32; 16];
    for reg in &mut regs {
        *reg = r.u32()?;
    }
    let psl_flags = Psl::from_raw(r.u32()?);
    let vmpsl = read_vmpsl(r)?;
    let mut vsp = [0u32; 4];
    for sp in &mut vsp {
        *sp = r.u32()?;
    }
    let vsp_is = r.u32()?;
    let v_is = r.bool("virtual interrupt-stack flag")?;
    let guest_scbb = r.u32()?;
    let guest_pcbb = r.u32()?;
    let guest_sbr = r.u32()?;
    let guest_slr = r.u32()?;
    let guest_p0br = r.u32()?;
    let guest_p0lr = r.u32()?;
    let guest_p1br = r.u32()?;
    let guest_p1lr = r.u32()?;
    let guest_mapen = r.bool("guest MAPEN")?;
    let guest_astlvl = r.u32()?;
    let guest_sisr = r.u16()?;
    let guest_todr = r.u32()?;
    let vtimer = read_timer(r)?;
    let console_out = r.blob_capped(MAX_CONSOLE, "console output length")?;
    charge(remaining, console_out.len() as u64)?;
    let console_out = console_out.to_vec();
    let n_log = r.u32()?;
    if n_log > MAX_LOG_LINES {
        return Err(SnapshotError::Invalid {
            what: "VMM log line count",
        });
    }
    let mut vmm_log = Vec::new();
    for _ in 0..n_log {
        let line = r.str_capped(MAX_LOG_LINE, "VMM log line length")?;
        charge(remaining, line.len() as u64)?;
        vmm_log.push(line.to_string());
    }
    let console_in = r.blob_capped(MAX_CONSOLE, "console input length")?;
    charge(remaining, console_in.len() as u64)?;
    let console_in: VecDeque<u8> = console_in.iter().copied().collect();
    charge(remaining, u64::from(config.vdisk_sectors) * PAGE as u64)?;
    let mut vdisk = vec![[0u8; PAGE]; config.vdisk_sectors as usize];
    r.rle_pages(vdisk.as_flattened_mut(), true, "virtual disk image")?;
    let vdisk_pending = if r.bool("pending disk I/O presence")? {
        let at = r.u64()?;
        let irq = VirtualIrq {
            ipl: r.u8()?,
            vector: r.u16()?,
        };
        Some((at, irq, r.u32()?))
    } else {
        None
    };
    let uptime_cell = r.opt_u32("uptime cell")?;
    let state = match r.u8()? {
        0 => VmState::Ready,
        1 => VmState::Idle { until: r.u64()? },
        2 => VmState::ConsoleHalt,
        _ => return Err(SnapshotError::BadDiscriminant { what: "VM state" }),
    };
    let halt_reason = if r.bool("halt reason presence")? {
        Some(read_vmm_error(r)?)
    } else {
        None
    };
    let n_virqs = r.u32()?;
    if n_virqs > MAX_PENDING {
        return Err(SnapshotError::Invalid {
            what: "pending virtual interrupt count",
        });
    }
    let mut pending_virqs = Vec::new();
    for _ in 0..n_virqs {
        pending_virqs.push(VirtualIrq {
            ipl: r.u8()?,
            vector: r.u16()?,
        });
    }
    let uptime_ticks = r.u32()?;
    let mut f = [0u64; 22];
    for slot in &mut f {
        *slot = r.u64()?;
    }
    Ok(Vm {
        name,
        mem_base_pfn,
        mem_pages,
        regs,
        psl_flags,
        vmpsl,
        vsp,
        vsp_is,
        v_is,
        guest_scbb,
        guest_pcbb,
        guest_sbr,
        guest_slr,
        guest_p0br,
        guest_p0lr,
        guest_p1br,
        guest_p1lr,
        guest_mapen,
        guest_astlvl,
        guest_sisr,
        guest_todr,
        vtimer,
        console_out,
        vmm_log,
        console_in,
        vdisk,
        vdisk_pending,
        uptime_cell,
        real_io_base: None,
        io_strategy: config.io_strategy,
        dirty_strategy: config.dirty_strategy,
        state,
        halt_reason,
        pending_virqs,
        uptime_ticks,
        stats: vax_vmm::VmStats {
            cycles_run: f[0],
            vmm_cycles: f[1],
            emulation_traps: f[2],
            chm: f[3],
            rei: f[4],
            mtpr_ipl: f[5],
            mtpr_other: f[6],
            shadow_fills: f[7],
            shadow_faults: f[8],
            modify_faults: f[9],
            dirty_upgrades: f[10],
            probew_extra_traps: f[11],
            reflected: f[12],
            virqs: f[13],
            guest_context_switches: f[14],
            shadow_cache_hits: f[15],
            shadow_cache_misses: f[16],
            kcalls: f[17],
            mmio_accesses: f[18],
            waits: f[19],
            guest_page_faults: f[20],
            machine_checks: f[21],
        },
    })
}

fn write_shadow(w: &mut Writer, s: &ShadowCacheState) {
    // Slot count is implied by the VM config's cache_slots.
    for key in &s.keys {
        w.opt_u32(*key);
    }
    for lu in &s.last_used {
        w.u64(*lu);
    }
    w.u32(s.active as u32);
    w.u64(s.clock);
    w.u64(s.evictions);
    w.u64(s.invalidations);
}

fn read_shadow(r: &mut Reader<'_>, config: &VmConfig) -> Result<ShadowCacheState, SnapshotError> {
    let slots = config.shadow.cache_slots;
    let mut keys = Vec::new();
    for _ in 0..slots {
        keys.push(r.opt_u32("shadow slot key")?);
    }
    let mut last_used = Vec::new();
    for _ in 0..slots {
        last_used.push(r.u64()?);
    }
    let active = r.u32()? as usize;
    // ShadowSet::import_cache_state asserts on these; reject here.
    if active >= slots {
        return Err(SnapshotError::Invalid {
            what: "active shadow slot out of range",
        });
    }
    Ok(ShadowCacheState {
        keys,
        last_used,
        active,
        clock: r.u64()?,
        evictions: r.u64()?,
        invalidations: r.u64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::capture;
    use vax_vmm::Monitor;

    #[test]
    fn capture_validation_mirrors_the_decode_budget() {
        let mut m = Monitor::new(MonitorConfig::default());
        m.create_vm("a", VmConfig::default());
        m.create_vm("b", VmConfig::default());
        let image = capture(&m).expect("capture");
        assert!(validate_caps(&image).is_ok());
        let err = validate_caps_with_budget(&image, u64::from(image.config.mem_bytes))
            .expect_err("over budget");
        assert_eq!(err.what(), "monitor state over snapshot size budget");
    }
}
