//! Fault-containment regressions (DESIGN.md §11): every guest-reachable
//! failure either reflects into the guest as a virtual machine check or
//! cleanly halts the VM with a recorded reason — never a host panic, and
//! never a read or write of a neighboring VM's partition.

use std::collections::VecDeque;
use vax_arch::{AccessMode, MachineVariant, Protection, Psl, Pte, VirtAddr, VmPsl};
use vax_asm::assemble_text;
use vax_cpu::{IntervalTimer, Machine};
use vax_vmm::shadow::FillOutcome;
use vax_vmm::vm::{DirtyStrategy, IoStrategy, Vm, VmState, VmStats};
use vax_vmm::{
    ExitCause, FrameAllocator, Monitor, MonitorConfig, RunExit, ShadowConfig, ShadowSet, VmConfig,
    VmId, VmmError,
};

fn monitor() -> Monitor {
    Monitor::new(MonitorConfig::default())
}

fn boot_with(mon: &mut Monitor, vm: VmId, src: &str, base: u32) {
    let p = assemble_text(src, base).expect("assembles");
    mon.vm_write_phys(vm, base, &p.bytes).unwrap();
    mon.boot_vm(vm, base);
}

// ---------------------------------------------------------------------
// Shadow walk at the partition boundary (synthetic, shadow-level)
// ---------------------------------------------------------------------

const VM_BASE_PFN: u32 = 512;
const VM_PAGES: u32 = 256;

fn synthetic_vm() -> Vm {
    Vm {
        name: "edge".into(),
        mem_base_pfn: VM_BASE_PFN,
        mem_pages: VM_PAGES,
        regs: [0; 16],
        psl_flags: Psl::new(),
        vmpsl: VmPsl::new(AccessMode::Kernel, AccessMode::Kernel),
        vsp: [0; 4],
        vsp_is: 0,
        v_is: false,
        guest_scbb: 0,
        guest_pcbb: 0,
        guest_sbr: 0x4000,
        guest_slr: 64,
        guest_p0br: 0x8000_6000,
        guest_p0lr: 32,
        guest_p1br: 0,
        guest_p1lr: 1 << 21,
        guest_mapen: true,
        guest_astlvl: 4,
        guest_sisr: 0,
        guest_todr: 0,
        vtimer: IntervalTimer::default(),
        console_out: Vec::new(),
        vmm_log: Vec::new(),
        console_in: VecDeque::new(),
        vdisk: Vec::new(),
        vdisk_pending: None,
        uptime_cell: None,
        real_io_base: None,
        io_strategy: IoStrategy::StartIo,
        dirty_strategy: DirtyStrategy::ModifyFault,
        state: VmState::Ready,
        halt_reason: None,
        pending_virqs: Vec::new(),
        uptime_ticks: 0,
        stats: VmStats::default(),
    }
}

fn shadow_setup(m: &mut Machine) -> ShadowSet {
    let mut falloc = FrameAllocator::new(1, VM_BASE_PFN);
    ShadowSet::new(
        m,
        &mut falloc,
        ShadowConfig {
            s_capacity: 128,
            p0_capacity: 64,
            p1_capacity: 16,
            cache_slots: 2,
            prefill_group: 1,
        },
    )
}

#[test]
fn partition_edge_walk_faults_without_reading_the_neighbor() {
    // The guest points its SPT base 2 bytes before the end of its own
    // partition. The PTE for S vpn 0 then straddles the boundary: its
    // first byte is guest memory, its last three belong to whatever real
    // frames come next (here: planted "neighbor" data). The old
    // first-byte-only check read those bytes; the walk must instead fault
    // — with an outcome independent of the neighbor's memory contents.
    let mem_bytes = VM_PAGES * 512;
    let outcome_with = |neighbor_word: u32| {
        let mut m = Machine::new(MachineVariant::Modified, 2 * 1024 * 1024);
        let mut vm = synthetic_vm();
        let mut shadow = shadow_setup(&mut m);
        vm.guest_sbr = mem_bytes - 2;
        // Plant bytes just past the partition; a leaky walk would parse
        // part of this longword as the PTE.
        let past_end = (VM_BASE_PFN << 9) + mem_bytes;
        m.mem_mut().write_u32(past_end, neighbor_word).unwrap();
        shadow.fill(&mut m, &mut vm, VirtAddr::new(0x8000_0000))
    };
    // A valid-looking in-range PTE if the leak parsed the neighbor bytes.
    let a = outcome_with(Pte::build(3, Protection::Uw, true, true).raw());
    let b = outcome_with(0);
    assert!(
        matches!(a, FillOutcome::Fault(VmmError::PageTableWalk { .. })),
        "walk must fault at the boundary, got {a:?}"
    );
    assert_eq!(a, b, "outcome must not depend on the neighbor's memory");
}

#[test]
fn unaligned_process_base_cannot_cross_the_table_frame() {
    // An unaligned guest P0BR puts a process PTE at an in-page offset up
    // to 511, so the 4-byte read would cross out of the validated frame.
    let mut m = Machine::new(MachineVariant::Modified, 2 * 1024 * 1024);
    let mut vm = synthetic_vm();
    let mut shadow = shadow_setup(&mut m);
    for vpn in 0..64 {
        let pa = (VM_BASE_PFN << 9) + vm.guest_sbr + 4 * vpn;
        m.mem_mut()
            .write_u32(pa, Pte::build(vpn, Protection::Kw, true, true).raw())
            .unwrap();
    }
    // P0 table based 2 bytes before a page boundary: PTE 0 sits at
    // in-page offset 510 and would straddle into the next frame.
    vm.guest_p0br = 0x8000_6000 + 512 - 2;
    let va = VirtAddr::new(0);
    let out = shadow.fill(&mut m, &mut vm, va);
    assert!(
        matches!(out, FillOutcome::Fault(VmmError::PageTableWalk { .. })),
        "straddling PTE read must fault, got {out:?}"
    );
}

// ---------------------------------------------------------------------
// Reflected virtual machine check (integration)
// ---------------------------------------------------------------------

#[test]
fn page_table_walk_fault_reflects_machine_check_through_scb_vector_4() {
    let mut mon = monitor();
    mon.enable_obs(4096);
    let vm = mon.create_vm("g", VmConfig::default());
    // Host-built identity tables: SPT at gpa 0x4000, P0 at S va
    // 0x80004800 (gpa 0x4800).
    for i in 0..64u32 {
        let pte = Pte::build(i, Protection::Uw, true, true);
        mon.vm_write_phys(vm, 0x4000 + 4 * i, &pte.raw().to_le_bytes())
            .unwrap();
        mon.vm_write_phys(vm, 0x4800 + 4 * i, &pte.raw().to_le_bytes())
            .unwrap();
    }
    // A P1 base that is not an S-space address makes every P1 walk
    // undecidable for the VMM. The fault is the guest's own doing, so it
    // comes back as a virtual machine check through SCB vector 0x04 —
    // deliverable, because S and P0 (code, stack, SCB) stay intact.
    let src = "
        start:
            movl #0x5000, sp
            mtpr #0x200, #17        ; SCBB
            mtpr #0x4000, #12       ; SBR
            mtpr #64, #13           ; SLR
            mtpr #0x80004800, #8    ; P0BR (S va)
            mtpr #64, #9            ; P0LR
            mtpr #1, #56            ; MAPEN on
            mtpr #0x2000, #10       ; P1BR in P0 space: walk cannot work
            mtpr #0, #11            ; P1LR (clamped to the shadow floor)
            movl @#0x7FFFFE00, r8   ; top P1 page: walk faults
            halt                    ; skipped: mck handler runs instead
            .align 4
        mck_handler:
            movl #1, r9
            halt
        ";
    let (p, syms) = vax_asm::assemble_text_with_symbols(src, 0x1000).unwrap();
    mon.vm_write_phys(vm, 0x1000, &p.bytes).unwrap();
    mon.vm_write_phys(vm, 0x200 + 0x04, &syms["mck_handler"].to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);

    assert_eq!(mon.vm(vm).regs[9], 1, "guest's machine-check handler ran");
    assert_eq!(mon.vm_stats(vm).machine_checks, 1);
    assert!(
        mon.vm(vm).halt_reason.is_none(),
        "guest halted itself cleanly: {:?}",
        mon.vm(vm).halt_reason
    );
    let obs = mon.obs().unwrap();
    assert!(obs.exits(ExitCause::ReflectedMachineCheck) >= 1);
    assert_eq!(
        mon.metrics().get_counter("reflected_machine_checks"),
        Some(1)
    );
}

// ---------------------------------------------------------------------
// KCALL boundary arithmetic
// ---------------------------------------------------------------------

#[test]
fn kcall_buffer_wrapping_the_address_space_gets_bad_address_status() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    // Disk read, BUFFER = 0xFFFFFFFC: buffer + 4 wraps past zero. The
    // old unchecked add landed the transfer in low guest memory; now the
    // guest gets the bad-address status and keeps running.
    boot_with(
        &mut mon,
        vm,
        "
        start:
            movl #1, @#0x300            ; FUNC = disk read
            movl #2, @#0x304            ; SECTOR
            movl #0xFFFFFFFC, @#0x308   ; BUFFER (wraps)
            movl #8, @#0x30C            ; LEN
            clrl @#0x310
            mtpr #0x300, #201           ; KCALL
            movl @#0x310, r2            ; STATUS
            halt
        ",
        0x1000,
    );
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[2], 0x8000_0002, "bad-address status");
    assert!(mon.vm(vm).halt_reason.is_none(), "clean guest halt");
}

#[test]
fn kcall_dma_cannot_write_past_the_partition_into_a_neighbor() {
    let mut mon = monitor();
    let a = mon.create_vm("a", VmConfig::default());
    let b = mon.create_vm("b", VmConfig::default());
    mon.vm_load_disk(a, 2, b"ATTACKER SECTOR!").unwrap();
    // Sentinels at the start of B's partition — exactly where A's DMA
    // would land if the last partial longword leaked across the boundary.
    mon.vm_write_phys(b, 0, &0xB000_0001u32.to_le_bytes())
        .unwrap();
    mon.vm_write_phys(b, 4, &0xB000_0002u32.to_le_bytes())
        .unwrap();
    // A: disk read with BUFFER = MEMSIZE - 2. The first longword write
    // starts in A's memory but ends 2 bytes into B's.
    boot_with(
        &mut mon,
        a,
        "
        start:
            mfpr #200, r7               ; MEMSIZE
            subl2 #2, r7
            movl #1, @#0x300            ; FUNC = disk read
            movl #2, @#0x304            ; SECTOR
            movl r7, @#0x308            ; BUFFER = MEMSIZE - 2
            movl #8, @#0x30C            ; LEN
            clrl @#0x310
            mtpr #0x300, #201
            movl @#0x310, r2
            halt
        ",
        0x1000,
    );
    boot_with(&mut mon, b, "halt", 0x1000);
    assert_eq!(mon.run(10_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(a).regs[2], 0x8000_0002, "bad-address status");
    assert_eq!(mon.vm_read_phys_u32(b, 0), Some(0xB000_0001), "B intact");
    assert_eq!(mon.vm_read_phys_u32(b, 4), Some(0xB000_0002), "B intact");
}

#[test]
fn kcall_request_block_outside_memory_halts_with_reason() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    // Request block at MEMSIZE - 4: the VMM has no STATUS field to report
    // into, so containment is a recorded halt, not a panic.
    boot_with(
        &mut mon,
        vm,
        "
        start:
            mfpr #200, r7
            subl2 #4, r7
            mtpr r7, #201
            halt
        ",
        0x1000,
    );
    mon.run(5_000_000);
    assert_eq!(mon.vm(vm).state, VmState::ConsoleHalt);
    assert!(
        matches!(mon.vm(vm).halt_reason, Some(VmmError::GuestState { .. })),
        "{:?}",
        mon.vm(vm).halt_reason
    );
}

// ---------------------------------------------------------------------
// Host-side API hardening
// ---------------------------------------------------------------------

#[test]
fn vm_load_disk_rejects_bad_sector_and_oversized_buffer() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default()); // 64-sector vdisk
    assert_eq!(
        mon.vm_load_disk(vm, 64, b"x"),
        Err(VmmError::DiskSector {
            sector: 64,
            capacity: 64
        })
    );
    assert_eq!(
        mon.vm_load_disk(vm, u32::MAX, b"x"),
        Err(VmmError::DiskSector {
            sector: u32::MAX,
            capacity: 64
        })
    );
    assert_eq!(
        mon.vm_load_disk(vm, 0, &[0u8; 513]),
        Err(VmmError::DiskBuffer { len: 513 })
    );
    mon.vm_load_disk(vm, 63, b"last sector ok").unwrap();
    assert_eq!(&mon.vm(vm).vdisk[63][..4], b"last");
}

#[test]
fn vm_write_phys_rejects_ranges_leaving_the_partition() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let mem = mon.vm(vm).mem_bytes();
    assert!(mon.vm_write_phys(vm, mem - 1, &[1, 2]).is_err());
    assert!(mon.vm_write_phys(vm, u32::MAX, &[1]).is_err());
    assert!(mon.vm_write_phys(vm, mem - 2, &[1, 2]).is_ok());
    // A longword read at the last byte must also refuse (it used to read
    // three bytes of the next partition).
    assert_eq!(mon.vm_read_phys_u32(vm, mem - 1), None);
    assert!(mon.vm_read_phys_u32(vm, mem - 4).is_some());
}

#[test]
fn nonexistent_memory_touch_records_halt_reason_and_counts() {
    let mut mon = monitor();
    mon.enable_obs(4096);
    let vm = mon.create_vm("g", VmConfig::default());
    boot_with(&mut mon, vm, "movl @#0x100000, r0\n halt", 0x1000);
    mon.run(1_000_000);
    assert_eq!(mon.vm(vm).state, VmState::ConsoleHalt);
    assert!(
        matches!(
            mon.vm(vm).halt_reason,
            Some(VmmError::NonexistentMemory { gpa: 0x100000 })
        ),
        "{:?}",
        mon.vm(vm).halt_reason
    );
    assert!(mon.obs().unwrap().exits(ExitCause::SecurityHalt) >= 1);
    assert_eq!(mon.metrics().get_counter("security_halts"), Some(1));
    // Booting again clears the recorded reason.
    mon.boot_vm(vm, 0x1000);
    assert!(mon.vm(vm).halt_reason.is_none());
}

#[test]
fn pcb_running_off_the_end_of_guest_memory_halts_with_reason() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    // PCBB at MEMSIZE - 8: the stack pointers at offsets 0 and 4 are
    // readable, the rest of the PCB is not. Loading it would resume the
    // guest in a context it never wrote (PC 0).
    boot_with(
        &mut mon,
        vm,
        "
        start:
            movl #0x5000, sp
            mfpr #200, r7
            subl2 #8, r7
            mtpr r7, #16
            movl #0x1234, r0
            ldpctx
            rei
        ",
        0x1000,
    );
    mon.run(5_000_000);
    assert_eq!(mon.vm(vm).state, VmState::ConsoleHalt);
    assert_eq!(
        mon.vm(vm).halt_reason,
        Some(VmmError::GuestState {
            what: "guest PCB unreadable"
        })
    );
    assert_eq!(mon.vm(vm).regs[0], 0x1234, "no register was loaded");
}
