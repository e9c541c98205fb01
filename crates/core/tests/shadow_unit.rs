//! Direct tests of the shadow page-table machinery against a synthetic
//! VM, independent of the monitor's run loop.

use std::collections::VecDeque;
use vax_arch::{AccessMode, MachineVariant, Protection, Psl, Pte, VirtAddr, VmPsl};
use vax_cpu::{IntervalTimer, Machine};
use vax_vmm::shadow::FillOutcome;
use vax_vmm::vm::{DirtyStrategy, IoStrategy, Vm, VmState, VmStats};
use vax_vmm::{FrameAllocator, ShadowConfig, ShadowSet};

const VM_BASE_PFN: u32 = 512; // VM memory at real 256 KiB
const VM_PAGES: u32 = 256;

fn machine() -> Machine {
    Machine::new(MachineVariant::Modified, 2 * 1024 * 1024)
}

fn synthetic_vm() -> Vm {
    Vm {
        name: "synthetic".into(),
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
        guest_p0br: 0x8000_6000, // guest P0 table at guest S va (gpa 0x6000)
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

/// Writes a guest PTE into the guest's SPT (guest-physical 0x4000).
fn write_guest_spte(m: &mut Machine, vm: &Vm, vpn: u32, pte: Pte) {
    let pa = (VM_BASE_PFN << 9) + vm.guest_sbr + 4 * vpn;
    m.mem_mut().write_u32(pa, pte.raw()).unwrap();
}

/// Writes a guest P0 PTE (guest P0 table lives at guest-physical 0x6000,
/// which the guest maps at S va 0x80006000: guest S page 0x30).
fn write_guest_p0te(m: &mut Machine, vpn: u32, pte: Pte) {
    let pa = (VM_BASE_PFN << 9) + 0x6000 + 4 * vpn;
    m.mem_mut().write_u32(pa, pte.raw()).unwrap();
}

fn setup() -> (Machine, Vm, ShadowSet) {
    let mut m = machine();
    let vm = synthetic_vm();
    let mut falloc = FrameAllocator::new(1, VM_BASE_PFN);
    let shadow = ShadowSet::new(
        &mut m,
        &mut falloc,
        ShadowConfig {
            s_capacity: 128,
            p0_capacity: 64,
            p1_capacity: 16,
            cache_slots: 2,
            prefill_group: 1,
        },
    );
    // Guest SPT: identity (S page i -> guest frame i), kernel-write; the
    // page holding the guest P0 table (S vpn 0x30) must be mapped too.
    for vpn in 0..64 {
        write_guest_spte(
            &mut m,
            &vm,
            vpn,
            Pte::build(vpn, Protection::Kw, true, true),
        );
    }
    (m, vm, shadow)
}

#[test]
fn fill_translates_pfn_and_compresses_protection() {
    let (mut m, mut vm, mut shadow) = setup();
    write_guest_spte(&mut m, &vm, 5, Pte::build(5, Protection::Kw, true, true));
    let va = VirtAddr::new(0x8000_0000 + 5 * 512);
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    let spte = shadow.read_shadow(&m, va).unwrap();
    assert_eq!(spte.pfn(), VM_BASE_PFN + 5, "guest frame 5 relocated");
    assert_eq!(
        spte.protection(),
        Protection::Ew,
        "KW compressed to EW (ring compression)"
    );
    assert!(spte.valid());
    assert_eq!(vm.stats.shadow_fills, 1);
}

#[test]
fn fill_reflects_guest_page_fault() {
    let (mut m, mut vm, mut shadow) = setup();
    write_guest_spte(&mut m, &vm, 6, Pte::build(6, Protection::Uw, false, false));
    let va = VirtAddr::new(0x8000_0000 + 6 * 512);
    match shadow.fill(&mut m, &mut vm, va) {
        FillOutcome::Reflect(vax_arch::Exception::TranslationNotValid { .. }) => {}
        other => panic!("expected guest TNV, got {other:?}"),
    }
    assert_eq!(vm.stats.guest_page_faults, 1);
}

#[test]
fn fill_reflects_length_violation_beyond_guest_slr() {
    let (mut m, mut vm, mut shadow) = setup();
    let va = VirtAddr::new(0x8000_0000 + 100 * 512); // vpn 100 >= guest SLR 64
    match shadow.fill(&mut m, &mut vm, va) {
        FillOutcome::Reflect(vax_arch::Exception::AccessViolation { length: true, .. }) => {}
        other => panic!("expected length AV, got {other:?}"),
    }
}

#[test]
fn fill_halts_on_pfn_outside_vm_memory() {
    let (mut m, mut vm, mut shadow) = setup();
    // Guest PTE naming a frame beyond the VM's MEMSIZE.
    write_guest_spte(
        &mut m,
        &vm,
        7,
        Pte::build(0x5000, Protection::Uw, true, true),
    );
    let va = VirtAddr::new(0x8000_0000 + 7 * 512);
    assert!(matches!(
        shadow.fill(&mut m, &mut vm, va),
        FillOutcome::Fault(vax_vmm::VmmError::PteFrame { gpfn: 0x5000 })
    ));
}

#[test]
fn p0_fill_walks_the_guest_spt_for_the_process_pte() {
    let (mut m, mut vm, mut shadow) = setup();
    // Guest P0 vpn 3 -> guest frame 20, user-writable, M set.
    write_guest_p0te(&mut m, 3, Pte::build(20, Protection::Uw, true, true));
    let va = VirtAddr::new(3 * 512 + 7);
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    let spte = shadow.read_shadow(&m, va).unwrap();
    assert_eq!(spte.pfn(), VM_BASE_PFN + 20);
    assert_eq!(spte.protection(), Protection::Uw);
}

#[test]
fn p0_fill_reports_pte_ref_fault_when_guest_table_page_unmapped() {
    let (mut m, mut vm, mut shadow) = setup();
    // Invalidate the guest S page holding the P0 table (vpn 0x30).
    write_guest_spte(
        &mut m,
        &vm,
        0x30,
        Pte::build(0x30, Protection::Kw, false, false),
    );
    write_guest_p0te(&mut m, 3, Pte::build(20, Protection::Uw, true, true));
    let va = VirtAddr::new(3 * 512);
    match shadow.fill(&mut m, &mut vm, va) {
        FillOutcome::Reflect(vax_arch::Exception::TranslationNotValid {
            pte_ref: true, ..
        }) => {}
        other => panic!("expected PTE-reference TNV, got {other:?}"),
    }
}

#[test]
fn modify_fault_sets_m_in_both_tables() {
    let (mut m, mut vm, mut shadow) = setup();
    write_guest_spte(&mut m, &vm, 9, Pte::build(9, Protection::Uw, true, false));
    let va = VirtAddr::new(0x8000_0000 + 9 * 512);
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    assert!(!shadow.read_shadow(&m, va).unwrap().modified());
    assert_eq!(
        shadow.modify_fault(&mut m, &mut vm, va),
        FillOutcome::Filled
    );
    assert!(shadow.read_shadow(&m, va).unwrap().modified());
    // Paper §4.4.2: "the VM's page table accurately reflects the state of
    // modified pages".
    let gpte_pa = (VM_BASE_PFN << 9) + vm.guest_sbr + 4 * 9;
    assert!(Pte::from_raw(m.mem().read_u32(gpte_pa).unwrap()).modified());
}

#[test]
fn cache_switch_preserves_and_evicts() {
    let (mut m, mut vm, mut shadow) = setup();
    write_guest_p0te(&mut m, 3, Pte::build(20, Protection::Uw, true, true));
    let va = VirtAddr::new(3 * 512);

    // Process A touches a page.
    assert!(!shadow.switch_process(&mut m, 0x100), "first use: miss");
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    assert!(shadow.read_shadow(&m, va).unwrap().valid());

    // Switch to B (second slot), then back to A: the fill survives.
    assert!(!shadow.switch_process(&mut m, 0x200), "B: miss");
    assert!(shadow.switch_process(&mut m, 0x100), "A again: hit");
    assert!(
        shadow.read_shadow(&m, va).unwrap().valid(),
        "shadow PTEs preserved across the switch (paper 7.2)"
    );

    // A third process evicts the LRU (B), not A.
    assert!(!shadow.switch_process(&mut m, 0x300), "C: miss evicts B");
    assert!(shadow.switch_process(&mut m, 0x100), "A still cached");
    assert!(!shadow.switch_process(&mut m, 0x200), "B was evicted");
}

#[test]
fn invalidate_single_and_all() {
    let (mut m, mut vm, mut shadow) = setup();
    let va = VirtAddr::new(0x8000_0000 + 5 * 512);
    shadow.fill(&mut m, &mut vm, va);
    assert!(shadow.read_shadow(&m, va).unwrap().valid());
    shadow.invalidate_single(&mut m, vm.guest_slr, va);
    assert!(
        !shadow.read_shadow(&m, va).unwrap().valid(),
        "TBIS nulls it"
    );
    shadow.fill(&mut m, &mut vm, va);
    shadow.invalidate_all(&mut m, vm.guest_slr);
    assert!(
        !shadow.read_shadow(&m, va).unwrap().valid(),
        "TBIA nulls it"
    );
}

#[test]
fn prefill_translates_neighbors() {
    let mut m = machine();
    let mut vm = synthetic_vm();
    let mut falloc = FrameAllocator::new(1, VM_BASE_PFN);
    let mut shadow = ShadowSet::new(
        &mut m,
        &mut falloc,
        ShadowConfig {
            s_capacity: 128,
            p0_capacity: 64,
            p1_capacity: 16,
            cache_slots: 1,
            prefill_group: 4,
        },
    );
    for vpn in 0..64 {
        write_guest_spte(
            &mut m,
            &vm,
            vpn,
            Pte::build(vpn, Protection::Uw, true, true),
        );
    }
    let va = VirtAddr::new(0x8000_0000 + 10 * 512);
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    assert_eq!(vm.stats.shadow_fills, 4, "group of four translated");
    for i in 10..14 {
        let v = VirtAddr::new(0x8000_0000 + i * 512);
        assert!(shadow.read_shadow(&m, v).unwrap().valid(), "vpn {i}");
    }
}

#[test]
fn mapen_off_identity_fill() {
    let (mut m, mut vm, mut shadow) = setup();
    vm.guest_mapen = false;
    let va = VirtAddr::new(12 * 512 + 3); // P0 region = guest physical
    assert_eq!(shadow.fill(&mut m, &mut vm, va), FillOutcome::Filled);
    let spte = shadow.read_shadow(&m, va).unwrap();
    assert_eq!(spte.pfn(), VM_BASE_PFN + 12, "identity, relocated");
    // Beyond MEMSIZE (but within the shadow capacity): security halt.
    vm.mem_pages = 32;
    let far = VirtAddr::new(40 * 512);
    assert!(matches!(
        shadow.fill(&mut m, &mut vm, far),
        FillOutcome::Fault(vax_vmm::VmmError::NonexistentMemory { .. })
    ));
}

#[test]
fn guest_tbia_clears_every_cached_slot() {
    // The §7.2 cache's known fragility (paper: "limited development time
    // prevented ... a fully robust implementation"): a guest-wide TB
    // invalidate must clear all cached shadow sets, active or not.
    let (mut m, mut vm, mut shadow) = setup();
    write_guest_p0te(&mut m, 3, Pte::build(20, Protection::Uw, true, true));
    let va = VirtAddr::new(3 * 512);
    shadow.switch_process(&mut m, 0x100);
    shadow.fill(&mut m, &mut vm, va);
    shadow.switch_process(&mut m, 0x200);
    // Guest TBIA while process B is active.
    shadow.invalidate_all(&mut m, vm.guest_slr);
    // Back to A: must be a cache miss (the slot was keyed out), and the
    // old fill is gone.
    assert!(
        !shadow.switch_process(&mut m, 0x100),
        "TBIA evicted the cached slot"
    );
    assert!(!shadow.read_shadow(&m, va).unwrap().valid());
}
