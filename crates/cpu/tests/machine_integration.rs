//! End-to-end machine tests: real assembled programs exercising the
//! exception, mode-switch, memory-management, and timer machinery.

use vax_arch::{AccessMode, Ipr, MachineVariant, Opcode, Protection, Psl, Pte, ScbVector, VmPsl};
use vax_asm::{assemble_text, Asm, Operand};
use vax_cpu::{HaltReason, Machine, StepEvent, VmExit};
use vax_obs::{ObsSink, DEFAULT_SAMPLE_INTERVAL, PC_WINDOW};

const SCB_PA: u32 = 0x6000;
const SPT_PA: u32 = 0x7000;

/// Machine with S pages 0..48 identity-mapped.
fn mapped_machine(variant: MachineVariant, prot: Protection) -> Machine {
    let mut m = Machine::new(variant, 256 * 1024);
    for page in 0..64u32 {
        let pte = Pte::build(page, prot, true, true);
        m.mem_mut().write_u32(SPT_PA + 4 * page, pte.raw()).unwrap();
    }
    m.mmu_mut().set_sbr(SPT_PA);
    m.mmu_mut().set_slr(64);
    m.mmu_mut().set_mapen(true);
    m.set_scbb(SCB_PA);
    m
}

fn load(m: &mut Machine, src: &str, base: u32) -> vax_asm::Program {
    let p = assemble_text(src, base).expect("assembles");
    m.mem_mut()
        .write_slice(p.base & 0x00ff_ffff, &p.bytes)
        .unwrap();
    p
}

fn set_mode(m: &mut Machine, mode: AccessMode, sp: u32) {
    let mut psl = Psl::new();
    psl.set_cur_mode(mode);
    psl.set_prv_mode(mode);
    m.set_psl(psl);
    m.set_reg(14, sp);
}

fn run_to_halt(m: &mut Machine, max: u64) {
    match m.run(max) {
        StepEvent::Halted(HaltReason::HaltInstruction) => {}
        other => panic!("expected halt, got {other:?} at pc={:#x}", m.pc()),
    }
}

#[test]
fn arithmetic_program_computes() {
    let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
    load(
        &mut m,
        "
        movl #0, r2
        movl #100, r1
    top:
        addl2 r1, r2
        sobgtr r1, top
        halt
        ",
        0x200,
    );
    m.set_pc(0x200);
    run_to_halt(&mut m, 10_000);
    assert_eq!(m.reg(2), 5050);
}

#[test]
fn chmk_dispatches_to_kernel_and_rei_returns() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    // Kernel handler: load the CHM code into R3, pop it, REI.
    let handler = load(
        &mut m,
        "
        handler:
            movl (sp)+, r3      ; CHM code parameter
            rei
        ",
        0x8000_2000,
    );
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::Chmk.offset(), handler.base)
        .unwrap();
    // User program: CHMK #42 then HALT (HALT in user mode traps; use a
    // marker instead).
    load(
        &mut m,
        "
        start:
            chmk #42
            movl #1, r5
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);

    // CHMK
    assert_eq!(m.step(), StepEvent::Ok);
    assert_eq!(m.psl().cur_mode(), AccessMode::Kernel);
    assert_eq!(m.psl().prv_mode(), AccessMode::User);
    // handler: movl (sp)+, r3
    assert_eq!(m.step(), StepEvent::Ok);
    assert_eq!(m.reg(3), 42);
    // rei
    assert_eq!(m.step(), StepEvent::Ok);
    assert_eq!(m.psl().cur_mode(), AccessMode::User);
    // movl #1, r5 executes back in user mode
    assert_eq!(m.step(), StepEvent::Ok);
    assert_eq!(m.reg(5), 1);
    assert_eq!(m.counters().chm, 1);
    assert_eq!(m.counters().rei, 1);
}

#[test]
fn chm_to_less_privileged_mode_stays_in_current_mode() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::Chmu.offset(), handler.base)
        .unwrap();
    load(&mut m, "chmu #0", 0x8000_0400);
    set_mode(&mut m, AccessMode::Executive, 0x8000_1000);
    m.set_pc(0x8000_0400);
    assert_eq!(m.step(), StepEvent::Ok);
    // CHMU from executive: mode must remain executive (maximized
    // privilege), though it vectors through the CHMU vector.
    assert_eq!(m.psl().cur_mode(), AccessMode::Executive);
}

#[test]
fn rei_cannot_increase_privilege() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::ReservedOperand.offset(), handler.base)
        .unwrap();
    // User-mode code builds a kernel-mode PSL image and REIs to it.
    load(
        &mut m,
        "
            pushl #0            ; PSL image: kernel mode, ipl 0
            pushl #0x80000400   ; PC
            rei
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    m.step();
    m.step();
    assert_eq!(m.step(), StepEvent::Ok); // REI -> reserved operand fault
    assert_eq!(m.pc(), handler.base, "faulted to reserved-operand handler");
    assert_eq!(m.psl().cur_mode(), AccessMode::Kernel); // handler runs in kernel
}

#[test]
fn movpsl_reveals_current_mode_on_standard_vax() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    load(&mut m, "movpsl r0\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_pc(0x8000_0400);
    assert_eq!(m.step(), StepEvent::Ok);
    let psl = Psl::from_raw(m.reg(0));
    assert_eq!(psl.cur_mode(), AccessMode::User);
}

#[test]
fn movpsl_in_vm_returns_vm_modes() {
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    load(&mut m, "movpsl r0\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Executive, 0x8000_1000);
    m.set_pc(0x8000_0400);
    m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::User));
    assert_eq!(m.step(), StepEvent::Ok, "MOVPSL must not trap in VM mode");
    let psl = Psl::from_raw(m.reg(0));
    assert_eq!(psl.cur_mode(), AccessMode::Kernel, "VM sees virtual kernel");
    assert_eq!(psl.prv_mode(), AccessMode::User);
    assert!(!psl.vm(), "PSL<VM> never visible to software");
    assert!(m.in_vm(), "still in VM mode after MOVPSL");
}

#[test]
fn access_violation_delivered_through_scb() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    // Page 40 is kernel-write only.
    let pte = Pte::build(40, Protection::Kw, true, true);
    m.mem_mut().write_u32(SPT_PA + 4 * 40, pte.raw()).unwrap();
    let handler = load(&mut m, "h: movl #77, r9\n halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::AccessViolation.offset(), handler.base)
        .unwrap();
    load(&mut m, "movl #1, @#0x80005000\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(9), 77, "handler ran");
    // Frame: (SP)=reason, 4(SP)=va, 8(SP)=PC, 12(SP)=PSL.
    let sp = m.sp_for_mode(AccessMode::Kernel) & 0x00ff_ffff;
    let reason = m.mem().read_u32(sp).unwrap();
    let va = m.mem().read_u32(sp + 4).unwrap();
    let pc = m.mem().read_u32(sp + 8).unwrap();
    assert_eq!(reason & 0b100, 0b100, "write bit set");
    assert_eq!(va, 0x8000_5000);
    assert_eq!(pc, 0x8000_0400, "fault PC is instruction start");
}

#[test]
fn modify_fault_on_modified_vax_and_hardware_m_on_standard() {
    // Standard: write just sets PTE<M>.
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let pte = Pte::build(41, Protection::Uw, true, false);
    m.mem_mut().write_u32(SPT_PA + 4 * 41, pte.raw()).unwrap();
    load(&mut m, "movl #9, @#0x80005200\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert!(Pte::from_raw(m.mem().read_u32(SPT_PA + 4 * 41).unwrap()).modified());

    // Modified: modify fault; handler sets M and REIs; retry succeeds.
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    let pte = Pte::build(41, Protection::Uw, true, false);
    m.mem_mut().write_u32(SPT_PA + 4 * 41, pte.raw()).unwrap();
    let handler = load(
        &mut m,
        "
        h:  incl r10                 ; count modify faults
            movl @#0x80000000, r0    ; hack: placeholder, patched below
            rei
        ",
        0x8000_2000,
    );
    // Replace the handler with real code: set M bit in the PTE then REI.
    // PTE is at physical SPT_PA + 4*41, mapped at VA 0x80000000 + that.
    let handler_src = format!(
        "
        h:  incl r10
            movl @#{pte_va:#x}, r0
            bisl2 #0x04000000, r0
            movl r0, @#{pte_va:#x}
            addl2 #4, sp            ; drop fault parameter (VA)
            rei
        ",
        pte_va = 0x8000_0000u32 + SPT_PA + 4 * 41
    );
    let handler = {
        let _ = handler;
        load(&mut m, &handler_src, 0x8000_2000)
    };
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::ModifyFault.offset(), handler.base)
        .unwrap();
    load(&mut m, "movl #9, @#0x80005200\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 200);
    assert_eq!(m.reg(10), 1, "exactly one modify fault");
    assert_eq!(m.mem().read_u32((41 << 9) | 0x200).unwrap(), 9);
    assert!(Pte::from_raw(m.mem().read_u32(SPT_PA + 4 * 41).unwrap()).modified());
}

#[test]
fn interval_timer_interrupts_and_rei_dismisses() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(
        &mut m,
        "
        h:  incl r11
            mtpr #0xC1, #24     ; ICCS: clear INT, keep RUN|IE
            rei
        ",
        0x8000_2000,
    );
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::IntervalTimer.offset(), handler.base)
        .unwrap();
    load(
        &mut m,
        "
            mtpr #-200, #25     ; NICR
            mtpr #0x51, #24     ; ICCS: RUN | IE | XFR
        spin:
            cmpl r11, #3
            blss spin
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 50_000);
    assert!(m.reg(11) >= 3);
    assert!(m.counters().interrupts >= 3);
}

#[test]
fn software_interrupt_via_sirr() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: movl #5, r7\n rei", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::software(3), handler.base)
        .unwrap();
    load(
        &mut m,
        "
            mtpr #3, #20        ; SIRR: request level 3
            movl #1, r6         ; runs before or after handler per IPL
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(7), 5, "software interrupt handler ran");
}

#[test]
fn interrupt_blocked_by_ipl() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: movl #5, r7\n rei", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::software(3), handler.base)
        .unwrap();
    load(
        &mut m,
        "
            mtpr #31, #18       ; IPL = 31: block everything
            mtpr #3, #20        ; request software level 3
            movl #1, r6
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(7), 0, "interrupt must be blocked at IPL 31");
    assert_eq!(m.read_ipr(Ipr::Sisr).unwrap(), 1 << 3, "still pending");
}

#[test]
fn ldpctx_svpctx_round_trip() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let pcb_pa = 0x5000u32;
    // Build a PCB: context with R0=111, PC=entry, kernel PSL.
    let entry = load(&mut m, "e: movl #222, r1\n halt", 0x8000_2800);
    m.mem_mut().write_u32(pcb_pa, 0x8000_1600).unwrap(); // KSP
    m.mem_mut().write_u32(pcb_pa + 16, 111).unwrap(); // R0
    m.mem_mut().write_u32(pcb_pa + 72, entry.base).unwrap(); // PC
    let mut kpsl = Psl::new();
    kpsl.set_cur_mode(AccessMode::Kernel);
    m.mem_mut().write_u32(pcb_pa + 76, kpsl.raw()).unwrap(); // PSL
    m.mem_mut().write_u32(pcb_pa + 80, 0x8000_3000).unwrap(); // P0BR
    m.mem_mut().write_u32(pcb_pa + 84, 0).unwrap(); // P0LR

    load(
        &mut m,
        "
            mtpr #0x5000, #16   ; PCBB
            ldpctx
            rei                 ; completes the switch
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(0), 111, "R0 loaded from PCB");
    assert_eq!(m.reg(1), 222, "execution resumed at PCB PC");
    assert_eq!(m.counters().context_switches, 1);
}

#[test]
fn prober_checks_against_previous_mode() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    // Page 42: kernel-only.
    let pte = Pte::build(42, Protection::Kw, true, true);
    m.mem_mut().write_u32(SPT_PA + 4 * 42, pte.raw()).unwrap();
    // Kernel code probing on behalf of user (prv = user).
    load(
        &mut m,
        "
            prober #0, #4, @#0x80005400   ; probe kernel page as user
            beql fail                     ; Z=1 -> inaccessible
            movl #1, r0
            halt
        fail:
            movl #2, r0
            halt
        ",
        0x8000_0400,
    );
    let mut psl = Psl::new();
    psl.set_cur_mode(AccessMode::Kernel);
    psl.set_prv_mode(AccessMode::User); // came from user
    m.set_psl(psl);
    m.set_reg(14, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(0), 2, "PROBE must honor PSL<PRV>=user");

    // Same probe with prv=kernel succeeds.
    let mut m2 = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let pte = Pte::build(42, Protection::Kw, true, true);
    m2.mem_mut().write_u32(SPT_PA + 4 * 42, pte.raw()).unwrap();
    load(
        &mut m2,
        "
            prober #0, #4, @#0x80005400
            beql fail
            movl #1, r0
            halt
        fail:
            movl #2, r0
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m2, AccessMode::Kernel, 0x8000_1800);
    m2.set_pc(0x8000_0400);
    run_to_halt(&mut m2, 100);
    assert_eq!(m2.reg(0), 1);
}

#[test]
fn vm_emulation_trap_carries_decoded_operands() {
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    // VM-kernel code: MTPR #5, #18 (IPL).
    let mut a = Asm::new(0x8000_0400);
    a.mtpr(Operand::Imm(5), Ipr::Ipl).unwrap();
    let p = a.assemble().unwrap();
    m.mem_mut().write_slice(0x0400, &p.bytes).unwrap();
    set_mode(&mut m, AccessMode::Executive, 0x8000_1000);
    m.set_pc(0x8000_0400);
    m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::Kernel));

    let StepEvent::VmExit(VmExit::Emulation) = m.step() else {
        panic!("expected VM-emulation trap");
    };
    let info = m.trapped_instruction().expect("the trap left its decode");
    assert_eq!(info.op, Opcode::Mtpr);
    assert_eq!(info.pc_start, 0x8000_0400);
    assert_eq!(info.operand(0), Some(5));
    assert_eq!(info.operand(1), Some(Ipr::Ipl.number()));
    assert_eq!(m.vmpsl().merge_into(m.psl()).cur_mode(), AccessMode::Kernel);
    assert!(!m.in_vm(), "microcode cleared PSL<VM>");
    assert_eq!(
        m.pc(),
        0x8000_0400,
        "PC not advanced; VMM resumes at next_pc"
    );
    assert_eq!(m.counters().vm_emulation_traps, 1);
}

#[test]
fn privileged_instruction_from_vm_user_mode_is_reflected_not_emulated() {
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    let mut a = Asm::new(0x8000_0400);
    a.mtpr(Operand::Imm(5), Ipr::Ipl).unwrap();
    let p = a.assemble().unwrap();
    m.mem_mut().write_slice(0x0400, &p.bytes).unwrap();
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_pc(0x8000_0400);
    m.enter_vm(VmPsl::new(AccessMode::User, AccessMode::User));

    // Paper §4.4.1: outside VM-kernel mode, privileged instructions take
    // the ordinary privileged-instruction trap (to the VMM for
    // reflection), not the VM-emulation trap.
    let StepEvent::VmExit(VmExit::Exception(e)) = m.step() else {
        panic!("expected exception exit");
    };
    assert_eq!(e, vax_arch::Exception::ReservedInstruction);
    assert_eq!(m.counters().vm_emulation_traps, 0);
    assert_eq!(m.counters().vm_exception_exits, 1);
}

#[test]
fn memory_fault_in_vm_exits_to_vmm() {
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    // S page 43 = null PTE (invalid, full access): the shadow-fill hook.
    m.mem_mut()
        .write_u32(SPT_PA + 4 * 43, Pte::NULL.raw())
        .unwrap();
    load(&mut m, "movl @#0x80005600, r0\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Executive, 0x8000_1000);
    m.set_pc(0x8000_0400);
    m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::Kernel));

    let StepEvent::VmExit(VmExit::Exception(e)) = m.step() else {
        panic!("expected exception exit");
    };
    assert!(matches!(e, vax_arch::Exception::TranslationNotValid { .. }));
    // VMM fills the shadow PTE and resumes: map page 43, write data.
    let pte = Pte::build(43, Protection::Uw, true, true);
    m.mem_mut().write_u32(SPT_PA + 4 * 43, pte.raw()).unwrap();
    m.mem_mut().write_u32(43 << 9, 0x1234).unwrap();
    m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::Kernel));
    assert_eq!(m.step(), StepEvent::Ok, "retry succeeds after fill");
    assert_eq!(m.reg(0), 0x1234);
}

#[test]
fn calls_ret_round_trip() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    load(
        &mut m,
        "
            pushl #7
            pushl #35
            calls #2, func
            halt
        func:
            .word 0x0004         ; entry mask: save R2
            movl 4(ap), r2       ; first argument
            addl2 8(ap), r2      ; plus second
            movl r2, r0
            ret
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    let r2_before = 0xDEAD;
    m.set_reg(2, r2_before);
    run_to_halt(&mut m, 200);
    assert_eq!(m.reg(0), 42, "35 + 7");
    assert_eq!(m.reg(2), r2_before, "R2 restored by entry mask");
    assert_eq!(m.reg(14), 0x8000_1800, "stack fully unwound");
}

#[test]
fn movc3_copies_and_sets_registers() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    m.mem_mut().write_slice(0x5000, b"hello world!").unwrap();
    load(
        &mut m,
        "movc3 #12, @#0x80005000, @#0x80005100\n halt",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(&*m.mem().read_slice(0x5100, 12).unwrap(), b"hello world!");
    assert_eq!(m.reg(0), 0);
    assert_eq!(m.reg(1), 0x8000_500C);
    assert_eq!(m.reg(3), 0x8000_510C);
}

#[test]
fn nonexistent_memory_is_machine_check() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: movl #1, r8\n halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::MachineCheck.offset(), handler.base)
        .unwrap();
    // Map S page 44 to a physical page beyond RAM.
    let pte = Pte::build(0x1F00, Protection::Uw, true, true);
    m.mem_mut().write_u32(SPT_PA + 4 * 44, pte.raw()).unwrap();
    load(&mut m, "movl @#0x80005800, r0\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(8), 1, "machine check handler ran");
}

#[test]
fn halt_outside_kernel_mode_is_privileged_trap() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: movl #1, r8\n halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(
            SCB_PA + ScbVector::ReservedInstruction.offset(),
            handler.base,
        )
        .unwrap();
    load(&mut m, "halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(8), 1);
}

#[test]
fn probevm_three_part_check() {
    let mut m = mapped_machine(MachineVariant::Modified, Protection::Uw);
    // Page 40: valid, modified, UW -> all clear.
    // Page 41: valid, unmodified -> C on write probe.
    // Page 42: null (invalid, UW) -> V.
    // Page 43: KW (kernel only, valid) -> Z (probe clamps to executive).
    let e = |pfn, prot, v, mbit| Pte::build(pfn, prot, v, mbit).raw();
    m.mem_mut()
        .write_u32(SPT_PA + 4 * 40, e(40, Protection::Uw, true, true))
        .unwrap();
    m.mem_mut()
        .write_u32(SPT_PA + 4 * 41, e(41, Protection::Uw, true, false))
        .unwrap();
    m.mem_mut()
        .write_u32(SPT_PA + 4 * 42, Pte::NULL.raw())
        .unwrap();
    m.mem_mut()
        .write_u32(SPT_PA + 4 * 43, e(43, Protection::Kw, true, true))
        .unwrap();

    // probevmw #0, @#page ; movpsl -> capture condition codes per page.
    let src = "
        probevmw #0, @#0x80005000
        movpsl r1
        probevmw #0, @#0x80005200
        movpsl r2
        probevmw #0, @#0x80005400
        movpsl r3
        probevmw #0, @#0x80005600
        movpsl r4
        halt
    ";
    load(&mut m, src, 0x8000_0400);
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    let cc = |r: u32| r & 0xf; // N Z V C = bits 3..0
    assert_eq!(cc(m.reg(1)), 0b0000, "accessible, valid, modified");
    assert_eq!(cc(m.reg(2)), 0b0001, "C: not modified");
    assert_eq!(cc(m.reg(3)), 0b0010, "V: not valid");
    assert_eq!(cc(m.reg(4)), 0b0100, "Z: protection denies executive");
}

#[test]
fn probevm_is_reserved_on_standard_vax() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handler = load(&mut m, "h: movl #1, r8\n halt", 0x8000_2000);
    m.mem_mut()
        .write_u32(
            SCB_PA + ScbVector::ReservedInstruction.offset(),
            handler.base,
        )
        .unwrap();
    load(&mut m, "probevmw #0, @#0x80005000\n halt", 0x8000_0400);
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 100);
    assert_eq!(m.reg(8), 1, "Table 4: privileged instruction trap");
}

#[test]
fn trace_ring_records_recent_pcs() {
    // One more CLRL (2 bytes each) than the window holds, then HALT.
    let src: String = "clrl r0\n".repeat(PC_WINDOW + 1) + "halt";
    let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
    let p = assemble_text(&src, 0x1000).unwrap();
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    assert!(m.recent_pcs().is_empty(), "no window while the sink is off");
    m.set_obs(ObsSink::on(1, DEFAULT_SAMPLE_INTERVAL));
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(0x1000);
    while m.step() == StepEvent::Ok {}
    let pcs = m.recent_pcs();
    assert_eq!(pcs.len(), PC_WINDOW, "window bounded at its depth");
    let halt = 0x1000 + 2 * (PC_WINDOW as u32 + 1);
    assert_eq!(*pcs.last().unwrap(), halt, "the HALT was traced last");
    let want: Vec<u32> = (0..PC_WINDOW as u32)
        .map(|i| halt - 2 * (PC_WINDOW as u32 - 1 - i))
        .collect();
    assert_eq!(pcs, want, "the newest PCs, oldest first");
}

#[test]
fn rei_requests_ast_delivery_when_astlvl_reached() {
    // VMS-style AST delivery: with ASTLVL = 3 (deliver to user), an REI
    // into user mode requests the level-2 software interrupt.
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let ast_handler = load(&mut m, "h: movl #1, r9\n rei", 0x8000_2000);
    m.mem_mut()
        .write_u32(SCB_PA + ScbVector::software(2), ast_handler.base)
        .unwrap();
    load(
        &mut m,
        "
        start:
            mtpr #3, #19            ; ASTLVL = 3 (user)
            movl #0x6000, r6
            mtpr r6, #3             ; USP
            pushl #0x03C00000       ; user-mode image, IPL 0
            pushal user_code
            rei                     ; into user mode: AST requested
        user_code:
            nop                     ; AST interrupt delivered around here
            nop
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_isp(0x8000_1400);
    m.set_pc(0x8000_0400);
    // HALT in user mode traps; run until the ReservedInstruction vector
    // (0) fails -> just step a bounded number and check the handler ran.
    for _ in 0..40 {
        if m.reg(9) == 1 {
            break;
        }
        m.step();
    }
    assert_eq!(m.reg(9), 1, "AST software interrupt delivered");
}

#[test]
fn no_ast_when_astlvl_is_none() {
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    load(
        &mut m,
        "
        start:
            mtpr #4, #19            ; ASTLVL = 4: no ASTs
            movl #0x6000, r6
            mtpr r6, #3
            pushl #0x03C00000
            pushal user_code
            rei
        user_code:
            nop
            nop
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::Kernel, 0x8000_1800);
    m.set_pc(0x8000_0400);
    for _ in 0..12 {
        m.step();
    }
    assert_eq!(
        m.read_ipr(vax_arch::Ipr::Sisr).unwrap(),
        0,
        "no AST request"
    );
}

#[test]
fn four_mode_chm_chain_uses_four_distinct_stacks() {
    // User -> CHMS -> CHME -> CHMK, each frame landing on its own
    // mode's stack, then three REIs unwind in order.
    let mut m = mapped_machine(MachineVariant::Standard, Protection::Uw);
    let handlers = load(
        &mut m,
        "
        chmk_h:
            movl sp, r2             ; kernel SP while handling
            movl (sp)+, r7
            rei
            .align 4
        chme_h:
            movl sp, r3             ; executive SP
            movl (sp)+, r7
            chmk #0
            rei
            .align 4
        chms_h:
            movl sp, r4             ; supervisor SP
            movl (sp)+, r7
            chme #0
            rei
            .align 4
        halt_h:
            halt                    ; user HALT lands here via vector 0x10
        ",
        0x8000_2000,
    );
    for (vec, sym) in [
        (0x40u32, "chmk_h"),
        (0x44, "chme_h"),
        (0x48, "chms_h"),
        (0x10, "halt_h"),
    ] {
        // Symbols via a second assembly pass with symbols.
        let (_, syms) = vax_asm::assemble_text_with_symbols(
            "
                chmk_h:
                    movl sp, r2
                    movl (sp)+, r7
                    rei
                    .align 4
                chme_h:
                    movl sp, r3
                    movl (sp)+, r7
                    chmk #0
                    rei
                    .align 4
                chms_h:
                    movl sp, r4
                    movl (sp)+, r7
                    chme #0
                    rei
                    .align 4
                halt_h:
                    halt
                ",
            0x8000_2000,
        )
        .unwrap();
        m.mem_mut().write_u32(SCB_PA + vec, syms[sym]).unwrap();
    }
    let _ = handlers;
    load(
        &mut m,
        "
        user:
            movl sp, r5             ; user SP
            chms #0
            movl #1, r9             ; back in user mode
            halt
        ",
        0x8000_0400,
    );
    set_mode(&mut m, AccessMode::User, 0x8000_1000);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1800);
    m.set_sp_for_mode(AccessMode::Executive, 0x8000_1600);
    m.set_sp_for_mode(AccessMode::Supervisor, 0x8000_1400);
    m.set_pc(0x8000_0400);
    run_to_halt(&mut m, 1000);
    assert_eq!(m.reg(9), 1, "full chain unwound back to user");
    // Each mode handled its frame on its own stack region.
    let (k, e, s, u) = (m.reg(2), m.reg(3), m.reg(4), m.reg(5));
    assert!((0x8000_1700..=0x8000_1800).contains(&k), "kernel {k:#x}");
    assert!((0x8000_1500..=0x8000_1600).contains(&e), "exec {e:#x}");
    assert!((0x8000_1300..=0x8000_1400).contains(&s), "super {s:#x}");
    assert!((0x8000_0F00..=0x8000_1000).contains(&u), "user {u:#x}");
    assert_eq!(m.counters().chm, 3);
    assert_eq!(m.counters().rei, 3);
}
