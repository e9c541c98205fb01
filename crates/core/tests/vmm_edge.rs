//! VMM edge cases and failure injection: bad guest state must degrade to
//! a reflected exception or a console halt — never to VMM corruption or
//! a panic.

use vax_arch::{AccessMode, MachineVariant, Psl};
use vax_asm::assemble_text;
use vax_cpu::{HaltReason, Machine, StepEvent};
use vax_vmm::{Monitor, MonitorConfig, RunExit, VmConfig, VmId, VmState};

fn monitor() -> Monitor {
    Monitor::new(MonitorConfig::default())
}

fn boot(mon: &mut Monitor, vm: VmId, src: &str) {
    let p = assemble_text(src, 0x1000).expect("assembles");
    mon.vm_write_phys(vm, 0x1000, &p.bytes).unwrap();
    mon.boot_vm(vm, 0x1000);
}

#[test]
fn rei_with_garbage_stack_is_reflected() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    // SCB at 0x200 with a reserved-operand handler that records and halts
    // (the handler is the aligned label 4 bytes before the end:
    // movl #1,r9 = D0 01 59; halt = 00).
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x200, #17
            pushl #0xFFFFFFFF       ; impossible PSL image (MBZ bits set)
            pushl #0x1000
            rei                     ; must reflect reserved operand
        spin:
            brb spin
            .align 4
        handler:
            movl #1, r9
            halt
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    let handler = 0x1000 + code.bytes.len() as u32 - 4;
    mon.vm_write_phys(vm, 0x200 + 0x18, &handler.to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[9], 1, "guest's own handler ran");
    assert!(mon.vm_stats(vm).reflected >= 1);
}

#[test]
fn vm_cannot_rei_into_virtual_kernel_from_user() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x200, #17
            movl #0x6000, r6
            mtpr r6, #3
            pushl #0x03C00000       ; to user mode
            pushal user_code
            rei
        user_code:
            pushl #0                ; kernel-mode PSL image
            pushal user_code        ; privilege-escalation attempt
            rei
        spin:
            brb spin
            .align 4
        handler:
            movpsl r9               ; record the mode the handler runs in
            halt
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    let handler = 0x1000 + code.bytes.len() as u32 - 3;
    mon.vm_write_phys(vm, 0x200 + 0x18, &handler.to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    // The escalation was rejected: the reserved-operand handler ran in
    // virtual kernel mode with previous mode user.
    let psl = Psl::from_raw(mon.vm(vm).regs[9]);
    assert_eq!(psl.prv_mode(), AccessMode::User, "faulted from user mode");
    assert_eq!(mon.vm_stats(vm).rei, 2);
}

#[test]
fn empty_scb_vector_halts_the_vm_cleanly() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    // CHMK with no SCB set up at all: vector reads 0 -> console halt.
    boot(&mut mon, vm, "movl #0x5000, sp\n chmk #1\n halt");
    mon.run(5_000_000);
    assert_eq!(mon.vm(vm).state, VmState::ConsoleHalt);
    assert!(
        mon.vm(vm).vmm_log.iter().any(|l| l.contains("halted")),
        "{:?}",
        mon.vm(vm).vmm_log
    );
}

#[test]
fn runaway_guest_exhausts_budget_without_hanging_the_monitor() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    boot(&mut mon, vm, "top: brb top");
    let start = std::time::Instant::now();
    assert_eq!(mon.run(3_000_000), RunExit::BudgetExhausted);
    assert!(start.elapsed().as_secs() < 30);
    assert_eq!(mon.vm(vm).state, VmState::Ready, "still schedulable");
}

#[test]
fn guest_console_input_via_rxdb() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    boot(
        &mut mon,
        vm,
        "
        poll:
            mfpr #32, r0        ; RXCS
            beql poll
            mfpr #33, r2        ; RXDB
            mfpr #33, r3        ; queue now empty -> 0
            mfpr #32, r4
            halt
        ",
    );
    mon.vm_mut(vm).console_in.push_back(b'X');
    mon.run(5_000_000);
    assert_eq!(mon.vm(vm).regs[2], b'X' as u32);
    assert_eq!(mon.vm(vm).regs[3], 0);
    assert_eq!(mon.vm(vm).regs[4], 0, "RXCS clear after drain");
}

#[test]
fn guest_software_interrupts_via_sirr() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x5800, #4        ; virtual ISP
            mtpr #0x200, #17
            mtpr #31, #18           ; masked for now
            mtpr #3, #20            ; SIRR: request level 3
            mfpr #21, r2            ; SISR shows it pending
            mtpr #0, #18            ; unmask: delivery happens here
            halt
        spin:
            brb spin
            .align 4
        soft_handler:
            movl #1, r9
            mfpr #21, r3            ; cleared after delivery
            rei
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    // Software level 3 vector = 0x8C; handler is 12 bytes before the end
    // (movl #1,r9 = D0 01 59; mfpr #21, r3 = DB 15 53; rei = 02) -> 7
    // bytes + rei... compute from the tail: handler starts at len-7.
    let handler = 0x1000 + code.bytes.len() as u32 - 7;
    assert_eq!(handler % 4, 0, "handler aligned");
    mon.vm_write_phys(vm, 0x200 + 0x8C, &handler.to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[2], 1 << 3, "pending while masked");
    assert_eq!(mon.vm(vm).regs[9], 1, "delivered after unmask");
    assert_eq!(mon.vm(vm).regs[3], 0, "summary bit cleared");
}

#[test]
fn ioreset_cancels_pending_disk_completion() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    boot(
        &mut mon,
        vm,
        "
        start:
            movl #1, @#0x300        ; disk read
            clrl @#0x304
            movl #0x2000, @#0x308
            movl #512, @#0x30C
            clrl @#0x310
            mtpr #0x300, #201       ; start it
            mtpr #0, #202           ; IORESET immediately
            movl #2000, r2
        spin:
            sobgtr r2, spin
            movl @#0x310, r3        ; status must still be 0
            halt
        ",
    );
    assert_eq!(mon.run(50_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[3], 0, "completion cancelled by IORESET");
    assert!(mon.vm(vm).vdisk_pending.is_none());
}

#[test]
fn two_vms_get_comparable_service() {
    let mut mon = monitor();
    let a = mon.create_vm("a", VmConfig::default());
    let b = mon.create_vm("b", VmConfig::default());
    for vm in [a, b] {
        boot(
            &mut mon,
            vm,
            "
            movl #60000, r2
            clrl r3
        top:
            addl2 r2, r3
            sobgtr r2, top
            halt
            ",
        );
    }
    assert_eq!(mon.run(50_000_000), RunExit::AllHalted);
    let ca = mon.vm_stats(a).cycles_run as f64;
    let cb = mon.vm_stats(b).cycles_run as f64;
    assert!(
        (ca / cb - 1.0).abs() < 0.2,
        "round-robin fairness: {ca} vs {cb}"
    );
}

#[test]
fn monitor_with_no_vms_returns_immediately() {
    // Vacuously "all halted": nothing to run, no spinning.
    let mut mon = monitor();
    let start = std::time::Instant::now();
    assert_eq!(mon.run(1_000_000), RunExit::AllHalted);
    assert!(start.elapsed().as_millis() < 1000);
}

#[test]
fn vm_memory_exhaustion_is_a_clean_panic_at_creation() {
    // Admission control: the frame allocator panics when real memory
    // cannot back the VM (fixed allocation, no paging — paper §7.2).
    let result = std::panic::catch_unwind(|| {
        let mut mon = Monitor::new(MonitorConfig {
            mem_bytes: 1024 * 1024,
            ..MonitorConfig::default()
        });
        for i in 0..64 {
            mon.create_vm(&format!("vm{i}"), VmConfig::default());
        }
    });
    assert!(result.is_err(), "out of real memory must be detected");
}

#[test]
fn arithmetic_trap_in_vm_is_reflected_to_the_guest() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x200, #17
            movl #7, r2
            divl2 #0, r2            ; divide by zero: reflected trap
        spin:
            brb spin
            .align 4
        arith_handler:
            movl (sp)+, r9          ; trap type code
            halt
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    // Arithmetic vector (0x34) -> handler (7 bytes from the end:
    // movl (sp)+, r9 = D0 8E 59; halt = 00).
    let handler = 0x1000 + code.bytes.len() as u32 - 4;
    mon.vm_write_phys(vm, 0x200 + 0x34, &handler.to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[9], 2, "integer divide-by-zero code");
    assert_eq!(mon.vm(vm).regs[2], 7, "destination unchanged");
}

#[test]
fn breakpoint_in_vm_is_reflected() {
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x200, #17
            bpt
        spin:
            brb spin
            .align 4
        bpt_handler:
            movl #1, r9
            halt
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    let handler = 0x1000 + code.bytes.len() as u32 - 4;
    mon.vm_write_phys(vm, 0x200 + 0x2C, &handler.to_le_bytes())
        .unwrap();
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[9], 1, "guest debugger hook ran");
}

#[test]
fn virtual_ast_delivery_matches_bare_behavior() {
    // The emulated REI performs the same ASTLVL check against the VM's
    // virtual ASTLVL register.
    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    let code = assemble_text(
        "
        start:
            movl #0x5000, sp
            mtpr #0x5800, #4
            mtpr #0x200, #17
            mtpr #3, #19            ; virtual ASTLVL = 3
            movl #0x6000, r6
            mtpr r6, #3
            pushl #0x03C00000       ; user image, IPL 0
            pushal user_code
            rei                     ; AST software interrupt requested
        user_code:
            nop
            nop
        spin:
            brb spin
            .align 4
        ast_handler:
            movl #1, r9
            halt
        ",
        0x1000,
    )
    .unwrap();
    mon.vm_write_phys(vm, 0x1000, &code.bytes).unwrap();
    let handler = 0x1000 + code.bytes.len() as u32 - 4;
    mon.vm_write_phys(vm, 0x200 + 0x88, &handler.to_le_bytes())
        .unwrap(); // level 2
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(5_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).regs[9], 1, "virtual AST delivered");
}

// ---------------------------------------------------------------------
// Bare machine vs VM: the microcode and the VMM's emulation of it agree
// ---------------------------------------------------------------------

/// Runs `src` (assembled at 0x1000, entered there in kernel mode with
/// translation off; the program sets SCBB to 0x200 itself) to its HALT on
/// a bare modified VAX and in a VM, with SCB offset → label `vectors`
/// filled in. Returns each run's R0–R13.
fn bare_and_vm(src: &str, vectors: &[(u32, &str)]) -> ([u32; 14], [u32; 14]) {
    let (p, sym) = vax_asm::assemble_text_with_symbols(src, 0x1000).expect("assembles");

    let mut m = Machine::new(MachineVariant::Modified, 0x10000);
    m.mem_mut().write_slice(0x1000, &p.bytes).unwrap();
    for (off, label) in vectors {
        m.mem_mut().write_u32(0x200 + off, sym[*label]).unwrap();
    }
    m.set_pc(0x1000);
    assert_eq!(
        m.run(1_000_000),
        StepEvent::Halted(HaltReason::HaltInstruction),
        "bare run halts"
    );

    let mut mon = monitor();
    let vm = mon.create_vm("g", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, &p.bytes).unwrap();
    for (off, label) in vectors {
        mon.vm_write_phys(vm, 0x200 + off, &sym[*label].to_le_bytes())
            .unwrap();
    }
    mon.boot_vm(vm, 0x1000);
    assert_eq!(mon.run(50_000_000), RunExit::AllHalted);
    assert_eq!(mon.vm(vm).halt_reason, None, "VM run halts by HALT");

    let bare = std::array::from_fn(|i| m.reg(i));
    let virt = std::array::from_fn(|i| mon.vm(vm).regs[i]);
    (bare, virt)
}

/// Sets the stacks (the bare machine powers up on the interrupt stack,
/// a VM boots off it), then REIs to kernel mode at IPL 31 off the
/// interrupt stack, at `main`.
const STACKS_THEN_MAIN: &str = "
        start:
            mtpr #0x200, #17        ; SCBB
            mtpr #4, #19            ; ASTLVL 4: REI requests no AST
            mtpr #0x3000, #4        ; ISP
            mtpr #0x3800, #0        ; KSP
            mtpr #0x4000, #1        ; ESP
            mtpr #0x4800, #2        ; SSP
            mtpr #0x5000, #3        ; USP
            pushl #0x001F0000       ; kernel, IPL 31, off the interrupt stack
            pushal main
            rei
";

/// Runs `trap` in kernel mode with `PSL<IV>` set, after `setup`, bare
/// and in a VM: a trap saves the PC of the instruction after the one
/// that trapped, and a VM's reflected trap must save the same PC (and
/// type code) as the bare machine.
fn arithmetic_trap_bare_and_in_a_vm(setup: &str, trap: &str, code: u32) {
    let src = format!(
        "{STACKS_THEN_MAIN}
        main:
            pushl #0x20             ; kernel, IPL 0, PSL<IV> set
            pushal body
            rei
        body:
            {setup}
            {trap}
        next:
            brb next
            .align 4
        arith:
            movl (sp)+, r9          ; type code
            movl (sp), r10          ; saved PC
            halt
        "
    );
    let (bare, vm) = bare_and_vm(&src, &[(0x34, "arith")]);
    let (_, sym) = vax_asm::assemble_text_with_symbols(&src, 0x1000).unwrap();
    assert_eq!((bare[9], bare[10]), (code, sym["next"]), "bare {trap}");
    assert_eq!((vm[9], vm[10]), (bare[9], bare[10]), "VM {trap}");
    assert_eq!(vm[2], bare[2], "{trap}: destination");
}

#[test]
fn divide_by_zero_trap_saves_the_next_pc_bare_and_in_a_vm() {
    arithmetic_trap_bare_and_in_a_vm("movl #7, r2", "divl2 #0, r2", 2);
}

#[test]
fn overflow_trap_saves_the_next_pc_bare_and_in_a_vm() {
    arithmetic_trap_bare_and_in_a_vm("movl #0x7fffffff, r2", "addl2 #1, r2", 1);
}

/// A CHMK whose operand pops the stack: the bare machine commits the
/// pop before it pushes the exception frame, so the frame lands below
/// the popped SP and REI returns to it; the VM's emulated CHMK must do
/// the same.
#[test]
fn chm_operand_moving_sp_keeps_its_update_in_a_vm() {
    let src = format!(
        "{STACKS_THEN_MAIN}
        main:
            pushl #7
            chmk (sp)+
            movl sp, r8             ; SP after the REI
            halt
            .align 4
        chmk:
            movl sp, r7             ; SP with the frame pushed
            movl (sp)+, r9          ; the code
            rei
        "
    );
    let (bare, vm) = bare_and_vm(&src, &[(0x40, "chmk")]);
    assert_eq!((bare[7], bare[8], bare[9]), (0x37f2, 0x37fe, 7), "bare");
    assert_eq!((vm[7], vm[8], vm[9]), (bare[7], bare[8], bare[9]), "VM");
}

/// A PSL image for REI.
fn image(cur: AccessMode, prv: AccessMode, ipl: u8, is: bool) -> u32 {
    let mut psl = Psl::new();
    psl.set_cur_mode(cur);
    psl.set_prv_mode(prv);
    psl.set_ipl(ipl);
    psl.set_flag(Psl::IS, is);
    psl.raw()
}

/// REI's rule, written out: (mode REI runs in, on the interrupt stack,
/// what the image breaks, the image, accepted). Each state has a legal
/// image and one breaking each check it can break: a kernel REI cannot
/// break "no more privileged", and only kernel runs on the interrupt
/// stack. The kernel-on-IS rows run at IPL 1 (a software interrupt), so
/// the legal IS image keeps IPL 1 — an IS image at IPL 0 faults — and
/// they are the rows that can raise the IPL; kernel off the interrupt
/// stack runs at IPL 31, and outer modes may only name IPL 0.
#[rustfmt::skip]
fn rei_spec() -> Vec<(AccessMode, bool, &'static str, u32, bool)> {
    use AccessMode::{Executive as E, Kernel as K, Supervisor as S, User as U};
    let mbz = 1 << 8;
    vec![
        (K, false, "legal",              image(K, K, 0, false),       true),
        (K, false, "legal, to user",     image(U, U, 0, false),       true),
        (K, false, "MBZ",                image(K, K, 0, false) | mbz, false),
        (K, false, "prv above cur",      image(U, K, 0, false),       false),
        (K, false, "IPL outside kernel", image(U, U, 1, false),       false),
        (K, false, "IS from off IS",     image(K, K, 0, true),        false),
        (K, true,  "legal",              image(K, K, 1, true),        true),
        (K, true,  "legal, to user",     image(U, U, 0, false),       true),
        (K, true,  "MBZ",                image(K, K, 0, true) | mbz,  false),
        (K, true,  "prv above cur",      image(U, K, 0, false),       false),
        (K, true,  "IPL outside kernel", image(U, U, 1, false),       false),
        (K, true,  "IS outside kernel",  image(U, U, 0, true),        false),
        (K, true,  "IS at IPL 0",        image(K, K, 0, true),        false),
        (K, true,  "IPL raised",         image(K, K, 2, true),        false),
        (K, true,  "IPL raised, off IS", image(K, K, 2, false),       false),
        (E, false, "legal",              image(E, E, 0, false),       true),
        (E, false, "MBZ",                image(E, E, 0, false) | mbz, false),
        (E, false, "more privileged",    image(K, K, 0, false),       false),
        (E, false, "prv above cur",      image(U, E, 0, false),       false),
        (E, false, "IPL outside kernel", image(U, U, 1, false),       false),
        (E, false, "IS from off IS",     image(E, E, 0, true),        false),
        (S, false, "legal",              image(S, S, 0, false),       true),
        (S, false, "MBZ",                image(S, S, 0, false) | mbz, false),
        (S, false, "more privileged",    image(E, E, 0, false),       false),
        (S, false, "prv above cur",      image(U, S, 0, false),       false),
        (S, false, "IPL outside kernel", image(U, U, 1, false),       false),
        (S, false, "IS from off IS",     image(S, S, 0, true),        false),
        (U, false, "legal",              image(U, U, 0, false),       true),
        (U, false, "MBZ",                image(U, U, 0, false) | mbz, false),
        (U, false, "more privileged",    image(S, S, 0, false),       false),
        (U, false, "prv above cur",      image(U, K, 0, false),       false),
        (U, false, "IPL outside kernel", image(U, U, 1, false),       false),
        (U, false, "IS from off IS",     image(U, U, 0, true),        false),
    ]
}

#[test]
fn rei_accepts_and_rejects_the_same_images_bare_and_in_a_vm() {
    for (mode, on_is, what, img, accepted) in rei_spec() {
        // Reach the mode under test: kernel on the interrupt stack by a
        // software interrupt, an outer mode by REI.
        let enter = match (mode, on_is) {
            (AccessMode::Kernel, false) => String::new(),
            (AccessMode::Kernel, true) => "mtpr #1, #20\n mtpr #0, #18\n brb spin".into(),
            (m, _) => format!("pushl #{:#x}\n pushal test\n rei", image(m, m, 0, false)),
        };
        let src = format!(
            "{STACKS_THEN_MAIN}
        main:
            {enter}
        test:
            pushl #{img:#x}
            pushal accepted
            rei
        spin:
            brb spin
            .align 4
        accepted:
            movl #1, r9
            chmk #0
            .align 4
        resop:
            movl #2, r9
            halt
            .align 4
        chmk:
            halt
            .align 4
        soft1:
            brw test
        "
        );
        let vectors = [(0x18, "resop"), (0x40, "chmk"), (0x84, "soft1")];
        let (bare, vm) = bare_and_vm(&src, &vectors);
        let expect = if accepted { 1 } else { 2 };
        let case = format!("REI in {mode:?} (IS {on_is}), {what}, image {img:#010x}");
        assert_eq!(bare[9], expect, "bare: {case}");
        assert_eq!(vm[9], expect, "VM: {case}");
    }
}
