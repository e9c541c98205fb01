//! Sensitive-instruction emulation and exception reflection — the VMM
//! half of execution ring compression (paper §4.2).
//!
//! Every handler receives the machine's own decode of the trapped
//! instruction, every operand parsed (so no instruction parsing happens
//! here), transforms the VM's virtual privileged state, and resumes the
//! VM at the instruction's successor.

use crate::fault::{Containment, VmmError};
use crate::monitor::{compress_mode, Monitor};
use crate::shadow::FillOutcome;
use crate::vm::{DirtyStrategy, IoStrategy, VirtualIrq, VmState};
use core::convert::Infallible;
use vax_arch::{AccessMode, Exception, Frame, Ipr, Opcode, Pcb, Psl, VirtAddr};
use vax_cpu::decode::RegUpdates;
use vax_cpu::{DecOp, Decoded, OperandLoc, VmExit};
use vax_mem::MemFault;

/// Condition-code and trap-enable bits carried between guest PSL images.
const CC_BITS: [u32; 6] = [Psl::C, Psl::V, Psl::Z, Psl::N, Psl::T, Psl::IV];

impl Monitor {
    /// Saves the live stack pointer into the VM's slot for its current
    /// (mode, interrupt-stack) pair.
    fn save_live_sp(&mut self, idx: usize) {
        let sp = self.machine.reg(14);
        let vm = &mut self.vms[idx].vm;
        let (cur, is) = (vm.vmpsl.cur_mode(), vm.v_is);
        vm.set_stack_slot(cur, is, sp);
    }

    /// Switches the VM's virtual mode, updating VMPSL, the real
    /// (compressed) PSL, and the live stack pointer. The caller must have
    /// already saved the live SP and stored any new value into the target
    /// slot.
    fn set_vm_mode(
        &mut self,
        idx: usize,
        cur: AccessMode,
        prv: AccessMode,
        is: bool,
        clear_cc: bool,
    ) {
        let vm = &mut self.vms[idx].vm;
        vm.vmpsl.set_cur_mode(cur);
        vm.vmpsl.set_prv_mode(prv);
        vm.v_is = is;
        let new_sp = vm.stack_slot(cur, is);
        let mut psl = if clear_cc {
            Psl::new()
        } else {
            self.machine.psl()
        };
        psl.set_vm(false);
        psl.set_cur_mode(compress_mode(cur));
        psl.set_prv_mode(compress_mode(prv));
        psl.set_ipl(0); // the real IPL stays 0 while a VM runs
        self.machine.set_psl(psl);
        self.machine.set_reg(14, new_sp);
    }

    /// Reads guest virtual memory as the VM (with shadow fills on
    /// demand). `Err` carries what to do instead (reflect or halt).
    pub(crate) fn vm_read(
        &mut self,
        idx: usize,
        va: VirtAddr,
        len: u32,
        real_mode: AccessMode,
    ) -> Result<u32, FillOutcome> {
        for _ in 0..8 {
            let r = self.machine.read_virt(va, len, real_mode);
            match r {
                Ok(v) => return Ok(v),
                Err(fault) => self.service_fault(idx, fault, false)?,
            }
        }
        Err(FillOutcome::Fault(VmmError::Internal {
            what: "shadow fill did not converge",
        }))
    }

    /// Writes guest virtual memory as the VM.
    pub(crate) fn vm_write(
        &mut self,
        idx: usize,
        va: VirtAddr,
        value: u32,
        len: u32,
        real_mode: AccessMode,
    ) -> Result<(), FillOutcome> {
        for _ in 0..8 {
            let r = self.machine.write_virt(va, value, len, real_mode);
            match r {
                Ok(()) => return Ok(()),
                Err(fault) => self.service_fault(idx, fault, true)?,
            }
        }
        Err(FillOutcome::Fault(VmmError::Internal {
            what: "shadow fill did not converge",
        }))
    }

    /// Services one memory fault hit while the VMM itself touches guest
    /// memory: fill / modify / upgrade, or propagate.
    fn service_fault(
        &mut self,
        idx: usize,
        fault: MemFault,
        write: bool,
    ) -> Result<(), FillOutcome> {
        let slot = &mut self.vms[idx];
        let machine = &mut self.machine;
        match fault {
            MemFault::TranslationNotValid { va, .. } => {
                match slot.shadow.fill(machine, &mut slot.vm, va) {
                    FillOutcome::Filled => Ok(()),
                    other => Err(other),
                }
            }
            MemFault::ModifyFault { va } => {
                match slot.shadow.modify_fault(machine, &mut slot.vm, va) {
                    FillOutcome::Filled => Ok(()),
                    other => Err(other),
                }
            }
            MemFault::AccessViolation { va, .. }
                if write && slot.vm.dirty_strategy == DirtyStrategy::ReadOnlyShadow =>
            {
                match slot
                    .shadow
                    .write_upgrade(machine, &mut slot.vm, va, AccessMode::Executive)
                {
                    FillOutcome::Filled => Ok(()),
                    other => Err(other),
                }
            }
            other => Err(FillOutcome::Reflect(other.to_exception())),
        }
    }

    /// Reads a longword of guest physical memory (VMM-internal). The
    /// whole longword must lie inside the VM — checking only the first
    /// byte would let an address at `mem_bytes - {1,2,3}` read into the
    /// adjacent VM's frames.
    pub(crate) fn read_gp(&self, idx: usize, gpa: u32) -> Option<u32> {
        let pa = self.vms[idx].vm.gpa_to_pa_len(gpa, 4)?;
        self.machine.mem().read_u32(pa).ok()
    }

    /// Reads a longword at `base + off` in guest physical memory,
    /// failing cleanly if the guest-supplied base makes the sum wrap.
    pub(crate) fn read_gp_at(&self, idx: usize, base: u32, off: u32) -> Option<u32> {
        self.read_gp(idx, base.checked_add(off)?)
    }

    /// Writes a longword of guest physical memory (VMM-internal); the
    /// same whole-longword containment as [`Monitor::read_gp`].
    pub(crate) fn write_gp(&mut self, idx: usize, gpa: u32, v: u32) -> Option<()> {
        let pa = self.vms[idx].vm.gpa_to_pa_len(gpa, 4)?;
        self.machine.mem_mut().write_u32(pa, v).ok()
    }

    /// Writes a longword at `base + off`, overflow-checked.
    pub(crate) fn write_gp_at(&mut self, idx: usize, base: u32, off: u32, v: u32) -> Option<()> {
        self.write_gp(idx, base.checked_add(off)?, v)
    }

    /// Handles a failed VMM access to guest memory: reflect the guest's
    /// own fault (the faulted operation will be retried or the guest's
    /// handler takes over), or contain the VMM fault.
    fn guest_access_failed(&mut self, idx: usize, outcome: FillOutcome, ctx: &'static str) -> bool {
        match outcome {
            FillOutcome::Reflect(e) => self.reflect(idx, e),
            FillOutcome::Fault(err) => self.contain(idx, err),
            FillOutcome::Filled => self.security_halt(idx, VmmError::Internal { what: ctx }),
        }
    }

    /// Applies the [`VmmError::containment`] policy (DESIGN.md §11) to a
    /// fault raised while this VM was executing: reflect a virtual
    /// machine check through the guest SCB, or halt the VM with the
    /// reason recorded. Returns `true` when the VM should resume (into
    /// its machine-check handler).
    pub(crate) fn contain(&mut self, idx: usize, err: VmmError) -> bool {
        match err.containment() {
            Containment::Reflect(e) => {
                self.machine
                    .obs_refine(vax_obs::ExitCause::ReflectedMachineCheck);
                self.vms[idx].vm.stats.machine_checks += 1;
                self.reflect(idx, e)
            }
            Containment::Halt => self.security_halt(idx, err),
        }
    }

    /// Halts the VM at its virtual console with `err` recorded as the
    /// reason — the clean-halt arm of fault containment. Always returns
    /// `false` (do not resume).
    pub(crate) fn security_halt(&mut self, idx: usize, err: VmmError) -> bool {
        self.machine.obs_refine(vax_obs::ExitCause::SecurityHalt);
        let vm = &mut self.vms[idx].vm;
        vm.state = VmState::ConsoleHalt;
        vm.halt_reason = Some(err);
        vm.vmm_log.push(format!("{} halted: {err}", vm.name));
        false
    }

    /// A guest-requested console halt (HALT in virtual kernel mode) —
    /// not an error, so no halt reason is recorded.
    fn console_halt(&mut self, idx: usize, why: &str) -> bool {
        let vm = &mut self.vms[idx].vm;
        vm.state = VmState::ConsoleHalt;
        vm.vmm_log.push(format!("{} halted: {why}", vm.name));
        false
    }

    /// Central exit dispatcher. Returns `true` to resume the VM.
    pub(crate) fn handle_exit(&mut self, idx: usize, exit: VmExit) -> bool {
        match exit {
            VmExit::Emulation => {
                self.vms[idx].vm.stats.emulation_traps += 1;
                self.charge(self.config.costs.dispatch);
                // Copied before any handler can step the machine again.
                match self.machine.trapped_instruction().cloned() {
                    Some(d) => self.emulate(idx, &d),
                    None => self.security_halt(
                        idx,
                        VmmError::Internal {
                            what: "emulation trap without a decode",
                        },
                    ),
                }
            }
            VmExit::Exception(e) => {
                self.charge(self.config.costs.dispatch);
                self.handle_exception(idx, e)
            }
            VmExit::Interrupt { ipl, vector } => {
                // A real device completed: route to the owning VM as a
                // virtual interrupt.
                let owner = self
                    .real_vector_owner
                    .iter()
                    .find(|(v, _, _)| *v == vector)
                    .copied();
                if let Some((_, owner_idx, guest_vector)) = owner {
                    self.vms[owner_idx].vm.pend_virq(VirtualIrq {
                        ipl,
                        vector: guest_vector,
                    });
                }
                true
            }
        }
    }

    fn handle_exception(&mut self, idx: usize, e: Exception) -> bool {
        match e {
            Exception::TranslationNotValid { va, .. } => {
                if self.vms[idx].vm.io_strategy == IoStrategy::EmulatedMmio {
                    if let Some(gpfn) = self.mmio_window_gpfn(idx, va) {
                        self.machine.obs_refine(vax_obs::ExitCause::MmioEmulation);
                        return crate::io::emulate_mmio_access(self, idx, va, gpfn);
                    }
                }
                self.vms[idx].vm.stats.shadow_faults += 1;
                let fills_before = self.vms[idx].vm.stats.shadow_fills;
                let slot = &mut self.vms[idx];
                let outcome = slot.shadow.fill(&mut self.machine, &mut slot.vm, va);
                // Charge the per-PTE translation work — this is what made
                // the paper's prefill experiment a net loss (§4.3.1).
                let fills = (self.vms[idx].vm.stats.shadow_fills - fills_before).max(1);
                self.charge(self.config.costs.shadow_fill * fills);
                match outcome {
                    FillOutcome::Filled => true,
                    FillOutcome::Reflect(ge) => {
                        // Not a shadow-fill service after all: the guest's
                        // own tables say the page is invalid.
                        self.machine.obs_refine(vax_obs::ExitCause::GuestPageFault);
                        self.reflect(idx, ge)
                    }
                    FillOutcome::Fault(err) => self.contain(idx, err),
                }
            }
            Exception::ModifyFault { va } => {
                self.charge(self.config.costs.modify_fault);
                let slot = &mut self.vms[idx];
                match slot
                    .shadow
                    .modify_fault(&mut self.machine, &mut slot.vm, va)
                {
                    FillOutcome::Filled => true,
                    FillOutcome::Reflect(ge) => self.reflect(idx, ge),
                    FillOutcome::Fault(err) => self.contain(idx, err),
                }
            }
            Exception::AccessViolation { va, write, .. } => {
                if write && self.vms[idx].vm.dirty_strategy == DirtyStrategy::ReadOnlyShadow {
                    self.charge(self.config.costs.modify_fault);
                    let slot = &mut self.vms[idx];
                    let real_mode = self.machine.psl().cur_mode();
                    match slot
                        .shadow
                        .write_upgrade(&mut self.machine, &mut slot.vm, va, real_mode)
                    {
                        FillOutcome::Filled => return true,
                        FillOutcome::Reflect(ge) => return self.reflect(idx, ge),
                        FillOutcome::Fault(err) => return self.contain(idx, err),
                    }
                }
                let ge = self.guestify_av(idx, e);
                self.reflect(idx, ge)
            }
            Exception::MachineCheck { code } => {
                // Paper §5: a reference to nonexistent memory can be a
                // symptom of a security attack — halt the VM.
                self.security_halt(idx, VmmError::RealMachineCheck { code })
            }
            Exception::KernelStackNotValid => self.security_halt(
                idx,
                VmmError::Undeliverable {
                    what: "kernel stack not valid",
                },
            ),
            other => self.reflect(idx, other),
        }
    }

    /// Recomputes an access violation's guest-visible length bit against
    /// the *guest's* length registers (the real machine checked the
    /// shadow capacities).
    fn guestify_av(&self, idx: usize, e: Exception) -> Exception {
        let Exception::AccessViolation {
            va,
            write,
            length,
            pte_ref,
        } = e
        else {
            return e;
        };
        let vm = &self.vms[idx].vm;
        let vpn = va.vpn();
        let length = length
            || match va.region() {
                vax_arch::Region::S => vpn >= vm.guest_slr,
                vax_arch::Region::P0 => vpn >= vm.guest_p0lr,
                vax_arch::Region::P1 => vpn < vm.guest_p1lr,
                vax_arch::Region::Reserved => true,
            };
        Exception::AccessViolation {
            va,
            write,
            length,
            pte_ref,
        }
    }

    /// Reflects an exception into the guest through its SCB (paper §4.2:
    /// "forward the exception to the VM"). The VM's PC is where the
    /// exception's frame saves it (the machine put it there on the exit).
    pub(crate) fn reflect(&mut self, idx: usize, e: Exception) -> bool {
        self.charge(self.config.costs.reflect);
        self.vms[idx].vm.stats.reflected += 1;
        let vm = &self.vms[idx].vm;
        let stack = e.target_stack(vm.vmpsl.cur_mode(), vm.v_is);
        let pc = self.machine.pc();
        let frame = e.frame(vm.vmpsl.merge_into(self.machine.psl()), pc, pc);
        let empty = "guest exception vector empty";
        match self.enter_guest(idx, &frame, stack, e.vector().offset(), empty, None) {
            Ok(entered) => entered,
            // Reflecting the push failure would recurse into the same
            // broken stack: the guest can no longer hear about its own
            // faults, so contain by halting.
            Err(_) => self.security_halt(
                idx,
                VmmError::Undeliverable {
                    what: "exception frame push failed",
                },
            ),
        }
    }

    /// Delivers a pending virtual interrupt (guest SCB, virtual interrupt
    /// stack, virtual IPL raised to the source's level).
    pub(crate) fn deliver_virq(&mut self, idx: usize, irq: VirtualIrq) {
        self.charge(self.config.costs.virq_delivery);
        let merged = self.vms[idx].vm.vmpsl.merge_into(self.machine.psl());
        let frame = Frame::new(merged, self.machine.pc());
        let (vector, empty) = (irq.vector as u32, "guest interrupt vector empty");
        match self.enter_guest(idx, &frame, (AccessMode::Kernel, true), vector, empty, None) {
            Ok(true) => {
                let vm = &mut self.vms[idx].vm;
                vm.clear_virq(irq);
                vm.stats.virqs += 1;
                vm.vmpsl.set_ipl(irq.ipl);
                self.machine.enter_vm(self.vms[idx].vm.vmpsl);
            }
            Ok(false) => {}
            // The interrupt stays pending; the guest handles its own
            // fault first (or the VM halts on a security violation).
            Err(out) => {
                self.guest_access_failed(idx, out, "interrupt frame push failed");
            }
        }
    }

    /// Pushes `frame` on the guest's virtual stack for `(mode, is)` and
    /// enters the handler at guest SCB offset `vector` in that mode, with
    /// the VM's mode as the previous one and the condition codes clear.
    /// `trapped`, the instruction that caused it, commits its register
    /// side effects first, as the bare machine does before it raises the
    /// exception — so a CHMx whose operand moves SP pushes below the
    /// moved SP — and a faulting push undoes them, so the instruction
    /// restarts clean. `Ok(false)`: the VM halted, its SCB unreadable or
    /// the vector `empty`. `Err`: a push faulted.
    fn enter_guest(
        &mut self,
        idx: usize,
        frame: &Frame,
        (mode, is): (AccessMode, bool),
        vector: u32,
        empty: &'static str,
        trapped: Option<&Decoded>,
    ) -> Result<bool, FillOutcome> {
        let mut undo = RegUpdates::new();
        if let Some(d) = trapped {
            for &(r, _) in &d.reg_updates {
                undo.push((r, self.machine.reg(r as usize)));
            }
            self.machine.commit_reg_updates(d);
        }
        self.save_live_sp(idx);
        let mut sp = self.vms[idx].vm.stack_slot(mode, is);
        let real_mode = compress_mode(mode);
        for &v in frame.push_order() {
            sp = sp.wrapping_sub(4);
            if let Err(out) = self.vm_write(idx, VirtAddr::new(sp), v, 4, real_mode) {
                for &(r, old) in undo.iter().rev() {
                    self.machine.set_reg(r as usize, old);
                }
                self.save_live_sp(idx);
                return Err(out);
            }
        }
        self.vms[idx].vm.set_stack_slot(mode, is, sp);

        let scbb = self.vms[idx].vm.guest_scbb;
        let what = match self.read_gp_at(idx, scbb, vector) {
            None => "guest SCB unreadable",
            Some(h) if h & !3 == 0 => empty,
            Some(h) => {
                let old_cur = self.vms[idx].vm.vmpsl.cur_mode();
                self.set_vm_mode(idx, mode, old_cur, is, true);
                self.machine.set_pc(h & !3);
                return Ok(true);
            }
        };
        Ok(self.security_halt(idx, VmmError::Undeliverable { what }))
    }

    // ---- instruction emulations ----

    fn emulate(&mut self, idx: usize, d: &Decoded) -> bool {
        match d.op {
            Opcode::Chmk | Opcode::Chme | Opcode::Chms | Opcode::Chmu => self.emulate_chm(idx, d),
            Opcode::Rei => self.emulate_rei(idx, d),
            Opcode::Mtpr => self.emulate_mtpr(idx, d),
            Opcode::Mfpr => self.emulate_mfpr(idx, d),
            Opcode::Ldpctx => self.emulate_ldpctx(idx, d),
            Opcode::Svpctx => self.emulate_svpctx(idx, d),
            Opcode::Prober | Opcode::Probew => self.emulate_probe(idx, d),
            Opcode::Halt => {
                // Virtual console entry.
                self.console_halt(idx, "HALT instruction")
            }
            Opcode::Wait => {
                // The WAIT handshake (paper §5): the VM is idle; run
                // someone else. It times out so every VM runs eventually.
                self.charge(self.config.costs.wait);
                let until = self.machine.cycles() + self.config.wait_timeout;
                let vm = &mut self.vms[idx].vm;
                vm.stats.waits += 1;
                vm.state = VmState::Idle { until };
                self.machine.commit_reg_updates(d);
                self.machine.set_pc(d.next_pc);
                false
            }
            Opcode::Probevmr | Opcode::Probevmw => {
                // No self-virtualization (paper §4.3.3): deliver the
                // unimplemented-instruction exception to the VM.
                self.reflect(idx, Exception::ReservedInstruction)
            }
            // Defensive: anything else is unexpected.
            _ => self.reflect(idx, Exception::ReservedInstruction),
        }
    }

    fn emulate_chm(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.chm);
        self.vms[idx].vm.stats.chm += 1;
        let code = d.operand(0).unwrap_or(0) as u16 as i16 as i32 as u32;
        let Some(target) = d.op.chm_target() else {
            // Only CHMx opcodes dispatch here; a non-CHM decode is a
            // decoder inconsistency, handled as a reserved instruction
            // rather than a panic.
            return self.reflect(idx, Exception::ReservedInstruction);
        };
        let e = Exception::ChangeMode { target, code };
        let vm = &self.vms[idx].vm;
        let stack = e.target_stack(vm.vmpsl.cur_mode(), vm.v_is);
        // The VM's full PSL at the trap ("not just VMPSL", paper §4.2).
        let merged = self.machine.vmpsl().merge_into(self.machine.psl());
        let frame = e.frame(merged, self.machine.pc(), d.next_pc);
        let empty = "guest CHM vector empty";
        match self.enter_guest(idx, &frame, stack, e.vector().offset(), empty, Some(d)) {
            Ok(entered) => entered,
            // PC still points at the CHM: reflecting the fault lets the
            // guest validate its stack and re-execute the CHM.
            Err(out) => self.guest_access_failed(idx, out, "CHM stack push failed"),
        }
    }

    fn emulate_rei(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.rei);
        self.vms[idx].vm.stats.rei += 1;
        let vm = &self.vms[idx].vm;
        let (cur, is, ipl) = (vm.vmpsl.cur_mode(), vm.v_is, vm.vmpsl.ipl());
        let real_mode = compress_mode(cur);
        let sp = self.machine.reg(14);
        let new_pc = match self.vm_read(idx, VirtAddr::new(sp), 4, real_mode) {
            Ok(v) => v,
            Err(out) => return self.guest_access_failed(idx, out, "REI stack read"),
        };
        let img = match self.vm_read(idx, VirtAddr::new(sp.wrapping_add(4)), 4, real_mode) {
            Ok(v) => Psl::from_raw(v),
            Err(out) => return self.guest_access_failed(idx, out, "REI stack read"),
        };

        // The microcode's checks, but against *virtual* modes and the
        // virtual IPL — this is where the guest is prevented from
        // increasing its own privilege.
        if !img.rei_image_valid(cur, is, ipl) {
            return self.reflect(idx, Exception::ReservedOperand);
        }

        // Commit: pop the frame, bank the old stack, load the image.
        self.machine.set_reg(14, sp.wrapping_add(8));
        self.save_live_sp(idx);
        {
            let vm = &mut self.vms[idx].vm;
            vm.vmpsl.set_ipl(img.ipl());
            // AST delivery check against the *virtual* ASTLVL.
            vm.guest_sisr |= img.rei_ast_request(vm.guest_astlvl);
        }
        self.machine.commit_reg_updates(d);
        self.set_vm_mode(
            idx,
            img.cur_mode(),
            img.prv_mode(),
            img.flag(Psl::IS),
            false,
        );
        // Restore the image's condition codes into the real PSL.
        let mut psl = self.machine.psl();
        for flag in CC_BITS {
            psl.set_flag(flag, img.flag(flag));
        }
        self.machine.set_psl(psl);
        self.machine.set_pc(new_pc);
        true
    }

    fn emulate_mtpr(&mut self, idx: usize, d: &Decoded) -> bool {
        let value = d.operand(0).unwrap_or(0);
        let regno = d.operand(1).unwrap_or(u32::MAX);
        let Some(ipr) = Ipr::from_number(regno) else {
            return self.reflect(idx, Exception::ReservedOperand);
        };
        if ipr == Ipr::Ipl {
            self.machine.obs_refine(vax_obs::ExitCause::EmulMtprIpl);
            self.charge(self.config.costs.mtpr_ipl);
            self.vms[idx].vm.stats.mtpr_ipl += 1;
        } else {
            self.charge(self.config.costs.mtpr_other);
            self.vms[idx].vm.stats.mtpr_other += 1;
        }

        match ipr {
            Ipr::Ipl => self.vms[idx].vm.vmpsl.set_ipl((value & 0x1f) as u8),
            Ipr::Sirr => {
                let level = value & 0xf;
                if level != 0 {
                    self.vms[idx].vm.guest_sisr |= 1 << level;
                }
            }
            Ipr::Sisr => self.vms[idx].vm.guest_sisr = (value & 0xfffe) as u16,
            Ipr::Scbb => self.vms[idx].vm.guest_scbb = value & !0x1ff,
            Ipr::Pcbb => self.vms[idx].vm.guest_pcbb = value,
            Ipr::Sbr => {
                self.vms[idx].vm.guest_sbr = value & !3;
                let slot = &mut self.vms[idx];
                let slr = slot.vm.guest_slr;
                slot.shadow.reset_guest_s(&mut self.machine, slr);
                self.refresh_mmu(idx);
            }
            Ipr::Slr => {
                let cap = self.vms[idx].shadow.config().s_capacity;
                self.vms[idx].vm.guest_slr = value.min(cap);
                let slot = &mut self.vms[idx];
                let slr = slot.vm.guest_slr;
                slot.shadow.reset_guest_s(&mut self.machine, slr);
                self.refresh_mmu(idx);
            }
            Ipr::P0br => {
                self.vms[idx].vm.guest_p0br = value;
                self.vms[idx].shadow.reset_active_process(&mut self.machine);
                self.refresh_mmu(idx);
            }
            Ipr::P0lr => {
                let cap = self.vms[idx].shadow.config().p0_capacity;
                self.vms[idx].vm.guest_p0lr = value.min(cap);
                self.refresh_mmu(idx);
            }
            Ipr::P1br => {
                self.vms[idx].vm.guest_p1br = value;
                self.vms[idx].shadow.reset_active_process(&mut self.machine);
                self.refresh_mmu(idx);
            }
            Ipr::P1lr => {
                let floor = (1u32 << 21) - self.vms[idx].shadow.config().p1_capacity;
                self.vms[idx].vm.guest_p1lr = value.max(floor);
                self.refresh_mmu(idx);
            }
            Ipr::Tbia => {
                let slot = &mut self.vms[idx];
                slot.shadow
                    .invalidate_all(&mut self.machine, slot.vm.guest_slr);
            }
            Ipr::Tbis => {
                let slot = &mut self.vms[idx];
                slot.shadow.invalidate_single(
                    &mut self.machine,
                    slot.vm.guest_slr,
                    VirtAddr::new(value),
                );
            }
            Ipr::Mapen => {
                self.vms[idx].vm.guest_mapen = value & 1 != 0;
                let slot = &mut self.vms[idx];
                slot.shadow
                    .invalidate_all(&mut self.machine, slot.vm.guest_slr);
                self.refresh_mmu(idx);
            }
            Ipr::Iccs => self.vms[idx].vm.vtimer.write_iccs(value),
            Ipr::Nicr => self.vms[idx].vm.vtimer.nicr = value as i32 as i64,
            Ipr::Todr => self.vms[idx].vm.guest_todr = value,
            Ipr::Astlvl => self.vms[idx].vm.guest_astlvl = value & 7,
            Ipr::Ksp | Ipr::Esp | Ipr::Ssp | Ipr::Usp => {
                let mode = AccessMode::from_bits(ipr.number());
                let vm = &mut self.vms[idx].vm;
                if mode == vm.vmpsl.cur_mode() && !vm.v_is {
                    self.machine.set_reg(14, value);
                } else {
                    vm.vsp[mode as usize] = value;
                }
            }
            Ipr::Isp => {
                let vm = &mut self.vms[idx].vm;
                if vm.v_is {
                    self.machine.set_reg(14, value);
                } else {
                    vm.vsp_is = value;
                }
            }
            Ipr::Txdb => self.vms[idx].vm.console_out.push(value as u8),
            Ipr::Rxcs | Ipr::Txcs => {}
            Ipr::Kcall => {
                if !crate::io::kcall(self, idx, value) {
                    return false;
                }
            }
            Ipr::Ioreset => {
                let vm = &mut self.vms[idx].vm;
                vm.vdisk_pending = None;
                vm.pending_virqs.clear();
            }
            Ipr::Rxdb | Ipr::Icr | Ipr::Sid | Ipr::Memsize => {
                return self.reflect(idx, Exception::ReservedOperand);
            }
        }
        self.machine.commit_reg_updates(d);
        self.machine.set_pc(d.next_pc);
        true
    }

    fn emulate_mfpr(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.mtpr_other);
        self.vms[idx].vm.stats.mtpr_other += 1;
        let regno = d.operand(0).unwrap_or(u32::MAX);
        let Some(ipr) = Ipr::from_number(regno) else {
            return self.reflect(idx, Exception::ReservedOperand);
        };
        let value = {
            let vm = &mut self.vms[idx].vm;
            match ipr {
                Ipr::Ipl => vm.vmpsl.ipl() as u32,
                Ipr::Sisr => vm.guest_sisr as u32,
                Ipr::Scbb => vm.guest_scbb,
                Ipr::Pcbb => vm.guest_pcbb,
                Ipr::Sbr => vm.guest_sbr,
                Ipr::Slr => vm.guest_slr,
                Ipr::P0br => vm.guest_p0br,
                Ipr::P0lr => vm.guest_p0lr,
                Ipr::P1br => vm.guest_p1br,
                Ipr::P1lr => vm.guest_p1lr,
                Ipr::Mapen => vm.guest_mapen as u32,
                Ipr::Iccs => vm.vtimer.iccs,
                Ipr::Nicr => vm.vtimer.nicr as u32,
                Ipr::Icr => vm.vtimer.icr as u32,
                Ipr::Todr => vm.guest_todr,
                Ipr::Astlvl => vm.guest_astlvl,
                Ipr::Sid => 0x0300_0000, // a distinct "virtual VAX" model
                Ipr::Memsize => vm.mem_bytes(),
                Ipr::Rxcs => {
                    if vm.console_in.is_empty() {
                        0
                    } else {
                        0x80
                    }
                }
                Ipr::Rxdb => vm.console_in.pop_front().map_or(0, u32::from),
                Ipr::Txcs => 0x80,
                Ipr::Txdb => 0,
                Ipr::Ksp | Ipr::Esp | Ipr::Ssp | Ipr::Usp => {
                    let mode = AccessMode::from_bits(ipr.number());
                    if mode == vm.vmpsl.cur_mode() && !vm.v_is {
                        self.machine.reg(14)
                    } else {
                        vm.vsp[mode as usize]
                    }
                }
                Ipr::Isp => {
                    if vm.v_is {
                        self.machine.reg(14)
                    } else {
                        vm.vsp_is
                    }
                }
                Ipr::Sirr | Ipr::Tbia | Ipr::Tbis | Ipr::Kcall | Ipr::Ioreset => {
                    return self.reflect(idx, Exception::ReservedOperand);
                }
            }
        };
        let Some(&DecOp::Loc { loc, .. }) = d.operands.get(1) else {
            return self.reflect(idx, Exception::ReservedOperand);
        };
        // The destination write can fault (and the instruction then
        // retries), so operand side effects commit only after it.
        match loc {
            OperandLoc::Reg(r) => self.machine.set_reg(r as usize, value),
            OperandLoc::Mem(va) => {
                let real_mode = compress_mode(self.vms[idx].vm.vmpsl.cur_mode());
                if let Err(out) = self.vm_write(idx, va, value, 4, real_mode) {
                    return self.guest_access_failed(idx, out, "MFPR destination unwritable");
                }
            }
        }
        self.machine.commit_reg_updates(d);
        self.machine.set_pc(d.next_pc);
        true
    }

    fn emulate_ldpctx(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.context_switch);
        self.vms[idx].vm.stats.guest_context_switches += 1;
        let pcbb = self.vms[idx].vm.guest_pcbb;
        // Every word must lie inside guest memory: a PCB running off its
        // end would hand the guest a context it never wrote.
        let Ok(pcb) = Pcb::load(|off| self.read_gp_at(idx, pcbb, off).ok_or(())) else {
            return self.security_halt(
                idx,
                VmmError::GuestState {
                    what: "guest PCB unreadable",
                },
            );
        };
        let [ksp, outer_sps @ ..] = pcb.sp;

        let cfg = self.vms[idx].shadow.config();
        let vm = &mut self.vms[idx].vm;
        vm.vsp[1..].copy_from_slice(&outer_sps);
        if vm.v_is {
            vm.vsp[0] = ksp;
        }
        vm.guest_p0br = pcb.p0br;
        vm.guest_p0lr = pcb.p0lr.min(cfg.p0_capacity);
        vm.guest_p1br = pcb.p1br;
        vm.guest_p1lr = pcb.p1lr.max((1u32 << 21) - cfg.p1_capacity);
        for (i, r) in pcb.regs.iter().enumerate() {
            self.machine.set_reg(i, *r);
        }
        if !vm.v_is {
            self.machine.set_reg(14, ksp);
        }

        // §7.2: switch shadow process tables through the cache.
        let hit = self.vms[idx].shadow.switch_process(&mut self.machine, pcbb);
        if hit {
            self.vms[idx].vm.stats.shadow_cache_hits += 1;
        } else {
            self.vms[idx].vm.stats.shadow_cache_misses += 1;
            // Clearing a slot costs time proportional to its size.
            self.charge(((cfg.p0_capacity + cfg.p1_capacity) / 16) as u64);
        }
        self.refresh_mmu(idx);

        // Push the PCB's PSL and PC for the completing REI.
        let real_mode = compress_mode(self.vms[idx].vm.vmpsl.cur_mode());
        let mut sp = self.machine.reg(14);
        for v in [pcb.psl, pcb.pc] {
            sp = sp.wrapping_sub(4);
            if let Err(out) = self.vm_write(idx, VirtAddr::new(sp), v, 4, real_mode) {
                return self.guest_access_failed(idx, out, "LDPCTX stack push failed");
            }
        }
        self.machine.set_reg(14, sp);
        self.machine.set_pc(d.next_pc);
        true
    }

    fn emulate_svpctx(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.context_switch);
        self.vms[idx].vm.stats.guest_context_switches += 1;
        let pcbb = self.vms[idx].vm.guest_pcbb;
        let real_mode = compress_mode(self.vms[idx].vm.vmpsl.cur_mode());
        let sp = self.machine.reg(14);
        let pc = match self.vm_read(idx, VirtAddr::new(sp), 4, real_mode) {
            Ok(v) => v,
            Err(out) => return self.guest_access_failed(idx, out, "SVPCTX stack pop failed"),
        };
        let psl = match self.vm_read(idx, VirtAddr::new(sp.wrapping_add(4)), 4, real_mode) {
            Ok(v) => v,
            Err(out) => return self.guest_access_failed(idx, out, "SVPCTX stack pop failed"),
        };
        self.machine.set_reg(14, sp.wrapping_add(8));

        let vm = &self.vms[idx].vm;
        let mut sp = vm.vsp;
        if !vm.v_is {
            sp[0] = self.machine.reg(14);
        }
        let pcb = Pcb {
            sp,
            regs: core::array::from_fn(|i| self.machine.reg(i)),
            pc,
            psl,
            ..Pcb::default()
        };
        // Every word inside guest memory is written; any other halts.
        let mut ok = true;
        let Ok(()) = pcb.save(|off, v| {
            ok &= self.write_gp_at(idx, pcbb, off, v).is_some();
            Ok::<(), Infallible>(())
        });
        if !ok {
            return self.security_halt(
                idx,
                VmmError::GuestState {
                    what: "guest PCB unwritable",
                },
            );
        }
        self.machine.set_pc(d.next_pc);
        true
    }

    /// PROBE trapped: the shadow PTE was invalid (or a write probe was
    /// denied by the shadow). Consult the guest's own tables, fill what
    /// can be filled, and complete the instruction (paper §4.3.2).
    fn emulate_probe(&mut self, idx: usize, d: &Decoded) -> bool {
        self.charge(self.config.costs.shadow_fill);
        self.vms[idx].vm.stats.shadow_faults += 1;
        let write = d.op == Opcode::Probew;
        let mode_op = AccessMode::from_bits(d.operand(0).unwrap_or(0));
        let len = (d.operand(1).unwrap_or(1) & 0xffff).max(1);
        let Some(base) = d.operand(2) else {
            return self.reflect(idx, Exception::ReservedOperand);
        };
        let probe_mode = mode_op.least_privileged(self.machine.vmpsl().prv_mode());

        let mut accessible = true;
        for va in [
            VirtAddr::new(base),
            VirtAddr::new(base.wrapping_add(len - 1)),
        ] {
            let slot = &mut self.vms[idx];
            let gpte = match slot.shadow.guest_pte(&self.machine, &slot.vm, va) {
                Ok((gpte, _)) => gpte,
                Err(FillOutcome::Reflect(Exception::AccessViolation { length: true, .. })) => {
                    // Beyond the guest's length registers: not accessible.
                    accessible = false;
                    continue;
                }
                Err(FillOutcome::Reflect(e)) => return self.reflect(idx, e),
                Err(FillOutcome::Fault(err)) => return self.contain(idx, err),
                Err(FillOutcome::Filled) => {
                    return self.security_halt(
                        idx,
                        VmmError::Internal {
                            what: "guest_pte returned Filled",
                        },
                    )
                }
            };
            // The protection code is meaningful even when the PTE is
            // invalid (paper §3.2.1): compute from the compressed code.
            let prot = gpte.protection().ring_compressed();
            accessible &= prot.allows(compress_mode(probe_mode), write);
            if gpte.valid() {
                // Fill the shadow so later probes take the fast path.
                let _ = slot.shadow.fill(&mut self.machine, &mut slot.vm, va);
            }
            if write && self.vms[idx].vm.dirty_strategy == DirtyStrategy::ReadOnlyShadow {
                self.vms[idx].vm.stats.probew_extra_traps += 1;
            }
        }
        self.machine.commit_reg_updates(d);
        let mut psl = self.machine.psl();
        psl.set_nzvc(false, !accessible, false, false);
        self.machine.set_psl(psl);
        self.machine.set_pc(d.next_pc);
        true
    }
}
