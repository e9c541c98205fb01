//! Exception and interrupt delivery microcode, and the step-level abort
//! handling that routes faults either through the on-machine SCB or out to
//! the VMM (paper §4.2: exceptions clear `PSL<VM>` and, on a machine
//! running a VM, always land in the VMM first).

use crate::decode::Abort;
use crate::event::{StepEvent, VmExit};
use crate::machine::Machine;
use vax_arch::{AccessMode, Exception, Psl, VirtAddr};

impl Machine {
    /// Fetch–decode–execute one instruction, handling aborts.
    pub(crate) fn execute_one(&mut self) -> StepEvent {
        let pc_start = self.pc();
        let mut decoded = self
            .decode_scratch
            .take()
            .unwrap_or_else(|| Box::new(crate::decode::Decoded::empty()));
        let event = match self.decode_instruction(&mut decoded) {
            Err(abort) => self.handle_abort(abort, pc_start, pc_start),
            Ok(()) => {
                let next_pc = decoded.next_pc;
                match self.execute(&decoded) {
                    Ok(crate::exec::ExecOutcome::Retired) => {
                        self.counters.instructions += 1;
                        self.cycles += self.costs.base_instruction;
                        StepEvent::Ok
                    }
                    Ok(crate::exec::ExecOutcome::Halt) => {
                        self.halted = true;
                        StepEvent::Halted(crate::event::HaltReason::HaltInstruction)
                    }
                    Ok(crate::exec::ExecOutcome::VmTrap) => {
                        self.counters.vm_emulation_traps += 1;
                        self.exit_stamp = self.cycles;
                        self.cycles += self.costs.vm_emulation_trap;
                        self.psl.set_vm(false);
                        StepEvent::VmExit(VmExit::Emulation)
                    }
                    Err(abort) => self.handle_abort(abort, pc_start, next_pc),
                }
            }
        };
        self.decode_scratch = Some(decoded);
        event
    }

    /// Routes an abort: out to the VMM when in VM mode, otherwise through
    /// the SCB.
    pub(crate) fn handle_abort(&mut self, abort: Abort, pc_start: u32, next_pc: u32) -> StepEvent {
        let e = match abort {
            Abort::Fault(f) => f.to_exception(),
            Abort::Exc(e) => e,
        };
        if self.psl.vm() {
            // Microcode clears PSL<VM>; the VMM sees the exception with
            // the VM's PC still at the faulting instruction.
            self.psl.set_vm(false);
            self.counters.vm_exception_exits += 1;
            self.exit_stamp = self.cycles;
            self.cycles += self.costs.exception_entry;
            debug_assert_eq!(self.pc(), pc_start, "faults must not advance PC");
            return StepEvent::VmExit(VmExit::Exception(e));
        }
        self.counters.exceptions += 1;
        match self.deliver_exception(e, pc_start, next_pc) {
            Ok(()) => StepEvent::Ok,
            Err(()) => self.halt_double_fault(),
        }
    }

    /// Delivers an exception through the SCB on the bare machine.
    pub(crate) fn deliver_exception(
        &mut self,
        e: Exception,
        pc_start: u32,
        next_pc: u32,
    ) -> Result<(), ()> {
        let push_pc = if e.is_fault() || matches!(e, Exception::MachineCheck { .. }) {
            pc_start
        } else {
            next_pc
        };
        let old_psl = self.psl;
        let (new_mode, new_is) = match e {
            Exception::ChangeMode { target, .. } => {
                (old_psl.cur_mode().most_privileged(target), false)
            }
            Exception::KernelStackNotValid => (AccessMode::Kernel, true),
            _ => (AccessMode::Kernel, old_psl.flag(Psl::IS)),
        };

        // Select the target stack.
        let mut sp = if new_is {
            self.isp()
        } else {
            self.sp_for_mode(new_mode)
        };

        // Build the frame so the handler sees (SP)=param1, …, PC, PSL —
        // the architectural layout (the handler removes the parameters,
        // then REI pops PC and PSL). Push order: PSL, PC, params reversed.
        let params = e.parameters();
        let mut to_push: Vec<u32> = vec![old_psl.raw_visible(), push_pc];
        for p in params.as_slice().iter().rev() {
            to_push.push(*p);
        }
        for v in to_push.iter() {
            sp = sp.wrapping_sub(4);
            if self.write_virt(VirtAddr::new(sp), *v, 4, new_mode).is_err() {
                // Kernel (or target) stack not valid.
                if matches!(e, Exception::KernelStackNotValid) {
                    return Err(());
                }
                return self.deliver_exception(Exception::KernelStackNotValid, pc_start, next_pc);
            }
        }

        // Fetch the vector.
        let Ok(vector) = self.mem.read_u32(self.scbb + e.vector().offset()) else {
            return Err(());
        };

        // Commit: stack pointer, PSL, PC.
        let mut new_psl = Psl::new();
        new_psl.set_ipl(old_psl.ipl());
        new_psl.set_cur_mode(new_mode);
        new_psl.set_prv_mode(old_psl.cur_mode());
        new_psl.set_flag(Psl::IS, new_is);
        // Park the new SP where set_psl's re-banking will pick it up.
        if new_is {
            self.set_isp(sp);
        } else {
            self.set_sp_for_mode(new_mode, sp);
        }
        self.set_psl(new_psl);
        self.set_pc(vector & !3);
        self.cycles += self.costs.exception_entry;
        Ok(())
    }

    /// Delivers an interrupt on the interrupt stack.
    pub(crate) fn deliver_interrupt(&mut self, ipl: u8, vector: u16) -> Result<(), ()> {
        let old_psl = self.psl;
        let mut sp = self.isp();
        for v in [old_psl.raw_visible(), self.pc()] {
            sp = sp.wrapping_sub(4);
            if self
                .write_virt(VirtAddr::new(sp), v, 4, AccessMode::Kernel)
                .is_err()
            {
                return Err(());
            }
        }
        let Ok(handler) = self.mem.read_u32(self.scbb + vector as u32) else {
            return Err(());
        };
        let mut new_psl = Psl::new();
        new_psl.set_ipl(ipl);
        new_psl.set_cur_mode(AccessMode::Kernel);
        new_psl.set_prv_mode(AccessMode::Kernel);
        new_psl.set_flag(Psl::IS, true);
        self.set_isp(sp);
        self.set_psl(new_psl);
        self.set_pc(handler & !3);
        self.cycles += self.costs.exception_entry;
        Ok(())
    }

    /// The REI microcode (bare-machine path; in VM mode REI traps to the
    /// VMM before reaching here).
    pub(crate) fn do_rei(&mut self) -> Result<(), Abort> {
        let cur_mode = self.psl.cur_mode();
        let sp = self.regs[14];
        let new_pc = self.read_virt(VirtAddr::new(sp), 4, cur_mode)?;
        let img_raw = self.read_virt(VirtAddr::new(sp.wrapping_add(4)), 4, cur_mode)?;
        let img = Psl::from_raw(img_raw);

        // Validity checks (reserved operand fault on failure).
        if img_raw & Psl::MBZ != 0 {
            return Err(Exception::ReservedOperand.into());
        }
        let new_cur = img.cur_mode();
        if new_cur.is_more_privileged_than(cur_mode) {
            return Err(Exception::ReservedOperand.into());
        }
        if img.prv_mode().is_more_privileged_than(new_cur) {
            return Err(Exception::ReservedOperand.into());
        }
        if img.ipl() > 0 && new_cur != AccessMode::Kernel {
            return Err(Exception::ReservedOperand.into());
        }
        if img.flag(Psl::IS) && !self.psl.flag(Psl::IS) {
            return Err(Exception::ReservedOperand.into());
        }
        if self.psl.flag(Psl::IS) && img.flag(Psl::IS) && new_cur != AccessMode::Kernel {
            return Err(Exception::ReservedOperand.into());
        }

        // Commit: drop the frame, swap stacks, load PSL and PC.
        self.regs[14] = sp.wrapping_add(8);
        self.set_psl(img);
        self.set_pc(new_pc);
        // AST delivery check: REI into a mode no more privileged than
        // ASTLVL requests the AST-delivery software interrupt (level 2).
        if new_cur.bits() >= self.astlvl && self.astlvl <= 3 {
            self.sisr |= 1 << 2;
        }
        self.counters.rei += 1;
        self.cycles += self.costs.rei;
        Ok(())
    }
}
