//! Exception and interrupt delivery microcode, and the step-level abort
//! handling that routes faults either through the on-machine SCB or out to
//! the VMM (paper §4.2: exceptions clear `PSL<VM>` and, on a machine
//! running a VM, always land in the VMM first).

use crate::decode::Abort;
use crate::event::{StepEvent, VmExit};
use crate::machine::Machine;
use vax_arch::{AccessMode, Exception, Frame, Psl, VirtAddr};

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
            // the VM's PC where the frame saves it: at a fault's own
            // instruction, past a trap's.
            self.psl.set_vm(false);
            self.counters.vm_exception_exits += 1;
            self.exit_stamp = self.cycles;
            self.cycles += self.costs.exception_entry;
            self.set_pc(e.saved_pc(pc_start, next_pc));
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
        let old_psl = self.psl;
        let (mode, is) = e.target_stack(old_psl.cur_mode(), old_psl.flag(Psl::IS));
        let Some(sp) = self.push_frame(&e.frame(old_psl, pc_start, next_pc), mode, is) else {
            // Kernel (or target) stack not valid.
            if matches!(e, Exception::KernelStackNotValid) {
                return Err(());
            }
            return self.deliver_exception(Exception::KernelStackNotValid, pc_start, next_pc);
        };
        let mut new_psl = Psl::new();
        new_psl.set_ipl(old_psl.ipl());
        new_psl.set_cur_mode(mode);
        new_psl.set_prv_mode(old_psl.cur_mode());
        new_psl.set_flag(Psl::IS, is);
        self.enter_vector(e.vector().offset(), new_psl, sp)
    }

    /// Delivers an interrupt on the interrupt stack.
    pub(crate) fn deliver_interrupt(&mut self, ipl: u8, vector: u16) -> Result<(), ()> {
        let frame = Frame::new(self.psl, self.pc());
        let sp = self
            .push_frame(&frame, AccessMode::Kernel, true)
            .ok_or(())?;
        // Kernel mode, previous mode kernel, on the interrupt stack.
        let mut new_psl = Psl::new();
        new_psl.set_ipl(ipl);
        new_psl.set_flag(Psl::IS, true);
        self.enter_vector(vector as u32, new_psl, sp)
    }

    /// Pushes `frame` as `mode` on the stack of (`mode`, `is`), returning
    /// the new stack pointer, or `None` if a push faulted. The stack
    /// pointer itself is left alone.
    fn push_frame(&mut self, frame: &Frame, mode: AccessMode, is: bool) -> Option<u32> {
        let mut sp = if is {
            self.isp()
        } else {
            self.sp_for_mode(mode)
        };
        for &v in frame.push_order() {
            sp = sp.wrapping_sub(4);
            self.write_virt(VirtAddr::new(sp), v, 4, mode).ok()?;
        }
        Some(sp)
    }

    /// Enters the handler at SCB offset `vector` with `psl`, its stack
    /// (the one `psl` selects) at `sp`. `Err` if the vector is unreadable.
    fn enter_vector(&mut self, vector: u32, psl: Psl, sp: u32) -> Result<(), ()> {
        let handler = self.mem.read_u32(self.scbb + vector).map_err(|_| ())?;
        // Park the new SP where set_psl's re-banking will pick it up.
        if psl.flag(Psl::IS) {
            self.set_isp(sp);
        } else {
            self.set_sp_for_mode(psl.cur_mode(), sp);
        }
        self.set_psl(psl);
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
        if !img.rei_image_valid(cur_mode, self.psl.flag(Psl::IS)) {
            return Err(Exception::ReservedOperand.into());
        }

        // Commit: drop the frame, swap stacks, load PSL and PC.
        self.regs[14] = sp.wrapping_add(8);
        self.set_psl(img);
        self.set_pc(new_pc);
        self.sisr |= img.rei_ast_request(self.astlvl);
        self.counters.rei += 1;
        self.cycles += self.costs.rei;
        Ok(())
    }
}
