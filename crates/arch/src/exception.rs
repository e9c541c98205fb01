//! Exception descriptors and the frame they push.
//!
//! The VAX delivers exceptions (synchronous) and interrupts (asynchronous)
//! through the SCB. Each [`Exception`] value names the event plus the
//! parameters the microcode pushes on the target stack after the PC/PSL
//! pair, and decides which PC it saves and which stack it lands on; the
//! bare machine's microcode and the VMM's reflection both build their
//! [`Frame`] from it.

use crate::scb::ScbVector;
use crate::va::VirtAddr;
use crate::{AccessMode, Psl};

/// Arithmetic exception type codes (pushed as the single parameter of an
/// arithmetic trap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u32)]
pub enum ArithmeticCode {
    /// Integer overflow trap.
    IntegerOverflow = 1,
    /// Integer divide-by-zero trap.
    IntegerDivideByZero = 2,
}

/// A synchronous exception, with the parameters the microcode supplies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exception {
    /// Access-control violation: the protection code denied the access.
    /// `length` distinguishes a page-table length violation.
    AccessViolation {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access was a write.
        write: bool,
        /// The fault was a length (page-table bounds) violation.
        length: bool,
        /// The faulting reference was to a process page table entry.
        pte_ref: bool,
    },
    /// Translation-not-valid (page fault): `PTE<V>` was clear.
    TranslationNotValid {
        /// Faulting virtual address.
        va: VirtAddr,
        /// The access was a write.
        write: bool,
        /// The faulting reference was to a process page table entry.
        pte_ref: bool,
    },
    /// **Paper extension**: write to a writable page whose `PTE<M>` is
    /// clear, on a machine with modify faults enabled.
    ModifyFault {
        /// Faulting virtual address.
        va: VirtAddr,
    },
    /// A privileged instruction was executed outside kernel mode, or a
    /// reserved/unimplemented opcode was executed.
    ReservedInstruction,
    /// A reserved operand form was used (e.g. bad REI PSL image).
    ReservedOperand,
    /// A reserved addressing mode was used.
    ReservedAddressingMode,
    /// BPT instruction.
    Breakpoint,
    /// Arithmetic trap with its type code.
    Arithmetic(ArithmeticCode),
    /// Change-mode instruction: target mode and its sign-extended operand.
    ChangeMode {
        /// The mode the instruction requests.
        target: AccessMode,
        /// The sign-extended 16-bit change-mode code.
        code: u32,
    },
    /// Machine check (hardware error), e.g. reference to nonexistent
    /// physical memory.
    MachineCheck {
        /// Diagnostic summary code.
        code: u32,
    },
    /// The kernel stack was not valid while pushing an exception frame.
    KernelStackNotValid,
}

impl Exception {
    /// The SCB vector this exception dispatches through.
    pub fn vector(self) -> ScbVector {
        match self {
            Exception::AccessViolation { .. } => ScbVector::AccessViolation,
            Exception::TranslationNotValid { .. } => ScbVector::TranslationNotValid,
            Exception::ModifyFault { .. } => ScbVector::ModifyFault,
            Exception::ReservedInstruction => ScbVector::ReservedInstruction,
            Exception::ReservedOperand => ScbVector::ReservedOperand,
            Exception::ReservedAddressingMode => ScbVector::ReservedAddressingMode,
            Exception::Breakpoint => ScbVector::Breakpoint,
            Exception::Arithmetic(_) => ScbVector::Arithmetic,
            Exception::ChangeMode { target, .. } => ScbVector::for_chm_mode(target),
            Exception::MachineCheck { .. } => ScbVector::MachineCheck,
            Exception::KernelStackNotValid => ScbVector::KernelStackNotValid,
        }
    }

    /// Parameters pushed on the exception stack after PC and PSL, in push
    /// order (last parameter pushed first, so the handler sees them in
    /// this order at increasing addresses).
    pub fn parameters(self) -> ExceptionParams {
        let mut p = ExceptionParams::default();
        match self {
            Exception::AccessViolation {
                va,
                write,
                length,
                pte_ref,
            } => {
                // Parameter 1: fault summary (bit0 = length, bit1 = PTE ref,
                // bit2 = write). Parameter 2: faulting VA.
                let mut reason = 0u32;
                if length {
                    reason |= 1;
                }
                if pte_ref {
                    reason |= 2;
                }
                if write {
                    reason |= 4;
                }
                p.push(reason);
                p.push(va.raw());
            }
            Exception::TranslationNotValid { va, write, pte_ref } => {
                let mut reason = 0u32;
                if pte_ref {
                    reason |= 2;
                }
                if write {
                    reason |= 4;
                }
                p.push(reason);
                p.push(va.raw());
            }
            Exception::ModifyFault { va } => {
                p.push(va.raw());
            }
            Exception::Arithmetic(code) => {
                p.push(code as u32);
            }
            Exception::ChangeMode { code, .. } => {
                p.push(code);
            }
            Exception::MachineCheck { code } => {
                p.push(code);
            }
            _ => {}
        }
        p
    }

    /// True for faults that re-execute the instruction after the handler
    /// returns (PC pushed is the *start* of the faulting instruction).
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            Exception::AccessViolation { .. }
                | Exception::TranslationNotValid { .. }
                | Exception::ModifyFault { .. }
                | Exception::ReservedInstruction
                | Exception::ReservedOperand
                | Exception::ReservedAddressingMode
                | Exception::Breakpoint
        )
    }

    /// The PC the frame saves, given the raising instruction's PC and the
    /// next one's: a fault (and a machine check) saves its own
    /// instruction, for REI to re-execute; a trap saves the next one.
    pub fn saved_pc(self, instruction: u32, next: u32) -> u32 {
        if self.is_fault() || matches!(self, Exception::MachineCheck { .. }) {
            instruction
        } else {
            next
        }
    }

    /// The (mode, on the interrupt stack) the exception is delivered on:
    /// a change-mode goes to the more privileged of `cur` and its target,
    /// off the interrupt stack; kernel-stack-not-valid to kernel on the
    /// interrupt stack; anything else to kernel, keeping `on_is`.
    pub fn target_stack(self, cur: AccessMode, on_is: bool) -> (AccessMode, bool) {
        match self {
            Exception::ChangeMode { target, .. } => (cur.most_privileged(target), false),
            Exception::KernelStackNotValid => (AccessMode::Kernel, true),
            _ => (AccessMode::Kernel, on_is),
        }
    }

    /// The frame the exception pushes: the PSL when it was raised, the
    /// [saved PC](Exception::saved_pc) and the parameters.
    pub fn frame(self, psl: Psl, instruction: u32, next: u32) -> Frame {
        let mut frame = Frame::new(psl, self.saved_pc(instruction, next));
        for &p in self.parameters().as_slice().iter().rev() {
            frame.words[frame.len] = p;
            frame.len += 1;
        }
        frame
    }

    /// True for memory-management faults.
    pub fn is_memory_management(self) -> bool {
        matches!(
            self,
            Exception::AccessViolation { .. }
                | Exception::TranslationNotValid { .. }
                | Exception::ModifyFault { .. }
        )
    }
}

impl core::fmt::Display for Exception {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Exception::AccessViolation { va, write, .. } => {
                write!(f, "access violation at {va} ({})", rw(*write))
            }
            Exception::TranslationNotValid { va, write, .. } => {
                write!(f, "translation not valid at {va} ({})", rw(*write))
            }
            Exception::ModifyFault { va } => write!(f, "modify fault at {va}"),
            Exception::ReservedInstruction => f.write_str("reserved/privileged instruction"),
            Exception::ReservedOperand => f.write_str("reserved operand"),
            Exception::ReservedAddressingMode => f.write_str("reserved addressing mode"),
            Exception::Breakpoint => f.write_str("breakpoint"),
            Exception::Arithmetic(c) => write!(f, "arithmetic trap ({c:?})"),
            Exception::ChangeMode { target, code } => {
                write!(f, "CHM{} code {code:#x}", initial(*target))
            }
            Exception::MachineCheck { code } => write!(f, "machine check ({code:#x})"),
            Exception::KernelStackNotValid => f.write_str("kernel stack not valid"),
        }
    }
}

fn rw(write: bool) -> &'static str {
    if write {
        "write"
    } else {
        "read"
    }
}

fn initial(mode: AccessMode) -> char {
    match mode {
        AccessMode::Kernel => 'K',
        AccessMode::Executive => 'E',
        AccessMode::Supervisor => 'S',
        AccessMode::User => 'U',
    }
}

/// Up to two exception parameters, in handler-visible order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExceptionParams {
    params: [u32; 2],
    len: usize,
}

impl ExceptionParams {
    fn push(&mut self, v: u32) {
        self.params[self.len] = v;
        self.len += 1;
    }

    /// The parameters as a slice (first element is deepest on the stack).
    pub fn as_slice(&self) -> &[u32] {
        &self.params[..self.len]
    }
}

/// The longwords an exception or interrupt pushes on its target stack:
/// a PSL, a PC and up to two parameters, the first left at (SP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    words: [u32; 4],
    len: usize,
}

impl Frame {
    /// A frame of the interrupted PSL (without `PSL<VM>`, which software
    /// never sees) and PC alone: an interrupt's frame.
    pub fn new(psl: Psl, pc: u32) -> Frame {
        Frame {
            words: [psl.raw_visible(), pc, 0, 0],
            len: 2,
        }
    }

    /// The longwords in the order they are pushed: PSL, PC, then the
    /// parameters from last to first.
    pub fn push_order(&self) -> &[u32] {
        &self.words[..self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors() {
        let av = Exception::AccessViolation {
            va: VirtAddr::new(0x1000),
            write: true,
            length: false,
            pte_ref: false,
        };
        assert_eq!(av.vector(), ScbVector::AccessViolation);
        assert_eq!(
            Exception::ChangeMode {
                target: AccessMode::Kernel,
                code: 1
            }
            .vector(),
            ScbVector::Chmk
        );
        assert_eq!(
            Exception::ModifyFault {
                va: VirtAddr::new(0)
            }
            .vector(),
            ScbVector::ModifyFault
        );
    }

    #[test]
    fn access_violation_parameters_encode_reason() {
        let av = Exception::AccessViolation {
            va: VirtAddr::new(0x2345),
            write: true,
            length: true,
            pte_ref: true,
        };
        let p = av.parameters();
        assert_eq!(p.as_slice(), &[0b111, 0x2345]);
    }

    #[test]
    fn tnv_parameters() {
        let tnv = Exception::TranslationNotValid {
            va: VirtAddr::new(0x600),
            write: false,
            pte_ref: true,
        };
        assert_eq!(tnv.parameters().as_slice(), &[0b010, 0x600]);
    }

    #[test]
    fn chm_carries_code() {
        let chm = Exception::ChangeMode {
            target: AccessMode::Executive,
            code: 0xffff_fff0,
        };
        assert_eq!(chm.parameters().as_slice(), &[0xffff_fff0]);
    }

    #[test]
    fn fault_classification() {
        assert!(Exception::TranslationNotValid {
            va: VirtAddr::new(0),
            write: false,
            pte_ref: false
        }
        .is_fault());
        assert!(!Exception::ChangeMode {
            target: AccessMode::Kernel,
            code: 0
        }
        .is_fault());
        assert!(Exception::ModifyFault {
            va: VirtAddr::new(0)
        }
        .is_memory_management());
        assert!(!Exception::Breakpoint.is_memory_management());
    }

    #[test]
    fn frames_save_the_pc_by_kind_and_push_parameters_last_first() {
        let mut psl = Psl::new();
        psl.set_vm(true);
        let av = Exception::AccessViolation {
            va: VirtAddr::new(0x2345),
            write: true,
            length: false,
            pte_ref: false,
        };
        assert_eq!(
            av.frame(psl, 0x100, 0x104).push_order(),
            &[0, 0x100, 0x2345, 0b100],
            "a fault saves its own PC; PSL<VM> is not visible"
        );
        let divide = Exception::Arithmetic(ArithmeticCode::IntegerDivideByZero);
        assert_eq!(divide.frame(psl, 0x100, 0x104).push_order(), &[0, 0x104, 2]);
        let mck = Exception::MachineCheck { code: 7 };
        assert_eq!(mck.saved_pc(0x100, 0x104), 0x100);
        assert_eq!(Exception::KernelStackNotValid.saved_pc(0x100, 0x104), 0x104);
        assert_eq!(Frame::new(psl, 0x200).push_order(), &[0, 0x200]);
    }

    #[test]
    fn target_stacks() {
        use AccessMode::*;
        let chme = Exception::ChangeMode {
            target: Executive,
            code: 0,
        };
        assert_eq!(chme.target_stack(User, false), (Executive, false));
        assert_eq!(chme.target_stack(Kernel, true), (Kernel, false));
        assert_eq!(
            Exception::KernelStackNotValid.target_stack(User, false),
            (Kernel, true)
        );
        assert_eq!(
            Exception::Breakpoint.target_stack(User, false),
            (Kernel, false)
        );
        assert_eq!(
            Exception::Breakpoint.target_stack(Kernel, true),
            (Kernel, true)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Exception::ReservedInstruction.to_string().is_empty());
        assert!(!Exception::KernelStackNotValid.to_string().is_empty());
    }
}
