//! Step events and operand locations.

use vax_arch::{Exception, VirtAddr};

/// Where a decoded operand lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperandLoc {
    /// A general register.
    Reg(u8),
    /// A virtual-memory location.
    Mem(VirtAddr),
}

/// Why execution left VM mode and entered the VMM.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmExit {
    /// A sensitive instruction trapped for emulation (the paper's
    /// VM-emulation trap). Its packet, every operand parsed, is the
    /// machine's own decode, read through
    /// [`Machine::trapped_instruction`](crate::Machine::trapped_instruction)
    /// until the next step.
    Emulation,
    /// An exception that the VMM must handle (shadow fill, modify fault)
    /// or reflect into the VM.
    Exception(Exception),
    /// A real-machine interrupt (interval timer or device) at the given
    /// IPL, through the given SCB vector offset.
    Interrupt {
        /// Interrupt priority level of the source.
        ipl: u8,
        /// Real SCB vector offset.
        vector: u16,
    },
}

/// The outcome of one [`Machine::step`](crate::Machine::step).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepEvent {
    /// An instruction retired (or an exception was delivered to the
    /// on-machine operating system through the SCB).
    Ok,
    /// The processor halted (HALT in kernel mode, or an unrecoverable
    /// double fault).
    Halted(HaltReason),
    /// Control left a virtual machine; the embedding VMM must act.
    /// `PSL<VM>` has been cleared, exactly as the microcode specifies.
    VmExit(VmExit),
}

/// Why the processor halted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// HALT instruction in kernel mode.
    HaltInstruction,
    /// Exception delivery failed (e.g. bad SCB or kernel stack).
    DoubleFault,
}

impl core::fmt::Display for HaltReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            HaltReason::HaltInstruction => f.write_str("HALT instruction"),
            HaltReason::DoubleFault => f.write_str("double fault"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn halt_reason_display() {
        assert!(!HaltReason::HaltInstruction.to_string().is_empty());
        assert!(!HaltReason::DoubleFault.to_string().is_empty());
    }
}
