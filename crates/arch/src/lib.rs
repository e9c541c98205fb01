#![warn(missing_docs)]

//! Architecture-level definitions for the VAX subset simulated by this
//! workspace, including the ISCA '91 virtualization extensions.
//!
//! This crate is pure data: access modes, the processor status longword
//! (PSL) and its `VM` bit with REI's checks, the `VMPSL` register,
//! page-table entries and the full four-bit VAX protection-code table,
//! virtual-address decomposition, system control block (SCB) vectors,
//! internal processor registers (IPRs), the opcode table with operand
//! specifications, exception descriptors and their frames, the process
//! control block, and the calibrated cycle-cost model. It has no
//! dependencies and is shared by every other crate in the workspace.
//!
//! # Example
//!
//! ```
//! use vax_arch::{AccessMode, Protection};
//!
//! // A page protected "executive write" is writable from kernel and
//! // executive modes, readable from those modes, and inaccessible to
//! // supervisor and user mode.
//! let prot = Protection::Ew;
//! assert!(prot.allows_write(AccessMode::Kernel));
//! assert!(prot.allows_write(AccessMode::Executive));
//! assert!(!prot.allows_read(AccessMode::Supervisor));
//! ```

pub mod cost;
pub mod exception;
pub mod ipr;
pub mod mode;
pub mod opcode;
pub mod pcb;
pub mod psl;
pub mod pte;
pub mod scb;
pub mod va;

pub use cost::CostModel;
pub use exception::{ArithmeticCode, Exception, Frame};
pub use ipr::Ipr;
pub use mode::AccessMode;
pub use opcode::{AccessType, DataType, Opcode, OperandSpec};
pub use pcb::Pcb;
pub use psl::{Psl, VmPsl};
pub use pte::{Protection, Pte};
pub use scb::ScbVector;
pub use va::{Region, VirtAddr, PAGE_BYTES, PAGE_SHIFT};

/// Which variant of the VAX architecture a machine implements.
///
/// The paper's modifications (`PSL<VM>`, `VMPSL`, the VM-emulation trap,
/// the modify fault, `PROBEVMx`, and `WAIT`) exist only on the
/// [`Modified`](MachineVariant::Modified) variant. A
/// [`Standard`](MachineVariant::Standard) machine behaves like the base
/// architecture; this is the machine on which the paper's Table 1
/// sensitivity analysis is run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MachineVariant {
    /// The unmodified base VAX architecture.
    Standard,
    /// The VAX architecture with the ISCA '91 virtualization extensions.
    #[default]
    Modified,
}

impl MachineVariant {
    /// True if this variant implements the virtualization extensions.
    pub fn has_vm_extensions(self) -> bool {
        matches!(self, MachineVariant::Modified)
    }
}

impl core::fmt::Display for MachineVariant {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MachineVariant::Standard => f.write_str("standard VAX"),
            MachineVariant::Modified => f.write_str("modified VAX"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_extensions() {
        assert!(MachineVariant::Modified.has_vm_extensions());
        assert!(!MachineVariant::Standard.has_vm_extensions());
        assert_eq!(MachineVariant::default(), MachineVariant::Modified);
    }

    #[test]
    fn variant_display() {
        assert_eq!(MachineVariant::Standard.to_string(), "standard VAX");
        assert_eq!(MachineVariant::Modified.to_string(), "modified VAX");
    }
}
