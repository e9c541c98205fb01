#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! A behavioral VAX-subset CPU simulator with the ISCA '91 virtualization
//! microcode extensions.
//!
//! The [`Machine`] executes real VAX machine code (assembled with
//! `vax-asm`) against the `vax-mem` memory subsystem. Built as
//! [`MachineVariant::Standard`](vax_arch::MachineVariant::Standard) it
//! reproduces the base architecture — including its Popek–Goldberg
//! violations (sensitive unprivileged CHMx/REI/MOVPSL/PROBEx). Built as
//! `Modified` it adds the paper's microcode:
//!
//! * `PSL<VM>` and the `VMPSL` register;
//! * the **VM-emulation trap**, surfacing as
//!   [`StepEvent::VmExit`]`(`[`VmExit::Emulation`]`)`; its packet is the
//!   machine's own decode of the trapped instruction ([`Decoded`], every
//!   operand parsed), read through [`Machine::trapped_instruction`];
//! * the `MOVPSL` microcode merge and the `PROBE` valid-shadow fast path;
//! * the **modify fault** instead of hardware `PTE<M>` setting;
//! * `PROBEVMR`/`PROBEVMW`, and `WAIT` (meaningful only inside a VM).
//!
//! The VMM in `vax-vmm` embeds a modified machine and services its
//! `VmExit`s; guest operating systems from `vax-os` run on either variant
//! unchanged — the paper's equivalence property.
//!
//! # Example
//!
//! ```
//! use vax_arch::MachineVariant;
//! use vax_cpu::{Machine, StepEvent};
//!
//! let program = vax_asm::assemble_text("
//!         movl #10, r0
//!         clrl r1
//!     top: addl2 r0, r1
//!         sobgtr r0, top
//!         halt
//! ", 0x200)?;
//!
//! let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
//! m.mem_mut().write_slice(program.base, &program.bytes)?;
//! m.set_pc(program.base);
//! while m.step() == StepEvent::Ok {}
//! assert_eq!(m.reg(1), 55);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod bus;
pub mod counters;
pub mod decode;
pub mod event;
pub mod except;
pub mod exec;
pub mod fixedvec;
pub mod icache;
pub mod machine;
pub mod replay;
pub mod sensitivity;
mod slots;
pub mod trans;
pub mod uop;

pub use bus::{Bus, IrqRequest, MmioDevice, IO_BASE_PA};
pub use counters::CpuCounters;
pub use decode::{DecOp, Decoded};
pub use event::{HaltReason, OperandLoc, StepEvent, VmExit};
pub use fixedvec::FixedVec;
pub use icache::DecodeCacheStats;
pub use machine::{ExecTier, IntervalTimer, Machine, MachineState, TIMER_IPL};
pub use replay::{Batch, LoopReplayStats};
pub use sensitivity::{scan_sensitivity, ScanOutcome, SensitivityFinding};
pub use trans::TransStats;
