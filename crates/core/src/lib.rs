#![warn(missing_docs)]
// Fault containment (DESIGN.md §11): no guest-reachable path through this
// crate may panic the host. CI runs clippy with `-D warnings`, so outside
// of tests any unwrap/expect needs an `#[allow]` with a justification.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

//! The VAX security-kernel virtual machine monitor — the primary
//! contribution of *Virtualizing the VAX Architecture* (ISCA 1991).
//!
//! The [`Monitor`] runs any number of virtual VAX machines on one
//! modified-VAX [`vax_cpu::Machine`]:
//!
//! * **Execution ring compression** (§4.2): real kernel mode is reserved
//!   to the VMM; virtual kernel and executive both execute in real
//!   executive mode. CHMx and REI trap for emulation; MOVPSL is merged in
//!   microcode; the VM always perceives four modes.
//! * **Memory ring compression** (§4.3): shadow page tables with the
//!   null-PTE on-demand fill, protection-code compression
//!   ([`vax_arch::Protection::ring_compressed`]), the modify fault, and
//!   the §7.2 multi-process shadow-table cache.
//! * **Virtual I/O** (§4.4.3): a start-I/O `KCALL` register (plus the
//!   memory-mapped-emulation ablation), `MEMSIZE`, `IORESET`, a virtual
//!   interval timer that runs only while the VM runs, the WAIT idle
//!   handshake, and a virtual console subset (BOOT/HALT/CONTINUE/
//!   EXAMINE/DEPOSIT).
//!
//! # Example
//!
//! Boot a tiny guest that writes to the console TXDB register and halts:
//!
//! ```
//! use vax_vmm::{Monitor, MonitorConfig, VmConfig};
//!
//! let program = vax_asm::assemble_text("
//!         mtpr #72, #35      ; TXDB <- 'H'
//!         mtpr #105, #35     ; TXDB <- 'i'
//!         halt
//! ", 0x1000)?;
//!
//! let mut monitor = Monitor::new(MonitorConfig::default());
//! let vm = monitor.create_vm("guest", VmConfig::default());
//! monitor.vm_write_phys(vm, 0x1000, &program.bytes)?;
//! monitor.boot_vm(vm, 0x1000);
//! monitor.run(1_000_000);
//! let out = monitor.vm_console_output(vm);
//! assert!(out.starts_with(b"Hi"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod console;
pub mod cost;
pub mod emulate;
pub mod fault;
pub mod fleet;
pub mod io;
pub mod layout;
pub mod monitor;
pub mod shadow;
pub mod vm;

pub use console::{ConsoleCommand, ConsoleError};
pub use cost::VmmCosts;
pub use fault::{intern_diagnostic, mck, Containment, VmmError, KNOWN_DIAGNOSTICS};
pub use fleet::{Fleet, FleetReport, LiveMigration, MonitorOutcome, VmOutcome};
pub use io::{
    GUEST_IO_GPFN_BASE, GUEST_IO_PAGES, KCALL_CONSOLE_MAX_LEN, KCALL_CONSOLE_WRITE,
    KCALL_DISK_READ, KCALL_DISK_WRITE, KCALL_SET_UPTIME_CELL,
};
pub use layout::{FrameAllocator, VMM_BOUNDARY_VA, VMM_BOUNDARY_VPN};
pub use monitor::{compress_mode, Monitor, MonitorConfig, RunExit, SchedulerState, VmConfig, VmId};
pub use shadow::{ShadowCacheState, ShadowConfig, ShadowSet};
pub use vax_obs::{
    chrome_trace, ExitCause, Histogram, Metrics, Obs, ObsSink, PcBucket, Prof, ProfTier,
    SuperblockEvent, SuperblockProfile, TraceEvent, TraceRecord, TraceRing,
    DEFAULT_SAMPLE_INTERVAL, PC_WINDOW,
};
pub use vm::{DirtyStrategy, IoStrategy, Vm, VmState, VmStats};
