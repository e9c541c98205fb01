//! Per-virtual-machine state: virtual privileged registers, virtual
//! devices, pending virtual interrupts, and statistics.

use crate::fault::VmmError;
use std::collections::VecDeque;
use vax_arch::{AccessMode, Psl, VmPsl};
use vax_cpu::IntervalTimer;

/// How the VMM virtualizes a VM's disk I/O (the paper's §4.4.3 choice and
/// its ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoStrategy {
    /// The paper's design: an explicit start-I/O request through the
    /// `KCALL` register — one trap per operation.
    #[default]
    StartIo,
    /// The rejected alternative: emulate memory-mapped device registers —
    /// one trap per CSR access.
    EmulatedMmio,
}

/// How the VMM keeps guest `PTE<M>` bits correct (§4.4.2 and its
/// rejected alternative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirtyStrategy {
    /// The paper's design: the new modify fault.
    #[default]
    ModifyFault,
    /// The rejected alternative: shadow pages start write-protected; the
    /// first write takes an access violation that the VMM resolves
    /// against the guest PTE. Makes PROBEW trap more often.
    ReadOnlyShadow,
}

/// Run state of a VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmState {
    /// Eligible to run.
    Ready,
    /// Parked by WAIT until an interrupt arrives or the timeout passes
    /// (paper §5: WAIT "times out" so every VM runs periodically).
    Idle {
        /// Absolute cycle at which the WAIT times out.
        until: u64,
    },
    /// Stopped at the virtual console (HALT from VM-kernel mode, or a
    /// security halt after a reference to nonexistent memory).
    ConsoleHalt,
}

/// A pending virtual interrupt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VirtualIrq {
    /// Virtual interrupt priority level.
    pub ipl: u8,
    /// Guest SCB vector offset.
    pub vector: u16,
}

/// Per-VM event statistics — the raw material for the paper's evaluation
/// numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VmStats {
    /// Cycles this VM has executed (guest + attributed VMM time).
    pub cycles_run: u64,
    /// Cycles spent inside VMM emulation on this VM's behalf.
    pub vmm_cycles: u64,
    /// VM-emulation traps serviced.
    pub emulation_traps: u64,
    /// CHMx emulations.
    pub chm: u64,
    /// REI emulations.
    pub rei: u64,
    /// MTPR-to-IPL emulations.
    pub mtpr_ipl: u64,
    /// Other MTPR/MFPR emulations.
    pub mtpr_other: u64,
    /// Shadow-PTE fills.
    pub shadow_fills: u64,
    /// Shadow faults taken (a fill may cover several on PROBE).
    pub shadow_faults: u64,
    /// Modify faults serviced.
    pub modify_faults: u64,
    /// Write-protection upgrades (ReadOnlyShadow strategy only).
    pub dirty_upgrades: u64,
    /// PROBEW traps forced by the ReadOnlyShadow strategy.
    pub probew_extra_traps: u64,
    /// Exceptions reflected into the guest.
    pub reflected: u64,
    /// Virtual interrupts delivered.
    pub virqs: u64,
    /// Guest context switches (LDPCTX) observed.
    pub guest_context_switches: u64,
    /// Shadow-table cache hits on context switch.
    pub shadow_cache_hits: u64,
    /// Shadow-table cache misses on context switch.
    pub shadow_cache_misses: u64,
    /// KCALL operations.
    pub kcalls: u64,
    /// Emulated memory-mapped CSR accesses.
    pub mmio_accesses: u64,
    /// WAITs executed.
    pub waits: u64,
    /// Guest page faults (TNV reflected because the guest PTE was
    /// invalid) — the numerator of the paper's "17 page faults between
    /// context switches" measure counts *shadow* faults; this counts the
    /// guest's own.
    pub guest_page_faults: u64,
    /// Virtual machine checks reflected into the guest (bad guest
    /// page-table state contained per DESIGN.md §11).
    pub machine_checks: u64,
}

/// Virtual-console and virtual-device state plus all privileged guest
/// state the VMM maintains for one VM.
#[derive(Debug, Clone)]
pub struct Vm {
    /// Display name.
    pub name: String,
    /// First real page frame of the VM's contiguous memory block.
    pub mem_base_pfn: u32,
    /// VM memory size in pages (contiguous from guest physical 0 —
    /// paper §4: "presented to each VM as contiguous and starting at
    /// physical page 0").
    pub mem_pages: u32,

    // ---- virtual CPU context (valid while the VM is switched out) ----
    /// General registers R0–R15.
    pub regs: [u32; 16],
    /// Condition codes and trap-enable bits of the guest PSL.
    pub psl_flags: Psl,
    /// The VM's VMPSL (current/previous mode + virtual IPL).
    pub vmpsl: VmPsl,
    /// Virtual per-mode stack pointers (kernel, exec, super, user). The
    /// *active* one lives in `regs[14]`.
    pub vsp: [u32; 4],
    /// Virtual interrupt stack pointer.
    pub vsp_is: u32,
    /// True if the VM is (virtually) on its interrupt stack.
    pub v_is: bool,

    // ---- virtual privileged registers ----
    /// Guest SCB base (guest-physical).
    pub guest_scbb: u32,
    /// Guest PCB base (guest-physical).
    pub guest_pcbb: u32,
    /// Guest system page table base (guest-physical) and length.
    pub guest_sbr: u32,
    /// Guest SLR.
    pub guest_slr: u32,
    /// Guest P0BR (an S-space VA in the guest's address space).
    pub guest_p0br: u32,
    /// Guest P0LR.
    pub guest_p0lr: u32,
    /// Guest P1BR.
    pub guest_p1br: u32,
    /// Guest P1LR.
    pub guest_p1lr: u32,
    /// Guest MAPEN state.
    pub guest_mapen: bool,
    /// Guest ASTLVL.
    pub guest_astlvl: u32,
    /// Guest software-interrupt summary.
    pub guest_sisr: u16,
    /// Guest TODR.
    pub guest_todr: u32,
    /// Virtual interval timer, advanced only while the VM runs (paper
    /// §5, "Time").
    pub vtimer: IntervalTimer,

    // ---- virtual devices ----
    /// Virtual console output (guest TXDB writes).
    pub console_out: Vec<u8>,
    /// VMM-side diagnostics for this VM (halt reasons etc.).
    pub vmm_log: Vec<String>,
    /// Virtual console input queue.
    pub console_in: VecDeque<u8>,
    /// Virtual disk sectors (StartIo strategy).
    pub vdisk: Vec<[u8; 512]>,
    /// In-flight virtual disk completion: (due cycle, irq, status gpa).
    pub vdisk_pending: Option<(u64, VirtualIrq, u32)>,
    /// Guest-physical address of the uptime cell the VMM refreshes
    /// (paper §5, "Time"), registered via KCALL.
    pub uptime_cell: Option<u32>,
    /// Real-bus I/O window base for the EmulatedMmio strategy.
    pub real_io_base: Option<u32>,

    // ---- policy ----
    /// I/O virtualization strategy.
    pub io_strategy: IoStrategy,
    /// Dirty-bit strategy.
    pub dirty_strategy: DirtyStrategy,

    // ---- scheduling ----
    /// Run state.
    pub state: VmState,
    /// Why the VMM halted this VM, when [`VmState::ConsoleHalt`] was
    /// entered by fault containment rather than a guest HALT. Cleared on
    /// boot.
    pub halt_reason: Option<VmmError>,
    /// Pending virtual interrupts.
    pub pending_virqs: Vec<VirtualIrq>,
    /// Virtual uptime in timer ticks.
    pub uptime_ticks: u32,

    /// Statistics.
    pub stats: VmStats,
}

impl Vm {
    /// The active virtual stack slot for a (mode, on-interrupt-stack)
    /// pair.
    pub fn stack_slot(&self, mode: AccessMode, is: bool) -> u32 {
        if is {
            self.vsp_is
        } else {
            self.vsp[mode as usize]
        }
    }

    /// Stores into the virtual stack slot.
    pub fn set_stack_slot(&mut self, mode: AccessMode, is: bool, v: u32) {
        if is {
            self.vsp_is = v;
        } else {
            self.vsp[mode as usize] = v;
        }
    }

    /// The highest-priority pending virtual interrupt deliverable at the
    /// VM's current IPL, if any. Includes guest software interrupts.
    pub fn deliverable_virq(&self) -> Option<VirtualIrq> {
        let mut best: Option<VirtualIrq> = None;
        for irq in &self.pending_virqs {
            if best.is_none_or(|b| irq.ipl > b.ipl) {
                best = Some(*irq);
            }
        }
        if self.guest_sisr != 0 {
            let level = 15 - self.guest_sisr.leading_zeros() as u8;
            if best.is_none_or(|b| level > b.ipl) {
                best = Some(VirtualIrq {
                    ipl: level,
                    vector: (0x80 + 4 * level as u32) as u16,
                });
            }
        }
        best.filter(|b| b.ipl > self.vmpsl.ipl())
    }

    /// Pends a virtual interrupt (idempotent per (ipl, vector)).
    pub fn pend_virq(&mut self, irq: VirtualIrq) {
        if !self.pending_virqs.contains(&irq) {
            self.pending_virqs.push(irq);
        }
    }

    /// Removes a delivered virtual interrupt source.
    pub fn clear_virq(&mut self, irq: VirtualIrq) {
        if irq.ipl <= 15 && irq.vector == (0x80 + 4 * irq.ipl as u32) as u16 {
            self.guest_sisr &= !(1 << irq.ipl);
        }
        self.pending_virqs.retain(|i| *i != irq);
    }

    /// True if any event would wake this VM from WAIT.
    pub fn has_wake_event(&self) -> bool {
        self.deliverable_virq().is_some()
    }

    /// VM memory size in bytes.
    pub fn mem_bytes(&self) -> u32 {
        self.mem_pages * 512
    }

    /// Translates a guest-physical address to a real physical address.
    ///
    /// Returns `None` for addresses outside the VM's memory — on the
    /// paper's virtual VAX, touching nonexistent memory halts the VM
    /// (possible security attack, §5).
    pub fn gpa_to_pa(&self, gpa: u32) -> Option<u32> {
        if gpa < self.mem_bytes() {
            Some((self.mem_base_pfn << 9) + gpa)
        } else {
            None
        }
    }

    /// Translates a guest-physical *range* of `len` bytes to the real
    /// physical address of its first byte, requiring the whole range to
    /// lie inside the VM's memory.
    ///
    /// Multi-byte accessors must use this rather than [`Vm::gpa_to_pa`]:
    /// checking only the first byte lets a range starting at
    /// `mem_bytes - 1` spill into the adjacent VM's frames.
    pub fn gpa_to_pa_len(&self, gpa: u32, len: u32) -> Option<u32> {
        let end = gpa.checked_add(len)?;
        if end <= self.mem_bytes() {
            Some((self.mem_base_pfn << 9) + gpa)
        } else {
            None
        }
    }

    /// Translates a guest page frame number to a real PFN.
    pub fn gpfn_to_pfn(&self, gpfn: u32) -> Option<u32> {
        if gpfn < self.mem_pages {
            Some(self.mem_base_pfn + gpfn)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blank_vm() -> Vm {
        Vm {
            name: "test".into(),
            mem_base_pfn: 100,
            mem_pages: 16,
            regs: [0; 16],
            psl_flags: Psl::new(),
            vmpsl: VmPsl::default(),
            vsp: [0; 4],
            vsp_is: 0,
            v_is: false,
            guest_scbb: 0,
            guest_pcbb: 0,
            guest_sbr: 0,
            guest_slr: 0,
            guest_p0br: 0,
            guest_p0lr: 0,
            guest_p1br: 0,
            guest_p1lr: 0,
            guest_mapen: false,
            guest_astlvl: 4,
            guest_sisr: 0,
            guest_todr: 0,
            vtimer: IntervalTimer::default(),
            console_out: Vec::new(),
            vmm_log: Vec::new(),
            console_in: VecDeque::new(),
            vdisk: Vec::new(),
            vdisk_pending: None,
            uptime_cell: None,
            real_io_base: None,
            io_strategy: IoStrategy::StartIo,
            dirty_strategy: DirtyStrategy::ModifyFault,
            state: VmState::Ready,
            halt_reason: None,
            pending_virqs: Vec::new(),
            uptime_ticks: 0,
            stats: VmStats::default(),
        }
    }

    #[test]
    fn gpa_translation_bounds() {
        let vm = blank_vm();
        assert_eq!(vm.gpa_to_pa(0), Some(100 * 512));
        assert_eq!(vm.gpa_to_pa(16 * 512 - 1), Some(100 * 512 + 16 * 512 - 1));
        assert_eq!(vm.gpa_to_pa(16 * 512), None, "beyond VM memory");
        assert_eq!(vm.gpfn_to_pfn(15), Some(115));
        assert_eq!(vm.gpfn_to_pfn(16), None);
    }

    #[test]
    fn gpa_range_translation_checks_every_byte() {
        let vm = blank_vm();
        let edge = 16 * 512;
        assert_eq!(vm.gpa_to_pa_len(0, 4), Some(100 * 512));
        assert_eq!(vm.gpa_to_pa_len(edge - 4, 4), Some(100 * 512 + edge - 4));
        for back in 1..4 {
            assert_eq!(
                vm.gpa_to_pa_len(edge - back, 4),
                None,
                "longword at mem_bytes - {back} must not reach the neighbor"
            );
        }
        assert_eq!(vm.gpa_to_pa_len(u32::MAX - 2, 4), None, "wrap must fail");
        assert_eq!(vm.gpa_to_pa_len(edge, 0), Some(100 * 512 + edge));
    }

    #[test]
    fn virq_priority_and_masking() {
        let mut vm = blank_vm();
        vm.pend_virq(VirtualIrq {
            ipl: 21,
            vector: 0x100,
        });
        vm.pend_virq(VirtualIrq {
            ipl: 24,
            vector: 0xC0,
        });
        vm.pend_virq(VirtualIrq {
            ipl: 24,
            vector: 0xC0,
        }); // idempotent
        assert_eq!(vm.pending_virqs.len(), 2);
        assert_eq!(
            vm.deliverable_virq(),
            Some(VirtualIrq {
                ipl: 24,
                vector: 0xC0
            })
        );
        vm.vmpsl.set_ipl(24);
        assert_eq!(vm.deliverable_virq(), None, "masked at IPL 24");
        vm.vmpsl.set_ipl(23);
        assert_eq!(
            vm.deliverable_virq(),
            Some(VirtualIrq {
                ipl: 24,
                vector: 0xC0
            })
        );
        vm.clear_virq(VirtualIrq {
            ipl: 24,
            vector: 0xC0,
        });
        assert_eq!(vm.deliverable_virq(), None, "21 < 23");
    }

    #[test]
    fn software_interrupts_via_sisr() {
        let mut vm = blank_vm();
        vm.guest_sisr = 1 << 5;
        let irq = vm.deliverable_virq().unwrap();
        assert_eq!(irq.ipl, 5);
        assert_eq!(irq.vector as u32, 0x80 + 4 * 5);
        vm.clear_virq(irq);
        assert_eq!(vm.guest_sisr, 0);
    }

    #[test]
    fn stack_slots() {
        let mut vm = blank_vm();
        vm.set_stack_slot(AccessMode::Kernel, false, 0x100);
        vm.set_stack_slot(AccessMode::User, false, 0x200);
        vm.set_stack_slot(AccessMode::Kernel, true, 0x300);
        assert_eq!(vm.stack_slot(AccessMode::Kernel, false), 0x100);
        assert_eq!(vm.stack_slot(AccessMode::User, false), 0x200);
        assert_eq!(vm.stack_slot(AccessMode::Supervisor, true), 0x300);
    }
}
