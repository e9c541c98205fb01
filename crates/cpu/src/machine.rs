//! The simulated processor: registers, PSL, IPRs, interval timer, console,
//! stack banking, and the step loop.

use crate::bus::{Bus, IrqRequest, IO_BASE_PA};
use crate::counters::CpuCounters;
use crate::event::{HaltReason, StepEvent, VmExit};
use crate::icache::{DecodeCache, DecodeCacheStats};
use crate::trans::{TransCache, TransStats};
use std::collections::VecDeque;
use vax_arch::{
    AccessMode, CostModel, Exception, Ipr, MachineVariant, Psl, ScbVector, VirtAddr, VmPsl,
    PAGE_BYTES, PAGE_SHIFT,
};
use vax_mem::{MemFault, Mmu, MmuState, PhysMemory};
use vax_obs::prof::{Prof, ProfEventKind, ProfSink, ProfTier};

/// The interval timer (ICCS/NICR/ICR).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct IntervalTimer {
    pub iccs: u32,
    pub nicr: i64,
    pub icr: i64,
}

impl IntervalTimer {
    pub const RUN: u32 = 1 << 0;
    pub const XFR: u32 = 1 << 4;
    pub const IE: u32 = 1 << 6;
    pub const INT: u32 = 1 << 7;

    fn write_iccs(&mut self, v: u32) {
        if v & Self::XFR != 0 {
            self.icr = self.nicr;
        }
        if v & Self::INT != 0 {
            self.iccs &= !Self::INT; // write-1-to-clear
        }
        self.iccs = (self.iccs & Self::INT) | (v & (Self::RUN | Self::IE));
    }

    fn tick(&mut self, delta: u64) {
        if self.iccs & Self::RUN != 0 && self.nicr < 0 {
            self.icr += delta as i64;
            if self.icr >= 0 {
                self.iccs |= Self::INT;
                self.icr = self.nicr;
            }
        }
    }

    fn interrupt_pending(&self) -> bool {
        self.iccs & Self::INT != 0 && self.iccs & Self::IE != 0
    }
}

/// The console terminal, modeled at the IPR level (RXCS/RXDB/TXCS/TXDB).
///
/// Transmit is always ready; output accumulates in a log the embedder can
/// drain. Receive is fed by [`Machine::console_push_input`] and polled by
/// the guest.
#[derive(Debug, Clone, Default)]
pub(crate) struct Console {
    pub tx_log: Vec<u8>,
    pub rx_queue: VecDeque<u8>,
}

/// Interrupt priority level of the interval timer.
pub const TIMER_IPL: u8 = 24;

/// Which execution tier the step loop uses. Every tier produces
/// bit-identical architectural state, cycle counts, and
/// [`CpuCounters`] — only wall-clock speed (and the diagnostic
/// [`DecodeCacheStats`]/[`TransStats`]) differ.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecTier {
    /// Bytewise decode and interpretation of every instruction.
    Interp,
    /// Decode-cache-served interpretation (the default).
    #[default]
    Cache,
    /// Decode cache plus superblock µop translation of hot code, with the
    /// interpreter as the fallback for everything the translator gates
    /// off (mapped or VM-mode execution, sensitive instructions, faults).
    Trans,
}

impl ExecTier {
    /// Every tier, slowest first.
    pub const ALL: [ExecTier; 3] = [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans];

    /// Parses a tier name as used by `vaxrun --exec-tier`.
    pub fn from_name(name: &str) -> Option<ExecTier> {
        match name {
            "interp" => Some(ExecTier::Interp),
            "cache" => Some(ExecTier::Cache),
            "trans" => Some(ExecTier::Trans),
            _ => None,
        }
    }

    /// The canonical lowercase name (`interp`, `cache`, `trans`).
    pub fn name(self) -> &'static str {
        match self {
            ExecTier::Interp => "interp",
            ExecTier::Cache => "cache",
            ExecTier::Trans => "trans",
        }
    }
}

/// Plain-data image of the interval timer for snapshot/restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TimerState {
    /// ICCS (RUN/IE/INT bits as on hardware).
    pub iccs: u32,
    /// NICR (negative reload value).
    pub nicr: i64,
    /// Current ICR count.
    pub icr: i64,
}

/// Complete architectural + simulation state of a [`Machine`], minus
/// physical memory and bus devices — the extraction/injection seam the
/// snapshot subsystem builds on.
///
/// Everything that influences future execution or observable output is
/// here, including the sub-tick TOD accumulator and the exit stamp, so a
/// machine restored from this image and the original produce bit-identical
/// cycles, counters, and console bytes. Two pieces are deliberately
/// excluded:
///
/// - **Physical memory**: captured separately (it may be large and wants
///   page-level compression / copy-on-write handling).
/// - **Decoded-instruction and translated-superblock caches**:
///   [`Machine::import_state`] starts both cold; each tier is proven
///   cycle- and counter-neutral on/off, so this does not perturb
///   determinism.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineState {
    /// General registers R0–R15.
    pub regs: [u32; 16],
    /// The full PSL (raw, including `PSL<VM>`).
    pub psl_raw: u32,
    /// The VMPSL register.
    pub vmpsl: VmPsl,
    /// Banked stack pointers (kernel…user, interrupt).
    pub sp_bank: [u32; 5],
    /// SCB base.
    pub scbb: u32,
    /// PCB base.
    pub pcbb: u32,
    /// ASTLVL.
    pub astlvl: u32,
    /// Software-interrupt summary.
    pub sisr: u16,
    /// Time-of-day register.
    pub todr: u32,
    /// Sub-tick TOD accumulator (cycles toward the next TODR tick).
    pub todr_acc: u64,
    /// Cycle-cost model in effect.
    pub costs: CostModel,
    /// Complete MMU image (registers, counters, exact TLB).
    pub mmu: MmuState,
    /// Undrained console output.
    pub console_tx: Vec<u8>,
    /// Queued console input.
    pub console_rx: Vec<u8>,
    /// Interval timer.
    pub timer: TimerState,
    /// Latched, undelivered device interrupt requests.
    pub pending_irqs: Vec<IrqRequest>,
    /// Cumulative simulated cycles.
    pub cycles: u64,
    /// Cycle stamp of the most recent VM exit.
    pub exit_stamp: u64,
    /// Event counters (raw; TLB totals live in the MMU image).
    pub counters: CpuCounters,
    /// Whether the processor has halted.
    pub halted: bool,
    /// Whether working-set write tracking was enabled on memory. The
    /// tracker's bitmaps are not state — only the enablement crosses, so
    /// a restored machine keeps producing dirty-page deltas. Importing
    /// re-arms a fresh (clean) tracker when set.
    pub write_tracking: bool,
}

/// The simulated VAX processor plus its memory and bus.
///
/// A [`Machine`] built with [`MachineVariant::Standard`] behaves like the
/// base architecture; [`MachineVariant::Modified`] adds the paper's
/// virtualization microcode. The VMM in `vax-vmm` drives a modified
/// machine; guest operating systems from `vax-os` run on either.
///
/// # Example
///
/// ```
/// use vax_cpu::{Machine, StepEvent};
/// use vax_arch::MachineVariant;
///
/// // MOVL #5, R0; HALT — assembled by hand.
/// let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
/// m.mem_mut().write_slice(0x200, &[0xD0, 0x05, 0x50, 0x00])?;
/// m.set_pc(0x200);
/// assert_eq!(m.step(), StepEvent::Ok);
/// assert_eq!(m.reg(0), 5);
/// # Ok::<(), vax_mem::MemFault>(())
/// ```
pub struct Machine {
    variant: MachineVariant,
    pub(crate) costs: CostModel,
    pub(crate) regs: [u32; 16],
    pub(crate) psl: Psl,
    pub(crate) vmpsl: VmPsl,
    /// Stack pointers: indexes 0–3 are kernel…user, 4 is the interrupt
    /// stack. The *active* pointer lives in `regs[14]`.
    pub(crate) sp_bank: [u32; 5],
    pub(crate) scbb: u32,
    pub(crate) pcbb: u32,
    pub(crate) sid: u32,
    pub(crate) astlvl: u32,
    pub(crate) sisr: u16,
    todr: u32,
    todr_acc: u64,
    pub(crate) mmu: Mmu,
    pub(crate) mem: PhysMemory,
    /// Decoded-instruction cache, keyed by opcode physical address.
    pub(crate) icache: DecodeCache,
    pub(crate) icache_enabled: bool,
    /// Translated-superblock cache, keyed by entry physical address.
    pub(crate) trans: TransCache,
    exec_tier: ExecTier,
    pub(crate) bus: Bus,
    pub(crate) console: Console,
    pub(crate) timer: IntervalTimer,
    pending_irqs: Vec<IrqRequest>,
    /// Reusable decode output buffer: [`crate::decode::Decoded`] is a
    /// couple hundred bytes, so it lives in one heap slot for the life of
    /// the machine instead of being re-zeroed and moved every step.
    pub(crate) decode_scratch: Option<Box<crate::decode::Decoded>>,
    /// Optional PC trace ring (debugging aid).
    trace: Option<(VecDeque<u32>, usize)>,
    /// Cycle-attributed guest profiler ([`ProfSink::Off`] by default —
    /// one discriminant test per retire). Like the decode caches, not
    /// part of [`MachineState`]: purely diagnostic, never fed back.
    pub(crate) prof: ProfSink,
    pub(crate) cycles: u64,
    /// Cycle count at the instant the most recent VM exit began, before
    /// any microcode trap-entry charge — the observability layer's
    /// exit-to-resume latency origin. Never fed back into execution.
    pub(crate) exit_stamp: u64,
    pub(crate) counters: CpuCounters,
    pub(crate) halted: bool,
}

impl Machine {
    /// Creates a machine of the given variant with `mem_bytes` of RAM.
    ///
    /// The modified variant boots with modify faults enabled, as the
    /// paper's VMM requires; the standard variant sets `PTE<M>` in
    /// hardware.
    pub fn new(variant: MachineVariant, mem_bytes: u32) -> Machine {
        Machine::with_mem(variant, PhysMemory::new(mem_bytes))
    }

    /// Creates a machine of the given variant running on `mem` — the
    /// seam snapshot restore and copy-on-write fork build on: the
    /// machine adopts the memory it will run on, so no throwaway memory
    /// is allocated and zeroed first. Decoded-instruction caches start
    /// cold; pair with [`Machine::import_state`] to reinstate the rest
    /// of a captured machine.
    pub fn with_mem(variant: MachineVariant, mem: PhysMemory) -> Machine {
        let mut mmu = Mmu::new();
        mmu.set_modify_fault_enabled(variant.has_vm_extensions());
        Machine {
            variant,
            costs: CostModel::default(),
            regs: [0; 16],
            psl: Psl::power_up(),
            vmpsl: VmPsl::default(),
            sp_bank: [0; 5],
            scbb: 0,
            pcbb: 0,
            sid: match variant {
                MachineVariant::Standard => 0x0100_0000,
                MachineVariant::Modified => 0x0200_0000,
            },
            astlvl: 4,
            sisr: 0,
            todr: 0,
            todr_acc: 0,
            mmu,
            mem,
            icache: DecodeCache::new(),
            icache_enabled: true,
            trans: TransCache::new(),
            exec_tier: ExecTier::default(),
            bus: Bus::new(),
            console: Console::default(),
            timer: IntervalTimer::default(),
            pending_irqs: Vec::new(),
            decode_scratch: Some(Box::new(crate::decode::Decoded::empty())),
            trace: None,
            prof: ProfSink::Off,
            cycles: 0,
            exit_stamp: 0,
            counters: CpuCounters::default(),
            halted: false,
        }
    }

    /// The architecture variant.
    pub fn variant(&self) -> MachineVariant {
        self.variant
    }

    /// Replaces the cycle-cost model. Translated superblocks fold cycle
    /// charges in at translate time, so they are all dropped here.
    pub fn set_costs(&mut self, costs: CostModel) {
        self.costs = costs;
        self.trans.invalidate_all();
    }

    /// The cycle-cost model in effect.
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// Cumulative simulated cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycle count at the instant the most recent VM exit began (before
    /// the microcode trap-entry charge), so exit-to-resume latency
    /// includes the hardware half of the exit.
    pub fn last_exit_cycles(&self) -> u64 {
        self.exit_stamp
    }

    /// Charges extra cycles (used by the VMM to account its software
    /// path lengths on this machine's clock).
    pub fn add_cycles(&mut self, n: u64) {
        self.cycles += n;
    }

    /// Event counters. TLB hit/miss totals are folded in from the MMU at
    /// read time; they are identical with the decode cache on or off,
    /// because the cached path replays every i-stream translation.
    pub fn counters(&self) -> CpuCounters {
        let mut c = self.counters;
        c.tlb_hits = self.mmu.tlb().hits();
        c.tlb_misses = self.mmu.tlb().misses();
        c
    }

    /// Selects the execution tier. Switching drops all translated
    /// superblocks; switching to [`ExecTier::Interp`] also drops the
    /// decode cache and its write-tracking state. Cycle counts and
    /// [`Machine::counters`] are unaffected by the choice.
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.exec_tier = tier;
        self.icache_enabled = tier != ExecTier::Interp;
        self.trans.invalidate_all();
        if tier == ExecTier::Interp {
            self.icache.invalidate_all();
            self.mem.clear_all_code_pages();
        }
    }

    /// The execution tier in effect.
    pub fn exec_tier(&self) -> ExecTier {
        self.exec_tier
    }

    /// Enables or disables the decoded-instruction cache — the historical
    /// two-tier switch, now an alias for [`Machine::set_exec_tier`] with
    /// [`ExecTier::Cache`]/[`ExecTier::Interp`].
    pub fn set_decode_cache_enabled(&mut self, on: bool) {
        self.set_exec_tier(if on {
            ExecTier::Cache
        } else {
            ExecTier::Interp
        });
    }

    /// Whether the decoded-instruction cache is enabled.
    pub fn decode_cache_enabled(&self) -> bool {
        self.icache_enabled
    }

    /// Drops every decoded-instruction cache entry and translated
    /// superblock. Embedders (the VMM) call this after rewriting guest
    /// page tables or memory images outside the machine's own store paths.
    pub fn invalidate_decode_cache(&mut self) {
        self.invalidate_code_caches();
    }

    /// Drops all derived-code state: decode-cache templates and
    /// translated superblocks. Every invalidation edge that kills one
    /// must kill both.
    pub(crate) fn invalidate_code_caches(&mut self) {
        self.icache.invalidate_all();
        self.trans.invalidate_all();
        self.prof_event(ProfEventKind::Invalidate, 0, 0);
    }

    /// Drains self-modifying-code notifications: every physical page
    /// written since the last drain loses its decode-cache templates and
    /// translated superblocks before either cache is trusted again.
    pub(crate) fn drain_dirty_code(&mut self) {
        if self.mem.has_dirty_code() {
            for pfn in self.mem.take_dirty_code_pages() {
                self.icache.invalidate_page(pfn);
                self.trans.invalidate_page(pfn);
                self.mem.clear_code_page(pfn);
                self.prof_event(ProfEventKind::SmcDrain, pfn << vax_arch::PAGE_SHIFT, pfn);
            }
        }
    }

    /// Decode-cache hit/miss statistics (diagnostic; not part of the
    /// architectural counters).
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.icache.stats()
    }

    /// Translation-tier statistics (diagnostic; not part of the
    /// architectural counters).
    pub fn trans_stats(&self) -> TransStats {
        self.trans.stats()
    }

    /// Per-superblock profiles ranked by cycles retired (the hot-block
    /// table). Populated only while profiling is enabled.
    pub fn superblock_profiles(&self) -> Vec<crate::trans::SuperblockProfile> {
        self.trans.profiles()
    }

    /// General register `i` (0–15; 15 is the PC).
    pub fn reg(&self, i: usize) -> u32 {
        self.regs[i]
    }

    /// Sets general register `i`.
    pub fn set_reg(&mut self, i: usize, v: u32) {
        self.regs[i] = v;
    }

    /// The program counter.
    pub fn pc(&self) -> u32 {
        self.regs[15]
    }

    /// Sets the program counter.
    pub fn set_pc(&mut self, pc: u32) {
        self.regs[15] = pc;
    }

    /// The processor status longword.
    pub fn psl(&self) -> Psl {
        self.psl
    }

    /// Replaces the PSL, re-banking the stack pointer if the active stack
    /// changed.
    pub fn set_psl(&mut self, new: Psl) {
        let old_idx = self.active_sp_index();
        self.psl = new;
        let new_idx = self.active_sp_index();
        if old_idx != new_idx {
            self.sp_bank[old_idx] = self.regs[14];
            self.regs[14] = self.sp_bank[new_idx];
        }
    }

    /// The `VMPSL` register (meaningful only on the modified variant).
    pub fn vmpsl(&self) -> VmPsl {
        self.vmpsl
    }

    /// Sets the `VMPSL` register.
    pub fn set_vmpsl(&mut self, v: VmPsl) {
        self.vmpsl = v;
    }

    /// Puts the processor in VM mode (`PSL<VM>` set) with the given VM
    /// mode state. Only the VMM's dispatch path does this.
    ///
    /// # Panics
    ///
    /// Panics on a standard machine, which has no `PSL<VM>`.
    pub fn enter_vm(&mut self, vmpsl: VmPsl) {
        assert!(
            self.variant.has_vm_extensions(),
            "standard VAX has no VM mode"
        );
        self.vmpsl = vmpsl;
        self.psl.set_vm(true);
    }

    /// True if the processor is running a VM (`PSL<VM>` set).
    pub fn in_vm(&self) -> bool {
        self.psl.vm()
    }

    fn active_sp_index(&self) -> usize {
        if self.psl.flag(Psl::IS) {
            4
        } else {
            self.psl.cur_mode() as usize
        }
    }

    /// Reads the stack pointer for a mode (redirecting to `regs[14]` when
    /// that mode's stack is active).
    pub fn sp_for_mode(&self, mode: AccessMode) -> u32 {
        if self.active_sp_index() == mode as usize {
            self.regs[14]
        } else {
            self.sp_bank[mode as usize]
        }
    }

    /// Sets the stack pointer for a mode.
    pub fn set_sp_for_mode(&mut self, mode: AccessMode, v: u32) {
        if self.active_sp_index() == mode as usize {
            self.regs[14] = v;
        } else {
            self.sp_bank[mode as usize] = v;
        }
    }

    /// The interrupt stack pointer.
    pub fn isp(&self) -> u32 {
        if self.active_sp_index() == 4 {
            self.regs[14]
        } else {
            self.sp_bank[4]
        }
    }

    /// Sets the interrupt stack pointer.
    pub fn set_isp(&mut self, v: u32) {
        if self.active_sp_index() == 4 {
            self.regs[14] = v;
        } else {
            self.sp_bank[4] = v;
        }
    }

    /// The system control block base (physical).
    pub fn scbb(&self) -> u32 {
        self.scbb
    }

    /// Sets the SCB base.
    pub fn set_scbb(&mut self, pa: u32) {
        self.scbb = pa;
    }

    /// The process control block base (physical).
    pub fn pcbb(&self) -> u32 {
        self.pcbb
    }

    /// Physical memory.
    pub fn mem(&self) -> &PhysMemory {
        &self.mem
    }

    /// Physical memory, mutable (for loaders and the VMM).
    pub fn mem_mut(&mut self) -> &mut PhysMemory {
        &mut self.mem
    }

    /// The MMU.
    pub fn mmu(&self) -> &Mmu {
        &self.mmu
    }

    /// The MMU, mutable (for the VMM's shadow-table management).
    pub fn mmu_mut(&mut self) -> &mut Mmu {
        &mut self.mmu
    }

    /// The I/O bus, mutable (to attach devices).
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// Queues a byte of console input.
    pub fn console_push_input(&mut self, b: u8) {
        self.console.rx_queue.push_back(b);
    }

    /// Drains and returns everything the guest wrote to the console.
    pub fn console_take_output(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.console.tx_log)
    }

    /// Peeks at console output without draining.
    pub fn console_output(&self) -> &[u8] {
        &self.console.tx_log
    }

    /// True once the processor has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Enables the PC trace ring, keeping the most recent `capacity`
    /// instruction addresses — a debugging aid for guest crashes.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some((VecDeque::with_capacity(capacity), capacity));
    }

    /// The most recent instruction addresses (oldest first), if tracing
    /// is enabled.
    pub fn recent_pcs(&self) -> Vec<u32> {
        self.trace
            .as_ref()
            .map(|(ring, _)| ring.iter().copied().collect())
            .unwrap_or_default()
    }

    // ---- profiling (vax-prof) ----

    /// Enables cycle-attributed profiling, sampling every
    /// `sample_interval` simulated cycles, and working-set write tracking
    /// on memory. Re-enabling resets both. Observational only: the
    /// profiler reads the clock and PC, never feeds anything back, so
    /// architectural state, cycles, and counters stay bit-identical —
    /// the equivalence fuzzers enforce this for all three tiers.
    pub fn enable_profiling(&mut self, sample_interval: u64) {
        self.prof = ProfSink::on(sample_interval, self.cycles);
        self.mem.enable_write_tracking();
        self.trans.clear_profiles();
    }

    /// Disables profiling and working-set tracking, dropping their state
    /// (including per-superblock profiles).
    pub fn disable_profiling(&mut self) {
        self.prof = ProfSink::Off;
        self.mem.disable_write_tracking();
        self.trans.clear_profiles();
    }

    /// Whether profiling is enabled.
    pub fn profiling_enabled(&self) -> bool {
        self.prof.is_on()
    }

    /// Enables working-set write tracking on memory without the
    /// profiler — the seam incremental snapshots consume (each
    /// `snapshot_delta` drains [`vax_mem::PhysMemory::take_dirty_pages`]).
    /// Re-enabling resets the tracker. Observational only, like
    /// profiling: architectural state, cycles, and counters are
    /// unaffected.
    pub fn enable_write_tracking(&mut self) {
        self.mem.enable_write_tracking();
    }

    /// Disables working-set write tracking, dropping the tracker. A
    /// no-op while profiling is on would leave the profiler's dirty-rate
    /// sampling blind, so this also applies under profiling; prefer
    /// [`Machine::disable_profiling`] to tear both down together.
    pub fn disable_write_tracking(&mut self) {
        self.mem.disable_write_tracking();
    }

    /// Whether working-set write tracking is enabled.
    pub fn write_tracking_enabled(&self) -> bool {
        self.mem.write_tracking_enabled()
    }

    /// The profiler state, when enabled.
    pub fn prof(&self) -> Option<&Prof> {
        self.prof.state()
    }

    /// Records one retiring instruction with the profiler: a discriminant
    /// test when off; when on, an array add plus a deadline compare, with
    /// the interval-sample slow path also polling working-set progress.
    #[inline]
    pub(crate) fn prof_retire(&mut self, tier: ProfTier, pc: u32) {
        if let ProfSink::On(p) = &mut self.prof {
            if p.observe(tier, pc, self.cycles) {
                p.note_dirty(self.mem.dirty_page_events());
            }
        }
    }

    /// Records a superblock lifecycle event with the profiler, if on.
    #[inline]
    pub(crate) fn prof_event(&mut self, kind: ProfEventKind, pa: u32, arg: u32) {
        if let ProfSink::On(p) = &mut self.prof {
            p.note_event(kind, pa, arg, self.cycles);
        }
    }

    // ---- virtual memory access (routing RAM vs. I/O space) ----

    fn read_pa(&mut self, pa: u32, len: u32) -> Result<u32, MemFault> {
        if pa >= IO_BASE_PA {
            self.counters.device_csr_accesses += 1;
            self.cycles += self.costs.device_csr;
            self.bus.read(pa)
        } else {
            match len {
                1 => self.mem.read_u8(pa).map(u32::from),
                2 => self.mem.read_u16(pa).map(u32::from),
                _ => self.mem.read_u32(pa),
            }
        }
    }

    fn write_pa(&mut self, pa: u32, value: u32, len: u32) -> Result<(), MemFault> {
        if pa >= IO_BASE_PA {
            self.counters.device_csr_accesses += 1;
            self.cycles += self.costs.device_csr;
            self.bus.write(pa, value)
        } else {
            match len {
                1 => self.mem.write_u8(pa, value as u8),
                2 => self.mem.write_u16(pa, value as u16),
                _ => self.mem.write_u32(pa, value),
            }
        }
    }

    /// Reads `len ∈ {1,2,4}` bytes of virtual memory as `mode`.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] from translation or the physical access.
    pub fn read_virt(&mut self, va: VirtAddr, len: u32, mode: AccessMode) -> Result<u32, MemFault> {
        self.cycles += self.costs.memory_reference;
        if va.byte_offset() + len <= PAGE_BYTES {
            let t = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                mmu.translate(mem, va, mode, false, costs)?
            };
            self.cycles += t.cycles;
            self.read_pa(t.pa, len)
        } else {
            // At most two pages are involved; translate each once and
            // split the access at the boundary. Per-byte `read_pa` calls
            // are kept so device CSR accounting still sees every byte.
            let split = PAGE_BYTES - va.byte_offset();
            let (pa0, pa1) = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                let t0 = mmu.translate(mem, va, mode, false, costs)?;
                let t1 = mmu.translate(mem, va.wrapping_add(split), mode, false, costs)?;
                self.cycles += t0.cycles + t1.cycles;
                (t0.pa, t1.pa)
            };
            let mut v = 0u32;
            for i in 0..len {
                let pa = if i < split {
                    pa0 + i
                } else {
                    pa1 + (i - split)
                };
                v |= self.read_pa(pa, 1)? << (8 * i);
            }
            Ok(v)
        }
    }

    /// Writes `len ∈ {1,2,4}` bytes of virtual memory as `mode`.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`]; page-crossing writes pre-translate all pages so a
    /// fault leaves no partial write.
    pub fn write_virt(
        &mut self,
        va: VirtAddr,
        value: u32,
        len: u32,
        mode: AccessMode,
    ) -> Result<(), MemFault> {
        self.cycles += self.costs.memory_reference;
        if va.byte_offset() + len <= PAGE_BYTES {
            let t = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                mmu.translate(mem, va, mode, true, costs)?
            };
            self.cycles += t.cycles;
            self.write_pa(t.pa, value, len)
        } else {
            // Translate both pages before writing any byte so a fault on
            // the second page leaves no partial write.
            let split = PAGE_BYTES - va.byte_offset();
            let (pa0, pa1) = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                let t0 = mmu.translate(mem, va, mode, true, costs)?;
                let t1 = mmu.translate(mem, va.wrapping_add(split), mode, true, costs)?;
                self.cycles += t0.cycles + t1.cycles;
                (t0.pa, t1.pa)
            };
            for i in 0..len {
                let pa = if i < split {
                    pa0 + i
                } else {
                    pa1 + (i - split)
                };
                self.write_pa(pa, (value >> (8 * i)) & 0xff, 1)?;
            }
            Ok(())
        }
    }

    /// Moves `len` bytes from `src` to `dst` as `mode`, with the charges,
    /// TLB traffic, faults and partial writes of a forward loop of
    /// one-byte `read_virt`/`write_virt` pairs — MOVC3's data movement.
    ///
    /// With the decode cache enabled the move is split at every source
    /// and destination page boundary, and a chunk that
    /// [`Machine::string_chunk_pas`] clears is copied in one
    /// [`PhysMemory::copy_forward`] with its per-byte charges and TLB
    /// hits replayed in one batch. Otherwise — and always on the
    /// interpreter tier, the per-byte oracle — one byte goes through
    /// the byte loop's read/write pair and the remainder is
    /// re-examined, so a fault lands on the same byte after the same
    /// partial writes.
    ///
    /// # Errors
    ///
    /// The first [`MemFault`] the byte loop would raise.
    pub(crate) fn move_bytes(
        &mut self,
        src: VirtAddr,
        dst: VirtAddr,
        len: u32,
        mode: AccessMode,
    ) -> Result<(), MemFault> {
        let mut done = 0;
        while done < len {
            let (s, d) = (src.wrapping_add(done), dst.wrapping_add(done));
            let n = (len - done)
                .min(PAGE_BYTES - s.byte_offset())
                .min(PAGE_BYTES - d.byte_offset());
            let fast = if self.icache_enabled {
                self.string_chunk_pas(s, d, n, mode)
            } else {
                None
            };
            if let Some((spa, dpa)) = fast {
                self.cycles += 2 * u64::from(n) * self.costs.memory_reference;
                if self.mmu.mapen() {
                    self.mmu.tlb_mut().record_hits(2 * u64::from(n));
                }
                self.mem.copy_forward(spa, dpa, n)?;
                done += n;
            } else {
                // One byte the oracle's way. Its translations may warm
                // the TLB or set M, so the rest of the chunk is
                // re-probed rather than committed to the byte loop.
                let b = self.read_virt(s, 1, mode)?;
                self.write_virt(d, b, 1, mode)?;
                done += 1;
            }
        }
        Ok(())
    }

    /// The physical addresses of an `n`-byte string-move chunk (within
    /// one source and one destination page) when its byte loop would
    /// take no fault, walk, modify-bit update or device access: each
    /// byte would then hit the TLB for free and touch RAM, charging one
    /// memory reference per read and per write and nothing else. That
    /// needs both pages resident in the TLB at once (two pages that
    /// collide in its direct-mapped slots evict each other per byte),
    /// a readable source, a writable destination with `PTE<M>` already
    /// cached, and both ranges in RAM. Counter-free, like
    /// [`Machine::fetch_pa_probe`]; `None` sends the chunk to the byte
    /// loop.
    fn string_chunk_pas(
        &self,
        src: VirtAddr,
        dst: VirtAddr,
        n: u32,
        mode: AccessMode,
    ) -> Option<(u32, u32)> {
        let (spa, dpa) = if self.mmu.mapen() {
            let tlb = self.mmu.tlb();
            let se = tlb.peek(src)?;
            let de = tlb.peek(dst)?;
            if !se.prot.allows(mode, false) || !de.prot.allows(mode, true) || !de.modified {
                return None;
            }
            (
                (se.pfn << PAGE_SHIFT) | src.byte_offset(),
                (de.pfn << PAGE_SHIFT) | dst.byte_offset(),
            )
        } else {
            (src.raw(), dst.raw())
        };
        let ram = |pa: u32| pa < IO_BASE_PA && IO_BASE_PA - pa >= n && self.mem.contains(pa, n);
        (ram(spa) && ram(dpa)).then_some((spa, dpa))
    }

    /// Pushes a longword on the *current* stack.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] from the stack write; SP is left decremented only
    /// on success.
    pub fn push(&mut self, value: u32) -> Result<(), MemFault> {
        let sp = self.regs[14].wrapping_sub(4);
        self.write_virt(VirtAddr::new(sp), value, 4, self.psl.cur_mode())?;
        self.regs[14] = sp;
        Ok(())
    }

    /// Pops a longword from the *current* stack.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] from the stack read.
    pub fn pop(&mut self) -> Result<u32, MemFault> {
        let v = self.read_virt(VirtAddr::new(self.regs[14]), 4, self.psl.cur_mode())?;
        self.regs[14] = self.regs[14].wrapping_add(4);
        Ok(v)
    }

    // ---- IPR access (used by MTPR/MFPR and by the VMM) ----

    /// Reads an internal processor register as kernel-mode microcode does.
    ///
    /// # Errors
    ///
    /// `Err(Exception::ReservedOperand)` for write-only registers or
    /// registers that do not exist on this machine (e.g. the VM-only
    /// MEMSIZE/KCALL on any real machine — paper Table 4).
    pub fn read_ipr(&mut self, ipr: Ipr) -> Result<u32, Exception> {
        use Ipr::*;
        Ok(match ipr {
            Ksp => self.sp_for_mode(AccessMode::Kernel),
            Esp => self.sp_for_mode(AccessMode::Executive),
            Ssp => self.sp_for_mode(AccessMode::Supervisor),
            Usp => self.sp_for_mode(AccessMode::User),
            Isp => self.isp(),
            P0br => self.mmu.bases().2,
            P0lr => self.mmu.bases().3,
            P1br => self.mmu.bases().4,
            P1lr => self.mmu.bases().5,
            Sbr => self.mmu.bases().0,
            Slr => self.mmu.bases().1,
            Pcbb => self.pcbb,
            Scbb => self.scbb,
            Ipl => self.psl.ipl() as u32,
            Astlvl => self.astlvl,
            Sisr => self.sisr as u32,
            Iccs => self.timer.iccs,
            Nicr => self.timer.nicr as u32,
            Icr => self.timer.icr as u32,
            Todr => self.todr,
            Rxcs => {
                if self.console.rx_queue.is_empty() {
                    0
                } else {
                    0x80
                }
            }
            Rxdb => self.console.rx_queue.pop_front().map_or(0, u32::from),
            Txcs => 0x80, // always ready
            Txdb => 0,
            Mapen => self.mmu.mapen() as u32,
            Sid => self.sid,
            Sirr | Tbia | Tbis => return Err(Exception::ReservedOperand),
            Memsize | Kcall | Ioreset => return Err(Exception::ReservedOperand),
        })
    }

    /// Writes an internal processor register as kernel-mode microcode
    /// does, with all side effects (TLB invalidation, timer control, …).
    ///
    /// # Errors
    ///
    /// `Err(Exception::ReservedOperand)` for read-only registers or
    /// registers absent on a real machine.
    pub fn write_ipr(&mut self, ipr: Ipr, value: u32) -> Result<(), Exception> {
        use Ipr::*;
        match ipr {
            Ksp => self.set_sp_for_mode(AccessMode::Kernel, value),
            Esp => self.set_sp_for_mode(AccessMode::Executive, value),
            Ssp => self.set_sp_for_mode(AccessMode::Supervisor, value),
            Usp => self.set_sp_for_mode(AccessMode::User, value),
            Isp => self.set_isp(value),
            P0br => {
                self.mmu.set_p0br(value);
                self.invalidate_code_caches();
            }
            P0lr => {
                self.mmu.set_p0lr(value & 0x3f_ffff);
                self.invalidate_code_caches();
            }
            P1br => {
                self.mmu.set_p1br(value);
                self.invalidate_code_caches();
            }
            P1lr => {
                self.mmu.set_p1lr(value & 0x3f_ffff);
                self.invalidate_code_caches();
            }
            Sbr => {
                self.mmu.set_sbr(value);
                self.invalidate_code_caches();
            }
            Slr => {
                self.mmu.set_slr(value & 0x3f_ffff);
                self.invalidate_code_caches();
            }
            Pcbb => self.pcbb = value,
            Scbb => self.scbb = value,
            Ipl => self.psl.set_ipl((value & 0x1f) as u8),
            Astlvl => self.astlvl = value & 7,
            Sirr => {
                let level = value & 0xf;
                if level != 0 {
                    self.sisr |= 1 << level;
                }
            }
            Sisr => self.sisr = (value & 0xfffe) as u16,
            Iccs => self.timer.write_iccs(value),
            Nicr => self.timer.nicr = value as i32 as i64,
            Icr => return Err(Exception::ReservedOperand),
            Todr => self.todr = value,
            Rxcs | Txcs => {} // interrupt enables unimplemented (polled I/O)
            Rxdb => return Err(Exception::ReservedOperand),
            Txdb => self.console.tx_log.push(value as u8),
            Mapen => {
                self.mmu.set_mapen(value & 1 != 0);
                self.invalidate_code_caches();
            }
            Tbia => {
                self.mmu.tlb_mut().invalidate_all();
                self.invalidate_code_caches();
            }
            Tbis => {
                // Targeted decode-cache invalidation needs the physical
                // page; the TLB entry (peeked before it is dropped)
                // provides it. With no entry the mapping is unknown —
                // invalidate everything to stay conservative.
                let va = VirtAddr::new(value);
                match self.mmu.tlb().peek(va) {
                    Some(e) => {
                        self.icache.invalidate_page(e.pfn);
                        self.trans.invalidate_page(e.pfn);
                        self.prof_event(
                            ProfEventKind::Invalidate,
                            e.pfn << vax_arch::PAGE_SHIFT,
                            1,
                        );
                    }
                    None => self.invalidate_code_caches(),
                }
                self.mmu.tlb_mut().invalidate_single(va);
            }
            Sid => return Err(Exception::ReservedOperand),
            Memsize | Kcall | Ioreset => return Err(Exception::ReservedOperand),
        }
        Ok(())
    }

    // ---- interrupts ----

    /// Latches a device interrupt request (also used by the VMM to model
    /// virtual device completion on bare-metal runs).
    pub fn raise_irq(&mut self, irq: IrqRequest) {
        if !self.pending_irqs.contains(&irq) {
            self.pending_irqs.push(irq);
        }
    }

    /// The highest-priority deliverable interrupt, if any exceeds the
    /// current IPL.
    fn pending_interrupt(&self) -> Option<(u8, u16)> {
        // Fast path for the instruction loop: nothing latched anywhere.
        if self.pending_irqs.is_empty() && self.sisr == 0 && !self.timer.interrupt_pending() {
            return None;
        }
        let mut best: Option<(u8, u16)> = None;
        if self.timer.interrupt_pending() {
            best = Some((TIMER_IPL, ScbVector::IntervalTimer.offset() as u16));
        }
        for irq in &self.pending_irqs {
            if best.is_none_or(|(ipl, _)| irq.ipl > ipl) {
                best = Some((irq.ipl, irq.vector));
            }
        }
        // Software interrupts: highest set level in SISR.
        if self.sisr != 0 {
            let level = 15 - self.sisr.leading_zeros() as u8;
            if best.is_none_or(|(ipl, _)| level > ipl) {
                best = Some((level, ScbVector::software(level) as u16));
            }
        }
        best.filter(|(ipl, _)| *ipl > self.psl.ipl())
    }

    /// Acknowledges (clears) the interrupt source just delivered.
    fn acknowledge(&mut self, ipl: u8, vector: u16) {
        if ipl == TIMER_IPL && vector == ScbVector::IntervalTimer.offset() as u16 {
            self.timer.iccs &= !IntervalTimer::INT;
        } else if ipl <= 15 {
            self.sisr &= !(1 << ipl);
        } else {
            self.pending_irqs
                .retain(|i| !(i.ipl == ipl && i.vector == vector));
        }
    }

    // ---- the step loop ----

    /// Executes one instruction (or delivers one interrupt/exception).
    ///
    /// On a bare machine this never returns [`StepEvent::VmExit`]; inside
    /// a VM every trap/fault/interrupt surfaces as a `VmExit` for the
    /// embedding VMM, with `PSL<VM>` cleared exactly as the paper's
    /// microcode does.
    pub fn step(&mut self) -> StepEvent {
        if self.halted {
            return StepEvent::Halted(HaltReason::HaltInstruction);
        }

        // Deliverable interrupt?
        if let Some((ipl, vector)) = self.pending_interrupt() {
            self.acknowledge(ipl, vector);
            if self.psl.vm() {
                self.psl.set_vm(false);
                self.counters.vm_interrupt_exits += 1;
                self.exit_stamp = self.cycles;
                self.cycles += self.costs.exception_entry;
                return StepEvent::VmExit(VmExit::Interrupt { ipl, vector });
            }
            self.counters.interrupts += 1;
            return match self.deliver_interrupt(ipl, vector) {
                Ok(()) => StepEvent::Ok,
                Err(()) => self.halt_double_fault(),
            };
        }

        // Translated fast path: executes a whole superblock (charging
        // cycles and ticking devices per retired µop exactly as the
        // interpreter path below does per instruction) or declines.
        if self.exec_tier == ExecTier::Trans {
            if let Some(event) = self.step_translated() {
                return event;
            }
        }

        let pc = self.regs[15];
        self.trace_push(pc);
        let cycles_before = self.cycles;
        let instrs_before = self.counters.instructions;
        let event = self.execute_one();

        // Advance time-based devices by the cycles actually consumed.
        let delta = (self.cycles - cycles_before).max(1);
        self.post_instruction_tick(delta);
        // Attribution is by retire path: a Trans-tier machine retiring
        // here went through the (decode-cached) interpreter. Faulting
        // or exiting instructions don't retire; their cycles fold into
        // the next sample's delta.
        if self.counters.instructions != instrs_before {
            let tier = if self.icache_enabled {
                ProfTier::Cache
            } else {
                ProfTier::Interp
            };
            self.prof_retire(tier, pc);
        }
        event
    }

    /// Records a retiring instruction's PC in the trace ring, if tracing
    /// is enabled. Shared by the interpreter and translated tiers.
    pub(crate) fn trace_push(&mut self, pc: u32) {
        if let Some((ring, cap)) = &mut self.trace {
            if ring.len() == *cap {
                ring.pop_front();
            }
            ring.push_back(pc);
        }
    }

    /// Advances time-based devices by `delta` cycles after an instruction
    /// (or µop) retires, and reports whether an interrupt became
    /// deliverable — the translated tier uses that to side-exit.
    pub(crate) fn post_instruction_tick(&mut self, delta: u64) -> bool {
        self.timer.tick(delta);
        self.todr_acc += delta;
        if self.todr_acc >= 100 {
            self.todr = self.todr.wrapping_add(1);
            self.todr_acc = 0;
        }
        let now = self.cycles;
        let Machine {
            bus, pending_irqs, ..
        } = self;
        bus.tick_into(now, pending_irqs);
        self.pending_interrupt().is_some()
    }

    /// Runs until halt, a VM exit, or `max_steps` instructions.
    ///
    /// Returns the final event ([`StepEvent::Ok`] when the budget ran out).
    pub fn run(&mut self, max_steps: u64) -> StepEvent {
        for _ in 0..max_steps {
            match self.step() {
                StepEvent::Ok => continue,
                other => return other,
            }
        }
        StepEvent::Ok
    }

    pub(crate) fn halt_double_fault(&mut self) -> StepEvent {
        self.halted = true;
        StepEvent::Halted(HaltReason::DoubleFault)
    }

    // ---- snapshot/restore seam ----

    /// Captures the complete machine state except physical memory and bus
    /// devices; see [`MachineState`].
    pub fn export_state(&self) -> MachineState {
        MachineState {
            regs: self.regs,
            psl_raw: self.psl.raw(),
            vmpsl: self.vmpsl,
            sp_bank: self.sp_bank,
            scbb: self.scbb,
            pcbb: self.pcbb,
            astlvl: self.astlvl,
            sisr: self.sisr,
            todr: self.todr,
            todr_acc: self.todr_acc,
            costs: self.costs,
            mmu: self.mmu.export_state(),
            console_tx: self.console.tx_log.clone(),
            console_rx: self.console.rx_queue.iter().copied().collect(),
            timer: TimerState {
                iccs: self.timer.iccs,
                nicr: self.timer.nicr,
                icr: self.timer.icr,
            },
            pending_irqs: self.pending_irqs.clone(),
            cycles: self.cycles,
            exit_stamp: self.exit_stamp,
            counters: self.counters,
            halted: self.halted,
            write_tracking: self.mem.write_tracking_enabled(),
        }
    }

    /// Injects a previously exported state, bypassing the architectural
    /// setters (no TLB invalidations, no stack re-banking — the image is
    /// reinstated verbatim). Physical memory is not part of the state:
    /// build the machine over it with [`Machine::with_mem`] first. The
    /// decoded-instruction cache starts cold, which is cycle- and
    /// counter-neutral.
    pub fn import_state(&mut self, state: MachineState) {
        self.regs = state.regs;
        self.psl = Psl::from_raw(state.psl_raw);
        self.vmpsl = state.vmpsl;
        self.sp_bank = state.sp_bank;
        self.scbb = state.scbb;
        self.pcbb = state.pcbb;
        self.astlvl = state.astlvl;
        self.sisr = state.sisr;
        self.todr = state.todr;
        self.todr_acc = state.todr_acc;
        self.costs = state.costs;
        self.mmu.import_state(state.mmu);
        self.console.tx_log = state.console_tx;
        self.console.rx_queue = state.console_rx.into();
        self.timer = IntervalTimer {
            iccs: state.timer.iccs,
            nicr: state.timer.nicr,
            icr: state.timer.icr,
        };
        self.pending_irqs = state.pending_irqs;
        self.cycles = state.cycles;
        self.exit_stamp = state.exit_stamp;
        self.counters = state.counters;
        self.halted = state.halted;
        self.invalidate_code_caches();
        self.mem.clear_all_code_pages();
        // Write-tracking enablement is machine state (an incremental
        // snapshot chain must keep producing deltas after a restore);
        // the bitmaps themselves are not, so the imported tracker
        // starts clean.
        if state.write_tracking {
            if !self.mem.write_tracking_enabled() {
                self.mem.enable_write_tracking();
            }
        } else {
            self.mem.disable_write_tracking();
        }
    }

    /// Forks this machine's memory copy-on-write (see
    /// [`PhysMemory::fork`]), returning the child overlay. The parent's
    /// decode cache stays valid — contents are unchanged — but write
    /// tracking keeps working because all stores funnel through
    /// [`PhysMemory`].
    pub fn fork_mem(&mut self) -> PhysMemory {
        self.mem.fork()
    }
}

impl core::fmt::Debug for Machine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Machine")
            .field("variant", &self.variant)
            .field("pc", &format_args!("{:#010x}", self.regs[15]))
            .field("psl", &format_args!("{}", self.psl))
            .field("cycles", &self.cycles)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_counts_and_interrupts() {
        let mut t = IntervalTimer {
            nicr: -10,
            ..IntervalTimer::default()
        };
        t.write_iccs(IntervalTimer::RUN | IntervalTimer::IE | IntervalTimer::XFR);
        assert_eq!(t.icr, -10);
        for _ in 0..9 {
            t.tick(1);
        }
        assert!(!t.interrupt_pending());
        t.tick(1);
        assert!(t.interrupt_pending());
        assert_eq!(t.icr, -10, "reloaded");
        // Write-1-to-clear.
        t.write_iccs(IntervalTimer::INT | IntervalTimer::RUN | IntervalTimer::IE);
        assert!(!t.interrupt_pending());
    }

    #[test]
    fn stack_banking_follows_psl() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        let mut psl = Psl::new();
        psl.set_cur_mode(AccessMode::Kernel);
        m.set_psl(psl);
        m.set_reg(14, 0x1000); // KSP
        let mut upsl = Psl::new();
        upsl.set_cur_mode(AccessMode::User);
        m.set_psl(upsl);
        m.set_reg(14, 0x2000); // USP
        assert_eq!(m.sp_for_mode(AccessMode::Kernel), 0x1000);
        assert_eq!(m.sp_for_mode(AccessMode::User), 0x2000);
        m.set_sp_for_mode(AccessMode::Kernel, 0x1500);
        let mut kpsl = Psl::new();
        kpsl.set_cur_mode(AccessMode::Kernel);
        m.set_psl(kpsl);
        assert_eq!(m.reg(14), 0x1500);
    }

    #[test]
    fn ipr_round_trips() {
        let mut m = Machine::new(MachineVariant::Modified, 4096);
        m.write_ipr(Ipr::Sbr, 0x3000).unwrap();
        assert_eq!(m.read_ipr(Ipr::Sbr).unwrap(), 0x3000);
        m.write_ipr(Ipr::Ipl, 22).unwrap();
        assert_eq!(m.read_ipr(Ipr::Ipl).unwrap(), 22);
        assert_eq!(m.psl().ipl(), 22);
        assert!(m.write_ipr(Ipr::Icr, 0).is_err());
        assert!(m.read_ipr(Ipr::Tbia).is_err());
        // VM-only registers do not exist on a real machine.
        assert!(m.read_ipr(Ipr::Memsize).is_err());
        assert!(m.write_ipr(Ipr::Kcall, 0).is_err());
    }

    #[test]
    fn sirr_sets_software_interrupt_summary() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        m.write_ipr(Ipr::Sirr, 3).unwrap();
        m.write_ipr(Ipr::Sirr, 7).unwrap();
        assert_eq!(m.read_ipr(Ipr::Sisr).unwrap(), (1 << 3) | (1 << 7));
    }

    #[test]
    fn console_round_trip() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        assert_eq!(m.read_ipr(Ipr::Rxcs).unwrap(), 0);
        m.console_push_input(b'A');
        assert_eq!(m.read_ipr(Ipr::Rxcs).unwrap(), 0x80);
        assert_eq!(m.read_ipr(Ipr::Rxdb).unwrap(), b'A' as u32);
        m.write_ipr(Ipr::Txdb, b'Z' as u32).unwrap();
        assert_eq!(m.console_take_output(), b"Z");
        assert!(m.console_output().is_empty());
    }

    #[test]
    #[should_panic(expected = "standard VAX has no VM mode")]
    fn enter_vm_rejected_on_standard() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        m.enter_vm(VmPsl::default());
    }

    #[test]
    fn push_pop_round_trip() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        let mut psl = Psl::new();
        psl.set_cur_mode(AccessMode::Kernel);
        m.set_psl(psl);
        m.set_reg(14, 0x800);
        m.push(0x1234_5678).unwrap();
        assert_eq!(m.reg(14), 0x7FC);
        assert_eq!(m.pop().unwrap(), 0x1234_5678);
        assert_eq!(m.reg(14), 0x800);
    }

    #[test]
    fn imported_tracking_is_sized_to_the_adopted_memory() {
        // Regression: enable_write_tracking sizes its bitmaps from
        // pages() at enable time. A state exported from a small tracked
        // machine and imported into one built over a *larger* memory
        // must arm a tracker sized to the new memory — a write past the
        // old size would otherwise index out of bounds (a host panic)
        // or go untracked.
        let mut small = Machine::new(MachineVariant::Standard, 8 * 512);
        small.enable_write_tracking();
        small.mem_mut().write_u8(0, 1).unwrap();
        assert_eq!(small.mem().dirty_page_count(), 1);
        let state = small.export_state();

        let mut m = Machine::with_mem(MachineVariant::Standard, PhysMemory::new(64 * 512));
        m.import_state(state.clone());
        assert!(
            m.write_tracking_enabled(),
            "tracking enablement is imported"
        );
        assert_eq!(m.mem().dirty_page_count(), 0, "fresh tracker starts clean");
        m.mem_mut().write_u8(63 * 512, 1).unwrap();
        assert_eq!(m.mem().dirty_pages(), vec![63]);

        // A forked memory works the same way, and stays forked.
        let mut parent = PhysMemory::new(2 * 512);
        let mut forked = Machine::with_mem(MachineVariant::Standard, parent.fork());
        forked.import_state(state);
        forked.mem_mut().write_u8(512, 1).unwrap();
        assert_eq!(forked.mem().dirty_pages(), vec![1]);
        assert_eq!(forked.mem().resident_page_numbers(), vec![1]);

        // An untracked state imports as untracked.
        let mut plain = Machine::with_mem(MachineVariant::Standard, PhysMemory::new(4096));
        plain.import_state(Machine::new(MachineVariant::Standard, 4096).export_state());
        assert!(!plain.write_tracking_enabled());
    }

    #[test]
    fn state_round_trip_carries_write_tracking_enablement() {
        let mut m = Machine::new(MachineVariant::Standard, 4096);
        m.enable_write_tracking();
        let state = m.export_state();
        assert!(state.write_tracking);

        let mut restored = Machine::new(MachineVariant::Standard, 4096);
        restored.import_state(state);
        assert!(restored.write_tracking_enabled(), "import re-arms tracking");
        restored.mem_mut().write_u8(0, 1).unwrap();
        assert_eq!(restored.mem().dirty_page_count(), 1);

        // And the off state imports as off.
        m.disable_write_tracking();
        restored.import_state(m.export_state());
        assert!(!restored.write_tracking_enabled());
    }
}
