//! The virtual machine monitor proper: VM creation, the dispatch loop,
//! world switching, and scheduling (round-robin with a WAIT handshake,
//! paper §5).

use crate::cost::VmmCosts;
use crate::fault::VmmError;
use crate::layout::FrameAllocator;
use crate::shadow::{ShadowConfig, ShadowSet};
use crate::vm::{DirtyStrategy, IoStrategy, VirtualIrq, VirtualTimer, Vm, VmState, VmStats};
use std::collections::VecDeque;
use vax_arch::{AccessMode, Exception, MachineVariant, Opcode, Psl, ScbVector, VmPsl};
use vax_cpu::{ExecTier, Machine, StepEvent, VmExit, IO_BASE_PA};
use vax_obs::{ExitCause, Histogram, Metrics, Obs, ObsSink};

/// Identifies a VM within a [`Monitor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct VmId(pub(crate) usize);

/// Maps a virtual access mode to the real mode it executes in — the
/// paper's Figure 3. Virtual kernel and executive both map to real
/// executive; real kernel is reserved to the VMM.
pub fn compress_mode(virtual_mode: AccessMode) -> AccessMode {
    match virtual_mode {
        AccessMode::Kernel | AccessMode::Executive => AccessMode::Executive,
        other => other,
    }
}

/// Per-VM creation parameters.
#[derive(Debug, Clone)]
pub struct VmConfig {
    /// Memory size in pages.
    pub mem_pages: u32,
    /// Shadow-table configuration (cache slots = the §7.2 knob).
    pub shadow: ShadowConfig,
    /// I/O virtualization strategy.
    pub io_strategy: IoStrategy,
    /// Dirty-bit strategy.
    pub dirty_strategy: DirtyStrategy,
    /// Virtual disk size in sectors.
    pub vdisk_sectors: u32,
}

impl Default for VmConfig {
    fn default() -> VmConfig {
        VmConfig {
            mem_pages: 512, // 256 KiB
            shadow: ShadowConfig::default(),
            io_strategy: IoStrategy::StartIo,
            dirty_strategy: DirtyStrategy::ModifyFault,
            vdisk_sectors: 64,
        }
    }
}

/// Monitor-wide configuration.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Real machine memory in bytes.
    pub mem_bytes: u32,
    /// Scheduling quantum in cycles.
    pub quantum: u64,
    /// WAIT timeout in cycles (paper §5 footnote: WAIT "times out after
    /// some seconds, so every VM runs periodically").
    pub wait_timeout: u64,
    /// Virtual disk latency in cycles.
    pub vdisk_latency: u64,
    /// VMM software path costs.
    pub costs: VmmCosts,
}

impl Default for MonitorConfig {
    fn default() -> MonitorConfig {
        MonitorConfig {
            mem_bytes: 8 * 1024 * 1024,
            quantum: 50_000,
            wait_timeout: 200_000,
            vdisk_latency: 2_000,
            costs: VmmCosts::default(),
        }
    }
}

pub(crate) struct VmSlot {
    pub vm: Vm,
    pub shadow: ShadowSet,
}

/// The monitor-level scheduler and accounting state a snapshot must
/// carry: which VM's context the machine registers currently hold (the
/// round-robin scan restarts after it, so losing it would diverge the
/// schedule), plus the VMM's own accounting cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedulerState {
    /// Index of the VM whose context was last loaded, if any.
    pub current: Option<usize>,
    /// Cycles spent in VMM emulation paths.
    pub vmm_cycles: u64,
    /// VM-to-VM world switches performed.
    pub world_switches: u64,
}

/// Why [`Monitor::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunExit {
    /// The cycle budget was consumed.
    BudgetExhausted,
    /// Every VM is halted at its virtual console.
    AllHalted,
}

/// The VAX security-kernel VMM.
///
/// Owns one modified-VAX [`Machine`] and any number of VMs. Real kernel
/// mode is reserved to the VMM (here: host code); VMs execute in the
/// outer three modes under ring compression.
///
/// # Example
///
/// See the crate-level documentation for a complete boot example.
pub struct Monitor {
    pub(crate) machine: Machine,
    pub(crate) vms: Vec<VmSlot>,
    pub(crate) current: Option<usize>,
    pub(crate) config: MonitorConfig,
    pub(crate) falloc: FrameAllocator,
    pub(crate) next_io_base: u32,
    /// Maps real device vectors to (vm index, guest vector).
    pub(crate) real_vector_owner: Vec<(u16, usize, u16)>,
    pub(crate) vmm_cycles: u64,
    pub(crate) world_switches: u64,
    /// Exit-reason tracing sink. `Off` by default; every call through it
    /// is then a no-op, so the dispatch loop pays nothing. It only ever
    /// *reads* the machine clock — enabling it must not change cycles or
    /// counters (enforced by the equivalence tests).
    pub(crate) obs: ObsSink,
}

impl Monitor {
    /// Creates a monitor on a modified VAX with the given configuration.
    pub fn new(config: MonitorConfig) -> Monitor {
        let machine = Machine::new(MachineVariant::Modified, config.mem_bytes);
        Monitor::on_machine(machine, config)
    }

    /// Creates a monitor whose modified VAX runs on `mem` instead of a
    /// fresh zeroed memory — snapshot restore and copy-on-write fork
    /// build the monitor directly over the memory they will run on, then
    /// replay VM creation with [`Monitor::recreate_vm`].
    ///
    /// # Panics
    ///
    /// Panics if `mem` is not the size [`Monitor::new`] would allocate
    /// for `config`; snapshot loaders validate first.
    pub fn with_mem(config: MonitorConfig, mem: vax_mem::PhysMemory) -> Monitor {
        assert_eq!(
            mem.size(),
            config.mem_bytes.div_ceil(512) * 512,
            "memory size disagrees with the monitor configuration"
        );
        let machine = Machine::with_mem(MachineVariant::Modified, mem);
        Monitor::on_machine(machine, config)
    }

    fn on_machine(machine: Machine, config: MonitorConfig) -> Monitor {
        let total_frames = config.mem_bytes / 512;
        Monitor {
            machine,
            vms: Vec::new(),
            current: None,
            config,
            // Frame 0 is left unused so a zero PFN is never handed out.
            falloc: FrameAllocator::new(1, total_frames),
            next_io_base: IO_BASE_PA,
            real_vector_owner: Vec::new(),
            vmm_cycles: 0,
            world_switches: 0,
            obs: ObsSink::off(),
        }
    }

    /// Real frames [`Monitor::create_vm`] would consume for `config`:
    /// the VM's memory block, its real SPT, and the shadow process-table
    /// cache. Admission control for snapshot restore — `create_vm`
    /// itself panics when real memory runs out (fixed allocation, no
    /// paging), so untrusted reconstruction must check first against
    /// [`Monitor::frames_remaining`].
    pub fn admission_frames(config: &VmConfig) -> u64 {
        let per_slot = u64::from(crate::layout::table_frames(config.shadow.p0_capacity))
            + u64::from(crate::layout::table_frames(config.shadow.p1_capacity));
        let vmm_region_pages = config.shadow.cache_slots as u64 * per_slot;
        let spt_entries = u64::from(config.shadow.s_capacity) + vmm_region_pages;
        let spt_frames = u64::from(crate::layout::table_frames(
            u32::try_from(spt_entries).unwrap_or(u32::MAX),
        ));
        u64::from(config.mem_pages) + spt_frames + vmm_region_pages
    }

    /// Real frames still unallocated on this monitor.
    pub fn frames_remaining(&self) -> u32 {
        self.falloc.remaining()
    }

    /// Creates a VM. Its memory is a fixed contiguous block of real
    /// memory presented as guest-physical pages `0..mem_pages` (paper §4).
    pub fn create_vm(&mut self, name: &str, config: VmConfig) -> VmId {
        self.add_vm(name, config, true)
    }

    /// Re-creates a VM on a monitor built over memory that already holds
    /// its tables ([`Monitor::with_mem`]): the same deterministic frame
    /// allocation as [`Monitor::create_vm`] — VM memory block, real SPT,
    /// shadow process tables — but the SPT and shadow-table contents are
    /// left as the memory has them instead of being written fresh. A
    /// snapshot restore or a copy-on-write fork replays its VMs this way
    /// and then overwrites the returned VM's state; on a forked memory,
    /// skipping the table writes is what keeps them shared.
    pub fn recreate_vm(&mut self, name: &str, config: VmConfig) -> VmId {
        self.add_vm(name, config, false)
    }

    fn add_vm(&mut self, name: &str, config: VmConfig, write_tables: bool) -> VmId {
        let base = self.falloc.alloc(config.mem_pages);
        let shadow = if write_tables {
            ShadowSet::new(&mut self.machine, &mut self.falloc, config.shadow)
        } else {
            ShadowSet::reserve(&mut self.falloc, config.shadow)
        };
        let mut vm = Vm {
            name: name.to_string(),
            mem_base_pfn: base,
            mem_pages: config.mem_pages,
            regs: [0; 16],
            psl_flags: Psl::new(),
            vmpsl: VmPsl::new(AccessMode::Kernel, AccessMode::Kernel).with_ipl(31),
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
            vtimer: VirtualTimer::default(),
            console_out: Vec::new(),
            vmm_log: Vec::new(),
            console_in: VecDeque::new(),
            vdisk: vec![[0; 512]; config.vdisk_sectors as usize],
            vdisk_pending: None,
            uptime_cell: None,
            real_io_base: None,
            io_strategy: config.io_strategy,
            dirty_strategy: config.dirty_strategy,
            state: VmState::ConsoleHalt, // boots via the virtual console
            halt_reason: None,
            pending_virqs: Vec::new(),
            uptime_ticks: 0,
            stats: VmStats::default(),
        };
        if config.io_strategy == IoStrategy::EmulatedMmio {
            let base_pa = self.next_io_base;
            self.next_io_base += 4096;
            let vector = (ScbVector::Device0.offset() + 4 * self.vms.len() as u32) as u16;
            let disk =
                vax_dev::SimDisk::new(config.vdisk_sectors, self.config.vdisk_latency, 21, vector);
            self.machine.bus_mut().attach(base_pa, 4096, Box::new(disk));
            vm.real_io_base = Some(base_pa);
            self.real_vector_owner.push((
                vector,
                self.vms.len(),
                ScbVector::Device0.offset() as u16,
            ));
        }
        self.vms.push(VmSlot { vm, shadow });
        VmId(self.vms.len() - 1)
    }

    /// The underlying machine (for inspection).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The underlying machine, mutable (loaders, tests).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// A VM's state (for inspection).
    ///
    /// # Panics
    ///
    /// Panics on a stale id.
    pub fn vm(&self, id: VmId) -> &Vm {
        &self.vms[id.0].vm
    }

    /// A VM's state, mutable (console input injection, tests).
    pub fn vm_mut(&mut self, id: VmId) -> &mut Vm {
        &mut self.vms[id.0].vm
    }

    /// A VM's statistics.
    pub fn vm_stats(&self, id: VmId) -> VmStats {
        self.vms[id.0].vm.stats
    }

    /// Number of VMs created on this monitor.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Ids of every VM on this monitor, in creation order.
    pub fn vm_ids(&self) -> impl Iterator<Item = VmId> + '_ {
        (0..self.vms.len()).map(VmId)
    }

    /// The configuration this monitor was created with.
    pub fn config(&self) -> &MonitorConfig {
        &self.config
    }

    /// A VM's shadow-table state (snapshot capture, inspection).
    pub fn shadow(&self, id: VmId) -> &ShadowSet {
        &self.vms[id.0].shadow
    }

    /// A VM's shadow-table state, mutable (snapshot restore).
    pub fn shadow_mut(&mut self, id: VmId) -> &mut ShadowSet {
        &mut self.vms[id.0].shadow
    }

    /// Captures the scheduler/accounting state for a snapshot.
    pub fn scheduler_state(&self) -> SchedulerState {
        SchedulerState {
            current: self.current,
            vmm_cycles: self.vmm_cycles,
            world_switches: self.world_switches,
        }
    }

    /// Reinstates scheduler/accounting state captured by
    /// [`Monitor::scheduler_state`].
    ///
    /// # Panics
    ///
    /// Panics if `current` names a VM this monitor does not have;
    /// snapshot loaders validate first.
    pub fn set_scheduler_state(&mut self, state: SchedulerState) {
        if let Some(idx) = state.current {
            assert!(idx < self.vms.len(), "current VM index out of range");
        }
        self.current = state.current;
        self.vmm_cycles = state.vmm_cycles;
        self.world_switches = state.world_switches;
    }

    /// Cycles spent in VMM emulation paths so far.
    pub fn vmm_cycles(&self) -> u64 {
        self.vmm_cycles
    }

    /// VM-to-VM world switches performed so far.
    pub fn world_switches(&self) -> u64 {
        self.world_switches
    }

    /// Enables exit-reason tracing with a trace ring of `ring_capacity`
    /// records. Any previously collected observations are discarded.
    pub fn enable_obs(&mut self, ring_capacity: usize) {
        self.obs = ObsSink::on(ring_capacity);
    }

    /// Disables exit-reason tracing, discarding collected observations.
    pub fn disable_obs(&mut self) {
        self.obs = ObsSink::off();
    }

    /// Enables cycle-attributed guest profiling on this monitor's
    /// machine, sampling every `sample_interval` simulated cycles, plus
    /// working-set write tracking and per-superblock introspection.
    /// Non-perturbing: guest state, cycles, and counters are
    /// bit-identical with profiling on or off.
    pub fn enable_profiling(&mut self, sample_interval: u64) {
        self.machine.enable_profiling(sample_interval);
    }

    /// Disables profiling, discarding collected profiles.
    pub fn disable_profiling(&mut self) {
        self.machine.disable_profiling();
    }

    /// The profiler state, when profiling is enabled.
    pub fn prof(&self) -> Option<&vax_obs::Prof> {
        self.machine.prof()
    }

    /// Enables working-set write tracking on this monitor's machine
    /// without the profiler — the seam incremental (delta) snapshots
    /// and pre-copy migration build on. Idempotent on an
    /// already-tracking machine; re-enabling after a disable starts
    /// from a clean bitmap.
    pub fn enable_dirty_tracking(&mut self) {
        self.machine.enable_write_tracking();
    }

    /// Disables write tracking, discarding the dirty/touched bitmaps.
    /// No-op while the profiler is active (the profiler owns tracking
    /// for its working-set telemetry).
    pub fn disable_dirty_tracking(&mut self) {
        if self.machine.prof().is_none() {
            self.machine.disable_write_tracking();
        }
    }

    /// Whether write tracking is currently enabled.
    pub fn dirty_tracking_enabled(&self) -> bool {
        self.machine.write_tracking_enabled()
    }

    /// Selects the execution tier for this monitor's real machine.
    /// Deterministically invisible: guests produce bit-identical state,
    /// cycles, and counters under every tier (enforced by the three-way
    /// equivalence fuzzers).
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        self.machine.set_exec_tier(tier);
    }

    /// The currently selected execution tier.
    pub fn exec_tier(&self) -> ExecTier {
        self.machine.exec_tier()
    }

    /// The collected observations, if tracing is enabled.
    pub fn obs(&self) -> Option<&Obs> {
        self.obs.state()
    }

    /// Snapshots every counter the monitor can see — architectural
    /// counters, VMM accounting, decode-cache statistics — plus the
    /// per-cause exit-cost histograms when tracing is enabled, into a
    /// [`Metrics`] registry ready for JSON or Prometheus exposition.
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        let c = self.machine.counters();
        for (name, v) in c.named() {
            m.counter(name, v);
        }
        m.counter("vm_exits", c.vm_exits());
        m.counter("cycles", self.machine.cycles());
        m.counter("vmm_cycles", self.vmm_cycles);
        m.counter("world_switches", self.world_switches);
        let dc = self.machine.decode_cache_stats();
        m.counter("decode_cache_hits", dc.hits);
        m.counter("decode_cache_misses", dc.misses);
        m.counter("decode_cache_bytewise_fallbacks", dc.bytewise_fallbacks);
        m.counter("decode_cache_invalidations", dc.invalidations);
        m.gauge("decode_cache_hit_rate", dc.hit_rate());
        let ts = self.machine.trans_stats();
        m.counter("trans_blocks_translated", ts.blocks_translated);
        m.counter("trans_blocks_executed", ts.blocks_executed);
        m.counter("trans_uops_executed", ts.uops_executed);
        m.counter("trans_side_exit_interrupt", ts.side_exit_interrupt);
        m.counter("trans_side_exit_bail", ts.side_exit_bail);
        m.counter("trans_side_exit_smc", ts.side_exit_smc);
        m.counter("trans_side_exit_tlb_miss", ts.side_exit_tlb_miss);
        m.counter("trans_side_exit_prot", ts.side_exit_prot);
        m.counter("trans_side_exit_modify", ts.side_exit_modify);
        m.counter("trans_side_exit_page_cross", ts.side_exit_page_cross);
        m.counter("trans_side_exit_io", ts.side_exit_io);
        m.counter("trans_chain_hits", ts.chain_hits);
        m.counter("trans_chain_links_severed", ts.chain_links_severed);
        m.counter("trans_invalidations", ts.invalidations);
        // Which tier ran: a trans run that never got a block hot enough
        // to translate otherwise reads exactly like a cache run.
        for tier in ExecTier::ALL {
            let active = tier == self.exec_tier();
            m.labeled_gauge(
                "exec_tier",
                "tier",
                tier.name(),
                f64::from(u8::from(active)),
            );
        }
        if ts.blocks_translated > 0 {
            let mut h = Histogram::new();
            for (len, n) in ts.len_hist.iter().enumerate() {
                h.record_n(len as u64, *n);
            }
            m.histogram("superblock_length", &h);
        }
        let (evictions, invalidations) = self.vms.iter().fold((0, 0), |(e, i), s| {
            (e + s.shadow.evictions(), i + s.shadow.invalidations())
        });
        m.counter("shadow_slot_evictions", evictions);
        m.counter("shadow_invalidations", invalidations);
        let (machine_checks, security_halts) = self.vms.iter().fold((0, 0), |(mc, sh), s| {
            (
                mc + s.vm.stats.machine_checks,
                sh + u64::from(s.vm.halt_reason.is_some()),
            )
        });
        m.counter("reflected_machine_checks", machine_checks);
        m.counter("security_halts", security_halts);
        let (modify_faults, dirty_upgrades) = self.vms.iter().fold((0, 0), |(mf, du), s| {
            (
                mf + s.vm.stats.modify_faults,
                du + s.vm.stats.dirty_upgrades,
            )
        });
        m.counter("modify_faults", modify_faults);
        m.counter("dirty_upgrades", dirty_upgrades);
        m.gauge("tlb_hit_rate", c.tlb_hit_rate_opt());
        let mem = self.machine.mem();
        if mem.write_tracking_enabled() {
            // Levels, not counters: a `take_dirty_pages` drain (delta
            // snapshot, pre-copy round) drops them back toward zero, so
            // summing successive scrapes — what counter merge does —
            // double-counts and moves backwards. Only the event count
            // is monotonic.
            m.gauge("dirty_pages", Some(f64::from(mem.dirty_page_count())));
            m.gauge("touched_pages", Some(f64::from(mem.touched_page_count())));
            m.counter("dirty_page_events", mem.dirty_page_events());
        }
        if let Some(obs) = self.obs.state() {
            m.counter("trace_records", obs.trace().total());
            m.counter("trace_records_dropped", obs.trace().dropped());
            for cause in ExitCause::ALL {
                let h = obs.histogram(cause);
                if h.count() > 0 {
                    m.histogram(&format!("exit_cost_{}", cause.name()), h);
                }
            }
        }
        if let Some(p) = self.machine.prof() {
            self.profile_metrics(&mut m, p);
        }
        m
    }

    /// The profiler's families: per-tier attribution counters, page-level
    /// cycle and dirty-rate histograms, working-set counts, and the
    /// per-superblock introspection. All counters/histograms, so
    /// [`Metrics::merge`] produces correct fleet-wide profiles.
    fn profile_metrics(&self, m: &mut Metrics, p: &vax_obs::Prof) {
        m.counter("profile_samples", p.samples());
        m.counter("profile_overflow_cycles", p.overflow_cycles());
        m.counter("profile_events_dropped", p.events_dropped());
        for tier in vax_obs::ProfTier::ALL {
            m.counter(
                &format!("profile_instructions_{}", tier.name()),
                p.retired(tier),
            );
            m.counter(
                &format!("profile_cycles_{}", tier.name()),
                p.attributed(tier),
            );
        }
        if p.dirty_rate().count() > 0 {
            m.histogram("profile_dirty_rate", p.dirty_rate());
        }
        let pages = p.page_buckets();
        if !pages.is_empty() {
            let mut h = Histogram::new();
            for (_, cycles) in &pages {
                h.record(*cycles);
            }
            m.histogram("profile_page_cycles", &h);
        }
        let blocks = self.machine.superblock_profiles();
        if !blocks.is_empty() {
            m.counter("hot_superblocks", blocks.len() as u64);
            let mut cyc = Histogram::new();
            let mut execs = Histogram::new();
            for b in &blocks {
                cyc.record(b.cycles_retired);
                execs.record(b.executions);
            }
            m.histogram("superblock_cycles_retired", &cyc);
            m.histogram("superblock_executions", &execs);
        }
    }

    /// Coarse exit classification from the exit packet alone. Handlers
    /// refine it once they know more (MTPR target register, whether a
    /// translation fault is a shadow fill, MMIO, or the guest's own
    /// fault) via [`ObsSink::refine`]. Returns the cause and, for
    /// emulation traps, the trapping instruction's PC.
    fn classify_exit(exit: &VmExit) -> (ExitCause, Option<u32>) {
        match exit {
            VmExit::Emulation(info) => {
                let cause = match info.opcode {
                    Opcode::Chmk | Opcode::Chme | Opcode::Chms | Opcode::Chmu => ExitCause::EmulChm,
                    Opcode::Rei => ExitCause::EmulRei,
                    // Refined to EmulMtprIpl once the register number is
                    // decoded in emulate_mtpr.
                    Opcode::Mtpr => ExitCause::EmulMtprOther,
                    Opcode::Mfpr => ExitCause::EmulMfpr,
                    Opcode::Ldpctx => ExitCause::EmulLdpctx,
                    Opcode::Svpctx => ExitCause::EmulSvpctx,
                    Opcode::Prober | Opcode::Probew => ExitCause::EmulProbe,
                    Opcode::Wait => ExitCause::EmulWait,
                    Opcode::Halt => ExitCause::EmulHalt,
                    _ => ExitCause::EmulOther,
                };
                (cause, Some(info.pc))
            }
            VmExit::Exception(e) => {
                let cause = match e {
                    // Refined to MmioEmulation / GuestPageFault in
                    // handle_exception once the shadow has been consulted.
                    Exception::TranslationNotValid { .. } => ExitCause::ShadowFill,
                    Exception::ModifyFault { .. } => ExitCause::ModifyFault,
                    _ => ExitCause::ExceptionExit,
                };
                (cause, None)
            }
            VmExit::Interrupt { .. } => (ExitCause::InterruptExit, None),
        }
    }

    /// Charges VMM path cycles against the machine clock and the current
    /// VM's account.
    pub(crate) fn charge(&mut self, cycles: u64) {
        self.machine.add_cycles(cycles);
        self.vmm_cycles += cycles;
        if let Some(i) = self.current {
            self.vms[i].vm.stats.vmm_cycles += cycles;
        }
    }

    // ---- guest-physical access (loaders, console, KCALL) ----

    /// Writes bytes into a VM's guest-physical memory.
    ///
    /// # Errors
    ///
    /// [`VmmError::GuestRange`] if the range exceeds the VM's memory.
    /// (Before the DESIGN.md §11 fault-containment change this API
    /// panicked instead; callers that load trusted images can
    /// `.expect(...)` the result to keep the old behavior.)
    pub fn vm_write_phys(&mut self, id: VmId, gpa: u32, data: &[u8]) -> Result<(), VmmError> {
        let len =
            u32::try_from(data.len()).map_err(|_| VmmError::GuestRange { gpa, len: u32::MAX })?;
        let pa = self.vms[id.0]
            .vm
            .gpa_to_pa_len(gpa, len)
            .ok_or(VmmError::GuestRange { gpa, len })?;
        self.machine
            .mem_mut()
            .write_slice(pa, data)
            .map_err(|_| VmmError::GuestRange { gpa, len })
    }

    /// Reads a longword from guest-physical memory. The whole longword
    /// must lie inside the VM's memory.
    pub fn vm_read_phys_u32(&self, id: VmId, gpa: u32) -> Option<u32> {
        let pa = self.vms[id.0].vm.gpa_to_pa_len(gpa, 4)?;
        self.machine.mem().read_u32(pa).ok()
    }

    /// Loads a sector image into a VM's virtual disk.
    ///
    /// # Errors
    ///
    /// [`VmmError::DiskSector`] for a sector beyond the disk,
    /// [`VmmError::DiskBuffer`] for a buffer longer than a 512-byte
    /// sector, and [`VmmError::Mmio`] if the EmulatedMmio device is
    /// missing or rejects the CSR sequence. (This API previously panicked
    /// on out-of-range sectors and oversized buffers.)
    pub fn vm_load_disk(&mut self, id: VmId, sector: u32, data: &[u8]) -> Result<(), VmmError> {
        if data.len() > 512 {
            return Err(VmmError::DiskBuffer { len: data.len() });
        }
        let vm = &mut self.vms[id.0].vm;
        let capacity = vm.vdisk.len() as u32;
        if sector >= capacity {
            return Err(VmmError::DiskSector { sector, capacity });
        }
        match vm.io_strategy {
            IoStrategy::StartIo => {
                let s = &mut vm.vdisk[sector as usize];
                s[..data.len()].copy_from_slice(data);
            }
            IoStrategy::EmulatedMmio => {
                let base = vm.real_io_base.ok_or(VmmError::Mmio {
                    what: "no real device attached",
                })?;
                // Reach the device through its CSRs: simplest is to poke
                // the backing store via a write sequence.
                let bad_csr = VmmError::Mmio {
                    what: "device rejected CSR write",
                };
                let mut sectorbuf = [0u8; 512];
                sectorbuf[..data.len()].copy_from_slice(data);
                self.machine
                    .bus_mut()
                    .write(base + 4, sector)
                    .map_err(|_| bad_csr)?;
                for chunk in sectorbuf.chunks(4) {
                    let mut word = [0u8; 4];
                    word.copy_from_slice(chunk);
                    self.machine
                        .bus_mut()
                        .write(base + 8, u32::from_le_bytes(word))
                        .map_err(|_| bad_csr)?;
                }
                self.machine
                    .bus_mut()
                    .write(base, crate::io::disk_write_cmd())
                    .map_err(|_| bad_csr)?;
                // Complete it immediately (host-side load).
                let now = self.machine.cycles() + self.config.vdisk_latency + 1;
                let _ = self.machine.bus_mut().tick(now);
            }
        }
        Ok(())
    }

    /// Boots a VM: sets its virtual CPU to the architectural boot state
    /// (kernel mode, IPL 31, translation off) with the PC at `entry`
    /// (a guest-physical address) and marks it runnable — the virtual
    /// console's BOOT command.
    pub fn boot_vm(&mut self, id: VmId, entry: u32) {
        let vm = &mut self.vms[id.0].vm;
        vm.regs = [0; 16];
        vm.regs[15] = entry;
        vm.vmpsl = VmPsl::new(AccessMode::Kernel, AccessMode::Kernel).with_ipl(31);
        vm.v_is = false;
        vm.psl_flags = Psl::new();
        vm.guest_mapen = false;
        vm.state = VmState::Ready;
        vm.halt_reason = None;
        // The machine may still hold this VM's pre-boot context (it was
        // the VM most recently run, e.g. in a restored or forked
        // monitor). Invalidate it so the next run world-loads the reset
        // registers instead of resuming the stale frame — and does not
        // save the stale frame back over them.
        if self.current == Some(id.0) {
            self.current = None;
        }
    }

    /// The virtual console HALT command.
    pub fn halt_vm(&mut self, id: VmId) {
        self.vms[id.0].vm.state = VmState::ConsoleHalt;
    }

    /// The virtual console CONTINUE command.
    pub fn continue_vm(&mut self, id: VmId) {
        if self.vms[id.0].vm.state == VmState::ConsoleHalt {
            self.vms[id.0].vm.state = VmState::Ready;
        }
    }

    /// Drains a VM's virtual console output.
    pub fn vm_console_output(&mut self, id: VmId) -> Vec<u8> {
        std::mem::take(&mut self.vms[id.0].vm.console_out)
    }

    /// True when every VM is halted at its virtual console with no disk
    /// operation in flight — the state a warm serving base must be in
    /// before it is captured and forked per request: a forked child then
    /// owes nothing to events scheduled before the fork, so its run is a
    /// pure function of the injected payload.
    pub fn is_quiescent(&self) -> bool {
        self.vms
            .iter()
            .all(|s| s.vm.state == VmState::ConsoleHalt && s.vm.vdisk_pending.is_none())
    }

    // ---- scheduling ----

    fn runnable(&mut self) -> Option<usize> {
        let now = self.machine.cycles();
        let n = self.vms.len();
        if n == 0 {
            return None;
        }
        let start = self.current.map_or(0, |c| (c + 1) % n);
        for off in 0..n {
            let i = (start + off) % n;
            let vm = &mut self.vms[i].vm;
            match vm.state {
                VmState::Ready => return Some(i),
                VmState::Idle { until } => {
                    if vm.has_wake_event() || now >= until {
                        vm.state = VmState::Ready;
                        return Some(i);
                    }
                }
                VmState::ConsoleHalt => {}
            }
        }
        None
    }

    /// Earliest future event that could make an idle VM runnable.
    fn next_wake(&self) -> Option<u64> {
        let mut best: Option<u64> = None;
        for slot in &self.vms {
            if let VmState::Idle { until } = slot.vm.state {
                best = Some(best.map_or(until, |b: u64| b.min(until)));
            }
            if let Some((at, _, _)) = slot.vm.vdisk_pending {
                best = Some(best.map_or(at, |b: u64| b.min(at)));
            }
        }
        best
    }

    fn world_save(&mut self, idx: usize) {
        let vm = &mut self.vms[idx].vm;
        for i in 0..16 {
            vm.regs[i] = self.machine.reg(i);
        }
        vm.psl_flags = self.machine.psl();
    }

    fn world_load(&mut self, idx: usize) {
        let (sbr, slr, p0br, p0lr, p1br, p1lr) = {
            let slot = &self.vms[idx];
            slot.shadow.real_mmu_bases(&slot.vm)
        };
        let vm = &self.vms[idx].vm;
        let mut psl = Psl::new();
        psl.set_cur_mode(compress_mode(vm.vmpsl.cur_mode()));
        psl.set_prv_mode(compress_mode(vm.vmpsl.prv_mode()));
        for flag in [Psl::C, Psl::V, Psl::Z, Psl::N, Psl::T, Psl::IV] {
            psl.set_flag(flag, vm.psl_flags.flag(flag));
        }
        let regs = vm.regs;
        self.machine.set_psl(psl);
        for (i, r) in regs.iter().enumerate() {
            self.machine.set_reg(i, *r);
        }
        let mmu = self.machine.mmu_mut();
        mmu.set_sbr(sbr);
        mmu.set_slr(slr);
        mmu.set_p0br(p0br);
        mmu.set_p0lr(p0lr);
        mmu.set_p1br(p1br);
        mmu.set_p1lr(p1lr);
        mmu.set_mapen(true);
        mmu.tlb_mut().invalidate_all();
        // World switches rewrite the whole MMU outside write_ipr, so the
        // machine's own decode-cache hooks never see them.
        self.machine.invalidate_decode_cache();
    }

    /// Refreshes the real MMU base registers after an emulation changed
    /// the guest's memory-management state.
    pub(crate) fn refresh_mmu(&mut self, idx: usize) {
        let (sbr, slr, p0br, p0lr, p1br, p1lr) = {
            let slot = &self.vms[idx];
            slot.shadow.real_mmu_bases(&slot.vm)
        };
        let mmu = self.machine.mmu_mut();
        mmu.set_sbr(sbr);
        mmu.set_slr(slr);
        mmu.set_p0br(p0br);
        mmu.set_p0lr(p0lr);
        mmu.set_p1br(p1br);
        mmu.set_p1lr(p1lr);
    }

    fn resume(&mut self, idx: usize) {
        let vmpsl = self.vms[idx].vm.vmpsl;
        self.machine.enter_vm(vmpsl);
    }

    /// Refreshes the uptime cell the guest registered (paper §5, "Time").
    fn publish_uptime(&mut self, idx: usize) {
        let vm = &self.vms[idx].vm;
        if let Some(cell) = vm.uptime_cell {
            let ticks = (self.machine.cycles() / 10_000) as u32;
            if let Some(pa) = vm.gpa_to_pa_len(cell, 4) {
                let _ = self.machine.mem_mut().write_u32(pa, ticks);
            }
        }
    }

    /// Completes a due virtual disk operation, if any.
    fn complete_vdisk(&mut self, idx: usize) {
        let now = self.machine.cycles();
        let due = match self.vms[idx].vm.vdisk_pending {
            Some((at, irq, status_gpa)) if now >= at => Some((irq, status_gpa)),
            _ => None,
        };
        if let Some((irq, status_gpa)) = due {
            self.vms[idx].vm.vdisk_pending = None;
            if let Some(pa) = self.vms[idx].vm.gpa_to_pa_len(status_gpa, 4) {
                let _ = self.machine.mem_mut().write_u32(pa, 1);
            }
            self.vms[idx].vm.pend_virq(irq);
        }
    }

    /// Runs VMs until `budget` machine cycles have elapsed or every VM
    /// has halted.
    pub fn run(&mut self, budget: u64) -> RunExit {
        // Saturate: a caller may pass u64::MAX for "no budget".
        let deadline = self.machine.cycles().saturating_add(budget);
        loop {
            if self.machine.cycles() >= deadline {
                return RunExit::BudgetExhausted;
            }
            for i in 0..self.vms.len() {
                self.complete_vdisk(i);
            }
            let Some(idx) = self.runnable() else {
                // Nothing runnable: advance time to the next wake event.
                match self.next_wake() {
                    Some(at) if at < deadline => {
                        let now = self.machine.cycles();
                        self.machine.add_cycles(at.saturating_sub(now).max(1));
                        continue;
                    }
                    _ => {
                        return if self.vms.iter().all(|s| s.vm.state == VmState::ConsoleHalt) {
                            RunExit::AllHalted
                        } else {
                            RunExit::BudgetExhausted
                        };
                    }
                }
            };

            // World switch if needed.
            if self.current != Some(idx) {
                if let Some(prev) = self.current {
                    self.world_save(prev);
                }
                let switch_start = self.machine.cycles();
                self.world_load(idx);
                self.charge(self.config.costs.world_switch);
                self.world_switches += 1;
                self.current = Some(idx);
                if self.obs.is_on() {
                    let (pc, ring) = {
                        let vm = &self.vms[idx].vm;
                        (vm.regs[15], vm.vmpsl.cur_mode().bits() as u8)
                    };
                    self.obs
                        .exit_begin(ExitCause::WorldSwitch, pc, ring, switch_start);
                    self.obs.exit_end(self.machine.cycles());
                }
            }
            self.publish_uptime(idx);

            let slice_start = self.machine.cycles();
            let slice_end = (slice_start + self.config.quantum).min(deadline);
            self.resume(idx);
            let mut reschedule = false;
            let mut timer_mark = slice_start;
            while !reschedule && self.machine.cycles() < slice_end {
                // Complete due virtual disk I/O so polling guests make
                // progress within their slice.
                self.complete_vdisk(idx);
                // Advance the VM's interval clock by the cycles it just
                // consumed — it runs only while the VM runs (paper §5).
                let now = self.machine.cycles();
                if self.vms[idx].vm.vtimer.advance(now - timer_mark) {
                    self.vms[idx].vm.pend_virq(VirtualIrq {
                        ipl: 24,
                        vector: ScbVector::IntervalTimer.offset() as u16,
                    });
                    self.vms[idx].vm.uptime_ticks = self.vms[idx].vm.uptime_ticks.wrapping_add(1);
                }
                timer_mark = now;
                // Virtual interrupt delivery point.
                if let Some(irq) = self.vms[idx].vm.deliverable_virq() {
                    self.deliver_virq(idx, irq);
                }
                match self.machine.step() {
                    StepEvent::Ok => {}
                    StepEvent::Halted(_) => {
                        // Double faults at machine level cannot happen in
                        // VM mode; contain defensively with the reason
                        // recorded.
                        self.security_halt(
                            idx,
                            VmmError::Internal {
                                what: "real machine halt in VM mode",
                            },
                        );
                        reschedule = true;
                    }
                    StepEvent::VmExit(exit) => {
                        if self.obs.is_on() {
                            let (cause, trap_pc) = Self::classify_exit(&exit);
                            let pc = trap_pc.unwrap_or_else(|| self.machine.pc());
                            let ring = self.vms[idx].vm.vmpsl.cur_mode().bits() as u8;
                            // The stamp predates the microcode's trap-entry
                            // charge, so the cost histogram covers the full
                            // exit-to-resume path, hardware half included.
                            self.obs
                                .exit_begin(cause, pc, ring, self.machine.last_exit_cycles());
                        }
                        reschedule = !self.handle_exit(idx, exit);
                        self.obs.exit_end(self.machine.cycles());
                        if !reschedule {
                            self.resume(idx);
                        }
                    }
                }
            }
            // Stop the VM clock: save context, advance its virtual timer
            // by the cycles it consumed.
            let ran = self.machine.cycles() - slice_start;
            {
                let vm = &mut self.vms[idx].vm;
                vm.stats.cycles_run += ran;
            }
            // Leave VM mode while the VMM deliberates.
            if self.machine.in_vm() {
                let mut psl = self.machine.psl();
                psl.set_vm(false);
                self.machine.set_psl(psl);
            }
            self.world_save(idx);
        }
    }
}
