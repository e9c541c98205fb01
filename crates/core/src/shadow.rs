//! Shadow page tables (paper §4.3): the only tables the microcode sees.
//!
//! For every page in the VM's virtual address space there is a PTE in the
//! VM's own page table and a corresponding *shadow* PTE that the VMM
//! derives from it: the guest PFN translated to a real PFN and the guest
//! protection code passed through [`Protection::ring_compressed`]. Shadow
//! entries start as the *null PTE* (invalid but granting all access), so
//! the first touch of a page always passes the hardware protection check
//! and then faults translation-not-valid into the VMM, which fills the
//! entry on demand (§4.3.1).
//!
//! The module also implements the §7.2 optimization: a cache of shadow
//! process-table pairs keyed by guest PCBB, so that re-running a recently
//! suspended guest process does not re-take a fill fault for every page
//! it had touched. As the paper admits, this caching is not fully robust
//! against a guest that edits a *switched-out* process's valid PTEs
//! without a TB invalidate — real VAX operating systems do not do that.

use crate::fault::VmmError;
use crate::layout::{table_frames, FrameAllocator};
use crate::vm::{DirtyStrategy, Vm};
use vax_arch::va::{Region, VirtAddr, PAGE_BYTES, PAGE_SHIFT, S_BASE};
use vax_arch::{AccessMode, Exception, Protection, Pte};
use vax_cpu::Machine;

/// Total number of P1 virtual pages (21-bit VPN space).
const P1_VPNS: u32 = 1 << 21;

/// Shadow-table configuration.
#[derive(Debug, Clone, Copy)]
pub struct ShadowConfig {
    /// Guest S-space capacity in pages (the §5 "virtual memory limit").
    pub s_capacity: u32,
    /// Guest P0 capacity in pages.
    pub p0_capacity: u32,
    /// Guest P1 capacity in pages (topmost pages of P1).
    pub p1_capacity: u32,
    /// Number of cached shadow process-table pairs (§7.2). 1 reproduces
    /// the unoptimized system: every context switch invalidates.
    pub cache_slots: usize,
    /// On a fill, also translate this many consecutive PTEs (1 = pure
    /// on-demand). The §4.3.1 prefill ablation.
    pub prefill_group: u32,
}

impl Default for ShadowConfig {
    fn default() -> ShadowConfig {
        ShadowConfig {
            s_capacity: crate::layout::DEFAULT_GUEST_S_PAGES,
            p0_capacity: crate::layout::DEFAULT_GUEST_P0_PAGES,
            p1_capacity: crate::layout::DEFAULT_GUEST_P1_PAGES,
            cache_slots: 1,
            prefill_group: 1,
        }
    }
}

/// One cached shadow process-table pair.
#[derive(Debug, Clone, Copy)]
pub struct ShadowSlot {
    /// Guest PCBB this slot currently shadows, if any.
    pub key: Option<u32>,
    /// Physical base of the shadow P0 table.
    pub p0_pa: u32,
    /// S-space VA the shadow P0 table is mapped at (real P0BR value).
    pub p0_va: u32,
    /// Physical base of the shadow P1 table.
    pub p1_pa: u32,
    /// S-space VA of the shadow P1 table start.
    pub p1_va: u32,
    /// LRU stamp.
    pub last_used: u64,
}

/// The snapshot-portable half of a [`ShadowSet`]: slot keys, LRU state,
/// and counters. The table *contents* (shadow PTEs) live in real memory
/// frames and travel with the physical-memory image; the frame addresses
/// themselves are deterministic from reconstruction ([`ShadowSet::new`]
/// with the same [`FrameAllocator`] sequence re-derives them), so only
/// the bookkeeping needs to cross the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowCacheState {
    /// Guest PCBB key per slot, in slot order.
    pub keys: Vec<Option<u32>>,
    /// LRU stamp per slot, in slot order.
    pub last_used: Vec<u64>,
    /// Index of the active slot.
    pub active: usize,
    /// The LRU clock.
    pub clock: u64,
    /// Lifetime slot evictions.
    pub evictions: u64,
    /// Lifetime whole-set invalidations.
    pub invalidations: u64,
}

/// What a fill attempt concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FillOutcome {
    /// Shadow updated; re-execute the faulting instruction.
    Filled,
    /// The guest's own tables fault this access: reflect to the guest.
    Reflect(Exception),
    /// A contained VMM fault: the guest's privileged state references
    /// memory outside the VM (or translation is off and the reference is
    /// nonexistent). [`crate::Monitor`] applies the
    /// [`VmmError::containment`] policy — reflect a virtual machine
    /// check, or halt the VM with the reason recorded.
    Fault(VmmError),
}

/// Reads a longword from real memory the VMM has already validated: its
/// own shadow/SPT frames (from [`FrameAllocator::alloc`], always inside
/// machine memory) or guest frames bounds-checked against the VM
/// partition. Failure here is a VMM bug, not a guest-reachable
/// condition, hence the allowed panic.
#[allow(clippy::expect_used)]
pub(crate) fn vmm_read_u32(machine: &Machine, pa: u32) -> u32 {
    machine.mem().read_u32(pa).expect("validated VMM memory")
}

/// Writes a longword to validated real memory; see [`vmm_read_u32`].
#[allow(clippy::expect_used)]
pub(crate) fn vmm_write_u32(machine: &mut Machine, pa: u32, value: u32) {
    machine
        .mem_mut()
        .write_u32(pa, value)
        .expect("validated VMM memory");
}

/// The complete shadow state for one VM.
#[derive(Debug, Clone)]
pub struct ShadowSet {
    config: ShadowConfig,
    /// Physical base of this VM's real system page table.
    real_spt_pa: u32,
    /// Total entries in the real SPT (guest window + VMM region).
    real_spt_entries: u32,
    slots: Vec<ShadowSlot>,
    active: usize,
    clock: u64,
    /// Occupied slots evicted by [`ShadowSet::switch_process`] misses —
    /// how often the §7.2 cache was too small for the working set.
    evictions: u64,
    /// Whole-set invalidations (guest TBIA / MAPEN flips / base-register
    /// rewrites) that discarded cached shadow state.
    invalidations: u64,
}

impl ShadowSet {
    /// Allocates and initializes the shadow state for one VM: the real
    /// SPT (guest window nulled) and `cache_slots` process-table pairs
    /// mapped into the VMM region above the boundary.
    pub fn new(
        machine: &mut Machine,
        falloc: &mut FrameAllocator,
        config: ShadowConfig,
    ) -> ShadowSet {
        let set = ShadowSet::reserve(falloc, config);
        set.write_tables(machine);
        set
    }

    /// Replays [`ShadowSet::new`]'s frame allocation — the same frames,
    /// slots and VMM-region addresses — without writing the tables, for
    /// a machine whose memory already holds them (snapshot restore,
    /// copy-on-write fork).
    pub(crate) fn reserve(falloc: &mut FrameAllocator, config: ShadowConfig) -> ShadowSet {
        assert!(config.cache_slots >= 1);
        assert!(config.prefill_group >= 1);
        let p0_frames = table_frames(config.p0_capacity);
        let p1_frames = table_frames(config.p1_capacity);
        let vmm_region_pages = config.cache_slots as u32 * (p0_frames + p1_frames);
        let spt_entries = config.s_capacity + vmm_region_pages;
        let spt_pfn = falloc.alloc(table_frames(spt_entries));
        // The VMM region of the real SPT maps each slot's P0 then P1
        // table frames, in slot order, from the boundary up.
        let mut vmm_vpn = config.s_capacity;
        let mut slots = Vec::with_capacity(config.cache_slots);
        for _ in 0..config.cache_slots {
            let p0_pfn = falloc.alloc(p0_frames);
            let p1_pfn = falloc.alloc(p1_frames);
            let p0_va = S_BASE + (vmm_vpn << PAGE_SHIFT);
            let p1_va = p0_va + (p0_frames << PAGE_SHIFT);
            vmm_vpn += p0_frames + p1_frames;
            slots.push(ShadowSlot {
                key: None,
                p0_pa: p0_pfn << PAGE_SHIFT,
                p0_va,
                p1_pa: p1_pfn << PAGE_SHIFT,
                p1_va,
                last_used: 0,
            });
        }
        ShadowSet {
            config,
            real_spt_pa: spt_pfn << PAGE_SHIFT,
            real_spt_entries: spt_entries,
            slots,
            active: 0,
            clock: 0,
            evictions: 0,
            invalidations: 0,
        }
    }

    /// Writes a fresh set's tables: the guest S window of the real SPT
    /// nulled (inaccessible until the guest sets SLR), and every slot's
    /// process tables mapped kernel-protected into the VMM region and
    /// null-filled.
    fn write_tables(&self, machine: &mut Machine) {
        for vpn in 0..self.config.s_capacity {
            self.write_real_spt(machine, vpn, Pte::build(0, Protection::Na, false, false));
        }
        let p0_frames = table_frames(self.config.p0_capacity);
        let p1_frames = table_frames(self.config.p1_capacity);
        for slot in &self.slots {
            self.map_vmm_frames(machine, slot.p0_va, slot.p0_pa, p0_frames);
            self.map_vmm_frames(machine, slot.p1_va, slot.p1_pa, p1_frames);
            null_fill(machine, slot.p0_pa, self.config.p0_capacity);
            null_fill(machine, slot.p1_pa, self.config.p1_capacity);
        }
    }

    fn write_real_spt(&self, machine: &mut Machine, vpn: u32, pte: Pte) {
        vmm_write_u32(machine, self.real_spt_pa + 4 * vpn, pte.raw());
    }

    /// Maps the `count` frames at physical `pa` kernel-protected at S VA
    /// `va` in the VMM region of this VM's real SPT.
    fn map_vmm_frames(&self, machine: &mut Machine, va: u32, pa: u32, count: u32) {
        let first_vpn = (va - S_BASE) >> PAGE_SHIFT;
        for i in 0..count {
            let pte = Pte::build((pa >> PAGE_SHIFT) + i, Protection::Kw, true, true);
            self.write_real_spt(machine, first_vpn + i, pte);
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> ShadowConfig {
        self.config
    }

    /// Occupied process-table slots evicted on cache misses.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Whole-set invalidations that discarded cached shadow state.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Captures the snapshot-portable shadow bookkeeping (§7.2 cache keys,
    /// LRU state, counters). Pairs with [`ShadowSet::import_cache_state`].
    pub fn export_cache_state(&self) -> ShadowCacheState {
        ShadowCacheState {
            keys: self.slots.iter().map(|s| s.key).collect(),
            last_used: self.slots.iter().map(|s| s.last_used).collect(),
            active: self.active,
            clock: self.clock,
            evictions: self.evictions,
            invalidations: self.invalidations,
        }
    }

    /// Reinstates shadow bookkeeping captured by
    /// [`ShadowSet::export_cache_state`] into a freshly constructed set
    /// with the same `cache_slots`. The shadow table contents must be
    /// restored separately via the physical-memory image.
    ///
    /// # Panics
    ///
    /// Panics if the state's slot count or active index does not match
    /// this set's configuration; snapshot loaders validate first.
    pub fn import_cache_state(&mut self, state: ShadowCacheState) {
        assert_eq!(state.keys.len(), self.slots.len(), "slot count mismatch");
        assert_eq!(state.last_used.len(), self.slots.len());
        assert!(state.active < self.slots.len(), "active slot out of range");
        for (slot, (key, last_used)) in self
            .slots
            .iter_mut()
            .zip(state.keys.into_iter().zip(state.last_used))
        {
            slot.key = key;
            slot.last_used = last_used;
        }
        self.active = state.active;
        self.clock = state.clock;
        self.evictions = state.evictions;
        self.invalidations = state.invalidations;
    }

    /// Values for the real MMU base registers while this VM runs:
    /// `(sbr, slr, p0br, p0lr, p1br, p1lr)`.
    pub fn real_mmu_bases(&self, vm: &Vm) -> (u32, u32, u32, u32, u32, u32) {
        let slot = &self.slots[self.active];
        // While the guest runs with translation off, its "virtual"
        // addresses are guest-physical: open the whole shadow P0 window
        // so identity fills can happen on demand.
        let p0lr = if vm.guest_mapen {
            vm.guest_p0lr.min(self.config.p0_capacity)
        } else {
            self.config.p0_capacity
        };
        let p1_floor = P1_VPNS - self.config.p1_capacity;
        let p1lr = vm.guest_p1lr.max(p1_floor);
        // P1BR is biased so that entry for VPN v sits at p1br + 4v.
        let p1br = slot.p1_va.wrapping_sub(4 * p1_floor);
        (
            self.real_spt_pa,
            self.real_spt_entries,
            slot.p0_va,
            p0lr,
            p1br,
            p1lr,
        )
    }

    /// Physical address of the shadow PTE covering `va`, or `None` if the
    /// address is outside the shadowed capacity.
    pub fn shadow_pte_pa(&self, va: VirtAddr) -> Option<u32> {
        let vpn = va.vpn();
        let slot = &self.slots[self.active];
        match va.region() {
            Region::S => (vpn < self.config.s_capacity).then(|| self.real_spt_pa + 4 * vpn),
            Region::P0 => (vpn < self.config.p0_capacity).then(|| slot.p0_pa + 4 * vpn),
            Region::P1 => {
                let floor = P1_VPNS - self.config.p1_capacity;
                (vpn >= floor).then(|| slot.p1_pa + 4 * (vpn - floor))
            }
            Region::Reserved => None,
        }
    }

    /// Reads a shadow PTE.
    pub fn read_shadow(&self, machine: &Machine, va: VirtAddr) -> Option<Pte> {
        let pa = self.shadow_pte_pa(va)?;
        Some(Pte::from_raw(vmm_read_u32(machine, pa)))
    }

    /// Resets the guest S window for a new guest SBR/SLR.
    pub fn reset_guest_s(&mut self, machine: &mut Machine, guest_slr: u32) {
        let usable = guest_slr.min(self.config.s_capacity);
        for vpn in 0..usable {
            self.write_real_spt(machine, vpn, Pte::NULL);
        }
        for vpn in usable..self.config.s_capacity {
            self.write_real_spt(machine, vpn, Pte::build(0, Protection::Na, false, false));
        }
        machine.mmu_mut().tlb_mut().invalidate_all();
    }

    /// Invalidate the shadow PTE for one page (guest TBIS).
    pub fn invalidate_single(&mut self, machine: &mut Machine, guest_slr: u32, va: VirtAddr) {
        if let Some(pa) = self.shadow_pte_pa(va) {
            let pte = if va.region() == Region::S && va.vpn() >= guest_slr {
                Pte::build(0, Protection::Na, false, false)
            } else {
                Pte::NULL
            };
            vmm_write_u32(machine, pa, pte.raw());
        }
        machine.mmu_mut().tlb_mut().invalidate_single(va);
    }

    /// Invalidate everything (guest TBIA): the S window and every cached
    /// process slot.
    pub fn invalidate_all(&mut self, machine: &mut Machine, guest_slr: u32) {
        self.invalidations += 1;
        self.reset_guest_s(machine, guest_slr);
        for i in 0..self.slots.len() {
            let slot = self.slots[i];
            null_fill(machine, slot.p0_pa, self.config.p0_capacity);
            null_fill(machine, slot.p1_pa, self.config.p1_capacity);
            self.slots[i].key = None;
        }
        machine.mmu_mut().tlb_mut().invalidate_all();
    }

    /// Clears the active slot's process tables (guest changed P0/P1 base
    /// registers directly).
    pub fn reset_active_process(&mut self, machine: &mut Machine) {
        let slot = self.slots[self.active];
        null_fill(machine, slot.p0_pa, self.config.p0_capacity);
        null_fill(machine, slot.p1_pa, self.config.p1_capacity);
        self.slots[self.active].key = None;
        machine.mmu_mut().tlb_mut().invalidate_process();
    }

    /// Switches the active shadow process tables for a guest context
    /// switch to the process whose PCB is at `pcbb` (§7.2 cache).
    /// Returns `true` on a cache hit (previously valid shadow PTEs are
    /// preserved and no refill faults will be taken for them).
    pub fn switch_process(&mut self, machine: &mut Machine, pcbb: u32) -> bool {
        self.clock += 1;
        let hit = self.slots.iter().position(|s| s.key == Some(pcbb));
        let (idx, hit) = match hit {
            Some(i) => (i, true),
            None => {
                // Evict the least recently used slot (the constructor
                // asserts there is at least one).
                let lru = self
                    .slots
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, s)| s.last_used)
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                let slot = self.slots[lru];
                if slot.key.is_some() {
                    self.evictions += 1;
                }
                null_fill(machine, slot.p0_pa, self.config.p0_capacity);
                null_fill(machine, slot.p1_pa, self.config.p1_capacity);
                self.slots[lru].key = Some(pcbb);
                (lru, false)
            }
        };
        self.slots[idx].last_used = self.clock;
        self.active = idx;
        // The real TLB's process half always goes: its entries are tagged
        // by VA, not by address space.
        machine.mmu_mut().tlb_mut().invalidate_process();
        hit
    }

    /// Locates the guest PTE for `va` and reads it (public within the
    /// crate for the PROBE and MMIO paths).
    pub(crate) fn guest_pte(
        &self,
        machine: &Machine,
        vm: &Vm,
        va: VirtAddr,
    ) -> Result<(Pte, u32), FillOutcome> {
        if !vm.guest_mapen {
            // Translation off in the guest: guest VAs are guest-physical.
            if va.raw() < vm.mem_bytes() {
                // Synthesize an identity PTE; there is no guest PTE to
                // write back to (pa = 0 sentinel is never used because
                // modify faults cannot occur: synthesized PTEs have M set).
                return Ok((Pte::build(va.vpn(), Protection::Uw, true, true), 0));
            }
            return Err(FillOutcome::Fault(VmmError::NonexistentMemory {
                gpa: va.raw(),
            }));
        }
        let vpn = va.vpn();
        let gpte_pa = match va.region() {
            Region::S => {
                if vpn >= vm.guest_slr {
                    return Err(FillOutcome::Reflect(length_violation(va)));
                }
                // The whole PTE longword must lie inside the VM: a guest
                // SBR at mem_bytes - {1,2,3} would otherwise read bytes
                // from the adjacent VM's frames, and the add itself can
                // wrap for an SBR near 2^32.
                let gpa = vm.guest_sbr.checked_add(4 * vpn);
                match gpa.and_then(|g| vm.gpa_to_pa_len(g, 4)) {
                    Some(pa) => pa,
                    None => {
                        return Err(FillOutcome::Fault(VmmError::PageTableWalk {
                            gpa: gpa.unwrap_or(u32::MAX),
                        }))
                    }
                }
            }
            Region::P0 | Region::P1 => {
                let (base, ok) = if va.region() == Region::P0 {
                    (vm.guest_p0br, vpn < vm.guest_p0lr)
                } else {
                    (vm.guest_p1br, vpn >= vm.guest_p1lr)
                };
                if !ok {
                    return Err(FillOutcome::Reflect(length_violation(va)));
                }
                let pte_sva = VirtAddr::new(base.wrapping_add(4 * vpn));
                if pte_sva.region() != Region::S {
                    return Err(FillOutcome::Fault(VmmError::ProcessBaseNotS { base }));
                }
                // Walk the guest SPT in software for the PTE's page.
                let s_vpn = pte_sva.vpn();
                if s_vpn >= vm.guest_slr {
                    return Err(FillOutcome::Reflect(Exception::AccessViolation {
                        va,
                        write: false,
                        length: true,
                        pte_ref: true,
                    }));
                }
                let spte_gpa = vm.guest_sbr.checked_add(4 * s_vpn);
                let spte_pa = match spte_gpa.and_then(|g| vm.gpa_to_pa_len(g, 4)) {
                    Some(pa) => pa,
                    None => {
                        return Err(FillOutcome::Fault(VmmError::PageTableWalk {
                            gpa: spte_gpa.unwrap_or(u32::MAX),
                        }))
                    }
                };
                let spte = Pte::from_raw(vmm_read_u32(machine, spte_pa));
                if !spte.valid() {
                    return Err(FillOutcome::Reflect(Exception::TranslationNotValid {
                        va,
                        write: false,
                        pte_ref: true,
                    }));
                }
                let Some(pfn) = vm.gpfn_to_pfn(spte.pfn()) else {
                    return Err(FillOutcome::Fault(VmmError::PteFrame { gpfn: spte.pfn() }));
                };
                let off = pte_sva.raw() & (PAGE_BYTES - 1);
                if off > PAGE_BYTES - 4 {
                    // An unaligned guest PxBR can park the PTE across a
                    // page boundary; reading on would leave the validated
                    // frame (possibly leaving the VM entirely).
                    return Err(FillOutcome::Fault(VmmError::PageTableWalk {
                        gpa: (spte.pfn() << PAGE_SHIFT) | off,
                    }));
                }
                (pfn << PAGE_SHIFT) | off
            }
            Region::Reserved => {
                return Err(FillOutcome::Reflect(length_violation(va)));
            }
        };
        // gpte_pa came from a range-checked walk above, and both branches
        // keep the full longword inside the validated frame/partition.
        let gpte = Pte::from_raw(vmm_read_u32(machine, gpte_pa));
        Ok((gpte, gpte_pa))
    }

    /// Builds the shadow PTE value for a guest PTE, applying the ring
    /// compression translation and the dirty-bit strategy.
    fn shadow_value(&self, vm: &Vm, gpte: Pte) -> Result<Pte, FillOutcome> {
        let Some(pfn) = vm.gpfn_to_pfn(gpte.pfn()) else {
            return Err(FillOutcome::Fault(VmmError::PteFrame { gpfn: gpte.pfn() }));
        };
        let mut prot = gpte.protection().ring_compressed();
        let mut modified = gpte.modified();
        if vm.dirty_strategy == DirtyStrategy::ReadOnlyShadow && !gpte.modified() {
            // Rejected alternative (§4.4.2): write-protect clean pages so
            // the first write faults as an access violation.
            prot = read_only_equivalent(prot);
            modified = true; // hardware M-machinery disabled for this page
        }
        Ok(Pte::build(pfn, prot, true, modified))
    }

    /// Services a translation-not-valid exit for `va`: the on-demand fill
    /// of §4.3.1 (plus the optional prefill-group ablation).
    pub fn fill(&mut self, machine: &mut Machine, vm: &mut Vm, va: VirtAddr) -> FillOutcome {
        let Some(shadow_pa) = self.shadow_pte_pa(va) else {
            return FillOutcome::Reflect(length_violation(va));
        };
        let (gpte, _) = match self.guest_pte(machine, vm, va) {
            Ok(x) => x,
            Err(out) => return out,
        };
        if !gpte.valid() {
            // The guest's own page fault.
            vm.stats.guest_page_faults += 1;
            return FillOutcome::Reflect(Exception::TranslationNotValid {
                va,
                write: false,
                pte_ref: false,
            });
        }
        let shadow = match self.shadow_value(vm, gpte) {
            Ok(s) => s,
            Err(out) => return out,
        };
        vmm_write_u32(machine, shadow_pa, shadow.raw());
        machine.mmu_mut().tlb_mut().invalidate_single(va);
        vm.stats.shadow_fills += 1;

        // Prefill ablation: translate following PTEs of the same region.
        for i in 1..self.config.prefill_group {
            let next = VirtAddr::new(va.page_base().raw().wrapping_add(i * PAGE_BYTES));
            if next.region() != va.region() {
                break;
            }
            let Some(next_pa) = self.shadow_pte_pa(next) else {
                break;
            };
            let Ok((gpte, _)) = self.guest_pte(machine, vm, next) else {
                break;
            };
            if !gpte.valid() {
                continue;
            }
            let Ok(shadow) = self.shadow_value(vm, gpte) else {
                break;
            };
            vmm_write_u32(machine, next_pa, shadow.raw());
            vm.stats.shadow_fills += 1;
        }
        FillOutcome::Filled
    }

    /// Services a modify-fault exit (§4.4.2): set `PTE<M>` in both the
    /// shadow PTE and the VM's own PTE, so "the VM's page table accurately
    /// reflects the state of modified pages".
    pub fn modify_fault(
        &mut self,
        machine: &mut Machine,
        vm: &mut Vm,
        va: VirtAddr,
    ) -> FillOutcome {
        let Some(shadow_pa) = self.shadow_pte_pa(va) else {
            return FillOutcome::Reflect(length_violation(va));
        };
        let shadow = Pte::from_raw(vmm_read_u32(machine, shadow_pa));
        if !shadow.valid() {
            // Race shape: fault on a page whose shadow went away; refill.
            return self.fill(machine, vm, va);
        }
        vmm_write_u32(machine, shadow_pa, shadow.with_modified(true).raw());
        let (gpte, gpte_pa) = match self.guest_pte(machine, vm, va) {
            Ok(x) => x,
            Err(out) => return out,
        };
        if gpte_pa != 0 {
            vmm_write_u32(machine, gpte_pa, gpte.with_modified(true).raw());
        }
        machine.mmu_mut().tlb_mut().invalidate_single(va);
        vm.stats.modify_faults += 1;
        FillOutcome::Filled
    }

    /// Services an access-violation exit under the ReadOnlyShadow
    /// strategy: if the guest PTE actually permits the write, upgrade the
    /// shadow protection and set the modify bits. Returns `Filled` when
    /// upgraded, otherwise the exception to reflect.
    pub fn write_upgrade(
        &mut self,
        machine: &mut Machine,
        vm: &mut Vm,
        va: VirtAddr,
        real_mode: AccessMode,
    ) -> FillOutcome {
        let Some(shadow_pa) = self.shadow_pte_pa(va) else {
            return FillOutcome::Reflect(length_violation(va));
        };
        let (gpte, gpte_pa) = match self.guest_pte(machine, vm, va) {
            Ok(x) => x,
            Err(out) => return out,
        };
        let true_prot = gpte.protection().ring_compressed();
        if gpte.valid() && true_prot.allows_write(real_mode) {
            let Some(pfn) = vm.gpfn_to_pfn(gpte.pfn()) else {
                return FillOutcome::Fault(VmmError::PteFrame { gpfn: gpte.pfn() });
            };
            vmm_write_u32(
                machine,
                shadow_pa,
                Pte::build(pfn, true_prot, true, true).raw(),
            );
            if gpte_pa != 0 {
                vmm_write_u32(machine, gpte_pa, gpte.with_modified(true).raw());
            }
            machine.mmu_mut().tlb_mut().invalidate_single(va);
            vm.stats.dirty_upgrades += 1;
            return FillOutcome::Filled;
        }
        FillOutcome::Reflect(Exception::AccessViolation {
            va,
            write: true,
            length: false,
            pte_ref: false,
        })
    }
}

/// The guest-visible fault for an out-of-bounds reference.
fn length_violation(va: VirtAddr) -> Exception {
    Exception::AccessViolation {
        va,
        write: false,
        length: true,
        pte_ref: false,
    }
}

/// The most permissive read-only code covering the readers of `prot`.
fn read_only_equivalent(prot: Protection) -> Protection {
    match prot.read_mode() {
        None => Protection::Na,
        Some(AccessMode::Kernel) => Protection::Kr,
        Some(AccessMode::Executive) => Protection::Er,
        Some(AccessMode::Supervisor) => Protection::Sr,
        Some(AccessMode::User) => Protection::Ur,
    }
}

/// Fills a table with the null PTE.
fn null_fill(machine: &mut Machine, table_pa: u32, entries: u32) {
    for i in 0..entries {
        vmm_write_u32(machine, table_pa + 4 * i, Pte::NULL.raw());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_only_equivalents_preserve_readers() {
        for p in Protection::ALL {
            let ro = read_only_equivalent(p);
            for m in AccessMode::ALL {
                assert_eq!(ro.allows_read(m), p.allows_read(m), "{p} -> {ro} {m}");
                assert!(!ro.allows_write(m), "{ro} must be read-only");
            }
        }
    }

    #[test]
    fn length_violation_shape() {
        let e = length_violation(VirtAddr::new(0x1234));
        assert!(matches!(e, Exception::AccessViolation { length: true, .. }));
    }
}
