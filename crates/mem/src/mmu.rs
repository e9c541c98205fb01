//! The memory-management unit: page-table walk, TLB, and the
//! protection/valid/modify check sequence.

use crate::fault::MemFault;
use crate::phys::PhysMemory;
use crate::tlb::{is_process_region, Tlb, TlbEntry, TlbState};
use vax_arch::va::{Region, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use vax_arch::{AccessMode, CostModel, Pte};

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Translation {
    /// The physical byte address.
    pub pa: u32,
    /// Extra cycles charged (TLB miss, modify-bit write-back).
    pub cycles: u64,
}

/// The result of a PROBE-style accessibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeOutcome {
    /// Protection permits the access from the checked mode.
    pub accessible: bool,
    /// The PTE's valid bit. On the modified VAX, a PROBE in VM mode with
    /// `pte_valid == false` must trap to the VMM (paper §4.3.2) because
    /// an invalid shadow PTE's protection field is not meaningful.
    pub pte_valid: bool,
    /// Cached `PTE<M>` state (used by PROBEVM's three-part check).
    pub pte_modified: bool,
    /// Extra cycles charged.
    pub cycles: u64,
}

/// Event counters kept by the MMU.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemCounters {
    /// Completed page-table walks.
    pub walks: u64,
    /// Modify bits set by hardware (base-architecture mode only).
    pub m_bit_sets: u64,
    /// Modify faults raised (modified-architecture mode only).
    pub modify_faults: u64,
}

/// A plain-data image of an [`Mmu`] for snapshot/restore.
///
/// Imported through [`Mmu::import_state`] rather than the individual
/// setters because the setters invalidate TLB entries as the architecture
/// requires — a restore must instead reinstate the captured TLB exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MmuState {
    /// Translation enable.
    pub mapen: bool,
    /// P0 page-table base (S-space VA).
    pub p0br: u32,
    /// P0 page-table length (PTE count).
    pub p0lr: u32,
    /// P1 page-table base (S-space VA).
    pub p1br: u32,
    /// P1 page-table length register.
    pub p1lr: u32,
    /// System page-table base (physical).
    pub sbr: u32,
    /// System page-table length (PTE count).
    pub slr: u32,
    /// Modify-fault (modified VAX) vs hardware modify-bit mode.
    pub modify_fault_enabled: bool,
    /// MMU event counters.
    pub counters: MemCounters,
    /// The complete TLB image.
    pub tlb: TlbState,
}

/// Where a region's PTE for a given page lives.
enum PteLocation {
    /// System PTEs live at a physical address.
    Phys(u32),
    /// Process (P0/P1) PTEs live at a system-space virtual address.
    SysVirt(VirtAddr),
}

/// The memory-management unit.
///
/// Owns the per-region base/length registers, the TLB, and the switch
/// between hardware modify-bit maintenance (standard VAX) and the modify
/// fault (modified VAX, paper §4.4.2).
///
/// See the [crate-level example](crate) for basic usage.
#[derive(Debug, Clone)]
pub struct Mmu {
    mapen: bool,
    p0br: u32,
    p0lr: u32,
    p1br: u32,
    p1lr: u32,
    sbr: u32,
    slr: u32,
    tlb: Tlb,
    modify_fault_enabled: bool,
    counters: MemCounters,
}

impl Default for Mmu {
    fn default() -> Mmu {
        Mmu::new()
    }
}

impl Mmu {
    /// Creates an MMU with translation disabled and an empty TLB.
    pub fn new() -> Mmu {
        Mmu {
            mapen: false,
            p0br: 0,
            p0lr: 0,
            p1br: 0,
            p1lr: 0,
            sbr: 0,
            slr: 0,
            tlb: Tlb::default(),
            modify_fault_enabled: false,
            counters: MemCounters::default(),
        }
    }

    /// Enables or disables address translation (the MAPEN register).
    pub fn set_mapen(&mut self, on: bool) {
        self.mapen = on;
        self.tlb.invalidate_all();
    }

    /// True if translation is enabled.
    #[inline]
    pub fn mapen(&self) -> bool {
        self.mapen
    }

    /// Selects modify-fault behavior (modified VAX) instead of hardware
    /// modify-bit setting (standard VAX).
    pub fn set_modify_fault_enabled(&mut self, on: bool) {
        self.modify_fault_enabled = on;
    }

    /// True if modify faults are enabled.
    pub fn modify_fault_enabled(&self) -> bool {
        self.modify_fault_enabled
    }

    /// Sets the system page-table base (physical address).
    pub fn set_sbr(&mut self, pa: u32) {
        self.sbr = pa;
        self.tlb.invalidate_all();
    }

    /// Sets the system page-table length (PTE count).
    pub fn set_slr(&mut self, n: u32) {
        self.slr = n;
        self.tlb.invalidate_all();
    }

    /// Sets the P0 page-table base (S-space virtual address).
    pub fn set_p0br(&mut self, va: u32) {
        self.p0br = va;
        self.tlb.invalidate_process();
    }

    /// Sets the P0 page-table length (PTE count).
    pub fn set_p0lr(&mut self, n: u32) {
        self.p0lr = n;
        self.tlb.invalidate_process();
    }

    /// Sets the P1 page-table base (S-space virtual address).
    pub fn set_p1br(&mut self, va: u32) {
        self.p1br = va;
        self.tlb.invalidate_process();
    }

    /// Sets the P1 page-table length register.
    ///
    /// Per the architecture, P1 grows downward: pages with VPN **at or
    /// above** `P1LR` exist.
    pub fn set_p1lr(&mut self, n: u32) {
        self.p1lr = n;
        self.tlb.invalidate_process();
    }

    /// Loads all six base and length registers — (sbr, slr, p0br, p0lr,
    /// p1br, p1lr), the order [`Mmu::bases`] reads them back in — with
    /// one TLB flush: the six setters in turn would flush the whole TLB
    /// twice and scan it four times for process entries, every pass
    /// after the first finding nothing.
    pub fn load_bases(
        &mut self,
        (sbr, slr, p0br, p0lr, p1br, p1lr): (u32, u32, u32, u32, u32, u32),
    ) {
        self.sbr = sbr;
        self.slr = slr;
        self.p0br = p0br;
        self.p0lr = p0lr;
        self.p1br = p1br;
        self.p1lr = p1lr;
        self.tlb.invalidate_all();
    }

    /// Reads back (sbr, slr, p0br, p0lr, p1br, p1lr).
    pub fn bases(&self) -> (u32, u32, u32, u32, u32, u32) {
        (
            self.sbr, self.slr, self.p0br, self.p0lr, self.p1br, self.p1lr,
        )
    }

    /// The TLB, for invalidation (TBIA/TBIS) and statistics.
    pub fn tlb_mut(&mut self) -> &mut Tlb {
        &mut self.tlb
    }

    /// The TLB, read-only.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// MMU event counters.
    pub fn counters(&self) -> MemCounters {
        self.counters
    }

    /// Captures the complete MMU state (registers, counters, TLB).
    pub fn export_state(&self) -> MmuState {
        MmuState {
            mapen: self.mapen,
            p0br: self.p0br,
            p0lr: self.p0lr,
            p1br: self.p1br,
            p1lr: self.p1lr,
            sbr: self.sbr,
            slr: self.slr,
            modify_fault_enabled: self.modify_fault_enabled,
            counters: self.counters,
            tlb: self.tlb.export_state(),
        }
    }

    /// Replaces the complete MMU state, reinstating the captured TLB
    /// verbatim (no invalidations).
    ///
    /// # Panics
    ///
    /// Panics if the TLB image's slot count is not a power of two; see
    /// [`Tlb::import_state`].
    pub fn import_state(&mut self, state: MmuState) {
        self.mapen = state.mapen;
        self.p0br = state.p0br;
        self.p0lr = state.p0lr;
        self.p1br = state.p1br;
        self.p1lr = state.p1lr;
        self.sbr = state.sbr;
        self.slr = state.slr;
        self.modify_fault_enabled = state.modify_fault_enabled;
        self.counters = state.counters;
        self.tlb.import_state(state.tlb);
    }

    fn pte_location(&self, va: VirtAddr, write: bool) -> Result<PteLocation, MemFault> {
        let vpn = va.vpn();
        match va.region() {
            Region::P0 => {
                if vpn >= self.p0lr {
                    return Err(MemFault::AccessViolation {
                        va,
                        write,
                        length: true,
                        pte_ref: false,
                    });
                }
                Ok(PteLocation::SysVirt(VirtAddr::new(
                    self.p0br.wrapping_add(4 * vpn),
                )))
            }
            Region::P1 => {
                if vpn < self.p1lr {
                    return Err(MemFault::AccessViolation {
                        va,
                        write,
                        length: true,
                        pte_ref: false,
                    });
                }
                Ok(PteLocation::SysVirt(VirtAddr::new(
                    self.p1br.wrapping_add(4 * vpn),
                )))
            }
            Region::S => {
                if vpn >= self.slr {
                    return Err(MemFault::AccessViolation {
                        va,
                        write,
                        length: true,
                        pte_ref: false,
                    });
                }
                Ok(PteLocation::Phys(self.sbr.wrapping_add(4 * vpn)))
            }
            Region::Reserved => Err(MemFault::AccessViolation {
                va,
                write,
                length: true,
                pte_ref: false,
            }),
        }
    }

    /// Resolves the physical address of the PTE mapping `va`, walking the
    /// system table for process PTEs. Hardware PTE fetches bypass the
    /// protection check but honor the valid bit and length registers.
    fn resolve_pte_pa(
        &mut self,
        mem: &PhysMemory,
        va: VirtAddr,
        write: bool,
        costs: &CostModel,
        cycles: &mut u64,
    ) -> Result<u32, MemFault> {
        match self.pte_location(va, write)? {
            PteLocation::Phys(pa) => Ok(pa),
            PteLocation::SysVirt(pte_va) => {
                // A process-PTE reference outside S space is a malformed
                // base register (software-controllable state, so this
                // must fault, not panic); report it as a length
                // violation.
                if pte_va.region() != Region::S {
                    return Err(MemFault::AccessViolation {
                        va,
                        write,
                        length: true,
                        pte_ref: true,
                    });
                }
                // The PTE page itself may be cached in the TLB.
                if let Some(e) = self.tlb.lookup(pte_va) {
                    return Ok((e.pfn << PAGE_SHIFT) | pte_va.byte_offset());
                }
                *cycles += costs.tlb_miss_system;
                let svpn = pte_va.vpn();
                if svpn >= self.slr {
                    return Err(MemFault::AccessViolation {
                        va,
                        write,
                        length: true,
                        pte_ref: true,
                    });
                }
                let spte_pa = self.sbr.wrapping_add(4 * svpn);
                let spte = Pte::from_raw(mem.read_u32(spte_pa)?);
                if !spte.valid() {
                    return Err(MemFault::TranslationNotValid {
                        va,
                        write,
                        pte_ref: true,
                    });
                }
                self.tlb.insert(TlbEntry {
                    tag: pte_va.page_base().raw(),
                    pfn: spte.pfn(),
                    prot: spte.protection(),
                    modified: spte.modified(),
                    pte_pa: spte_pa,
                    process: false,
                });
                Ok((spte.pfn() << PAGE_SHIFT) | pte_va.byte_offset())
            }
        }
    }

    /// Translates `va` for an access of the given kind from `mode`.
    ///
    /// Follows the architectural check order: length, **protection even if
    /// the valid bit is clear**, validity, then modify-bit maintenance.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`]; see the variant docs.
    pub fn translate(
        &mut self,
        mem: &mut PhysMemory,
        va: VirtAddr,
        mode: AccessMode,
        write: bool,
        costs: &CostModel,
    ) -> Result<Translation, MemFault> {
        if !self.mapen {
            return Ok(Translation {
                pa: va.raw(),
                cycles: 0,
            });
        }
        let mut cycles = 0u64;

        if let Some(entry) = self.tlb.lookup(va) {
            if !entry.prot.allows(mode, write) {
                return Err(MemFault::AccessViolation {
                    va,
                    write,
                    length: false,
                    pte_ref: false,
                });
            }
            if write && !entry.modified {
                // Refresh from the PTE: software may have set M after a
                // modify fault without issuing a TB invalidate.
                let pte = Pte::from_raw(mem.read_u32(entry.pte_pa)?);
                if pte.modified() {
                    self.tlb.set_modified(va);
                } else if self.modify_fault_enabled {
                    self.counters.modify_faults += 1;
                    return Err(MemFault::ModifyFault { va });
                } else {
                    mem.write_u32(entry.pte_pa, pte.with_modified(true).raw())?;
                    self.tlb.set_modified(va);
                    self.counters.m_bit_sets += 1;
                    cycles += costs.set_modify_bit;
                }
            }
            return Ok(Translation {
                pa: (entry.pfn << PAGE_SHIFT) | va.byte_offset(),
                cycles,
            });
        }

        // TLB miss: walk.
        cycles += if is_process_region(va.region()) {
            costs.tlb_miss_process
        } else {
            costs.tlb_miss_system
        };
        self.counters.walks += 1;

        let pte_pa = self.resolve_pte_pa(mem, va, write, costs, &mut cycles)?;
        let pte = Pte::from_raw(mem.read_u32(pte_pa)?);

        // Protection first, even if V is clear (paper §3.2.1).
        if !pte.protection().allows(mode, write) {
            return Err(MemFault::AccessViolation {
                va,
                write,
                length: false,
                pte_ref: false,
            });
        }
        if !pte.valid() {
            return Err(MemFault::TranslationNotValid {
                va,
                write,
                pte_ref: false,
            });
        }
        let mut modified = pte.modified();
        if write && !modified {
            if self.modify_fault_enabled {
                self.counters.modify_faults += 1;
                return Err(MemFault::ModifyFault { va });
            }
            mem.write_u32(pte_pa, pte.with_modified(true).raw())?;
            self.counters.m_bit_sets += 1;
            cycles += costs.set_modify_bit;
            modified = true;
        }

        self.tlb.insert(TlbEntry {
            tag: va.page_base().raw(),
            pfn: pte.pfn(),
            prot: pte.protection(),
            modified,
            pte_pa,
            process: is_process_region(va.region()),
        });

        Ok(Translation {
            pa: (pte.pfn() << PAGE_SHIFT) | va.byte_offset(),
            cycles,
        })
    }

    /// PROBE-style accessibility check: reads the protection (and valid
    /// and modify bits) without performing the access and without
    /// modify-bit side effects.
    ///
    /// A length violation makes the page inaccessible rather than
    /// faulting. A fault is returned only for problems referencing a
    /// *process PTE* (as on the real machine) or nonexistent memory.
    ///
    /// # Errors
    ///
    /// [`MemFault::TranslationNotValid`] / [`MemFault::AccessViolation`]
    /// with `pte_ref` set, or [`MemFault::NonExistent`].
    pub fn probe(
        &mut self,
        mem: &PhysMemory,
        va: VirtAddr,
        mode: AccessMode,
        write: bool,
        costs: &CostModel,
    ) -> Result<ProbeOutcome, MemFault> {
        if !self.mapen {
            return Ok(ProbeOutcome {
                accessible: true,
                pte_valid: true,
                pte_modified: true,
                cycles: 0,
            });
        }
        let mut cycles = 0u64;
        if let Some(e) = self.tlb.peek(va) {
            return Ok(ProbeOutcome {
                accessible: e.prot.allows(mode, write),
                pte_valid: true,
                pte_modified: e.modified,
                cycles,
            });
        }
        if self.pte_location(va, write).is_err() {
            // Length violation: not accessible, no fault.
            return Ok(ProbeOutcome {
                accessible: false,
                pte_valid: false,
                pte_modified: false,
                cycles,
            });
        }
        let pte_pa = self.resolve_pte_pa(mem, va, write, costs, &mut cycles)?;
        let pte = Pte::from_raw(mem.read_u32(pte_pa)?);
        Ok(ProbeOutcome {
            accessible: pte.protection().allows(mode, write),
            pte_valid: pte.valid(),
            pte_modified: pte.modified(),
            cycles,
        })
    }

    /// Reads `len ∈ {1,2,4}` bytes at a virtual address. A reference
    /// crossing a page boundary (the VAX permits unaligned accesses)
    /// touches at most two pages; each is translated once and the
    /// access is split at the boundary.
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] raised during translation or the physical access.
    pub fn read_virt(
        &mut self,
        mem: &mut PhysMemory,
        va: VirtAddr,
        len: u32,
        mode: AccessMode,
        costs: &CostModel,
    ) -> Result<(u32, u64), MemFault> {
        debug_assert!(matches!(len, 1 | 2 | 4));
        if va.byte_offset() + len <= PAGE_BYTES {
            let t = self.translate(mem, va, mode, false, costs)?;
            let v = match len {
                1 => mem.read_u8(t.pa)? as u32,
                2 => mem.read_u16(t.pa)? as u32,
                _ => mem.read_u32(t.pa)?,
            };
            Ok((v, t.cycles))
        } else {
            let split = PAGE_BYTES - va.byte_offset();
            let t0 = self.translate(mem, va, mode, false, costs)?;
            let t1 = self.translate(mem, va.wrapping_add(split), mode, false, costs)?;
            let mut v = 0u32;
            for i in 0..len {
                let pa = if i < split {
                    t0.pa + i
                } else {
                    t1.pa + (i - split)
                };
                v |= (mem.read_u8(pa)? as u32) << (8 * i);
            }
            Ok((v, t0.cycles + t1.cycles))
        }
    }

    /// Writes `len ∈ {1,2,4}` bytes at a virtual address; see
    /// [`Mmu::read_virt`].
    ///
    /// # Errors
    ///
    /// Any [`MemFault`] raised during translation or the physical access.
    pub fn write_virt(
        &mut self,
        mem: &mut PhysMemory,
        va: VirtAddr,
        value: u32,
        len: u32,
        mode: AccessMode,
        costs: &CostModel,
    ) -> Result<u64, MemFault> {
        debug_assert!(matches!(len, 1 | 2 | 4));
        if va.byte_offset() + len <= PAGE_BYTES {
            let t = self.translate(mem, va, mode, true, costs)?;
            match len {
                1 => mem.write_u8(t.pa, value as u8)?,
                2 => mem.write_u16(t.pa, value as u16)?,
                _ => mem.write_u32(t.pa, value)?,
            }
            Ok(t.cycles)
        } else {
            // Translate both pages up front (so a fault on the second
            // page leaves no partial write), then commit.
            let split = PAGE_BYTES - va.byte_offset();
            let t0 = self.translate(mem, va, mode, true, costs)?;
            let t1 = self.translate(mem, va.wrapping_add(split), mode, true, costs)?;
            for i in 0..len {
                let pa = if i < split {
                    t0.pa + i
                } else {
                    t1.pa + (i - split)
                };
                mem.write_u8(pa, (value >> (8 * i)) as u8)?;
            }
            Ok(t0.cycles + t1.cycles)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::Protection;

    const COSTS: CostModel = CostModel {
        base_instruction: 2,
        memory_reference: 1,
        tlb_miss_system: 6,
        tlb_miss_process: 12,
        exception_entry: 20,
        rei: 8,
        chm: 16,
        mtpr_ipl_fast: 4,
        mtpr_other: 8,
        context_switch: 40,
        probe_fast: 6,
        probevm: 8,
        movpsl: 3,
        string_per_byte: 1,
        set_modify_bit: 4,
        vm_emulation_trap: 30,
        device_csr: 20,
    };

    /// Builds: SPT at 0x1000 with 8 entries. S page 0 -> PFN 4 (UW),
    /// S page 1 -> PFN 5 (URKW), S page 2 holds the P0 page table
    /// (PFN 6), S page 3 -> invalid-but-UW (null), S page 4 -> KW.
    fn setup() -> (PhysMemory, Mmu) {
        let mut mem = PhysMemory::new(64 * 1024);
        let mut mmu = Mmu::new();
        let spt = 0x1000;
        let e = |pfn, prot, v, m| -> u32 { Pte::build(pfn, prot, v, m).raw() };
        mem.write_u32(spt, e(4, Protection::Uw, true, true))
            .unwrap();
        mem.write_u32(spt + 4, e(5, Protection::Urkw, true, true))
            .unwrap();
        mem.write_u32(spt + 8, e(6, Protection::Kw, true, true))
            .unwrap();
        mem.write_u32(spt + 12, Pte::NULL.raw()).unwrap();
        mem.write_u32(spt + 16, e(7, Protection::Kw, true, true))
            .unwrap();
        mmu.set_sbr(spt);
        mmu.set_slr(8);
        // P0 page table lives in S space page 2 (phys page 6): P0 page 0
        // -> PFN 8 (UW, not yet modified).
        mem.write_u32(6 * 512, e(8, Protection::Uw, true, false))
            .unwrap();
        mmu.set_p0br(0x8000_0000 + 2 * 512);
        mmu.set_p0lr(1);
        mmu.set_mapen(true);
        (mem, mmu)
    }

    fn s_va(page: u32, off: u32) -> VirtAddr {
        VirtAddr::new(0x8000_0000 + page * 512 + off)
    }

    #[test]
    fn identity_when_mapen_off() {
        let mut mem = PhysMemory::new(4096);
        let mut mmu = Mmu::new();
        let t = mmu
            .translate(
                &mut mem,
                VirtAddr::new(0x123),
                AccessMode::User,
                true,
                &COSTS,
            )
            .unwrap();
        assert_eq!(t.pa, 0x123);
    }

    #[test]
    fn system_translation_and_tlb_hit() {
        let (mut mem, mut mmu) = setup();
        let t1 = mmu
            .translate(&mut mem, s_va(0, 5), AccessMode::User, false, &COSTS)
            .unwrap();
        assert_eq!(t1.pa, 4 * 512 + 5);
        assert!(t1.cycles > 0, "miss should be charged");
        let t2 = mmu
            .translate(&mut mem, s_va(0, 9), AccessMode::User, false, &COSTS)
            .unwrap();
        assert_eq!(t2.pa, 4 * 512 + 9);
        assert_eq!(t2.cycles, 0, "hit should be free");
    }

    #[test]
    fn protection_checked_before_valid_bit() {
        let (mut mem, mut mmu) = setup();
        // S page 4 is KW and valid: user read must be an access violation,
        // not a TNV.
        let err = mmu
            .translate(&mut mem, s_va(4, 0), AccessMode::User, false, &COSTS)
            .unwrap_err();
        assert!(matches!(err, MemFault::AccessViolation { .. }), "{err}");
        // S page 3 is the null PTE (UW, invalid): protection passes, then
        // TNV — the shadow-fill hook.
        let err = mmu
            .translate(&mut mem, s_va(3, 0), AccessMode::User, true, &COSTS)
            .unwrap_err();
        assert!(
            matches!(err, MemFault::TranslationNotValid { pte_ref: false, .. }),
            "{err}"
        );
    }

    #[test]
    fn length_violation_is_access_violation() {
        let (mut mem, mut mmu) = setup();
        let err = mmu
            .translate(&mut mem, s_va(100, 0), AccessMode::Kernel, false, &COSTS)
            .unwrap_err();
        assert!(
            matches!(err, MemFault::AccessViolation { length: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn process_translation_via_double_walk() {
        let (mut mem, mut mmu) = setup();
        let t = mmu
            .translate(
                &mut mem,
                VirtAddr::new(0x14),
                AccessMode::User,
                false,
                &COSTS,
            )
            .unwrap();
        assert_eq!(t.pa, 8 * 512 + 0x14);
        // P0 length violation.
        let err = mmu
            .translate(
                &mut mem,
                VirtAddr::new(600),
                AccessMode::User,
                false,
                &COSTS,
            )
            .unwrap_err();
        assert!(matches!(
            err,
            MemFault::AccessViolation { length: true, .. }
        ));
    }

    #[test]
    fn hardware_sets_modify_bit_on_standard_vax() {
        let (mut mem, mut mmu) = setup();
        assert!(!mmu.modify_fault_enabled());
        mmu.translate(
            &mut mem,
            VirtAddr::new(0x14),
            AccessMode::User,
            true,
            &COSTS,
        )
        .unwrap();
        let pte = Pte::from_raw(mem.read_u32(6 * 512).unwrap());
        assert!(pte.modified(), "hardware must set PTE<M>");
        assert_eq!(mmu.counters().m_bit_sets, 1);
    }

    #[test]
    fn modify_fault_on_modified_vax() {
        let (mut mem, mut mmu) = setup();
        mmu.set_modify_fault_enabled(true);
        let err = mmu
            .translate(
                &mut mem,
                VirtAddr::new(0x14),
                AccessMode::User,
                true,
                &COSTS,
            )
            .unwrap_err();
        assert!(matches!(err, MemFault::ModifyFault { .. }), "{err}");
        assert_eq!(mmu.counters().modify_faults, 1);
        // PTE<M> was NOT set by hardware.
        assert!(!Pte::from_raw(mem.read_u32(6 * 512).unwrap()).modified());

        // Software sets M (as the handler must) and retries: succeeds
        // without requiring a TB invalidate.
        let pte = Pte::from_raw(mem.read_u32(6 * 512).unwrap());
        mem.write_u32(6 * 512, pte.with_modified(true).raw())
            .unwrap();
        let t = mmu
            .translate(
                &mut mem,
                VirtAddr::new(0x14),
                AccessMode::User,
                true,
                &COSTS,
            )
            .unwrap();
        assert_eq!(t.pa, 8 * 512 + 0x14);
    }

    #[test]
    fn reads_never_raise_modify_fault() {
        let (mut mem, mut mmu) = setup();
        mmu.set_modify_fault_enabled(true);
        assert!(mmu
            .translate(
                &mut mem,
                VirtAddr::new(0x14),
                AccessMode::User,
                false,
                &COSTS
            )
            .is_ok());
    }

    #[test]
    fn probe_reports_protection_without_faulting_on_invalid() {
        let (mem, mut mmu) = setup();
        // Null PTE: probe succeeds (UW) but reports invalid.
        let p = mmu
            .probe(&mem, s_va(3, 0), AccessMode::User, true, &COSTS)
            .unwrap();
        assert!(p.accessible);
        assert!(!p.pte_valid);
        // KW page from user: inaccessible.
        let p = mmu
            .probe(&mem, s_va(4, 0), AccessMode::User, false, &COSTS)
            .unwrap();
        assert!(!p.accessible);
        // Length violation: inaccessible, not a fault.
        let p = mmu
            .probe(&mem, s_va(100, 0), AccessMode::Kernel, false, &COSTS)
            .unwrap();
        assert!(!p.accessible);
    }

    #[test]
    fn probe_does_not_set_modify_bit() {
        let (mem, mut mmu) = setup();
        mmu.probe(&mem, VirtAddr::new(0x14), AccessMode::User, true, &COSTS)
            .unwrap();
        assert!(!Pte::from_raw(mem.read_u32(6 * 512).unwrap()).modified());
    }

    #[test]
    fn read_write_virt_round_trip_and_page_crossing() {
        let (mut mem, mut mmu) = setup();
        // S pages 0 and 1 are adjacent (PFN 4 and 5): write across them.
        // Page 1 is URKW, so write from kernel.
        let va = s_va(0, 510);
        mmu.write_virt(&mut mem, va, 0xAABBCCDD, 4, AccessMode::Kernel, &COSTS)
            .unwrap();
        let (v, _) = mmu
            .read_virt(&mut mem, va, 4, AccessMode::Kernel, &COSTS)
            .unwrap();
        assert_eq!(v, 0xAABBCCDD);
        // Physical placement: 2 bytes at end of PFN 4, 2 at start of PFN 5.
        assert_eq!(mem.read_u16(4 * 512 + 510).unwrap(), 0xCCDD);
        assert_eq!(mem.read_u16(5 * 512).unwrap(), 0xAABB);
    }

    #[test]
    fn page_crossing_write_faults_atomically() {
        let (mut mem, mut mmu) = setup();
        // Page 1 is URKW: user write to the second half must fail and
        // leave the first page untouched.
        let va = s_va(0, 510);
        let before = mem.read_u16(4 * 512 + 510).unwrap();
        assert!(mmu
            .write_virt(&mut mem, va, 0x11223344, 4, AccessMode::User, &COSTS)
            .is_err());
        assert_eq!(mem.read_u16(4 * 512 + 510).unwrap(), before);
    }

    #[test]
    fn invalid_process_pte_page_reports_pte_ref() {
        let (mut mem, mut mmu) = setup();
        // Point P0BR at the null-PTE S page (page 3): fetching the process
        // PTE faults with pte_ref set.
        mmu.set_p0br(0x8000_0000 + 3 * 512);
        mmu.set_p0lr(1);
        let err = mmu
            .translate(&mut mem, VirtAddr::new(0), AccessMode::User, false, &COSTS)
            .unwrap_err();
        assert!(
            matches!(err, MemFault::TranslationNotValid { pte_ref: true, .. }),
            "{err}"
        );
    }

    #[test]
    fn tlb_shootdown_required_after_pte_change() {
        let (mut mem, mut mmu) = setup();
        mmu.translate(&mut mem, s_va(0, 0), AccessMode::User, false, &COSTS)
            .unwrap();
        // Change the PTE to point elsewhere without invalidating: stale
        // translation is returned (hardware may cache valid PTEs).
        mem.write_u32(0x1000, Pte::build(9, Protection::Uw, true, true).raw())
            .unwrap();
        let t = mmu
            .translate(&mut mem, s_va(0, 0), AccessMode::User, false, &COSTS)
            .unwrap();
        assert_eq!(t.pa, 4 * 512);
        // After TBIS, the new mapping is used.
        mmu.tlb_mut().invalidate_single(s_va(0, 0));
        let t = mmu
            .translate(&mut mem, s_va(0, 0), AccessMode::User, false, &COSTS)
            .unwrap();
        assert_eq!(t.pa, 9 * 512);
    }
}
