//! The superblock translation execution tier.
//!
//! Hot straight-line guest code — discovered by the execution counter the
//! decode cache keeps per entry — is chained into **superblocks**: runs of
//! lowered µops ([`crate::uop`]) starting at a hot PC and ending at the
//! first branch, sensitive/untranslatable instruction, page boundary, or
//! [`MAX_BLOCK_UOPS`]. Executing a block is a tight match-dispatch loop
//! with no per-instruction decode, operand re-materialization, or event
//! plumbing — while retiring each µop with the same register file, PSL,
//! cycle charge, counters, trace-ring pushes, and timer/bus ticks as the
//! interpreter, bit for bit. The interpreter remains the oracle.
//!
//! # Mapped guests and the inline TLB fast path
//!
//! With memory mapping on, blocks are keyed by **(entry PA, entry VA)**:
//! the PA identifies the code bytes (and the page whose rewrite
//! invalidates them), and the VA fixes the branch targets and PC-relative
//! bases folded in at translate time. A block only starts (or is chained
//! into) when the software TLB already holds an executable translation of
//! its code page — probed counter-free — so it runs only under a mapping
//! that resolves its entry VA to its entry PA, and every memory-touching µop
//! consults the TLB inline: a hit with sufficient protection (and the
//! modify bit already set, for writes) yields the data PA directly; a
//! miss, protection mismatch, clear modify bit, page-crossing access, or
//! IO-space target bails to the interpreter **before any mutation**, so
//! faults, PTE machinery, and access checks stay bit-identical to the
//! interpreter oracle. The fast path never inserts or evicts TLB entries,
//! so TLB state is frozen across a block; each retiring µop replays
//! exactly the hit counts the interpreter would have recorded (its
//! i-stream fetch events plus one per data read/write).
//!
//! # Direct superblock chaining
//!
//! When a block's terminal branch lands on another translated block's
//! entry, the dispatch loop follows the edge directly — revalidating only
//! the entry protocol (code-page TLB probe + `(pa, va)`-checked cache
//! hit) instead of returning to `step()`'s full gate — and records a
//! successor link on the predecessor. Links are bookkeeping, not trusted
//! pointers: every follow revalidates, and a recorded link found dead
//! (the target's code page left the TLB, or its page was rewritten) is
//! severed and counted. At most `MAX_CHAIN_FOLLOWS` (32) edges are
//! followed per `step()` so callers keep their step-granularity
//! guarantees; interrupt delivery is checked after every µop regardless.
//!
//! # Gating and the side-exit protocol
//!
//! Translation runs outside VM mode and with `PSL<IV>` clear (so no
//! translated arithmetic can trap on integer overflow); EmulatedMmio
//! paths live in IO space, which both the entry probe and the data fast
//! path exclude. Inside a block, each µop either retires completely or
//! bails **before mutating any state**, so a side exit simply stops the
//! loop and lets the interpreter re-execute the instruction, raising the
//! architecturally correct fault with the correct charges. A deliverable
//! interrupt ends the block after the current µop retires; a retired
//! store that dirtied a tracked code page ends the block (and chain)
//! before the next µop can run from stale bytes.
//!
//! # Invalidation edges
//!
//! A block dies when the bytes under it change: self-modifying code
//! (dirty code-page drain at step entry plus the mid-block store check
//! above). Mapping events (TBIA, TBIS, MAPEN, region registers, LDPCTX)
//! change only the TLB, which every entry and chain follow consults. The
//! whole cache is dropped only when what a block means changes: a tier
//! switch, a cost-model change (cycle charges are folded into µops at
//! translate time), or a snapshot import; successor links die with their
//! entries. Per-page invalidation leaves stale links to be discovered,
//! severed, and counted at the next follow.

use crate::bus::IO_BASE_PA;
use crate::decode::mask_width;
use crate::event::StepEvent;
use crate::exec::{ash, sign_extend};
use crate::icache::parse_template;
use crate::machine::Machine;
use crate::slots::{SlotTable, SEG_SLOTS};
use crate::uop::{lower, AluOp, Dst, Ea, MovXf, Src, Uop, UopKind, MAX_BLOCK_UOPS};
use std::sync::Arc;
use vax_arch::{Psl, VirtAddr, PAGE_BYTES, PAGE_SHIFT};
use vax_obs::{ObsSink, ProfTier};

/// Translation-cache slot count; a power of two with at least one page of
/// slots.
const TSLOTS: usize = 4096;

/// Decode-cache hits at one PC before a superblock forms there.
const HOT_THRESHOLD: u32 = 16;

/// Most chain edges followed inside one `step()`. Bounds how many
/// instructions a single step can retire through a hot cycle of blocks,
/// preserving the step-count granularity callers budget by.
const MAX_CHAIN_FOLLOWS: u32 = 32;

/// Why a µop bailed to the interpreter. Every cause leaves the machine
/// **unmutated**; the interpreter re-executes the instruction and raises
/// whatever fault or slow-path machinery is architecturally due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UopBail {
    /// Divide by zero: the interpreter raises the arithmetic fault.
    Runtime,
    /// Data page absent from the TLB (the interpreter walks and fills).
    TlbMiss,
    /// TLB hit but the current mode lacks the required access.
    Prot,
    /// Write to a page whose cached `PTE<M>` is clear (modify-bit
    /// machinery stays on the interpreter).
    Modify,
    /// Access crosses a page boundary (two translations).
    PageCross,
    /// Physical target in IO space or outside RAM.
    Io,
}

/// Translation-tier statistics (diagnostic only — like
/// [`DecodeCacheStats`](crate::DecodeCacheStats), deliberately not part of
/// the architectural [`CpuCounters`](crate::CpuCounters), which are
/// bit-identical across execution tiers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransStats {
    /// Superblocks formed (re-translations after invalidation included).
    pub blocks_translated: u64,
    /// Block executions that retired at least one µop.
    pub blocks_executed: u64,
    /// µops (== guest instructions) retired by the translated tier.
    pub uops_executed: u64,
    /// Blocks cut short because an interrupt became deliverable mid-block.
    pub side_exit_interrupt: u64,
    /// µops that bailed to the interpreter pre-mutation (all causes).
    pub side_exit_bail: u64,
    /// Blocks cut short because a retired store dirtied a tracked code
    /// page (self-modifying code detected mid-block).
    pub side_exit_smc: u64,
    /// Bails: data page absent from the TLB.
    pub side_exit_tlb_miss: u64,
    /// Bails: TLB hit with insufficient protection.
    pub side_exit_prot: u64,
    /// Bails: write to a page with `PTE<M>` clear.
    pub side_exit_modify: u64,
    /// Bails: access crossing a page boundary.
    pub side_exit_page_cross: u64,
    /// Bails: physical target in IO space or outside RAM.
    pub side_exit_io: u64,
    /// Chain edges followed directly block-to-block in the dispatch loop.
    pub chain_hits: u64,
    /// Recorded successor links found dead at follow time and severed.
    pub chain_links_severed: u64,
    /// Invalidation events (whole-cache and per-page combined).
    pub invalidations: u64,
    /// Histogram of superblock lengths at translate time, indexed by µop
    /// count (index 0 unused; blocks have at least one µop).
    pub len_hist: [u64; MAX_BLOCK_UOPS + 1],
}

impl Default for TransStats {
    fn default() -> TransStats {
        TransStats {
            blocks_translated: 0,
            blocks_executed: 0,
            uops_executed: 0,
            side_exit_interrupt: 0,
            side_exit_bail: 0,
            side_exit_smc: 0,
            side_exit_tlb_miss: 0,
            side_exit_prot: 0,
            side_exit_modify: 0,
            side_exit_page_cross: 0,
            side_exit_io: 0,
            chain_hits: 0,
            chain_links_severed: 0,
            invalidations: 0,
            len_hist: [0; MAX_BLOCK_UOPS + 1],
        }
    }
}

#[derive(Debug, Clone)]
struct TransEntry {
    /// Entry VA the block's folded targets are valid for (== its PA with
    /// mapping off).
    va: u32,
    block: Arc<[Uop]>,
    /// Recorded chain successor (an entry VA), if the block's terminal
    /// branch was observed landing on another translated block.
    succ: Option<u32>,
}

/// Direct-mapped cache of translated superblocks keyed by (entry physical
/// address, entry virtual address). An **empty** block is a
/// negative marker: the PC is hot but its first instruction does not
/// lower, so the tier stops re-walking it. Blocks are shared
/// (`Arc<[Uop]>`) so the dispatch loop executes them in place — no
/// remove/reinsert churn, and an eviction by a colliding insert cannot
/// free a block mid-execution.
pub(crate) struct TransCache {
    slots: SlotTable<TransEntry, { TSLOTS / SEG_SLOTS }>,
    stats: TransStats,
}

impl TransCache {
    pub fn new() -> TransCache {
        TransCache {
            slots: SlotTable::new(),
            stats: TransStats::default(),
        }
    }

    /// The entry keyed by `(pa, va)`.
    #[inline]
    fn entry(&self, pa: u32, va: u32) -> Option<&TransEntry> {
        self.slots.get(pa).filter(|e| e.va == va)
    }

    /// The block keyed by `(pa, va)`, shared in place.
    #[inline]
    fn get(&self, pa: u32, va: u32) -> Option<Arc<[Uop]>> {
        self.entry(pa, va).map(|e| Arc::clone(&e.block))
    }

    /// Inserts a block (no successor yet).
    fn insert(&mut self, pa: u32, va: u32, block: Arc<[Uop]>) {
        self.slots.insert(
            pa,
            TransEntry {
                va,
                block,
                succ: None,
            },
        );
    }

    /// The recorded chain successor of the block at `(pa, va)`, if any.
    #[inline]
    fn succ_of(&self, pa: u32, va: u32) -> Option<u32> {
        self.entry(pa, va)?.succ
    }

    /// Sets (`Some`) or severs (`None`) the recorded successor link of
    /// `(pa, va)`; a no-op when no such block is cached.
    fn link(&mut self, pa: u32, va: u32, succ: Option<u32>) {
        if let Some(e) = self.slots.get_mut(pa).filter(|e| e.va == va) {
            e.succ = succ;
        }
    }

    /// Invalidates every block (tier switches, cost-model changes,
    /// snapshot import). Successor links die with their entries.
    pub fn invalidate_all(&mut self) {
        self.slots.invalidate_all();
        self.stats.invalidations += 1;
    }

    /// Invalidates all blocks whose entry lies in physical page `pfn`
    /// (self-modifying code). Blocks never span a page, so the
    /// entry's page covers every instruction in the block. Links *into*
    /// the page from surviving predecessors go stale here; they are
    /// severed (and counted) when next followed.
    pub fn invalidate_page(&mut self, pfn: u32) {
        self.slots.invalidate_page(pfn);
        self.stats.invalidations += 1;
    }

    /// Bytes of block-entry storage allocated so far (the blocks' µops
    /// are shared allocations of their own).
    pub fn resident_bytes(&self) -> usize {
        self.slots.resident_bytes()
    }

    pub fn stats(&self) -> TransStats {
        self.stats
    }

    /// Folds one bail cause into the per-cause side-exit split
    /// (`side_exit_bail` is the total and counted by the caller).
    fn note_bail(&mut self, cause: UopBail) {
        match cause {
            UopBail::Runtime => {}
            UopBail::TlbMiss => self.stats.side_exit_tlb_miss += 1,
            UopBail::Prot => self.stats.side_exit_prot += 1,
            UopBail::Modify => self.stats.side_exit_modify += 1,
            UopBail::PageCross => self.stats.side_exit_page_cross += 1,
            UopBail::Io => self.stats.side_exit_io += 1,
        }
    }
}

/// A validated µop destination: a register, or a physical address the
/// fast path has already translated and access-checked.
#[derive(Debug, Clone, Copy)]
enum DstR {
    Reg(u8),
    Mem { pa: u32 },
}

impl Machine {
    /// Attempts one translated-tier step at the current PC.
    ///
    /// `None` means "this step is the interpreter's" — the tier is gated
    /// off, the PC has no (non-empty) block yet, or the block's first µop
    /// bailed. In every `None` case **nothing was mutated**, so the caller
    /// falls through to the ordinary interpreter path. `Some(ev)` means at
    /// least one instruction retired exactly as the interpreter would have
    /// retired it.
    pub(crate) fn step_translated(&mut self) -> Option<StepEvent> {
        // Gate: VM mode (sensitive-op dispatch) or PSL<IV> set (translated
        // arithmetic could trap on overflow) fall back to the interpreter.
        // Mapped guests run here: the entry protocol below demands an
        // executable TLB translation of the code page, and data accesses
        // go through the inline fast path in `exec_uop`.
        if self.psl.vm() || self.psl.flag(Psl::IV) {
            return None;
        }
        // Honor self-modifying-code notifications before trusting any
        // block, mirroring the decode cache's drain.
        self.drain_dirty_code();
        let mapped = self.mmu.mapen();
        let mut va = self.regs[15];
        let mut pa = self.block_entry_pa(va, mapped)?;
        let mut block = match self.trans.get(pa, va) {
            Some(b) => b,
            None => {
                self.maybe_translate(pa, va);
                return None;
            }
        };
        if block.is_empty() {
            // Negative marker: hot but untranslatable first instruction.
            return None;
        }
        let mut executed_any = false;
        let mut follows = 0u32;
        loop {
            let cycles_at_entry = self.cycles;
            let (executed, bailed, interrupted, stop) = if mapped {
                self.run_block::<true>(&block)
            } else {
                self.run_block::<false>(&block)
            };
            if executed > 0 {
                executed_any = true;
                self.trans.stats.blocks_executed += 1;
                self.trans.stats.uops_executed += executed;
                if let ObsSink::On(o) = &mut self.obs {
                    o.sb_exec(
                        pa,
                        executed,
                        self.cycles - cycles_at_entry,
                        bailed,
                        interrupted,
                    );
                }
            }
            if stop || follows >= MAX_CHAIN_FOLLOWS {
                break;
            }
            // Direct chaining: the block ran clean to its terminal branch.
            // If the landing PC satisfies the entry protocol and has a
            // live block, continue straight into it.
            let next_va = self.regs[15];
            let Some(next_pa) = self.block_entry_pa(next_va, mapped) else {
                self.sever_stale_link(pa, va, next_va);
                break;
            };
            let next = match self.trans.get(next_pa, next_va) {
                Some(b) if !b.is_empty() => b,
                Some(_) => {
                    // Negative marker at the landing PC.
                    self.sever_stale_link(pa, va, next_va);
                    break;
                }
                None => {
                    self.sever_stale_link(pa, va, next_va);
                    self.maybe_translate(next_pa, next_va);
                    match self.trans.get(next_pa, next_va) {
                        Some(b) if !b.is_empty() => b,
                        _ => break,
                    }
                }
            };
            self.trans.link(pa, va, Some(next_va));
            self.trans.stats.chain_hits += 1;
            follows += 1;
            pa = next_pa;
            va = next_va;
            block = next;
        }
        executed_any.then_some(StepEvent::Ok)
    }

    /// Executes the µops of one superblock, monomorphized over the
    /// mapped/unmapped regime so the hot dispatch loop carries exactly one
    /// inlined copy of [`Machine::exec_uop`]. Returns
    /// `(uops retired, bailed, interrupted, stop)` — `stop` means the
    /// block did not run clean to its terminal branch, so the caller must
    /// not chain into a successor.
    fn run_block<const MAPPED: bool>(&mut self, block: &[Uop]) -> (u64, bool, bool, bool) {
        let mut executed = 0u64;
        let mut bailed = false;
        let mut interrupted = false;
        let mut stop = false;
        for (i, u) in block.iter().enumerate() {
            let cur_pc = self.regs[15];
            if let Err(cause) = self.exec_uop::<MAPPED>(u) {
                // Pre-mutation bail: the interpreter re-executes this
                // instruction, raising the fault or walking the slow
                // path with the architecturally correct charges.
                self.trans.stats.side_exit_bail += 1;
                self.trans.note_bail(cause);
                bailed = true;
                stop = true;
                break;
            }
            // Retire exactly as `Machine::step` + `execute_one` would:
            // instruction counter, the folded cycle charge, then
            // timer/TODR/bus ticks, then the sink.
            executed += 1;
            self.counters.instructions += 1;
            self.cycles += u64::from(u.cyc);
            let deliverable = self.post_instruction_tick(u64::from(u.cyc).max(1));
            if let ObsSink::On(o) = &mut self.obs {
                let mem = &self.mem;
                o.step(cur_pc, Some(ProfTier::Trans), self.cycles, || {
                    u64::from(mem.touched_page_count())
                });
            }
            if u.store && self.mem.has_dirty_code() {
                // The retired store rewrote a tracked code page; the
                // rest of this block (and any chained successor) may
                // now be stale bytes. The store itself was
                // architectural — stop before the next µop, drain at
                // the next step entry.
                self.trans.stats.side_exit_smc += 1;
                stop = true;
                break;
            }
            if deliverable {
                // A deliverable interrupt ends the block; the next
                // step() delivers it, exactly as under the
                // interpreter.
                if i + 1 < block.len() {
                    self.trans.stats.side_exit_interrupt += 1;
                    interrupted = true;
                }
                stop = true;
                break;
            }
        }
        (executed, bailed, interrupted, stop)
    }

    /// The entry protocol: the physical address of the block entry at
    /// `va`, provided the fetch is sound for the fast path. Mapped, that
    /// means the code page is in the TLB with execute (read) permission
    /// for the current mode — guaranteeing every mid-block fetch replay
    /// is the TLB hit the interpreter would have counted. Either way the
    /// entry must be below IO space.
    #[inline]
    fn block_entry_pa(&self, va: u32, mapped: bool) -> Option<u32> {
        if mapped {
            self.fetch_pa_probe(VirtAddr::new(va), self.psl.cur_mode())
        } else {
            (va < IO_BASE_PA).then_some(va)
        }
    }

    /// If `(pa, va)` recorded `next_va` as its chain successor and that
    /// edge can no longer be followed, sever and count the dead link.
    fn sever_stale_link(&mut self, pa: u32, va: u32, next_va: u32) {
        if self.trans.succ_of(pa, va) == Some(next_va) {
            self.trans.link(pa, va, None);
            self.trans.stats.chain_links_severed += 1;
        }
    }

    /// Forms a superblock entered at `(entry_pa, entry_va)` once the
    /// decode cache reports the PA hot. Walks forward lowering templates
    /// (PA and VA advance in lockstep — blocks never leave the entry
    /// page, and the page offset is mapping-invariant) until a
    /// block-ending µop (branch), an untranslatable instruction, the page
    /// boundary, or the length cap. Always inserts the result — an empty
    /// block is the negative marker that stops re-walking a
    /// hot-but-untranslatable PC.
    fn maybe_translate(&mut self, entry_pa: u32, entry_va: u32) {
        if self.icache.heat(entry_pa) < HOT_THRESHOLD {
            return;
        }
        let page = entry_pa >> PAGE_SHIFT;
        let mut uops: Vec<Uop> = Vec::with_capacity(8);
        let (mut pa, mut va) = (entry_pa, entry_va);
        while uops.len() < MAX_BLOCK_UOPS && pa >> PAGE_SHIFT == page {
            let Some(tpl) = self.template_at(pa) else {
                break;
            };
            let Some(u) = lower(&tpl, va, &self.costs) else {
                break;
            };
            let ends = u.ends_block();
            pa = pa.wrapping_add(tpl.len as u32);
            va = u.next_pc;
            uops.push(u);
            if ends {
                break;
            }
        }
        if !uops.is_empty() {
            // Register the page for self-modifying-code tracking, exactly
            // as the decode cache does for its own entries.
            self.mem.note_code_page(page);
            self.trans.stats.blocks_translated += 1;
            self.trans.stats.len_hist[uops.len().min(MAX_BLOCK_UOPS)] += 1;
            if let ObsSink::On(o) = &mut self.obs {
                let heat = self.icache.heat(entry_pa);
                o.sb_translate(entry_pa, uops.len() as u16, heat, self.cycles);
            }
        }
        self.trans.insert(entry_pa, entry_va, uops.into());
    }

    /// The baked template at `pa`: served from the decode cache when
    /// present, else parsed fresh (without inserting, so decode-cache
    /// statistics stay a faithful record of the decode path).
    fn template_at(&mut self, pa: u32) -> Option<crate::icache::InstTemplate> {
        if let Some(t) = self.icache.peek(pa) {
            return Some(*t);
        }
        let mut t = self.mem.page_tail(pa).and_then(parse_template)?;
        t.bake(pa);
        Some(t)
    }

    /// Writes register `r` at width `w`, merging into the old value below
    /// a longword — the register half of [`Machine::write_loc`].
    #[inline(always)]
    fn write_reg_w(&mut self, r: u8, value: u32, w: u8) {
        let old = self.regs[r as usize];
        self.regs[r as usize] = match w {
            1 => (old & !0xff) | (value & 0xff),
            2 => (old & !0xffff) | (value & 0xffff),
            _ => value,
        };
    }

    /// The effective address of a lowered memory operand, from the live
    /// register file (side-effect-free by construction).
    #[inline(always)]
    fn ea_val(&self, ea: Ea) -> u32 {
        match ea {
            Ea::Abs(a) => a,
            Ea::RegDisp { r, disp } => self.regs[r as usize].wrapping_add(disp as u32),
        }
    }

    /// The inline TLB fast path: validates a `len`-byte data access at
    /// `va` and returns its physical address, without mutating anything
    /// (the TLB is probed counter-free; hits are replayed at retire).
    /// Every rejected shape is exactly a case where the interpreter would
    /// charge differently, fault, or run slow-path machinery — so it
    /// bails.
    #[inline(always)]
    fn uop_mem_check(&self, va: u32, len: u32, write: bool, mapped: bool) -> Result<u32, UopBail> {
        let pa = if mapped {
            if (va & (PAGE_BYTES - 1)) + len > PAGE_BYTES {
                return Err(UopBail::PageCross);
            }
            let v = VirtAddr::new(va);
            let Some(e) = self.mmu.tlb().peek(v) else {
                return Err(UopBail::TlbMiss);
            };
            if !e.prot.allows(self.psl.cur_mode(), write) {
                return Err(UopBail::Prot);
            }
            if write && !e.modified {
                return Err(UopBail::Modify);
            }
            (e.pfn << PAGE_SHIFT) | (va & (PAGE_BYTES - 1))
        } else {
            va
        };
        if pa >= IO_BASE_PA || IO_BASE_PA - pa < len || !self.mem.contains(pa, len) {
            return Err(UopBail::Io);
        }
        Ok(pa)
    }

    /// Reads `w` bytes at a fast-path-validated physical address.
    // `uop_mem_check` proved `pa..pa+w` is in RAM; a failure here is a
    // programming error in the fast path, not a runtime condition.
    #[allow(clippy::expect_used)]
    #[inline(always)]
    fn uop_mem_read(&self, pa: u32, w: u8) -> u32 {
        match w {
            1 => self.mem.read_u8(pa).map(u32::from),
            2 => self.mem.read_u16(pa).map(u32::from),
            _ => self.mem.read_u32(pa),
        }
        .expect("fast path validated bounds")
    }

    /// Writes `w` bytes at a fast-path-validated physical address
    /// (dirty/SMC tracking included, exactly as interpreter writes).
    // Same contract as `uop_mem_read`: bounds were proven by the check.
    #[allow(clippy::expect_used)]
    #[inline(always)]
    fn uop_mem_write(&mut self, pa: u32, v: u32, w: u8) {
        match w {
            1 => self.mem.write_u8(pa, v as u8),
            2 => self.mem.write_u16(pa, v as u16),
            _ => self.mem.write_u32(pa, v),
        }
        .expect("fast path validated bounds")
    }

    /// Resolves a µop source to its value. Memory sources go through the
    /// fast path; each counts one TLB hit to replay at retire.
    #[inline(always)]
    fn uop_src(&self, s: Src, mapped: bool, hits: &mut u32) -> Result<u32, UopBail> {
        Ok(match s {
            Src::Imm(v) => v,
            Src::Reg { r, w } => mask_width(self.regs[r as usize], w as u32),
            Src::Mem { ea, w } => {
                let pa = self.uop_mem_check(self.ea_val(ea), w as u32, false, mapped)?;
                *hits += 1;
                self.uop_mem_read(pa, w)
            }
            Src::EaVal(ea) => self.ea_val(ea),
        })
    }

    /// Validates a µop destination for a `w`-byte write, resolving memory
    /// destinations to a physical address (one TLB hit for the commit
    /// write). No mutation happens until [`Machine::uop_commit`].
    #[inline(always)]
    fn uop_dst(&self, d: Dst, w: u8, mapped: bool, hits: &mut u32) -> Result<DstR, UopBail> {
        Ok(match d {
            Dst::Reg(r) => DstR::Reg(r),
            Dst::Mem(ea) => {
                let pa = self.uop_mem_check(self.ea_val(ea), w as u32, true, mapped)?;
                *hits += 1;
                DstR::Mem { pa }
            }
        })
    }

    /// The old value of a validated modify destination at width `w` (the
    /// read half of a modify operand — one more TLB hit when in memory).
    #[inline(always)]
    fn uop_dst_old(&self, d: DstR, w: u8, hits: &mut u32) -> u32 {
        match d {
            DstR::Reg(r) => mask_width(self.regs[r as usize], w as u32),
            DstR::Mem { pa } => {
                *hits += 1;
                self.uop_mem_read(pa, w)
            }
        }
    }

    /// Commits `value` at width `w` to a validated destination.
    #[inline(always)]
    fn uop_commit(&mut self, d: DstR, value: u32, w: u8) {
        match d {
            DstR::Reg(r) => self.write_reg_w(r, value, w),
            DstR::Mem { pa } => self.uop_mem_write(pa, value, w),
        }
    }

    /// Executes one µop. An `Err` bail leaves **no state mutated** — the
    /// interpreter re-executes the instruction (divide by zero raises the
    /// fault; TLB misses walk and charge; protection and modify-bit cases
    /// run the fault/PTE machinery; overflow traps are excluded by the
    /// PSL<IV> gate). Each arm retires bit-identically to the interpreter
    /// over the same instruction: destination write, PC update, then
    /// condition codes. On success the counter-free TLB hits taken along
    /// the way — i-stream fetch replays plus data references — are
    /// credited, matching the interpreter's counting exactly.
    #[inline(always)]
    fn exec_uop<const MAPPED: bool>(&mut self, u: &Uop) -> Result<(), UopBail> {
        let mut hits = 0u32;
        match u.kind {
            UopKind::Nop => {
                self.regs[15] = u.next_pc;
            }
            UopKind::Mov { src, dst, w, xf } => {
                let s = self.uop_src(src, MAPPED, &mut hits)?;
                let value = match xf {
                    MovXf::Id => s,
                    MovXf::Com => !s,
                    MovXf::SextB => s as u8 as i8 as i32 as u32,
                    MovXf::SextW => s as u16 as i16 as i32 as u32,
                };
                let d = self.uop_dst(dst, w, MAPPED, &mut hits)?;
                self.uop_commit(d, value, w);
                self.regs[15] = u.next_pc;
                self.set_nzv_keep_c(value, w as u32);
            }
            UopKind::CvtNarrow {
                src,
                dst,
                w,
                from_w,
            } => {
                let s = self.uop_src(src, MAPPED, &mut hits)?;
                let overflow = match (from_w, w) {
                    (4, 1) => i8::try_from(s as i32).is_err(),
                    (2, 1) => i8::try_from(s as u16 as i16 as i32).is_err(),
                    _ => i16::try_from(s as i32).is_err(),
                };
                let d = self.uop_dst(dst, w, MAPPED, &mut hits)?;
                self.uop_commit(d, s, w);
                self.regs[15] = u.next_pc;
                self.set_nzv_keep_c(s, w as u32);
                if overflow {
                    self.psl.set_flag(Psl::V, true);
                }
            }
            UopKind::Mneg { src, dst } => {
                let s = self.uop_src(src, MAPPED, &mut hits)?;
                let value = 0u32.wrapping_sub(s);
                let d = self.uop_dst(dst, 4, MAPPED, &mut hits)?;
                self.uop_commit(d, value, 4);
                self.regs[15] = u.next_pc;
                self.set_nzvc(
                    (value as i32) < 0,
                    value == 0,
                    s == 0x8000_0000,
                    s != 0, // borrow out of 0 - src
                );
            }
            UopKind::Clr { dst, w } => {
                let d = self.uop_dst(dst, w, MAPPED, &mut hits)?;
                self.uop_commit(d, 0, w);
                self.regs[15] = u.next_pc;
                self.psl.set_flag(Psl::N, false);
                self.psl.set_flag(Psl::Z, true);
                self.psl.set_flag(Psl::V, false);
            }
            UopKind::Tst { src, w } => {
                let v = self.uop_src(src, MAPPED, &mut hits)?;
                self.regs[15] = u.next_pc;
                self.set_nzv_keep_c(v, w as u32);
                self.psl.set_flag(Psl::C, false);
            }
            UopKind::Cmp { a, b, w } => {
                let av = self.uop_src(a, MAPPED, &mut hits)?;
                let bv = self.uop_src(b, MAPPED, &mut hits)?;
                let w = w as u32;
                let (sa, sb) = (sign_extend(av, w), sign_extend(bv, w));
                let (ua, ub) = (mask_width(av, w), mask_width(bv, w));
                self.regs[15] = u.next_pc;
                self.set_nzvc(sa < sb, sa == sb, false, ua < ub);
            }
            UopKind::Bit { a, b } => {
                let av = self.uop_src(a, MAPPED, &mut hits)?;
                let bv = self.uop_src(b, MAPPED, &mut hits)?;
                let r = av & bv;
                self.regs[15] = u.next_pc;
                self.set_nzv_keep_c(r, 4);
            }
            UopKind::Alu { op, a, b, dst } => {
                let av = self.uop_src(a, MAPPED, &mut hits)?;
                let bv = self.uop_src(b, MAPPED, &mut hits)?;
                let d = self.uop_dst(dst, 4, MAPPED, &mut hits)?;
                let (value, vflag, cflag) = match op {
                    AluOp::Add => {
                        let r = bv.wrapping_add(av);
                        (r, ((av ^ r) & (bv ^ r)) >> 31 != 0, r < av)
                    }
                    AluOp::Sub => {
                        let r = bv.wrapping_sub(av);
                        (r, ((bv ^ av) & (bv ^ r)) >> 31 != 0, bv < av)
                    }
                    AluOp::Mul => {
                        let wide = (av as i32 as i64) * (bv as i32 as i64);
                        let r = wide as u32;
                        (r, wide != r as i32 as i64, false)
                    }
                    AluOp::Div => {
                        if av == 0 {
                            return Err(UopBail::Runtime); // interpreter faults
                        }
                        if bv == 0x8000_0000 && av == 0xffff_ffff {
                            (bv, true, false) // overflow: dividend, V set
                        } else {
                            (((bv as i32) / (av as i32)) as u32, false, false)
                        }
                    }
                    AluOp::Bis => (av | bv, false, self.psl.flag(Psl::C)),
                    AluOp::Bic => (!av & bv, false, self.psl.flag(Psl::C)),
                    AluOp::Xor => (av ^ bv, false, self.psl.flag(Psl::C)),
                };
                self.uop_commit(d, value, 4);
                self.regs[15] = u.next_pc;
                self.set_nzvc(value & 0x8000_0000 != 0, value == 0, vflag, cflag);
            }
            UopKind::IncDec { dst, byte, dec } => {
                let w: u32 = if byte { 1 } else { 4 };
                let d = self.uop_dst(dst, w as u8, MAPPED, &mut hits)?;
                let b = self.uop_dst_old(d, w as u8, &mut hits);
                let (value, vflag, cflag) = if dec {
                    let res = b.wrapping_sub(1);
                    (res, ((b ^ 1) & (b ^ res)) >> 31 != 0, b < 1)
                } else {
                    let res = b.wrapping_add(1);
                    (res, ((1 ^ res) & (b ^ res)) >> 31 != 0, res < 1)
                };
                // Byte-width condition codes use the byte result.
                let (value, vflag, cflag) = if byte {
                    let m = mask_width(value, 1);
                    let v = if dec { b == 0x80 } else { b == 0x7f };
                    let c = if dec { b == 0 } else { m == 0 };
                    (m, v, c)
                } else {
                    (value, vflag, cflag)
                };
                self.uop_commit(d, value, w as u8);
                self.regs[15] = u.next_pc;
                let m = mask_width(value, w);
                let sign = if byte {
                    m & 0x80 != 0
                } else {
                    m & 0x8000_0000 != 0
                };
                self.set_nzvc(sign, m == 0, vflag, cflag);
            }
            UopKind::Ashl { cnt, src, dst } => {
                let c = self.uop_src(cnt, MAPPED, &mut hits)? as u8 as i8;
                let s = self.uop_src(src, MAPPED, &mut hits)?;
                let d = self.uop_dst(dst, 4, MAPPED, &mut hits)?;
                let (value, overflow) = ash(s, c);
                self.uop_commit(d, value, 4);
                self.regs[15] = u.next_pc;
                self.set_nzvc((value as i32) < 0, value == 0, overflow, false);
            }
            UopKind::Movpsl { dst } => {
                // The movpsl cycle charge is folded into `u.cyc`; the
                // counter retires here, after the destination validates
                // (a bail must leave it untouched). VM mode never reaches
                // this tier, so the visible PSL is the right source.
                let d = self.uop_dst(dst, 4, MAPPED, &mut hits)?;
                self.counters.movpsl += 1;
                let value = self.psl.raw_visible();
                self.uop_commit(d, value, 4);
                self.regs[15] = u.next_pc;
            }
            UopKind::Br { target } => {
                self.regs[15] = target;
            }
            UopKind::BCond { cond, target } => {
                let take = self.condition(cond);
                self.regs[15] = if take { target } else { u.next_pc };
            }
            UopKind::Blb { src, set, target } => {
                let v = self.uop_src(src, MAPPED, &mut hits)?;
                let take = (v & 1 == 1) == set;
                self.regs[15] = if take { target } else { u.next_pc };
            }
            UopKind::Sob { r, gtr, target } => {
                let old = self.regs[r as usize];
                let new = old.wrapping_sub(1);
                self.regs[r as usize] = new;
                let take = if gtr {
                    (new as i32) > 0
                } else {
                    (new as i32) >= 0
                };
                self.regs[15] = if take { target } else { u.next_pc };
                let v = old == 0x8000_0000;
                self.set_nzvc((new as i32) < 0, new == 0, v, self.psl.flag(Psl::C));
            }
            UopKind::Aob {
                limit,
                r,
                lss,
                target,
            } => {
                let lim = self.uop_src(limit, MAPPED, &mut hits)? as i32;
                let old = self.regs[r as usize];
                let new = old.wrapping_add(1);
                self.regs[r as usize] = new;
                let take = if lss {
                    (new as i32) < lim
                } else {
                    (new as i32) <= lim
                };
                self.regs[15] = if take { target } else { u.next_pc };
                let v = old == 0x7fff_ffff;
                self.set_nzvc((new as i32) < 0, new == 0, v, self.psl.flag(Psl::C));
            }
        }
        if MAPPED {
            // Replay exactly the TLB hit traffic the interpreter would
            // have counted: one hit per i-stream fetch event (the code
            // page is in the TLB by the entry protocol, and the fast path
            // never inserts or evicts) plus the data hits taken above.
            self.mmu
                .tlb_mut()
                .record_hits(u64::from(u.fetch) + u64::from(hits));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::CostModel;

    fn block_of(n: usize) -> Arc<[Uop]> {
        let c = CostModel::default();
        vec![
            Uop {
                kind: UopKind::Nop,
                cyc: c.base_instruction as u32,
                next_pc: 0,
                fetch: 1,
                store: false,
            };
            n
        ]
        .into()
    }

    #[test]
    fn get_shares_block_in_place() {
        let mut t = TransCache::new();
        assert!(t.get(0x1000, 0x1000).is_none());
        t.insert(0x1000, 0x1000, block_of(3));
        let b = t.get(0x1000, 0x1000).expect("present");
        assert_eq!(b.len(), 3);
        // Get does not remove — the block stays resident and shared.
        let b2 = t.get(0x1000, 0x1000).expect("still present");
        assert!(Arc::ptr_eq(&b, &b2));
    }

    #[test]
    fn keying_includes_entry_va() {
        let mut t = TransCache::new();
        t.insert(0x1000, 0x8000_1000, block_of(2));
        assert!(t.get(0x1000, 0x8000_1000).is_some());
        // Same PA under a different mapping VA is a miss: the folded
        // branch targets would be wrong for that mapping.
        assert!(t.get(0x1000, 0x1000).is_none());
    }

    #[test]
    fn invalidate_all_drops_every_block() {
        let mut t = TransCache::new();
        t.insert(0x1000, 0x1000, block_of(1));
        t.invalidate_all();
        assert!(t.get(0x1000, 0x1000).is_none());
        assert_eq!(t.stats().invalidations, 1);
    }

    #[test]
    fn page_invalidation_is_targeted() {
        let mut t = TransCache::new();
        t.insert(0x1000, 0x1000, block_of(1)); // pfn 8
        t.insert(0x1200, 0x1200, block_of(2)); // pfn 9
        t.invalidate_page(8);
        assert!(t.get(0x1000, 0x1000).is_none());
        assert_eq!(t.get(0x1200, 0x1200).map(|b| b.len()), Some(2));
    }

    #[test]
    fn slot_aliasing_misses() {
        let mut t = TransCache::new();
        t.insert(0x1000, 0x1000, block_of(1));
        assert!(t
            .get(0x1000 + TSLOTS as u32, 0x1000 + TSLOTS as u32)
            .is_none());
        // The aliasing probe above evicted nothing.
        assert!(t.get(0x1000, 0x1000).is_some());
    }

    #[test]
    fn successor_links_die_with_their_entries() {
        let mut t = TransCache::new();
        t.insert(0x1000, 0x1000, block_of(1));
        assert_eq!(t.succ_of(0x1000, 0x1000), None);
        t.link(0x1000, 0x1000, Some(0x2000));
        assert_eq!(t.succ_of(0x1000, 0x1000), Some(0x2000));
        t.link(0x1000, 0x1000, None);
        assert_eq!(t.succ_of(0x1000, 0x1000), None);
        t.link(0x1000, 0x1000, Some(0x2000));
        // Dropping the cache drops links with their entries.
        t.invalidate_all();
        assert_eq!(t.succ_of(0x1000, 0x1000), None);
        // A re-inserted block starts unlinked.
        t.insert(0x1000, 0x1000, block_of(1));
        assert_eq!(t.succ_of(0x1000, 0x1000), None);
    }
}
