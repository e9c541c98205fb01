//! The decoded-instruction cache.
//!
//! Decoding a VAX instruction byte-by-byte through `read_virt` dominates
//! simulation time. This cache stores the *template* of an instruction —
//! everything derivable from its raw bytes alone: opcode, specifier
//! modes, embedded displacements/immediates — keyed by the **physical
//! address** of the opcode byte. Execution re-evaluates operands against
//! live register and memory state ("materialization", in `decode.rs`),
//! which also replays the exact per-fetch cycle charges and TLB traffic
//! of a bytewise decode, so cycle counts and event counters are
//! bit-identical with the cache on or off.
//!
//! Physical keying makes entries immune to remapping: if a page is mapped
//! at a new virtual address, the bytes — and hence the template — are
//! unchanged, and all VA-dependent values (branch targets, PC-relative
//! effective addresses) are recomputed from the live PC at
//! materialization. What physical keying does *not* survive is the bytes
//! themselves changing, so [`PhysMemory`](vax_mem::PhysMemory) tracks
//! writes to pages holding cached code and the machine invalidates the
//! affected pages before the next decode.
//!
//! Templates never span a page: an instruction whose bytes cross a page
//! boundary falls back to bytewise decode every time.

use crate::decode::DecOp;
use crate::event::OperandLoc;
use crate::fixedvec::FixedVec;
use vax_arch::{AccessType, DataType, Opcode, PAGE_BYTES, PAGE_SHIFT};

/// A slot in a baked operand array that depends on live register state:
/// `baked[idx]` must be rewritten from register `reg` before use.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RegPatch {
    /// Index into [`InstTemplate::baked`].
    pub idx: u8,
    /// General register whose live value feeds the operand.
    pub reg: u8,
    /// Operand width in bytes (for value masking).
    pub width: u8,
    /// Modify access (`Loc` with an old value) rather than a plain read.
    pub modify: bool,
}

/// The base (address-yielding) part of a memory operand specifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BaseTpl {
    /// Mode 6: register deferred `(Rn)`.
    RegDeferred(u8),
    /// Mode 7: autodecrement `-(Rn)`.
    AutoDec(u8),
    /// Mode 8: autoincrement `(Rn)+`.
    AutoInc(u8),
    /// Mode 9: autoincrement deferred `@(Rn)+`.
    AutoIncDeferred(u8),
    /// Mode 9 with PC: absolute `@#addr`.
    Absolute(u32),
    /// Modes A–F: displacement `disp(Rn)`, optionally deferred. `reg` may
    /// be 15 (PC-relative: the base is the live PC after the
    /// displacement bytes, so the template stays position-independent).
    Disp {
        reg: u8,
        /// Displacement width in bytes (1, 2, or 4), for fetch replay.
        dw: u8,
        disp: i32,
        deferred: bool,
    },
}

/// One operand specifier template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OpTpl {
    /// Branch displacement (resolved against the live PC).
    Branch { w: u8, disp: i32 },
    /// Modes 0–3: short literal.
    Literal(u8),
    /// Mode 5: register.
    Register(u8),
    /// Mode 8 with PC: immediate `#value` (value zero-extended).
    Immediate { w: u8, value: u32 },
    /// A memory operand: base specifier plus optional index register
    /// (mode 4 `base[Rx]`).
    Ea {
        base: BaseTpl,
        index_reg: Option<u8>,
    },
}

impl Default for OpTpl {
    /// Placeholder for [`FixedVec`] backing storage only.
    fn default() -> OpTpl {
        OpTpl::Literal(0)
    }
}

/// A parsed instruction: everything derivable from its bytes alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct InstTemplate {
    pub op: Opcode,
    /// Total encoded length in bytes (opcode + all specifiers).
    pub len: u8,
    /// 1, or 2 for the FD-prefixed page.
    pub opcode_bytes: u8,
    /// Number of i-stream fetch events a bytewise decode issues (opcode
    /// bytes, specifier bytes, immediate/displacement/absolute fields).
    /// Each event charges one memory-reference; with mapping off, or
    /// with the fetch page resident in the TLB, that is the *whole*
    /// charge, so materialization can apply it in one add.
    pub fetch_events: u8,
    /// True when no operand touches memory or updates a register during
    /// specifier evaluation (only literals, immediates, registers, and
    /// branch displacements). Once the fetch page is known resident such
    /// an instruction cannot fault or leave side effects mid-decode,
    /// enabling the fast materialization path.
    pub simple: bool,
    pub ops: FixedVec<OpTpl, 6>,
    /// Pre-materialized operands for the simple fast path, resolved at
    /// the physical address passed to [`InstTemplate::bake`]: branch
    /// targets are exact where VA == PA (mapping off) and are moved by
    /// `VA − PA` otherwise. Register-sourced slots hold placeholders
    /// listed in `patches`.
    pub baked: FixedVec<DecOp, 6>,
    /// Register-dependent slots of `baked` to rewrite at each hit.
    pub patches: FixedVec<RegPatch, 6>,
}

impl InstTemplate {
    /// Precomputes the operand array for the simple fast path,
    /// resolving branch targets against `pa` (== the VA the entry is hit
    /// by when mapping is off; the fast path rebases them when it is on).
    /// No-op for non-simple templates, which never take that path.
    pub fn bake(&mut self, pa: u32) {
        if !self.simple {
            return;
        }
        let mut off = self.opcode_bytes as u32;
        for (i, (top, spec)) in self.ops.iter().zip(self.op.operands()).enumerate() {
            self.baked.push(match *top {
                OpTpl::Branch { w, disp } => {
                    off += w as u32;
                    DecOp::Branch(pa.wrapping_add(off).wrapping_add(disp as u32))
                }
                OpTpl::Literal(v) => {
                    off += 1;
                    DecOp::Value(v as u32)
                }
                OpTpl::Immediate { w, value } => {
                    off += 1 + w as u32;
                    DecOp::Value(value)
                }
                OpTpl::Register(r) => {
                    off += 1;
                    let width = spec.dtype.bytes();
                    match spec.access {
                        AccessType::Write => DecOp::Loc {
                            loc: OperandLoc::Reg(r),
                            old: None,
                        },
                        AccessType::Read | AccessType::Modify => {
                            self.patches.push(RegPatch {
                                idx: i as u8,
                                reg: r,
                                width: width as u8,
                                modify: spec.access == AccessType::Modify,
                            });
                            DecOp::Value(0) // placeholder, patched per hit
                        }
                        AccessType::Address | AccessType::Branch => unreachable!(),
                    }
                }
                // Simple templates contain no effective-address operands.
                OpTpl::Ea { .. } => unreachable!(),
            });
        }
        debug_assert_eq!(off, self.len as u32);
    }
}

impl OpTpl {
    /// Fetch events a bytewise decode issues for this specifier.
    fn fetch_events(&self) -> u8 {
        match *self {
            // One displacement fetch; no specifier byte.
            OpTpl::Branch { .. } => 1,
            // The specifier byte alone.
            OpTpl::Literal(_) | OpTpl::Register(_) => 1,
            // Specifier byte + the value fetch.
            OpTpl::Immediate { .. } => 2,
            OpTpl::Ea { base, index_reg } => {
                let base_events = match base {
                    BaseTpl::Absolute(_) | BaseTpl::Disp { .. } => 1,
                    _ => 0,
                };
                1 + u8::from(index_reg.is_some()) + base_events
            }
        }
    }
}

fn read_uint(bytes: &[u8], i: &mut usize, len: u32) -> Option<u32> {
    let end = i.checked_add(len as usize)?;
    let chunk = bytes.get(*i..end)?;
    *i = end;
    let mut v = 0u32;
    for (k, b) in chunk.iter().enumerate() {
        v |= (*b as u32) << (8 * k);
    }
    Some(v)
}

fn read_int(bytes: &[u8], i: &mut usize, len: u32) -> Option<i32> {
    let raw = read_uint(bytes, i, len)?;
    Some(match len {
        1 => raw as u8 as i8 as i32,
        2 => raw as u16 as i16 as i32,
        _ => raw as i32,
    })
}

/// Parses the instruction starting at `bytes[0]`, which must be the tail
/// of one physical page. Returns `None` for anything that cannot be
/// templated — unknown opcodes, reserved specifier/access combinations,
/// or an encoding running off the page — leaving those to the bytewise
/// decoder (which raises the architecturally correct fault with the
/// correct cycle charges).
pub(crate) fn parse_template(bytes: &[u8]) -> Option<InstTemplate> {
    debug_assert!(bytes.len() <= PAGE_BYTES as usize);
    let mut i = 0usize;
    let b0 = *bytes.get(i)?;
    i += 1;
    let (op, opcode_bytes) = if b0 == 0xFD {
        let b1 = *bytes.get(i)?;
        i += 1;
        (Opcode::decode(b0, b1)?.0, 2u8)
    } else {
        (Opcode::decode(b0, 0)?.0, 1)
    };
    let mut ops = FixedVec::new();
    let mut fetch_events = opcode_bytes;
    let mut simple = true;
    for spec in op.operands() {
        let top = parse_operand(bytes, &mut i, spec.access, spec.dtype)?;
        fetch_events += top.fetch_events();
        simple &= !matches!(top, OpTpl::Ea { .. });
        ops.push(top);
    }
    Some(InstTemplate {
        op,
        len: i as u8, // fits: an instruction within one 512-byte page
        opcode_bytes,
        fetch_events,
        simple,
        ops,
        baked: FixedVec::new(),
        patches: FixedVec::new(),
    })
}

fn parse_operand(
    bytes: &[u8],
    i: &mut usize,
    access: AccessType,
    dtype: DataType,
) -> Option<OpTpl> {
    if access == AccessType::Branch {
        let w = if dtype == DataType::Byte { 1u32 } else { 2 };
        let disp = read_int(bytes, i, w)?;
        return Some(OpTpl::Branch { w: w as u8, disp });
    }
    let spec = *bytes.get(*i)?;
    *i += 1;
    let mode_bits = spec >> 4;
    let reg = spec & 0xf;
    let width = dtype.bytes();
    match mode_bits {
        0..=3 => (access == AccessType::Read).then_some(OpTpl::Literal(spec & 0x3f)),
        4 => {
            if reg == 15 {
                return None;
            }
            let base = parse_base(bytes, i)?;
            Some(OpTpl::Ea {
                base,
                index_reg: Some(reg),
            })
        }
        5 => {
            if reg == 15 || access == AccessType::Address {
                return None;
            }
            Some(OpTpl::Register(reg))
        }
        8 if reg == 15 => {
            if access != AccessType::Read {
                return None;
            }
            let value = read_uint(bytes, i, width)?;
            Some(OpTpl::Immediate {
                w: width as u8,
                value,
            })
        }
        _ => {
            let base = parse_base_at(bytes, i, mode_bits, reg)?;
            Some(OpTpl::Ea {
                base,
                index_reg: None,
            })
        }
    }
}

fn parse_base(bytes: &[u8], i: &mut usize) -> Option<BaseTpl> {
    let spec = *bytes.get(*i)?;
    *i += 1;
    let mode_bits = spec >> 4;
    let reg = spec & 0xf;
    // Within index mode, literal/register/immediate/index bases are
    // reserved; mode 8 with PC (immediate) is rejected here because
    // `parse_base_at` only sees it as a plain autoincrement.
    if mode_bits < 6 || (mode_bits == 8 && reg == 15) {
        return None;
    }
    parse_base_at(bytes, i, mode_bits, reg)
}

fn parse_base_at(bytes: &[u8], i: &mut usize, mode_bits: u8, reg: u8) -> Option<BaseTpl> {
    Some(match mode_bits {
        6 => BaseTpl::RegDeferred(reg),
        7 => {
            if reg == 15 {
                return None;
            }
            BaseTpl::AutoDec(reg)
        }
        8 => {
            // Mode 8 with PC is immediate, handled (primary specifier)
            // or rejected (index base) by the callers.
            debug_assert_ne!(reg, 15);
            BaseTpl::AutoInc(reg)
        }
        9 => {
            if reg == 15 {
                BaseTpl::Absolute(read_uint(bytes, i, 4)?)
            } else {
                BaseTpl::AutoIncDeferred(reg)
            }
        }
        0xA..=0xF => {
            let (dw, deferred) = match mode_bits {
                0xA => (1u32, false),
                0xB => (1, true),
                0xC => (2, false),
                0xD => (2, true),
                0xE => (4, false),
                _ => (4, true),
            };
            let disp = read_int(bytes, i, dw)?;
            BaseTpl::Disp {
                reg,
                dw: dw as u8,
                disp,
                deferred,
            }
        }
        _ => return None,
    })
}

/// Hit/miss statistics (diagnostic only — deliberately *not* part of
/// [`CpuCounters`](crate::CpuCounters), since they differ with the cache
/// on vs. off while the architectural counters must not).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found no matching template.
    pub misses: u64,
    /// Misses that could not be filled because the instruction was not
    /// templatable — most commonly a page-crossing encoding — and so
    /// fell back to bytewise decode (a subset of `misses`).
    pub bytewise_fallbacks: u64,
    /// Invalidation events (whole-cache and per-page combined).
    pub invalidations: u64,
}

impl DecodeCacheStats {
    /// Hit fraction over all lookups, or `None` when there have been no
    /// lookups at all (so reports can render `null`/0 instead of NaN).
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.hits + self.misses;
        (total != 0).then(|| self.hits as f64 / total as f64)
    }
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    pa: u32,
    gen: u32,
    /// Saturating execution counter, bumped on every cache hit. The
    /// translation tier reads this to find hot block heads; dropping the
    /// entry (any invalidation) drops the heat with it, so remapped or
    /// rewritten pages cannot retranslate from stale hotness.
    heat: u32,
    tpl: InstTemplate,
}

/// Direct-mapped cache of [`InstTemplate`]s keyed by the physical address
/// of the opcode byte.
#[derive(Debug)]
pub(crate) struct DecodeCache {
    /// Fixed-size boxed array: the power-of-two mask in [`Self::slot`]
    /// then proves every index in bounds, so lookups compile without
    /// bounds checks.
    slots: Box<[Option<Entry>; SLOTS]>,
    /// Generation counter: bumping it is an O(1) `invalidate_all`.
    gen: u32,
    stats: DecodeCacheStats,
}

/// Slot count; must be a power of two and at least one page of slots.
const SLOTS: usize = 8192;

impl DecodeCache {
    pub fn new() -> DecodeCache {
        DecodeCache {
            slots: vec![None; SLOTS]
                .into_boxed_slice()
                .try_into()
                .unwrap_or_else(|_| unreachable!()),
            gen: 0,
            stats: DecodeCacheStats::default(),
        }
    }

    #[inline]
    fn slot(pa: u32) -> usize {
        pa as usize & (SLOTS - 1)
    }

    #[inline]
    #[cfg(test)]
    pub fn lookup(&mut self, pa: u32) -> Option<InstTemplate> {
        match self.slots[Self::slot(pa)] {
            Some(e) if e.pa == pa && e.gen == self.gen => {
                self.stats.hits += 1;
                Some(e.tpl)
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Returns the cached template for `pa`, or parses and inserts one
    /// via `fill` on a miss. Returning a reference (rather than a copy)
    /// keeps the hit path free of a template-sized memcpy.
    #[inline]
    pub fn get_or_insert(
        &mut self,
        pa: u32,
        fill: impl FnOnce() -> Option<InstTemplate>,
    ) -> Option<&InstTemplate> {
        let idx = Self::slot(pa);
        match self.slots[idx] {
            Some(ref mut e) if e.pa == pa && e.gen == self.gen => {
                self.stats.hits += 1;
                e.heat = e.heat.saturating_add(1);
            }
            _ => {
                self.stats.misses += 1;
                let Some(tpl) = fill() else {
                    self.stats.bytewise_fallbacks += 1;
                    return None;
                };
                self.slots[idx] = Some(Entry {
                    pa,
                    gen: self.gen,
                    heat: 0,
                    tpl,
                });
            }
        }
        self.slots[idx].as_ref().map(|e| &e.tpl)
    }

    /// Returns the cached template for `pa` without touching statistics
    /// or heat — used by the translator when walking a candidate block.
    #[inline]
    pub fn peek(&self, pa: u32) -> Option<&InstTemplate> {
        match self.slots[Self::slot(pa)] {
            Some(ref e) if e.pa == pa && e.gen == self.gen => Some(&e.tpl),
            _ => None,
        }
    }

    /// The hotness counter for `pa` (0 when not cached). Stats-free.
    #[inline]
    pub fn heat(&self, pa: u32) -> u32 {
        match self.slots[Self::slot(pa)] {
            Some(ref e) if e.pa == pa && e.gen == self.gen => e.heat,
            _ => 0,
        }
    }

    #[cfg(test)]
    pub fn insert(&mut self, pa: u32, tpl: InstTemplate) {
        self.slots[Self::slot(pa)] = Some(Entry {
            pa,
            gen: self.gen,
            heat: 0,
            tpl,
        });
    }

    /// Invalidates everything (TBIA, MAPEN/base-register writes, LDPCTX,
    /// explicit VMM requests).
    pub fn invalidate_all(&mut self) {
        self.gen = self.gen.wrapping_add(1);
        self.stats.invalidations += 1;
        // On the (astronomically unlikely) generation wrap, stale entries
        // could alias the new generation; purge for safety.
        if self.gen == 0 {
            self.slots.fill(None);
        }
    }

    /// Invalidates all entries whose opcode byte lies in physical page
    /// `pfn`. Slot indices are the low PA bits, so one page's entries
    /// occupy `PAGE_BYTES` consecutive slots.
    pub fn invalidate_page(&mut self, pfn: u32) {
        let first = Self::slot(pfn << PAGE_SHIFT);
        for idx in first..first + PAGE_BYTES as usize {
            if let Some(e) = self.slots[idx] {
                if e.pa >> PAGE_SHIFT == pfn {
                    self.slots[idx] = None;
                }
            }
        }
        self.stats.invalidations += 1;
    }

    pub fn stats(&self) -> DecodeCacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tpl_of(bytes: &[u8]) -> InstTemplate {
        parse_template(bytes).expect("parseable")
    }

    #[test]
    fn parses_movl_literal_register() {
        // MOVL #5, R0
        let t = tpl_of(&[0xD0, 0x05, 0x50]);
        assert_eq!(t.op, Opcode::Movl);
        assert_eq!(t.len, 3);
        assert_eq!(t.opcode_bytes, 1);
        assert_eq!(t.ops[0], OpTpl::Literal(5));
        assert_eq!(t.ops[1], OpTpl::Register(0));
    }

    #[test]
    fn parses_immediate_and_absolute() {
        // MOVL #0x11223344, @#0x500
        let t = tpl_of(&[
            0xD0, 0x8F, 0x44, 0x33, 0x22, 0x11, 0x9F, 0x00, 0x05, 0x00, 0x00,
        ]);
        assert_eq!(
            t.ops[0],
            OpTpl::Immediate {
                w: 4,
                value: 0x1122_3344
            }
        );
        assert_eq!(
            t.ops[1],
            OpTpl::Ea {
                base: BaseTpl::Absolute(0x500),
                index_reg: None
            }
        );
        assert_eq!(t.len, 11);
    }

    #[test]
    fn parses_displacement_and_index() {
        // MOVL 8(R2), R0
        let t = tpl_of(&[0xD0, 0xA2, 0x08, 0x50]);
        assert_eq!(
            t.ops[0],
            OpTpl::Ea {
                base: BaseTpl::Disp {
                    reg: 2,
                    dw: 1,
                    disp: 8,
                    deferred: false
                },
                index_reg: None
            }
        );
        // MOVL (R2)[R3], R0
        let t = tpl_of(&[0xD0, 0x43, 0x62, 0x50]);
        assert_eq!(
            t.ops[0],
            OpTpl::Ea {
                base: BaseTpl::RegDeferred(2),
                index_reg: Some(3)
            }
        );
    }

    #[test]
    fn parses_branch_displacement() {
        // BRB .-2
        let t = tpl_of(&[0x11, 0xFE]);
        assert_eq!(t.ops[0], OpTpl::Branch { w: 1, disp: -2 });
    }

    #[test]
    fn rejects_reserved_encodings() {
        // CLRL #1: literal as write destination.
        assert!(parse_template(&[0xD4, 0x01]).is_none());
        // MOVAL R1, R0: address of a register.
        assert!(parse_template(&[0xDE, 0x51, 0x50]).is_none());
        // Register base in index mode.
        assert!(parse_template(&[0xD0, 0x41, 0x50]).is_none());
        // Immediate base in index mode.
        assert!(parse_template(&[0xD0, 0x41, 0x8F, 1, 0, 0, 0, 0x50]).is_none());
        // Unknown opcode.
        assert!(parse_template(&[0x40]).is_none());
        assert!(parse_template(&[0xFD, 0x77]).is_none());
    }

    #[test]
    fn rejects_truncated_encodings() {
        assert!(parse_template(&[]).is_none());
        assert!(parse_template(&[0xD0]).is_none());
        assert!(parse_template(&[0xD0, 0x8F, 0x44, 0x33]).is_none());
        assert!(parse_template(&[0xFD]).is_none());
    }

    #[test]
    fn cache_lookup_insert_invalidate() {
        let mut c = DecodeCache::new();
        let t = tpl_of(&[0xD0, 0x05, 0x50]);
        assert!(c.lookup(0x1000).is_none());
        c.insert(0x1000, t);
        assert_eq!(c.lookup(0x1000), Some(t));
        // Different PA aliasing the same slot misses.
        assert!(c.lookup(0x1000 + SLOTS as u32).is_none());
        c.invalidate_all();
        assert!(c.lookup(0x1000).is_none());
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 3);
        assert_eq!(s.invalidations, 1);
    }

    #[test]
    fn page_invalidation_is_targeted() {
        let mut c = DecodeCache::new();
        let t = tpl_of(&[0xD0, 0x05, 0x50]);
        c.insert(0x1000, t); // pfn 8
        c.insert(0x1200, t); // pfn 9
        c.invalidate_page(8);
        assert!(c.lookup(0x1000).is_none());
        assert_eq!(c.lookup(0x1200), Some(t));
    }

    #[test]
    fn heat_accumulates_and_invalidation_drops_it() {
        let mut c = DecodeCache::new();
        let t = tpl_of(&[0xD0, 0x05, 0x50]);
        assert_eq!(c.heat(0x1000), 0);
        for _ in 0..3 {
            c.get_or_insert(0x1000, || Some(t));
        }
        // Insert miss, then two hits.
        assert_eq!(c.heat(0x1000), 2);
        assert_eq!(c.peek(0x1000), Some(&t));
        // Per-page invalidation drops the counter with the entry.
        c.invalidate_page(8);
        assert_eq!(c.heat(0x1000), 0);
        assert!(c.peek(0x1000).is_none());
        // Rebuild, then whole-cache invalidation drops it too.
        for _ in 0..3 {
            c.get_or_insert(0x1000, || Some(t));
        }
        assert_eq!(c.heat(0x1000), 2);
        c.invalidate_all();
        assert_eq!(c.heat(0x1000), 0);
    }

    #[test]
    fn bytewise_fallbacks_are_counted() {
        let mut c = DecodeCache::new();
        assert!(c.get_or_insert(0x1000, || None).is_none());
        assert!(c.get_or_insert(0x1000, || None).is_none());
        let s = c.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.bytewise_fallbacks, 2);
    }

    #[test]
    fn hit_rate_handles_zero_lookups() {
        let mut c = DecodeCache::new();
        assert_eq!(c.stats().hit_rate(), None);
        let t = tpl_of(&[0xD0, 0x05, 0x50]);
        c.get_or_insert(0x1000, || Some(t));
        c.get_or_insert(0x1000, || Some(t));
        assert_eq!(c.stats().hit_rate(), Some(0.5));
    }
}
