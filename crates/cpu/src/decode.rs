//! Instruction and operand-specifier decoding.
//!
//! Decoding performs all operand *reads* and effective-address
//! computations but commits **no** architectural state: register side
//! effects (autoincrement/autodecrement) are collected into the decode
//! result and applied at commit time. A fault anywhere during decode
//! therefore leaves the machine exactly at the instruction boundary, which
//! is what makes instruction restart (page faults, modify faults, shadow
//! fills) correct.

use crate::bus::IO_BASE_PA;
use crate::event::OperandLoc;
use crate::fixedvec::FixedVec;
use crate::icache::{parse_template, BaseTpl, InstTemplate, OpTpl};
use crate::machine::{ExecTier, Machine};
use vax_arch::{
    AccessMode, AccessType, CostModel, DataType, Exception, Opcode, VirtAddr, PAGE_SHIFT,
};
use vax_mem::MemFault;

/// Why instruction execution aborted before committing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Abort {
    /// A memory-management or machine-check fault.
    Fault(MemFault),
    /// An architectural exception.
    Exc(Exception),
}

impl From<MemFault> for Abort {
    fn from(f: MemFault) -> Abort {
        Abort::Fault(f)
    }
}

impl From<Exception> for Abort {
    fn from(e: Exception) -> Abort {
        Abort::Exc(e)
    }
}

/// One decoded operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecOp {
    /// Read access: the fetched value (zero-extended to 32 bits).
    Value(u32),
    /// Write or modify access: destination, plus the old value for modify.
    Loc {
        /// Where the result goes.
        loc: OperandLoc,
        /// The current value, for a modify operand; `None` for a plain
        /// write destination.
        old: Option<u32>,
    },
    /// Address access: the effective address.
    Addr(VirtAddr),
    /// Branch displacement: the resolved target PC.
    Branch(u32),
}

impl Default for DecOp {
    /// Placeholder for [`FixedVec`] backing storage only.
    fn default() -> DecOp {
        DecOp::Value(0)
    }
}

impl DecOp {
    /// The operand's input value.
    ///
    /// # Panics
    ///
    /// Panics if the operand carries no value (plain write destination).
    pub(crate) fn value(&self) -> u32 {
        match self {
            DecOp::Value(v) => *v,
            DecOp::Loc { old: Some(v), .. } => *v,
            DecOp::Addr(a) => a.raw(),
            DecOp::Branch(t) => *t,
            DecOp::Loc { old: None, .. } => panic!("write operand has no value"),
        }
    }
}

/// Register-update list: at most one autoincrement/autodecrement per
/// specifier, six specifiers per instruction; 8 leaves headroom.
pub type RegUpdates = FixedVec<(u8, u32), 8>;

/// A fully decoded instruction, ready to execute. It is also the
/// VM-emulation trap's packet (paper §4.2: the microcode parses every
/// operand before invoking the VMM, which reads it through
/// [`Machine::trapped_instruction`]). Inline storage: decoding
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded {
    /// The instruction.
    pub op: Opcode,
    /// PC of the opcode byte.
    pub pc_start: u32,
    /// PC of the following instruction.
    pub next_pc: u32,
    /// Decoded operands in instruction order.
    pub operands: FixedVec<DecOp, 6>,
    /// Register updates from autoincrement/autodecrement, to apply at
    /// commit ([`Machine::commit_reg_updates`]): `(reg, new_value)` in
    /// decode order.
    pub reg_updates: RegUpdates,
}

impl Decoded {
    /// A blank decode result for the out-parameter decode API. Decoding
    /// fills it in place — instruction structures are never moved, which
    /// keeps a couple of hundred bytes of memcpy out of every step.
    pub(crate) fn empty() -> Decoded {
        Decoded {
            op: Opcode::Nop,
            pc_start: 0,
            next_pc: 0,
            operands: FixedVec::new(),
            reg_updates: FixedVec::new(),
        }
    }

    /// Operand `i`'s value: the fetched value of a read operand, the
    /// current value of a modify operand, the effective address of an
    /// address operand or the target of a branch. `None` for a plain
    /// write destination or past the last operand, so reading a trapped
    /// guest instruction cannot panic.
    pub fn operand(&self, i: usize) -> Option<u32> {
        match *self.operands.get(i)? {
            DecOp::Value(v) | DecOp::Branch(v) | DecOp::Loc { old: Some(v), .. } => Some(v),
            DecOp::Addr(a) => Some(a.raw()),
            DecOp::Loc { old: None, .. } => None,
        }
    }
}

struct Cursor<'a> {
    pc: u32,
    reg_updates: &'a mut RegUpdates,
}

impl Cursor<'_> {
    fn reg(&self, m: &Machine, r: u8) -> u32 {
        // Later updates shadow earlier ones and the register file.
        self.reg_updates
            .iter()
            .rev()
            .find(|(ur, _)| *ur == r)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| m.reg(r as usize))
    }

    fn update(&mut self, r: u8, v: u32) {
        self.reg_updates.push((r, v));
    }
}

impl Machine {
    fn fetch_u8(&mut self, cur: &mut Cursor<'_>) -> Result<u8, Abort> {
        let mode = self.psl().cur_mode();
        let v = self.read_virt(VirtAddr::new(cur.pc), 1, mode)?;
        cur.pc = cur.pc.wrapping_add(1);
        Ok(v as u8)
    }

    fn fetch(&mut self, cur: &mut Cursor<'_>, len: u32) -> Result<u32, Abort> {
        let mode = self.psl().cur_mode();
        let v = self.read_virt(VirtAddr::new(cur.pc), len, mode)?;
        cur.pc = cur.pc.wrapping_add(len);
        Ok(v)
    }

    fn read_operand_mem(&mut self, va: VirtAddr, dtype: DataType) -> Result<u32, Abort> {
        let mode = self.psl().cur_mode();
        Ok(self.read_virt(va, dtype.bytes(), mode)?)
    }

    fn decode_operand(
        &mut self,
        cur: &mut Cursor<'_>,
        access: AccessType,
        dtype: DataType,
    ) -> Result<DecOp, Abort> {
        if access == AccessType::Branch {
            let w = if dtype == DataType::Byte { 1 } else { 2 };
            let raw = self.fetch(cur, w)?;
            let disp = if w == 1 {
                raw as u8 as i8 as i32
            } else {
                raw as u16 as i16 as i32
            };
            return Ok(DecOp::Branch(cur.pc.wrapping_add(disp as u32)));
        }

        let spec = self.fetch_u8(cur)?;
        let mode_bits = spec >> 4;
        let reg = spec & 0xf;
        let width = dtype.bytes();

        // Effective address for the memory modes; register/literal modes
        // return early.
        let ea: VirtAddr = match mode_bits {
            0..=3 => {
                // Short literal: read-only.
                return match access {
                    AccessType::Read => Ok(DecOp::Value((spec & 0x3f) as u32)),
                    _ => Err(Exception::ReservedAddressingMode.into()),
                };
            }
            4 => {
                // Indexed mode: `base[Rx]` — the effective address is the
                // base operand's address plus Rx scaled by the operand
                // width. The base specifier follows and may be any
                // addressable mode except literal, register, immediate,
                // or another index.
                if reg == 15 {
                    return Err(Exception::ReservedAddressingMode.into());
                }
                let index = cur.reg(self, reg);
                let base = self.decode_base_ea(cur, width)?;
                base.wrapping_add(index.wrapping_mul(width))
            }
            5 => {
                if reg == 15 {
                    return Err(Exception::ReservedAddressingMode.into());
                }
                return Ok(match access {
                    AccessType::Read => DecOp::Value(mask_width(cur.reg(self, reg), width)),
                    AccessType::Write => DecOp::Loc {
                        loc: OperandLoc::Reg(reg),
                        old: None,
                    },
                    AccessType::Modify => DecOp::Loc {
                        loc: OperandLoc::Reg(reg),
                        old: Some(mask_width(cur.reg(self, reg), width)),
                    },
                    AccessType::Address => return Err(Exception::ReservedAddressingMode.into()),
                    AccessType::Branch => unreachable!(),
                });
            }
            6 => VirtAddr::new(cur.reg(self, reg)),
            7 => {
                if reg == 15 {
                    return Err(Exception::ReservedAddressingMode.into());
                }
                let v = cur.reg(self, reg).wrapping_sub(width);
                cur.update(reg, v);
                VirtAddr::new(v)
            }
            8 => {
                if reg == 15 {
                    // (PC)+ = immediate.
                    let v = self.fetch(cur, width)?;
                    return match access {
                        AccessType::Read => Ok(DecOp::Value(v)),
                        _ => Err(Exception::ReservedAddressingMode.into()),
                    };
                }
                let v = cur.reg(self, reg);
                cur.update(reg, v.wrapping_add(width));
                VirtAddr::new(v)
            }
            9 => {
                if reg == 15 {
                    // @(PC)+ = absolute.
                    VirtAddr::new(self.fetch(cur, 4)?)
                } else {
                    let ptr = cur.reg(self, reg);
                    cur.update(reg, ptr.wrapping_add(4));
                    let ea = self.read_operand_mem(VirtAddr::new(ptr), DataType::Long)?;
                    VirtAddr::new(ea)
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
                let raw = self.fetch(cur, dw)?;
                let disp = match dw {
                    1 => raw as u8 as i8 as i32,
                    2 => raw as u16 as i16 as i32,
                    _ => raw as i32,
                };
                // For PC the base is the updated PC (after the
                // displacement bytes).
                let base = if reg == 15 {
                    cur.pc
                } else {
                    cur.reg(self, reg)
                };
                let direct = VirtAddr::new(base.wrapping_add(disp as u32));
                if deferred {
                    let ea = self.read_operand_mem(direct, DataType::Long)?;
                    VirtAddr::new(ea)
                } else {
                    direct
                }
            }
            _ => unreachable!(),
        };

        Ok(match access {
            AccessType::Read => DecOp::Value(self.read_operand_mem(ea, dtype)?),
            AccessType::Write => DecOp::Loc {
                loc: OperandLoc::Mem(ea),
                old: None,
            },
            AccessType::Modify => DecOp::Loc {
                loc: OperandLoc::Mem(ea),
                old: Some(self.read_operand_mem(ea, dtype)?),
            },
            AccessType::Address => DecOp::Addr(ea),
            AccessType::Branch => unreachable!(),
        })
    }

    /// Decodes the *base* specifier of an indexed operand: any mode that
    /// yields a memory address. Literal, register, immediate, and nested
    /// index modes are reserved here (as on the real VAX).
    fn decode_base_ea(&mut self, cur: &mut Cursor<'_>, width: u32) -> Result<VirtAddr, Abort> {
        let spec = self.fetch_u8(cur)?;
        let mode_bits = spec >> 4;
        let reg = spec & 0xf;
        let ea = match mode_bits {
            6 => VirtAddr::new(cur.reg(self, reg)),
            7 => {
                if reg == 15 {
                    return Err(Exception::ReservedAddressingMode.into());
                }
                // Within index mode, autodecrement moves by the operand
                // width.
                let v = cur.reg(self, reg).wrapping_sub(width);
                cur.update(reg, v);
                VirtAddr::new(v)
            }
            8 => {
                if reg == 15 {
                    return Err(Exception::ReservedAddressingMode.into());
                }
                let v = cur.reg(self, reg);
                cur.update(reg, v.wrapping_add(width));
                VirtAddr::new(v)
            }
            9 => {
                if reg == 15 {
                    VirtAddr::new(self.fetch(cur, 4)?)
                } else {
                    let ptr = cur.reg(self, reg);
                    cur.update(reg, ptr.wrapping_add(4));
                    let ea = self.read_operand_mem(VirtAddr::new(ptr), DataType::Long)?;
                    VirtAddr::new(ea)
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
                let raw = self.fetch(cur, dw)?;
                let disp = match dw {
                    1 => raw as u8 as i8 as i32,
                    2 => raw as u16 as i16 as i32,
                    _ => raw as i32,
                };
                let base = if reg == 15 {
                    cur.pc
                } else {
                    cur.reg(self, reg)
                };
                let direct = VirtAddr::new(base.wrapping_add(disp as u32));
                if deferred {
                    let ea = self.read_operand_mem(direct, DataType::Long)?;
                    VirtAddr::new(ea)
                } else {
                    direct
                }
            }
            _ => return Err(Exception::ReservedAddressingMode.into()),
        };
        Ok(ea)
    }

    /// Fetches and decodes the instruction at the PC, committing nothing.
    ///
    /// Tries the decoded-instruction cache first (when enabled); any
    /// instruction the cache cannot serve — unmapped or IO-space fetch
    /// page, page-crossing or untemplatable encoding — falls back to the
    /// bytewise decoder. Both paths charge identical cycles and touch
    /// the TLB identically, so enabling the cache never changes
    /// `cycles()` or `counters()`.
    pub(crate) fn decode_instruction(&mut self, d: &mut Decoded) -> Result<(), Abort> {
        if self.exec_tier != ExecTier::Interp && self.try_decode_cached(d)? {
            return Ok(());
        }
        self.decode_bytewise(d)
    }

    /// Attempts a cache-served decode into `d`. `Ok(false)` means "use
    /// the bytewise path" and guarantees no cycles were charged and no
    /// architectural state was touched.
    fn try_decode_cached(&mut self, d: &mut Decoded) -> Result<bool, Abort> {
        // Drain write notifications before trusting any entry: a store
        // into a cached code page (self-modifying code, VMM writes,
        // modify-bit writeback) invalidates that page's templates.
        self.drain_dirty_code();
        let pc = self.pc();
        let mode = self.psl.cur_mode();
        let Some(pa) = self.fetch_pa_probe(VirtAddr::new(pc), mode) else {
            return Ok(false);
        };
        // Split borrows: the template stays a reference into the cache
        // while the fast path mutates only disjoint fields, so a hit
        // copies no template bytes.
        let Machine {
            icache,
            mem,
            mmu,
            regs,
            cycles,
            costs,
            ..
        } = self;
        let Some(tpl) = icache.get_or_insert(pa, || {
            let mut t = mem.page_tail(pa).and_then(parse_template)?;
            t.bake(pa);
            mem.note_code_page(pa >> PAGE_SHIFT);
            Some(t)
        }) else {
            return Ok(false);
        };
        if tpl.simple {
            materialize_simple(tpl, pc.wrapping_sub(pa), regs, cycles, costs, d);
            if mmu.mapen() {
                // The probe found the fetch page resident and readable,
                // and a template never leaves its page: each fetch event
                // of the bytewise decode would have been one TLB hit.
                mmu.tlb_mut().record_hits(u64::from(tpl.fetch_events));
            }
            return Ok(true);
        }
        let tpl = *tpl;
        self.materialize(&tpl, d)?;
        Ok(true)
    }

    /// Charge-free probe for the physical address of a fetch byte:
    /// identity when mapping is off, otherwise a TLB peek (no hit/miss
    /// accounting) plus protection check. `None` (unmapped, protected,
    /// or IO space) routes the decode to the bytewise path, which warms
    /// the TLB or raises the fault with the correct charges.
    pub(crate) fn fetch_pa_probe(&self, va: VirtAddr, mode: AccessMode) -> Option<u32> {
        let pa = if self.mmu.mapen() {
            let e = self.mmu.tlb().peek(va)?;
            if !e.prot.allows(mode, false) {
                return None;
            }
            (e.pfn << PAGE_SHIFT) | va.byte_offset()
        } else {
            va.raw()
        };
        (pa < IO_BASE_PA).then_some(pa)
    }

    /// Replays the cycle charge and TLB traffic of the `read_virt` a
    /// bytewise i-stream `fetch` of `len` bytes would issue: the
    /// memory-reference charge plus a *real* translation (TLB hit/miss
    /// counters, walk costs, modify machinery). The RAM byte read it
    /// omits is charge-free, and the bytes are already in the template.
    /// Cached instructions never cross a page, so one translation per
    /// fetch matches the bytewise path exactly.
    fn charge_fetch(&mut self, cur: &mut Cursor<'_>, len: u32) -> Result<(), Abort> {
        self.cycles += self.costs.memory_reference;
        // With mapping off, translate is the identity: zero cycles, no
        // TLB counters. Skipping the call keeps the replay bit-identical
        // while saving the dominant per-event cost of the cached path.
        if self.mmu.mapen() {
            let mode = self.psl.cur_mode();
            let t = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                mmu.translate(mem, VirtAddr::new(cur.pc), mode, false, costs)?
            };
            self.cycles += t.cycles;
        }
        cur.pc = cur.pc.wrapping_add(len);
        Ok(())
    }

    /// Evaluates a template against live machine state, producing the
    /// same [`Decoded`] — and the same cycle/counter side effects — as
    /// [`Machine::decode_bytewise`] over the same bytes.
    fn materialize(&mut self, tpl: &InstTemplate, d: &mut Decoded) -> Result<(), Abort> {
        let pc_start = self.pc();
        d.op = tpl.op;
        d.pc_start = pc_start;
        d.operands.clear();
        d.reg_updates.clear();
        let mut cur = Cursor {
            pc: pc_start,
            reg_updates: &mut d.reg_updates,
        };
        for _ in 0..tpl.opcode_bytes {
            self.charge_fetch(&mut cur, 1)?;
        }
        for (top, spec) in tpl.ops.iter().zip(tpl.op.operands()) {
            let o = self.materialize_operand(&mut cur, top, spec.access, spec.dtype)?;
            d.operands.push(o);
        }
        debug_assert_eq!(cur.pc, pc_start.wrapping_add(tpl.len as u32));
        d.next_pc = cur.pc;
        Ok(())
    }

    fn materialize_operand(
        &mut self,
        cur: &mut Cursor<'_>,
        top: &OpTpl,
        access: AccessType,
        dtype: DataType,
    ) -> Result<DecOp, Abort> {
        if let OpTpl::Branch { w, disp } = *top {
            self.charge_fetch(cur, w as u32)?;
            return Ok(DecOp::Branch(cur.pc.wrapping_add(disp as u32)));
        }
        // Every non-branch operand starts with its specifier byte.
        self.charge_fetch(cur, 1)?;
        let width = dtype.bytes();
        let ea = match *top {
            OpTpl::Branch { .. } => unreachable!(),
            OpTpl::Literal(v) => return Ok(DecOp::Value(v as u32)),
            OpTpl::Immediate { w, value } => {
                self.charge_fetch(cur, w as u32)?;
                return Ok(DecOp::Value(value));
            }
            OpTpl::Register(r) => {
                return Ok(match access {
                    AccessType::Read => DecOp::Value(mask_width(cur.reg(self, r), width)),
                    AccessType::Write => DecOp::Loc {
                        loc: OperandLoc::Reg(r),
                        old: None,
                    },
                    AccessType::Modify => DecOp::Loc {
                        loc: OperandLoc::Reg(r),
                        old: Some(mask_width(cur.reg(self, r), width)),
                    },
                    // parse_template rejects register operands for
                    // Address access; Branch never reaches here.
                    AccessType::Address | AccessType::Branch => unreachable!(),
                });
            }
            OpTpl::Ea { base, index_reg } => match index_reg {
                Some(xr) => {
                    // The index register is read before any base side
                    // effect, as in the bytewise decoder.
                    let index = cur.reg(self, xr);
                    self.charge_fetch(cur, 1)?; // the base specifier byte
                    let base_ea = self.materialize_base(cur, base, width)?;
                    base_ea.wrapping_add(index.wrapping_mul(width))
                }
                None => self.materialize_base(cur, base, width)?,
            },
        };
        let ea = VirtAddr::new(ea);
        Ok(match access {
            AccessType::Read => DecOp::Value(self.read_operand_mem(ea, dtype)?),
            AccessType::Write => DecOp::Loc {
                loc: OperandLoc::Mem(ea),
                old: None,
            },
            AccessType::Modify => DecOp::Loc {
                loc: OperandLoc::Mem(ea),
                old: Some(self.read_operand_mem(ea, dtype)?),
            },
            AccessType::Address => DecOp::Addr(ea),
            AccessType::Branch => unreachable!(),
        })
    }

    fn materialize_base(
        &mut self,
        cur: &mut Cursor<'_>,
        base: BaseTpl,
        width: u32,
    ) -> Result<u32, Abort> {
        Ok(match base {
            BaseTpl::RegDeferred(r) => cur.reg(self, r),
            BaseTpl::AutoDec(r) => {
                let v = cur.reg(self, r).wrapping_sub(width);
                cur.update(r, v);
                v
            }
            BaseTpl::AutoInc(r) => {
                let v = cur.reg(self, r);
                cur.update(r, v.wrapping_add(width));
                v
            }
            BaseTpl::AutoIncDeferred(r) => {
                let ptr = cur.reg(self, r);
                cur.update(r, ptr.wrapping_add(4));
                self.read_operand_mem(VirtAddr::new(ptr), DataType::Long)?
            }
            BaseTpl::Absolute(a) => {
                self.charge_fetch(cur, 4)?;
                a
            }
            BaseTpl::Disp {
                reg,
                dw,
                disp,
                deferred,
            } => {
                self.charge_fetch(cur, dw as u32)?;
                let b = if reg == 15 {
                    cur.pc
                } else {
                    cur.reg(self, reg)
                };
                let direct = b.wrapping_add(disp as u32);
                if deferred {
                    self.read_operand_mem(VirtAddr::new(direct), DataType::Long)?
                } else {
                    direct
                }
            }
        })
    }

    /// The original byte-by-byte decoder: every i-stream byte comes in
    /// through `read_virt`. This is the semantic reference the cached
    /// path must match charge-for-charge, and the only path that can
    /// raise decode faults.
    pub(crate) fn decode_bytewise(&mut self, d: &mut Decoded) -> Result<(), Abort> {
        let pc_start = self.pc();
        d.pc_start = pc_start;
        d.operands.clear();
        d.reg_updates.clear();
        let mut cur = Cursor {
            pc: pc_start,
            reg_updates: &mut d.reg_updates,
        };
        let b0 = self.fetch_u8(&mut cur)?;
        let b1_pos = cur.pc;
        let op = if b0 == 0xFD {
            let b1 = self.fetch_u8(&mut cur)?;
            match Opcode::decode(b0, b1) {
                Some((op, _)) => op,
                None => return Err(Exception::ReservedInstruction.into()),
            }
        } else {
            match Opcode::decode(b0, 0) {
                Some((op, _)) => op,
                None => {
                    let _ = b1_pos;
                    return Err(Exception::ReservedInstruction.into());
                }
            }
        };
        d.op = op;
        for spec in op.operands() {
            let o = self.decode_operand(&mut cur, spec.access, spec.dtype)?;
            d.operands.push(o);
        }
        d.next_pc = cur.pc;
        Ok(())
    }

    /// Applies decode-time register side effects (autoincrement etc.):
    /// at retire, or by the VMM exactly when it emulates a trapped
    /// instruction.
    pub fn commit_reg_updates(&mut self, d: &Decoded) {
        for (r, v) in &d.reg_updates {
            self.set_reg(*r as usize, *v);
        }
    }

    /// Writes an operand destination with the operand's width, as `mode`.
    pub(crate) fn write_loc(
        &mut self,
        loc: OperandLoc,
        value: u32,
        dtype: DataType,
        mode: AccessMode,
    ) -> Result<(), Abort> {
        match loc {
            OperandLoc::Reg(r) => {
                let old = self.reg(r as usize);
                let merged = match dtype {
                    DataType::Byte => (old & !0xff) | (value & 0xff),
                    DataType::Word => (old & !0xffff) | (value & 0xffff),
                    DataType::Long => value,
                };
                self.set_reg(r as usize, merged);
            }
            OperandLoc::Mem(va) => {
                self.write_virt(va, value, dtype.bytes(), mode)?;
            }
        }
        Ok(())
    }
}

/// Fast materialization for templates with no memory-touching operands
/// (literals, immediates, registers and branch displacements), once
/// [`Machine::fetch_pa_probe`] has found the fetch page resident and
/// readable. Every fetch event then costs exactly one memory reference —
/// with mapping off translate is the zero-cost identity; with it on each
/// is a TLB hit on the probed entry, which the caller credits in one
/// batch — and nothing can fault or update a register mid-decode, so the
/// per-event charges collapse into one add and operands come straight
/// from the template and the live registers. Bit-identical to
/// [`Machine::materialize`], which is itself bit-identical to the
/// bytewise decode. `rebase` is the fetch VA minus the PA the template
/// was baked at (0 with mapping off). A free function over disjoint
/// `Machine` fields so the template can stay borrowed from the cache.
fn materialize_simple(
    tpl: &InstTemplate,
    rebase: u32,
    regs: &[u32; 16],
    cycles: &mut u64,
    costs: &CostModel,
    d: &mut Decoded,
) {
    let pc_start = regs[15];
    *cycles += tpl.fetch_events as u64 * costs.memory_reference;
    d.op = tpl.op;
    d.pc_start = pc_start;
    d.next_pc = pc_start.wrapping_add(tpl.len as u32);
    // The template was baked at its PA; branch targets are the only
    // position-dependent operands, so moving them by `rebase` makes the
    // pre-materialized operands exact at this VA. Only register-sourced
    // slots need the live register file.
    d.operands = tpl.baked;
    if rebase != 0 {
        for o in d.operands.iter_mut() {
            if let DecOp::Branch(t) = o {
                *t = t.wrapping_add(rebase);
            }
        }
    }
    d.reg_updates.clear();
    for p in &tpl.patches {
        let v = mask_width(regs[p.reg as usize], p.width as u32);
        d.operands[p.idx as usize] = if p.modify {
            DecOp::Loc {
                loc: OperandLoc::Reg(p.reg),
                old: Some(v),
            }
        } else {
            DecOp::Value(v)
        };
    }
}

pub(crate) fn mask_width(v: u32, width: u32) -> u32 {
    match width {
        1 => v & 0xff,
        2 => v & 0xffff,
        _ => v,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vax_arch::MachineVariant;

    fn machine_with(code: &[u8]) -> Machine {
        let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
        m.mem_mut().write_slice(0x200, code).unwrap();
        m.set_pc(0x200);
        m
    }

    /// Test shim over the out-parameter decode API.
    fn decode(m: &mut Machine) -> Result<Decoded, Abort> {
        let mut d = Decoded::empty();
        m.decode_instruction(&mut d)?;
        Ok(d)
    }

    #[test]
    fn operand_value_accessor() {
        let mut d = Decoded::empty();
        d.operands.push(DecOp::Value(7));
        d.operands.push(DecOp::Loc {
            loc: OperandLoc::Reg(3),
            old: None,
        });
        d.operands.push(DecOp::Addr(VirtAddr::new(0x44)));
        d.operands.push(DecOp::Loc {
            loc: OperandLoc::Reg(3),
            old: Some(9),
        });
        d.operands.push(DecOp::Branch(0x200));
        assert_eq!(d.operand(0), Some(7));
        assert_eq!(d.operand(1), None, "a plain write destination");
        assert_eq!(d.operand(2), Some(0x44));
        assert_eq!(d.operand(3), Some(9));
        assert_eq!(d.operand(4), Some(0x200));
        assert_eq!(d.operand(5), None, "past the last operand");
    }

    #[test]
    fn decodes_literal_and_register() {
        // MOVL #5, R0
        let mut m = machine_with(&[0xD0, 0x05, 0x50]);
        let d = decode(&mut m).unwrap();
        assert_eq!(d.op, Opcode::Movl);
        assert_eq!(d.operands[0], DecOp::Value(5));
        assert_eq!(
            d.operands[1],
            DecOp::Loc {
                loc: OperandLoc::Reg(0),
                old: None
            }
        );
        assert_eq!(d.next_pc, 0x203);
        assert!(d.reg_updates.is_empty());
    }

    #[test]
    fn autoincrement_is_pending_not_committed() {
        // MOVL (R1)+, R0 with R1 = 0x300
        let mut m = machine_with(&[0xD0, 0x81, 0x50]);
        m.set_reg(1, 0x300);
        m.mem_mut().write_u32(0x300, 0xCAFE).unwrap();
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(0xCAFE));
        assert_eq!(d.reg_updates, vec![(1, 0x304)]);
        assert_eq!(m.reg(1), 0x300, "nothing committed during decode");
        m.commit_reg_updates(&d);
        assert_eq!(m.reg(1), 0x304);
    }

    #[test]
    fn double_autoincrement_same_register() {
        // MOVL (R0)+, (R0)+  — the second use must see the first update.
        let mut m = machine_with(&[0xD0, 0x80, 0x80]);
        m.set_reg(0, 0x400);
        m.mem_mut().write_u32(0x400, 7).unwrap();
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(7));
        assert_eq!(
            d.operands[1],
            DecOp::Loc {
                loc: OperandLoc::Mem(VirtAddr::new(0x404)),
                old: None
            }
        );
        assert_eq!(d.reg_updates, vec![(0, 0x404), (0, 0x408)]);
    }

    #[test]
    fn autodecrement_computes_new_address() {
        // MOVL R0, -(SP)
        let mut m = machine_with(&[0xD0, 0x50, 0x7E]);
        m.set_reg(14, 0x800);
        let d = decode(&mut m).unwrap();
        assert_eq!(
            d.operands[1],
            DecOp::Loc {
                loc: OperandLoc::Mem(VirtAddr::new(0x7FC)),
                old: None
            }
        );
        assert_eq!(d.reg_updates, vec![(14, 0x7FC)]);
    }

    #[test]
    fn immediate_and_absolute() {
        // MOVL #0x11223344, @#0x500
        let mut m = machine_with(&[0xD0, 0x8F, 0x44, 0x33, 0x22, 0x11, 0x9F, 0x00, 0x05, 0, 0]);
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(0x1122_3344));
        assert_eq!(
            d.operands[1],
            DecOp::Loc {
                loc: OperandLoc::Mem(VirtAddr::new(0x500)),
                old: None
            }
        );
    }

    #[test]
    fn displacement_and_deferred() {
        // MOVL 8(R2), R0 ; R2=0x600, [0x608]=9
        let mut m = machine_with(&[0xD0, 0xA2, 0x08, 0x50]);
        m.set_reg(2, 0x600);
        m.mem_mut().write_u32(0x608, 9).unwrap();
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(9));

        // MOVL @8(R2), R0 ; [0x608]=0x700, [0x700]=42
        let mut m = machine_with(&[0xD0, 0xB2, 0x08, 0x50]);
        m.set_reg(2, 0x600);
        m.mem_mut().write_u32(0x608, 0x700).unwrap();
        m.mem_mut().write_u32(0x700, 42).unwrap();
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(42));
    }

    #[test]
    fn pc_relative_displacement_uses_updated_pc() {
        // MOVL 0x10(PC), R0 assembled at 0x200: specifier AF 10; base PC
        // after the displacement byte = 0x203, so ea = 0x213.
        let mut m = machine_with(&[0xD0, 0xAF, 0x10, 0x50]);
        m.mem_mut().write_u32(0x213, 0x5150).unwrap();
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(0x5150));
    }

    #[test]
    fn branch_displacement_resolves_target() {
        // BRB .-2 (disp = 0xFE)
        let mut m = machine_with(&[0x11, 0xFE]);
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Branch(0x200));
    }

    #[test]
    fn address_operand() {
        // MOVAL 4(R1), R0
        let mut m = machine_with(&[0xDE, 0xA1, 0x04, 0x50]);
        m.set_reg(1, 0x100);
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Addr(VirtAddr::new(0x104)));
    }

    #[test]
    fn reserved_addressing_modes_fault() {
        // Literal as a write destination: CLRL #1.
        let mut m = machine_with(&[0xD4, 0x01]);
        assert_eq!(
            decode(&mut m).unwrap_err(),
            Abort::Exc(Exception::ReservedAddressingMode)
        );
        // Address of a register: MOVAL R1, R0.
        let mut m = machine_with(&[0xDE, 0x51, 0x50]);
        assert_eq!(
            decode(&mut m).unwrap_err(),
            Abort::Exc(Exception::ReservedAddressingMode)
        );
        // Indexed mode.
        let mut m = machine_with(&[0xD0, 0x41, 0x50]);
        assert_eq!(
            decode(&mut m).unwrap_err(),
            Abort::Exc(Exception::ReservedAddressingMode)
        );
    }

    #[test]
    fn unknown_opcode_faults() {
        let mut m = machine_with(&[0x40]); // ADDF2: unimplemented F-float
        assert_eq!(
            decode(&mut m).unwrap_err(),
            Abort::Exc(Exception::ReservedInstruction)
        );
        let mut m = machine_with(&[0xFD, 0x77]);
        assert_eq!(
            decode(&mut m).unwrap_err(),
            Abort::Exc(Exception::ReservedInstruction)
        );
    }

    #[test]
    fn byte_width_register_read_masks() {
        // MOVB R1, R0 with R1 = 0x1234: value is 0x34.
        let mut m = machine_with(&[0x90, 0x51, 0x50]);
        m.set_reg(1, 0x1234);
        let d = decode(&mut m).unwrap();
        assert_eq!(d.operands[0], DecOp::Value(0x34));
    }
}
