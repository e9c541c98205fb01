//! Instruction semantics, including the modified-architecture dispatch:
//! which instructions execute directly, which trap for VM emulation, and
//! which get the microcode fast paths (MOVPSL merge, PROBE against a valid
//! shadow PTE).

use crate::decode::{mask_width, Abort, DecOp, Decoded};
use crate::machine::Machine;
use vax_arch::{
    AccessMode, ArithmeticCode, DataType, Exception, Ipr, MachineVariant, Opcode, Psl, VirtAddr,
};

/// What execution produced.
#[derive(Debug)]
pub(crate) enum ExecOutcome {
    /// The instruction retired normally.
    Retired,
    /// HALT in kernel mode.
    Halt,
    /// A VM-emulation trap for the VMM (PSL<VM> still set; the step loop
    /// clears it). The decode is the packet.
    VmTrap,
}

/// Saved register values for rollback if a commit-phase write faults.
struct Saved(crate::decode::RegUpdates);

impl Machine {
    #[inline]
    fn begin_commit(&mut self, d: &Decoded) -> Saved {
        let mut saved = crate::decode::RegUpdates::new();
        // Most instructions have no register side effects; skip the
        // commit walk entirely for them.
        if !d.reg_updates.is_empty() {
            for (r, _) in &d.reg_updates {
                saved.push((*r, self.reg(*r as usize)));
            }
            self.commit_reg_updates(d);
        }
        Saved(saved)
    }

    fn rollback(&mut self, saved: Saved) {
        for (r, v) in saved.0.iter().rev() {
            self.set_reg(*r as usize, *v);
        }
    }

    pub(crate) fn set_nzvc(&mut self, n: bool, z: bool, v: bool, c: bool) {
        self.psl.set_nzvc(n, z, v, c);
    }

    pub(crate) fn set_nzv_keep_c(&mut self, value: u32, width: u32) {
        let m = mask_width(value, width);
        let sign = match width {
            1 => m & 0x80 != 0,
            2 => m & 0x8000 != 0,
            _ => m & 0x8000_0000 != 0,
        };
        self.psl.set_flag(Psl::N, sign);
        self.psl.set_flag(Psl::Z, m == 0);
        self.psl.set_flag(Psl::V, false);
    }

    /// Executes a decoded instruction. Commits on success; leaves the
    /// machine at the instruction boundary on `Err`.
    pub(crate) fn execute(&mut self, d: &Decoded) -> Result<ExecOutcome, Abort> {
        use Opcode::*;
        let op = d.op;
        let cur_mode = self.psl.cur_mode();
        let in_vm = self.psl.vm();

        // ---- Modified-architecture dispatch (paper §4.2, §4.4.1) ----
        if in_vm {
            match op {
                // Unprivileged sensitive: always trap for emulation.
                Chmk | Chme | Chms | Chmu => {
                    self.counters.chm += 1;
                    return Ok(ExecOutcome::VmTrap);
                }
                Rei => {
                    self.counters.rei += 1;
                    return Ok(ExecOutcome::VmTrap);
                }
                // Privileged sensitive: trap for emulation only from
                // VM-kernel mode; otherwise an ordinary privileged-
                // instruction trap (which, in VM mode, the VMM reflects).
                Halt | Ldpctx | Svpctx | Mtpr | Mfpr | Wait | Probevmr | Probevmw => {
                    if self.vmpsl.cur_mode() == AccessMode::Kernel {
                        return Ok(ExecOutcome::VmTrap);
                    }
                    return Err(Exception::ReservedInstruction.into());
                }
                // MOVPSL and PROBE have microcode fast paths below.
                _ => {}
            }
        } else if op.is_privileged() && cur_mode != AccessMode::Kernel {
            return Err(Exception::ReservedInstruction.into());
        }

        match op {
            Nop => {
                let _ = self.begin_commit(d);
                self.set_pc(d.next_pc);
                Ok(ExecOutcome::Retired)
            }
            Halt => {
                self.set_pc(d.next_pc);
                Ok(ExecOutcome::Halt)
            }
            Bpt => Err(Exception::Breakpoint.into()),
            Wait => {
                // Not implemented on real machines (standard or modified):
                // privileged-instruction trap (paper Table 4). Only a VM
                // gives up the processor with it.
                Err(Exception::ReservedInstruction.into())
            }

            // ---- moves, converts, and logic ----
            Movl | Movzbl | Movzwl | Movzbw | Movb | Movw | Mcoml | Mnegl | Moval | Cvtbl
            | Cvtbw | Cvtwl | Cvtwb | Cvtlb | Cvtlw => {
                let width = match op {
                    Movb | Cvtwb | Cvtlb => 1,
                    Movw | Movzbw | Cvtbw | Cvtlw => 2,
                    _ => 4,
                };
                let src = d.operands[0].value();
                let value = match op {
                    Mcoml => !src,
                    Mnegl => 0u32.wrapping_sub(src),
                    // Sign-extending converts.
                    Cvtbl | Cvtbw => src as u8 as i8 as i32 as u32,
                    Cvtwl => src as u16 as i16 as i32 as u32,
                    _ => src,
                };
                // Narrowing converts detect signed overflow.
                let narrow_overflow = match op {
                    Cvtlb | Cvtwb => {
                        let v = sign_extend(src, if op == Cvtlb { 4 } else { 2 });
                        i8::try_from(v).is_err()
                    }
                    Cvtlw => i16::try_from(src as i32).is_err(),
                    Cvtbw => false,
                    _ => false,
                };
                let DecOp::Loc { loc, .. } = d.operands[1] else {
                    unreachable!()
                };
                let saved = self.begin_commit(d);
                let dtype = match width {
                    1 => DataType::Byte,
                    2 => DataType::Word,
                    _ => DataType::Long,
                };
                if let Err(e) = self.write_loc(loc, value, dtype, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                if op == Mnegl {
                    let n = (value as i32) < 0;
                    let z = value == 0;
                    let v = src == 0x8000_0000;
                    let c = src != 0; // borrow out of 0 - src
                    self.set_nzvc(n, z, v, c);
                } else {
                    self.set_nzv_keep_c(value, width);
                    if narrow_overflow {
                        self.psl.set_flag(Psl::V, true);
                        if self.psl.flag(Psl::IV) {
                            return Err(
                                Exception::Arithmetic(ArithmeticCode::IntegerOverflow).into()
                            );
                        }
                    }
                }
                Ok(ExecOutcome::Retired)
            }
            Clrl | Clrb | Clrw => {
                let width = match op {
                    Clrb => DataType::Byte,
                    Clrw => DataType::Word,
                    _ => DataType::Long,
                };
                let DecOp::Loc { loc, .. } = d.operands[0] else {
                    unreachable!()
                };
                let saved = self.begin_commit(d);
                if let Err(e) = self.write_loc(loc, 0, width, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                self.psl.set_flag(Psl::N, false);
                self.psl.set_flag(Psl::Z, true);
                self.psl.set_flag(Psl::V, false);
                Ok(ExecOutcome::Retired)
            }
            Tstl | Tstb | Tstw => {
                let width = match op {
                    Tstb => 1,
                    Tstw => 2,
                    _ => 4,
                };
                let v = d.operands[0].value();
                let _ = self.begin_commit(d);
                self.set_pc(d.next_pc);
                self.set_nzv_keep_c(v, width);
                self.psl.set_flag(Psl::C, false);
                Ok(ExecOutcome::Retired)
            }
            Cmpl | Cmpb | Cmpw => {
                let width = match op {
                    Cmpb => 1u32,
                    Cmpw => 2,
                    _ => 4,
                };
                let a = sign_extend(d.operands[0].value(), width);
                let b = sign_extend(d.operands[1].value(), width);
                let ua = mask_width(d.operands[0].value(), width);
                let ub = mask_width(d.operands[1].value(), width);
                let _ = self.begin_commit(d);
                self.set_pc(d.next_pc);
                self.set_nzvc(a < b, a == b, false, ua < ub);
                Ok(ExecOutcome::Retired)
            }
            Bitl => {
                let r = d.operands[0].value() & d.operands[1].value();
                let _ = self.begin_commit(d);
                self.set_pc(d.next_pc);
                self.set_nzv_keep_c(r, 4);
                Ok(ExecOutcome::Retired)
            }

            // ---- integer arithmetic ----
            Addl2 | Addl3 | Subl2 | Subl3 | Mull2 | Mull3 | Divl2 | Divl3 | Bisl2 | Bisl3
            | Bicl2 | Bicl3 | Xorl2 | Xorl3 | Incl | Decl | Incb | Decb => {
                self.exec_arith(d, op, cur_mode)
            }
            Ashl => {
                let cnt = d.operands[0].value() as u8 as i8;
                let src = d.operands[1].value();
                let (value, overflow) = ash(src, cnt);
                let DecOp::Loc { loc, .. } = d.operands[2] else {
                    unreachable!()
                };
                let saved = self.begin_commit(d);
                if let Err(e) = self.write_loc(loc, value, DataType::Long, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                self.set_nzvc((value as i32) < 0, value == 0, overflow, false);
                Ok(ExecOutcome::Retired)
            }

            // ---- branches and flow control ----
            Brb | Brw => {
                let target = d.operands[0].value();
                let _ = self.begin_commit(d);
                self.set_pc(target);
                Ok(ExecOutcome::Retired)
            }
            Bneq | Beql | Bgtr | Bleq | Bgeq | Blss | Bgtru | Blequ | Bvc | Bvs | Bgequ | Blssu => {
                let take = self.condition(op);
                let target = d.operands[0].value();
                let _ = self.begin_commit(d);
                self.set_pc(if take { target } else { d.next_pc });
                Ok(ExecOutcome::Retired)
            }
            Bbs | Bbc | Bbss | Bbcc => {
                let pos = d.operands[0].value();
                let DecOp::Addr(base) = d.operands[1] else {
                    unreachable!()
                };
                let target = d.operands[2].value();
                // Bit fields in memory: byte at base + (pos >> 3), bit
                // pos & 7 (pos is signed on the real VAX; our subset uses
                // non-negative positions).
                let byte_va = base.wrapping_add(pos >> 3);
                let bit = 1u32 << (pos & 7);
                let old = self.read_virt(byte_va, 1, cur_mode)?;
                let set = old & bit != 0;
                let saved = self.begin_commit(d);
                if matches!(op, Bbss | Bbcc) {
                    let new = if op == Bbss { old | bit } else { old & !bit };
                    if let Err(e) = self.write_virt(byte_va, new, 1, cur_mode) {
                        self.rollback(saved);
                        return Err(e.into());
                    }
                }
                let take = set == matches!(op, Bbs | Bbss);
                self.set_pc(if take { target } else { d.next_pc });
                Ok(ExecOutcome::Retired)
            }
            Insque => {
                // Insert `entry` after `pred` in a doubly-linked queue of
                // absolute addresses (flink at +0, blink at +4).
                let DecOp::Addr(entry) = d.operands[0] else {
                    unreachable!()
                };
                let DecOp::Addr(pred) = d.operands[1] else {
                    unreachable!()
                };
                let successor = self.read_virt(pred, 4, cur_mode)?;
                let saved = self.begin_commit(d);
                let result: Result<(), Abort> = (|| {
                    self.write_virt(entry, successor, 4, cur_mode)?;
                    self.write_virt(entry.wrapping_add(4), pred.raw(), 4, cur_mode)?;
                    self.write_virt(
                        VirtAddr::new(successor).wrapping_add(4),
                        entry.raw(),
                        4,
                        cur_mode,
                    )?;
                    self.write_virt(pred, entry.raw(), 4, cur_mode)?;
                    Ok(())
                })();
                if let Err(e) = result {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                // Z: the entry is the queue's first (pred was empty).
                self.set_nzvc(false, successor == pred.raw(), false, false);
                Ok(ExecOutcome::Retired)
            }
            Remque => {
                let DecOp::Addr(entry) = d.operands[0] else {
                    unreachable!()
                };
                let DecOp::Loc { loc, .. } = d.operands[1] else {
                    unreachable!()
                };
                let flink = self.read_virt(entry, 4, cur_mode)?;
                let blink = self.read_virt(entry.wrapping_add(4), 4, cur_mode)?;
                // V: removing from an empty queue (entry linked to itself).
                let was_empty = flink == entry.raw();
                let saved = self.begin_commit(d);
                let result: Result<(), Abort> = (|| {
                    if !was_empty {
                        self.write_virt(VirtAddr::new(blink), flink, 4, cur_mode)?;
                        self.write_virt(VirtAddr::new(flink).wrapping_add(4), blink, 4, cur_mode)?;
                    }
                    self.write_loc(loc, entry.raw(), DataType::Long, cur_mode)?;
                    Ok(())
                })();
                if let Err(e) = result {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                // Z: queue now empty.
                self.set_nzvc(false, flink == blink, was_empty, false);
                Ok(ExecOutcome::Retired)
            }
            Blbs | Blbc => {
                let v = d.operands[0].value();
                let take = (v & 1 == 1) == (op == Blbs);
                let target = d.operands[1].value();
                let _ = self.begin_commit(d);
                self.set_pc(if take { target } else { d.next_pc });
                Ok(ExecOutcome::Retired)
            }
            Casel => {
                // Dispatch: a table of word displacements follows the
                // operands; the selected entry is relative to the table's
                // base. Out-of-range selectors fall through past the
                // table.
                let sel = d.operands[0].value();
                let base = d.operands[1].value();
                let limit = d.operands[2].value();
                let i = sel.wrapping_sub(base);
                let _ = self.begin_commit(d);
                let table = d.next_pc;
                if i <= limit {
                    let raw =
                        self.read_virt(VirtAddr::new(table.wrapping_add(2 * i)), 2, cur_mode)?;
                    let disp = raw as u16 as i16 as i32;
                    self.set_pc(table.wrapping_add(disp as u32));
                } else {
                    self.set_pc(table.wrapping_add(2 * (limit.wrapping_add(1))));
                }
                // Condition codes from the comparison of i and limit.
                self.set_nzvc(false, i == limit, false, i > limit);
                Ok(ExecOutcome::Retired)
            }
            Jmp => {
                let DecOp::Addr(a) = d.operands[0] else {
                    unreachable!()
                };
                let _ = self.begin_commit(d);
                self.set_pc(a.raw());
                Ok(ExecOutcome::Retired)
            }
            Jsb | Bsbb | Bsbw => {
                let target = match d.operands[0] {
                    DecOp::Addr(a) => a.raw(),
                    DecOp::Branch(t) => t,
                    _ => unreachable!(),
                };
                let saved = self.begin_commit(d);
                if let Err(e) = self.push(d.next_pc) {
                    self.rollback(saved);
                    return Err(e.into());
                }
                self.set_pc(target);
                Ok(ExecOutcome::Retired)
            }
            Rsb => {
                let ret = self.pop()?;
                self.set_pc(ret);
                Ok(ExecOutcome::Retired)
            }
            Sobgeq | Sobgtr => {
                let DecOp::Loc {
                    loc,
                    old: Some(old),
                } = d.operands[0]
                else {
                    unreachable!()
                };
                let new = old.wrapping_sub(1);
                let target = d.operands[1].value();
                let saved = self.begin_commit(d);
                if let Err(e) = self.write_loc(loc, new, DataType::Long, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                let take = if op == Sobgtr {
                    (new as i32) > 0
                } else {
                    (new as i32) >= 0
                };
                self.set_pc(if take { target } else { d.next_pc });
                let v = old == 0x8000_0000;
                self.set_nzvc((new as i32) < 0, new == 0, v, self.psl.flag(Psl::C));
                Ok(ExecOutcome::Retired)
            }
            Aoblss | Aobleq => {
                let limit = d.operands[0].value() as i32;
                let DecOp::Loc {
                    loc,
                    old: Some(old),
                } = d.operands[1]
                else {
                    unreachable!()
                };
                let new = old.wrapping_add(1);
                let target = d.operands[2].value();
                let saved = self.begin_commit(d);
                if let Err(e) = self.write_loc(loc, new, DataType::Long, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                let take = if op == Aoblss {
                    (new as i32) < limit
                } else {
                    (new as i32) <= limit
                };
                self.set_pc(if take { target } else { d.next_pc });
                let v = old == 0x7fff_ffff;
                self.set_nzvc((new as i32) < 0, new == 0, v, self.psl.flag(Psl::C));
                Ok(ExecOutcome::Retired)
            }

            // ---- stack and calls ----
            Pushl | Pushal => {
                let value = d.operands[0].value();
                let saved = self.begin_commit(d);
                if let Err(e) = self.push(value) {
                    self.rollback(saved);
                    return Err(e.into());
                }
                self.set_pc(d.next_pc);
                self.set_nzv_keep_c(value, 4);
                Ok(ExecOutcome::Retired)
            }
            Calls => self.exec_calls(d, cur_mode),
            Ret => self.exec_ret(d),

            // ---- strings ----
            Movc3 => {
                let len = d.operands[0].value() & 0xffff;
                let DecOp::Addr(src) = d.operands[1] else {
                    unreachable!()
                };
                let DecOp::Addr(dst) = d.operands[2] else {
                    unreachable!()
                };
                let _ = self.begin_commit(d);
                self.move_bytes(src, dst, len, cur_mode)?;
                self.cycles += self.costs.string_per_byte * len as u64;
                self.set_reg(0, 0);
                self.set_reg(1, src.raw().wrapping_add(len));
                self.set_reg(2, 0);
                self.set_reg(3, dst.raw().wrapping_add(len));
                self.set_reg(4, 0);
                self.set_reg(5, 0);
                self.set_pc(d.next_pc);
                self.set_nzvc(false, true, false, false);
                Ok(ExecOutcome::Retired)
            }

            // ---- mode, PSL, probes ----
            Movpsl => {
                self.counters.movpsl += 1;
                self.cycles += self.costs.movpsl;
                // Microcode merge (paper §4.2.1): in VM mode return the
                // VM's PSL; software never observes PSL<VM>.
                let value = if in_vm {
                    self.vmpsl.merge_into(self.psl).raw()
                } else {
                    self.psl.raw_visible()
                };
                let DecOp::Loc { loc, .. } = d.operands[0] else {
                    unreachable!()
                };
                let saved = self.begin_commit(d);
                if let Err(e) = self.write_loc(loc, value, DataType::Long, cur_mode) {
                    self.rollback(saved);
                    return Err(e);
                }
                self.set_pc(d.next_pc);
                Ok(ExecOutcome::Retired)
            }
            Prober | Probew => self.exec_probe(d, op, in_vm),
            Probevmr | Probevmw => {
                if self.variant() == MachineVariant::Standard {
                    return Err(Exception::ReservedInstruction.into());
                }
                self.exec_probevm(d, op)
            }
            Chmk | Chme | Chms | Chmu => {
                self.counters.chm += 1;
                self.cycles += self.costs.chm;
                let code = d.operands[0].value() as u16 as i16 as i32 as u32;
                let Some(target) = op.chm_target() else {
                    unreachable!()
                };
                let _ = self.begin_commit(d);
                Err(Exception::ChangeMode { target, code }.into())
            }
            Rei => {
                self.do_rei()?;
                Ok(ExecOutcome::Retired)
            }

            // ---- privileged ----
            Mtpr => self.exec_mtpr(d),
            Mfpr => self.exec_mfpr(d, cur_mode),
            Ldpctx => self.exec_ldpctx(d),
            Svpctx => self.exec_svpctx(d),
        }
    }

    pub(crate) fn condition(&self, op: Opcode) -> bool {
        use Opcode::*;
        let n = self.psl.flag(Psl::N);
        let z = self.psl.flag(Psl::Z);
        let v = self.psl.flag(Psl::V);
        let c = self.psl.flag(Psl::C);
        match op {
            Bneq => !z,
            Beql => z,
            Bgtr => !(n | z),
            Bleq => n | z,
            Bgeq => !n,
            Blss => n,
            Bgtru => !(c | z),
            Blequ => c | z,
            Bvc => !v,
            Bvs => v,
            Bgequ => !c,
            Blssu => c,
            _ => unreachable!(),
        }
    }

    fn exec_arith(
        &mut self,
        d: &Decoded,
        op: Opcode,
        cur_mode: AccessMode,
    ) -> Result<ExecOutcome, Abort> {
        use Opcode::*;
        let width = match op {
            Incb | Decb => DataType::Byte,
            _ => DataType::Long,
        };
        // Identify inputs and destination.
        let (a, b, loc) = match op {
            Addl2 | Subl2 | Mull2 | Divl2 | Bisl2 | Bicl2 | Xorl2 => {
                let src = d.operands[0].value();
                let DecOp::Loc {
                    loc,
                    old: Some(old),
                } = d.operands[1]
                else {
                    unreachable!()
                };
                (src, old, loc)
            }
            Addl3 | Subl3 | Mull3 | Divl3 | Bisl3 | Bicl3 | Xorl3 => {
                let DecOp::Loc { loc, .. } = d.operands[2] else {
                    unreachable!()
                };
                (d.operands[0].value(), d.operands[1].value(), loc)
            }
            Incl | Decl | Incb | Decb => {
                let DecOp::Loc {
                    loc,
                    old: Some(old),
                } = d.operands[0]
                else {
                    unreachable!()
                };
                (1, old, loc)
            }
            _ => unreachable!(),
        };

        let (value, vflag, cflag) = match op {
            Addl2 | Addl3 | Incl | Incb => {
                let r = b.wrapping_add(a);
                let v = ((a ^ r) & (b ^ r)) >> 31 != 0;
                let c = r < a;
                (r, v, c)
            }
            Subl2 | Subl3 | Decl | Decb => {
                // dif = b - a (SUBL2 sub,dif ; SUBL3 sub,min,dif).
                let r = b.wrapping_sub(a);
                let v = ((b ^ a) & (b ^ r)) >> 31 != 0;
                let c = b < a; // borrow
                (r, v, c)
            }
            Mull2 | Mull3 => {
                let wide = (a as i32 as i64) * (b as i32 as i64);
                let r = wide as u32;
                (r, wide != r as i32 as i64, false)
            }
            Divl2 | Divl3 => {
                // quo = b / a (DIVL2 divr,quo ; DIVL3 divr,divd,quo).
                if a == 0 {
                    let _ = self.begin_commit(d);
                    return Err(Exception::Arithmetic(ArithmeticCode::IntegerDivideByZero).into());
                }
                if b == 0x8000_0000 && a == 0xffff_ffff {
                    (b, true, false) // overflow: result is dividend, V set
                } else {
                    (((b as i32) / (a as i32)) as u32, false, false)
                }
            }
            Bisl2 | Bisl3 => (a | b, false, self.psl.flag(Psl::C)),
            Bicl2 | Bicl3 => (!a & b, false, self.psl.flag(Psl::C)),
            Xorl2 | Xorl3 => (a ^ b, false, self.psl.flag(Psl::C)),
            _ => unreachable!(),
        };

        // Byte-width INCB/DECB condition codes use the byte result.
        let (value, vflag, cflag) = if width == DataType::Byte {
            let r = mask_width(value, 1);
            let v = match op {
                Incb => mask_width(b, 1) == 0x7f,
                _ => mask_width(b, 1) == 0x80,
            };
            let c = match op {
                Incb => r == 0,
                _ => mask_width(b, 1) == 0,
            };
            (r, v, c)
        } else {
            (value, vflag, cflag)
        };

        let saved = self.begin_commit(d);
        if let Err(e) = self.write_loc(loc, value, width, cur_mode) {
            self.rollback(saved);
            return Err(e);
        }
        self.set_pc(d.next_pc);
        let wbits = if width == DataType::Byte { 1 } else { 4 };
        let m = mask_width(value, wbits);
        let sign = if wbits == 1 {
            m & 0x80 != 0
        } else {
            m & 0x8000_0000 != 0
        };
        self.set_nzvc(sign, m == 0, vflag, cflag);
        if vflag && self.psl.flag(Psl::IV) {
            return Err(Exception::Arithmetic(ArithmeticCode::IntegerOverflow).into());
        }
        Ok(ExecOutcome::Retired)
    }

    fn exec_probe(&mut self, d: &Decoded, op: Opcode, in_vm: bool) -> Result<ExecOutcome, Abort> {
        self.counters.probe += 1;
        self.cycles += self.costs.probe_fast;
        let write = op == Opcode::Probew;
        let mode_op = AccessMode::from_bits(d.operands[0].value());
        let len = (d.operands[1].value() & 0xffff).max(1);
        let DecOp::Addr(base) = d.operands[2] else {
            unreachable!()
        };
        // "the less privileged of 1) the mode specified as an operand and
        // 2) the previous mode as contained in the PSL" — in a VM, the
        // VM's PSL (paper §3.4).
        let prv = if in_vm {
            self.vmpsl.prv_mode()
        } else {
            self.psl.prv_mode()
        };
        let probe_mode = mode_op.least_privileged(prv);

        let mut accessible = true;
        for va in [base, base.wrapping_add(len - 1)] {
            let outcome = {
                let Machine {
                    mmu, mem, costs, ..
                } = self;
                mmu.probe(mem, va, probe_mode, write, costs)
            }
            .map_err(Abort::Fault)?;
            self.cycles += outcome.cycles;
            if in_vm && !outcome.pte_valid {
                // Shadow PTE not valid: its protection field is not
                // meaningful — trap to the VMM for a fill (paper §4.3.2).
                return Ok(ExecOutcome::VmTrap);
            }
            if in_vm && write && !outcome.accessible {
                // A denied write probe may be an artifact of a
                // write-protected shadow (the §4.4.2 read-only-shadow
                // alternative makes "PROBEW trap more frequently"); let
                // the VMM check the VM's own PTE.
                return Ok(ExecOutcome::VmTrap);
            }
            accessible &= outcome.accessible;
        }
        let _ = self.begin_commit(d);
        self.set_pc(d.next_pc);
        // Z=1 means NOT accessible (VMS convention: PROBEx ; BEQL fail).
        self.set_nzvc(false, !accessible, false, false);
        Ok(ExecOutcome::Retired)
    }

    fn exec_probevm(&mut self, d: &Decoded, op: Opcode) -> Result<ExecOutcome, Abort> {
        self.counters.probevm += 1;
        self.cycles += self.costs.probevm;
        let write = op == Opcode::Probevmw;
        // "probe mode no more privileged than executive mode" (Table 2).
        let mode_op = AccessMode::from_bits(d.operands[0].value());
        let probe_mode = mode_op.least_privileged(AccessMode::Executive);
        let DecOp::Addr(base) = d.operands[1] else {
            unreachable!()
        };
        let outcome = {
            let Machine {
                mmu, mem, costs, ..
            } = self;
            mmu.probe(mem, base, probe_mode, write, costs)
        }
        .map_err(Abort::Fault)?;
        self.cycles += outcome.cycles;
        let _ = self.begin_commit(d);
        self.set_pc(d.next_pc);
        // Tests protection, validity, modify — in that order (Table 2).
        // Z=1: protection denies. V=1: PTE invalid. C=1: write probed and
        // the page is not yet modified.
        let (z, v, c) = if !outcome.accessible {
            (true, false, false)
        } else if !outcome.pte_valid {
            (false, true, false)
        } else if write && !outcome.pte_modified {
            (false, false, true)
        } else {
            (false, false, false)
        };
        self.set_nzvc(false, z, v, c);
        Ok(ExecOutcome::Retired)
    }

    fn exec_mtpr(&mut self, d: &Decoded) -> Result<ExecOutcome, Abort> {
        let value = d.operands[0].value();
        let regno = d.operands[1].value();
        let Some(ipr) = Ipr::from_number(regno) else {
            return Err(Exception::ReservedOperand.into());
        };
        if ipr == Ipr::Ipl {
            self.counters.mtpr_ipl += 1;
            self.cycles += self.costs.mtpr_ipl_fast;
        } else {
            self.counters.mtpr_other += 1;
            self.cycles += self.costs.mtpr_other;
        }
        let _ = self.begin_commit(d);
        self.write_ipr(ipr, value).map_err(Abort::Exc)?;
        self.set_pc(d.next_pc);
        Ok(ExecOutcome::Retired)
    }

    fn exec_mfpr(&mut self, d: &Decoded, cur_mode: AccessMode) -> Result<ExecOutcome, Abort> {
        let regno = d.operands[0].value();
        let Some(ipr) = Ipr::from_number(regno) else {
            return Err(Exception::ReservedOperand.into());
        };
        self.counters.mtpr_other += 1;
        self.cycles += self.costs.mtpr_other;
        let value = self.read_ipr(ipr).map_err(Abort::Exc)?;
        let DecOp::Loc { loc, .. } = d.operands[1] else {
            unreachable!()
        };
        let saved = self.begin_commit(d);
        if let Err(e) = self.write_loc(loc, value, DataType::Long, cur_mode) {
            self.rollback(saved);
            return Err(e);
        }
        self.set_pc(d.next_pc);
        Ok(ExecOutcome::Retired)
    }

    fn exec_calls(&mut self, d: &Decoded, cur_mode: AccessMode) -> Result<ExecOutcome, Abort> {
        let numarg = d.operands[0].value() & 0xff;
        let DecOp::Addr(dst) = d.operands[1] else {
            unreachable!()
        };
        let mask = self.read_virt(dst, 2, cur_mode)?;
        if mask & 0xC000 != 0 {
            return Err(Exception::ReservedOperand.into());
        }
        let saved = self.begin_commit(d);
        let result: Result<(), Abort> = (|| {
            self.push(numarg)?;
            let arglist = self.reg(14);
            // Save registers R11..R0 per the entry mask.
            for r in (0..12).rev() {
                if mask & (1 << r) != 0 {
                    self.push(self.reg(r))?;
                }
            }
            self.push(d.next_pc)?;
            self.push(self.reg(13))?; // FP
            self.push(self.reg(12))?; // AP
                                      // Saved mask + "S flag" (bit 29) marking a CALLS frame.
            self.push((mask << 16) | (1 << 29))?;
            self.push(0)?; // condition handler
            self.set_reg(13, self.reg(14)); // FP = SP
            self.set_reg(12, arglist); // AP
            Ok(())
        })();
        if let Err(e) = result {
            self.rollback(saved);
            return Err(e);
        }
        self.set_pc(dst.raw().wrapping_add(2));
        self.set_nzvc(false, false, false, false);
        Ok(ExecOutcome::Retired)
    }

    fn exec_ret(&mut self, d: &Decoded) -> Result<ExecOutcome, Abort> {
        let _ = d;
        // Unwind from FP.
        self.set_reg(14, self.reg(13));
        let _handler = self.pop()?;
        let maskpsw = self.pop()?;
        let ap = self.pop()?;
        let fp = self.pop()?;
        let pc = self.pop()?;
        let mask = (maskpsw >> 16) & 0x0fff;
        for r in 0..12 {
            if mask & (1 << r) != 0 {
                let v = self.pop()?;
                self.set_reg(r, v);
            }
        }
        self.set_reg(12, ap);
        self.set_reg(13, fp);
        if maskpsw & (1 << 29) != 0 {
            // CALLS frame: remove the argument list.
            let n = self.pop()?;
            self.set_reg(14, self.reg(14).wrapping_add(4 * (n & 0xff)));
        }
        self.set_pc(pc);
        Ok(ExecOutcome::Retired)
    }

    fn exec_ldpctx(&mut self, d: &Decoded) -> Result<ExecOutcome, Abort> {
        self.counters.context_switches += 1;
        self.cycles += self.costs.context_switch;
        let pcb = self.pcbb;
        let rd = |m: &Machine, off: u32| m.mem.read_u32(pcb + off).map_err(Abort::Fault);
        let ksp = rd(self, 0)?;
        let esp = rd(self, 4)?;
        let ssp = rd(self, 8)?;
        let usp = rd(self, 12)?;
        let mut regs = [0u32; 12];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = rd(self, 16 + 4 * i as u32)?;
        }
        let ap = rd(self, 64)?;
        let fp = rd(self, 68)?;
        let pc = rd(self, 72)?;
        let psl = rd(self, 76)?;
        let p0br = rd(self, 80)?;
        let p0lr = rd(self, 84)?;
        let p1br = rd(self, 88)?;
        let p1lr = rd(self, 92)?;

        let _ = self.begin_commit(d);
        self.set_sp_for_mode(AccessMode::Kernel, ksp);
        self.set_sp_for_mode(AccessMode::Executive, esp);
        self.set_sp_for_mode(AccessMode::Supervisor, ssp);
        self.set_sp_for_mode(AccessMode::User, usp);
        for (i, r) in regs.iter().enumerate() {
            self.set_reg(i, *r);
        }
        self.set_reg(12, ap);
        self.set_reg(13, fp);
        self.mmu.set_p0br(p0br);
        self.mmu.set_p0lr(p0lr & 0x3f_ffff);
        self.mmu.set_p1br(p1br);
        self.mmu.set_p1lr(p1lr & 0x3f_ffff);
        self.mmu.tlb_mut().invalidate_process();
        // Push the saved PSL and PC for the REI that completes the switch.
        self.push(psl).map_err(Abort::Fault)?;
        self.push(pc).map_err(Abort::Fault)?;
        self.set_pc(d.next_pc);
        Ok(ExecOutcome::Retired)
    }

    fn exec_svpctx(&mut self, d: &Decoded) -> Result<ExecOutcome, Abort> {
        self.counters.context_switches += 1;
        self.cycles += self.costs.context_switch;
        let _ = self.begin_commit(d);
        let pc = self.pop().map_err(Abort::Fault)?;
        let psl = self.pop().map_err(Abort::Fault)?;
        let pcb = self.pcbb;
        let wr =
            |m: &mut Machine, off: u32, v: u32| m.mem.write_u32(pcb + off, v).map_err(Abort::Fault);
        wr(self, 72, pc)?;
        wr(self, 76, psl)?;
        let ksp = self.sp_for_mode(AccessMode::Kernel);
        let esp = self.sp_for_mode(AccessMode::Executive);
        let ssp = self.sp_for_mode(AccessMode::Supervisor);
        let usp = self.sp_for_mode(AccessMode::User);
        wr(self, 0, ksp)?;
        wr(self, 4, esp)?;
        wr(self, 8, ssp)?;
        wr(self, 12, usp)?;
        for i in 0..12 {
            let v = self.reg(i);
            wr(self, 16 + 4 * i as u32, v)?;
        }
        let ap = self.reg(12);
        let fp = self.reg(13);
        wr(self, 64, ap)?;
        wr(self, 68, fp)?;
        self.set_pc(d.next_pc);
        Ok(ExecOutcome::Retired)
    }
}

pub(crate) fn sign_extend(v: u32, width: u32) -> i32 {
    match width {
        1 => v as u8 as i8 as i32,
        2 => v as u16 as i16 as i32,
        _ => v as i32,
    }
}

/// Arithmetic shift; returns (result, overflow).
pub(crate) fn ash(src: u32, cnt: i8) -> (u32, bool) {
    let s = src as i32;
    if cnt >= 0 {
        let c = cnt.min(32) as u32;
        if c >= 32 {
            (0, s != 0)
        } else {
            let r = (s as i64) << c;
            (r as u32, r != (r as i32) as i64)
        }
    } else {
        let c = (-(cnt as i32)).min(31);
        ((s >> c) as u32, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ash_behaviour() {
        assert_eq!(ash(1, 4), (16, false));
        assert_eq!(ash(0x4000_0000, 1), (0x8000_0000, true));
        assert_eq!(ash(-8i32 as u32, -2), (-2i32 as u32, false));
        assert_eq!(ash(1, 32), (0, true));
        assert_eq!(ash(0, 32), (0, false));
        assert_eq!(ash(i32::MIN as u32, -31), (-1i32 as u32, false));
    }

    #[test]
    fn sign_extend_widths() {
        assert_eq!(sign_extend(0x80, 1), -128);
        assert_eq!(sign_extend(0x7f, 1), 127);
        assert_eq!(sign_extend(0x8000, 2), -32768);
        assert_eq!(sign_extend(0xffff_ffff, 4), -1);
    }
}
