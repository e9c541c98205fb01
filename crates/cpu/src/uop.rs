//! The threaded-µop intermediate representation.
//!
//! `lower` turns one parsed `InstTemplate` into one `Uop`: a
//! self-contained micro-operation whose operand sources are resolved to
//! an immediate constant, a register number, or a side-effect-free
//! effective-address recipe (`Ea`); whose branch targets are absolute
//! virtual addresses; and whose entire cycle charge (i-stream fetch
//! events plus data references, times the memory-reference cost, plus
//! the base-instruction and any opcode-specific charge) is folded into a
//! single constant. The translated execution tier in `trans.rs`
//! dispatches over `UopKind` with none of the per-step decode, operand
//! materialization, or event plumbing of the interpreter — while
//! producing bit-identical architectural state, cycle counts, and
//! counters.
//!
//! Memory operands lower when their effective address is computable from
//! the live register file alone: register-deferred `(Rn)`, displacement
//! `disp(Rn)`, absolute `@#addr`, and PC-relative forms (folded to a
//! constant at translate time). The access itself goes through the
//! inline software-TLB fast path in `trans.rs`, which bails to the
//! interpreter pre-mutation on a TLB miss, protection mismatch, missing
//! modify bit, page-crossing access, or IO space. Specifier modes with
//! side effects or their own memory reads — autoincrement, autodecrement,
//! deferred, indexed — plus privileged/sensitive instructions and
//! faulting encodings return `None` and end superblock formation,
//! leaving those instructions to the interpreter (the oracle).

use crate::icache::{BaseTpl, InstTemplate, OpTpl};
use vax_arch::{AccessType, CostModel, Opcode};

/// Maximum µops per superblock (and the length-histogram bound).
pub const MAX_BLOCK_UOPS: usize = 32;

/// An effective address computable from the live register file with no
/// side effects and no memory reads of its own — the only base forms the
/// translated tier lowers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Ea {
    /// Absolute `@#addr`, or a PC-relative displacement folded at
    /// translate time (the base — the VA after the displacement bytes —
    /// is a per-block constant).
    Abs(u32),
    /// `(Rn)` (`disp == 0`) or `disp(Rn)`.
    RegDisp { r: u8, disp: i32 },
}

/// A µop operand source, resolved at translate time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Src {
    /// A literal or immediate folded from the instruction bytes.
    Imm(u32),
    /// A general register, masked to the operand width at read time.
    Reg { r: u8, w: u8 },
    /// A memory operand read at width `w` through the inline TLB fast
    /// path (bails pre-mutation on miss/protection/page-cross/IO).
    Mem { ea: Ea, w: u8 },
    /// The effective address itself (MOVAL's Address access) — no memory
    /// reference is made.
    EaVal(Ea),
}

/// A µop destination, resolved at translate time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Dst {
    /// A general register (sub-longword writes merge).
    Reg(u8),
    /// A memory location written through the inline TLB fast path.
    Mem(Ea),
}

/// Longword ALU operation selector (the 2- and 3-operand integer forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AluOp {
    Add,
    Sub,
    Mul,
    Div,
    Bis,
    Bic,
    Xor,
}

/// Value transform applied by a widening/copying move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MovXf {
    /// Plain copy (MOVx, MOVZxx, MOVAL).
    Id,
    /// One's complement (MCOML).
    Com,
    /// Sign-extend the low byte (CVTBL, CVTBW).
    SextB,
    /// Sign-extend the low word (CVTWL).
    SextW,
}

/// The operation a µop performs. Branch targets are absolute virtual
/// addresses (== physical with mapping off; under mapping they are valid
/// for the (entry PA, entry VA, generation) key the block is cached by).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UopKind {
    /// NOP.
    Nop,
    /// Move family: write `xf(src)` at width `w`, N/Z from the result,
    /// V clear, C kept.
    Mov {
        src: Src,
        dst: Dst,
        w: u8,
        xf: MovXf,
    },
    /// Narrowing convert (CVTLB/CVTWB/CVTLW): sets V on signed overflow.
    CvtNarrow {
        src: Src,
        dst: Dst,
        w: u8,
        from_w: u8,
    },
    /// MNEGL, with its borrow/overflow flag shape.
    Mneg { src: Src, dst: Dst },
    /// CLRx.
    Clr { dst: Dst, w: u8 },
    /// TSTx.
    Tst { src: Src, w: u8 },
    /// CMPx.
    Cmp { a: Src, b: Src, w: u8 },
    /// BITL.
    Bit { a: Src, b: Src },
    /// Longword ALU op, 2- or 3-operand form normalized to `dst = b op a`.
    Alu { op: AluOp, a: Src, b: Src, dst: Dst },
    /// INCx/DECx.
    IncDec { dst: Dst, byte: bool, dec: bool },
    /// ASHL.
    Ashl { cnt: Src, src: Src, dst: Dst },
    /// MOVPSL (never taken in VM mode: translation is gated off there).
    Movpsl { dst: Dst },
    /// Unconditional branch.
    Br { target: u32 },
    /// Conditional branch; `cond` is the original opcode for the shared
    /// condition evaluator.
    BCond { cond: Opcode, target: u32 },
    /// BLBS/BLBC.
    Blb { src: Src, set: bool, target: u32 },
    /// SOBGEQ/SOBGTR (register index only — loop control).
    Sob { r: u8, gtr: bool, target: u32 },
    /// AOBLSS/AOBLEQ (register index only).
    Aob {
        limit: Src,
        r: u8,
        lss: bool,
        target: u32,
    },
}

/// One translated micro-operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Uop {
    pub kind: UopKind,
    /// Folded cycle charge: `(fetch_events + data references) ×
    /// memory_reference + base_instruction` plus any opcode-specific
    /// charge (MOVPSL). Valid only while every reference is a TLB hit —
    /// anything that would charge differently bails pre-mutation.
    pub cyc: u32,
    /// Virtual address of the following instruction (the fall-through PC).
    pub next_pc: u32,
    /// I-stream fetch events of the original instruction. Under mapping,
    /// each is one TLB hit on the code page the interpreter would have
    /// counted; the fast path replays them at retire time.
    pub fetch: u8,
    /// Whether this µop writes memory (a retired store can dirty a
    /// translated code page — the dispatch loop checks and side-exits).
    pub store: bool,
}

impl Uop {
    /// Whether this µop may redirect control flow, ending a superblock.
    pub fn ends_block(&self) -> bool {
        matches!(
            self.kind,
            UopKind::Br { .. }
                | UopKind::BCond { .. }
                | UopKind::Blb { .. }
                | UopKind::Sob { .. }
                | UopKind::Aob { .. }
        )
    }
}

/// An operand specifier resolved against the instruction's VA, ready to
/// be picked up by the opcode arm as a source, destination, or target.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Imm(u32),
    RegRead { r: u8, w: u8 },
    RegModify(u8),
    RegWrite(u8),
    Target(u32),
    MemRead { ea: Ea, w: u8 },
    MemModify { ea: Ea },
    MemWrite(Ea),
    AddrOf(Ea),
}

/// Lowers one parsed template at virtual address `va` into a µop, or
/// `None` for anything the translated tier does not handle (which ends
/// the superblock). With mapping off `va` is the entry PA; under mapping
/// the caller passes the guest VA so branch targets, fall-through PCs,
/// and PC-relative bases are correct for the mapping the block is keyed
/// by.
pub(crate) fn lower(tpl: &InstTemplate, va: u32, costs: &CostModel) -> Option<Uop> {
    use Opcode::*;
    // Resolve each parsed specifier straight from `tpl.ops`, tracking the
    // byte offset exactly as the bytewise decoder advances its cursor (so
    // PC-relative bases and branch targets fold to the same constants the
    // interpreter computes at run time).
    let mut slots = [Slot::Imm(0); 6];
    let mut off = tpl.opcode_bytes as u32;
    // Data-stream references (reads + writes; a modify is both) — each
    // charges one memory-reference, and under mapping counts one TLB hit.
    let mut data_refs = 0u8;
    let mut store = false;
    for (i, (top, spec)) in tpl.ops.iter().zip(tpl.op.operands()).enumerate() {
        let w = spec.dtype.bytes() as u8;
        slots[i] = match *top {
            OpTpl::Branch { w, disp } => {
                off += w as u32;
                Slot::Target(va.wrapping_add(off).wrapping_add(disp as u32))
            }
            OpTpl::Literal(v) => {
                off += 1;
                Slot::Imm(v as u32)
            }
            OpTpl::Immediate { w, value } => {
                off += 1 + w as u32;
                Slot::Imm(value)
            }
            OpTpl::Register(r) => {
                off += 1;
                match spec.access {
                    AccessType::Read => Slot::RegRead { r, w },
                    AccessType::Modify => Slot::RegModify(r),
                    AccessType::Write => Slot::RegWrite(r),
                    // Mode 5 with Address access is a reserved specifier
                    // (rejected at parse); Branch never carries a byte.
                    AccessType::Address | AccessType::Branch => return None,
                }
            }
            // Indexed modes read the index register during specifier
            // evaluation and scale by the operand width — interpreter's.
            OpTpl::Ea {
                index_reg: Some(_), ..
            } => return None,
            OpTpl::Ea {
                base,
                index_reg: None,
            } => {
                let ea = match base {
                    BaseTpl::RegDeferred(r) => {
                        // `(PC)` would read the mid-instruction cursor PC,
                        // which a folded recipe cannot reproduce.
                        if r == 15 {
                            return None;
                        }
                        off += 1;
                        Ea::RegDisp { r, disp: 0 }
                    }
                    BaseTpl::Absolute(a) => {
                        off += 5;
                        Ea::Abs(a)
                    }
                    BaseTpl::Disp {
                        reg,
                        dw,
                        disp,
                        deferred,
                    } => {
                        if deferred {
                            return None;
                        }
                        off += 1 + dw as u32;
                        if reg == 15 {
                            // PC-relative: the base is the VA after the
                            // displacement bytes — a translate-time
                            // constant.
                            Ea::Abs(va.wrapping_add(off).wrapping_add(disp as u32))
                        } else {
                            Ea::RegDisp { r: reg, disp }
                        }
                    }
                    // Register side effects during specifier evaluation.
                    BaseTpl::AutoDec(_) | BaseTpl::AutoInc(_) | BaseTpl::AutoIncDeferred(_) => {
                        return None
                    }
                };
                match spec.access {
                    AccessType::Read => {
                        data_refs += 1;
                        Slot::MemRead { ea, w }
                    }
                    AccessType::Modify => {
                        data_refs += 2; // decode-time read + commit write
                        store = true;
                        Slot::MemModify { ea }
                    }
                    AccessType::Write => {
                        data_refs += 1;
                        store = true;
                        Slot::MemWrite(ea)
                    }
                    AccessType::Address => Slot::AddrOf(ea),
                    AccessType::Branch => return None,
                }
            }
        };
    }

    let src = |i: usize| match slots[i] {
        Slot::Imm(v) => Some(Src::Imm(v)),
        Slot::RegRead { r, w } => Some(Src::Reg { r, w }),
        Slot::MemRead { ea, w } => Some(Src::Mem { ea, w }),
        Slot::AddrOf(ea) => Some(Src::EaVal(ea)),
        _ => None,
    };
    let wdst = |i: usize| match slots[i] {
        Slot::RegWrite(r) => Some(Dst::Reg(r)),
        Slot::MemWrite(ea) => Some(Dst::Mem(ea)),
        _ => None,
    };
    // A modify operand as (read half, write half) of the same location.
    let mdst = |i: usize, w: u8| match slots[i] {
        Slot::RegModify(r) => Some((Src::Reg { r, w }, Dst::Reg(r))),
        Slot::MemModify { ea } => Some((Src::Mem { ea, w }, Dst::Mem(ea))),
        _ => None,
    };
    let mreg = |i: usize| match slots[i] {
        Slot::RegModify(r) => Some(r),
        _ => None,
    };
    let tgt = |i: usize| match slots[i] {
        Slot::Target(t) => Some(t),
        _ => None,
    };

    let op = tpl.op;
    let kind = match op {
        Nop => UopKind::Nop,
        Movl | Movzbl | Movzwl | Movzbw | Movb | Movw | Mcoml | Moval | Cvtbl | Cvtbw | Cvtwl => {
            let w = match op {
                Movb => 1,
                Movw | Movzbw | Cvtbw => 2,
                _ => 4,
            };
            let xf = match op {
                Mcoml => MovXf::Com,
                Cvtbl | Cvtbw => MovXf::SextB,
                Cvtwl => MovXf::SextW,
                _ => MovXf::Id,
            };
            UopKind::Mov {
                src: src(0)?,
                dst: wdst(1)?,
                w,
                xf,
            }
        }
        Mnegl => UopKind::Mneg {
            src: src(0)?,
            dst: wdst(1)?,
        },
        Cvtlb | Cvtwb | Cvtlw => {
            let (from_w, w) = match op {
                Cvtlb => (4, 1),
                Cvtwb => (2, 1),
                _ => (4, 2),
            };
            UopKind::CvtNarrow {
                src: src(0)?,
                dst: wdst(1)?,
                w,
                from_w,
            }
        }
        Clrl | Clrb | Clrw => UopKind::Clr {
            dst: wdst(0)?,
            w: match op {
                Clrb => 1,
                Clrw => 2,
                _ => 4,
            },
        },
        Tstl | Tstb | Tstw => UopKind::Tst {
            src: src(0)?,
            w: match op {
                Tstb => 1,
                Tstw => 2,
                _ => 4,
            },
        },
        Cmpl | Cmpb | Cmpw => UopKind::Cmp {
            a: src(0)?,
            b: src(1)?,
            w: match op {
                Cmpb => 1,
                Cmpw => 2,
                _ => 4,
            },
        },
        Bitl => UopKind::Bit {
            a: src(0)?,
            b: src(1)?,
        },
        Addl2 | Subl2 | Mull2 | Divl2 | Bisl2 | Bicl2 | Xorl2 => {
            let (b, dst) = mdst(1, 4)?;
            UopKind::Alu {
                op: alu_of(op),
                a: src(0)?,
                b,
                dst,
            }
        }
        Addl3 | Subl3 | Mull3 | Divl3 | Bisl3 | Bicl3 | Xorl3 => UopKind::Alu {
            op: alu_of(op),
            a: src(0)?,
            b: src(1)?,
            dst: wdst(2)?,
        },
        Incl | Decl | Incb | Decb => {
            let byte = matches!(op, Incb | Decb);
            let (_, dst) = mdst(0, if byte { 1 } else { 4 })?;
            UopKind::IncDec {
                dst,
                byte,
                dec: matches!(op, Decl | Decb),
            }
        }
        Ashl => UopKind::Ashl {
            cnt: src(0)?,
            src: src(1)?,
            dst: wdst(2)?,
        },
        Movpsl => UopKind::Movpsl { dst: wdst(0)? },
        Brb | Brw => UopKind::Br { target: tgt(0)? },
        Bneq | Beql | Bgtr | Bleq | Bgeq | Blss | Bgtru | Blequ | Bvc | Bvs | Bgequ | Blssu => {
            UopKind::BCond {
                cond: op,
                target: tgt(0)?,
            }
        }
        Blbs | Blbc => UopKind::Blb {
            src: src(0)?,
            set: op == Blbs,
            target: tgt(1)?,
        },
        Sobgeq | Sobgtr => UopKind::Sob {
            r: mreg(0)?,
            gtr: op == Sobgtr,
            target: tgt(1)?,
        },
        Aoblss | Aobleq => UopKind::Aob {
            limit: src(0)?,
            r: mreg(1)?,
            lss: op == Aoblss,
            target: tgt(2)?,
        },
        // Everything else — privileged/sensitive ops, stack and string
        // instructions, field and queue ops — stays with the interpreter.
        _ => return None,
    };
    debug_assert_eq!(off, tpl.len as u32);
    let mut cyc = (tpl.fetch_events as u64 + data_refs as u64) * costs.memory_reference
        + costs.base_instruction;
    if op == Movpsl {
        cyc += costs.movpsl;
    }
    Some(Uop {
        kind,
        // Saturate: folded charges are tiny under any sane cost model, and
        // a saturated charge still retires monotonically.
        cyc: u32::try_from(cyc).unwrap_or(u32::MAX),
        next_pc: va.wrapping_add(tpl.len as u32),
        fetch: tpl.fetch_events,
        store,
    })
}

fn alu_of(op: Opcode) -> AluOp {
    use Opcode::*;
    match op {
        Addl2 | Addl3 => AluOp::Add,
        Subl2 | Subl3 => AluOp::Sub,
        Mull2 | Mull3 => AluOp::Mul,
        Divl2 | Divl3 => AluOp::Div,
        Bisl2 | Bisl3 => AluOp::Bis,
        Bicl2 | Bicl3 => AluOp::Bic,
        Xorl2 | Xorl3 => AluOp::Xor,
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::icache::parse_template;

    fn lowered(bytes: &[u8], va: u32) -> Option<Uop> {
        let t = parse_template(bytes).expect("parseable");
        lower(&t, va, &CostModel::default())
    }

    #[test]
    fn lowers_movl_literal_to_register() {
        // MOVL #5, R0
        let u = lowered(&[0xD0, 0x05, 0x50], 0x1000).unwrap();
        assert_eq!(
            u.kind,
            UopKind::Mov {
                src: Src::Imm(5),
                dst: Dst::Reg(0),
                w: 4,
                xf: MovXf::Id
            }
        );
        assert_eq!(u.next_pc, 0x1003);
        assert_eq!((u.fetch, u.store), (3, false));
        let c = CostModel::default();
        assert_eq!(
            u64::from(u.cyc),
            3 * c.memory_reference + c.base_instruction
        );
        assert!(!u.ends_block());
    }

    #[test]
    fn lowers_two_op_alu_as_modify() {
        // ADDL2 R1, R2
        let u = lowered(&[0xC0, 0x51, 0x52], 0x1000).unwrap();
        assert_eq!(
            u.kind,
            UopKind::Alu {
                op: AluOp::Add,
                a: Src::Reg { r: 1, w: 4 },
                b: Src::Reg { r: 2, w: 4 },
                dst: Dst::Reg(2)
            }
        );
    }

    #[test]
    fn lowers_sobgtr_with_absolute_target() {
        // SOBGTR R2, .-3 (displacement -5 from after the byte)
        let u = lowered(&[0xF5, 0x52, 0xFB], 0x1000).unwrap();
        let UopKind::Sob { r, gtr, target } = u.kind else {
            panic!("not a sob: {u:?}");
        };
        assert_eq!((r, gtr, target), (2, true, 0x0FFE));
        assert!(u.ends_block());
    }

    #[test]
    fn lowers_register_deferred_load() {
        // MOVL (R1), R0 — one data read folded into the cycle charge.
        let u = lowered(&[0xD0, 0x61, 0x50], 0x1000).unwrap();
        assert_eq!(
            u.kind,
            UopKind::Mov {
                src: Src::Mem {
                    ea: Ea::RegDisp { r: 1, disp: 0 },
                    w: 4
                },
                dst: Dst::Reg(0),
                w: 4,
                xf: MovXf::Id
            }
        );
        assert_eq!((u.fetch, u.store), (3, false));
        let c = CostModel::default();
        assert_eq!(
            u64::from(u.cyc),
            (3 + 1) * c.memory_reference + c.base_instruction
        );
    }

    #[test]
    fn lowers_displacement_store_and_modify() {
        // MOVL R0, 4(R2) — byte displacement store.
        let u = lowered(&[0xD0, 0x50, 0xA2, 0x04], 0x1000).unwrap();
        assert_eq!(
            u.kind,
            UopKind::Mov {
                src: Src::Reg { r: 0, w: 4 },
                dst: Dst::Mem(Ea::RegDisp { r: 2, disp: 4 }),
                w: 4,
                xf: MovXf::Id
            }
        );
        assert!(u.store);
        let c = CostModel::default();
        // 4 fetch events (opcode, reg spec, disp spec, disp byte) + 1
        // data write.
        assert_eq!(
            u64::from(u.cyc),
            5 * c.memory_reference + c.base_instruction
        );

        // INCL (R3) — a modify is one read plus one write.
        let u = lowered(&[0xD6, 0x63], 0x1000).unwrap();
        assert_eq!(
            u.kind,
            UopKind::IncDec {
                dst: Dst::Mem(Ea::RegDisp { r: 3, disp: 0 }),
                byte: false,
                dec: false
            }
        );
        assert!(u.store);
        assert_eq!(
            u64::from(u.cyc),
            (2 + 2) * c.memory_reference + c.base_instruction
        );
    }

    #[test]
    fn folds_pc_relative_and_absolute_addresses() {
        // MOVL @#0x2000, R0
        let u = lowered(&[0xD0, 0x9F, 0x00, 0x20, 0x00, 0x00, 0x50], 0x1000).unwrap();
        let UopKind::Mov { src, .. } = u.kind else {
            panic!("not a mov: {u:?}");
        };
        assert_eq!(
            src,
            Src::Mem {
                ea: Ea::Abs(0x2000),
                w: 4
            }
        );
        // MOVL 0x10(PC), R0 — byte-displacement PC-relative: the base is
        // the VA after the displacement byte (0x1003), as the
        // interpreter's cursor PC would be.
        let u = lowered(&[0xD0, 0xAF, 0x10, 0x50], 0x1000).unwrap();
        let UopKind::Mov { src, .. } = u.kind else {
            panic!("not a mov: {u:?}");
        };
        assert_eq!(
            src,
            Src::Mem {
                ea: Ea::Abs(0x1013),
                w: 4
            }
        );
    }

    #[test]
    fn branch_targets_follow_the_lowering_va() {
        // Same bytes lowered at a different VA (mapped guests key blocks
        // by VA as well as PA) resolve targets against that VA.
        let u = lowered(&[0xF5, 0x52, 0xFB], 0x8000_1000).unwrap();
        let UopKind::Sob { target, .. } = u.kind else {
            panic!("not a sob: {u:?}");
        };
        assert_eq!(target, 0x8000_0FFE);
        assert_eq!(u.next_pc, 0x8000_1003);
    }

    #[test]
    fn rejects_side_effect_specifiers_and_sensitive_ops() {
        // MOVL (R1)+, R0 — autoincrement updates R1 mid-decode.
        assert!(lowered(&[0xD0, 0x81, 0x50], 0x1000).is_none());
        // MOVL -(R1), R0 — autodecrement.
        assert!(lowered(&[0xD0, 0x71, 0x50], 0x1000).is_none());
        // MOVL @4(R1), R0 — displacement deferred reads the pointer.
        assert!(lowered(&[0xD0, 0xB1, 0x04, 0x50], 0x1000).is_none());
        // MOVL (R1)[R2], R0 — indexed.
        assert!(lowered(&[0xD0, 0x42, 0x61, 0x50], 0x1000).is_none());
        // MTPR #0, #18 — privileged.
        assert!(lowered(&[0xDA, 0x00, 0x12], 0x1000).is_none());
        // PUSHL R0 — stack write.
        assert!(lowered(&[0xDD, 0x50], 0x1000).is_none());
        // HALT.
        assert!(lowered(&[0x00], 0x1000).is_none());
    }

    #[test]
    fn folds_movpsl_charge() {
        // MOVPSL R3
        let u = lowered(&[0xDC, 0x53], 0x1000).unwrap();
        assert_eq!(u.kind, UopKind::Movpsl { dst: Dst::Reg(3) });
        let c = CostModel::default();
        assert_eq!(
            u64::from(u.cyc),
            2 * c.memory_reference + c.base_instruction + c.movpsl
        );
    }
}

#[cfg(test)]
mod size_tests {
    #[test]
    fn uop_size_budget() {
        // The dispatch loop streams µops from L1; keep the footprint flat
        // so a 32-µop superblock stays within two dozen cache lines.
        assert!(
            std::mem::size_of::<super::Uop>() <= 48,
            "Uop grew to {}",
            std::mem::size_of::<super::Uop>()
        );
    }
}
