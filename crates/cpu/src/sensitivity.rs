//! A dynamic Popek–Goldberg sensitivity scan (regenerates paper Table 1).
//!
//! For every implemented opcode, this harness executes the instruction
//! from **user mode** with benign operands and records what actually
//! happened: retired directly, took the privileged-instruction trap, took
//! some other architectural trap, or (on a modified machine running a VM)
//! took the VM-emulation trap. Combined with the static classification in
//! [`vax_arch::opcode`], this demonstrates the paper's central problem —
//! on the standard VAX the sensitive instructions CHMx, REI, MOVPSL, and
//! PROBEx execute (or trap somewhere other than privileged software)
//! without giving a monitor control — and verifies that the modified
//! architecture repairs it.

// Diagnostic scan harness: every unwrap targets a machine this module
// constructs itself with statically in-bounds addresses, so failures are
// programming errors, not runtime conditions worth plumbing.
#![allow(clippy::unwrap_used)]

use crate::event::{StepEvent, VmExit};
use crate::machine::{ExecTier, Machine};
use vax_arch::opcode::SensitiveData;
use vax_arch::{AccessMode, MachineVariant, Opcode, Protection, Psl, Pte, ScbVector, VmPsl};

/// What happened when the instruction was executed from user mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// Retired without any trap: for a sensitive instruction, a
    /// Popek–Goldberg violation.
    Retired,
    /// Trapped through the reserved/privileged-instruction vector.
    PrivilegedTrap,
    /// Trapped through some other SCB vector (e.g. CHMx's own vector),
    /// still without giving privileged software on the *real* machine
    /// control in a VM setting.
    OtherTrap(u32),
    /// Took the paper's VM-emulation trap to the VMM.
    VmEmulationTrap,
    /// Halted or produced an unexpected machine state.
    Other,
}

impl core::fmt::Display for ScanOutcome {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ScanOutcome::Retired => f.write_str("executes directly"),
            ScanOutcome::PrivilegedTrap => f.write_str("privileged-instruction trap"),
            ScanOutcome::OtherTrap(v) => write!(f, "traps via SCB {v:#x}"),
            ScanOutcome::VmEmulationTrap => f.write_str("VM-emulation trap"),
            ScanOutcome::Other => f.write_str("other"),
        }
    }
}

/// One scanned opcode.
#[derive(Debug, Clone)]
pub struct SensitivityFinding {
    /// The instruction.
    pub opcode: Opcode,
    /// Statically, is it privileged?
    pub privileged: bool,
    /// The sensitive data it touches (empty if innocuous).
    pub sensitive_data: &'static [SensitiveData],
    /// What dynamically happened in user mode.
    pub outcome: ScanOutcome,
}

impl SensitivityFinding {
    /// True if this is a Popek–Goldberg violation: a sensitive instruction
    /// that did not trap to privileged software.
    pub fn is_violation(&self) -> bool {
        !self.sensitive_data.is_empty()
            && matches!(
                self.outcome,
                ScanOutcome::Retired | ScanOutcome::OtherTrap(_)
            )
    }
}

const CODE_BASE: u32 = 0x8000_0400; // S page 2
const SCRATCH: u32 = 0x8000_0A00; // S page 5
const HANDLER: u32 = 0x8000_0C00; // S page 6
const USER_SP: u32 = 0x8000_1000; // top of S page 7
const SCB_PA: u32 = 0x6000;
const SPT_PA: u32 = 0x7000;

/// Builds a machine with user-writable identity-mapped S space, an SCB
/// whose every vector points at a HALT handler, and user mode selected.
fn harness(variant: MachineVariant) -> Machine {
    let mut m = Machine::new(variant, 128 * 1024);
    // SPT: map S pages 0..32 to physical pages 0..32, all UW so user-mode
    // test code can run and write anywhere in the window.
    for page in 0..32u32 {
        let pte = Pte::build(page, Protection::Uw, true, true);
        m.mem_mut().write_u32(SPT_PA + 4 * page, pte.raw()).unwrap();
    }
    m.mmu_mut().set_sbr(SPT_PA);
    m.mmu_mut().set_slr(32);
    m.mmu_mut().set_mapen(true);
    // Standard machines set PTE<M> in hardware; the harness pages above
    // are pre-modified so writes don't fault on modified machines either.
    // SCB: every vector -> HALT handler (physical address of HANDLER page).
    for off in (0..0x140u32).step_by(4) {
        m.mem_mut().write_u32(SCB_PA + off, HANDLER).unwrap();
    }
    m.set_scbb(SCB_PA);
    // Handler: HALT (kernel mode reaches it through the SCB).
    m.mem_mut().write_u8(HANDLER & 0x00ff_ffff, 0x00).unwrap();
    // User mode, user previous mode, IPL 0.
    let mut psl = Psl::new();
    psl.set_cur_mode(AccessMode::User);
    psl.set_prv_mode(AccessMode::User);
    m.set_psl(psl);
    m.set_reg(14, USER_SP);
    m.set_sp_for_mode(AccessMode::Kernel, 0x8000_1200);
    m.set_isp(0x8000_1400);
    m
}

/// Encodes a benign instance of `op` at `CODE_BASE`.
fn encode_test_instruction(m: &mut Machine, op: Opcode) -> u32 {
    let mut bytes: Vec<u8> = Vec::new();
    let (enc, n) = op.encoding();
    bytes.extend_from_slice(&enc[..n]);
    for spec in op.operands() {
        use vax_arch::{AccessType, DataType};
        match spec.access {
            AccessType::Read => {
                bytes.push(0x01); // short literal 1
            }
            AccessType::Write | AccessType::Modify => {
                bytes.push(0x9F); // absolute
                bytes.extend_from_slice(&SCRATCH.to_le_bytes());
            }
            AccessType::Address => {
                bytes.push(0x9F);
                bytes.extend_from_slice(&SCRATCH.to_le_bytes());
            }
            AccessType::Branch => {
                let w = if spec.dtype == DataType::Byte { 1 } else { 2 };
                bytes.extend(std::iter::repeat_n(0, w));
            }
        }
    }
    // Terminate with a HALT so a retired instruction stops the harness on
    // the next step (in user mode, HALT itself traps — detect via PC).
    bytes.push(0x00);
    let pa = CODE_BASE & 0x00ff_ffff;
    m.mem_mut().write_slice(pa, &bytes).unwrap();
    m.set_pc(CODE_BASE);
    CODE_BASE + (bytes.len() as u32 - 1)
}

/// Pre-state needed by specific instructions (e.g. a plausible REI frame).
fn prime(m: &mut Machine, op: Opcode) {
    if op == Opcode::Rei {
        // User stack holds a PC/PSL pair returning to user mode.
        let mut img = Psl::new();
        img.set_cur_mode(AccessMode::User);
        img.set_prv_mode(AccessMode::User);
        let sp = USER_SP - 8;
        let pa = sp & 0x00ff_ffff;
        m.mem_mut().write_u32(pa, CODE_BASE + 1).unwrap(); // PC
        m.mem_mut().write_u32(pa + 4, img.raw()).unwrap(); // PSL
        m.set_reg(14, sp);
    }
    if op == Opcode::Ret {
        // Fabricate a minimal CALLS frame at FP.
        let fp = USER_SP - 64;
        let pa = fp & 0x00ff_ffff;
        m.mem_mut().write_u32(pa, 0).unwrap(); // handler
        m.mem_mut().write_u32(pa + 4, 1 << 29).unwrap(); // mask|S
        m.mem_mut().write_u32(pa + 8, 0).unwrap(); // AP
        m.mem_mut().write_u32(pa + 12, fp).unwrap(); // FP
        m.mem_mut().write_u32(pa + 16, CODE_BASE).unwrap(); // PC
        m.mem_mut().write_u32(pa + 20, 0).unwrap(); // numarg for CALLS pop
        m.set_reg(13, fp);
    }
    if op == Opcode::Rsb {
        let sp = USER_SP - 4;
        m.mem_mut().write_u32(sp & 0x00ff_ffff, CODE_BASE).unwrap();
        m.set_reg(14, sp);
    }
    if op == Opcode::Calls {
        // Entry mask of 0 at the destination.
        m.mem_mut().write_u16(SCRATCH & 0x00ff_ffff, 0).unwrap();
    }
}

/// Runs the scan for one opcode under the given execution tier.
fn scan_one(
    variant: MachineVariant,
    in_vm: bool,
    op: Opcode,
    tier: ExecTier,
) -> SensitivityFinding {
    let mut m = harness(variant);
    m.set_exec_tier(tier);
    encode_test_instruction(&mut m, op);
    prime(&mut m, op);
    if in_vm {
        m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::Kernel));
        // Ring compression would run VM-kernel in real executive mode.
        let mut psl = m.psl();
        psl.set_cur_mode(AccessMode::Executive);
        psl.set_prv_mode(AccessMode::Executive);
        psl.set_vm(true);
        m.set_psl(psl);
    }
    let before = m.counters();
    let outcome = match m.step() {
        StepEvent::VmExit(VmExit::Emulation) => ScanOutcome::VmEmulationTrap,
        StepEvent::VmExit(VmExit::Exception(e)) => {
            if e.vector() == ScbVector::ReservedInstruction {
                ScanOutcome::PrivilegedTrap
            } else {
                ScanOutcome::OtherTrap(e.vector().offset())
            }
        }
        StepEvent::VmExit(VmExit::Interrupt { .. }) => ScanOutcome::Other,
        StepEvent::Halted(_) => ScanOutcome::Other,
        StepEvent::Ok => {
            let after = m.counters();
            if after.exceptions > before.exceptions {
                // Delivered through the SCB: which vector? Recover it
                // from the handler PC (all vectors point at HANDLER) and
                // the frame: we instead re-derive from PSL mode + PC.
                if m.pc() == HANDLER {
                    // Distinguish privileged-instruction trap from other
                    // vectors by the opcode's architectural dispatch.
                    if op.is_privileged() {
                        ScanOutcome::PrivilegedTrap
                    } else if let Some(target) = op.chm_target() {
                        ScanOutcome::OtherTrap(ScbVector::for_chm_mode(target).offset())
                    } else {
                        ScanOutcome::OtherTrap(0)
                    }
                } else {
                    ScanOutcome::Other
                }
            } else {
                ScanOutcome::Retired
            }
        }
    };
    SensitivityFinding {
        opcode: op,
        privileged: op.is_privileged(),
        sensitive_data: op.sensitive_data(),
        outcome,
    }
}

/// Scans every implemented opcode from user mode.
///
/// With `in_vm == false` the instruction runs on the bare machine in user
/// mode. With `in_vm == true` (modified machines only) it runs inside a
/// VM whose virtual mode is kernel, compressed to real executive mode.
///
/// # Panics
///
/// Panics if `in_vm` is requested on a standard machine.
pub fn scan_sensitivity(variant: MachineVariant, in_vm: bool) -> Vec<SensitivityFinding> {
    scan_sensitivity_on(variant, in_vm, ExecTier::Cache)
}

/// [`scan_sensitivity`] under an explicit execution tier. The dynamic
/// Table-1 classification is an architectural property, so it must not
/// depend on how guest code executes — the mapped user-mode harness runs
/// through the translated tier's dispatch gate like any other guest, and
/// every tier must report identical outcomes.
pub fn scan_sensitivity_on(
    variant: MachineVariant,
    in_vm: bool,
    tier: ExecTier,
) -> Vec<SensitivityFinding> {
    Opcode::ALL
        .iter()
        .map(|&op| scan_one(variant, in_vm, op, tier))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(findings: &[SensitivityFinding], op: Opcode) -> &SensitivityFinding {
        findings.iter().find(|f| f.opcode == op).unwrap()
    }

    #[test]
    fn standard_vax_violates_popek_goldberg() {
        let findings = scan_sensitivity(MachineVariant::Standard, false);
        // MOVPSL executes directly in user mode, revealing PSL<CUR>.
        assert_eq!(
            finding(&findings, Opcode::Movpsl).outcome,
            ScanOutcome::Retired
        );
        assert!(finding(&findings, Opcode::Movpsl).is_violation());
        // REI executes directly from user mode.
        assert_eq!(
            finding(&findings, Opcode::Rei).outcome,
            ScanOutcome::Retired
        );
        // PROBER executes directly.
        assert_eq!(
            finding(&findings, Opcode::Prober).outcome,
            ScanOutcome::Retired
        );
        // CHMK traps, but through its own vector — not to a monitor.
        assert!(matches!(
            finding(&findings, Opcode::Chmk).outcome,
            ScanOutcome::OtherTrap(_)
        ));
        assert!(finding(&findings, Opcode::Chmk).is_violation());
        // Ordinary memory writes retire and implicitly set PTE<M>.
        assert_eq!(
            finding(&findings, Opcode::Movl).outcome,
            ScanOutcome::Retired
        );
        // Privileged instructions do trap.
        assert_eq!(
            finding(&findings, Opcode::Mtpr).outcome,
            ScanOutcome::PrivilegedTrap
        );
        assert_eq!(
            finding(&findings, Opcode::Ldpctx).outcome,
            ScanOutcome::PrivilegedTrap
        );
    }

    #[test]
    fn modified_vax_in_vm_traps_all_sensitive_instructions() {
        let findings = scan_sensitivity(MachineVariant::Modified, true);
        for op in [
            Opcode::Rei,
            Opcode::Chmk,
            Opcode::Chme,
            Opcode::Chms,
            Opcode::Chmu,
            Opcode::Mtpr,
            Opcode::Mfpr,
            Opcode::Halt,
            Opcode::Ldpctx,
            Opcode::Svpctx,
            Opcode::Wait,
            Opcode::Probevmr,
            Opcode::Probevmw,
        ] {
            assert_eq!(
                finding(&findings, op).outcome,
                ScanOutcome::VmEmulationTrap,
                "{op} must take the VM-emulation trap from VM-kernel mode"
            );
        }
        // MOVPSL is handled in microcode: no trap, and no violation
        // because it returns the VM's PSL.
        assert_eq!(
            finding(&findings, Opcode::Movpsl).outcome,
            ScanOutcome::Retired
        );
        // Innocuous instructions still execute directly (efficiency).
        assert_eq!(
            finding(&findings, Opcode::Addl2).outcome,
            ScanOutcome::Retired
        );
        assert_eq!(
            finding(&findings, Opcode::Brb).outcome,
            ScanOutcome::Retired
        );
    }

    #[test]
    fn sensitivity_scan_is_tier_invariant() {
        for (variant, in_vm) in [
            (MachineVariant::Standard, false),
            (MachineVariant::Modified, false),
            (MachineVariant::Modified, true),
        ] {
            let oracle = scan_sensitivity_on(variant, in_vm, ExecTier::Interp);
            for tier in [ExecTier::Cache, ExecTier::Trans] {
                let got = scan_sensitivity_on(variant, in_vm, tier);
                for (a, b) in oracle.iter().zip(got.iter()) {
                    assert_eq!(a.opcode, b.opcode);
                    assert_eq!(
                        a.outcome, b.outcome,
                        "{} classification changed under {tier:?} ({variant:?}, in_vm={in_vm})",
                        a.opcode
                    );
                }
            }
        }
    }

    #[test]
    fn violations_exist_only_on_standard() {
        let std_violations: Vec<_> = scan_sensitivity(MachineVariant::Standard, false)
            .into_iter()
            .filter(|f| f.is_violation() && f.opcode.is_table1_instruction())
            .map(|f| f.opcode)
            .collect();
        assert!(std_violations.contains(&Opcode::Rei));
        assert!(std_violations.contains(&Opcode::Movpsl));
        assert!(std_violations.contains(&Opcode::Prober));

        // In a VM on the modified VAX, the named Table-1 offenders either
        // trap for emulation or (MOVPSL) are compressed in microcode.
        let vm = scan_sensitivity(MachineVariant::Modified, true);
        for f in vm.iter().filter(|f| f.opcode.is_table1_instruction()) {
            let fixed = f.outcome == ScanOutcome::VmEmulationTrap
                || f.opcode == Opcode::Movpsl
                || matches!(f.opcode, Opcode::Prober | Opcode::Probew);
            assert!(fixed, "{} not handled: {:?}", f.opcode, f.outcome);
        }
    }
}
