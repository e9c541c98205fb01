//! Three-way differential fuzzing of the execution tiers: arbitrary
//! code — valid or garbage — must produce bit-identical architectural
//! state, cycle counts, and counters whether it runs through the
//! bytewise interpreter, the decode cache, or the translated-superblock
//! tier. The interpreter is the oracle; the other tiers must be
//! observationally invisible.

use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};
use vax_arch::{MachineVariant, Protection, Psl, Pte};
use vax_cpu::{
    CpuCounters, DecodeCacheStats, ExecTier, IntervalTimer, LoopReplayStats, Machine, StepEvent,
    IO_BASE_PA,
};
use vax_mem::PhysMemory;
use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_vmm::{ExitCause, Monitor, MonitorConfig, RunExit, ShadowConfig, VmConfig, VmStats};

/// Everything a bare machine can reveal after a bounded run.
#[derive(Debug, PartialEq)]
struct BareOutcome {
    regs: [u32; 16],
    psl_raw: u32,
    cycles: u64,
    counters: CpuCounters,
    halted: bool,
    /// Digest of the whole of physical memory.
    mem_digest: u64,
}

fn digest(mem: &PhysMemory) -> u64 {
    let mut h = DefaultHasher::new();
    mem.read_slice(0, mem.size()).unwrap().hash(&mut h);
    h.finish()
}

/// A bare machine with `code` at 0x1000, kernel mode at IPL 31 and the
/// stack at 0x8000. Garbage code faults through a zeroed SCB and
/// usually halts.
fn bare_machine(code: &[u8], tier: ExecTier) -> Machine {
    bare_machine_on(
        MachineVariant::Modified,
        PhysMemory::new(256 * 1024),
        code,
        tier,
    )
}

fn bare_machine_on(
    variant: MachineVariant,
    mem: PhysMemory,
    code: &[u8],
    tier: ExecTier,
) -> Machine {
    let mut m = Machine::with_mem(variant, mem);
    m.set_exec_tier(tier);
    m.mem_mut().write_slice(0x1000, code).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    m
}

/// S-space base, and where [`mapped_machine`] keeps its page tables.
const S_BASE: u32 = 0x8000_0000;
const P0_TABLE_PA: u32 = 0x2_0000;
const SPT_PA: u32 = 0x3_0000;

/// Like [`bare_machine`], under an identity P0/S map with memory
/// management enabled, so every fetch and operand reference goes
/// through address translation. Every PTE is valid, kernel-writable and
/// has M set; tests edit single PTEs (at `P0_TABLE_PA + 4 * vpn`) to
/// probe the other cases.
fn mapped_machine(variant: MachineVariant, code: &[u8], tier: ExecTier) -> Machine {
    let mut m = bare_machine_on(variant, PhysMemory::new(256 * 1024), code, tier);
    for vpn in 0..512u32 {
        let pte = Pte::build(vpn, Protection::Kw, true, true);
        m.mem_mut().write_u32(SPT_PA + 4 * vpn, pte.raw()).unwrap();
    }
    for vpn in 0..256u32 {
        let pte = Pte::build(vpn, Protection::Kw, true, true);
        m.mem_mut()
            .write_u32(P0_TABLE_PA + 4 * vpn, pte.raw())
            .unwrap();
    }
    let mmu = m.mmu_mut();
    mmu.set_sbr(SPT_PA);
    mmu.set_slr(512);
    mmu.set_p0br(S_BASE + P0_TABLE_PA);
    mmu.set_p0lr(256);
    mmu.set_mapen(true);
    m
}

/// Steps `m` for at most `max_steps` steps (or to its first non-`Ok`
/// event) and collects what it reveals.
fn finish(m: &mut Machine, max_steps: u32) -> BareOutcome {
    for _ in 0..max_steps {
        match m.step() {
            StepEvent::Ok => {}
            _ => break,
        }
    }
    BareOutcome {
        regs: std::array::from_fn(|i| m.reg(i)),
        psl_raw: m.psl().raw(),
        cycles: m.cycles(),
        counters: m.counters(),
        halted: m.halted(),
        mem_digest: digest(m.mem()),
    }
}

/// Runs `code` on a [`bare_machine`]: every tier must end in the same
/// state.
fn run_bare(code: &[u8], tier: ExecTier, max_steps: u32) -> BareOutcome {
    finish(&mut bare_machine(code, tier), max_steps)
}

/// Runs `code` on a [`mapped_machine`]. Garbage code probes TLB misses,
/// protection and length faults, and the translated tier's fast-path
/// bail protocol with inputs no hand-written test would pick.
fn run_mapped(code: &[u8], tier: ExecTier, max_steps: u32) -> BareOutcome {
    finish(
        &mut mapped_machine(MachineVariant::Modified, code, tier),
        max_steps,
    )
}

/// Everything a monitor run reveals: the guest's registers, statistics
/// and console, and the real machine's clock, counters and memory.
#[derive(Debug, PartialEq)]
struct GuestOutcome {
    regs: [u32; 16],
    stats: VmStats,
    console: Vec<u8>,
    cycles: u64,
    counters: CpuCounters,
    mem_digest: u64,
}

/// Runs `code` as a monitor guest (the monitor_fuzz corpus shape) under
/// `tier`, with `data` loaded at guest-physical 0x2000.
fn run_guest(code: &[u8], scb_junk: u32, data: &[u8], tier: ExecTier) -> GuestOutcome {
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.set_exec_tier(tier);
    let vm = mon.create_vm("fuzz", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, code).unwrap();
    mon.vm_write_phys(vm, 0x2000, data).unwrap();
    for off in (0..0x140u32).step_by(4) {
        mon.vm_write_phys(vm, 0x200 + off, &scb_junk.to_le_bytes())
            .unwrap();
    }
    mon.boot_vm(vm, 0x1000);
    mon.run(2_000_000);
    GuestOutcome {
        console: mon.vm_console_output(vm),
        regs: mon.vm(vm).regs,
        stats: mon.vm_stats(vm),
        cycles: mon.machine().cycles(),
        counters: mon.machine().counters(),
        mem_digest: digest(mon.machine().mem()),
    }
}

/// Bytes that make a copy visible: no two neighbours equal, no long
/// zero runs.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 7 + i / 251 + 3) as u8).collect()
}

/// Loads [`pattern`] over the move region of a bare or mapped machine.
fn with_pattern(mut m: Machine) -> Machine {
    m.mem_mut().write_slice(0x2000, &pattern(0x6000)).unwrap();
    m
}

/// `movc3 #len, @#src, @#dst`: word immediate length, absolute
/// addresses.
fn movc3(len: u16, src: u32, dst: u32) -> Vec<u8> {
    let mut v = vec![0x28, 0x8F];
    v.extend_from_slice(&len.to_le_bytes());
    v.push(0x9F);
    v.extend_from_slice(&src.to_le_bytes());
    v.push(0x9F);
    v.extend_from_slice(&dst.to_le_bytes());
    v
}

/// `code` followed by HALT, at 0x1000.
fn then_halt(mut code: Vec<u8>) -> Vec<u8> {
    code.push(0x00);
    code
}

/// A generated MOVC3: `(len, src offset, shape, dst offset, overlap)`.
type MoveSpec = (u16, u32, u8, u32, u16);

/// Random string moves: lengths 0–1500 (crossing one or two pages) at
/// random page offsets from 0x1000–0x7000 (the code page included),
/// with destinations that are independent, overlap the source from
/// above or from below, or land on the program's own code page past its
/// last byte.
fn move_specs() -> impl Strategy<Value = Vec<MoveSpec>> {
    proptest::collection::vec(
        (0u16..1501, 0u32..0x6000, 0u8..4, 0u32..0x6000, any::<u16>()),
        1..7,
    )
}

/// The program for `specs`: the moves in a loop run three times (the
/// later passes find the TLB warm and the data already moved), then
/// HALT.
fn movc3_program(specs: &[MoveSpec]) -> Vec<u8> {
    // movl #3, r9
    let mut code = vec![0xD0, 0x03, 0x59];
    for &(len, src_off, shape, dst_off, k) in specs {
        let src = 0x1000 + src_off;
        let reach = u32::from(len.max(1));
        let dst = match shape {
            0 => 0x1000 + dst_off,
            1 => src + 1 + u32::from(k) % reach,
            2 => src.saturating_sub(1 + u32::from(k) % reach),
            // Past the program (at most 0x60 bytes), still on its page.
            _ => 0x1080 + dst_off % 0x180,
        };
        code.extend(movc3(len, src, dst));
    }
    // sobgtr r9, <first move>; the loop body is at most 84 bytes.
    let disp = 3 - (code.len() as i32 + 3);
    code.extend([0xF5, 0x59, disp as i8 as u8]);
    then_halt(code)
}

/// Runs the machine `build` makes under each tier, asserts the three
/// outcomes agree, and returns the interpreter's machine and outcome.
fn assert_tiers_agree(mut build: impl FnMut(ExecTier) -> Machine) -> (Machine, BareOutcome) {
    let mut m = build(ExecTier::Interp);
    let oracle = finish(&mut m, 50_000);
    for tier in [ExecTier::Cache, ExecTier::Trans] {
        let got = finish(&mut build(tier), 50_000);
        assert_eq!(got, oracle, "{tier:?} diverged from interpreter");
    }
    (m, oracle)
}

/// Rewrites the P0 PTE of `vpn` in a [`mapped_machine`].
fn set_p0_pte(m: &mut Machine, vpn: u32, prot: Protection, valid: bool, modified: bool) {
    let pte = Pte::build(vpn, prot, valid, modified);
    m.mem_mut()
        .write_u32(P0_TABLE_PA + 4 * vpn, pte.raw())
        .unwrap();
}

/// `len` bytes of physical memory at `pa`.
fn bytes_at(m: &Machine, pa: u32, len: u32) -> Vec<u8> {
    m.mem().read_slice(pa, len).unwrap().into_owned()
}

/// The [`pattern`] bytes [`with_pattern`] put at `pa`.
fn pattern_at(pa: u32, len: u32) -> Vec<u8> {
    let off = (pa - 0x2000) as usize;
    pattern(0x6000)[off..off + len as usize].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Raw random bytes on a bare machine: every tier must observe the
    /// same faults, retire the same instructions, and end in the same
    /// state. Random code occasionally forms real loops, so this also
    /// probes the hot path with inputs no hand-written test would pick.
    #[test]
    fn random_bytes_are_tier_invariant_bare(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let oracle = run_bare(&code, ExecTier::Interp, 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_bare(&code, tier, 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// Raw random bytes on a *mapped* machine: the translated tier's
    /// inline TLB fast path, pre-mutation bails, and TLB hit replay must
    /// leave architectural state, cycles, and MMU counters bit-identical
    /// with the interpreter walking the same page tables.
    #[test]
    fn random_bytes_are_tier_invariant_mapped(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        let oracle = run_mapped(&code, ExecTier::Interp, 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_mapped(&code, tier, 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// The monitor_fuzz corpus run under all three tiers: no panics,
    /// and identical guest-visible outcomes.
    #[test]
    fn monitor_corpus_is_tier_invariant(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        scb_junk in any::<u32>(),
    ) {
        let oracle = run_guest(&code, scb_junk, &[], ExecTier::Interp);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_guest(&code, scb_junk, &[], tier);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random string moves on a bare machine: the cache and trans tiers
    /// copy whole page chunks at once, the interpreter byte by byte; the
    /// memory they leave, and every charge, must be the same.
    #[test]
    fn movc3_is_tier_invariant_bare(specs in move_specs()) {
        let code = movc3_program(&specs);
        let oracle = finish(&mut with_pattern(bare_machine(&code, ExecTier::Interp)), 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = finish(&mut with_pattern(bare_machine(&code, tier)), 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// Random string moves under translation: chunks clear only with
    /// both pages resident in the TLB, so the first bytes of a move walk
    /// and the rest are replayed as hits.
    #[test]
    fn movc3_is_tier_invariant_mapped(specs in move_specs()) {
        let code = movc3_program(&specs);
        let build = |tier| with_pattern(mapped_machine(MachineVariant::Modified, &code, tier));
        let oracle = finish(&mut build(ExecTier::Interp), 50_000);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = finish(&mut build(tier), 50_000);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }

    /// Random string moves by a monitor guest: the real machine runs
    /// mapped through the shadow tables, taking shadow fills mid-move.
    #[test]
    fn movc3_is_tier_invariant_in_monitor(specs in move_specs(), scb_junk in any::<u32>()) {
        let code = movc3_program(&specs);
        let data = pattern(0x6000);
        let oracle = run_guest(&code, scb_junk, &data, ExecTier::Interp);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            let got = run_guest(&code, scb_junk, &data, tier);
            prop_assert_eq!(&got, &oracle, "{:?} diverged from interpreter", tier);
        }
    }
}

/// What a remap loop does after rewriting its code VA's PTE.
#[derive(Debug, Clone, Copy)]
enum Flush {
    Tbis,
    Tbia,
    P0br,
    Nothing,
}

impl Flush {
    fn asm(self) -> String {
        match self {
            Flush::Tbis => format!("mtpr #{REMAP_VA:#x}, #58"),
            Flush::Tbia => "mtpr #0, #57".to_string(),
            Flush::P0br => format!("mtpr #{:#x}, #8", S_BASE + P0_TABLE_PA),
            Flush::Nothing => String::new(),
        }
    }
}

/// The code VA a remap loop calls, and the physical pages its P0 PTE
/// may name (the first is the VA's identity frame).
const REMAP_VA: u32 = 0x1400;
const REMAP_PAS: [u32; 3] = [0x1400, 0x1600, 0x1800];

/// One target page's code: mostly register-only instructions on R0–R11,
/// so the loop usually survives to its next remap, and now and then
/// raw random bytes. Either way it ends in RSB.
fn remap_target() -> impl Strategy<Value = Vec<u8>> {
    let reg = || (0u8..12).prop_map(|r| 0x50 | r);
    let inst = prop_oneof![
        // ADDL2 #imm32, Rn
        (any::<u32>(), reg()).prop_map(|(v, r)| {
            let mut b = vec![0xC0, 0x8F];
            b.extend(v.to_le_bytes());
            b.push(r);
            b
        }),
        // XORL2 Ra, Rb / MULL2 Ra, Rb
        (reg(), reg()).prop_map(|(a, b)| vec![0xCC, a, b]),
        (reg(), reg()).prop_map(|(a, b)| vec![0xC4, a, b]),
        // MOVL #lit, Rn / INCL Rn
        (0u8..64, reg()).prop_map(|(lit, r)| vec![0xD0, lit, r]),
        reg().prop_map(|r| vec![0xD6, r]),
    ];
    let code = prop_oneof![
        7 => proptest::collection::vec(inst, 1..12).prop_map(|v| v.concat()),
        1 => proptest::collection::vec(any::<u8>(), 1..48),
    ];
    code.prop_map(|mut b| {
        b.push(0x05); // RSB
        b
    })
}

/// A 40-iteration loop (AP counts down) that JSBs into [`REMAP_VA`]
/// and, at the iterations `schedule` names, points the VA's P0 PTE at
/// `REMAP_PAS[target]` and flushes.
fn remap_loop(schedule: &[(u32, usize, Flush)]) -> Vec<u8> {
    let pte_va = S_BASE + P0_TABLE_PA + 4 * (REMAP_VA >> 9);
    let mut src = format!("movl #40, ap\ntop:\njsb @#{REMAP_VA:#x}\n");
    for (i, &(at, target, flush)) in schedule.iter().enumerate() {
        let pte = Pte::build(REMAP_PAS[target] >> 9, Protection::Kw, true, true).raw();
        src += &format!(
            "cmpl ap, #{at}\nbneq skip{i}\nmovl #{pte:#x}, @#{pte_va:#x}\n{}\nskip{i}:\n",
            flush.asm()
        );
    }
    src += "sobgtr ap, back\nhalt\nback:\nbrw top\n";
    let bytes = vax_asm::assemble_text(&src, 0x1000).unwrap().bytes;
    assert!(
        0x1000 + bytes.len() as u32 <= REMAP_VA,
        "the loop stays below its code VA"
    );
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A mapped loop calls one code VA while rewriting which physical
    /// page backs it, on a random schedule, each rewrite followed by a
    /// TBIS of the VA, a TBIA, a P0BR write or nothing. The code caches
    /// are keyed by physical address and never see the remaps; the TLB
    /// decides which page runs, stale entries included, so every tier
    /// must end in the interpreter's state, cycles, counters and memory.
    #[test]
    fn code_remaps_are_tier_invariant(
        targets in proptest::collection::vec(remap_target(), 2..4),
        schedule in proptest::collection::vec(
            (
                1u32..41,
                0usize..3,
                prop_oneof![
                    Just(Flush::Tbis),
                    Just(Flush::Tbia),
                    Just(Flush::P0br),
                    Just(Flush::Nothing),
                ],
            ),
            1..7,
        ),
    ) {
        let schedule: Vec<_> = schedule
            .into_iter()
            .map(|(at, t, flush)| (at, t % targets.len(), flush))
            .collect();
        let program = remap_loop(&schedule);
        let run = |tier: ExecTier| {
            let mut m = mapped_machine(MachineVariant::Modified, &program, tier);
            for (pa, code) in REMAP_PAS.iter().zip(&targets) {
                m.mem_mut().write_slice(*pa, code).unwrap();
            }
            finish(&mut m, 50_000)
        };
        let oracle = run(ExecTier::Interp);
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            prop_assert_eq!(&run(tier), &oracle, "{:?} diverged from interpreter", tier);
        }
    }
}

/// Self-modifying code overwriting a *currently translated* superblock:
/// the loop body runs hot (so it is translated), then patches its own
/// ADDL2 into SUBL2 mid-loop. Every tier must observe the new bytes on
/// the next execution — the SMC page tracking drains into both the
/// decode cache and the translation cache.
#[test]
fn smc_overwriting_translated_superblock_is_tier_invariant() {
    // r3 accumulates; after 40 of 80 iterations, patch the opcode byte
    // of `addl2 #3, r3` (0xC0) to `subl2` (0xC2) via a store through r6.
    // The patch target address is discovered below and poked into the
    // immediate slot, keeping the program position-independent of
    // assembler encoding choices.
    let src = "
            movl #80, r2
            clrl r3
        top:
            addl2 #3, r3
            cmpl r2, #40
            bneq skip
            movb #0xC2, @#0x0
        skip:
            sobgtr r2, top
            halt
    ";
    let program = vax_asm::assemble_text(src, 0x1000).unwrap();
    let mut bytes = program.bytes.clone();
    // Locate `addl2 #3, r3` = C0 03 53 — the byte to patch — and the
    //`movb #C2, @#0` = 90 8F C2 9F 00 00 00 00 absolute slot to aim it.
    let addl_off = bytes
        .windows(3)
        .position(|w| w == [0xC0, 0x03, 0x53])
        .expect("addl2 #3, r3 in program");
    let movb_off = bytes
        .windows(8)
        .position(|w| w == [0x90, 0x8F, 0xC2, 0x9F, 0x00, 0x00, 0x00, 0x00])
        .expect("movb #C2, @#0 in program");
    let target = (0x1000 + addl_off as u32).to_le_bytes();
    bytes[movb_off + 4..movb_off + 8].copy_from_slice(&target);

    let oracle = run_bare(&bytes, ExecTier::Interp, 100_000);
    assert!(oracle.halted, "SMC program must halt");
    // 40 iterations of +3, then 40 of -3 (the patch lands before
    // iteration 40's decrement is re-fetched... the exact split is
    // whatever the interpreter says — the tiers must simply agree).
    for tier in [ExecTier::Cache, ExecTier::Trans] {
        let got = run_bare(&bytes, tier, 100_000);
        assert_eq!(got, oracle, "{tier:?} diverged on self-modifying code");
    }
    // The patch genuinely flipped the arithmetic: a pure-ADD run of the
    // same loop would end at 240.
    assert_ne!(oracle.regs[3], 240, "patch must have taken effect");
}

/// Source and destination pages that share a slot of the 256-entry
/// direct-mapped TLB (P0 vpn 0x30 and S vpn 0x130) evict each other on
/// every byte, so a chunk never finds both resident and the fast path
/// must decline for every byte: each one walks, on every tier.
#[test]
fn movc3_between_colliding_tlb_pages_walks_every_byte() {
    let dst = S_BASE + 0x2_6080;
    let code = then_halt(movc3(300, 0x6040, dst));
    let (m, oracle) = assert_tiers_agree(|tier| {
        with_pattern(mapped_machine(MachineVariant::Modified, &code, tier))
    });
    assert!(oracle.halted);
    assert!(
        oracle.counters.tlb_misses >= 2 * 300,
        "the pages must collide: {} misses",
        oracle.counters.tlb_misses
    );
    assert_eq!(bytes_at(&m, 0x2_6080, 300), pattern_at(0x6040, 300));
}

/// Destination pages whose PTEs have M clear on a standard VAX, made
/// resident in the TLB by earlier reads: the first write to each sets M
/// in hardware (charged), after which the rest of that page's chunk may
/// take the fast path.
#[test]
fn movc3_into_clean_pages_sets_m_like_the_byte_loop() {
    let mut code = movc3(16, 0x6000, 0x4000);
    code.extend(movc3(16, 0x6200, 0x4010));
    code.extend(movc3(600, 0x4100, 0x6150));
    let code = then_halt(code);
    let (m, oracle) = assert_tiers_agree(|tier| {
        let mut m = with_pattern(mapped_machine(MachineVariant::Standard, &code, tier));
        set_p0_pte(&mut m, 0x30, Protection::Kw, true, false);
        set_p0_pte(&mut m, 0x31, Protection::Kw, true, false);
        m
    });
    assert!(oracle.halted);
    assert_eq!(m.mmu().counters().m_bit_sets, 2);
    assert_eq!(bytes_at(&m, 0x6150, 600), pattern_at(0x4100, 600));
}

/// A move whose second destination page is invalid faults after
/// copying the first page's share, at the same byte on every tier; the
/// instruction does not complete (R1 never gets its final value).
#[test]
fn movc3_faults_on_an_invalid_second_page_after_a_partial_copy() {
    let code = then_halt(movc3(600, 0x4100, 0x6150));
    let (m, oracle) = assert_tiers_agree(|tier| {
        let mut m = with_pattern(mapped_machine(MachineVariant::Modified, &code, tier));
        set_p0_pte(&mut m, 0x31, Protection::Kw, false, true);
        m
    });
    assert_ne!(oracle.regs[1], 0x4100 + 600, "the move must not complete");
    assert_eq!(bytes_at(&m, 0x6150, 0xB0), pattern_at(0x4100, 0xB0));
    assert_eq!(bytes_at(&m, 0x6200, 0x40), pattern_at(0x6200, 0x40));
}

/// A destination page that is resident in the TLB (an earlier move
/// read it) but read-only: the chunk must not be copied, and the first
/// byte written there raises the access violation on every tier.
#[test]
fn movc3_into_a_resident_read_only_page_faults_at_its_first_byte() {
    let mut code = movc3(16, 0x6200, 0x4000);
    code.extend(movc3(600, 0x4100, 0x6150));
    let code = then_halt(code);
    let (m, oracle) = assert_tiers_agree(|tier| {
        let mut m = with_pattern(mapped_machine(MachineVariant::Modified, &code, tier));
        set_p0_pte(&mut m, 0x31, Protection::Kr, true, true);
        m
    });
    assert_ne!(oracle.regs[1], 0x4100 + 600, "the move must not complete");
    assert_eq!(bytes_at(&m, 0x6150, 0xB0), pattern_at(0x4100, 0xB0));
    assert_eq!(bytes_at(&m, 0x6200, 0x40), pattern_at(0x6200, 0x40));
}

/// Operands in IO space or running off the end of RAM: IO bytes go
/// through the bus one at a time (counted as device accesses), and a
/// move crossing the end of memory copies up to it, then machine-checks.
#[test]
fn movc3_at_io_space_and_beyond_memory_is_tier_invariant() {
    const END: u32 = 256 * 1024;
    let io = then_halt(movc3(8, IO_BASE_PA + 0x10, 0x6000));
    let (_, oracle) = assert_tiers_agree(|tier| with_pattern(bare_machine(&io, tier)));
    assert!(oracle.counters.device_csr_accesses > 0);
    let io_dst = then_halt(movc3(8, 0x6000, IO_BASE_PA + 0x10));
    assert_tiers_agree(|tier| with_pattern(bare_machine(&io_dst, tier)));

    let src_off_end = then_halt(movc3(0x200, END - 0x100, 0x6000));
    let (m, _) = assert_tiers_agree(|tier| with_pattern(bare_machine(&src_off_end, tier)));
    assert_eq!(bytes_at(&m, 0x6000, 0x100), vec![0; 0x100]);
    assert_eq!(bytes_at(&m, 0x6100, 0x10), pattern_at(0x6100, 0x10));

    let dst_off_end = then_halt(movc3(0x200, 0x4000, END - 0x80));
    let (m, oracle) = assert_tiers_agree(|tier| with_pattern(bare_machine(&dst_off_end, tier)));
    assert_eq!(bytes_at(&m, END - 0x80, 0x80), pattern_at(0x4000, 0x80));
    assert_ne!(oracle.regs[1], 0x4000 + 0x200, "the move must not complete");
}

/// String moves over a copy-on-write fork: sources and destinations
/// still shared with the base, freshly copied up, on the same page, and
/// overlapping across pages. Every tier must leave the same memory as
/// the same moves on a flat memory, and the parent must not change.
#[test]
fn movc3_on_a_forked_memory_matches_a_flat_one() {
    let mut code = movc3(600, 0x4100, 0x6150);
    code.extend(movc3(100, 0x2010, 0x2013));
    code.extend(movc3(300, 0x6150, 0x2300));
    code.extend(movc3(800, 0x5100, 0x50F0));
    code.extend(movc3(700, 0x3010, 0x3190));
    let code = then_halt(code);
    let mut parent = PhysMemory::new(256 * 1024);
    parent.write_slice(0x2000, &pattern(0x6000)).unwrap();
    let before = digest(&parent);
    let flat = finish(
        &mut bare_machine_on(
            MachineVariant::Modified,
            parent.clone(),
            &code,
            ExecTier::Interp,
        ),
        50_000,
    );
    assert!(flat.halted);
    let (_, forked) = assert_tiers_agree(|tier| {
        bare_machine_on(MachineVariant::Modified, parent.fork(), &code, tier)
    });
    assert_eq!(forked, flat);
    assert_eq!(digest(&parent), before, "children never write the parent");
}

/// A mapped guest under the monitor whose second destination page has
/// `PTE<M>` clear and is resident in the TLB (read first): the real
/// machine takes a modify fault mid-move, the VMM sets M and the
/// instruction restarts from its first byte. Every tier must agree on
/// the guest, its statistics and the real machine.
#[test]
fn movc3_modify_fault_in_a_vm_restarts_identically() {
    const GUEST_SPT: u32 = 0x3_0000;
    const GUEST_P0: u32 = 0x2_0000;
    let program = vax_asm::assemble_text(
        "
            mtpr #0x30000, #12
            mtpr #512, #13
            mtpr #0x80020000, #8
            mtpr #256, #9
            mtpr #1, #56
            movc3 #16, @#0x6200, @#0x4000
            movc3 #600, @#0x4100, @#0x6150
            halt
        ",
        0x1000,
    )
    .unwrap();
    let run = |tier: ExecTier| {
        let mut mon = Monitor::new(MonitorConfig::default());
        mon.set_exec_tier(tier);
        let vm = mon.create_vm("mfault", VmConfig::default());
        mon.vm_write_phys(vm, program.base, &program.bytes).unwrap();
        mon.vm_write_phys(vm, 0x2000, &pattern(0x6000)).unwrap();
        for vpn in 0..512u32 {
            let pte = Pte::build(vpn, Protection::Kw, true, true);
            mon.vm_write_phys(vm, GUEST_SPT + 4 * vpn, &pte.raw().to_le_bytes())
                .unwrap();
        }
        for vpn in 0..256u32 {
            let pte = Pte::build(vpn, Protection::Kw, true, vpn != 0x31);
            mon.vm_write_phys(vm, GUEST_P0 + 4 * vpn, &pte.raw().to_le_bytes())
                .unwrap();
        }
        mon.boot_vm(vm, program.base);
        mon.run(50_000_000);
        let copied: Vec<u32> = (0..600 / 4)
            .map(|i| mon.vm_read_phys_u32(vm, 0x6150 + 4 * i).unwrap())
            .collect();
        let out = GuestOutcome {
            console: mon.vm_console_output(vm),
            regs: mon.vm(vm).regs,
            stats: mon.vm_stats(vm),
            cycles: mon.machine().cycles(),
            counters: mon.machine().counters(),
            mem_digest: digest(mon.machine().mem()),
        };
        (out, copied)
    };
    let (oracle, copied) = run(ExecTier::Interp);
    for tier in [ExecTier::Cache, ExecTier::Trans] {
        assert_eq!(run(tier).0, oracle, "{tier:?} diverged from interpreter");
    }
    assert!(oracle.stats.modify_faults >= 1, "{:?}", oracle.stats);
    assert_eq!(oracle.regs[1], 0x4100 + 600, "the move completes");
    let want: Vec<u32> = pattern_at(0x4100, 600)
        .chunks(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    assert_eq!(copied, want);
}

/// Everything a MiniVMS-under-the-VMM run reveals, machine-wide and per
/// VM.
#[derive(Debug, PartialEq)]
struct MonitorOutcome {
    exit: RunExit,
    cycles: u64,
    counters: CpuCounters,
    vmm_cycles: u64,
    world_switches: u64,
    exits_by_cause: Vec<u64>,
    vms: Vec<(VmStats, Vec<u8>)>,
}

/// The paper's editing+transaction mix (§7.3) as two MiniVMS guests in
/// one monitor with the 8-slot shadow cache, cut to 40 iterations per
/// process: mapped guests doing string moves and simple arithmetic
/// under shadow fills, modify faults, emulation traps and world
/// switches. All three tiers must agree on the run, every counter,
/// every exit cause and each VM.
#[test]
fn minivms_edit_trans_in_two_vms_is_tier_invariant() {
    let image = build_image(&OsConfig {
        nproc: 6,
        workload: Workload::EditTrans,
        iterations: 40,
        quantum_ticks: 3,
        tick_cycles: 2500,
        ..OsConfig::default()
    })
    .unwrap();
    let vm_config = VmConfig {
        shadow: ShadowConfig {
            cache_slots: 8,
            ..ShadowConfig::default()
        },
        ..VmConfig::default()
    };
    let run = |tier: ExecTier| {
        let mut mon = Monitor::new(MonitorConfig::default());
        mon.set_exec_tier(tier);
        mon.enable_obs(64);
        let vms = [
            boot_in_monitor(&mut mon, &image, vm_config.clone()),
            boot_in_monitor(&mut mon, &image, vm_config.clone()),
        ];
        let exit = mon.run(2_000_000_000);
        if tier != ExecTier::Interp {
            assert_eq!(
                mon.machine().decode_cache_stats().invalidations,
                0,
                "{tier:?}: world switches and guest TLB flushes keep the decode cache"
            );
        }
        let obs = mon.obs().unwrap();
        MonitorOutcome {
            exit,
            cycles: mon.machine().cycles(),
            counters: mon.machine().counters(),
            vmm_cycles: mon.vmm_cycles(),
            world_switches: mon.world_switches(),
            exits_by_cause: ExitCause::ALL
                .iter()
                .map(|&c| obs.histogram(c).count())
                .collect(),
            vms: vms
                .iter()
                .map(|&vm| (mon.vm_stats(vm), mon.vm_console_output(vm)))
                .collect(),
        }
    };
    let oracle = run(ExecTier::Interp);
    assert_eq!(oracle.exit, RunExit::AllHalted);
    assert!(oracle.world_switches > 0 && oracle.counters.tlb_misses > 0);
    for tier in [ExecTier::Cache, ExecTier::Trans] {
        assert_eq!(run(tier), oracle, "{tier:?} diverged from interpreter");
    }
}

/// Where a generated poll-loop guest keeps its data (guest-physical):
/// a KCALL request block whose STATUS word is the word every loop
/// polls, 16 pointers into the data region (for `@d(r5)`), a cell
/// holding the word's address (for `@(r8)`), and 32 KiB the loop
/// bodies read.
const POLL_REQ: u32 = 0x4000;
const POLL_WORD: u32 = POLL_REQ + 16;
const POLL_PTRS: u32 = 0x4100;
const POLL_CELL: u32 = 0x4200;
const POLL_DATA: u32 = 0x8000;

/// A read operand: (addressing mode, the number picking its register,
/// displacement or value).
type PollOperand = (u8, u32);
/// A loop-body instruction: (kind, operand size, two operands).
type PollInstr = (u8, u8, PollOperand, PollOperand);
/// A polling guest: (what ends the poll: 0 a KCALL disk completion, 1
/// the virtual timer's handler, 2 nothing but the budget; run at IPL 0;
/// the loop body; how the loop closes; how it addresses the polled
/// word; a seed for registers, sector, length and timer interval).
type PollGuest = (u8, bool, Vec<PollInstr>, u8, u8, u32);
/// A poll case: (quantum, disk latency, budget, one or two guests).
type PollCase = (u64, u64, u64, Vec<PollGuest>);

const POLL_BRANCHES: [&str; 14] = [
    "beql", "bneq", "bgtr", "bleq", "bgeq", "blss", "bgtru", "blequ", "bvc", "bvs", "bgequ",
    "blssu", "brb", "brw",
];

fn poll_operand((mode, k): PollOperand, size: &str) -> String {
    let r = 1 + k % 3;
    let imm = match size {
        "b" => k % 0x100,
        "w" => k % 0x1_0000,
        _ => k,
    };
    match mode % 11 {
        0 => format!("r{}", k % 6),
        1 => format!("#{}", k % 64),
        2 => format!("#{imm}"),
        3 => format!("@#{:#x}", POLL_DATA + k % 0x2000),
        4 => format!("(r{r})"),
        5 => format!("(r{r})+"),
        6 => format!("-(r{r})"),
        7 => format!("{}(r{r})", (k >> 8) as i8),
        8 => format!("@{}(r5)", 4 * (k % 16)),
        9 => format!("(r{r})[r4]"),
        _ => "head".to_string(),
    }
}

/// Body instruction `n`: mostly tests and branches replay accepts,
/// sometimes a read-only branch it does not (BLBC) or a register write.
fn poll_instr(&(kind, size, a, b): &PollInstr, n: usize) -> String {
    let sz = ["b", "w", "l"][usize::from(size % 3)];
    match kind % 8 {
        0 | 1 => format!("tst{sz} {}", poll_operand(a, sz)),
        2 | 3 => format!("cmp{sz} {}, {}", poll_operand(a, sz), poll_operand(b, sz)),
        4 => format!("bitl {}, {}", poll_operand(a, "l"), poll_operand(b, "l")),
        5 => format!("{} n{n}\nn{n}:", POLL_BRANCHES[(a.1 % 14) as usize]),
        6 => format!("blbc {}, n{n}\nn{n}:", poll_operand(a, "l")),
        _ => format!("movl {}, r11", poll_operand(a, "l")),
    }
}

/// The test and branch that close the loop while the word is 0.
fn poll_closing(form: u8, wmode: u8) -> String {
    let w = match wmode % 6 {
        0 => format!("@#{POLL_WORD:#x}"),
        1 => "(r6)".to_string(),
        2 => "16(r7)".to_string(),
        3 => "@(r8)".to_string(),
        4 => "(r9)[r10]".to_string(),
        _ => format!("@#{:#x}[r10]", POLL_WORD - 8),
    };
    match form % 5 {
        0 => format!("tstl {w}\nbeql head"),
        1 => format!("cmpl {w}, #0\nbeql head"),
        2 => format!("bitl #1, {w}\nbeql head"),
        3 => format!("tstl {w}\nbneq out\nbrb head"),
        _ => format!("cmpl #0, {w}\nbneq out\nbrw head"),
    }
}

/// A guest that arms what will end its poll, polls the word through
/// its loop and halts once the word is set. The timer handler sets the
/// word and stops the timer; the device handler only returns.
fn poll_guest_program((kind, low_ipl, body, form, wmode, seed): &PollGuest) -> String {
    let arm = match kind % 3 {
        0 => format!(
            "movl #1, @#{POLL_REQ:#x}
            movl #{}, @#{:#x}
            movl #0xC000, @#{:#x}
            movl #{}, @#{:#x}
            mtpr #{POLL_REQ:#x}, #201",
            seed % 64,
            POLL_REQ + 4,
            POLL_REQ + 8,
            4 * (seed % 129),
            POLL_REQ + 12,
        ),
        1 => format!(
            "mtpr #-{}, #25
            mtpr #0x51, #24",
            500 + seed % 60_000
        ),
        _ => String::new(),
    };
    let ipl = if *low_ipl || kind % 3 == 1 { 0 } else { 31 };
    let body: Vec<String> = body
        .iter()
        .enumerate()
        .map(|(n, i)| poll_instr(i, n))
        .collect();
    format!(
        "start:
            mtpr #0x200, #17
            mtpr #4, #19
            mtpr #0x3000, #4
            mtpr #0x3800, #0
            pushl #0x001F0000
            pushal main
            rei
        main:
            movl #{seed}, r0
            movl #{}, r1
            movl #{}, r2
            movl #{}, r3
            movl #{}, r4
            movl #{POLL_PTRS:#x}, r5
            movl #{POLL_WORD:#x}, r6
            movl #{POLL_REQ:#x}, r7
            movl #{POLL_CELL:#x}, r8
            movl #{:#x}, r9
            movl #2, r10
            {arm}
            mtpr #{ipl}, #18
        head:
            {}
            {}
        out:
            halt
            .align 4
        tick:
            movl #1, @#{POLL_WORD:#x}
            mtpr #0x80, #24
            rei
            .align 4
        dev:
            rei
        ",
        POLL_DATA + seed % 0x2000,
        POLL_DATA + (seed >> 8) % 0x2000,
        POLL_DATA + (seed >> 16) % 0x2000,
        seed % 8,
        POLL_WORD - 8,
        body.join("\n"),
        poll_closing(*form, *wmode),
    )
}

/// Everything a poll-loop monitor run reveals.
#[derive(Debug, PartialEq)]
struct PollOutcome {
    exit: RunExit,
    cycles: u64,
    counters: CpuCounters,
    todr: u32,
    world_switches: u64,
    vmm_cycles: u64,
    vms: Vec<(VmStats, [u32; 16], IntervalTimer)>,
    mem_digest: u64,
}

/// Runs `case` under `tier`: its outcome, decode-cache statistics and
/// loop-replay statistics.
fn run_poll(case: &PollCase, tier: ExecTier) -> (PollOutcome, DecodeCacheStats, LoopReplayStats) {
    let (quantum, latency, budget, guests) = case;
    let mut mon = Monitor::new(MonitorConfig {
        mem_bytes: 2 << 20,
        quantum: *quantum,
        vdisk_latency: *latency,
        ..MonitorConfig::default()
    });
    mon.set_exec_tier(tier);
    let data: Vec<u8> = (0..0x8000u32)
        .map(|i| {
            if (i / 8) % 3 == 0 {
                0
            } else {
                (i * 7 + 3) as u8
            }
        })
        .collect();
    let ptrs: Vec<u8> = (0..16u32)
        .flat_map(|i| (POLL_DATA + 0x200 * i).to_le_bytes())
        .collect();
    let vms: Vec<_> = guests
        .iter()
        .map(|g| {
            let (p, sym) = vax_asm::assemble_text_with_symbols(&poll_guest_program(g), 0x1000)
                .expect("assembles");
            let vm = mon.create_vm("poll", VmConfig::default());
            mon.vm_write_phys(vm, 0x1000, &p.bytes).unwrap();
            mon.vm_write_phys(vm, 0x200 + 0xC0, &sym["tick"].to_le_bytes())
                .unwrap();
            mon.vm_write_phys(vm, 0x200 + 0x100, &sym["dev"].to_le_bytes())
                .unwrap();
            mon.vm_write_phys(vm, POLL_PTRS, &ptrs).unwrap();
            mon.vm_write_phys(vm, POLL_CELL, &POLL_WORD.to_le_bytes())
                .unwrap();
            mon.vm_write_phys(vm, POLL_DATA, &data).unwrap();
            mon.boot_vm(vm, 0x1000);
            vm
        })
        .collect();
    let exit = mon.run(*budget);
    let out = PollOutcome {
        exit,
        cycles: mon.machine().cycles(),
        counters: mon.machine().counters(),
        todr: mon.machine().export_state().todr,
        world_switches: mon.world_switches(),
        vmm_cycles: mon.vmm_cycles(),
        vms: vms
            .iter()
            .map(|&vm| (mon.vm_stats(vm), mon.vm(vm).regs, mon.vm(vm).vtimer))
            .collect(),
        mem_digest: digest(mon.machine().mem()),
    };
    (
        out,
        mon.machine().decode_cache_stats(),
        mon.machine().loop_replay_stats(),
    )
}

/// Runs `case` on all three tiers, asserts they agree, and returns the
/// cache tier's replay statistics. The interpreter never replays; the
/// cache and trans tiers (the latter runs VM guests through the decode
/// cache) must also agree on decode-cache statistics and on what they
/// replayed.
fn assert_poll_tiers_agree(case: &PollCase) -> (PollOutcome, LoopReplayStats) {
    let (oracle, _, interp) = run_poll(case, ExecTier::Interp);
    assert_eq!(
        interp,
        LoopReplayStats::default(),
        "the interpreter replays nothing"
    );
    let (cache, cache_dc, cache_replay) = run_poll(case, ExecTier::Cache);
    let (trans, trans_dc, trans_replay) = run_poll(case, ExecTier::Trans);
    assert_eq!(cache, oracle, "cache diverged from interpreter");
    assert_eq!(trans, oracle, "trans diverged from interpreter");
    assert_eq!(cache_dc, trans_dc, "decode-cache statistics");
    assert_eq!(cache_replay, trans_replay, "loop replay");
    (oracle, cache_replay)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// VM guests polling a word through random read-only loop bodies
    /// (random addressing modes, autoincrement and autodecrement
    /// included) while a KCALL disk completion, the virtual timer, a
    /// world switch or the run's budget ends or interrupts the poll —
    /// often mid-pass. Replay must be invisible.
    #[test]
    fn poll_loops_are_tier_invariant(
        case in (
            2_000u64..40_000,
            500u64..60_000,
            20_000u64..400_000,
            proptest::collection::vec(
                (
                    any::<u8>(),
                    any::<bool>(),
                    proptest::collection::vec(
                        (
                            any::<u8>(),
                            any::<u8>(),
                            (any::<u8>(), any::<u32>()),
                            (any::<u8>(), any::<u32>()),
                        ),
                        0..3,
                    ),
                    any::<u8>(),
                    any::<u8>(),
                    any::<u32>(),
                ),
                1..3,
            ),
        ),
    ) {
        assert_poll_tiers_agree(&case);
    }
}

/// `tstl @#word; beql head` replays on the cache tier through each
/// event that can end or interrupt a poll: a KCALL disk completion, the
/// virtual timer, world switches (two VMs, a short quantum) and the
/// run's budget.
#[test]
fn poll_loops_replay_through_every_vmm_event() {
    let plain = |kind: u8| (kind, false, Vec::new(), 0, 0, 30_000);
    let cases: [(&str, PollCase, RunExit); 4] = [
        (
            "disk",
            (50_000, 30_000, 5_000_000, vec![plain(0)]),
            RunExit::AllHalted,
        ),
        (
            "timer",
            (50_000, 2_000, 5_000_000, vec![plain(1)]),
            RunExit::AllHalted,
        ),
        (
            "world switch",
            (5_000, 60_000, 200_000, vec![plain(0), plain(2)]),
            RunExit::BudgetExhausted,
        ),
        (
            "budget",
            (50_000, 2_000, 123_457, vec![plain(2)]),
            RunExit::BudgetExhausted,
        ),
    ];
    for (what, case, exit) in cases {
        let (out, replay) = assert_poll_tiers_agree(&case);
        assert_eq!(out.exit, exit, "{what}");
        assert!(replay.loop_replays > 0, "{what}: {replay:?}");
        if what == "world switch" {
            assert!(out.world_switches > 4, "{what}: {}", out.world_switches);
        }
    }
}
