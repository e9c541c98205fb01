//! Three-way differential fuzzing of the execution tiers: arbitrary
//! code — valid or garbage — must produce bit-identical architectural
//! state, cycle counts, and counters whether it runs through the
//! bytewise interpreter, the decode cache, or the translated-superblock
//! tier. The interpreter is the oracle; the other tiers must be
//! observationally invisible.

use proptest::prelude::*;
use std::hash::{DefaultHasher, Hash, Hasher};
use vax_arch::{MachineVariant, Protection, Psl, Pte};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent, IO_BASE_PA};
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
