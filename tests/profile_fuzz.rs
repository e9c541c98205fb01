//! Observability non-perturbation fuzzing: switching the sink on
//! (exit tracing, `vax-prof` sampling + a reset of its working-set view,
//! the PC window) must leave the simulation bit-identical — same
//! registers, PSL, cycle count, and counters — for arbitrary code, valid
//! or garbage, under every execution tier. The sink only reads the
//! simulated clock and PC; these tests are the enforcement.

use proptest::prelude::*;
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent};
use vax_vmm::{Monitor, MonitorConfig, ObsSink, VmConfig, VmStats};

/// Everything a bare machine can reveal after a bounded run.
#[derive(Debug, PartialEq)]
struct BareOutcome {
    regs: [u32; 16],
    psl_raw: u32,
    cycles: u64,
    counters: CpuCounters,
    halted: bool,
}

/// Runs `code` at 0x1000 on a bare machine under `tier`, optionally
/// with the sink on at an aggressive sample interval (so short fuzz
/// runs still cross plenty of sample boundaries).
fn run_bare(code: &[u8], tier: ExecTier, profile: bool, max_steps: u32) -> BareOutcome {
    let mut m = Machine::new(MachineVariant::Modified, 256 * 1024);
    m.set_exec_tier(tier);
    if profile {
        m.set_obs(ObsSink::on(64, 16));
    }
    m.mem_mut().write_slice(0x1000, code).unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(0x1000);
    for _ in 0..max_steps {
        match m.step() {
            StepEvent::Ok => {}
            _ => break,
        }
    }
    if profile {
        assert!(m.obs().is_some(), "the sink must stay on through the run");
    }
    BareOutcome {
        regs: std::array::from_fn(|i| m.reg(i)),
        psl_raw: m.psl().raw(),
        cycles: m.cycles(),
        counters: m.counters(),
        halted: m.halted(),
    }
}

/// Runs `code` as a monitor guest (the monitor_fuzz corpus shape) under
/// `tier`, optionally observed, returning the guest-visible end state.
fn run_guest(
    code: &[u8],
    scb_junk: u32,
    tier: ExecTier,
    profile: bool,
) -> ([u32; 16], VmStats, Vec<u8>) {
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.set_exec_tier(tier);
    if profile {
        mon.enable_obs(64);
    }
    let vm = mon.create_vm("fuzz", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, code).unwrap();
    for off in (0..0x140u32).step_by(4) {
        mon.vm_write_phys(vm, 0x200 + off, &scb_junk.to_le_bytes())
            .unwrap();
    }
    mon.boot_vm(vm, 0x1000);
    mon.run(2_000_000);
    let out = mon.vm_console_output(vm);
    (mon.vm(vm).regs, mon.vm_stats(vm), out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bare machine: the profiled run of every tier must match the
    /// unprofiled run of the same tier bit for bit.
    #[test]
    fn profiling_is_invisible_bare(
        code in proptest::collection::vec(any::<u8>(), 1..512),
    ) {
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            let plain = run_bare(&code, tier, false, 50_000);
            let profiled = run_bare(&code, tier, true, 50_000);
            prop_assert_eq!(&profiled, &plain, "{:?} perturbed by profiling", tier);
        }
    }

    /// Monitor guest: profiling the monitor (sampling, working-set view
    /// + per-superblock stats) must not change guest-visible outcomes.
    #[test]
    fn profiling_is_invisible_in_monitor(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        scb_junk in any::<u32>(),
    ) {
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            let plain = run_guest(&code, scb_junk, tier, false);
            let profiled = run_guest(&code, scb_junk, tier, true);
            prop_assert_eq!(&profiled, &plain, "{:?} perturbed by profiling", tier);
        }
    }
}

/// The profiler's attribution must tile the profiled portion of the run:
/// per-tier attributed cycles sum to exactly the span between the first
/// and last sample boundaries (no cycle double-counted or lost), and the
/// exact retire counts sum to the machine's instruction count.
#[test]
fn attribution_tiles_the_run() {
    let program = vax_asm::assemble_text(
        "
            movl #5000, r0
            clrl r1
        top: addl2 r0, r1
            sobgtr r0, top
            halt
    ",
        0x1000,
    )
    .unwrap();
    for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
        let mut m = Machine::new(MachineVariant::Modified, 256 * 1024);
        m.set_exec_tier(tier);
        m.set_obs(ObsSink::on(64, 64));
        m.mem_mut().write_slice(0x1000, &program.bytes).unwrap();
        let mut psl = Psl::new();
        psl.set_ipl(31);
        m.set_psl(psl);
        m.set_reg(14, 0x8000);
        m.set_pc(0x1000);
        while m.step() == StepEvent::Ok {}
        let prof = m.obs().expect("the sink is on").prof();
        assert!(prof.samples() > 10, "{tier:?}: loop must cross samples");
        // Attributed cycles = sum over buckets + overflow, and both
        // equal the clock span covered by samples.
        let bucket_sum: u64 = prof.pc_buckets().iter().map(|b| b.cycles).sum();
        assert_eq!(
            bucket_sum + prof.overflow_cycles(),
            prof.attributed_total(),
            "{tier:?}: buckets must tile the attributed span"
        );
        assert!(
            prof.attributed_total() <= m.cycles(),
            "{tier:?}: cannot attribute more than the machine ran"
        );
        let retired: u64 = vax_vmm::ProfTier::ALL
            .iter()
            .map(|&t| prof.retired(t))
            .sum();
        assert_eq!(
            retired,
            m.counters().instructions,
            "{tier:?}: exact retire counts must match the instruction counter"
        );
    }
}
