//! Headless simulator-throughput benchmark.
//!
//! Three workloads, one report (`BENCH_sim_throughput.json`):
//!
//! * `compute_loop_imm32` — the decode-cache stress kernel, run bare with
//!   translation off across all three execution tiers (`interp`, `cache`,
//!   `trans`); the report's `exec_tier` section records per-tier
//!   throughput and the translated tier's superblock statistics. No
//!   address translation happens, so its TLB hit rate is reported as
//!   `null`, not a misleading `0.0`.
//! * `mapped_loop` — the same machine with a host-built system page
//!   table and translation on, touching a multi-page buffer so the TLB
//!   actually works for a living and the hit rate is a real number.
//! * `vm_mtpr_ipl` — an MTPR-to-IPL loop run as a guest under the VMM
//!   with exit tracing enabled: reports the VM-exit breakdown and the
//!   measured emulation cost against the bare-machine cost of the same
//!   instruction (the paper's §7.3 "10–12× native" comparison).
//! * `shadow_cache_sweep` — the §7.2 experiment: a context-switch-heavy
//!   multiprogrammed guest at `cache_slots = 1` (the paper's base
//!   system) versus `4`, reporting shadow fill-fault counts and the
//!   reduction ratio (the paper observed ~80% fewer fill faults).
//!
//! Usage: `cargo run --release -p vax-bench --bin sim_throughput [-- --quick]`
//!
//! `--quick` shrinks iteration counts for CI smoke runs.

use std::time::Instant;
use vax_arch::{MachineVariant, Protection, Psl, Pte};
use vax_bench::e10_shadow_cache;
use vax_cpu::{DecodeCacheStats, ExecTier, Machine, StepEvent, TransStats};
use vax_vmm::{ExitCause, Monitor, MonitorConfig, RunExit, VmConfig};

const MAPPED_PAGES: u32 = 16;

/// S-space base virtual address.
const S_BASE: u32 = 0x8000_0000;
/// VAX page size.
const PAGE: u32 = 512;

struct Measurement {
    instrs_per_sec: f64,
    instructions: u64,
    simulated_cycles: u64,
    tlb_hit_rate: Option<f64>,
    cache_stats: DecodeCacheStats,
    trans_stats: TransStats,
}

/// Builds an identity-mapped system page table at `spt_pa` covering
/// `pages` pages and turns translation on, so S-space VA `S_BASE + x`
/// resolves to PA `x` through real single-level translation.
fn enable_identity_s_map(m: &mut Machine, spt_pa: u32, pages: u32) {
    for vpn in 0..pages {
        let pte = Pte::build(vpn, Protection::Kw, true, true);
        m.mem_mut().write_u32(spt_pa + 4 * vpn, pte.raw()).unwrap();
    }
    let mmu = m.mmu_mut();
    mmu.set_sbr(spt_pa);
    mmu.set_slr(pages);
    mmu.set_mapen(true);
}

fn run_once(program: &vax_asm::Program, tier: ExecTier, mapped: bool) -> Measurement {
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.set_exec_tier(tier);
    let load_pa = if mapped {
        program.base - S_BASE
    } else {
        program.base
    };
    m.mem_mut().write_slice(load_pa, &program.bytes).unwrap();
    if mapped {
        // SPT parked at 128 KiB, above everything the workload touches.
        enable_identity_s_map(&mut m, 0x20000, 256);
    }
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(program.base);
    let start = Instant::now();
    while m.step() == StepEvent::Ok {}
    let elapsed = start.elapsed();
    let counters = m.counters();
    Measurement {
        instrs_per_sec: counters.instructions as f64 / elapsed.as_secs_f64(),
        instructions: counters.instructions,
        simulated_cycles: m.cycles(),
        tlb_hit_rate: counters.tlb_hit_rate_opt(),
        cache_stats: m.decode_cache_stats(),
        trans_stats: m.trans_stats(),
    }
}

/// Interleaves runs of every tier so all configurations sample the same
/// host-CPU conditions, returning the best of each in `tiers` order.
fn best_tier_sweep(
    program: &vax_asm::Program,
    n: u32,
    mapped: bool,
    tiers: &[ExecTier],
) -> Vec<Measurement> {
    let mut per_tier: Vec<Vec<Measurement>> = tiers.iter().map(|_| Vec::new()).collect();
    for _ in 0..n {
        for (i, tier) in tiers.iter().enumerate() {
            per_tier[i].push(run_once(program, *tier, mapped));
        }
    }
    per_tier
        .into_iter()
        .map(|ms| {
            ms.into_iter()
                .max_by(|a, b| a.instrs_per_sec.total_cmp(&b.instrs_per_sec))
                .unwrap()
        })
        .collect()
}

/// Simulated cycles a bare (unvirtualized) machine spends on one run of
/// `program` in kernel mode.
fn bare_cycles(program: &vax_asm::Program) -> u64 {
    let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
    m.mem_mut()
        .write_slice(program.base, &program.bytes)
        .unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(program.base);
    while m.step() == StepEvent::Ok {}
    m.cycles()
}

struct VmMtprReport {
    emulation_traps: u64,
    exception_exits: u64,
    interrupt_exits: u64,
    decode_cache_invalidations: u64,
    mtpr_ipl_exits: u64,
    mtpr_ipl_mean_cost: f64,
    mtpr_ipl_p99_cost: u64,
    mtpr_ipl_bare_cost: f64,
    mtpr_ipl_ratio: f64,
}

/// Runs the MTPR-to-IPL loop as a VMM guest with exit tracing on and the
/// same loop (plus its empty-control skeleton) bare, isolating the per-
/// instruction virtualized and native costs.
fn run_vm_mtpr(mtpr_iters: u32) -> VmMtprReport {
    let mtpr_loop = format!(
        "
            movl #{mtpr_iters}, r2
        top:
            mtpr #10, #18
            sobgtr r2, top
            halt
        "
    );
    let skeleton = format!(
        "
            movl #{mtpr_iters}, r2
        top:
            sobgtr r2, top
            halt
        "
    );
    let guest = vax_asm::assemble_text(&mtpr_loop, 0x1000).unwrap();
    let with_mtpr = bare_cycles(&guest);
    let without = bare_cycles(&vax_asm::assemble_text(&skeleton, 0x1000).unwrap());
    let bare_cost = (with_mtpr - without) as f64 / mtpr_iters as f64;

    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.enable_obs(4096);
    let vm = monitor.create_vm("mtpr_bench", VmConfig::default());
    monitor.vm_write_phys(vm, guest.base, &guest.bytes).unwrap();
    monitor.boot_vm(vm, guest.base);
    let exit = monitor.run(500_000_000);
    assert_eq!(exit, RunExit::AllHalted, "guest must halt cleanly");

    let counters = monitor.machine().counters();
    let dc = monitor.machine().decode_cache_stats();
    assert_eq!(
        dc.invalidations, 0,
        "world switches and emulated MTPRs must keep the decode cache"
    );
    let obs = monitor.obs().expect("tracing enabled");
    let h = obs.histogram(ExitCause::EmulMtprIpl);
    assert_eq!(h.count(), mtpr_iters as u64, "every MTPR must trap");
    let mean = h.mean();
    VmMtprReport {
        emulation_traps: counters.vm_emulation_traps,
        exception_exits: counters.vm_exception_exits,
        interrupt_exits: counters.vm_interrupt_exits,
        decode_cache_invalidations: dc.invalidations,
        mtpr_ipl_exits: h.count(),
        mtpr_ipl_mean_cost: mean,
        mtpr_ipl_p99_cost: h.quantile(0.99),
        mtpr_ipl_bare_cost: bare_cost,
        mtpr_ipl_ratio: mean / bare_cost,
    }
}

fn json_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "null".to_string(), |x| format!("{x:.6}"))
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (loop_iters, mapped_outer, mtpr_iters, reps) = if quick {
        (20_000u32, 200u32, 500u32, 2)
    } else {
        (200_000, 2_000, 2_000, 6)
    };

    // A long-immediate compute kernel: three-operand forms with 32-bit
    // immediates are the CISC encodings whose bytewise decode cost the
    // template cache amortizes (6-8 bytes per instruction).
    let compute = vax_asm::assemble_text(
        &format!(
            "
                movl #{loop_iters}, r2
                clrl r3
            top:
                addl3 #0x01010101, r3, r4
                bicl3 #0x0F0F0F0F, r4, r5
                xorl3 #0x55AA55AA, r5, r3
                addl2 #0x12345678, r3
                cmpl #0x11111111, #0x22222222
                sobgtr r2, top
                halt
            "
        ),
        0x1000,
    )
    .unwrap();
    // 6 instructions per iteration + the 2-instruction prologue (HALT
    // does not retire).
    let compute_instructions = loop_iters as u64 * 6 + 2;

    // The same machine with translation ON: walk a multi-page buffer so
    // every reference goes through the TLB.
    let mapped = vax_asm::assemble_text(
        &format!(
            "
                movl #{mapped_outer}, r2
            top:
                movl #{data_base:#x}, r6
                movl #{MAPPED_PAGES}, r7
            inner:
                movl (r6), r8
                addl2 #{PAGE}, r6
                sobgtr r7, inner
                sobgtr r2, top
                halt
            ",
            data_base = S_BASE + 0x8000,
        ),
        S_BASE + 0x1000,
    )
    .unwrap();

    let mut sweep = best_tier_sweep(
        &compute,
        reps,
        false,
        &[ExecTier::Interp, ExecTier::Cache, ExecTier::Trans],
    );
    let trans = sweep.pop().unwrap();
    let on = sweep.pop().unwrap();
    let off = sweep.pop().unwrap();
    for m in [&off, &on, &trans] {
        assert_eq!(
            m.instructions, compute_instructions,
            "workload must retire fully in every tier"
        );
        assert_eq!(
            m.simulated_cycles, on.simulated_cycles,
            "execution tier must not change simulated time"
        );
    }
    assert_eq!(
        on.tlb_hit_rate, None,
        "translation-off run has no TLB traffic"
    );
    assert!(
        trans.trans_stats.blocks_executed > 0,
        "trans tier must actually run superblocks on the compute loop"
    );
    let speedup = on.instrs_per_sec / off.instrs_per_sec;
    let trans_speedup = trans.instrs_per_sec / on.instrs_per_sec;

    let mut msweep = best_tier_sweep(
        &mapped,
        reps,
        true,
        &[ExecTier::Interp, ExecTier::Cache, ExecTier::Trans],
    );
    let mtrans = msweep.pop().unwrap();
    let mon = msweep.pop().unwrap();
    let moff = msweep.pop().unwrap();
    for m in [&moff, &mtrans] {
        assert_eq!(
            m.instructions, mon.instructions,
            "mapped workload must retire fully in every tier"
        );
        assert_eq!(
            m.simulated_cycles, mon.simulated_cycles,
            "execution tier must not change mapped simulated time"
        );
        assert_eq!(
            m.tlb_hit_rate, mon.tlb_hit_rate,
            "execution tier must not change TLB hit/miss counting"
        );
    }
    assert!(
        mtrans.trans_stats.blocks_executed > 0,
        "trans tier must run superblocks on the mapped loop"
    );
    assert!(
        mtrans.trans_stats.chain_hits > 0,
        "mapped loop blocks must chain directly"
    );
    let mapped_rate = mon
        .tlb_hit_rate
        .expect("mapped workload must exercise the TLB");
    let mapped_speedup = mon.instrs_per_sec / moff.instrs_per_sec;
    let mapped_trans_speedup = mtrans.instrs_per_sec / mon.instrs_per_sec;

    let vm = run_vm_mtpr(mtpr_iters);

    // §7.2: the multi-process shadow-table cache. Same context-switch
    // workload, one shadow slot (the paper's base system) vs four.
    let sweep_nproc = 4;
    let slots1 = e10_shadow_cache(sweep_nproc, 1);
    let slots4 = e10_shadow_cache(sweep_nproc, 4);
    let fill_reduction = 1.0 - slots4.fills as f64 / slots1.fills.max(1) as f64;
    assert!(
        fill_reduction > 0.5,
        "§7.2 cache must cut fill faults substantially (got {fill_reduction:.3})"
    );

    println!("sim_throughput: compute loop, {compute_instructions} simulated instructions");
    println!("  decode cache on:  {:>12.0} instrs/sec", on.instrs_per_sec);
    println!(
        "  decode cache off: {:>12.0} instrs/sec",
        off.instrs_per_sec
    );
    println!("  speedup:          {speedup:>12.2}x");
    println!(
        "  translated:       {:>12.0} instrs/sec ({trans_speedup:.2}x vs cache)",
        trans.instrs_per_sec
    );
    println!(
        "  superblocks: {} translated, {} executed, {} uops, {} interrupt / {} bail side exits",
        trans.trans_stats.blocks_translated,
        trans.trans_stats.blocks_executed,
        trans.trans_stats.uops_executed,
        trans.trans_stats.side_exit_interrupt,
        trans.trans_stats.side_exit_bail
    );
    println!(
        "  cache hits/misses/bytewise: {}/{}/{}  tlb hit rate: n/a (translation off)",
        on.cache_stats.hits, on.cache_stats.misses, on.cache_stats.bytewise_fallbacks
    );
    println!("mapped loop, {} simulated instructions", mon.instructions);
    println!(
        "  decode cache on:  {:>12.0} instrs/sec",
        mon.instrs_per_sec
    );
    println!("  speedup:          {mapped_speedup:>12.2}x");
    println!(
        "  translated:       {:>12.0} instrs/sec ({mapped_trans_speedup:.2}x vs cache)",
        mtrans.instrs_per_sec
    );
    println!(
        "  superblocks: {} executed, {} chain follows, {} links severed, \
         side exits: {} tlb-miss / {} prot / {} page-cross / {} smc",
        mtrans.trans_stats.blocks_executed,
        mtrans.trans_stats.chain_hits,
        mtrans.trans_stats.chain_links_severed,
        mtrans.trans_stats.side_exit_tlb_miss,
        mtrans.trans_stats.side_exit_prot,
        mtrans.trans_stats.side_exit_page_cross,
        mtrans.trans_stats.side_exit_smc
    );
    println!("  tlb hit rate:     {mapped_rate:>12.4}");
    println!("vm mtpr-ipl loop, {} exits traced", vm.mtpr_ipl_exits);
    println!(
        "  exits: {} emulation / {} exception / {} interrupt",
        vm.emulation_traps, vm.exception_exits, vm.interrupt_exits
    );
    println!(
        "  mtpr-ipl cost: {:.1} cycles virtualized vs {:.1} bare = {:.1}x",
        vm.mtpr_ipl_mean_cost, vm.mtpr_ipl_bare_cost, vm.mtpr_ipl_ratio
    );
    println!("shadow-cache sweep (§7.2), {sweep_nproc} guest processes");
    println!(
        "  fill faults: {} (1 slot) -> {} ({} slots), reduction {:.1}%",
        slots1.fills,
        slots4.fills,
        slots4.slots,
        100.0 * fill_reduction
    );

    let json = format!(
        "{{\n  \"workload\": \"compute_loop_imm32\",\n  \"simulated_instructions\": {},\n  \
         \"simulated_cycles\": {},\n  \
         \"instrs_per_sec_cache_on\": {:.0},\n  \"instrs_per_sec_cache_off\": {:.0},\n  \
         \"speedup\": {:.3},\n  \
         \"decode_cache_hits\": {},\n  \"decode_cache_misses\": {},\n  \
         \"decode_cache_bytewise_fallbacks\": {},\n  \
         \"tlb_hit_rate\": {},\n  \
         \"exec_tier\": {{\n    \"interp\": {{ \"instrs_per_sec\": {:.0} }},\n    \
         \"cache\": {{ \"instrs_per_sec\": {:.0} }},\n    \
         \"trans\": {{\n      \"instrs_per_sec\": {:.0},\n      \
         \"speedup_vs_cache\": {:.3},\n      \"blocks_translated\": {},\n      \
         \"blocks_executed\": {},\n      \"uops_executed\": {},\n      \
         \"side_exit_interrupt\": {},\n      \"side_exit_bail\": {}\n    }}\n  }},\n  \
         \"mapped_loop\": {{\n    \"simulated_instructions\": {},\n    \
         \"simulated_cycles\": {},\n    \"instrs_per_sec_cache_on\": {:.0},\n    \
         \"speedup\": {:.3},\n    \"tlb_hit_rate\": {},\n    \
         \"exec_tier\": {{\n      \"interp\": {{ \"instrs_per_sec\": {:.0} }},\n      \
         \"cache\": {{ \"instrs_per_sec\": {:.0} }},\n      \
         \"trans\": {{\n        \"instrs_per_sec\": {:.0},\n        \
         \"speedup_vs_cache\": {:.3},\n        \"blocks_executed\": {},\n        \
         \"chain_hits\": {},\n        \"chain_links_severed\": {},\n        \
         \"side_exit_tlb_miss\": {},\n        \"side_exit_smc\": {}\n      }}\n    }}\n  }},\n  \
         \"vm_mtpr_ipl\": {{\n    \"vm_exits\": {{\n      \"emulation_traps\": {},\n      \
         \"exception_exits\": {},\n      \"interrupt_exits\": {}\n    }},\n    \
         \"decode_cache_invalidations\": {},\n    \"mtpr_ipl_exits\": {},\n    \
         \"mtpr_ipl_mean_cost_cycles\": {:.2},\n    \"mtpr_ipl_p99_cost_cycles\": {},\n    \
         \"mtpr_ipl_bare_cost_cycles\": {:.2},\n    \"mtpr_ipl_ratio\": {:.2}\n  }},\n  \
         \"shadow_cache_sweep\": {{\n    \"nproc\": {sweep_nproc},\n    \
         \"slots_1_fills\": {},\n    \"slots_4_fills\": {},\n    \
         \"slots_4_cache_hits\": {},\n    \"fill_fault_reduction\": {:.4}\n  }}\n}}\n",
        compute_instructions,
        on.simulated_cycles,
        on.instrs_per_sec,
        off.instrs_per_sec,
        speedup,
        on.cache_stats.hits,
        on.cache_stats.misses,
        on.cache_stats.bytewise_fallbacks,
        json_opt(on.tlb_hit_rate),
        off.instrs_per_sec,
        on.instrs_per_sec,
        trans.instrs_per_sec,
        trans_speedup,
        trans.trans_stats.blocks_translated,
        trans.trans_stats.blocks_executed,
        trans.trans_stats.uops_executed,
        trans.trans_stats.side_exit_interrupt,
        trans.trans_stats.side_exit_bail,
        mon.instructions,
        mon.simulated_cycles,
        mon.instrs_per_sec,
        mapped_speedup,
        json_opt(mon.tlb_hit_rate),
        moff.instrs_per_sec,
        mon.instrs_per_sec,
        mtrans.instrs_per_sec,
        mapped_trans_speedup,
        mtrans.trans_stats.blocks_executed,
        mtrans.trans_stats.chain_hits,
        mtrans.trans_stats.chain_links_severed,
        mtrans.trans_stats.side_exit_tlb_miss,
        mtrans.trans_stats.side_exit_smc,
        vm.emulation_traps,
        vm.exception_exits,
        vm.interrupt_exits,
        vm.decode_cache_invalidations,
        vm.mtpr_ipl_exits,
        vm.mtpr_ipl_mean_cost,
        vm.mtpr_ipl_p99_cost,
        vm.mtpr_ipl_bare_cost,
        vm.mtpr_ipl_ratio,
        slots1.fills,
        slots4.fills,
        slots4.hits,
        fill_reduction,
    );
    std::fs::write("BENCH_sim_throughput.json", json).expect("write BENCH_sim_throughput.json");
    println!("wrote BENCH_sim_throughput.json");
}
