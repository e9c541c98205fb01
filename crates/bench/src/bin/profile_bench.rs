//! Headless profiler benchmark (DESIGN.md §15): the observability
//! sink's overhead on the compute loop, the non-perturbation contract,
//! the dirty-page oracle, and a sample profile artifact — each asserted
//! inline.
//!
//! * **Overhead**: the compute-loop guest runs with the sink (exit
//!   tracing, sampling profiler, PC window) off and on, interleaved,
//!   best-of-N wall time each. The simulated outcome
//!   (cycles, counters, guest registers, console bytes) must be
//!   bit-identical; the host-side slowdown must stay under 5%.
//! * **Dirty oracle**: for each exec tier the profiler's view of
//!   written pages must exactly equal the copy-on-write residency
//!   oracle — an independent record of written pages, since overlay
//!   pages materialize on (and only on) writes.
//! * **Artifact**: a collapsed-stack profile of the compute guest is
//!   written for flamegraph tools, plus a bare-machine superblock run
//!   so the translation tier shows up in the JSON.
//!
//! Usage: `cargo run --release -p vax-bench --bin profile_bench [-- --quick]`
//!
//! Writes `BENCH_profile.json` and `BENCH_profile_collapsed.txt`.

use std::time::Instant;
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{ExecTier, Machine, StepEvent};
use vax_os::{boot_in_monitor, build_image, GuestImage, OsConfig, Workload};
use vax_vmm::{Monitor, MonitorConfig, ObsSink, RunExit, VmConfig, DEFAULT_SAMPLE_INTERVAL};

/// Cycle budget that lets every guest in this file halt.
const BUDGET: u64 = 64_000_000_000;

/// Event-ring capacity while the sink is on.
const RING: usize = 4096;

struct Scale {
    iterations: u32,
    reps: u32,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                iterations: 400,
                reps: 3,
            }
        } else {
            Scale {
                iterations: 20_000,
                reps: 10,
            }
        }
    }
}

/// Everything the simulation produced — what must not change when
/// the sink is switched on.
#[derive(PartialEq)]
struct Outcome {
    cycles: u64,
    counters: vax_cpu::CpuCounters,
    regs: [u32; 16],
    console: Vec<u8>,
}

/// Boots the image, optionally switches the sink on, runs to halt,
/// and returns (wall seconds, outcome, the finished monitor).
fn run_guest(image: &GuestImage, tier: ExecTier, obs: bool) -> (f64, Outcome, Monitor) {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.set_exec_tier(tier);
    let vm = boot_in_monitor(&mut monitor, image, VmConfig::default());
    if obs {
        monitor.enable_obs(RING);
    }
    let t = Instant::now();
    let exit = monitor.run(BUDGET);
    let wall = t.elapsed().as_secs_f64();
    assert_eq!(exit, RunExit::AllHalted, "guest must halt within budget");
    let outcome = Outcome {
        cycles: monitor.machine().cycles(),
        counters: monitor.machine().counters(),
        regs: monitor.vm(vm).regs,
        console: monitor.vm_console_output(vm),
    };
    (wall, outcome, monitor)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = Scale::new(quick);
    println!(
        "profile_bench{}: compute guest, {} iterations, sample interval {}",
        if quick { " (quick)" } else { "" },
        scale.iterations,
        DEFAULT_SAMPLE_INTERVAL
    );

    let image = build_image(&OsConfig {
        nproc: 2,
        workload: Workload::Compute,
        iterations: scale.iterations,
        ..OsConfig::default()
    })
    .expect("guest image builds");

    // --- sampling overhead + non-perturbation ---------------------
    // Each rep runs off then on back to back, so the pair shares host
    // thermal/frequency state; the median of the per-rep ratios is the
    // drift-robust overhead statistic.
    let mut off_best = f64::INFINITY;
    let mut on_best = f64::INFINITY;
    let mut ratios = Vec::new();
    let mut baseline = None;
    for _ in 0..scale.reps {
        let (off_s, off_out, _) = run_guest(&image, ExecTier::default(), false);
        let (on_s, on_out, _) = run_guest(&image, ExecTier::default(), true);
        assert!(
            off_out == on_out,
            "the sink must not perturb the simulation (cycles {} vs {})",
            off_out.cycles,
            on_out.cycles
        );
        off_best = off_best.min(off_s);
        on_best = on_best.min(on_s);
        ratios.push(on_s / off_s);
        baseline = Some(off_out);
    }
    let baseline = baseline.expect("at least one rep");
    ratios.sort_by(f64::total_cmp);
    let overhead = ratios[ratios.len() / 2] - 1.0;
    println!(
        "  overhead: off {:.1} ms, on {:.1} ms, {:+.2}% ({} cycles, bit-identical: yes)",
        1e3 * off_best,
        1e3 * on_best,
        100.0 * overhead,
        baseline.cycles
    );
    if !quick {
        assert!(
            overhead < 0.05,
            "the sink's overhead must stay under 5%, got {:.2}%",
            100.0 * overhead
        );
    }

    // --- dirty-page oracle per exec tier --------------------------
    // Run A reads the profiler's touched view (reset when the sink is
    // switched on); run B forks the machine memory at the same point
    // (discarding the child) so every subsequent write materializes an
    // overlay page — an independent exact record.
    let mut oracle_json = Vec::new();
    for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
        let (_, _, monitor) = run_guest(&image, tier, true);
        let dirty = monitor.machine().mem().touched_pages();

        let mut oracle = Monitor::new(MonitorConfig::default());
        oracle.set_exec_tier(tier);
        boot_in_monitor(&mut oracle, &image, VmConfig::default());
        drop(oracle.machine_mut().fork_mem());
        assert_eq!(oracle.run(BUDGET), RunExit::AllHalted);
        let resident = oracle.machine().mem().resident_page_numbers();

        assert_eq!(
            dirty,
            resident,
            "tier {}: touched set must equal the CoW residency oracle",
            tier.name()
        );
        println!(
            "  dirty oracle: tier {:<7} {} pages, exact match: yes",
            tier.name(),
            dirty.len()
        );
        oracle_json.push(format!(
            "\"{}\": {{\"pages\": {}, \"match\": true}}",
            tier.name(),
            dirty.len()
        ));
    }

    // --- sample artifact + superblock coverage --------------------
    let (_, _, monitor) = run_guest(&image, ExecTier::default(), true);
    let prof = monitor.obs().expect("the sink was on").prof();
    let collapsed = prof.collapsed_stack();
    std::fs::write("BENCH_profile_collapsed.txt", &collapsed)
        .expect("write BENCH_profile_collapsed.txt");
    let samples = prof.samples();
    let pages = prof.page_buckets().len();

    // Mapped guests pin the translation tier off, so exercise it on a
    // bare machine to get a superblock table into the report.
    let program = vax_asm::assemble_text(
        "
            movl #20000, r0
            clrl r1
        top: addl2 r0, r1
            sobgtr r0, top
            halt
    ",
        0x1000,
    )
    .expect("bare loop assembles");
    let mut m = Machine::new(MachineVariant::Modified, 256 * 1024);
    m.set_exec_tier(ExecTier::Trans);
    m.set_obs(ObsSink::on(RING, DEFAULT_SAMPLE_INTERVAL));
    m.mem_mut()
        .write_slice(program.base, &program.bytes)
        .expect("program fits");
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(program.base);
    while m.step() == StepEvent::Ok {}
    let blocks = m.obs().expect("the sink is on").prof().superblocks();
    assert!(
        !blocks.is_empty(),
        "the bare trans loop must produce superblock profiles"
    );
    let top = blocks[0];
    println!(
        "  superblocks: {} profiled, hottest {:#010x} ({} execs, {} cycles)",
        blocks.len(),
        top.entry_pa,
        top.executions,
        top.cycles_retired
    );
    println!(
        "  profile: {} samples over {} pages, collapsed stack {} bytes",
        samples,
        pages,
        collapsed.len()
    );

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \
         \"overhead\": {{\"off_secs\": {off_best:.9}, \"on_secs\": {on_best:.9}, \
         \"ratio\": {overhead:.6}, \"target\": 0.05, \"bit_identical\": true}},\n  \
         \"dirty_oracle\": {{{}}},\n  \
         \"profile\": {{\"samples\": {samples}, \"pages\": {pages}, \
         \"sample_interval\": {DEFAULT_SAMPLE_INTERVAL}}},\n  \
         \"superblocks\": {{\"profiled\": {}, \"hottest_entry\": {}, \
         \"hottest_cycles\": {}}}\n}}\n",
        oracle_json.join(", "),
        blocks.len(),
        top.entry_pa,
        top.cycles_retired,
    );
    std::fs::write("BENCH_profile.json", json).expect("write BENCH_profile.json");
    println!("wrote BENCH_profile.json, BENCH_profile_collapsed.txt");
}
