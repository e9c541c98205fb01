//! Observability contract tests: switching the sink on must be
//! invisible to the simulation (bit-identical cycles and counters), the
//! per-cause histograms must reproduce the paper's §7.3 claim that
//! MTPR-to-IPL is an order of magnitude more expensive virtualized, and
//! one ring must hold exits and superblock events without mixing them up.

use vax_arch::{MachineVariant, Protection, Psl, Pte};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent};
use vax_vmm::{
    ExitCause, Fleet, IoStrategy, Monitor, MonitorConfig, ObsSink, RunExit, TraceEvent, VmConfig,
    DEFAULT_SAMPLE_INTERVAL, GUEST_IO_GPFN_BASE,
};

/// A guest kernel that exercises several exit causes: MTPR-to-IPL (the
/// §7.3 hot path), MTPR-to-TXDB (other-register emulation), and a final
/// HALT to the virtual console.
const GUEST: &str = "
        movl #500, r2
    top:
        mtpr #10, #18
        mtpr #4, #18
        sobgtr r2, top
        mtpr #65, #35
        halt
    ";

fn run_guest(obs: bool) -> (Monitor, u64, CpuCounters) {
    let program = vax_asm::assemble_text(GUEST, 0x1000).unwrap();
    let mut monitor = Monitor::new(MonitorConfig::default());
    if obs {
        monitor.enable_obs(256);
    }
    let vm = monitor.create_vm("guest", VmConfig::default());
    monitor
        .vm_write_phys(vm, program.base, &program.bytes)
        .unwrap();
    monitor.boot_vm(vm, program.base);
    let exit = monitor.run(500_000_000);
    assert_eq!(exit, RunExit::AllHalted);
    let cycles = monitor.machine().cycles();
    let counters = monitor.machine().counters();
    (monitor, cycles, counters)
}

#[test]
fn obs_never_perturbs_cycles_or_counters() {
    let (_, cycles_off, counters_off) = run_guest(false);
    let (monitor, cycles_on, counters_on) = run_guest(true);
    assert_eq!(cycles_on, cycles_off, "tracing changed simulated time");
    assert_eq!(counters_on, counters_off, "tracing changed counters");
    // And tracing actually collected something.
    let obs = monitor.obs().expect("tracing enabled");
    assert!(obs.total_exits() > 0);
    assert_eq!(obs.exits(ExitCause::EmulMtprIpl), 1000);
}

#[test]
fn obs_off_by_default_and_discarded_on_disable() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    assert!(monitor.obs().is_none(), "tracing must be off by default");
    monitor.enable_obs(16);
    assert!(monitor.obs().is_some());
    monitor.disable_obs();
    assert!(monitor.obs().is_none());
}

/// Bare-machine cycles for one run of `src` in kernel mode.
fn bare_cycles(src: &str) -> u64 {
    let program = vax_asm::assemble_text(src, 0x1000).unwrap();
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

#[test]
fn mtpr_ipl_costs_at_least_ten_times_native() {
    let (monitor, _, _) = run_guest(true);
    let obs = monitor.obs().unwrap();
    let h = obs.histogram(ExitCause::EmulMtprIpl);
    assert_eq!(h.count(), 1000);

    // Native cost of one MTPR-to-IPL, isolated by differencing the loop
    // against its empty control skeleton.
    let with_mtpr = bare_cycles(
        "
            movl #1000, r2
        top:
            mtpr #10, #18
            sobgtr r2, top
            halt
        ",
    );
    let without = bare_cycles(
        "
            movl #1000, r2
        top:
            sobgtr r2, top
            halt
        ",
    );
    let native = (with_mtpr - without) as f64 / 1000.0;
    let ratio = h.mean() / native;
    assert!(
        ratio >= 10.0,
        "virtualized MTPR-to-IPL {} cycles vs native {native} = {ratio:.1}x, expected >= 10x",
        h.mean()
    );
}

#[test]
fn exit_trace_records_are_coherent() {
    let (monitor, _, _) = run_guest(true);
    let obs = monitor.obs().unwrap();
    let ring = obs.trace();
    assert!(!ring.is_empty());
    let mut last_start = 0;
    for rec in ring.iter() {
        assert!(rec.start_cycles >= last_start, "trace must be time-ordered");
        last_start = rec.start_cycles;
        if let TraceEvent::Exit {
            cause: ExitCause::EmulMtprIpl,
            ..
        } = rec.event
        {
            assert!(rec.cost_cycles > 0, "completed exits carry their cost");
        }
    }
}

/// A store to a page holding cached code posts a self-modifying-code
/// drain, a superblock event, at the next decode. The one decode inside
/// an exit is the emulated-MMIO single step: here a MOVC3 copies into
/// its own code page, then faults on a source byte in the guest's
/// device window, and the single step that re-executes it drains the
/// page while the MMIO exit is still pending. In a one-record ring that
/// event overwrites the exit's record: the exit must still be counted,
/// and its cost must not land on the event. The guest runs in short
/// slices, and the ring is read after each.
#[test]
fn pending_exit_survives_an_event_overwriting_its_record() {
    let program = vax_asm::assemble_text(
        "
            mtpr #0x4000, #12       ; SBR (guest-physical)
            mtpr #64, #13           ; SLR
            mtpr #0x80004800, #8    ; P0BR (S va)
            mtpr #64, #9            ; P0LR
            mtpr #1, #56            ; MAPEN on
        top:
            movc3 #8, @#0x5ffc, @#0x1180
            brb top
        ",
        0x1000,
    )
    .unwrap();
    let run = |ring_capacity: usize| {
        let mut monitor = Monitor::new(MonitorConfig::default());
        monitor.enable_obs(ring_capacity);
        let vm = monitor.create_vm(
            "mmio",
            VmConfig {
                io_strategy: IoStrategy::EmulatedMmio,
                ..VmConfig::default()
            },
        );
        // Identity S and P0 tables (64 pages each), with P0 page 0x30
        // (VA 0x6000) mapping the device window.
        for i in 0..64u32 {
            let p0_pfn = if i == 0x30 { GUEST_IO_GPFN_BASE } else { i };
            for (table, pfn) in [(0x4000, i), (0x4800, p0_pfn)] {
                let pte = Pte::build(pfn, Protection::Uw, true, true);
                monitor
                    .vm_write_phys(vm, table + 4 * i, &pte.raw().to_le_bytes())
                    .unwrap();
            }
        }
        monitor
            .vm_write_phys(vm, program.base, &program.bytes)
            .unwrap();
        monitor.boot_vm(vm, program.base);
        let mut events = 0;
        for _ in 0..2000 {
            assert_eq!(monitor.run(50), RunExit::BudgetExhausted);
            for rec in monitor.obs().unwrap().trace().iter() {
                if let TraceEvent::Superblock { .. } = rec.event {
                    events += 1;
                    assert_eq!(rec.cost_cycles, 0, "an event carries no exit cost: {rec:?}");
                }
            }
        }
        assert!(events > 0, "cap {ring_capacity}: the stores log drains");
        monitor
    };
    let (one, deep) = (run(1), run(4096));
    let (one, deep) = (one.obs().unwrap(), deep.obs().unwrap());
    assert!(deep.exits(ExitCause::MmioEmulation) > 100, "the loop traps");
    // In the deep ring the drain follows its exit's record and falls
    // inside the exit's span.
    let records: Vec<_> = deep.trace().iter().collect();
    assert!(
        records.windows(2).any(|w| matches!(
            (w[0].event, w[1].event),
            (
                TraceEvent::Exit {
                    cause: ExitCause::MmioEmulation,
                    ..
                },
                TraceEvent::Superblock { .. },
            ) if w[1].start_cycles < w[0].start_cycles + w[0].cost_cycles
        )),
        "a drain is logged while an MMIO exit is pending"
    );
    for cause in ExitCause::ALL {
        let (a, b) = (one.histogram(cause), deep.histogram(cause));
        assert_eq!(
            (a.count(), a.sum(), a.max()),
            (b.count(), b.sum(), b.max()),
            "{cause:?}: the histograms must not depend on the ring's depth"
        );
    }
    assert_eq!(one.trace().total(), deep.trace().total());
}

#[test]
fn metrics_exposition_covers_counters_and_histograms() {
    let (monitor, cycles, counters) = run_guest(true);
    let m = monitor.metrics();
    assert_eq!(m.get_counter("cycles"), Some(cycles));
    assert_eq!(m.get_counter("instructions"), Some(counters.instructions));
    assert_eq!(m.get_counter("vm_exits"), Some(counters.vm_exits()));

    let json = m.to_json();
    assert!(json.contains("\"vm_emulation_traps\""), "{json}");
    assert!(json.contains("\"exit_cost_emul_mtpr_ipl\""), "{json}");
    // The guest never enables translation, so the real TLB is exercised
    // through the shadow tables; the gauge must be honest either way —
    // a number when there were lookups, null when there were none.
    assert!(
        json.contains("\"tlb_hit_rate\": null") || json.contains("\"tlb_hit_rate\": 0."),
        "{json}"
    );
    assert_eq!(json.matches('{').count(), json.matches('}').count());

    let prom = m.to_prometheus();
    assert!(prom.contains("# TYPE vax_instructions counter"), "{prom}");
    assert!(
        prom.contains("vax_exit_cost_emul_mtpr_ipl_count 1000"),
        "{prom}"
    );
    assert!(prom.contains("_bucket{le=\"+Inf\"}"), "{prom}");
    // The exec tier is a level: one family typed gauge, 1 on the tier in
    // effect (the default, cache) and 0 on the others.
    assert_eq!(
        prom.matches("# TYPE vax_exec_tier gauge\n").count(),
        1,
        "{prom}"
    );
    for (tier, level) in [("interp", 0), ("cache", 1), ("trans", 0)] {
        let sample = format!("vax_exec_tier{{tier=\"{tier}\"}} {level}\n");
        assert!(prom.contains(&sample), "{prom}");
    }

    let trace = vax_vmm::chrome_trace(monitor.obs().unwrap().trace().iter());
    assert!(trace.contains("\"traceEvents\""));
    assert!(trace.contains("emul_mtpr_ipl"));
}

/// The guest's loop never gets hot enough to translate, so a trans-tier
/// run reports every trans counter at zero, exactly like a cache run:
/// only the `exec_tier` gauge tells the two apart. A fleet reports how
/// many members run each tier.
#[test]
fn exec_tier_gauge_names_the_tier_that_ran() {
    let program = vax_asm::assemble_text(GUEST, 0x1000).unwrap();
    let run = |tier: ExecTier| {
        let mut monitor = Monitor::new(MonitorConfig::default());
        monitor.set_exec_tier(tier);
        let vm = monitor.create_vm("guest", VmConfig::default());
        monitor
            .vm_write_phys(vm, program.base, &program.bytes)
            .unwrap();
        monitor.boot_vm(vm, program.base);
        assert_eq!(monitor.run(500_000_000), RunExit::AllHalted);
        monitor
    };
    let mut fleet = Fleet::new();
    for tier in [ExecTier::Trans, ExecTier::Cache, ExecTier::Trans] {
        let monitor = run(tier);
        let m = monitor.metrics();
        assert_eq!(m.get_counter("trans_blocks_executed"), Some(0));
        for t in ExecTier::ALL {
            let want = if t == tier { 1.0 } else { 0.0 };
            assert_eq!(
                m.get_labeled_gauge("exec_tier", "tier", t.name()),
                Some(want)
            );
        }
        fleet.push(monitor);
    }
    let agg = fleet.fleet_metrics();
    for (tier, members) in [("interp", 0.0), ("cache", 1.0), ("trans", 2.0)] {
        assert_eq!(
            agg.get_labeled_gauge("exec_tier", "tier", tier),
            Some(members)
        );
    }
    let prom = agg.to_prometheus();
    assert!(prom.contains("# TYPE vax_exec_tier gauge\n"), "{prom}");
    assert!(prom.contains("vax_exec_tier{tier=\"trans\"} 2\n"), "{prom}");
}

/// Fixed-point loop replay exports two counters. An E8 job (MiniVMS
/// EditTrans in two VMs, whose KCALL start-I/O path polls its
/// completion word) replays a large share of its instructions on the
/// cache tier and none on the interpreter, which never replays; both
/// tiers agree on cycles and counters, and a fleet sums the counters.
#[test]
fn loop_replay_counters_read_the_tier() {
    let image = vax_os::build_image(&vax_os::OsConfig {
        nproc: 6,
        workload: vax_os::Workload::EditTrans,
        iterations: 300,
        quantum_ticks: 3,
        tick_cycles: 2500,
        ..vax_os::OsConfig::default()
    })
    .unwrap();
    let run = |tier: ExecTier| {
        let mut monitor = Monitor::new(MonitorConfig::default());
        monitor.set_exec_tier(tier);
        for _ in 0..2 {
            vax_os::boot_in_monitor(&mut monitor, &image, VmConfig::default());
        }
        assert_eq!(monitor.run(2_000_000_000), RunExit::AllHalted);
        monitor
    };
    let (interp, cache) = (run(ExecTier::Interp), run(ExecTier::Cache));
    assert_eq!(interp.machine().cycles(), cache.machine().cycles());
    assert_eq!(interp.machine().counters(), cache.machine().counters());
    let (mi, mc) = (interp.metrics(), cache.metrics());
    for name in ["loop_replays", "loop_replayed_instructions"] {
        assert_eq!(mi.get_counter(name), Some(0), "{name} on interp");
        assert!(mc.get_counter(name).unwrap() > 0, "{name} on cache");
        let prom = mc.to_prometheus();
        assert!(
            prom.contains(&format!("# TYPE vax_{name} counter\n")),
            "{prom}"
        );
    }
    let replayed = mc.get_counter("loop_replayed_instructions").unwrap();
    let retired = mc.get_counter("instructions").unwrap();
    assert!(replayed * 5 > retired, "{replayed} of {retired} replayed");
    let mut fleet = Fleet::new();
    fleet.push(interp);
    fleet.push(cache);
    let agg = fleet.fleet_metrics();
    assert_eq!(
        agg.get_counter("loop_replayed_instructions"),
        Some(replayed)
    );
}

/// Cache storage is a level per cache, allocated as code first runs: a
/// fresh fork holds none, a VM guest on the default cache tier fills
/// only the decode cache (VM mode never translates), and a hot bare loop
/// on the trans tier fills the translation cache.
#[test]
fn code_cache_resident_bytes_follow_the_code_that_ran() {
    let resident = |m: &vax_vmm::Metrics, cache: &str| {
        m.get_labeled_gauge("code_cache_resident_bytes", "cache", cache)
            .expect("exported per cache")
    };
    let program = vax_asm::assemble_text(GUEST, 0x1000).unwrap();
    let mut parent = Monitor::new(MonitorConfig::default());
    let vm = parent.create_vm("guest", VmConfig::default());
    let mut child = vax_snap::fork_monitor(&mut parent, 1)
        .expect("fork")
        .remove(0);
    let m = child.metrics();
    assert_eq!(resident(&m, "decode"), 0.0);
    assert_eq!(resident(&m, "trans"), 0.0);
    let prom = m.to_prometheus();
    assert_eq!(
        prom.matches("# TYPE vax_code_cache_resident_bytes gauge\n")
            .count(),
        1,
        "{prom}"
    );
    assert!(
        prom.contains("vax_code_cache_resident_bytes{cache=\"decode\"} 0\n"),
        "{prom}"
    );

    child
        .vm_write_phys(vm, program.base, &program.bytes)
        .unwrap();
    child.boot_vm(vm, program.base);
    assert_eq!(child.run(500_000_000), RunExit::AllHalted);
    let m = child.metrics();
    assert!(resident(&m, "decode") > 0.0);
    assert_eq!(resident(&m, "trans"), 0.0);

    let hot = "
            movl #2000, r0
        top:
            addl2 r0, r1
            sobgtr r0, top
            halt
        ";
    let program = vax_asm::assemble_text(hot, 0x1000).unwrap();
    let mut bare = Machine::new(MachineVariant::Standard, 64 * 1024);
    bare.set_exec_tier(ExecTier::Trans);
    bare.mem_mut()
        .write_slice(program.base, &program.bytes)
        .unwrap();
    bare.set_pc(program.base);
    while bare.step() == StepEvent::Ok {}
    let m = bare.metrics();
    assert!(m.get_counter("trans_blocks_executed").unwrap() > 0);
    assert!(resident(&m, "trans") > 0.0);
}

/// Like [`run_guest`] with the sink sampling densely; the simulation
/// outcome must match the unobserved runs bit for bit.
fn run_guest_profiled() -> (Monitor, u64, CpuCounters) {
    let program = vax_asm::assemble_text(GUEST, 0x1000).unwrap();
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.machine_mut().set_obs(ObsSink::on(256, 64));
    let vm = monitor.create_vm("guest", VmConfig::default());
    monitor
        .vm_write_phys(vm, program.base, &program.bytes)
        .unwrap();
    monitor.boot_vm(vm, program.base);
    let exit = monitor.run(500_000_000);
    assert_eq!(exit, RunExit::AllHalted);
    let cycles = monitor.machine().cycles();
    let counters = monitor.machine().counters();
    (monitor, cycles, counters)
}

#[test]
fn profiling_never_perturbs_cycles_or_counters() {
    let (_, cycles_off, counters_off) = run_guest(false);
    let (monitor, cycles_on, counters_on) = run_guest_profiled();
    assert_eq!(cycles_on, cycles_off, "profiling changed simulated time");
    assert_eq!(counters_on, counters_off, "profiling changed counters");
    let prof = monitor.obs().expect("the sink is on").prof();
    assert!(prof.samples() > 0, "the run must cross sample boundaries");
    assert!(prof.attributed_total() > 0);
}

/// Profiling rides the one switch: on at the default interval with
/// tracing, and its families gone with everything else when off.
#[test]
fn profiling_off_by_default_and_discarded_on_disable() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    assert!(monitor.obs().is_none(), "the sink must be off by default");
    assert_eq!(monitor.metrics().get_counter("profile_samples"), None);
    monitor.enable_obs(16);
    let prof = monitor.obs().expect("the sink is on").prof();
    assert_eq!(prof.interval(), DEFAULT_SAMPLE_INTERVAL);
    let on = monitor.metrics();
    for family in ["profile_samples", "trace_records", "trace_records_dropped"] {
        assert_eq!(on.get_counter(family), Some(0), "{family}");
    }
    monitor.disable_obs();
    assert!(monitor.obs().is_none());
    let off = monitor.metrics();
    for family in ["profile_samples", "trace_records", "trace_records_dropped"] {
        assert_eq!(off.get_counter(family), None, "{family}");
    }
}

#[test]
fn profile_metrics_exposition() {
    let (monitor, _, counters) = run_guest_profiled();
    let m = monitor.metrics();

    // The exact retire counts split the instruction counter by tier.
    let by_tier: u64 = vax_vmm::ProfTier::ALL
        .iter()
        .map(|t| {
            m.get_counter(&format!("profile_instructions_{}", t.name()))
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(by_tier, counters.instructions);
    assert!(m.get_counter("profile_samples").unwrap_or(0) > 0);
    // Dirty/touched page counts are levels (they drop on a drain), so
    // they export as gauges; only the event count is a counter.
    let dirty = m.get_gauge("dirty_pages").flatten().unwrap_or(0.0);
    let touched = m.get_gauge("touched_pages").flatten().unwrap_or(0.0);
    assert!(dirty > 0.0);
    assert!(touched >= dirty);
    assert!(m.get_counter("dirty_page_events").unwrap_or(0) > 0);
    assert_eq!(
        m.get_counter("dirty_pages"),
        None,
        "dirty_pages must not be a counter — merge would sum drained levels"
    );

    // Prometheus exposition carries the profile families, annotated.
    let prom = m.to_prometheus();
    assert!(
        prom.contains("# TYPE vax_profile_samples counter"),
        "{prom}"
    );
    assert!(prom.contains("# HELP vax_profile_cycles_cache"), "{prom}");
    assert!(prom.contains("vax_dirty_pages "), "{prom}");

    // The collapsed stack is one frame path + count per line.
    let prof = monitor.obs().unwrap().prof();
    let folded = prof.collapsed_stack();
    for line in folded.lines() {
        let (frames, count) = line.rsplit_once(' ').expect("frames <space> count");
        assert!(frames.starts_with("guest;"), "{line}");
        count.parse::<u64>().expect("count is a number");
    }
}

#[test]
fn profile_metrics_merge_across_monitors() {
    // Two profiled monitors merged (the Fleet path): counter families
    // sum, histogram families fold — fleet-wide profiles need no
    // bespoke aggregation code.
    let (a, _, _) = run_guest_profiled();
    let (b, _, _) = run_guest_profiled();
    let ma = a.metrics();
    let mb = b.metrics();
    let mut merged = ma.clone();
    merged.merge(&mb);
    for name in [
        "profile_samples",
        "profile_cycles_cache",
        "dirty_page_events",
    ] {
        assert_eq!(
            merged.get_counter(name),
            Some(ma.get_counter(name).unwrap_or(0) + mb.get_counter(name).unwrap_or(0)),
            "{name} must sum across monitors"
        );
    }
    let fold = merged.get_histogram("profile_page_cycles").unwrap();
    let ha = ma.get_histogram("profile_page_cycles").unwrap();
    let hb = mb.get_histogram("profile_page_cycles").unwrap();
    assert_eq!(fold.count(), ha.count() + hb.count());
    assert_eq!(fold.sum(), ha.sum() + hb.sum());
}

#[test]
fn drained_dirty_levels_aggregate_correctly() {
    // The original bug: dirty_pages/touched_pages were exported as
    // counters, so fleet merge summed stale levels and a drain made the
    // "counter" move backwards. As gauges they bypass counter merge and
    // the fleet recomputes the level sum from live state.
    let (a, _, _) = run_guest_profiled();
    let (mut b, _, _) = run_guest_profiled();
    let a_dirty = f64::from(a.machine().mem().dirty_page_count());
    let b_before = b.machine().mem().dirty_page_count();
    assert!(a_dirty > 0.0 && b_before > 0);
    // Drain B (what a delta snapshot or a pre-copy round does): its
    // level drops to zero, its event counter does not.
    let drained = b.machine_mut().mem_mut().take_dirty_pages();
    assert_eq!(drained.len() as u32, b_before);
    let b_events = b.metrics().get_counter("dirty_page_events").unwrap();
    assert!(b_events >= u64::from(b_before));

    let mut fleet = vax_vmm::Fleet::new();
    fleet.push(a);
    fleet.push(b);
    let agg = fleet.fleet_metrics();
    // Level sum counts only what is dirty *now* — drained pages gone.
    assert_eq!(agg.get_gauge("dirty_pages").flatten(), Some(a_dirty));
    // Event counters still sum monotonically across the fleet.
    assert!(agg.get_counter("dirty_page_events").unwrap() >= b_events);
    // Merging the same registry twice must not double a level either:
    // merge ignores gauges entirely.
    let solo = fleet.per_monitor_metrics()[0].clone();
    let mut doubled = solo.clone();
    doubled.merge(&solo);
    assert_eq!(
        doubled.get_gauge("dirty_pages"),
        solo.get_gauge("dirty_pages")
    );
}
