//! Observability contract tests: enabling exit tracing must be invisible
//! to the simulation (bit-identical cycles and counters), and the
//! per-cause histograms must reproduce the paper's §7.3 claim that
//! MTPR-to-IPL is an order of magnitude more expensive virtualized.

use vax_arch::{MachineVariant, Psl};
use vax_cpu::{CpuCounters, ExecTier, Machine, StepEvent};
use vax_vmm::{ExitCause, Fleet, Monitor, MonitorConfig, RunExit, VmConfig};

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
        if rec.cause == ExitCause::EmulMtprIpl {
            assert!(rec.cost_cycles > 0, "completed exits carry their cost");
        }
    }
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

/// Like [`run_guest`] with the profiler on; the simulation outcome must
/// match the unprofiled runs bit for bit.
fn run_guest_profiled() -> (Monitor, u64, CpuCounters) {
    let program = vax_asm::assemble_text(GUEST, 0x1000).unwrap();
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.enable_obs(256);
    monitor.enable_profiling(64);
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
    let prof = monitor.prof().expect("profiling enabled");
    assert!(prof.samples() > 0, "the run must cross sample boundaries");
    assert!(prof.attributed_total() > 0);
}

#[test]
fn profiling_off_by_default_and_discarded_on_disable() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    assert!(monitor.prof().is_none(), "profiling must be off by default");
    assert!(!monitor.machine().mem().write_tracking_enabled());
    monitor.enable_profiling(64);
    assert!(monitor.prof().is_some());
    assert!(monitor.machine().mem().write_tracking_enabled());
    monitor.disable_profiling();
    assert!(monitor.prof().is_none());
    assert!(!monitor.machine().mem().write_tracking_enabled());
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
    let prof = monitor.prof().unwrap();
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
