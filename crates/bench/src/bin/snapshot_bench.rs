//! Headless snapshot-subsystem benchmark (DESIGN.md §13): snapshot and
//! restore latency, copy-on-write fork cost and page-sharing ratio, and
//! a cross-monitor migration round-trip — each with its correctness
//! contract asserted inline (restore bit-identity, fork sharing ≥ 80%,
//! fork per child at most a quarter of a restore, no cache storage in a
//! fresh fork, migrated guest output identical to an unmigrated run).
//!
//! Usage: `cargo run --release -p vax-bench --bin snapshot_bench [-- --quick]`
//!
//! Writes `BENCH_snapshot.json`.

use std::time::Instant;
use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_snap::{
    capture, fork_child, fork_monitor, restore_chain, restore_monitor, snapshot_chain_base,
    snapshot_delta, snapshot_digest, snapshot_monitor,
};
use vax_vmm::{Fleet, Monitor, MonitorConfig, RunExit, VmConfig};

/// Cycle budget that lets every guest in this file halt.
const BUDGET: u64 = 64_000_000_000;

struct Scale {
    iterations: u32,
    split: u64,
    reps: u32,
    forks: usize,
}

impl Scale {
    fn new(quick: bool) -> Scale {
        if quick {
            Scale {
                iterations: 400,
                split: 200_000,
                reps: 5,
                forks: 4,
            }
        } else {
            Scale {
                iterations: 20_000,
                split: 5_000_000,
                reps: 40,
                forks: 16,
            }
        }
    }
}

/// A monitor mid-flight through a multiprogrammed mini-OS guest — the
/// realistic snapshot subject: warm TLB, populated shadow tables,
/// console output in the buffers.
fn subject(scale: &Scale) -> Monitor {
    subject_with(scale, Workload::Mixed)
}

fn subject_with(scale: &Scale, workload: Workload) -> Monitor {
    let image = build_image(&OsConfig {
        nproc: 3,
        workload,
        iterations: scale.iterations,
        ..OsConfig::default()
    })
    .expect("guest image builds");
    let mut monitor = Monitor::new(MonitorConfig::default());
    boot_in_monitor(&mut monitor, &image, VmConfig::default());
    monitor.run(scale.split);
    monitor
}

fn mean_secs(times: &[f64]) -> f64 {
    times.iter().sum::<f64>() / times.len().max(1) as f64
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = Scale::new(quick);
    println!(
        "snapshot_bench{}: subject guest nproc 3, {} iterations, split at {} cycles",
        if quick { " (quick)" } else { "" },
        scale.iterations,
        scale.split
    );

    // --- snapshot + restore latency -------------------------------
    let monitor = subject(&scale);
    let mem_bytes = monitor.machine().mem().size();
    let mut snap_times = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..scale.reps {
        let t = Instant::now();
        bytes = snapshot_monitor(&monitor).expect("snapshot");
        snap_times.push(t.elapsed().as_secs_f64());
    }
    let mut restore_times = Vec::new();
    let mut restored = None;
    for _ in 0..scale.reps {
        let t = Instant::now();
        restored = Some(restore_monitor(&bytes).expect("restore"));
        restore_times.push(t.elapsed().as_secs_f64());
    }
    // Bit-identity: the restored monitor re-serializes to the same image.
    let restored = restored.expect("at least one rep");
    assert_eq!(
        snapshot_monitor(&restored).expect("re-snapshot"),
        bytes,
        "restore must reproduce the snapshotted state exactly"
    );
    let snap_s = mean_secs(&snap_times);
    let restore_s = mean_secs(&restore_times);
    println!(
        "  snapshot: {} bytes ({}x smaller than the {} byte machine), {:.1} us",
        bytes.len(),
        mem_bytes as usize / bytes.len().max(1),
        mem_bytes,
        1e6 * snap_s
    );
    println!("  restore:  {:.1} us, bit-identical: yes", 1e6 * restore_s);

    // --- copy-on-write fork ---------------------------------------
    // Two patterns. Serving (`vaxd`): fork a child, run it to halt, reap
    // it, fork the next, each fork timed alone after one untimed warm-up
    // cycle. Fan-out (`fork_monitor`): all children alive at once. A
    // fresh child's decode and translation caches hold no storage until
    // it decodes, so no fan-out child may start with any. Every child
    // (and the parent) runs to completion independently; sharing is
    // measured after the children's guests have dirtied whatever they
    // dirty.
    let mut parent = subject(&scale);
    let image = capture(&parent).expect("capture");
    let mut min_shared = 1.0f64;
    let mut serve_times = Vec::new();
    for rep in 0..=scale.forks {
        let t = Instant::now();
        let mut child = fork_child(&image, parent.machine_mut().mem_mut()).expect("fork");
        if rep > 0 {
            serve_times.push(t.elapsed().as_secs_f64());
        }
        assert_eq!(child.run(BUDGET), RunExit::AllHalted);
        min_shared = min_shared.min(child.machine().mem().shared_fraction());
    }
    let fork_s = mean_secs(&serve_times);
    let t = Instant::now();
    let mut children = fork_monitor(&mut parent, scale.forks).expect("fork");
    let fanout_s = t.elapsed().as_secs_f64() / scale.forks as f64;
    // The most cache storage any fresh child holds, either cache.
    let code_cache_bytes_after_fork = children
        .iter()
        .flat_map(|c| {
            let m = c.metrics();
            ["decode", "trans"].map(|cache| {
                m.get_labeled_gauge("code_cache_resident_bytes", "cache", cache)
                    .expect("exported")
            })
        })
        .fold(0.0, f64::max);
    assert_eq!(
        code_cache_bytes_after_fork, 0.0,
        "a fresh fork must hold no decode or translation cache storage"
    );
    for child in &mut children {
        assert_eq!(child.run(BUDGET), RunExit::AllHalted);
        min_shared = min_shared.min(child.machine().mem().shared_fraction());
    }
    assert_eq!(parent.run(BUDGET), RunExit::AllHalted);
    assert!(
        min_shared >= 0.8,
        "fork must share >= 80% of pages after the run, got {min_shared:.3}"
    );
    // A fork copies no memory, while a restore decodes and adopts the
    // whole image: a ratio of the two, timed on the same host, holds on
    // a noisy shared runner where an absolute bound would not.
    let fork_over_restore = fork_s / restore_s;
    assert!(
        fork_over_restore <= 0.25,
        "fork per child ({:.1} us) must cost at most 1/4 of a restore ({:.1} us), got {:.2}",
        1e6 * fork_s,
        1e6 * restore_s,
        fork_over_restore
    );
    println!(
        "  fork: {} children, {:.1} us each fork-run-reap ({:.3} of a restore), {:.1} us each \
         with all alive at once, {:.1}% of pages still shared after running to halt",
        scale.forks,
        1e6 * fork_s,
        fork_over_restore,
        1e6 * fanout_s,
        100.0 * min_shared
    );

    // --- incremental delta snapshots ------------------------------
    // A compute-bound guest is mostly idle memory-wise: after the base,
    // each segment dirties a handful of pages, so the delta must come
    // out an order of magnitude smaller than the full image.
    let mut chained = subject_with(&scale, Workload::Compute);
    let t = Instant::now();
    let base = snapshot_chain_base(&mut chained).expect("base snapshot");
    let base_s = t.elapsed().as_secs_f64();
    let segment = (scale.split / 20).max(1_000);
    let mut digest = snapshot_digest(&base);
    let mut deltas = Vec::new();
    let mut delta_times = Vec::new();
    for _ in 0..3 {
        chained.run(segment);
        let t = Instant::now();
        let d = snapshot_delta(&mut chained, digest).expect("delta snapshot");
        delta_times.push(t.elapsed().as_secs_f64());
        digest = snapshot_digest(&d);
        deltas.push(d);
    }
    let delta_bytes = deltas.iter().map(Vec::len).max().unwrap_or(0);
    let full_after = snapshot_monitor(&chained).expect("full snapshot of source");
    assert!(
        delta_bytes * 10 <= full_after.len(),
        "delta ({delta_bytes} bytes) must be >= 10x smaller than the full \
         snapshot ({} bytes) on a mostly-idle guest",
        full_after.len()
    );
    // Chain bit-identity: base + deltas reassemble the source exactly.
    let rechained = restore_chain(&base, &deltas).expect("chain restore");
    assert_eq!(
        snapshot_monitor(&rechained).expect("re-snapshot"),
        full_after,
        "restore_chain must reproduce the source state exactly"
    );
    let delta_s = mean_secs(&delta_times);
    println!(
        "  delta: {} bytes largest of {} links ({}x smaller than the {} byte full image), \
         {:.1} us capture (full: {:.1} us), chain restore bit-identical: yes",
        delta_bytes,
        deltas.len(),
        full_after.len() / delta_bytes.max(1),
        full_after.len(),
        1e6 * delta_s,
        1e6 * base_s,
    );

    // --- cross-monitor migration ----------------------------------
    // Reference: the same guest, never migrated.
    let mut reference = subject(&scale);
    assert_eq!(reference.run(BUDGET), RunExit::AllHalted);
    let ref_vm = reference.vm_ids().next().expect("one VM");
    let ref_console = reference.vm(ref_vm).console_out.clone();
    let ref_regs = reference.vm(ref_vm).regs;

    let mut fleet = Fleet::new();
    fleet.push(subject(&scale));
    fleet.push(Monitor::new(MonitorConfig::default()));
    let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
    let t = Instant::now();
    let moved = fleet.migrate(vm, 0, 1).expect("migrate");
    let migrate_s = t.elapsed().as_secs_f64();
    assert_eq!(fleet.monitor_mut(1).run(BUDGET), RunExit::AllHalted);
    let migrated = fleet.monitor(1).vm(moved);
    assert_eq!(
        migrated.console_out, ref_console,
        "migrated guest console output must match the unmigrated run"
    );
    assert_eq!(
        migrated.regs, ref_regs,
        "migrated guest registers must match the unmigrated run"
    );
    println!(
        "  migrate: {:.1} us round-trip, guest output identical: yes",
        1e6 * migrate_s
    );

    // --- pre-copy live migration downtime -------------------------
    // Stop-and-copy downtime is the whole round-trip above (the source
    // is frozen throughout). Pre-copy ships memory while the source
    // runs, so its stop window covers only the residual dirty pages
    // plus the state transfer. Best-of-N wall times on both sides; the
    // deterministic page-count proxy is the hard assert.
    let mut stopcopy_times = Vec::new();
    for _ in 0..scale.reps.min(5) {
        let mut fleet = Fleet::new();
        fleet.push(subject(&scale));
        fleet.push(Monitor::new(MonitorConfig::default()));
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        let t = Instant::now();
        fleet.migrate(vm, 0, 1).expect("migrate");
        stopcopy_times.push(t.elapsed().as_secs_f64());
    }
    let mut live_downtimes = Vec::new();
    let mut live_report = None;
    for _ in 0..scale.reps.min(5) {
        let mut fleet = Fleet::new();
        fleet.push(subject(&scale));
        fleet.push(Monitor::new(MonitorConfig::default()));
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        let report = fleet
            .migrate_live(vm, 0, 1, scale.split / 10, 8)
            .expect("live migration");
        assert!(
            report.final_pages < report.total_pages,
            "pre-copy must leave the stop phase fewer pages ({}) than a full \
             copy ({})",
            report.final_pages,
            report.total_pages
        );
        live_downtimes.push(report.downtime.as_secs_f64());
        // Guest correctness: the live-migrated guest finishes with the
        // same console bytes and registers as the unmigrated reference.
        assert_eq!(fleet.monitor_mut(1).run(BUDGET), RunExit::AllHalted);
        let migrated = fleet.monitor(1).vm(report.vm);
        assert_eq!(migrated.console_out, ref_console);
        assert_eq!(migrated.regs, ref_regs);
        live_report = Some(report);
    }
    let live_report = live_report.expect("at least one live rep");
    let best = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let stopcopy_best = best(&stopcopy_times);
    let live_best = best(&live_downtimes);
    assert!(
        live_best < stopcopy_best,
        "pre-copy downtime ({:.1} us) must undercut stop-and-copy ({:.1} us)",
        1e6 * live_best,
        1e6 * stopcopy_best
    );
    println!(
        "  migrate-live: downtime {:.1} us vs stop-and-copy {:.1} us ({} rounds, \
         {} of {} pages left for the stop phase)",
        1e6 * live_best,
        1e6 * stopcopy_best,
        live_report.rounds,
        live_report.final_pages,
        live_report.total_pages,
    );

    let json = format!(
        "{{\n  \"quick\": {quick},\n  \"mem_bytes\": {mem_bytes},\n  \
         \"snapshot\": {{\"bytes\": {}, \"mean_secs\": {snap_s:.9}}},\n  \
         \"restore\": {{\"mean_secs\": {restore_s:.9}, \"bit_identical\": true}},\n  \
         \"fork\": {{\"children\": {}, \"mean_secs_per_child\": {fork_s:.9}, \
         \"fanout_mean_secs_per_child\": {fanout_s:.9}, \
         \"code_cache_bytes_after_fork\": {code_cache_bytes_after_fork}, \
         \"min_shared_fraction_after_run\": {min_shared:.6}, \"sharing_target\": 0.8, \
         \"fork_over_restore\": {fork_over_restore:.6}, \"fork_over_restore_max\": 0.25}},\n  \
         \"migration\": {{\"round_trip_secs\": {migrate_s:.9}, \"guest_identical\": true}},\n  \
         \"delta\": {{\"bytes\": {delta_bytes}, \"full_bytes\": {}, \"links\": {}, \
         \"mean_capture_secs\": {delta_s:.9}, \"full_capture_secs\": {base_s:.9}, \
         \"size_ratio_target\": 10, \"chain_bit_identical\": true}},\n  \
         \"migration_live\": {{\"downtime_secs\": {live_best:.9}, \
         \"stop_and_copy_secs\": {stopcopy_best:.9}, \"rounds\": {}, \
         \"precopy_pages\": {}, \"final_pages\": {}, \"total_pages\": {}, \
         \"guest_identical\": true}}\n}}\n",
        bytes.len(),
        scale.forks,
        full_after.len(),
        deltas.len(),
        live_report.rounds,
        live_report.precopy_pages,
        live_report.final_pages,
        live_report.total_pages,
    );
    std::fs::write("BENCH_snapshot.json", json).expect("write BENCH_snapshot.json");
    println!("wrote BENCH_snapshot.json");
}
