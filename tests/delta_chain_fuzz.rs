//! Delta-chain fuzzing over the monitor-fuzz corpus: a base snapshot
//! plus N incremental deltas, captured at arbitrary points of an
//! arbitrary (usually malformed) guest's run, must restore to a monitor
//! that re-snapshots **byte-equal** to a full snapshot of the source —
//! on every execution tier. Plus the rejection contract: corrupted
//! deltas, a wrong base, and out-of-order chains are errors, never
//! panics or silently wrong state. And the isolation contract: no other
//! consumer of dirty-page telemetry (live migration, the profiler) can
//! break an open chain.

use proptest::prelude::*;
use vax_cpu::ExecTier;
use vax_snap::{
    restore_chain, snapshot_chain_base, snapshot_delta, snapshot_digest, snapshot_monitor,
    SnapshotError,
};
use vax_vmm::{Fleet, Monitor, MonitorConfig, VmConfig};

/// `Monitor` has no `Debug`, so `expect_err` can't be used directly.
fn must_fail(r: Result<Monitor, SnapshotError>, why: &str) -> SnapshotError {
    match r {
        Err(e) => e,
        Ok(_) => panic!("{why}: chain restored when it must be rejected"),
    }
}

/// Same construction as `monitor_fuzz`: arbitrary code at the boot
/// address and a semi-plausible SCB.
fn fuzz_monitor(code: &[u8], scb_junk: u32, tier: ExecTier) -> Monitor {
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.set_exec_tier(tier);
    let vm = mon.create_vm("fuzz", VmConfig::default());
    mon.vm_write_phys(vm, 0x1000, code).unwrap();
    for off in (0..0x140u32).step_by(4) {
        mon.vm_write_phys(vm, 0x200 + off, &scb_junk.to_le_bytes())
            .unwrap();
    }
    mon.boot_vm(vm, 0x1000);
    mon
}

/// Runs `segments` on a fresh monitor, capturing a delta after each.
/// Returns (source, base snapshot, delta chain).
fn build_chain(
    code: &[u8],
    scb_junk: u32,
    tier: ExecTier,
    segments: &[u64],
) -> (Monitor, Vec<u8>, Vec<Vec<u8>>) {
    let mut src = fuzz_monitor(code, scb_junk, tier);
    let base = snapshot_monitor(&src).unwrap();
    let mut digest = snapshot_digest(&base);
    let mut deltas = Vec::new();
    for &seg in segments {
        src.run(seg);
        let d = snapshot_delta(&mut src, digest).unwrap();
        digest = snapshot_digest(&d);
        deltas.push(d);
    }
    (src, base, deltas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn chain_restore_is_bit_identical_on_every_tier(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        scb_junk in any::<u32>(),
        segments in proptest::collection::vec(1_000u64..150_000, 1..5),
    ) {
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            let (src, base, deltas) = build_chain(&code, scb_junk, tier, &segments);
            let restored = restore_chain(&base, &deltas).unwrap();
            prop_assert_eq!(
                snapshot_monitor(&restored).unwrap(),
                snapshot_monitor(&src).unwrap(),
                "chain restore diverged from source under {:?}",
                tier
            );
        }
    }

    #[test]
    fn corrupted_deltas_never_panic(
        code in proptest::collection::vec(any::<u8>(), 1..256),
        scb_junk in any::<u32>(),
        flip in any::<u8>(),
        pos_seed in any::<u64>(),
    ) {
        let (_, base, mut deltas) =
            build_chain(&code, scb_junk, ExecTier::Interp, &[40_000]);
        let pos = (pos_seed % deltas[0].len() as u64) as usize;
        deltas[0][pos] ^= flip | 1;
        // Any single-byte damage is an error (header, digest, payload,
        // checksum — somewhere the validation pipeline catches it).
        prop_assert!(restore_chain(&base, &deltas).is_err());
    }
}

#[test]
fn wrong_base_and_out_of_order_chains_are_rejected() {
    let segments = [30_000u64, 30_000];
    let (_, base, deltas) = build_chain(&[0x11; 64], 0x200, ExecTier::Interp, &segments);

    // A different base (different guest) with a structurally valid chain.
    let (_, other_base, _) = build_chain(&[0x22; 64], 0x200, ExecTier::Interp, &segments);
    let err = must_fail(restore_chain(&other_base, &deltas), "wrong base");
    assert_eq!(err.what(), "delta chain digest mismatch");

    // The right base with the deltas swapped.
    let swapped: Vec<_> = deltas.iter().rev().cloned().collect();
    let err = must_fail(restore_chain(&base, &swapped), "out of order");
    assert_eq!(err.what(), "delta chain digest mismatch");

    // A delta applied twice is also a linkage error, not corruption.
    let doubled = vec![deltas[0].clone(), deltas[0].clone()];
    let err = must_fail(restore_chain(&base, &doubled), "replayed link");
    assert_eq!(err.what(), "delta chain digest mismatch");

    // And the intact chain still restores — the rejections above are
    // not vacuous.
    restore_chain(&base, &deltas).expect("intact chain restores");
}

#[test]
fn delta_chain_survives_mid_chain_restore() {
    // A chain must be able to continue from a restored monitor.
    let (_, base, deltas) = build_chain(&[0x33; 128], 0x200, ExecTier::Cache, &[50_000]);
    let mut restored = restore_chain(&base, &deltas).expect("restore mid-chain");
    restored.run(50_000);
    let d2 = snapshot_delta(&mut restored, snapshot_digest(&deltas[0]))
        .expect("chain continues after restore");
    let chain = vec![deltas[0].clone(), d2];
    let full = restore_chain(&base, &chain).expect("extended chain restores");
    assert_eq!(
        snapshot_monitor(&full).unwrap(),
        snapshot_monitor(&restored).unwrap(),
        "extended chain diverged from the restored-and-resumed monitor"
    );
}

#[test]
fn never_armed_monitor_takes_deltas() {
    // Dirty-page tracking is always on: a monitor nobody armed chains,
    // and the chain restores byte-equal.
    let mut mon = Monitor::new(MonitorConfig::default());
    let vm = mon.create_vm("guest", VmConfig::default());
    let base = snapshot_monitor(&mon).unwrap();
    mon.vm_write_phys(vm, 0x4000, &[7; 600]).unwrap();
    let delta = snapshot_delta(&mut mon, snapshot_digest(&base)).unwrap();
    let restored = restore_chain(&base, &[delta]).unwrap();
    assert_eq!(
        snapshot_monitor(&restored).unwrap(),
        snapshot_monitor(&mon).unwrap()
    );
}

/// A guest that writes each page of its memory from 16 KiB up once, in
/// order, with a delay loop between pages, then spins: successive run
/// slices write disjoint pages, so a view that loses one slice's pages
/// shows up as a wrong restore.
const WRITER: &str = "
        movl #0x4000, r1
    page:
        movl r1, (r1)
        movl #40, r2
    spin:
        sobgtr r2, spin
        addl2 #512, r1
        cmpl r1, #0x3f000
        blss page
    idle:
        brb idle
";

/// Cycles per run slice: a few pages per writer.
const SLICE: u64 = 60_000;

/// What happens to the chain's monitor between the base and the delta.
#[derive(Debug, Clone, Copy)]
enum Interference {
    /// Pre-copy live migration of the *other* writer to a second
    /// monitor.
    MigrateOther,
    /// The observability sink (and with it the profiler) switched on
    /// mid-chain.
    EnableObs,
    /// The sink, on since before the base, switched off mid-chain.
    DisableObs,
    /// The tracking switch called a second time.
    EnableTrackingAgain,
}

/// Two writer VMs on monitor 0 of a two-monitor fleet: chain base, a
/// run slice, the interference, another slice, one delta. `Err` names
/// how the chain broke.
fn chain_across(case: Interference) -> Result<(), String> {
    let program = vax_asm::assemble_text(WRITER, 0x1000).unwrap();
    let mut mon = Monitor::new(MonitorConfig::default());
    mon.enable_dirty_tracking();
    if let Interference::DisableObs = case {
        mon.enable_obs(64);
    }
    let a = mon.create_vm("a", VmConfig::default());
    let b = mon.create_vm("b", VmConfig::default());
    for vm in [a, b] {
        mon.vm_write_phys(vm, 0x1000, &program.bytes).unwrap();
        mon.boot_vm(vm, 0x1000);
    }
    mon.run(SLICE);
    let mut fleet = Fleet::new();
    fleet.push(mon);
    fleet.push(Monitor::new(MonitorConfig::default()));

    let base = snapshot_chain_base(fleet.monitor_mut(0)).map_err(|e| e.to_string())?;
    fleet.monitor_mut(0).run(SLICE);
    match case {
        Interference::MigrateOther => {
            fleet
                .migrate_live(b, 0, 1, SLICE / 4, 3)
                .map_err(|e| e.to_string())?;
        }
        Interference::EnableObs => fleet.monitor_mut(0).enable_obs(64),
        Interference::DisableObs => fleet.monitor_mut(0).disable_obs(),
        Interference::EnableTrackingAgain => fleet.monitor_mut(0).enable_dirty_tracking(),
    }
    fleet.monitor_mut(0).run(SLICE);
    let source = fleet.monitor_mut(0);
    let delta = snapshot_delta(source, snapshot_digest(&base)).map_err(|e| e.to_string())?;
    let restored = restore_chain(&base, &[delta]).map_err(|e| e.to_string())?;
    if snapshot_monitor(&restored).unwrap() != snapshot_monitor(source).unwrap() {
        return Err("restored chain differs from the source".into());
    }
    Ok(())
}

#[test]
fn no_consumer_breaks_an_open_chain() {
    let broken: Vec<String> = [
        Interference::MigrateOther,
        Interference::EnableObs,
        Interference::DisableObs,
        Interference::EnableTrackingAgain,
    ]
    .into_iter()
    .filter_map(|case| chain_across(case).err().map(|e| format!("{case:?}: {e}")))
    .collect();
    assert!(broken.is_empty(), "broken chains: {broken:#?}");
}
