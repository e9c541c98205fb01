//! Snapshot/restore and copy-on-write fork contracts.
//!
//! The headline property: a monitor restored from a snapshot and
//! resumed produces **bit-identical** state — cycles, counters, TLB,
//! console bytes, halt reasons — to the monitor that was never
//! interrupted, given the same [`Monitor::run`] call boundaries. The
//! secondary property — a snapshot image is untrusted input, and no
//! corruption of it may panic the restorer — is the hostile-input table
//! in `src/hostile.rs`, which needs the decoder's budget seam.

use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_snap::{capture, fork_monitor, rebuild, restore_monitor, snapshot_monitor, SnapshotError};
use vax_vmm::{Fleet, IoStrategy, Monitor, MonitorConfig, RunExit, VmConfig, VmmError};

/// A monitor running a real guest OS: timer interrupts, CHM syscalls,
/// context switches, shadow fills — enough machinery that accidental
/// state loss in the snapshot would show up as divergence.
fn os_monitor() -> Monitor {
    let image = build_image(&OsConfig {
        nproc: 3,
        iterations: 8,
        workload: Workload::Mixed,
        ..OsConfig::default()
    })
    .expect("OS image builds");
    let mut monitor = Monitor::new(MonitorConfig::default());
    boot_in_monitor(&mut monitor, &image, VmConfig::default());
    monitor
}

/// Deep comparison digest. `Vm` deliberately has no `PartialEq` (it is
/// not a value type), but its `Debug` form covers every field, which is
/// exactly what a bit-identity test wants.
fn digest(m: &Monitor) -> (String, String, Vec<String>) {
    (
        format!("{:?}", m.machine().export_state()),
        format!("{:?}", m.scheduler_state()),
        m.vm_ids()
            .map(|id| format!("{:?} {:?}", m.vm(id), m.shadow(id).export_cache_state()))
            .collect(),
    )
}

/// Mid-run: the guest has turned memory mapping on and has work left.
const PARTIAL: u64 = 50_000;
const FINISH: u64 = 50_000_000;

/// Runs `m` for [`PARTIAL`] cycles and checks that its guest is still
/// running, mapped: what a test then snapshots, forks or migrates is a
/// guest whose code caches must be rebuilt under its page tables.
fn run_partial(m: &mut Monitor) {
    assert_eq!(m.run(PARTIAL), RunExit::BudgetExhausted);
    let vm = m.vm_ids().next().expect("one VM");
    assert!(m.vm(vm).guest_mapen, "the guest has turned mapping on");
}

#[test]
fn restore_resumes_bit_identical_to_uninterrupted_run() {
    // Reference: never snapshotted, same call boundaries.
    let mut reference = os_monitor();
    run_partial(&mut reference);
    let exit_ref = reference.run(FINISH);

    let mut original = os_monitor();
    run_partial(&mut original);
    let bytes = snapshot_monitor(&original).expect("snapshot");
    let mut restored = restore_monitor(&bytes).expect("restore");
    let exit_restored = restored.run(FINISH);

    assert_eq!(exit_restored, exit_ref);
    assert_eq!(digest(&restored), digest(&reference));
    // The memory image agrees too: re-snapshotting both end states
    // yields the same bytes.
    assert_eq!(
        snapshot_monitor(&restored).expect("snapshot restored"),
        snapshot_monitor(&reference).expect("snapshot reference"),
    );
}

#[test]
fn snapshot_bytes_are_deterministic_and_round_trip() {
    let mut monitor = os_monitor();
    run_partial(&mut monitor);
    let a = snapshot_monitor(&monitor).expect("first snapshot");
    let b = snapshot_monitor(&monitor).expect("second snapshot");
    assert_eq!(a, b, "same state, same bytes");
    // restore(snapshot(m)) captures back to the identical image.
    let restored = restore_monitor(&a).expect("restore");
    assert_eq!(snapshot_monitor(&restored).expect("re-snapshot"), a);
}

#[test]
fn fork_children_share_memory_and_resume_identically() {
    let mut reference = os_monitor();
    run_partial(&mut reference);
    reference.run(FINISH);
    let want = digest(&reference);

    let mut parent = os_monitor();
    run_partial(&mut parent);
    let mut children = fork_monitor(&mut parent, 3).expect("fork");
    assert_eq!(children.len(), 3);
    for child in &children {
        assert!(
            child.machine().mem().shared_fraction() > 0.99,
            "fresh fork shares everything"
        );
    }
    // Parent and every child independently resume to the reference
    // state; child writes go to private copies, so none of the four
    // disturbs the others.
    parent.run(FINISH);
    assert_eq!(digest(&parent), want);
    for child in &mut children {
        child.run(FINISH);
        assert_eq!(digest(child), want);
        assert!(
            child.machine().mem().shared_fraction() >= 0.8,
            "guest writes touch a small fraction of memory: {}",
            child.machine().mem().shared_fraction()
        );
    }
}

/// A child's decode cache costs what the child decodes: 64 fresh
/// children hold no cache storage at all, and running one grows only
/// that child's.
#[test]
fn fork_children_start_with_no_cache_storage() {
    let decode_bytes = |m: &Monitor| {
        m.metrics()
            .get_labeled_gauge("code_cache_resident_bytes", "cache", "decode")
            .expect("exported")
    };
    let mut parent = os_monitor();
    let mut children = fork_monitor(&mut parent, 64).expect("fork");
    assert!(children.iter().all(|c| decode_bytes(c) == 0.0));
    assert_eq!(children[5].run(FINISH), RunExit::AllHalted);
    for (i, child) in children.iter().enumerate() {
        assert_eq!(decode_bytes(child) > 0.0, i == 5, "child {i}");
    }
}

#[test]
fn midflight_migration_preserves_guest_output() {
    // Regression: a guest migrated *after* it has enabled memory
    // mapping depends on the target shadow set replaying its MTPR-to-SLR
    // history (the counting-guest migration test never turns mapping
    // on, so it cannot catch a stale S window).
    let mut reference = os_monitor();
    run_partial(&mut reference);
    assert_eq!(reference.run(FINISH), RunExit::AllHalted);
    let rid = reference.vm_ids().next().expect("one VM");

    let mut fleet = Fleet::new();
    let mut source = os_monitor();
    run_partial(&mut source);
    fleet.push(source);
    fleet.push(Monitor::new(MonitorConfig::default()));
    let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
    let moved = fleet.migrate(vm, 0, 1).expect("migrate");
    assert_eq!(fleet.monitor_mut(1).run(FINISH), RunExit::AllHalted);

    let migrated = fleet.monitor(1).vm(moved);
    assert_eq!(migrated.console_out, reference.vm(rid).console_out);
    assert_eq!(migrated.regs, reference.vm(rid).regs);
    assert_eq!(migrated.halt_reason, reference.vm(rid).halt_reason);
}

#[test]
fn emulated_mmio_vms_are_rejected() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.create_vm(
        "mmio",
        VmConfig {
            io_strategy: IoStrategy::EmulatedMmio,
            ..VmConfig::default()
        },
    );
    let err = snapshot_monitor(&monitor).expect_err("must be rejected");
    assert!(matches!(err, SnapshotError::Unsupported { .. }));
    assert!(matches!(VmmError::from(err), VmmError::Snapshot { .. }));
    assert!(fork_monitor(&mut monitor, 2).is_err());
}

#[test]
fn oversize_state_fails_at_snapshot_not_at_restore() {
    // A monitor whose legitimate running state exceeds a wire-format
    // cap must be refused at capture — the alternative is an image that
    // encodes fine but can never be restored.
    let mut monitor = Monitor::new(MonitorConfig::default());
    let vm = monitor.create_vm("chatty", VmConfig::default());

    monitor.vm_mut(vm).vmm_log.push("x".repeat(4097));
    assert!(matches!(
        snapshot_monitor(&monitor),
        Err(SnapshotError::Unsupported {
            what: "VMM log line over snapshot cap"
        })
    ));
    monitor.vm_mut(vm).vmm_log.clear();

    monitor.vm_mut(vm).vmm_log = vec![String::from("line"); 65_537];
    assert!(matches!(
        snapshot_monitor(&monitor),
        Err(SnapshotError::Unsupported {
            what: "VMM log line count over snapshot cap"
        })
    ));
    monitor.vm_mut(vm).vmm_log.clear();

    // Back under the caps, the same monitor snapshots and restores.
    let bytes = snapshot_monitor(&monitor).expect("legal again");
    assert!(restore_monitor(&bytes).is_ok());
}

#[test]
fn oversize_vm_name_fails_at_snapshot() {
    let mut monitor = Monitor::new(MonitorConfig::default());
    monitor.create_vm(&"n".repeat(257), VmConfig::default());
    assert!(matches!(
        snapshot_monitor(&monitor),
        Err(SnapshotError::Unsupported {
            what: "VM name over snapshot cap"
        })
    ));
}

#[test]
fn rebuild_applies_admission_control() {
    let monitor = os_monitor();
    let mut image = capture(&monitor).expect("capture");
    // A VM bigger than the whole machine cannot be admitted; the
    // restorer must refuse rather than let the frame allocator panic.
    image.vms[0].config.mem_pages = monitor.machine().mem().pages() + 1;
    image.vms[0].vm.mem_pages = monitor.machine().mem().pages() + 1;
    match rebuild(image, monitor.machine().mem().clone()) {
        Err(e) => assert_eq!(e.what(), "VMs do not fit in machine memory"),
        Ok(_) => panic!("oversize VM must be refused"),
    }
}
