//! Stored-image compatibility, pinned by fixtures (DESIGN.md §13,
//! "Version policy").
//!
//! `fixtures/v2_base.vaxsnap` is a `VAXSNAP1` version-2 full image and
//! `fixtures/v1_delta.vaxdlt` a `VAXDLT1` version-1 delta on top of it,
//! both written by the last build that wrote those formats from the
//! recipe below (`fixtures/README.md`). They must keep restoring to the
//! state the recipe builds today, and the current format's bytes for
//! that state are pinned by digest, so an accidental format change
//! fails here rather than in someone's archive.

use vax_snap::{
    restore_chain, snapshot_chain_base, snapshot_delta, snapshot_digest, snapshot_monitor,
};
use vax_vmm::{Monitor, MonitorConfig, ShadowConfig, VmConfig, VmId};

/// `snapshot_digest` of the current format's full snapshot of the
/// recipe's final state. Change it only together with the format
/// version.
const GOLDEN_DIGEST: u64 = 0x8b1b_d668_9d52_8401;

/// The recipe's base state: a small monitor built by host-side calls
/// only — no guest instruction runs, so nothing here depends on the
/// cost model or the execution tier.
fn recipe() -> (Monitor, VmId) {
    let mut m = Monitor::new(MonitorConfig {
        mem_bytes: 64 * 1024,
        ..MonitorConfig::default()
    });
    let vm = m.create_vm(
        "fixture",
        VmConfig {
            mem_pages: 32,
            shadow: ShadowConfig {
                s_capacity: 16,
                p0_capacity: 16,
                p1_capacity: 16,
                cache_slots: 2,
                prefill_group: 1,
            },
            vdisk_sectors: 2,
            ..VmConfig::default()
        },
    );
    m.vm_write_phys(vm, 0x200, b"VAX fixture page").unwrap();
    m.vm_write_phys(vm, 0x1000, &[0x5a; 512]).unwrap();
    m.boot_vm(vm, 0x200);
    let g = m.vm_mut(vm);
    g.vdisk[1][..4].copy_from_slice(b"disk");
    g.console_out.extend_from_slice(b"boot\n");
    g.vmm_log.push(String::from("fixture base"));
    g.regs[0] = 0x1234_5678;
    (m, vm)
}

/// The writes between the base and the delta: one page written back to
/// zero, a two-page run and a lone page.
fn recipe_step(m: &mut Monitor, vm: VmId) {
    m.vm_write_phys(vm, 0x200, &[0; 16]).unwrap();
    m.vm_write_phys(vm, 0x1400, &[0xa5; 1024]).unwrap();
    m.vm_write_phys(vm, 0x3000, &[0x3c; 4]).unwrap();
    let g = m.vm_mut(vm);
    g.console_out.extend_from_slice(b"step\n");
    g.regs[1] = 0x9abc_def0;
}

/// The recipe's final state, rebuilt by today's code.
fn rebuilt() -> Monitor {
    let (mut m, vm) = recipe();
    recipe_step(&mut m, vm);
    m
}

const V2_BASE: &[u8] = include_bytes!("fixtures/v2_base.vaxsnap");
const V1_DELTA: &[u8] = include_bytes!("fixtures/v1_delta.vaxdlt");

#[test]
fn fixtures_are_the_legacy_formats() {
    assert_eq!(&V2_BASE[..12], b"VAXSNAP1\x02\0\0\0");
    assert_eq!(&V1_DELTA[..12], b"VAXDLT1\0\x01\0\0\0");
}

#[test]
fn legacy_v2_base_and_v1_delta_restore() {
    let restored = restore_chain(V2_BASE, &[V1_DELTA]).expect("legacy chain restores");
    assert_eq!(
        snapshot_monitor(&restored).unwrap(),
        snapshot_monitor(&rebuilt()).unwrap(),
        "the legacy chain restores to the recipe's state"
    );
    // The v2 base alone is the recipe's base state.
    let base = vax_snap::restore_monitor(V2_BASE).expect("legacy base restores");
    assert_eq!(
        snapshot_monitor(&base).unwrap(),
        snapshot_monitor(&recipe().0).unwrap()
    );
}

/// `VAXSNAP1` version 2's full image of the recipe's final state
/// (written alongside the fixtures) was this long; the current format
/// adds a parent digest, an extent count and an extent start.
const V2_FULL_LEN: usize = 6613;

#[test]
fn current_format_is_pinned() {
    let bytes = snapshot_monitor(&rebuilt()).unwrap();
    assert_eq!(bytes.len(), V2_FULL_LEN + 16);
    assert_eq!(
        snapshot_digest(&bytes),
        GOLDEN_DIGEST,
        "the format's bytes changed: bump VERSION, keep a read arm for the old one, and re-pin"
    );
}

#[test]
fn current_chain_matches_the_legacy_chain() {
    let (mut m, vm) = recipe();
    let base = snapshot_chain_base(&mut m).unwrap();
    recipe_step(&mut m, vm);
    let delta = snapshot_delta(&mut m, snapshot_digest(&base)).unwrap();
    let current = restore_chain(&base, &[delta]).expect("current chain restores");
    let legacy = restore_chain(V2_BASE, &[V1_DELTA]).expect("legacy chain restores");
    assert_eq!(
        snapshot_monitor(&current).unwrap(),
        snapshot_monitor(&legacy).unwrap()
    );
}
