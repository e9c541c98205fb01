//! The hostile-input table: every way an image or a chain can be
//! malformed, over full images and deltas alike, decoded through the
//! one reader. Each case must come back as the typed [`SnapshotError`]
//! it names — never a panic, never a restore.

use crate::error::SnapshotError;
use crate::format::{decode_chain, HEADER, MAX_TOTAL_BYTES};
use crate::wire::{fnv1a64, PAGE};
use crate::{restore_chain, snapshot_delta, snapshot_digest, snapshot_monitor};
use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_vmm::{Monitor, MonitorConfig, VmConfig};

/// What decoding a case must produce.
enum Want {
    /// The chain decodes: a control showing the rejections around it
    /// are not vacuous.
    Decodes,
    /// The chain is refused with an error this predicate accepts.
    Fails(fn(&SnapshotError) -> bool),
}

struct Case {
    name: String,
    /// The base image, then the deltas applied on top of it.
    chain: Vec<Vec<u8>>,
    /// Per-image materialization budget.
    budget: u64,
    want: Want,
}

fn case(name: impl Into<String>, chain: Vec<Vec<u8>>, want: Want) -> Case {
    Case {
        name: name.into(),
        chain,
        budget: MAX_TOTAL_BYTES,
        want,
    }
}

fn is_what(e: &SnapshotError, what: &str) -> bool {
    matches!(e, SnapshotError::Invalid { what: w } if *w == what)
}

/// A monitor running a real guest OS (timer interrupts, syscalls,
/// context switches, shadow fills), stopped part way.
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
    monitor.run(300_000);
    monitor
}

/// A monitor's base snapshot and a delta on it carrying exactly two
/// disjoint one-page extents and one byte of console output more than
/// the base.
fn base_and_delta() -> (Vec<u8>, Vec<u8>) {
    let mut m = Monitor::new(MonitorConfig::default());
    let vm = m.create_vm("guest", VmConfig::default());
    let base = snapshot_monitor(&m).expect("base");
    // Clear create_vm's own setup writes so exactly two runs remain.
    let _ = m.machine_mut().mem_mut().take_dirty_pages();
    m.vm_write_phys(vm, 0, &[1u8; 512]).expect("w");
    m.vm_write_phys(vm, 2048, &[2u8; 512]).expect("w");
    m.vm_mut(vm).console_out.push(b'!');
    let delta = snapshot_delta(&mut m, snapshot_digest(&base)).expect("delta");
    (base, delta)
}

/// Recomputes the payload checksum after a test edits the payload, so
/// the edit reaches the payload reader instead of the checksum.
fn resealed(mut bytes: Vec<u8>) -> Vec<u8> {
    let end = bytes.len() - 8;
    let checksum = fnv1a64(&bytes[HEADER..end]);
    bytes[end..].copy_from_slice(&checksum.to_le_bytes());
    bytes
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn with_u32(bytes: &[u8], at: usize, v: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
    resealed(b)
}

fn with_byte(bytes: &[u8], at: usize, f: impl Fn(u8) -> u8) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[at] = f(b[at]);
    b
}

fn cases() -> impl Iterator<Item = Case> {
    use SnapshotError as E;
    let full = snapshot_monitor(&os_monitor()).expect("snapshot");
    let mem_bytes = u64::from(MonitorConfig::default().mem_bytes);
    // What the tracked base decodes: its memory and its VM's disk.
    let base_budget = mem_bytes + u64::from(VmConfig::default().vdisk_sectors) * PAGE as u64;
    let (base, delta) = base_and_delta();
    let on_base = |d: Vec<u8>| vec![base.clone(), d];

    // The delta's extents end its payload: each is a start page, a page
    // count, one literal run header and the page itself.
    const EXTENT: usize = 4 + 4 + 1 + 4 + PAGE;
    let second = delta.len() - 8 - EXTENT;
    let first = second - EXTENT;
    assert_eq!(u32_at(&delta, first - 4), 2, "two disjoint runs");
    let mut swapped = delta.clone();
    swapped[first..second + EXTENT].rotate_left(EXTENT);
    let mem_pages = MonitorConfig::default().mem_bytes / PAGE as u32;

    let cases = vec![
        case("intact full image", vec![full.clone()], Want::Decodes),
        case(
            "full image: bad magic",
            vec![with_byte(&full, 0, |_| b'X')],
            Want::Fails(|e| matches!(e, E::BadMagic)),
        ),
        case(
            "full image: bad version",
            vec![with_byte(&full, 8, |_| 99)],
            Want::Fails(|e| matches!(e, E::UnsupportedVersion { found: 99 })),
        ),
        case(
            "full image: checksum",
            vec![with_byte(&full, full.len() - 9, |b| b ^ 1)],
            Want::Fails(|e| matches!(e, E::Checksum { .. })),
        ),
        case(
            "full image: trailing byte",
            vec![[full.as_slice(), &[0]].concat()],
            Want::Fails(|e| matches!(e, E::TrailingBytes)),
        ),
        case(
            "full image as a chain link",
            vec![full.clone(), full.clone()],
            Want::Fails(|e| is_what(e, "delta chain digest mismatch")),
        ),
        case(
            "unknown (magic, version): delta magic, current version",
            vec![[b"VAXDLT1\0".as_slice(), &full[8..]].concat()],
            Want::Fails(|e| matches!(e, E::UnsupportedVersion { found: 3 })),
        ),
        case(
            "unknown (magic, version): full image version 1",
            vec![with_byte(&full, 8, |_| 1)],
            Want::Fails(|e| matches!(e, E::UnsupportedVersion { found: 1 })),
        ),
        // Every field is within its individual cap; only the running
        // total trips. Memory alone consumes this budget, so the first
        // vdisk charge goes over.
        Case {
            budget: mem_bytes,
            ..case(
                "full image: budget of its memory alone",
                vec![full.clone()],
                Want::Fails(|e| is_what(e, "image over decode size budget")),
            )
        },
        // A budget below even the memory fails on the memory charge,
        // before its allocation.
        Case {
            budget: 1024,
            ..case(
                "full image: budget below its memory",
                vec![full.clone()],
                Want::Fails(|e| is_what(e, "image over decode size budget")),
            )
        },
        case("intact delta", on_base(delta.clone()), Want::Decodes),
        case(
            "delta: unsorted extents",
            on_base(resealed(swapped)),
            Want::Fails(|e| is_what(e, "extents unsorted or out of range")),
        ),
        case(
            "delta: overlapping extents",
            on_base(with_u32(&delta, second, u32_at(&delta, first))),
            Want::Fails(|e| is_what(e, "extents unsorted or out of range")),
        ),
        case(
            "delta: extent past the end of memory",
            on_base(with_u32(&delta, second, mem_pages)),
            Want::Fails(|e| is_what(e, "extents unsorted or out of range")),
        ),
        case(
            "delta: bad magic",
            on_base(with_byte(&delta, 0, |_| b'X')),
            Want::Fails(|e| matches!(e, E::BadMagic)),
        ),
        case(
            "delta: bad version",
            on_base(with_byte(&delta, 8, |_| 99)),
            Want::Fails(|e| matches!(e, E::UnsupportedVersion { found: 99 })),
        ),
        case(
            "delta: checksum",
            on_base(with_byte(&delta, delta.len() - 9, |b| b ^ 1)),
            Want::Fails(|e| matches!(e, E::Checksum { .. })),
        ),
        case(
            "delta: trailing byte",
            on_base([delta.as_slice(), &[0]].concat()),
            Want::Fails(|e| matches!(e, E::TrailingBytes)),
        ),
        case(
            "delta passed to restore_monitor",
            vec![delta.clone()],
            Want::Fails(|e| is_what(e, "image is a delta, not a full snapshot")),
        ),
        // Each image of a chain is charged on its own: a budget that
        // fits the base exactly is one console byte short for the
        // delta, which fails on the charge.
        Case {
            budget: base_budget,
            ..case("base within its budget", vec![base.clone()], Want::Decodes)
        },
        Case {
            budget: base_budget,
            ..case(
                "delta: budget one byte short",
                on_base(delta.clone()),
                Want::Fails(|e| is_what(e, "image over decode size budget")),
            )
        },
    ];
    // The sweeps build each case only when it runs, so the table never
    // holds thousands of image copies at once.
    let truncated = {
        let full = full.clone();
        (0..full.len()).step_by(13).map(move |cut| {
            case(
                format!("full image truncated to {cut} bytes"),
                vec![full[..cut].to_vec()],
                Want::Fails(|_| true),
            )
        })
    };
    // Single-byte corruption anywhere: everything after the header is
    // covered by the checksum; header damage has its own errors.
    let flipped = (0..full.len()).step_by(37).map(move |pos| {
        case(
            format!("full image: byte {pos} flipped"),
            vec![with_byte(&full, pos, |b| b ^ 0x5a)],
            Want::Fails(|_| true),
        )
    });
    let delta_truncated = (0..delta.len()).step_by(7).map(move |cut| {
        case(
            format!("delta truncated to {cut} bytes"),
            vec![base.clone(), delta[..cut].to_vec()],
            Want::Fails(|_| true),
        )
    });
    cases
        .into_iter()
        .chain(truncated)
        .chain(flipped)
        .chain(delta_truncated)
}

#[test]
fn every_hostile_image_is_a_typed_error_never_a_panic() {
    for case in cases() {
        let (base, deltas) = case.chain.split_first().expect("a base");
        let got = std::panic::catch_unwind(|| decode_chain(base, deltas, case.budget).map(|_| ()))
            .unwrap_or_else(|_| panic!("{}: the decoder panicked", case.name));
        match (&case.want, got) {
            (Want::Decodes, Ok(())) => {
                assert!(restore_chain(base, deltas).is_ok(), "{}", case.name)
            }
            (Want::Fails(accepts), Err(e)) => {
                assert!(accepts(&e), "{}: wrong error {e:?}", case.name)
            }
            (Want::Decodes, Err(e)) => panic!("{}: refused with {e:?}", case.name),
            (Want::Fails(_), Ok(())) => panic!("{}: decoded when it must be refused", case.name),
        }
    }
}
