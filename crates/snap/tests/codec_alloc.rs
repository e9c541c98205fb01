//! Allocation bounds on the snapshot codec, measured by a counting
//! global allocator.
//!
//! The writer reads pages straight from machine memory and the reader
//! decodes them straight into the memory being restored, so neither
//! stages a copy of it: a snapshot allocates its output and the
//! captured non-memory state, and a restore one memory plus the fresh
//! monitor around it. The counts are per thread, so the tests in this
//! binary may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vax_snap::{restore_monitor, snapshot_monitor};
use vax_vmm::{Monitor, MonitorConfig, RunExit, VmConfig};

/// Forwards to the system allocator, counting the bytes each thread
/// asks for (a `realloc` counts its new size).
struct Counting;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the bytes this thread allocated
/// meanwhile.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get) - before)
}

/// A MiniVMS guest booted to its orderly halt on the default 8 MiB
/// machine, as `vaxd` serves it.
fn booted() -> Monitor {
    let image = vax_os::build_image(&vax_os::OsConfig {
        nproc: 2,
        workload: vax_os::Workload::Compute,
        iterations: 4,
        ..vax_os::OsConfig::default()
    })
    .expect("image builds");
    let mut monitor = Monitor::new(MonitorConfig::default());
    vax_os::boot_in_monitor(&mut monitor, &image, VmConfig::default());
    assert_eq!(monitor.run(100_000_000), RunExit::AllHalted);
    monitor
}

#[test]
fn snapshot_allocates_less_than_the_machine_memory() {
    let monitor = booted();
    let mem_bytes = u64::from(monitor.machine().mem().size());
    let (bytes, allocated) = allocated_by(|| snapshot_monitor(&monitor).expect("snapshot"));
    assert!(
        allocated < mem_bytes,
        "snapshot_monitor allocated {allocated} bytes on a {mem_bytes}-byte machine"
    );
    assert_eq!(snapshot_monitor(&monitor).expect("again"), bytes);
}

#[test]
fn restore_allocates_less_than_two_machine_memories() {
    let monitor = booted();
    let mem_bytes = u64::from(monitor.machine().mem().size());
    let bytes = snapshot_monitor(&monitor).expect("snapshot");
    let (restored, allocated) = allocated_by(|| restore_monitor(&bytes).expect("restore"));
    assert!(
        allocated < 2 * mem_bytes,
        "restore_monitor allocated {allocated} bytes on a {mem_bytes}-byte machine"
    );
    assert_eq!(snapshot_monitor(&restored).expect("re-snapshot"), bytes);
}
