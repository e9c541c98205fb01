//! Allocation bound on the VM-exit path, measured by a counting global
//! allocator.
//!
//! A VM-emulation trap hands the VMM the machine's own decode of the
//! trapped instruction, and an exception is reflected without building
//! its frame on the heap, so once the decode cache holds its segments
//! guests run through thousands of exits with next to no allocation.
//! The counts are per thread, so the tests in this binary may run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_vmm::{Monitor, MonitorConfig, RunExit, ShadowConfig, VmConfig};

/// Forwards to the system allocator, counting the allocations each
/// thread makes (a `realloc` counts as one).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the slot is gone while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; counting touches only a const-initialized
// thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations this thread made
/// meanwhile.
fn allocations_by<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Exits of every kind: emulation traps, exceptions and interrupts.
fn vm_exits(mon: &Monitor) -> u64 {
    let c = mon.machine().counters();
    c.vm_emulation_traps + c.vm_exception_exits + c.vm_interrupt_exits
}

/// Cycles run before counting: long enough for the decode cache to
/// allocate the segments the guests' code touches.
const WARM_UP: u64 = 300_000;
/// Cycles counted.
const WINDOW: u64 = 1_000_000;

#[test]
fn vm_exits_allocate_nothing_once_warm() {
    // The paper's §7.3 editing+transaction mix in two VMs with the §7.2
    // shadow cache, as the `e8_vm` benchmark runs it, with fewer
    // iterations: the guests are still busy when the window closes.
    let image = build_image(&OsConfig {
        nproc: 6,
        workload: Workload::EditTrans,
        iterations: 60,
        quantum_ticks: 3,
        tick_cycles: 2500,
        ..OsConfig::default()
    })
    .expect("the guest image builds");
    let vm_config = VmConfig {
        shadow: ShadowConfig {
            cache_slots: 8,
            ..ShadowConfig::default()
        },
        ..VmConfig::default()
    };
    let mut mon = Monitor::new(MonitorConfig::default());
    boot_in_monitor(&mut mon, &image, vm_config.clone());
    boot_in_monitor(&mut mon, &image, vm_config);
    assert_eq!(mon.run(WARM_UP), RunExit::BudgetExhausted);

    let exits_before = vm_exits(&mon);
    let (exit, allocations) = allocations_by(|| mon.run(WINDOW));
    let exits = vm_exits(&mon) - exits_before;
    assert_eq!(
        exit,
        RunExit::BudgetExhausted,
        "the guests ran the whole window"
    );
    assert!(exits >= 1000, "only {exits} VM exits in the window");
    assert!(
        allocations * 100 < exits,
        "{allocations} allocations over {exits} VM exits"
    );
}
