//! Allocation bounds on the fork path, measured by a counting global
//! allocator.
//!
//! A forked child must cost what it writes, not the machine's memory:
//! forking copies no page contents and zero-fills none, so the bytes a
//! fork allocates stay far below the machine's memory size. The counts
//! are per thread, so the tests in this binary may run in parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vax_arch::MachineVariant;
use vax_cpu::Machine;
use vaxd::WarmBase;

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

const MEM_BYTES: u32 = 8 * 1024 * 1024;

#[test]
fn fork_mem_allocates_a_page_table_not_a_memory() {
    let mut machine = Machine::new(MachineVariant::Modified, MEM_BYTES);
    machine.mem_mut().write_u32(0x1000, 0xdead_beef).unwrap();
    // The first fork turns the flat memory into the shared base; later
    // forks reuse it. Neither may copy or zero the 8 MiB.
    let (first, first_bytes) = allocated_by(|| machine.fork_mem());
    let (second, second_bytes) = allocated_by(|| machine.fork_mem());
    for bytes in [first_bytes, second_bytes] {
        assert!(
            bytes <= 256 * 1024,
            "fork_mem on {MEM_BYTES} bytes of memory allocated {bytes} bytes"
        );
    }
    assert_eq!(first.read_u32(0x1000).unwrap(), 0xdead_beef);
    assert_eq!(second, first);
}

#[test]
fn fork_child_allocates_less_than_the_machine_memory() {
    let mut base = WarmBase::boot_minivms("alloc", 2, 4, 100_000_000).expect("base boots");
    let mem_bytes = u64::from(base.parent_mem().size());
    drop(base.fork_child().expect("forks"));
    let (child, bytes) = allocated_by(|| base.fork_child().expect("forks"));
    assert!(
        bytes < mem_bytes,
        "fork_child allocated {bytes} bytes on a {mem_bytes}-byte machine"
    );
    // Beyond its page table (one word per page) a fork holds one copy of
    // each VM's captured state, virtual disk included: restore installs
    // the captured VM rather than building a default one to overwrite.
    let page_table = 4 * mem_bytes / 512;
    let disks: u64 = child
        .vm_ids()
        .map(|id| child.vm(id).vdisk.len() as u64 * 512)
        .sum();
    assert!(
        bytes < page_table + disks + 32 * 1024,
        "fork_child allocated {bytes} bytes: page table {page_table}, disks {disks}"
    );
    assert_eq!(
        child.machine().mem().resident_pages(),
        0,
        "a fork copies no page"
    );
}
