//! Compile-time `Send` audit for the fleet executor (DESIGN.md §12).
//!
//! `Fleet::run_parallel` moves whole Monitors to worker threads, so
//! every layer a Monitor owns — the machine, its memory and MMU, the
//! MMIO bus and its boxed devices, the decode cache, the one
//! observability sink the machine owns —
//! must be `Send`. These are *compile-time* assertions: introducing an
//! `Rc`, a non-`Send` trait object (the historical offender was
//! `Box<dyn MmioDevice>` without `+ Send` on the bus), or raw-pointer
//! state anywhere in the ownership tree fails the build of this test,
//! not a run of it.

use vax_vmm::{Fleet, FleetReport, Monitor, MonitorOutcome, ObsSink, Vm, VmOutcome};

fn assert_send<T: Send>() {}

#[test]
fn vmm_ownership_tree_is_send() {
    // The fleet boundary itself.
    assert_send::<Fleet>();
    assert_send::<Monitor>();
    assert_send::<FleetReport>();
    assert_send::<MonitorOutcome>();
    assert_send::<VmOutcome>();
    // The layers a Monitor owns.
    assert_send::<vax_cpu::Machine>();
    assert_send::<vax_cpu::Bus>();
    assert_send::<vax_mem::Mmu>();
    assert_send::<Vm>();
    // The sink rides inside the machine, so a parallel fleet moves it
    // (ring, histograms, profiler and hot-block table) across threads.
    assert_send::<ObsSink>();
    assert_send::<vax_vmm::Obs>();
    assert_send::<vax_obs::Metrics>();
    // Devices travel inside the bus as boxed trait objects.
    assert_send::<vax_dev::SimDisk>();
    assert_send::<Box<dyn vax_cpu::MmioDevice + Send>>();
}
