//! Working-set telemetry vs. two independent oracles, over the
//! monitor-fuzz corpus and all three execution tiers:
//!
//! * **Residency oracle (exact)**: forking the machine memory turns it
//!   into a copy-on-write overlay with zero resident pages, and overlay
//!   pages materialize on — and only on — writes. After a deterministic
//!   identical run, the resident-page set is an independent record of
//!   every page written, which must equal the profiler's view of
//!   touched pages (reset when the obs sink is switched on) exactly
//!   (same-value writes included).
//! * **Content-diff oracle (soundness)**: any page whose bytes changed
//!   over the run must be in the touched set. The converse doesn't hold —
//!   a write that stores the value already present dirties a page
//!   without changing bytes — which is why the residency oracle, not
//!   this one, checks exactness.

use proptest::prelude::*;
use vax_cpu::ExecTier;
use vax_vmm::{Monitor, MonitorConfig, VmConfig};

/// Builds the monitor_fuzz-corpus guest, booted but not yet run.
fn build(code: &[u8], scb_junk: u32, tier: ExecTier) -> Monitor {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every tier: the profiler's touched set == CoW residency
    /// oracle, and content-diff pages ⊆ touched set.
    #[test]
    fn dirty_pages_match_the_oracles(
        code in proptest::collection::vec(any::<u8>(), 1..512),
        scb_junk in any::<u32>(),
    ) {
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            // Run A: the sink (which resets the profiler's touched view)
            // on at boot; the pre-run page images feed the content-diff
            // check.
            let mut profiled = build(&code, scb_junk, tier);
            profiled.enable_obs(64);
            let pages = profiled.machine().mem().pages() as u32;
            let pre: Vec<Vec<u8>> = (0..pages)
                .map(|p| profiled.machine().mem().page(p).unwrap().to_vec())
                .collect();
            profiled.run(2_000_000);
            let dirty = profiled.machine().mem().touched_pages();

            // Run B: identical, but the machine memory becomes a CoW
            // overlay at the same point (the discarded child freezes
            // the pre-run contents as the shared base).
            let mut oracle = build(&code, scb_junk, tier);
            drop(oracle.machine_mut().fork_mem());
            oracle.run(2_000_000);
            let resident = oracle.machine().mem().resident_page_numbers();
            prop_assert_eq!(
                &dirty, &resident,
                "{:?}: touched set must equal the CoW residency oracle", tier
            );

            // Content diff: every page whose bytes changed must be
            // touched (`touched_pages` returns a sorted list).
            for pfn in 0..pages {
                let changed = profiled.machine().mem().page(pfn).unwrap()
                    != pre[pfn as usize].as_slice();
                if changed {
                    prop_assert!(
                        dirty.binary_search(&pfn).is_ok(),
                        "{:?}: page {:#x} changed content but is not dirty", tier, pfn
                    );
                }
            }
        }
    }
}
