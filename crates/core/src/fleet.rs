//! The fleet executor: many [`Monitor`]s, many host cores, one
//! determinism contract.
//!
//! The paper's VMM time-multiplexes every VM onto a single VAX CPU
//! (§5: quantum round-robin with the WAIT handshake), and [`Monitor`]
//! faithfully does the same — one machine, one dispatch loop. Scaling
//! *out* therefore shards whole Monitors: each one remains a
//! paper-faithful single-CPU VAX, and a [`Fleet`] drives N of them to
//! completion across a bounded pool of host threads. Monitors share no
//! state (each owns its machine, memory, devices, and VMs), so the
//! parallelism is embarrassing — which is exactly what makes the
//! headline contract provable:
//!
//! **Determinism.** [`Fleet::run_parallel`] must produce, for every
//! monitor, results bit-identical to [`Fleet::run_serial`] — cycles,
//! [`CpuCounters`], per-VM [`VmStats`], halt reasons, console bytes.
//! [`MonitorOutcome`] is `PartialEq` precisely so tests state this as
//! `assert_eq!(parallel.outcomes, serial.outcomes)`, mirroring the
//! existing cache-on/off and obs-on/off equivalence contracts
//! (DESIGN.md §9, §10). Host thread scheduling may reorder *which*
//! monitor runs when, never what any monitor computes.
//!
//! Work distribution is an atomic-claim queue: each worker claims the
//! next unstarted monitor index and runs it to completion. Claim order
//! affects only wall-clock interleaving; outcomes are indexed by
//! monitor, so the report is always in fleet order.

use crate::fault::VmmError;
use crate::monitor::{Monitor, RunExit, VmConfig, VmId};
use crate::vm::{IoStrategy, VmState, VmStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vax_arch::va::PAGE_BYTES;
use vax_cpu::{CpuCounters, ExecTier};
use vax_obs::Metrics;

/// What a pre-copy live migration did — the convergence record and the
/// downtime split [`Fleet::migrate_live`] reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveMigration {
    /// The VM's id on the target monitor.
    pub vm: VmId,
    /// Pre-copy rounds executed (source running).
    pub rounds: u32,
    /// The VM's memory size in pages — what stop-and-copy ships stopped.
    pub total_pages: u64,
    /// Dirty pages re-shipped across all pre-copy rounds (source
    /// running).
    pub precopy_pages: u64,
    /// Residual dirty pages shipped in the stop phase. The page-count
    /// proxy for downtime: pre-copy wins when this is far below
    /// `total_pages`.
    pub final_pages: u64,
    /// Wall-clock time the source was stopped (final ship + state
    /// transfer).
    pub downtime: Duration,
    /// Wall-clock time for the whole migration, pre-copy included.
    pub total: Duration,
}

/// Everything observable about one VM after a fleet run — the per-VM
/// half of the determinism contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmOutcome {
    /// The VM's display name.
    pub name: String,
    /// Run state at the end of the run.
    pub state: VmState,
    /// Full event statistics.
    pub stats: VmStats,
    /// Why fault containment halted the VM, if it did.
    pub halt_reason: Option<VmmError>,
    /// Accumulated virtual console output (not drained from the VM).
    pub console: Vec<u8>,
}

/// Everything observable about one monitor after a fleet run. Two
/// outcomes compare equal iff the runs were bit-identical in every
/// architectural counter, accounting cell, and guest-visible byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorOutcome {
    /// Why the monitor's run returned.
    pub exit: RunExit,
    /// The machine clock at the end of the run.
    pub cycles: u64,
    /// Architectural event counters.
    pub counters: CpuCounters,
    /// Cycles spent in VMM emulation paths.
    pub vmm_cycles: u64,
    /// VM-to-VM world switches performed.
    pub world_switches: u64,
    /// Per-VM outcomes, in creation order.
    pub vms: Vec<VmOutcome>,
}

/// The result of one fleet run: per-monitor outcomes in fleet order,
/// plus the host wall-clock the run took. `wall` is intentionally kept
/// out of any equality: it is the one thing parallelism *is* allowed to
/// change.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Worker threads the run used (1 for serial).
    pub jobs: usize,
    /// Host wall-clock time for the whole fleet.
    pub wall: Duration,
    /// One outcome per monitor, indexed exactly like the fleet.
    pub outcomes: Vec<MonitorOutcome>,
}

impl FleetReport {
    /// Total simulated instructions retired across the fleet.
    pub fn total_instructions(&self) -> u64 {
        self.outcomes.iter().map(|o| o.counters.instructions).sum()
    }

    /// Total simulated cycles across the fleet.
    pub fn total_cycles(&self) -> u64 {
        self.outcomes.iter().map(|o| o.cycles).sum()
    }

    /// Aggregate simulated instructions per host wall-clock second.
    pub fn instrs_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.total_instructions() as f64 / secs
        } else {
            0.0
        }
    }
}

/// One monitor plus the outcome of its (single) run, behind a mutex so
/// a worker can claim it. The monitor is never removed from the cell,
/// which keeps the collection path total without unwraps.
struct Cell {
    monitor: Monitor,
    outcome: Option<MonitorOutcome>,
}

/// Locks a cell, treating poison as recoverable: a poisoned cell only
/// means another worker panicked mid-run, and the collector re-runs any
/// cell left without an outcome.
fn lock_cell(cell: &Mutex<Cell>) -> MutexGuard<'_, Cell> {
    cell.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A set of independent [`Monitor`]s executed together — serially as
/// the reference semantics, or across a bounded thread pool with
/// bit-identical per-monitor results.
///
/// # Example
///
/// ```
/// use vax_vmm::{Fleet, Monitor, MonitorConfig, VmConfig};
///
/// let program = vax_asm::assemble_text("halt", 0x1000)?;
/// let mut fleet = Fleet::new();
/// for i in 0..4 {
///     let mut monitor = Monitor::new(MonitorConfig::default());
///     let vm = monitor.create_vm(&format!("guest{i}"), VmConfig::default());
///     monitor.vm_write_phys(vm, 0x1000, &program.bytes)?;
///     monitor.boot_vm(vm, 0x1000);
///     fleet.push(monitor);
/// }
/// let serial = fleet.run_serial(100_000);
/// let parallel = fleet.run_parallel(100_000, 2);
/// assert_eq!(serial.outcomes, parallel.outcomes);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Default)]
pub struct Fleet {
    members: Vec<Monitor>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new() -> Fleet {
        Fleet::default()
    }

    /// Adds a fully configured monitor; returns its fleet index.
    pub fn push(&mut self, monitor: Monitor) -> usize {
        self.members.push(monitor);
        self.members.len() - 1
    }

    /// Number of monitors in the fleet.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the fleet has no monitors.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// A member monitor (for inspection after a run).
    pub fn monitor(&self, index: usize) -> &Monitor {
        &self.members[index]
    }

    /// A member monitor, mutable (setup between runs).
    pub fn monitor_mut(&mut self, index: usize) -> &mut Monitor {
        &mut self.members[index]
    }

    /// Selects the execution tier on every member monitor, so
    /// `--exec-tier` applies fleet-wide before [`Fleet::run_parallel`].
    /// Per-monitor outcomes stay bit-identical across tiers (the same
    /// determinism contract parallelism is held to).
    pub fn set_exec_tier(&mut self, tier: ExecTier) {
        for m in &mut self.members {
            m.set_exec_tier(tier);
        }
    }

    /// Enables (`Some(interval)`) or disables (`None`) cycle-attributed
    /// profiling on every member. Profile families flow through
    /// [`Fleet::fleet_metrics`]'s counter/histogram merge, so a parallel
    /// run yields fleet-wide profiles with no extra plumbing.
    pub fn set_profiling(&mut self, sample_interval: Option<u64>) {
        for m in &mut self.members {
            match sample_interval {
                Some(interval) => m.enable_profiling(interval),
                None => m.disable_profiling(),
            }
        }
    }

    /// Snapshots one monitor's observable end state.
    fn outcome(monitor: &Monitor, exit: RunExit) -> MonitorOutcome {
        let vms = monitor
            .vm_ids()
            .map(|id| {
                let vm = monitor.vm(id);
                VmOutcome {
                    name: vm.name.clone(),
                    state: vm.state,
                    stats: vm.stats,
                    halt_reason: vm.halt_reason,
                    console: vm.console_out.clone(),
                }
            })
            .collect();
        MonitorOutcome {
            exit,
            cycles: monitor.machine().cycles(),
            counters: monitor.machine().counters(),
            vmm_cycles: monitor.vmm_cycles(),
            world_switches: monitor.world_switches(),
            vms,
        }
    }

    /// Runs every monitor to `budget` cycles (or all-halted) on the
    /// calling thread, in fleet order. This is the reference semantics
    /// the parallel mode is proven against.
    pub fn run_serial(&mut self, budget: u64) -> FleetReport {
        let start = Instant::now();
        let outcomes = self
            .members
            .iter_mut()
            .map(|m| {
                let exit = m.run(budget);
                Self::outcome(m, exit)
            })
            .collect();
        FleetReport {
            jobs: 1,
            wall: start.elapsed(),
            outcomes,
        }
    }

    /// Runs every monitor to `budget` cycles (or all-halted) across at
    /// most `jobs` worker threads, returning outcomes in fleet order.
    ///
    /// Per-monitor results are bit-identical to [`Fleet::run_serial`]:
    /// monitors share nothing, each is claimed by exactly one worker,
    /// and each runs exactly the code the serial mode runs. `jobs` is
    /// clamped to `1..=fleet size`.
    pub fn run_parallel(&mut self, budget: u64, jobs: usize) -> FleetReport {
        let n = self.members.len();
        let jobs = jobs.clamp(1, n.max(1));
        let start = Instant::now();
        let cells: Vec<Mutex<Cell>> = std::mem::take(&mut self.members)
            .into_iter()
            .map(|monitor| {
                Mutex::new(Cell {
                    monitor,
                    outcome: None,
                })
            })
            .collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    // Each index is claimed once, so this lock is
                    // uncontended; it exists to move the Monitor across
                    // the thread boundary safely.
                    let mut cell = lock_cell(&cells[i]);
                    let exit = cell.monitor.run(budget);
                    cell.outcome = Some(Self::outcome(&cell.monitor, exit));
                });
            }
        });
        let mut outcomes = Vec::with_capacity(n);
        for cell in cells {
            let mut cell = cell.into_inner().unwrap_or_else(PoisonError::into_inner);
            // A cell can lack an outcome only if its worker died before
            // finishing; run it here so the report stays total (the
            // monitor itself is deterministic, so this is equivalent).
            let outcome = match cell.outcome.take() {
                Some(o) => o,
                None => {
                    let exit = cell.monitor.run(budget);
                    Self::outcome(&cell.monitor, exit)
                }
            };
            outcomes.push(outcome);
            self.members.push(cell.monitor);
        }
        FleetReport {
            jobs,
            wall: start.elapsed(),
            outcomes,
        }
    }

    /// Moves a VM from one monitor to another — live migration as
    /// snapshot-plus-restore over the fleet's own memory (DESIGN.md §13).
    ///
    /// The VM's complete guest-visible state crosses: registers,
    /// privileged state, the guest-physical memory image, the virtual
    /// disk, console buffers, statistics, and any pending events
    /// (timestamps are rebased by the clock delta between the two
    /// machines, preserving relative latency). The target admits it
    /// through the normal creation path, so shadow tables start null and
    /// refill on demand — the migrated guest computes bit-identically,
    /// while the *monitor*-level accounting (world switches, fill
    /// counts) lawfully differs from an unmigrated run. The source slot
    /// is left halted at its virtual console; slot indices on both
    /// monitors remain stable.
    ///
    /// # Errors
    ///
    /// [`VmmError::Snapshot`] for bad indices, an `EmulatedMmio` VM
    /// (its device state lives on the source bus and cannot be
    /// extracted), or a target monitor without enough free real memory
    /// to admit the VM; [`VmmError::Internal`] if the source memory
    /// image is unreadable (a VMM bug, not a guest condition). On any
    /// error the source VM is untouched.
    pub fn migrate(&mut self, vm: VmId, from: usize, to: usize) -> Result<VmId, VmmError> {
        self.check_migration(vm, from, to)?;
        let memory = self.read_vm_memory(vm, from)?;
        self.admit_migrated(vm, from, to, memory)
    }

    /// Shared migration preflight: index validity and extractability.
    fn check_migration(&self, vm: VmId, from: usize, to: usize) -> Result<(), VmmError> {
        if from >= self.members.len() || to >= self.members.len() {
            return Err(VmmError::Snapshot {
                what: "migration monitor index out of range",
            });
        }
        if from == to {
            return Err(VmmError::Snapshot {
                what: "migration source and target are the same monitor",
            });
        }
        if vm.0 >= self.members[from].vm_count() {
            return Err(VmmError::Snapshot {
                what: "migration VM id out of range",
            });
        }
        if self.members[from].vm(vm).io_strategy == IoStrategy::EmulatedMmio {
            return Err(VmmError::Snapshot {
                what: "cannot migrate an EmulatedMmio VM",
            });
        }
        Ok(())
    }

    /// The VM's guest-physical window on the source's real machine:
    /// (machine byte address of gpa 0, machine page of gpa 0, size).
    fn vm_window(&self, vm: VmId, from: usize) -> Result<(u32, u32, u32), VmmError> {
        let v = self.members[from].vm(vm);
        let pa = v
            .gpa_to_pa_len(0, v.mem_bytes())
            .ok_or(VmmError::Internal {
                what: "migration source memory out of machine range",
            })?;
        Ok((pa, pa / PAGE_BYTES, v.mem_bytes()))
    }

    /// Copies out the VM's full guest-physical memory image.
    fn read_vm_memory(&self, vm: VmId, from: usize) -> Result<Vec<u8>, VmmError> {
        let (pa, _, len) = self.vm_window(vm, from)?;
        Ok(self.members[from]
            .machine()
            .mem()
            .read_slice(pa, len)
            .map_err(|_| VmmError::Internal {
                what: "migration source memory unreadable",
            })?
            .into_owned())
    }

    /// The stop phase shared by stop-and-copy and pre-copy migration:
    /// given the (already assembled) guest memory image, moves the VM's
    /// state to the target, replays the SLR shadow setup, and halts the
    /// source slot. `check_migration` must have passed.
    fn admit_migrated(
        &mut self,
        vm: VmId,
        from: usize,
        to: usize,
        memory: Vec<u8>,
    ) -> Result<VmId, VmmError> {
        let source_now = self.members[from].machine().cycles();
        let target_now = self.members[to].machine().cycles();
        let source_tracking = self.members[from].dirty_tracking_enabled();
        let (mut image, shadow) = {
            let src = &self.members[from];
            (src.vm(vm).clone(), src.shadow(vm).config())
        };
        // Event timestamps are in source machine cycles; rebase them so
        // the remaining latency carries over to the target clock.
        if let VmState::Idle { until } = image.state {
            image.state = VmState::Idle {
                until: target_now + until.saturating_sub(source_now),
            };
        }
        if let Some((at, irq, status_gpa)) = image.vdisk_pending {
            image.vdisk_pending =
                Some((target_now + at.saturating_sub(source_now), irq, status_gpa));
        }
        let config = VmConfig {
            mem_pages: image.mem_pages,
            shadow,
            io_strategy: image.io_strategy,
            dirty_strategy: image.dirty_strategy,
            vdisk_sectors: image.vdisk.len() as u32,
        };
        let dst = &mut self.members[to];
        // Admission control: create_vm's frame allocator asserts when
        // real memory runs out (fixed allocation, no paging), so a
        // target without room must be refused here — an error, not a
        // host panic. Mirrors the check snapshot restore applies.
        if Monitor::admission_frames(&config) > u64::from(dst.frames_remaining()) {
            return Err(VmmError::Snapshot {
                what: "VM does not fit in target monitor",
            });
        }
        let new_id = dst.create_vm(&image.name, config);
        dst.vm_write_phys(new_id, 0, &memory)?;
        image.mem_base_pfn = dst.vm(new_id).mem_base_pfn;
        *dst.vm_mut(new_id) = image;
        // The guest opened its S window with an MTPR to SLR on the
        // source; the fresh shadow set here never saw that MTPR, so
        // replay it. Without this, S-space touches after migration
        // raise access violations (the creation-time "no SLR yet"
        // protection) instead of fillable translation faults.
        let slot = &mut dst.vms[new_id.0];
        let slr = slot.vm.guest_slr;
        slot.shadow.reset_guest_s(&mut dst.machine, slr);
        // A tracked source means someone (an incremental-snapshot chain,
        // a profiler) depends on dirty-page telemetry following the
        // workload — carry the enablement to the target instead of
        // silently dropping it.
        if source_tracking && !self.members[to].dirty_tracking_enabled() {
            self.members[to].enable_dirty_tracking();
        }
        self.members[from].vm_mut(vm).state = VmState::ConsoleHalt;
        Ok(new_id)
    }

    /// Live-migrates a VM with iterative pre-copy (DESIGN.md §16).
    ///
    /// Stop-and-copy ([`Fleet::migrate`]) freezes the source for the
    /// whole memory copy. Pre-copy ships the full memory image while the
    /// source keeps executing, then converges in rounds: run the source
    /// for `round_budget` cycles, drain the write tracker, re-ship only
    /// the pages the guest dirtied. The source is stopped only for the
    /// *final* round, so downtime covers the residual dirty set plus the
    /// register-state transfer — O(last round's dirty pages), not
    /// O(memory).
    ///
    /// Termination policy: rounds end when the dirty set falls to at
    /// most `max(total_pages / 64, 1)` pages (the residual is cheaper to
    /// ship stopped than to chase), when a round stops shrinking the set
    /// (the guest dirties faster than a round ships — more pre-copy is
    /// pure overhead), or after `max_rounds` (a hard bound so a hostile
    /// writer cannot stall migration forever).
    ///
    /// Write tracking is enabled on the source for the duration if it
    /// was off, and restored afterwards; note that the rounds *drain*
    /// the source's dirty set, so an incremental-snapshot chain on the
    /// source must be re-based afterwards. The migrated guest computes
    /// bit-identically to a stop-and-copy migration at the same stop
    /// point; the source's extra `run` cycles are the lawful difference.
    ///
    /// # Errors
    ///
    /// The same conditions as [`Fleet::migrate`]. On error the source VM
    /// keeps running (tracking enablement is restored).
    pub fn migrate_live(
        &mut self,
        vm: VmId,
        from: usize,
        to: usize,
        round_budget: u64,
        max_rounds: u32,
    ) -> Result<LiveMigration, VmmError> {
        let start = Instant::now();
        self.check_migration(vm, from, to)?;
        let (_, first_pfn, mem_bytes) = self.vm_window(vm, from)?;
        let total_pages = u64::from(mem_bytes / PAGE_BYTES);
        let was_tracking = self.members[from].dirty_tracking_enabled();
        if !was_tracking {
            self.members[from].enable_dirty_tracking();
        }
        // Clear dirt older than the baseline copy: everything below is
        // captured by the full-memory read, so only writes after this
        // drain need re-shipping.
        let _ = self.members[from]
            .machine_mut()
            .mem_mut()
            .take_dirty_pages();
        let restore_tracking = |fleet: &mut Fleet| {
            if !was_tracking {
                fleet.members[from].disable_dirty_tracking();
            }
        };
        let mut staging = match self.read_vm_memory(vm, from) {
            Ok(m) => m,
            Err(e) => {
                restore_tracking(self);
                return Err(e);
            }
        };
        let threshold = (total_pages / 64).max(1);
        let mut rounds = 0u32;
        let mut precopy_pages = 0u64;
        let mut last_dirty = u64::MAX;
        while rounds < max_rounds {
            let exit = self.members[from].run(round_budget);
            rounds += 1;
            let shipped = self.ship_dirty(vm, from, first_pfn, total_pages, &mut staging);
            precopy_pages += shipped;
            if shipped <= threshold || shipped >= last_dirty || exit == RunExit::AllHalted {
                break;
            }
            last_dirty = shipped;
        }
        // Stop phase: the source no longer runs; everything from here to
        // the target resuming is downtime.
        let stop = Instant::now();
        let final_pages = self.ship_dirty(vm, from, first_pfn, total_pages, &mut staging);
        restore_tracking(self);
        let new_id = self.admit_migrated(vm, from, to, staging)?;
        Ok(LiveMigration {
            vm: new_id,
            rounds,
            total_pages,
            precopy_pages,
            final_pages,
            downtime: stop.elapsed(),
            total: start.elapsed(),
        })
    }

    /// Drains the source tracker and re-copies the dirtied pages inside
    /// the VM's window into the staging image. Returns pages shipped.
    fn ship_dirty(
        &mut self,
        _vm: VmId,
        from: usize,
        first_pfn: u32,
        total_pages: u64,
        staging: &mut [u8],
    ) -> u64 {
        let dirty = self.members[from]
            .machine_mut()
            .mem_mut()
            .take_dirty_pages();
        let mem = self.members[from].machine().mem();
        let mut shipped = 0u64;
        for pfn in dirty {
            // The tracker covers the whole real machine; only pages in
            // this VM's window travel.
            if pfn < first_pfn || u64::from(pfn - first_pfn) >= total_pages {
                continue;
            }
            if let Some(page) = mem.page(pfn) {
                let off = (pfn - first_pfn) as usize * PAGE_BYTES as usize;
                staging[off..off + PAGE_BYTES as usize].copy_from_slice(page);
                shipped += 1;
            }
        }
        shipped
    }

    /// Per-monitor metrics registries, in fleet order — the breakdown
    /// half of `--metrics-out` in fleet mode.
    pub fn per_monitor_metrics(&self) -> Vec<Metrics> {
        self.members.iter().map(Monitor::metrics).collect()
    }

    /// Fleet-wide metrics: every monitor's registry merged (counters
    /// summed, per-cause cost histograms folded), with rate gauges
    /// recomputed from the merged counters and a `fleet_monitors`
    /// counter recording the fleet size.
    pub fn fleet_metrics(&self) -> Metrics {
        let mut agg = Metrics::new();
        for m in &self.members {
            agg.merge(&m.metrics());
        }
        agg.counter("fleet_monitors", self.members.len() as u64);
        let hits = agg.get_counter("tlb_hits").unwrap_or(0);
        let misses = agg.get_counter("tlb_misses").unwrap_or(0);
        let rate = (hits + misses > 0).then(|| hits as f64 / (hits + misses) as f64);
        agg.gauge("tlb_hit_rate", rate);
        for tier in ExecTier::ALL {
            let members = self.members.iter().filter(|m| m.exec_tier() == tier);
            agg.labeled_gauge("exec_tier", "tier", tier.name(), members.count() as f64);
        }
        // Merge drops gauges by design; the fleet-wide dirty/touched
        // levels are the sums of the per-monitor levels (disjoint
        // memories), recomputed here from the sources.
        let tracked: Vec<&Monitor> = self
            .members
            .iter()
            .filter(|m| m.dirty_tracking_enabled())
            .collect();
        if !tracked.is_empty() {
            let dirty: u64 = tracked
                .iter()
                .map(|m| u64::from(m.machine().mem().dirty_page_count()))
                .sum();
            let touched: u64 = tracked
                .iter()
                .map(|m| u64::from(m.machine().mem().touched_page_count()))
                .sum();
            agg.gauge("dirty_pages", Some(dirty as f64));
            agg.gauge("touched_pages", Some(touched as f64));
        }
        agg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::{MonitorConfig, VmConfig};

    /// Compile-time Send audit: a Monitor (and everything inside it)
    /// must be movable to a worker thread. A regression — an Rc, a
    /// non-Send trait object on the bus — fails this at build time.
    fn _assert_send<T: Send>() {}
    #[allow(dead_code)]
    fn _fleet_types_are_send() {
        _assert_send::<Monitor>();
        _assert_send::<Fleet>();
        _assert_send::<MonitorOutcome>();
        _assert_send::<FleetReport>();
    }

    fn counting_monitor(iters: u32) -> Monitor {
        let src = format!(
            "
                movl #{iters}, r2
            top:
                addl2 #3, r3
                sobgtr r2, top
                halt
            "
        );
        let program = vax_asm::assemble_text(&src, 0x1000).unwrap();
        let mut monitor = Monitor::new(MonitorConfig::default());
        let vm = monitor.create_vm("count", VmConfig::default());
        monitor.vm_write_phys(vm, 0x1000, &program.bytes).unwrap();
        monitor.boot_vm(vm, 0x1000);
        monitor
    }

    fn fleet_of(sizes: &[u32]) -> Fleet {
        let mut fleet = Fleet::new();
        for &iters in sizes {
            fleet.push(counting_monitor(iters));
        }
        fleet
    }

    const SIZES: [u32; 5] = [100, 2_000, 50, 700, 1_300];

    #[test]
    fn parallel_matches_serial_bit_for_bit() {
        let serial = fleet_of(&SIZES).run_serial(10_000_000);
        for jobs in [1, 2, 5, 64] {
            let mut fleet = fleet_of(&SIZES);
            let parallel = fleet.run_parallel(10_000_000, jobs);
            assert_eq!(parallel.outcomes, serial.outcomes, "jobs = {jobs}");
            assert_eq!(fleet.len(), SIZES.len(), "monitors returned to the fleet");
        }
        // Different workloads genuinely produced different outcomes, so
        // the equality above is not vacuous.
        assert_ne!(serial.outcomes[0], serial.outcomes[1]);
    }

    #[test]
    fn exec_tiers_are_invisible_to_fleet_outcomes() {
        // The same fleet must produce bit-identical outcomes under every
        // execution tier, serial and parallel alike — the three-way
        // equivalence contract extended to fleet scale.
        let reference = fleet_of(&SIZES).run_serial(10_000_000);
        for tier in [ExecTier::Interp, ExecTier::Cache, ExecTier::Trans] {
            let mut fleet = fleet_of(&SIZES);
            fleet.set_exec_tier(tier);
            assert!(fleet.members.iter().all(|m| m.exec_tier() == tier));
            let mut serial_fleet = fleet_of(&SIZES);
            serial_fleet.set_exec_tier(tier);
            let serial = serial_fleet.run_serial(10_000_000);
            let parallel = fleet.run_parallel(10_000_000, 3);
            assert_eq!(serial.outcomes, reference.outcomes, "{tier:?} serial");
            assert_eq!(parallel.outcomes, reference.outcomes, "{tier:?} parallel");
        }
    }

    #[test]
    fn outcomes_keep_fleet_order_and_monitors_stay_inspectable() {
        let mut fleet = fleet_of(&SIZES);
        let report = fleet.run_parallel(10_000_000, 3);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.exit, RunExit::AllHalted);
            assert_eq!(
                outcome.cycles,
                fleet.monitor(i).machine().cycles(),
                "outcome {i} is the monitor at index {i}"
            );
        }
        // More iterations, more instructions: order was preserved.
        let instrs: Vec<u64> = report
            .outcomes
            .iter()
            .map(|o| o.counters.instructions)
            .collect();
        assert!(instrs[1] > instrs[0] && instrs[1] > instrs[3]);
        assert_eq!(report.total_instructions(), instrs.iter().sum::<u64>());
    }

    #[test]
    fn fleet_metrics_sum_per_monitor_registries() {
        let mut fleet = fleet_of(&SIZES);
        fleet.run_serial(10_000_000);
        let per = fleet.per_monitor_metrics();
        let agg = fleet.fleet_metrics();
        for name in ["instructions", "cycles", "vm_emulation_traps"] {
            let sum: u64 = per.iter().filter_map(|m| m.get_counter(name)).sum();
            assert_eq!(agg.get_counter(name), Some(sum), "{name}");
        }
        assert_eq!(agg.get_counter("fleet_monitors"), Some(SIZES.len() as u64));
    }

    #[test]
    fn migrate_preserves_guest_computation() {
        // Uninterrupted reference run.
        let mut reference = counting_monitor(200_000);
        reference.run(1_000_000_000);
        let rid = reference.vm_ids().next().expect("one VM");
        assert_eq!(reference.vm(rid).state, VmState::ConsoleHalt);
        let expected_r3 = reference.vm(rid).regs[3];
        assert_eq!(expected_r3, 3 * 200_000);

        // Same workload, but moved to a different monitor mid-loop.
        let mut fleet = Fleet::new();
        fleet.push(counting_monitor(200_000));
        fleet.push(Monitor::new(MonitorConfig::default()));
        fleet.monitor_mut(0).run(50_000);
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        assert_eq!(fleet.monitor(0).vm(vm).state, VmState::Ready, "mid-run");
        let moved = fleet.migrate(vm, 0, 1).expect("migrates");
        assert_eq!(fleet.monitor(0).vm(vm).state, VmState::ConsoleHalt);
        fleet.monitor_mut(1).run(1_000_000_000);
        let m = fleet.monitor(1).vm(moved);
        assert_eq!(m.state, VmState::ConsoleHalt);
        assert_eq!(m.regs[3], expected_r3);
        assert!(m.halt_reason.is_none());
    }

    #[test]
    fn migrate_rejects_bad_requests() {
        let mut fleet = fleet_of(&[10, 10]);
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        for (from, to) in [(0, 5), (5, 0), (0, 0)] {
            assert!(
                matches!(fleet.migrate(vm, from, to), Err(VmmError::Snapshot { .. })),
                "{from} -> {to}"
            );
        }
        let mut mmio = Monitor::new(MonitorConfig::default());
        let mvm = mmio.create_vm(
            "mmio",
            VmConfig {
                io_strategy: IoStrategy::EmulatedMmio,
                ..VmConfig::default()
            },
        );
        let idx = fleet.push(mmio);
        assert!(matches!(
            fleet.migrate(mvm, idx, 0),
            Err(VmmError::Snapshot { .. })
        ));
    }

    #[test]
    fn migrate_into_a_full_monitor_is_an_error_not_a_panic() {
        // The target's 64 KiB of real memory cannot admit a default
        // 256 KiB VM; migrate must refuse before the frame allocator
        // asserts, leaving both monitors untouched.
        let mut fleet = Fleet::new();
        fleet.push(counting_monitor(10));
        fleet.push(Monitor::new(MonitorConfig {
            mem_bytes: 64 * 1024,
            ..MonitorConfig::default()
        }));
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        assert!(matches!(
            fleet.migrate(vm, 0, 1),
            Err(VmmError::Snapshot {
                what: "VM does not fit in target monitor"
            })
        ));
        assert_eq!(fleet.monitor(0).vm(vm).state, VmState::Ready);
        assert_eq!(fleet.monitor(1).vm_count(), 0);

        // A roomy target still admits it — the check is not over-strict.
        fleet.push(Monitor::new(MonitorConfig::default()));
        fleet.migrate(vm, 0, 2).expect("fits");
    }

    #[test]
    fn migrate_live_preserves_guest_computation() {
        // Uninterrupted reference run.
        let mut reference = counting_monitor(200_000);
        reference.run(1_000_000_000);
        let rid = reference.vm_ids().next().expect("one VM");
        let expected_r3 = reference.vm(rid).regs[3];
        assert_eq!(expected_r3, 3 * 200_000);

        // Same workload, pre-copy migrated mid-loop. The source keeps
        // executing during the rounds; the target finishes the rest.
        let mut fleet = Fleet::new();
        fleet.push(counting_monitor(200_000));
        fleet.push(Monitor::new(MonitorConfig::default()));
        fleet.monitor_mut(0).run(50_000);
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        let report = fleet.migrate_live(vm, 0, 1, 25_000, 8).expect("migrates");
        assert_eq!(fleet.monitor(0).vm(vm).state, VmState::ConsoleHalt);
        assert!(report.rounds >= 1 && report.rounds <= 8);
        // The compute loop dirties almost nothing, so the stop phase
        // ships a small residue — the whole point of pre-copy.
        assert!(
            report.final_pages < report.total_pages,
            "stop phase shipped {} of {} pages",
            report.final_pages,
            report.total_pages
        );
        // Tracking was borrowed for the migration, not leaked.
        assert!(!fleet.monitor(0).dirty_tracking_enabled());
        fleet.monitor_mut(1).run(1_000_000_000);
        let m = fleet.monitor(1).vm(report.vm);
        assert_eq!(m.state, VmState::ConsoleHalt);
        assert_eq!(m.regs[3], expected_r3);
        assert!(m.halt_reason.is_none());
    }

    #[test]
    fn migrate_carries_write_tracking_to_the_target() {
        // A tracked source means a snapshot chain or profiler depends on
        // dirty telemetry following the workload: both migration paths
        // must arm the target rather than silently going dark.
        for live in [false, true] {
            let mut fleet = Fleet::new();
            fleet.push(counting_monitor(1_000));
            fleet.push(Monitor::new(MonitorConfig::default()));
            fleet.monitor_mut(0).enable_dirty_tracking();
            let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
            if live {
                fleet.migrate_live(vm, 0, 1, 10_000, 4).expect("migrates");
            } else {
                fleet.migrate(vm, 0, 1).expect("migrates");
            }
            assert!(
                fleet.monitor(1).dirty_tracking_enabled(),
                "live={live}: target must be tracking"
            );
            assert!(
                fleet.monitor(0).dirty_tracking_enabled(),
                "live={live}: source enablement untouched"
            );
        }
        // An untracked source migrates without arming anything.
        let mut fleet = Fleet::new();
        fleet.push(counting_monitor(1_000));
        fleet.push(Monitor::new(MonitorConfig::default()));
        let vm = fleet.monitor(0).vm_ids().next().expect("one VM");
        fleet.migrate(vm, 0, 1).expect("migrates");
        assert!(!fleet.monitor(1).dirty_tracking_enabled());
    }

    #[test]
    fn empty_fleet_runs() {
        let mut fleet = Fleet::new();
        assert!(fleet.is_empty());
        let serial = fleet.run_serial(1_000);
        let parallel = fleet.run_parallel(1_000, 4);
        assert!(serial.outcomes.is_empty() && parallel.outcomes.is_empty());
        assert_eq!(fleet.fleet_metrics().get_counter("fleet_monitors"), Some(0));
    }
}
