//! Simulated counts read from `Monitor::metrics()`: the deterministic
//! side of every op, checked against committed values or oracles and
//! reported per layer.

use crate::harness::ns_since;
use std::collections::BTreeMap;
use std::time::Instant;
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{Machine, StepEvent};
use vax_dev::SimDisk;
use vax_obs::ExitCause;
use vax_os::GuestImage;
use vax_vmm::Monitor;

/// Steps the image on a bare modified VAX, as `vax_os::run_bare` does,
/// for at most `max_cycles`, and returns guest instructions per host
/// second, in millions.
pub fn bare_mips(image: &GuestImage, max_cycles: u64) -> f64 {
    let mem_bytes = (image.mem_pages * 512).max(256 * 1024);
    let mut m = Machine::new(MachineVariant::Modified, mem_bytes);
    m.bus_mut().attach(
        vax_cpu::IO_BASE_PA,
        4096,
        Box::new(SimDisk::new(64, 2_000, 21, 0x100)),
    );
    for (gpa, bytes) in &image.segments {
        m.mem_mut().write_slice(*gpa, bytes).expect("image fits");
    }
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_pc(image.entry);
    let t = Instant::now();
    while m.cycles() < max_cycles && m.step() == StepEvent::Ok {}
    m.counters().instructions as f64 / (ns_since(t) / 1e9) / 1e6
}

/// Counter snapshot of one monitor (or a difference of two).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Machine cycles.
    pub cycles: u64,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Cycles charged to VMM emulation paths.
    pub vmm_cycles: u64,
    /// VM-to-VM world switches.
    pub world_switches: u64,
    /// Emulation traps, exception exits and interrupt exits.
    pub vm_exits: u64,
    /// Decode-cache hits.
    pub decode_hits: u64,
    /// Decode-cache misses.
    pub decode_misses: u64,
    /// TLB hits.
    pub tlb_hits: u64,
    /// TLB misses.
    pub tlb_misses: u64,
    /// Superblocks executed by the translation tier.
    pub trans_blocks: u64,
    /// Translation-tier side exits, every kind.
    pub trans_side_exits: u64,
    /// VMM exits per cause; only counted while `enable_obs` is on.
    pub exits: [u64; ExitCause::COUNT],
}

impl SimCounts {
    /// Reads the monitor's counters through its public metrics registry.
    pub fn of(mon: &Monitor) -> SimCounts {
        let m = mon.metrics();
        let c = |name: &str| m.get_counter(name).unwrap_or(0);
        let side_exits = [
            "interrupt",
            "bail",
            "smc",
            "tlb_miss",
            "prot",
            "modify",
            "page_cross",
            "io",
        ]
        .iter()
        .map(|k| c(&format!("trans_side_exit_{k}")))
        .sum();
        let mut exits = [0; ExitCause::COUNT];
        for cause in ExitCause::ALL {
            exits[cause.index()] = m
                .get_histogram(&format!("exit_cost_{}", cause.name()))
                .map_or(0, |h| h.count());
        }
        SimCounts {
            cycles: c("cycles"),
            instructions: c("instructions"),
            vmm_cycles: c("vmm_cycles"),
            world_switches: c("world_switches"),
            vm_exits: c("vm_exits"),
            decode_hits: c("decode_cache_hits"),
            decode_misses: c("decode_cache_misses"),
            tlb_hits: c("tlb_hits"),
            tlb_misses: c("tlb_misses"),
            trans_blocks: c("trans_blocks_executed"),
            trans_side_exits: side_exits,
            exits,
        }
    }

    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &SimCounts) -> SimCounts {
        let mut exits = [0; ExitCause::COUNT];
        for (i, e) in exits.iter_mut().enumerate() {
            *e = self.exits[i] - earlier.exits[i];
        }
        SimCounts {
            cycles: self.cycles - earlier.cycles,
            instructions: self.instructions - earlier.instructions,
            vmm_cycles: self.vmm_cycles - earlier.vmm_cycles,
            world_switches: self.world_switches - earlier.world_switches,
            vm_exits: self.vm_exits - earlier.vm_exits,
            decode_hits: self.decode_hits - earlier.decode_hits,
            decode_misses: self.decode_misses - earlier.decode_misses,
            tlb_hits: self.tlb_hits - earlier.tlb_hits,
            tlb_misses: self.tlb_misses - earlier.tlb_misses,
            trans_blocks: self.trans_blocks - earlier.trans_blocks,
            trans_side_exits: self.trans_side_exits - earlier.trans_side_exits,
            exits,
        }
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &SimCounts) {
        self.cycles += other.cycles;
        self.instructions += other.instructions;
        self.vmm_cycles += other.vmm_cycles;
        self.world_switches += other.world_switches;
        self.vm_exits += other.vm_exits;
        self.decode_hits += other.decode_hits;
        self.decode_misses += other.decode_misses;
        self.tlb_hits += other.tlb_hits;
        self.tlb_misses += other.tlb_misses;
        self.trans_blocks += other.trans_blocks;
        self.trans_side_exits += other.trans_side_exits;
        for (a, b) in self.exits.iter_mut().zip(other.exits) {
            *a += b;
        }
    }

    /// The `cpu.*` and `core.*` per-layer counters for `ops` ops whose
    /// counts sum to `self`.
    pub fn layer_metrics(&self, ops: u64, out: &mut BTreeMap<String, f64>) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let rate = |hit: u64, miss: u64| {
            if hit + miss == 0 {
                0.0
            } else {
                hit as f64 / (hit + miss) as f64
            }
        };
        out.insert("cpu.instructions_per_op".into(), per_op(self.instructions));
        out.insert(
            "cpu.decode_cache_hit_rate".into(),
            rate(self.decode_hits, self.decode_misses),
        );
        out.insert(
            "cpu.tlb_hit_rate".into(),
            rate(self.tlb_hits, self.tlb_misses),
        );
        out.insert(
            "cpu.trans_blocks_executed".into(),
            per_op(self.trans_blocks),
        );
        out.insert("cpu.trans_side_exits".into(), per_op(self.trans_side_exits));
        out.insert(
            "core.exits_per_kinstr".into(),
            self.vm_exits as f64 * 1000.0 / self.instructions.max(1) as f64,
        );
        for cause in ExitCause::ALL {
            out.insert(
                format!("core.exits.{}", cause.name()),
                per_op(self.exits[cause.index()]),
            );
        }
        out.insert("core.world_switches".into(), per_op(self.world_switches));
        out.insert("core.sim_cycles_per_op".into(), per_op(self.cycles));
        out.insert(
            "core.vmm_cycle_share".into(),
            self.vmm_cycles as f64 / self.cycles.max(1) as f64,
        );
    }
}
