//! Committed simulated counts. Simulated time is the paper-fidelity
//! metric: no change that only speeds up the simulator may move these.
//! Regenerate with `--print-reference` only for a change that states
//! why simulated behaviour moved.

use crate::sim::SimCounts;
use vax_obs::ExitCause;

/// One `e8_vm` job's counts for a given per-process iteration count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct E8Ref {
    /// Per-process iterations of the guest build.
    pub iterations: u32,
    /// Machine cycles for the whole job.
    pub cycles: u64,
    /// Guest instructions retired.
    pub instructions: u64,
    /// Cycles charged to VMM emulation paths.
    pub vmm_cycles: u64,
    /// VM-to-VM world switches.
    pub world_switches: u64,
    /// Emulation traps, exception exits and interrupt exits.
    pub vm_exits: u64,
    /// VMM exits per `ExitCause`, in `ExitCause::ALL` order.
    pub exits: [u64; ExitCause::COUNT],
}

impl E8Ref {
    /// The reference fields of a job's counts.
    pub fn from_counts(iterations: u32, c: &SimCounts) -> E8Ref {
        E8Ref {
            iterations,
            cycles: c.cycles,
            instructions: c.instructions,
            vmm_cycles: c.vmm_cycles,
            world_switches: c.world_switches,
            vm_exits: c.vm_exits,
            exits: c.exits,
        }
    }
}

/// The committed reference for `iterations`, if there is one.
pub fn e8(iterations: u32) -> Option<E8Ref> {
    E8.iter().copied().find(|r| r.iterations == iterations)
}

/// `e8_vm` jobs, one per entry of `e8::ITERATIONS`.
const E8: &[E8Ref] = &[
    E8Ref {
        iterations: 280,
        cycles: 4478552,
        instructions: 140008,
        vmm_cycles: 2393624,
        world_switches: 90,
        vm_exits: 9182,
        exits: [
            832, 2814, 560, 2734, 294, 568, 556, 0, 0, 2, 0, 358, 312, 152, 0, 0, 0, 90, 0, 0,
        ],
    },
    E8Ref {
        iterations: 290,
        cycles: 4644738,
        instructions: 145720,
        vmm_cycles: 2480780,
        world_switches: 92,
        vm_exits: 9524,
        exits: [
            876, 2926, 588, 2836, 298, 594, 582, 0, 0, 2, 0, 358, 312, 152, 0, 0, 0, 92, 0, 0,
        ],
    },
    E8Ref {
        iterations: 300,
        cycles: 4733124,
        instructions: 148510,
        vmm_cycles: 2514048,
        world_switches: 94,
        vm_exits: 9640,
        exits: [
            880, 2968, 592, 2882, 302, 602, 590, 0, 0, 2, 0, 358, 312, 152, 0, 0, 0, 94, 0, 0,
        ],
    },
    E8Ref {
        iterations: 310,
        cycles: 4894470,
        instructions: 154114,
        vmm_cycles: 2597820,
        world_switches: 98,
        vm_exits: 9966,
        exits: [
            924, 3078, 620, 2978, 306, 624, 612, 0, 0, 2, 0, 358, 312, 152, 0, 0, 0, 98, 0, 0,
        ],
    },
    E8Ref {
        iterations: 320,
        cycles: 5073158,
        instructions: 161166,
        vmm_cycles: 2690324,
        world_switches: 102,
        vm_exits: 10324,
        exits: [
            972, 3200, 652, 3082, 314, 646, 634, 0, 0, 2, 0, 358, 312, 152, 0, 0, 0, 102, 0, 0,
        ],
    },
];
