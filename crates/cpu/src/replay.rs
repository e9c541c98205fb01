//! Running a VM to the VMM's next event, and replaying fixed-point
//! poll loops instead of re-executing them.
//!
//! [`Machine::run_until`] steps until a VM exit, a halt, or the first
//! instruction boundary at or past a cycle horizon — the VMM's next
//! timer or device event. Inside it, on the decode-cache tiers and in
//! VM mode, a loop whose pass of at most [`MAX_PASS`] instructions
//! returns to its head with the same registers and PSL, having read
//! only TLB-resident memory through cached templates and written
//! nothing, is a fixed point: every later pass is the same pure
//! function of the same state. Only an interrupt or the horizon can end
//! it, so the machine replays the recorded pass — cycles, instruction
//! count, TLB and decode-cache hits, PC — one instruction at a time
//! through the same post-retire path a stepped instruction takes,
//! checking for a deliverable interrupt after each (DESIGN.md §20).

use crate::counters::CpuCounters;
use crate::event::StepEvent;
use crate::machine::{ExecTier, Machine};
use vax_arch::{Opcode, Psl, VirtAddr};
use vax_obs::{ObsSink, ProfTier};

/// Longest loop pass, in instructions, that replay considers.
pub const MAX_PASS: usize = 4;

/// How a [`Machine::run_until`] batch ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// The event of the last step: [`StepEvent::Ok`] when the batch
    /// reached its horizon.
    pub event: StepEvent,
    /// Steps taken, replayed instructions included (at least one).
    pub steps: u64,
    /// The cycle count at the start of the batch's last step.
    pub last_step_start: u64,
}

/// Fixed-point loop replay statistics (diagnostic, like
/// [`DecodeCacheStats`](crate::DecodeCacheStats): not part of
/// [`CpuCounters`], which are identical whether or not a loop was
/// replayed).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopReplayStats {
    /// Loops found to be fixed points and replayed.
    pub loop_replays: u64,
    /// Instructions retired by replay instead of by execution.
    pub loop_replayed_instructions: u64,
}

/// One instruction of a recorded pass: what executing it did. A pass
/// ends where it began, but the states between its instructions can
/// differ (one test's condition codes, an autoincrement a later
/// autodecrement undoes), so each step keeps the registers and PSL it
/// left: replay may stop after any of them.
#[derive(Debug, Clone, Copy, Default)]
struct PassStep {
    pc: u32,
    regs: [u32; 16],
    psl: Psl,
    /// The decode-cache key of its template.
    pa: u32,
    cycles: u64,
    tlb_hits: u64,
}

/// The counters a qualifying step may move, read before it.
#[derive(Clone, Copy)]
struct Before {
    counters: CpuCounters,
    tlb_hits: u64,
    tlb_misses: u64,
    dc_hits: u64,
    dc_misses: u64,
}

/// The fixed-point detector: armed at the landing of a taken backward
/// branch, it records the next pass and compares the state at its end
/// with the state at the head.
struct Watch {
    armed: bool,
    head: u32,
    regs: [u32; 16],
    psl: Psl,
    pass: [PassStep; MAX_PASS],
    len: usize,
    /// The last head that failed to verify. It is not armed again in
    /// this batch, so a loop that is no fixed point costs one watched
    /// pass per batch rather than one per pass.
    failed: Option<u32>,
}

/// Branches that can close a pass: the conditional branches, BRB and
/// BRW.
fn closes_pass(op: Opcode) -> bool {
    use Opcode::*;
    matches!(
        op,
        Brb | Brw
            | Bneq
            | Beql
            | Bgtr
            | Bleq
            | Bgeq
            | Blss
            | Bgtru
            | Blequ
            | Bvc
            | Bvs
            | Bgequ
            | Blssu
    )
}

/// Opcodes a fixed-point pass may contain: those branches and the
/// read-only tests, whose only results are the condition codes.
fn replayable(op: Opcode) -> bool {
    use Opcode::*;
    closes_pass(op) || matches!(op, Tstb | Tstw | Tstl | Cmpb | Cmpw | Cmpl | Bitl)
}

impl Machine {
    /// Steps until a VM exit, a halt, or the first instruction boundary
    /// at or past `horizon` (always at least one step): the VMM runs a
    /// guest to its next event in one call. On the cache and trans
    /// tiers in VM mode, fixed-point poll loops are replayed rather than
    /// executed (module docs); state, cycles, [`Machine::counters`] and
    /// [`Machine::decode_cache_stats`] are bit-identical to stepping,
    /// and [`Machine::loop_replay_stats`] counts what was replayed. The
    /// interpreter tier and a machine outside VM mode only step.
    pub fn run_until(&mut self, horizon: u64) -> Batch {
        let replay = self.exec_tier != ExecTier::Interp && self.psl.vm();
        let mut watch = Watch {
            armed: false,
            head: 0,
            regs: [0; 16],
            psl: Psl::new(),
            pass: [PassStep::default(); MAX_PASS],
            len: 0,
            failed: None,
        };
        let mut steps = 0;
        loop {
            let start = self.cycles;
            let pc = self.regs[15];
            let before = watch.armed.then(|| self.before_step());
            steps += 1;
            let event = self.step();
            if event != StepEvent::Ok || self.cycles >= horizon {
                return Batch {
                    event,
                    steps,
                    last_step_start: start,
                };
            }
            if !replay {
                continue;
            }
            let next = self.regs[15];
            if let Some(before) = before {
                if !self.watch_step(&mut watch, &before, pc, start) {
                    watch.armed = false;
                    watch.failed = Some(watch.head);
                } else if next == watch.head {
                    watch.armed = false;
                    if self.regs == watch.regs && self.psl == watch.psl {
                        let mut last = start;
                        let pass = &watch.pass[..watch.len];
                        if self.replay_pass(pass, horizon, &mut steps, &mut last) {
                            return Batch {
                                event: StepEvent::Ok,
                                steps,
                                last_step_start: last,
                            };
                        }
                    } else {
                        watch.failed = Some(watch.head);
                    }
                } else if watch.len == MAX_PASS {
                    watch.armed = false;
                    watch.failed = Some(watch.head);
                }
            } else if next <= pc
                && watch.failed != Some(next)
                && self
                    .decode_scratch
                    .as_ref()
                    .is_some_and(|d| d.pc_start == pc && closes_pass(d.op))
            {
                watch.armed = true;
                watch.head = next;
                watch.regs = self.regs;
                watch.psl = self.psl;
                watch.len = 0;
            }
        }
    }

    /// Replay statistics (diagnostic; not part of the architectural
    /// counters).
    pub fn loop_replay_stats(&self) -> LoopReplayStats {
        self.loop_stats
    }

    fn before_step(&self) -> Before {
        let dc = self.icache.stats();
        Before {
            counters: self.counters,
            tlb_hits: self.mmu.tlb().hits(),
            tlb_misses: self.mmu.tlb().misses(),
            dc_hits: dc.hits,
            dc_misses: dc.misses,
        }
    }

    /// Records the step just taken from `pc` into the armed pass, or
    /// returns `false` if it cannot belong to a fixed point: not a
    /// replayable opcode decoded from the cache at `pc`, a TLB or
    /// decode-cache miss, or any counter but `instructions` moved (a
    /// CSR access, an exception).
    fn watch_step(&self, watch: &mut Watch, before: &Before, pc: u32, start: u64) -> bool {
        let Some(d) = self.decode_scratch.as_deref() else {
            return false;
        };
        let dc = self.icache.stats();
        let mut expect = before.counters;
        expect.instructions += 1;
        let clean = d.pc_start == pc
            && replayable(d.op)
            && self.counters == expect
            && self.mmu.tlb().misses() == before.tlb_misses
            && dc.hits == before.dc_hits + 1
            && dc.misses == before.dc_misses;
        if !clean {
            return false;
        }
        // The fetch page stayed resident (no miss evicted it), so this
        // is the key the decode cache just hit.
        let Some(pa) = self.fetch_pa_probe(VirtAddr::new(pc), self.psl.cur_mode()) else {
            return false;
        };
        watch.pass[watch.len] = PassStep {
            pc,
            regs: self.regs,
            psl: self.psl,
            pa,
            cycles: self.cycles - start,
            tlb_hits: self.mmu.tlb().hits() - before.tlb_hits,
        };
        watch.len += 1;
        true
    }

    /// Replays `pass` from its head until the horizon (`true`) or a
    /// deliverable interrupt (`false`: the caller steps on, and its next
    /// step takes the interrupt). Each instruction retires exactly as
    /// its stepped original did: the counters, clock, TLB and
    /// decode-cache hits it moved, the registers and PSL it left, then
    /// the device ticks and the sink's retire hook.
    fn replay_pass(
        &mut self,
        pass: &[PassStep],
        horizon: u64,
        steps: &mut u64,
        last_start: &mut u64,
    ) -> bool {
        if self.pending_interrupt().is_some() {
            return false;
        }
        self.loop_stats.loop_replays += 1;
        loop {
            for s in pass {
                *last_start = self.cycles;
                *steps += 1;
                self.loop_stats.loop_replayed_instructions += 1;
                self.counters.instructions += 1;
                self.cycles += s.cycles;
                self.mmu.tlb_mut().record_hits(s.tlb_hits);
                self.icache.replay_hit(s.pa);
                self.regs = s.regs;
                self.psl = s.psl;
                let deliverable = self.post_instruction_tick(s.cycles.max(1));
                if let ObsSink::On(o) = &mut self.obs {
                    let mem = &self.mem;
                    o.step(s.pc, Some(ProfTier::Cache), self.cycles, || {
                        u64::from(mem.touched_page_count())
                    });
                }
                if self.cycles >= horizon {
                    return true;
                }
                if deliverable {
                    return false;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vax_arch::{AccessMode, MachineVariant, VmPsl};

    /// A modified machine in VM mode (virtual kernel, real executive)
    /// with `code` at 0x1000 and mapping off.
    fn vm_machine(code: &[u8], tier: ExecTier) -> Machine {
        let mut m = Machine::new(MachineVariant::Modified, 64 * 1024);
        m.set_exec_tier(tier);
        m.mem_mut().write_slice(0x1000, code).unwrap();
        let mut psl = Psl::new();
        psl.set_cur_mode(AccessMode::Executive);
        psl.set_prv_mode(AccessMode::Executive);
        m.set_psl(psl);
        m.set_reg(14, 0x8000);
        m.set_pc(0x1000);
        m.enter_vm(VmPsl::new(AccessMode::Kernel, AccessMode::Kernel));
        m
    }

    /// `tstl @#0x2000; beql .-8` — the KCALL poll loop's shape.
    const POLL: [u8; 8] = [0xD5, 0x9F, 0x00, 0x20, 0x00, 0x00, 0x13, 0xF8];

    #[test]
    fn poll_loop_replays_bit_identically_to_interp() {
        let run = |tier| {
            let mut m = vm_machine(&POLL, tier);
            let b = m.run_until(100_000);
            (b, m.cycles(), m.counters(), m.pc(), m.psl().raw())
        };
        let oracle = run(ExecTier::Interp);
        assert_eq!(oracle.0.event, StepEvent::Ok);
        assert!(oracle.1 >= 100_000);
        let mut interp = vm_machine(&POLL, ExecTier::Interp);
        interp.run_until(100_000);
        assert_eq!(interp.loop_replay_stats(), LoopReplayStats::default());
        for tier in [ExecTier::Cache, ExecTier::Trans] {
            assert_eq!(run(tier), oracle, "{tier:?}");
            let mut m = vm_machine(&POLL, tier);
            m.run_until(100_000);
            let s = m.loop_replay_stats();
            assert_eq!(s.loop_replays, 1, "{tier:?}");
            assert!(s.loop_replayed_instructions > oracle.2.instructions / 2);
        }
    }

    /// Runs `code` to `horizon` in one batch, and steps a twin the
    /// batch's number of steps on the same tier: they must end in the
    /// same state, with the same decode-cache statistics and entry heat.
    fn assert_batch_matches_stepping(code: &[u8], horizon: u64) -> LoopReplayStats {
        let mut stepped = vm_machine(code, ExecTier::Cache);
        let mut replayed = vm_machine(code, ExecTier::Cache);
        let b = replayed.run_until(horizon);
        for _ in 0..b.steps {
            stepped.step();
        }
        assert_eq!(stepped.export_state(), replayed.export_state());
        assert_eq!(stepped.decode_cache_stats(), replayed.decode_cache_stats());
        for pa in 0x1000..0x1000 + code.len() as u32 {
            assert_eq!(stepped.icache.heat(pa), replayed.icache.heat(pa), "{pa:#x}");
        }
        replayed.loop_replay_stats()
    }

    #[test]
    fn decode_cache_stats_match_a_stepping_run() {
        let s = assert_batch_matches_stepping(&POLL, 50_000);
        assert_eq!(s.loop_replays, 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random read-only bodies before the KCALL-shaped poll, cut by a
        /// random horizon, often mid-pass.
        #[test]
        fn random_poll_bodies_match_a_stepping_run(
            body in proptest::collection::vec((0u8..4, 0u8..6, any::<u8>()), 0..3),
            horizon in 100u64..20_000,
        ) {
            let mut src = String::from("movl #0x4000, r1\nmovl #7, r2\nhead:\n");
            for (n, &(op, mode, k)) in body.iter().enumerate() {
                let opnd = match mode {
                    0 => format!("r{}", k % 3),
                    1 => format!("#{}", k % 64),
                    2 => format!("@#{:#x}", 0x3000 + u32::from(k)),
                    3 => "(r1)".to_string(),
                    4 => "(r1)+".to_string(),
                    _ => "-(r1)".to_string(),
                };
                src.push_str(&match op {
                    0 => format!("tstb {opnd}\n"),
                    1 => format!("cmpl {opnd}, r2\n"),
                    2 => format!("bitl r2, {opnd}\n"),
                    _ => format!("bneq n{n}\nn{n}:\n"),
                });
            }
            src.push_str("tstl @#0x2000\nbeql head\nhalt\n");
            let code = vax_asm::assemble_text(&src, 0x1000).expect("assembles").bytes;
            assert_batch_matches_stepping(&code, horizon);
        }
    }

    #[test]
    fn autoincrement_defeats_replay() {
        // tstl (r1)+; brb .-4 — a backward branch over a pass that moves
        // R1 each time is no fixed point.
        let code = [0xD5, 0x81, 0x11, 0xFC];
        let mut m = vm_machine(&code, ExecTier::Cache);
        m.set_reg(1, 0x2000);
        m.run_until(10_000);
        assert_eq!(m.loop_replay_stats(), LoopReplayStats::default());
    }

    #[test]
    fn batch_reports_its_last_step() {
        let mut m = vm_machine(&POLL, ExecTier::Cache);
        let b = m.run_until(0);
        assert_eq!(b.steps, 1, "at least one step, even past the horizon");
        assert_eq!(b.last_step_start, 0);
        let before = m.cycles();
        let b = m.run_until(before + 5_000);
        assert!(b.steps > 1);
        assert!(b.last_step_start < before + 5_000 && m.cycles() >= before + 5_000);
    }

    #[test]
    fn bare_machines_only_step() {
        let mut m = Machine::new(MachineVariant::Standard, 64 * 1024);
        m.mem_mut().write_slice(0x1000, &POLL).unwrap();
        m.set_pc(0x1000);
        m.run_until(20_000);
        assert_eq!(m.loop_replay_stats(), LoopReplayStats::default());
    }
}
