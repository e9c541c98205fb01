//! The one observability sink: the CPU's retire path and the VMM's
//! exit seams feed it, and one switch turns all of it on or off.

use crate::cause::ExitCause;
use crate::hist::Histogram;
use crate::metrics::Metrics;
use crate::prof::{Prof, ProfTier, PAGE_SHIFT};
use crate::ring::{SuperblockEvent, TraceEvent, TraceRecord, TraceRing};

/// Depth of the recent-PC window: the last instruction addresses a
/// crash report shows.
pub const PC_WINDOW: usize = 16;

/// An exit in flight: begun, not yet resumed.
#[derive(Debug, Clone, Copy)]
struct Pending {
    cause: ExitCause,
    start: u64,
    /// The exit record's sequence number in the ring. Other records can
    /// be pushed while the exit is pending (an emulated-MMIO single step
    /// can drain a rewritten code page) and may overwrite it in a small
    /// ring, so the record is patched only while the ring still holds it.
    seq: u64,
}

/// Enabled observability state: the event ring, one cost histogram per
/// [`ExitCause`], the sampling profiler with its hot-block table, and
/// the recent-PC window.
#[derive(Debug, Clone)]
pub struct Obs {
    ring: TraceRing,
    hist: [Histogram; ExitCause::COUNT],
    pending: Option<Pending>,
    prof: Prof,
    pcs: [u32; PC_WINDOW],
    /// PCs ever pushed into the window.
    pcs_seen: u64,
}

impl Obs {
    fn new(ring_capacity: usize, sample_interval: u64) -> Obs {
        Obs {
            ring: TraceRing::new(ring_capacity),
            hist: core::array::from_fn(|_| Histogram::new()),
            pending: None,
            prof: Prof::new(sample_interval),
            pcs: [0; PC_WINDOW],
            pcs_seen: 0,
        }
    }

    /// Starts the sampling clock at `now`. The machine calls this when
    /// the sink is switched on, so the first sample covers the cycles
    /// from that instant.
    pub fn start(&mut self, now: u64) {
        self.prof.start(now);
    }

    /// The event ring: exits and superblock events in push order.
    pub fn trace(&self) -> &TraceRing {
        &self.ring
    }

    /// The cost histogram for one cause.
    pub fn histogram(&self, cause: ExitCause) -> &Histogram {
        &self.hist[cause.index()]
    }

    /// Exits recorded for one cause.
    pub fn exits(&self, cause: ExitCause) -> u64 {
        self.hist[cause.index()].count()
    }

    /// Total exits recorded across all causes.
    pub fn total_exits(&self) -> u64 {
        self.hist.iter().map(Histogram::count).sum()
    }

    /// The sampling profiler and its hot-block table.
    pub fn prof(&self) -> &Prof {
        &self.prof
    }

    /// The most recent instruction addresses, oldest first (at most
    /// [`PC_WINDOW`]).
    pub fn recent_pcs(&self) -> Vec<u32> {
        let held = self.pcs_seen.min(PC_WINDOW as u64);
        (self.pcs_seen - held..self.pcs_seen)
            .map(|i| self.pcs[i as usize % PC_WINDOW])
            .collect()
    }

    /// One instruction through the retire path at `pc`: the PC joins the
    /// window and, if it retired (through `tier`), the sampler observes
    /// it at simulated time `now`. When that fires a sample, `touched`
    /// reports working-set progress: the count of pages written since
    /// the sink was switched on (one dirty-rate histogram entry).
    #[inline]
    pub fn step(
        &mut self,
        pc: u32,
        retired: Option<ProfTier>,
        now: u64,
        touched: impl FnOnce() -> u64,
    ) {
        self.pcs[self.pcs_seen as usize % PC_WINDOW] = pc;
        self.pcs_seen += 1;
        if let Some(tier) = retired {
            if self.prof.observe(tier, pc, now) {
                self.prof.note_dirty(touched());
            }
        }
    }

    /// Marks the start of an exit: `cause` as classified at the exit
    /// seam (refinable later), the guest PC and virtual ring at exit,
    /// and the simulated-cycle timestamp the exit began at.
    pub fn exit_begin(&mut self, cause: ExitCause, guest_pc: u32, ring: u8, now: u64) {
        let seq = self.ring.push(TraceRecord {
            event: TraceEvent::Exit {
                cause,
                ring,
                guest_pc,
            },
            start_cycles: now,
            cost_cycles: 0,
        });
        self.pending = Some(Pending {
            cause,
            start: now,
            seq,
        });
    }

    /// Re-classifies the in-flight exit once a deeper layer knows the
    /// real cause (e.g. MTPR turns out to target IPL; a translation
    /// fault turns out to be the guest's own page fault).
    pub fn refine(&mut self, cause: ExitCause) {
        if let Some(p) = &mut self.pending {
            p.cause = cause;
            if let Some(TraceRecord {
                event: TraceEvent::Exit { cause: c, .. },
                ..
            }) = self.ring.get_mut(p.seq)
            {
                *c = cause;
            }
        }
    }

    /// Marks the end of the in-flight exit at simulated time `now`:
    /// records `now - start` into the cause's cost histogram, and into
    /// the exit's record if the ring still holds it. A no-op when no
    /// exit is in flight.
    pub fn exit_end(&mut self, now: u64) {
        if let Some(p) = self.pending.take() {
            let cost = now.saturating_sub(p.start);
            self.hist[p.cause.index()].record(cost);
            if let Some(rec) = self.ring.get_mut(p.seq) {
                rec.cost_cycles = cost;
            }
        }
    }

    fn push_superblock(&mut self, kind: SuperblockEvent, pa: u32, arg: u32, now: u64) {
        self.ring.push(TraceRecord {
            event: TraceEvent::Superblock { kind, pa, arg },
            start_cycles: now,
            cost_cycles: 0,
        });
    }

    /// A superblock of `len` µops was formed at entry `pa`, whose
    /// decode-cache heat was `heat`.
    pub fn sb_translate(&mut self, pa: u32, len: u16, heat: u32, now: u64) {
        self.push_superblock(SuperblockEvent::Translate, pa, u32::from(len), now);
        self.prof.note_translate(pa, len, heat);
    }

    /// Every translated superblock was invalidated.
    pub fn sb_invalidate(&mut self, now: u64) {
        self.push_superblock(SuperblockEvent::Invalidate, 0, 0, now);
        self.prof.note_invalidate(None);
    }

    /// A self-modifying-code drain killed the superblocks in physical
    /// page `pfn`.
    pub fn sb_smc_drain(&mut self, pfn: u32, now: u64) {
        self.push_superblock(SuperblockEvent::SmcDrain, pfn << PAGE_SHIFT, pfn, now);
        self.prof.note_invalidate(Some(pfn));
    }

    /// One execution of the superblock entered at `pa`: `uops` retired
    /// over `cycles`, and whether it bailed or was cut short by an
    /// interrupt.
    pub fn sb_exec(&mut self, pa: u32, uops: u64, cycles: u64, bailed: bool, interrupted: bool) {
        self.prof
            .note_block_exec(pa, uops, cycles, bailed, interrupted);
    }

    /// Renders the sink's families into `m`: `trace_records*`, the
    /// non-empty `exit_cost_*` histograms, the `profile_*` families and
    /// the hot-block table (`hot_superblocks`, `superblock_*`).
    pub fn metrics(&self, m: &mut Metrics) {
        m.counter("trace_records", self.ring.total());
        m.counter("trace_records_dropped", self.ring.dropped());
        for cause in ExitCause::ALL {
            let h = self.histogram(cause);
            if h.count() > 0 {
                m.histogram(&format!("exit_cost_{}", cause.name()), h);
            }
        }
        self.prof.metrics(m);
    }
}

/// The sink a machine owns. Enum dispatch keeps the disabled case a
/// branch-predictable no-op — no indirect call, no allocation — so
/// observability costs one discriminant test per hook when off.
#[derive(Debug, Clone, Default)]
pub enum ObsSink {
    /// Everything off: every hook is a no-op.
    #[default]
    Off,
    /// Everything on. Boxed so the sink itself stays pointer-sized
    /// inside the machine.
    On(Box<Obs>),
}

impl ObsSink {
    /// An enabled sink: an event ring of `ring_capacity` records and a
    /// sampler firing every `sample_interval` simulated cycles (callers
    /// pass [`crate::DEFAULT_SAMPLE_INTERVAL`]; tests sample denser).
    pub fn on(ring_capacity: usize, sample_interval: u64) -> ObsSink {
        ObsSink::On(Box::new(Obs::new(ring_capacity, sample_interval)))
    }

    /// The enabled state, if any.
    pub fn state(&self) -> Option<&Obs> {
        match self {
            ObsSink::Off => None,
            ObsSink::On(o) => Some(o),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(ring_capacity: usize) -> Box<Obs> {
        match ObsSink::on(ring_capacity, 1024) {
            ObsSink::On(o) => o,
            ObsSink::Off => unreachable!(),
        }
    }

    #[test]
    fn begin_end_records_latency() {
        let mut o = on(8);
        o.exit_begin(ExitCause::EmulMtprIpl, 0x2000, 0, 1000);
        o.exit_end(1090);
        assert_eq!(o.exits(ExitCause::EmulMtprIpl), 1);
        assert_eq!(o.histogram(ExitCause::EmulMtprIpl).sum(), 90);
        let rec = o.trace().iter().next().unwrap();
        assert_eq!(
            rec.event,
            TraceEvent::Exit {
                cause: ExitCause::EmulMtprIpl,
                ring: 0,
                guest_pc: 0x2000
            }
        );
        assert_eq!(rec.start_cycles, 1000);
        assert_eq!(rec.cost_cycles, 90);
    }

    #[test]
    fn refine_moves_cause_before_accounting() {
        let mut o = on(8);
        o.exit_begin(ExitCause::EmulMtprOther, 0, 0, 0);
        o.refine(ExitCause::EmulMtprIpl);
        o.exit_end(66);
        assert_eq!(o.exits(ExitCause::EmulMtprOther), 0);
        assert_eq!(o.exits(ExitCause::EmulMtprIpl), 1);
        assert_eq!(
            o.trace().iter().next().unwrap().event,
            TraceEvent::Exit {
                cause: ExitCause::EmulMtprIpl,
                ring: 0,
                guest_pc: 0
            }
        );
    }

    #[test]
    fn end_without_begin_is_noop() {
        let mut o = on(8);
        o.exit_end(5);
        assert_eq!(o.total_exits(), 0);
    }

    /// An event pushed while an exit is pending overwrites the exit's
    /// slot in a one-record ring: the exit still lands in its histogram,
    /// and its cost never lands on the event.
    #[test]
    fn an_overwritten_pending_exit_patches_nothing() {
        let mut o = on(1);
        o.exit_begin(ExitCause::EmulMtprOther, 0x1000, 0, 100);
        o.sb_invalidate(150);
        o.refine(ExitCause::EmulMtprIpl);
        o.exit_end(190);
        assert_eq!(o.histogram(ExitCause::EmulMtprIpl).sum(), 90);
        let rec = o.trace().iter().next().unwrap();
        assert!(
            matches!(rec.event, TraceEvent::Superblock { .. }),
            "the event replaced the exit"
        );
        assert_eq!(rec.cost_cycles, 0, "an event carries no exit cost");
    }

    #[test]
    fn pc_window_keeps_the_newest_oldest_first() {
        let mut o = on(1);
        assert!(o.recent_pcs().is_empty());
        for pc in 0..(PC_WINDOW as u32 + 3) {
            o.step(pc, None, 0, || 0);
        }
        let want: Vec<u32> = (3..PC_WINDOW as u32 + 3).collect();
        assert_eq!(o.recent_pcs(), want);
    }
}
