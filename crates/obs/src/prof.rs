//! `vax-prof`: cycle-attributed guest profiling.
//!
//! The paper's evaluation (§4, §7) attributes VMM overhead to a handful
//! of hot exits and shadow faults; this module provides the matching
//! *in-guest* attribution — where do the guest's own cycles go, which
//! execution tier retired them, and which pages does the guest write.
//!
//! # Sampling model
//!
//! The profiler is driven from the CPU's retire path on the **simulated**
//! clock, through the sink ([`crate::Obs::step`]). Every retiring
//! instruction (or µop) costs an array increment plus a compare against the
//! next sample deadline. When the simulated clock crosses the deadline,
//! the *entire* cycle delta since the previous sample is attributed to
//! the sampled `(tier, PC)` bucket — so the attributed totals tile the
//! profiled run (no cycle is counted twice, none is lost except the tail
//! after the final sample), and the per-instruction cost stays far below
//! the 5% overhead budget the bench enforces.
//!
//! # Non-perturbation contract
//!
//! Like the rest of [`crate::ObsSink`], the profiler only ever *reads*
//! the simulated clock and PC; it never feeds anything back into execution. Enabling
//! it must leave architectural state, cycles, and counters bit-identical
//! — the repo's equivalence fuzzers enforce this for all three execution
//! tiers.

use crate::hist::Histogram;
use crate::metrics::Metrics;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default sampling interval in simulated cycles. At the simulator's
/// 1–5 cycles per instruction this samples every few hundred
/// instructions — dense enough that even short runs resolve their hot
/// loops, sparse enough to stay inside the 5% overhead budget.
pub const DEFAULT_SAMPLE_INTERVAL: u64 = 1024;

/// Cap on distinct `(tier, PC)` attribution buckets; cycles sampled past
/// the cap are accumulated in [`Prof::overflow_cycles`] rather than
/// silently dropped.
const MAX_BUCKETS: usize = 65_536;

/// Cap on tracked per-superblock profiles; a run hot in more distinct
/// entry PAs than this keeps stats for the first [`SB_PROFILE_CAP`].
const SB_PROFILE_CAP: usize = 8192;

/// log2 of the VAX page size, for rolling PCs up into pages.
pub(crate) const PAGE_SHIFT: u32 = 9;

/// One-multiply mixer for the bucket map. The keys are packed
/// `(tier, pc)` pairs the profiler controls entirely, so the std
/// DoS-resistant SipHash buys nothing here and costs more than the
/// sampled attribution itself.
#[derive(Default)]
struct BucketHasher(u64);

impl Hasher for BucketHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // FNV-1a fallback; only the fixed-width paths below run in
        // practice (tuple fields hash via write_u8/write_u32).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        // Fibonacci-multiply mix; xor-folding the rotated input keeps
        // page-aligned PCs from clustering in the low bucket bits.
        let x = self.0.rotate_left(29) ^ v;
        self.0 = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

type BucketMap = HashMap<(u8, u32), u64, BuildHasherDefault<BucketHasher>>;

/// The execution path that retired a sampled instruction.
///
/// This is attribution by *retire path*, not by the machine's configured
/// tier: a machine in the translated tier still retires untranslatable
/// instructions through the decode-cache interpreter path, and those
/// cycles show up under [`ProfTier::Cache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ProfTier {
    /// Bytewise interpreter (decode cache off).
    Interp = 0,
    /// Decode-cached interpreter path.
    Cache = 1,
    /// Translated-superblock µop dispatch.
    Trans = 2,
}

impl ProfTier {
    /// Number of tiers.
    pub const COUNT: usize = 3;

    /// Every tier, in index order.
    pub const ALL: [ProfTier; ProfTier::COUNT] =
        [ProfTier::Interp, ProfTier::Cache, ProfTier::Trans];

    /// Dense index for per-tier arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case name (used in metric names and stack frames).
    pub fn name(self) -> &'static str {
        match self {
            ProfTier::Interp => "interp",
            ProfTier::Cache => "cache",
            ProfTier::Trans => "trans",
        }
    }
}

/// Per-superblock introspection record — one row of the ranked hot-block
/// table. Rows are cumulative per entry PA and survive invalidation and
/// retranslation, so churn is visible in `translations`/`invalidations`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperblockProfile {
    /// Entry physical address of the block.
    pub entry_pa: u32,
    /// µop count at the most recent translation.
    pub len: u16,
    /// Decode-cache heat at the most recent translation.
    pub heat: u32,
    /// Times this PA was (re)translated while profiling.
    pub translations: u64,
    /// Block executions that retired at least one µop.
    pub executions: u64,
    /// µops (== guest instructions) retired by this block.
    pub uops_retired: u64,
    /// Simulated cycles retired by this block.
    pub cycles_retired: u64,
    /// Executions cut short by a deliverable interrupt mid-block.
    pub side_exit_interrupt: u64,
    /// Executions that bailed to the interpreter pre-mutation.
    pub side_exit_bail: u64,
    /// Invalidations that killed this block (whole-cache or its page).
    pub invalidations: u64,
}

/// One ranked row of the per-`(tier, PC)` cycle attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcBucket {
    /// Retire path of the samples.
    pub tier: ProfTier,
    /// Sampled program counter.
    pub pc: u32,
    /// Simulated cycles attributed to this bucket.
    pub cycles: u64,
}

/// Interval-sampling guest profiler state plus the per-superblock
/// hot-block table: the profiling half of an enabled
/// [`crate::ObsSink`], which drives it from the retire path.
#[derive(Debug, Clone)]
pub struct Prof {
    interval: u64,
    /// Simulated clock at the last attribution boundary.
    last_attr: u64,
    next_sample: u64,
    samples: u64,
    /// Exact per-tier retired-instruction counts (one add per retire).
    retired: [u64; ProfTier::COUNT],
    /// Sampled per-tier cycle attribution.
    attributed: [u64; ProfTier::COUNT],
    buckets: BucketMap,
    overflow_cycles: u64,
    /// Pages written since profiling began, as of the last sample (the
    /// memory side reports a count that only grows while the profiler
    /// lives; the profiler differences it).
    dirty_seen: u64,
    dirty_rate: Histogram,
    /// Per-superblock profiles keyed by entry PA.
    blocks: HashMap<u32, SuperblockProfile>,
}

impl Prof {
    /// A profiler sampling every `interval` cycles from cycle 0 (see
    /// [`Prof::start`]).
    pub(crate) fn new(interval: u64) -> Prof {
        let interval = interval.max(1);
        Prof {
            interval,
            last_attr: 0,
            next_sample: interval,
            samples: 0,
            retired: [0; ProfTier::COUNT],
            attributed: [0; ProfTier::COUNT],
            buckets: BucketMap::default(),
            overflow_cycles: 0,
            dirty_seen: 0,
            dirty_rate: Histogram::new(),
            blocks: HashMap::new(),
        }
    }

    /// Starts the sampling clock at `now`: the first interval ends
    /// `interval` cycles later.
    pub(crate) fn start(&mut self, now: u64) {
        self.last_attr = now;
        self.next_sample = now + self.interval;
    }

    /// Observes one retiring instruction at `pc` on `tier` with the
    /// simulated clock at `now`. Returns `true` when an interval sample
    /// fired (the caller may then report working-set progress via
    /// [`Prof::note_dirty`]).
    #[inline]
    pub(crate) fn observe(&mut self, tier: ProfTier, pc: u32, now: u64) -> bool {
        self.retired[tier.index()] += 1;
        if now < self.next_sample {
            return false;
        }
        self.sample(tier, pc, now);
        true
    }

    /// The cold half of [`Prof::observe`]: attribute everything since the
    /// last boundary to the sampled `(tier, pc)`. Kept out of line so the
    /// per-retire fast path stays a load, an add, and a compare.
    #[cold]
    #[inline(never)]
    fn sample(&mut self, tier: ProfTier, pc: u32, now: u64) {
        let delta = now - self.last_attr;
        self.last_attr = now;
        self.next_sample = now + self.interval;
        self.samples += 1;
        self.attributed[tier.index()] += delta;
        let key = (tier.index() as u8, pc);
        if self.buckets.len() >= MAX_BUCKETS && !self.buckets.contains_key(&key) {
            self.overflow_cycles += delta;
        } else {
            *self.buckets.entry(key).or_insert(0) += delta;
        }
    }

    /// Records how many pages have been written since profiling began at
    /// a sample boundary; the difference from the previous boundary is
    /// one entry in the per-interval dirty-rate histogram.
    #[inline]
    pub(crate) fn note_dirty(&mut self, cumulative_dirty_events: u64) {
        let newly = cumulative_dirty_events.saturating_sub(self.dirty_seen);
        self.dirty_seen = cumulative_dirty_events;
        self.dirty_rate.record(newly);
    }

    /// The hot-block row for entry `pa`, or `None` past the table cap.
    fn block(&mut self, pa: u32) -> Option<&mut SuperblockProfile> {
        if self.blocks.len() >= SB_PROFILE_CAP && !self.blocks.contains_key(&pa) {
            return None;
        }
        let p = self.blocks.entry(pa).or_default();
        p.entry_pa = pa;
        Some(p)
    }

    /// Records a (re)translation at `pa` into its hot-block row.
    pub(crate) fn note_translate(&mut self, pa: u32, len: u16, heat: u32) {
        if let Some(p) = self.block(pa) {
            p.len = len;
            p.heat = heat;
            p.translations += 1;
        }
    }

    /// Records one block execution at `pa` into its hot-block row. The
    /// row may be new: the block was translated before profiling began
    /// (its heat and length then read 0).
    pub(crate) fn note_block_exec(
        &mut self,
        pa: u32,
        uops: u64,
        cycles: u64,
        bailed: bool,
        interrupted: bool,
    ) {
        if let Some(p) = self.block(pa) {
            p.executions += 1;
            p.uops_retired += uops;
            p.cycles_retired += cycles;
            p.side_exit_bail += u64::from(bailed);
            p.side_exit_interrupt += u64::from(interrupted);
        }
    }

    /// Counts an invalidation against the rows it killed: every row, or
    /// (`Some(pfn)`) the rows entered in physical page `pfn`.
    pub(crate) fn note_invalidate(&mut self, page: Option<u32>) {
        for p in self.blocks.values_mut() {
            if page.is_none_or(|pfn| p.entry_pa >> PAGE_SHIFT == pfn) {
                p.invalidations += 1;
            }
        }
    }

    /// The sampling interval in simulated cycles.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Number of interval samples taken.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Exact count of instructions retired through `tier` while profiling.
    pub fn retired(&self, tier: ProfTier) -> u64 {
        self.retired[tier.index()]
    }

    /// Sampled cycles attributed to `tier`.
    pub fn attributed(&self, tier: ProfTier) -> u64 {
        self.attributed[tier.index()]
    }

    /// Total attributed cycles across all tiers (tiles the profiled run
    /// up to the tail after the final sample).
    pub fn attributed_total(&self) -> u64 {
        self.attributed.iter().sum()
    }

    /// Cycles sampled after the bucket table filled up.
    pub fn overflow_cycles(&self) -> u64 {
        self.overflow_cycles
    }

    /// Per-interval newly-dirtied-page histogram.
    pub fn dirty_rate(&self) -> &Histogram {
        &self.dirty_rate
    }

    /// The hot-block table: every tracked superblock profile ranked by
    /// cycles retired (descending), ties broken by entry PA.
    pub fn superblocks(&self) -> Vec<SuperblockProfile> {
        let mut out: Vec<SuperblockProfile> = self.blocks.values().copied().collect();
        out.sort_by(|a, b| {
            b.cycles_retired
                .cmp(&a.cycles_retired)
                .then(a.entry_pa.cmp(&b.entry_pa))
        });
        out
    }

    /// The `(tier, PC)` attribution ranked by cycles (descending), ties
    /// broken by tier then PC so the output is deterministic.
    pub fn pc_buckets(&self) -> Vec<PcBucket> {
        let mut out: Vec<PcBucket> = self
            .buckets
            .iter()
            .map(|(&(t, pc), &cycles)| PcBucket {
                tier: ProfTier::ALL[t as usize],
                pc,
                cycles,
            })
            .collect();
        out.sort_by(|a, b| {
            b.cycles
                .cmp(&a.cycles)
                .then(a.tier.cmp(&b.tier))
                .then(a.pc.cmp(&b.pc))
        });
        out
    }

    /// Per-page cycle attribution (PC buckets rolled up by VAX page),
    /// ranked by cycles descending, ties broken by page number.
    pub fn page_buckets(&self) -> Vec<(u32, u64)> {
        let mut pages: HashMap<u32, u64> = HashMap::new();
        for (&(_, pc), &cycles) in &self.buckets {
            *pages.entry(pc >> PAGE_SHIFT).or_insert(0) += cycles;
        }
        let mut out: Vec<(u32, u64)> = pages.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Renders the attribution as collapsed-stack (flamegraph) text:
    /// one `guest;tier_X;page_0xNNNNN;pc_0xNNNNNNNN cycles` line per
    /// bucket, ranked. Feed straight into `flamegraph.pl` or speedscope.
    pub fn collapsed_stack(&self) -> String {
        let mut out = String::new();
        for b in self.pc_buckets() {
            out.push_str(&format!(
                "guest;tier_{};page_0x{:05x};pc_0x{:08x} {}\n",
                b.tier.name(),
                b.pc >> PAGE_SHIFT,
                b.pc,
                b.cycles
            ));
        }
        if self.overflow_cycles > 0 {
            out.push_str(&format!("guest;overflow {}\n", self.overflow_cycles));
        }
        out
    }

    /// Renders the profile families: per-tier attribution counters,
    /// page-level cycle and dirty-rate histograms, and the hot-block
    /// table. All counters/histograms, so [`Metrics::merge`] produces
    /// correct fleet-wide profiles.
    pub(crate) fn metrics(&self, m: &mut Metrics) {
        m.counter("profile_samples", self.samples);
        m.counter("profile_overflow_cycles", self.overflow_cycles);
        for tier in ProfTier::ALL {
            m.counter(
                &format!("profile_instructions_{}", tier.name()),
                self.retired(tier),
            );
            m.counter(
                &format!("profile_cycles_{}", tier.name()),
                self.attributed(tier),
            );
        }
        if self.dirty_rate.count() > 0 {
            m.histogram("profile_dirty_rate", &self.dirty_rate);
        }
        let pages = self.page_buckets();
        if !pages.is_empty() {
            let mut h = Histogram::new();
            for (_, cycles) in &pages {
                h.record(*cycles);
            }
            m.histogram("profile_page_cycles", &h);
        }
        if !self.blocks.is_empty() {
            m.counter("hot_superblocks", self.blocks.len() as u64);
            let mut cyc = Histogram::new();
            let mut execs = Histogram::new();
            for b in self.blocks.values() {
                cyc.record(b.cycles_retired);
                execs.record(b.executions);
            }
            m.histogram("superblock_cycles_retired", &cyc);
            m.histogram("superblock_executions", &execs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_attributes_whole_deltas() {
        let mut p = Prof::new(100);
        // 40 retires of 10 cycles each; samples fire when the clock
        // crosses 100, 200, 300, 400.
        let mut now = 0;
        for _ in 0..40 {
            now += 10;
            p.observe(ProfTier::Cache, 0x1000, now);
        }
        assert_eq!(p.samples(), 4);
        assert_eq!(p.retired(ProfTier::Cache), 40);
        assert_eq!(p.attributed(ProfTier::Cache), 400);
        assert_eq!(p.attributed_total(), 400);
        let b = p.pc_buckets();
        assert_eq!(b.len(), 1);
        assert_eq!((b[0].pc, b[0].cycles), (0x1000, 400));
    }

    #[test]
    fn attribution_tiles_across_tiers() {
        let mut p = Prof::new(50);
        p.observe(ProfTier::Interp, 0x100, 60); // sample: 60 to interp
        p.observe(ProfTier::Trans, 0x200, 130); // sample: 70 to trans
        p.observe(ProfTier::Trans, 0x200, 150); // no sample
        assert_eq!(p.attributed(ProfTier::Interp), 60);
        assert_eq!(p.attributed(ProfTier::Trans), 70);
        assert_eq!(p.attributed_total(), 130);
        assert_eq!(p.retired(ProfTier::Trans), 2);
    }

    #[test]
    fn collapsed_stack_is_ranked_and_parseable() {
        let mut p = Prof::new(1);
        p.observe(ProfTier::Cache, 0x1000, 10);
        p.observe(ProfTier::Trans, 0x2000, 100);
        let text = p.collapsed_stack();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        // Ranked: the 90-cycle trans bucket first.
        assert_eq!(lines[0], "guest;tier_trans;page_0x00010;pc_0x00002000 90");
        assert_eq!(lines[1], "guest;tier_cache;page_0x00008;pc_0x00001000 10");
        for l in lines {
            let (stack, n) = l.rsplit_once(' ').expect("space-separated");
            assert!(stack.starts_with("guest;tier_"));
            n.parse::<u64>().expect("numeric suffix");
        }
    }

    #[test]
    fn page_buckets_roll_up_pcs() {
        let mut p = Prof::new(1);
        p.observe(ProfTier::Cache, 0x1000, 10);
        p.observe(ProfTier::Cache, 0x1004, 30); // same page, +20
        p.observe(ProfTier::Cache, 0x2000, 35); // other page, +5
        let pages = p.page_buckets();
        assert_eq!(pages, vec![(0x8, 30), (0x10, 5)]);
    }

    #[test]
    fn dirty_rate_differences_monotonic_counts() {
        let mut p = Prof::new(1);
        p.note_dirty(3);
        p.note_dirty(3);
        p.note_dirty(10);
        assert_eq!(p.dirty_rate().count(), 3);
        assert_eq!(p.dirty_rate().sum(), 10);
        assert_eq!(p.dirty_rate().max(), 7);
    }

    #[test]
    fn bucket_cap_accumulates_overflow() {
        let mut p = Prof::new(1);
        let mut now = 0;
        for pc in 0..(MAX_BUCKETS as u32 + 3) {
            now += 1;
            p.observe(ProfTier::Interp, pc * 4, now);
        }
        assert_eq!(p.pc_buckets().len(), MAX_BUCKETS);
        assert_eq!(p.overflow_cycles(), 3);
        assert!(p.collapsed_stack().contains("guest;overflow 3\n"));
    }
}
