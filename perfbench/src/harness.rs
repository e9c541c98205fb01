//! Shared measurement machinery: the seeded input generator, the
//! host-speed reference, the per-run timeline that normalizes every
//! timed segment by it, the percentile helper, and the host counters
//! read from `/proc`.

use std::hint::black_box;
#[cfg(all(target_os = "linux", target_env = "gnu"))]
use std::os::raw::c_int;
use std::time::Instant;

/// SplitMix64: the only source of workload variation, seeded from
/// `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// A host-speed reference kernel: `accesses` dependent random
/// read-modify-writes over a buffer of `bytes`. The buffer size sets
/// which host contention the kernel feels (README.md, "Noise"), so each
/// workload picks the size whose swings best match its own.
#[derive(Debug, Clone, Copy)]
pub struct RefKernel {
    /// Buffer size in bytes, a power of two.
    pub bytes: usize,
    /// Dependent accesses per chunk.
    pub accesses: u32,
    /// Most recent chunks whose median time sets the factor.
    pub window: usize,
    /// The chunk time that defines a factor of 1.0: about the median
    /// chunk time on the 2-vCPU x86-64 host (Xeon, 2 MiB L2) the
    /// benchmark was calibrated on. Fixed, so normalized numbers from
    /// different runs and commits compare directly.
    pub nominal_ns: f64,
}

/// 256 KiB: sits in L2; swings like fork-heavy serving.
pub const REF_256K: RefKernel = RefKernel {
    bytes: 256 * 1024,
    accesses: 40_000,
    window: 3,
    nominal_ns: 250_000.0,
};
/// 1 MiB: shares L2 with the simulator's working set; swings like guest
/// execution and checkpointing.
pub const REF_1M: RefKernel = RefKernel {
    bytes: 1024 * 1024,
    accesses: 30_000,
    window: 3,
    nominal_ns: 280_000.0,
};

/// The host-speed reference: a fixed amount of random-access work, run
/// between ops (never during one). Its time divided by the kernel's
/// nominal time is how much slower than nominal the host is right now.
pub struct HostRef {
    kernel: RefKernel,
    buf: Vec<u32>,
    state: u32,
}

impl HostRef {
    /// Allocates and fills the buffer from a fixed seed.
    pub fn new(kernel: RefKernel) -> HostRef {
        let mut rng = Rng::new(0x0256_0256);
        let buf = (0..kernel.bytes / 4)
            .map(|_| rng.next_u64() as u32)
            .collect();
        HostRef {
            kernel,
            buf,
            state: 1,
        }
    }

    /// Warms the buffer (one sequential pass, untimed, so the program's
    /// own cache footprint cannot change the chunk's speed), then times
    /// one chunk. Returns nanoseconds.
    pub fn chunk_ns(&mut self) -> f64 {
        let warm = self.buf.iter().fold(0u32, |a, w| a.wrapping_add(*w));
        black_box(warm);
        let mask = (self.buf.len() - 1) as u32;
        let mut x = self.state;
        let t = Instant::now();
        for _ in 0..self.kernel.accesses {
            let i = (x & mask) as usize;
            let v = self.buf[i];
            self.buf[i] = v.wrapping_add(x);
            // The next address depends on the loaded value: no overlap,
            // no prefetch.
            x = x.wrapping_mul(0x9E37_79B9) ^ v;
        }
        let ns = t.elapsed().as_nanos() as f64;
        self.state = black_box(x);
        ns
    }
}

/// Fixes glibc's malloc policy for the whole process; call before any
/// thread starts (README.md, "Noise").
///
/// - By default glibc moves its mmap threshold as blocks are freed and
///   trims a heap when its free top grows, so whether a recycled 8 MiB
///   guest memory is reused in place or handed back to the kernel and
///   faulted in again depends on timing. In one `vaxd_fork` run in five
///   to eight, a whole run fell into the second mode, at 10–12 ms a
///   request instead of 1 ms. Fixed thresholds keep every block up to
///   32 MiB on the heap and the heap untrimmed: the common mode.
/// - One arena for all threads, so that [`trim_heap`] can return every
///   free page: `malloc_trim` never shrinks the top of a thread's own
///   arena, and the peak resident set took one of three values,
///   depending on how many arenas the restarted daemons' workers had
///   left freed monitors in.
pub fn fix_allocator() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        // From glibc's <malloc.h>.
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_MMAP_THRESHOLD: c_int = -3;
        const M_ARENA_MAX: c_int = -8;
        // SAFETY: mallopt only sets allocator parameters; no thread
        // has started yet.
        let ok = unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1
                && mallopt(M_TRIM_THRESHOLD, c_int::MAX) == 1
                && mallopt(M_ARENA_MAX, 1) == 1
        };
        if !ok {
            eprintln!("perfbench: mallopt refused the fixed allocator policy");
        }
    }
}

/// Returns every free heap page to the kernel. Each `vaxd_fork` set-up
/// starts from here, so each pays the same page faults, and the peak
/// resident set does not depend on what the daemons of earlier set-ups
/// left behind.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    // SAFETY: malloc_trim only releases free memory.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
}

/// Nanoseconds since `t`.
pub fn ns_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64
}

/// One op's latency, raw and normalized. A failed op's latency is
/// infinite: it misses every latency target.
#[derive(Debug, Clone, Copy)]
pub struct OpSample {
    /// Host nanoseconds as measured.
    pub raw_ns: f64,
    /// Host nanoseconds divided by the reference factor.
    pub norm_ns: f64,
    /// Index of the last timed segment when the op was recorded.
    pub segment: usize,
}

/// One timed stretch of work: an op, or guest work between ops.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Host nanoseconds as measured.
    pub raw_ns: f64,
    /// Host nanoseconds divided by the reference factor.
    pub norm_ns: f64,
    /// Simulated guest instructions retired in it.
    pub instructions: u64,
}

/// Blocks a run's segments are split into for the rate metrics, which
/// report the median block's rate.
pub const RATE_BLOCKS: usize = 10;

/// The timed part of a run: reference chunks interleaved with timed
/// segments (ops and the guest work between them).
pub struct Timeline {
    hostref: HostRef,
    factor: f64,
    /// Every reference chunk's time, in order.
    pub ref_ns: Vec<f64>,
    /// Every timed segment, in order.
    pub segments: Vec<Segment>,
    /// One sample per attempted op.
    pub ops: Vec<OpSample>,
    /// Ops that failed a correctness check.
    pub failed: u64,
}

impl Timeline {
    /// An empty timeline normalized by `kernel`.
    pub fn new(kernel: RefKernel) -> Timeline {
        Timeline {
            hostref: HostRef::new(kernel),
            factor: 1.0,
            ref_ns: Vec::new(),
            segments: Vec::new(),
            ops: Vec::new(),
            failed: 0,
        }
    }

    /// Runs one reference chunk. The median of the kernel's window of
    /// recent chunks, over the nominal time, is the factor everything
    /// timed until the next chunk is divided by; the median keeps one
    /// preempted chunk from skewing an op.
    pub fn reference(&mut self) {
        let ns = self.hostref.chunk_ns();
        self.ref_ns.push(ns);
        let window = self.hostref.kernel.window;
        let recent = &self.ref_ns[self.ref_ns.len().saturating_sub(window)..];
        self.factor = median(recent) / self.hostref.kernel.nominal_ns;
    }

    /// Normalizes `raw_ns` by the current factor.
    pub fn norm(&self, raw_ns: f64) -> f64 {
        raw_ns / self.factor
    }

    /// Adds a timed segment of `raw_ns` that retired `instructions`.
    pub fn busy(&mut self, raw_ns: f64, instructions: u64) {
        self.segments.push(Segment {
            raw_ns,
            norm_ns: self.norm(raw_ns),
            instructions,
        });
    }

    /// The reference kernel in use.
    pub fn kernel(&self) -> RefKernel {
        self.hostref.kernel
    }

    /// The factor everything timed now is divided by.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Records one op's latency (not its segment time, see
    /// [`Timeline::busy`]).
    pub fn op(&mut self, latency_raw_ns: f64, ok: bool) {
        self.op_with_factor(latency_raw_ns, self.factor, ok);
    }

    /// Records an op timed under an earlier reference `factor`, for ops
    /// whose verdict comes later.
    pub fn op_with_factor(&mut self, latency_raw_ns: f64, factor: f64, ok: bool) {
        let (raw_ns, norm_ns) = if ok {
            (latency_raw_ns, latency_raw_ns / factor)
        } else {
            self.failed += 1;
            (f64::INFINITY, f64::INFINITY)
        };
        self.ops.push(OpSample {
            raw_ns,
            norm_ns,
            segment: self.segments.len().saturating_sub(1),
        });
    }

    /// The four timed end-to-end metrics, normalized or raw. The rates
    /// are the median over [`RATE_BLOCKS`] consecutive blocks of
    /// segments of each block's instructions (or completed ops) per
    /// second; the latencies are percentiles over every op.
    pub fn summary(&self, raw: bool) -> Summary {
        let time = |s: &Segment| if raw { s.raw_ns } else { s.norm_ns };
        let n = self.segments.len();
        let blocks = RATE_BLOCKS.min(n).max(1);
        let mut done = vec![0u64; blocks];
        for o in self.ops.iter().filter(|o| o.norm_ns.is_finite()) {
            done[(o.segment * blocks / n.max(1)).min(blocks - 1)] += 1;
        }
        let (mut mips, mut per_s) = (Vec::new(), Vec::new());
        for (b, ops) in done.iter().enumerate() {
            let block = &self.segments[b * n / blocks..(b + 1) * n / blocks];
            let secs = block.iter().map(time).sum::<f64>() / 1e9;
            let instructions: u64 = block.iter().map(|s| s.instructions).sum();
            mips.push(instructions as f64 / secs / 1e6);
            per_s.push(*ops as f64 / secs);
        }
        let mut lat_ms: Vec<f64> = self
            .ops
            .iter()
            .map(|o| if raw { o.raw_ns } else { o.norm_ns } / 1e6)
            .collect();
        lat_ms.sort_by(f64::total_cmp);
        Summary {
            guest_mips: median(&mips),
            op_per_s: median(&per_s),
            p50_ms: percentile(&lat_ms, 0.50),
            p90_ms: percentile(&lat_ms, 0.90),
        }
    }
}

/// The timed end-to-end metrics of one timeline.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Guest instructions per host second, in millions.
    pub guest_mips: f64,
    /// Completed ops per host second.
    pub op_per_s: f64,
    /// Median op latency.
    pub p50_ms: Pct,
    /// p90 op latency.
    pub p90_ms: Pct,
}

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile with the sample count it came from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    /// The quantile, in `0..1`.
    pub q: f64,
    /// Samples it was taken over.
    pub n: usize,
    /// The value, or `None` when fewer than [`MIN_BEYOND`] samples lie
    /// beyond it.
    pub value: Option<f64>,
}

impl std::fmt::Display for Pct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.q * 100.0;
        match self.value {
            Some(v) => write!(f, "p{p} = {v:.4} (n = {})", self.n),
            None => write!(f, "p{p} = missing (n = {}, < {MIN_BEYOND} beyond)", self.n),
        }
    }
}

/// Nearest-rank percentile of ascending `sorted`: the smallest sample
/// with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> Pct {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let value = (n >= rank && n - rank >= MIN_BEYOND).then(|| sorted[rank - 1]);
    Pct { q, n, value }
}

/// Median of `v` (the mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Host scheduler counters, to make a disturbed run visible.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// Run-queue wait summed over this process's threads, nanoseconds.
    pub runqueue_wait_ns: u64,
    /// Host-wide steal time, `USER_HZ` ticks.
    pub steal_ticks: u64,
}

impl HostCounters {
    /// Reads `/proc/self/task/*/schedstat` and `/proc/stat`. Missing
    /// files read as zero.
    pub fn read() -> HostCounters {
        let mut wait = 0u64;
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let stat = std::fs::read_to_string(t.path().join("schedstat")).unwrap_or_default();
                wait += stat
                    .split_whitespace()
                    .nth(1)
                    .and_then(|w| w.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let steal = stat
            .lines()
            .next()
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|s| s.parse::<u64>().ok())
            .unwrap_or(0);
        HostCounters {
            runqueue_wait_ns: wait,
            steal_ticks: steal,
        }
    }

    /// `(run-queue wait ms, steal ms)` between `self` and `later`. Steal
    /// ticks are taken as 10 ms (`USER_HZ` = 100).
    pub fn delta_ms(&self, later: &HostCounters) -> (f64, f64) {
        (
            later.runqueue_wait_ns.saturating_sub(self.runqueue_wait_ns) as f64 / 1e6,
            later.steal_ticks.saturating_sub(self.steal_ticks) as f64 * 10.0,
        )
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).value, Some(50.0));
        assert_eq!(percentile(&v, 0.9).value, Some(90.0));
        assert_eq!(percentile(&v, 0.9).n, 100);
        // 99 samples: p90 is rank 90, with only 9 beyond it.
        assert_eq!(percentile(&v[..99], 0.9).value, None);
        assert_eq!(percentile(&v[..20], 0.5).value, Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5).value, None);
        assert_eq!(percentile(&[], 0.5).value, None);
    }

    #[test]
    fn failed_ops_miss_every_latency_target() {
        let mut tl = Timeline::new(REF_256K);
        for i in 0..30 {
            tl.busy(1e6, 0);
            tl.op(1e6 * f64::from(i + 1), i % 3 != 0);
        }
        let s = tl.summary(true);
        // 10 of 30 ops failed and sort last: p50 is rank 15 of the
        // passing latencies interleaved with +inf above them.
        assert_eq!(tl.failed, 10);
        assert_eq!(s.p50_ms.value, Some(23.0));
        assert_eq!(s.p90_ms.value, None);
    }

    #[test]
    fn percentile_display_carries_the_count() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5).to_string(), "p50 = 20.0000 (n = 40)");
        assert_eq!(
            percentile(&v, 0.9).to_string(),
            "p90 = missing (n = 40, < 10 beyond)"
        );
    }

    #[test]
    fn rng_is_a_pure_function_of_the_seed() {
        let a: Vec<u64> = {
            let mut r = Rng::new(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let mut r = Rng::new(7);
        assert!(a.iter().all(|x| *x == r.next_u64()));
        assert_ne!(Rng::new(8).next_u64(), a[0]);
    }
}
