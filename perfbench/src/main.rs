//! The repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload e8_vm|vaxd_fork|ckpt_migrate --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the six end-to-end metrics with tracing off.
//! `--trace 1` spends half the time on the same workload untraced and
//! half traced, and reports the per-layer metrics, the raw forms of the
//! end-to-end metrics and the tracing overhead. Both print a report and
//! end with one JSON line. README.md explains every choice.

mod ckpt;
mod e8;
mod fork;
mod harness;
mod reference;
#[cfg(test)]
mod selftest;
mod sim;
mod trace;

use harness::{median, peak_rss_mib, HostCounters, Pct, RefKernel, Summary, Timeline};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// The workloads the command runs. `BENCHMARK.json` gates the steadiest
/// of them (README.md, "Noise").
pub const WORKLOADS: [&str; 3] = ["e8_vm", "vaxd_fork", "ckpt_migrate"];

/// The end-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("guest_mips", "Minstr/s"),
    ("op_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// The per-layer metrics every traced run reports: `(name, unit)`. A
/// workload that never calls a layer reports 0 for it.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("os.build_image_ms", "ms"),
        ("os.boot_in_monitor_ms", "ms"),
        ("asm.payload_us", "us"),
        ("cpu.bare_mips", "Minstr/s"),
        ("cpu.instructions_per_op", "count"),
        ("cpu.decode_cache_hit_rate", "ratio"),
        ("cpu.tlb_hit_rate", "ratio"),
        ("cpu.trans_blocks_executed", "count"),
        ("cpu.trans_side_exits", "count"),
        ("core.monitor_new_ms", "ms"),
        ("core.run_ms", "ms"),
        ("core.exits_per_kinstr", "1/kinstr"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for cause in vax_obs::ExitCause::ALL {
        v.push((format!("core.exits.{}", cause.name()), "count"));
    }
    v.extend(
        [
            ("core.world_switches", "count"),
            ("core.sim_cycles_per_op", "cycles"),
            ("core.vmm_cycle_share", "ratio"),
            ("core.fleet.migrate_live_ms", "ms"),
            ("core.fleet.downtime_ms", "ms"),
            ("core.fleet.precopy_rounds", "count"),
            ("core.fleet.final_pages", "pages"),
            ("mem.fork_mem_us", "us"),
            ("mem.cow_pages_per_op", "pages"),
            ("mem.dirty_pages_per_delta", "pages"),
            ("snap.fork_child_us", "us"),
            ("snap.delta_capture_ms", "ms"),
            ("snap.full_capture_ms", "ms"),
            ("snap.restore_chain_ms", "ms"),
            ("snap.delta_bytes", "bytes"),
            ("snap.full_bytes", "bytes"),
            ("vaxd.ping_rtt_us", "us"),
            ("vaxd.parse_us", "us"),
            ("vaxd.admit_us", "us"),
            ("vaxd.run_us", "us"),
            ("vaxd.reap_us", "us"),
            ("vaxd.reply_us", "us"),
            ("vaxd.unattributed_us", "us"),
            ("vaxd.requests_ok", "count"),
            ("vaxd.requests_rejected", "count"),
            ("vaxd.children_leaked", "count"),
            ("obs.render_us", "us"),
            ("host.ref_mops", "Mops/s"),
            ("host.raw.setup_s", "s"),
            ("host.raw.guest_mips", "Minstr/s"),
            ("host.raw.op_per_s", "1/s"),
            ("host.raw.op_p50_ms", "ms"),
            ("host.raw.op_p90_ms", "ms"),
            ("host.runqueue_wait_ms", "ms"),
            ("host.steal_ms", "ms"),
            ("trace.overhead_pct", "%"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    v
}

/// Per-layer timings taken as the median of every span with a name:
/// `(metric, span name, nanoseconds per unit)`.
const SPAN_MEDIANS: [(&str, &str, f64); 18] = [
    ("os.build_image_ms", "os.build_image", 1e6),
    ("os.boot_in_monitor_ms", "os.boot_in_monitor", 1e6),
    ("asm.payload_us", "asm.payload", 1e3),
    ("core.monitor_new_ms", "core.monitor_new", 1e6),
    ("core.run_ms", "core.run", 1e6),
    ("core.fleet.migrate_live_ms", "core.fleet.migrate_live", 1e6),
    ("mem.fork_mem_us", "mem.fork_mem", 1e3),
    ("snap.fork_child_us", "snap.fork_child", 1e3),
    ("snap.delta_capture_ms", "snap.delta_capture", 1e6),
    ("snap.full_capture_ms", "snap.full_capture", 1e6),
    ("snap.restore_chain_ms", "snap.restore_chain", 1e6),
    ("vaxd.ping_rtt_us", "vaxd.ping", 1e3),
    ("vaxd.parse_us", "vaxd.parse", 1e3),
    ("vaxd.admit_us", "vaxd.admit", 1e3),
    ("vaxd.run_us", "vaxd.run", 1e3),
    ("vaxd.reap_us", "vaxd.reap", 1e3),
    ("vaxd.reply_us", "vaxd.reply", 1e3),
    ("obs.render_us", "obs.render", 1e3),
];

/// Everything one workload run produces.
pub struct Ctx {
    /// The workload seed: the only source of variation.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Set-ups to time before the loop.
    pub setup_reps: usize,
    /// Reference chunks, timed segments and op latencies.
    pub tl: Timeline,
    /// Spans (empty unless tracing).
    pub tr: Tracer,
    /// Per-layer metrics the workload computed itself.
    pub layer: BTreeMap<String, f64>,
    /// Each set-up's host time, raw.
    pub setup_raw_ns: Vec<f64>,
    /// Each set-up's host time, normalized.
    pub setup_norm_ns: Vec<f64>,
    /// Failed checks outside ops (set-up, shutdown).
    pub errors: u64,
}

impl Ctx {
    /// A fresh context normalized by `kernel`.
    pub fn new(seed: u64, seconds: f64, traced: bool, kernel: RefKernel) -> Ctx {
        Ctx {
            seed,
            seconds,
            setup_reps: SETUP_REPS,
            tl: Timeline::new(kernel),
            tr: Tracer::new(traced),
            layer: BTreeMap::new(),
            setup_raw_ns: Vec::new(),
            setup_norm_ns: Vec::new(),
            errors: 0,
        }
    }

    /// Times one set-up, normalized by a reference chunk run just before.
    pub fn setup<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> T {
        self.tl.reference();
        let t = Instant::now();
        let out = f(self);
        let raw = harness::ns_since(t);
        self.setup_raw_ns.push(raw);
        self.setup_norm_ns.push(self.tl.norm(raw));
        out
    }

    /// Reports a failed check outside an op.
    pub fn error(&mut self, msg: String) {
        self.errors += 1;
        if self.errors <= 5 {
            eprintln!("perfbench: check failed: {msg}");
        }
    }

    /// A failed check of an op: reported like [`Ctx::error`], counted
    /// by the caller as a failed op.
    pub fn op_error(&mut self, msg: String) {
        if self.tl.failed <= 5 {
            eprintln!("perfbench: op check failed: {msg}");
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--print-reference") {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Some(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    }))
}

fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Ctx {
    let (kernel, run): (RefKernel, fn(&mut Ctx)) = match name {
        "e8_vm" => (e8::REFERENCE, e8::run),
        "vaxd_fork" => (fork::REFERENCE, fork::run),
        "ckpt_migrate" => (ckpt::REFERENCE, ckpt::run),
        _ => unreachable!("workload names are checked in parse_args"),
    };
    let mut ctx = Ctx::new(seed, seconds, traced, kernel);
    if traced {
        ctx.setup_reps = 1;
    }
    run(&mut ctx);
    ctx
}

fn pct_value(p: &Pct) -> f64 {
    p.value.unwrap_or(f64::MAX)
}

fn json_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64, &str)],
) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let v = if value.is_finite() { *value } else { f64::MAX };
        let _ = write!(s, "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}");
    }
    s.push_str("}}");
    s
}

fn summary_ok(s: &Summary) -> bool {
    s.p50_ms.value.is_some() && s.p90_ms.value.is_some() && s.op_per_s > 0.0
}

fn verdict(ctx: &Ctx) -> (bool, u64, u64) {
    let attempted = ctx.tl.ops.len() as u64;
    let s = ctx.tl.summary(false);
    let correct = attempted > 0 && ctx.tl.failed == 0 && ctx.errors == 0 && summary_ok(&s);
    (correct, attempted, ctx.tl.failed)
}

fn print_summary(label: &str, ctx: &Ctx) {
    let n = ctx.tl.summary(false);
    let r = ctx.tl.summary(true);
    let nominal = ctx.tl.kernel().nominal_ns;
    let factors: Vec<f64> = ctx.tl.ref_ns.iter().map(|ns| ns / nominal).collect();
    println!(
        "{label}: {} ops attempted, {} failed, {} set-ups, {} reference chunks (median factor {:.3})",
        ctx.tl.ops.len(),
        ctx.tl.failed,
        ctx.setup_norm_ns.len(),
        factors.len(),
        median(&factors)
    );
    println!(
        "  setup_s     {:.4} s        raw {:.4} s",
        median(&ctx.setup_norm_ns) / 1e9,
        median(&ctx.setup_raw_ns) / 1e9
    );
    println!(
        "  guest_mips  {:.4} Minstr/s raw {:.4}",
        n.guest_mips, r.guest_mips
    );
    println!(
        "  op_per_s    {:.4} 1/s      raw {:.4}",
        n.op_per_s, r.op_per_s
    );
    println!("  op_p50_ms   {}   raw {}", n.p50_ms, r.p50_ms);
    println!("  op_p90_ms   {}   raw {}", n.p90_ms, r.p90_ms);
}

fn end_to_end(ctx: &Ctx) -> Vec<(String, f64, &'static str)> {
    let s = ctx.tl.summary(false);
    let values = [
        median(&ctx.setup_norm_ns) / 1e9,
        s.guest_mips,
        s.op_per_s,
        pct_value(&s.p50_ms),
        pct_value(&s.p90_ms),
        peak_rss_mib(),
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| (name.to_string(), v, *unit))
        .collect()
}

fn span_medians(ctx: &mut Ctx) {
    for (metric, span, per) in SPAN_MEDIANS {
        let durs: Vec<f64> = ctx
            .tr
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.dur_ns() as f64 / per)
            .collect();
        if !durs.is_empty() {
            ctx.layer.insert(metric.to_string(), median(&durs));
        }
    }
}

fn write_trace(workload: &str, seed: u64, ctx: &Ctx, summary: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let stem = format!("{workload}-seed{seed}");
        std::fs::write(
            dir.join(format!("{stem}.trace.json")),
            trace::chrome_json(&ctx.tr.spans, workload),
        )?;
        std::fs::write(dir.join(format!("{stem}.layers.txt")), summary)
    });
    match written {
        Ok(()) => println!("trace written to {}", dir.display()),
        Err(e) => eprintln!("perfbench: could not write the trace: {e}"),
    }
}

/// The per-layer self-time table over every op, and whether every op's
/// self times add up to its duration.
fn layer_table(ctx: &Ctx) -> (String, bool) {
    let sum = trace::layer_summary(&ctx.tr.spans);
    let total: i64 = sum.values().map(|t| t.self_ns).sum();
    let mut s = String::from("layer            self_ms     share  calls\n");
    for (layer, t) in &sum {
        let name = if *layer == "bench" {
            "unattributed"
        } else {
            layer
        };
        let _ = writeln!(
            s,
            "{name:<14} {:>9.3} {:>8.2}% {:>6}",
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / total.max(1) as f64,
            t.calls
        );
    }
    let balance = trace::op_balance(&ctx.tr.spans);
    let balanced = balance.iter().all(|(_, dur, sum)| dur == sum);
    let _ = writeln!(
        s,
        "{} ops; per-op self times add up to the op time: {}",
        balance.len(),
        if balanced { "yes" } else { "NO" }
    );
    (s, balanced)
}

fn main() {
    harness::fix_allocator();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => {
            e8::print_reference();
            return;
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host0 = HostCounters::read();
    if !args.trace {
        let ctx = run_workload(&args.workload, args.seed, args.seconds, false);
        let (wait_ms, steal_ms) = host0.delta_ms(&HostCounters::read());
        print_summary(&args.workload, &ctx);
        println!("  host        run-queue wait {wait_ms:.1} ms, steal {steal_ms:.1} ms");
        let (correct, attempted, failed) = verdict(&ctx);
        println!(
            "{}",
            json_line(correct, attempted, failed, &end_to_end(&ctx))
        );
        return;
    }

    let half = args.seconds / 2.0;
    let plain = run_workload(&args.workload, args.seed, half, false);
    let mut traced = run_workload(&args.workload, args.seed, half, true);
    let (wait_ms, steal_ms) = host0.delta_ms(&HostCounters::read());
    print_summary(&format!("{} untraced half", args.workload), &plain);
    print_summary(&format!("{} traced half", args.workload), &traced);

    span_medians(&mut traced);
    let raw = plain.tl.summary(true);
    let p50_plain = plain.tl.summary(false).p50_ms.value;
    let p50_traced = traced.tl.summary(false).p50_ms.value;
    let refs: Vec<f64> = traced.tl.ref_ns.clone();
    let host = [
        (
            "host.ref_mops",
            f64::from(traced.tl.kernel().accesses) / (median(&refs) / 1e3),
        ),
        ("host.raw.setup_s", median(&plain.setup_raw_ns) / 1e9),
        ("host.raw.guest_mips", raw.guest_mips),
        ("host.raw.op_per_s", raw.op_per_s),
        ("host.raw.op_p50_ms", pct_value(&raw.p50_ms)),
        ("host.raw.op_p90_ms", pct_value(&raw.p90_ms)),
        ("host.runqueue_wait_ms", wait_ms),
        ("host.steal_ms", steal_ms),
        (
            "trace.overhead_pct",
            match (p50_plain, p50_traced) {
                (Some(a), Some(b)) => 100.0 * (b - a) / a,
                _ => f64::MAX,
            },
        ),
    ];
    for (k, v) in host {
        traced.layer.insert(k.to_string(), v);
    }

    let (table, balanced) = layer_table(&traced);
    println!("{table}");
    let mut metrics = Vec::new();
    for (name, unit) in per_layer() {
        let v = traced.layer.get(&name).copied().unwrap_or(0.0);
        println!("  {name:<34} {v:>14.4} {unit}");
        metrics.push((name, v, unit));
    }
    write_trace(&args.workload, args.seed, &traced, &table);
    let (c1, a1, f1) = verdict(&plain);
    let (c2, a2, f2) = verdict(&traced);
    let correct = c1 && c2 && balanced;
    println!("{}", json_line(correct, a1 + a2, f1 + f2, &metrics));
}
