//! `vaxd_fork`: an in-process `vaxd` daemon with one worker, driven by
//! one persistent connection in a closed loop. Most of a request is
//! `WarmBase::fork_child`; the payload and the reap are small.

use crate::harness::{self, RefKernel, Rng};
use crate::sim::SimCounts;
use crate::Ctx;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;
use vax_vmm::{Monitor, MonitorConfig, RunExit, VmConfig};
use vaxd::payload::spin_print_payload;
use vaxd::proto::{hex_encode, ok_line, parse_request, parse_response, Request, Response};
use vaxd::{Admission, Daemon, DaemonConfig, RunOutput, TenantQuota, WarmBase};

/// The host-speed reference for this workload (README.md, "Noise").
pub const REFERENCE: RefKernel = harness::REF_256K;
/// The served base: `WarmBase::boot_minivms(BASE, 2, 20, …)`.
const BASE: &str = "minivms";
const BASE_NPROC: u32 = 2;
const BASE_ITERATIONS: u32 = 20;
const BOOT_BUDGET: u64 = 100_000_000;
const TENANT: &str = "bench";
/// Cycle budget per request; the longest payload needs a small part.
const REQUEST_BUDGET: u64 = 5_000_000;
/// Distinct payloads per seed; requests draw from them.
pub const POOL: usize = 64;
/// Most `SOBGTR` spins in a payload.
const MAX_SPIN: u64 = 2_000;
/// Most console bytes a payload prints.
const MAX_MSG: u64 = 16;
/// Requests sent in each set-up before timing.
const WARMUP_REQUESTS: usize = 8;
/// Trace-ring records kept while `enable_obs` is on.
const OBS_RING: usize = 64;

/// One distinct payload: its inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PayloadSpec {
    /// `SOBGTR` iterations before printing.
    pub spin: u32,
    /// Bytes printed.
    pub msg: Vec<u8>,
}

/// The seeded payload pool and the request sequence over it. Spins and
/// message lengths are stratified (one random draw per equal-width
/// stratum), so every seed's pool has nearly the same mean work and
/// seeds differ in detail, not in load.
pub fn inputs(seed: u64) -> (Vec<PayloadSpec>, impl Iterator<Item = usize>) {
    let mut rng = Rng::new(seed);
    let stratum = |i: usize, max: u64, rng: &mut Rng| {
        let width = (max + 1) as f64 / POOL as f64;
        ((i as f64 + rng.next_u64() as f64 / u64::MAX as f64) * width).min(max as f64) as u64
    };
    let pool = (0..POOL)
        .map(|i| {
            let spin = stratum(i, MAX_SPIN, &mut rng) as u32;
            let len = 1 + stratum(i, MAX_MSG - 1, &mut rng);
            let msg = (0..len).map(|_| rng.range(0x21, 0x7e) as u8).collect();
            PayloadSpec { spin, msg }
        })
        .collect();
    let picks = std::iter::repeat_with(move || rng.range(0, POOL as u64 - 1) as usize);
    (pool, picks)
}

fn assemble(spec: &PayloadSpec) -> Vec<u8> {
    spin_print_payload(spec.spin, &spec.msg).expect("payloads assemble")
}

fn request_line(payload: &[u8]) -> String {
    format!(
        "RUN {TENANT} {BASE} {REQUEST_BUDGET} {}\n",
        hex_encode(payload)
    )
}

/// What a payload must answer, from the standalone oracle.
struct Expected {
    out: RunOutput,
    instructions: u64,
}

/// Boots the benchmark's own copy of the served base through the
/// `vax-os` and `vax-vmm` calls `boot_minivms` makes, so the traced run
/// sees them as spans.
fn boot_base(ctx: &mut Ctx) -> WarmBase {
    let tr = &mut ctx.tr;
    let image = tr
        .span("os.build_image", || {
            vax_os::build_image(&vax_os::OsConfig {
                nproc: BASE_NPROC,
                workload: vax_os::Workload::Compute,
                iterations: BASE_ITERATIONS,
                ..vax_os::OsConfig::default()
            })
        })
        .expect("base image builds");
    let mut mon = tr.span(
        "core.monitor_new",
        || Monitor::new(MonitorConfig::default()),
    );
    tr.span("os.boot_in_monitor", || {
        vax_os::boot_in_monitor(&mut mon, &image, VmConfig::default())
    });
    let exit = tr.span("core.run", || mon.run(BOOT_BUDGET));
    assert_eq!(exit, RunExit::AllHalted, "the base boots to halt");
    WarmBase::from_monitor(BASE, mon).expect("the base is quiescent")
}

/// The oracle for one payload: `WarmBase::run_standalone`, plus the
/// instructions it retires, counted on a monitor restored the same way.
fn oracle(base: &WarmBase, payload: &[u8]) -> Expected {
    let out = base
        .run_standalone(payload, REQUEST_BUDGET)
        .expect("oracle runs");
    let mut mon = vax_snap::restore_monitor(base.snapshot_bytes()).expect("base restores");
    let before = mon.machine().counters().instructions;
    let again = vaxd::base::run_payload(&mut mon, payload, REQUEST_BUDGET).expect("oracle runs");
    assert_eq!(again, out, "restored replica matches run_standalone");
    Expected {
        out,
        instructions: mon.machine().counters().instructions - before,
    }
}

/// The oracle's status, cycles, console and instruction count for each
/// payload, on a freshly booted base.
#[cfg(test)]
pub fn oracle_outputs(pool: &[PayloadSpec]) -> Vec<(RunOutput, u64)> {
    let mut ctx = Ctx::new(0, 0.0, false, REFERENCE);
    let base = boot_base(&mut ctx);
    pool.iter()
        .map(|spec| {
            let e = oracle(&base, &assemble(spec));
            (e.out, e.instructions)
        })
        .collect()
}

struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Client {
    fn connect(daemon: &Daemon) -> std::io::Result<Client> {
        let writer = TcpStream::connect(daemon.local_addr())?;
        writer.set_nodelay(true)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Client {
            writer,
            reader,
            line: String::new(),
        })
    }

    /// Sends one request line and reads the reply line.
    fn call(&mut self, request: &str) -> std::io::Result<&str> {
        self.writer.write_all(request.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

fn reply_matches(reply: std::io::Result<&str>, want: &RunOutput) -> Result<(), String> {
    let reply = reply.map_err(|e| format!("wire error: {e}"))?;
    match parse_response(reply) {
        Ok(Response::Ok {
            status,
            cycles,
            console,
        }) if status == want.status && cycles == want.cycles && console == want.console => Ok(()),
        _ => Err(format!("reply {reply:?} differs from the oracle {want:?}")),
    }
}

/// The served daemon, its client connection and the request lines.
struct Served {
    daemon: Daemon,
    client: Client,
    lines: Vec<String>,
}

fn serve(ctx: &mut Ctx, pool: &[PayloadSpec], expected: &[Expected]) -> Served {
    let base = WarmBase::boot_minivms(BASE, BASE_NPROC, BASE_ITERATIONS, BOOT_BUDGET)
        .expect("the served base boots");
    let lines: Vec<String> = pool
        .iter()
        .map(|spec| request_line(&ctx.tr.span("asm.payload", || assemble(spec))))
        .collect();
    let config = DaemonConfig {
        workers: 1,
        ..DaemonConfig::default()
    };
    let daemon = Daemon::start(config, vec![base]).expect("the daemon starts");
    let mut client = Client::connect(&daemon).expect("the daemon accepts");
    for i in 0..WARMUP_REQUESTS {
        let k = i % pool.len();
        if let Err(e) = reply_matches(client.call(&lines[k]), &expected[k].out) {
            ctx.error(format!("warm-up request: {e}"));
        }
    }
    Served {
        daemon,
        client,
        lines,
    }
}

fn shut_down(ctx: &mut Ctx, served: Served) {
    let Served { daemon, client, .. } = served;
    drop(client);
    let metrics = daemon.metrics();
    if ctx.tr.is_on() {
        let text = ctx
            .tr
            .span("obs.render", || daemon.metrics().to_prometheus());
        std::hint::black_box(text);
        for (layer, name) in [
            ("vaxd.requests_ok", "vaxd_requests_ok"),
            ("vaxd.requests_rejected", "vaxd_requests_rejected"),
        ] {
            let v = metrics.get_counter(name).unwrap_or(0) as f64;
            ctx.layer.insert(layer.into(), v);
        }
    }
    let report = daemon.shutdown();
    if ctx.tr.is_on() {
        ctx.layer
            .insert("vaxd.children_leaked".into(), report.children_leaked as f64);
    }
    if !report.drained_in_deadline || report.children_leaked != 0 {
        ctx.error(format!("daemon shutdown: {report:?}"));
    }
}

/// One timed step of a replayed request.
struct Step {
    name: &'static str,
    start: Instant,
    end: Instant,
}

fn timed<T>(steps: &mut Vec<Step>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    steps.push(Step {
        name,
        start,
        end: Instant::now(),
    });
    out
}

/// What one replayed request measured.
struct Replayed {
    /// The server's steps, in order.
    steps: Vec<Step>,
    /// `Machine::fork_mem` on the replayer's own frozen base.
    fork_mem: Step,
    /// Pages the child wrote: its private copy-on-write pages.
    cow: u32,
    /// The child's simulated counts over its payload.
    counts: SimCounts,
}

/// Replays the server's steps for one request on the benchmark's own
/// base: parse, admit, fork, run, reap, reply.
fn replay(
    base: &mut WarmBase,
    admission: &Arc<Admission>,
    frozen: &mut Monitor,
    line: &str,
) -> Replayed {
    let mut steps = Vec::new();
    let Ok(Request::Run {
        tenant,
        budget,
        payload,
        ..
    }) = timed(&mut steps, "vaxd.parse", || parse_request(line.trim_end()))
    else {
        panic!("the benchmark's own request line parses");
    };
    let (ticket, budget) = timed(&mut steps, "vaxd.admit", || {
        admission.admit(&tenant, base.frame_cost(), budget)
    })
    .expect("one request at a time is admitted");
    let mut child = timed(&mut steps, "snap.fork_child", || base.fork_child()).expect("fork");
    child.enable_obs(OBS_RING);
    let before = SimCounts::of(&child);
    let out = timed(&mut steps, "vaxd.run", || {
        vaxd::base::run_payload(&mut child, &payload, budget)
    })
    .expect("payload runs");
    let counts = SimCounts::of(&child).since(&before);
    let cow = child.machine().mem().resident_pages();
    timed(&mut steps, "vaxd.reap", || {
        drop(child);
        drop(ticket);
    });
    let reply = timed(&mut steps, "vaxd.reply", || {
        ok_line(out.status, out.cycles, &out.console)
    });
    std::hint::black_box(reply);
    let mut probe = Vec::new();
    timed(&mut probe, "mem.fork_mem", || {
        drop(frozen.machine_mut().fork_mem())
    });
    Replayed {
        steps,
        fork_mem: probe.pop().expect("one probe step"),
        cow,
        counts,
    }
}

/// The whole workload.
pub fn run(ctx: &mut Ctx) {
    let traced = ctx.tr.is_on();
    let (pool, mut picks) = inputs(ctx.seed);
    // Oracle work comes before any timing and is not set-up.
    let own = boot_base(ctx);
    let expected: Vec<Expected> = pool.iter().map(|s| oracle(&own, &assemble(s))).collect();

    let mut served = None;
    for _ in 0..ctx.setup_reps {
        if let Some(old) = served.take() {
            shut_down(ctx, old);
        }
        harness::trim_heap();
        served = Some(ctx.setup(|ctx| serve(ctx, &pool, &expected)));
    }
    let mut served = served.expect("at least one set-up");

    // The replayer's own base, admission control and frozen base for
    // `Machine::fork_mem`.
    let mut replayer = traced.then(|| {
        let admission = Admission::new(
            TenantQuota::default(),
            Default::default(),
            DaemonConfig::default().max_live_children,
        );
        let mut frozen = vax_snap::restore_monitor(own.snapshot_bytes()).expect("base restores");
        drop(frozen.machine_mut().fork_mem());
        (own, Arc::new(admission), frozen)
    });
    let mut total = SimCounts::default();
    let mut cow_pages = 0u64;
    let mut unattributed = Vec::new();

    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let k = picks.next().expect("the request sequence never ends");
        ctx.tl.reference();
        let t = Instant::now();
        let reply = served.client.call(&served.lines[k]);
        let end = Instant::now();
        let raw = (end - t).as_nanos() as f64;
        let verdict = reply_matches(reply, &expected[k].out);
        let ok = verdict.is_ok();
        if let Err(e) = verdict {
            ctx.op_error(e);
        }
        ctx.tl
            .busy(raw, if ok { expected[k].instructions } else { 0 });
        ctx.tl.op(raw, ok);
        if let Some((base, admission, frozen)) = &mut replayer {
            ctx.tr.set_op(op);
            let root = ctx.tr.spans.len();
            ctx.tr.record("op", t, end);
            let first = ctx.tr.spans.len();
            let r = replay(base, admission, frozen, &served.lines[k]);
            for step in &r.steps {
                ctx.tr.record(step.name, step.start, step.end);
            }
            let steps = ctx.tr.adopt(first, root);
            unattributed.push((raw - steps as f64) / 1e3);
            ctx.tr
                .record(r.fork_mem.name, r.fork_mem.start, r.fork_mem.end);
            cow_pages += u64::from(r.cow);
            total.add(&r.counts);
            let t = Instant::now();
            let pong = served.client.call("PING\n").map(|r| r == "PONG");
            ctx.tr.record("vaxd.ping", t, Instant::now());
            if !matches!(pong, Ok(true)) {
                ctx.error("PING did not answer PONG".into());
            }
        }
        if !ok && served.client.call("PING\n").is_err() {
            break;
        }
        op += 1;
    }
    shut_down(ctx, served);
    if traced {
        total.layer_metrics(op, &mut ctx.layer);
        ctx.layer.insert(
            "mem.cow_pages_per_op".into(),
            cow_pages as f64 / op.max(1) as f64,
        );
        ctx.layer.insert(
            "vaxd.unattributed_us".into(),
            crate::harness::median(&unattributed),
        );
    }
}
