//! `e8_vm`: the paper's §7.3 editing+transaction mix as two VM guests
//! under one monitor. One op boots both VMs in a fresh monitor and runs
//! them to halt: nearly all of it is guest execution and VMM exits, with
//! no fork, snapshot or wire code.

use crate::harness::{self, ns_since, RefKernel, Rng};
use crate::reference::{self, E8Ref};
use crate::sim::{self, SimCounts};
use crate::Ctx;
use std::time::Instant;
use vax_os::layout::{kvar, KDATA_GPA};
use vax_os::{boot_in_monitor, build_image, GuestImage, OsConfig, Workload};
use vax_vmm::{Monitor, MonitorConfig, RunExit, ShadowConfig, VmConfig, VmId};

/// Per-job iteration counts the seed picks from: around the paper's 300.
pub const ITERATIONS: [u32; 5] = [280, 290, 300, 310, 320];
/// The host-speed reference for this workload (README.md, "Noise"). A
/// 30 ms job outlasts the host's short swings, so its factor is the
/// median of about a second of chunks, not of the last three.
pub const REFERENCE: RefKernel = RefKernel {
    window: 33,
    ..harness::REF_1M
};
/// Processes per guest, as in `measure_perf`'s headline mix.
const NPROC: u32 = 6;
/// Shadow process-table cache slots: the §7.2 cache.
const CACHE_SLOTS: usize = 8;
/// Cycle bound per job; a job needs well under a tenth of it.
const JOB_BUDGET: u64 = 2_000_000_000;
/// Warm-up jobs in each set-up.
const WARMUP_JOBS: usize = 2;
/// Trace-ring records kept while `enable_obs` is on.
const OBS_RING: usize = 64;

/// The guest build of `measure_perf(Workload::EditTrans, 6, n, 8)` in
/// `crates/bench/src/experiments.rs`.
pub fn os_config(iterations: u32) -> OsConfig {
    OsConfig {
        nproc: NPROC,
        workload: Workload::EditTrans,
        iterations,
        quantum_ticks: 3,
        tick_cycles: 2500,
        ..OsConfig::default()
    }
}

fn vm_config() -> VmConfig {
    VmConfig {
        shadow: ShadowConfig {
            cache_slots: CACHE_SLOTS,
            ..ShadowConfig::default()
        },
        ..VmConfig::default()
    }
}

/// The seeded job schedule: an index into [`ITERATIONS`] per job.
pub fn picks(seed: u64) -> impl Iterator<Item = usize> {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(move || rng.range(0, ITERATIONS.len() as u64 - 1) as usize)
}

/// One job's outcome: simulated counts and whether both VMs halted
/// cleanly with every process done.
pub struct Job {
    /// Counts over the whole job (the monitor is fresh).
    pub counts: SimCounts,
    /// Both VMs reached their orderly halt.
    pub halted: bool,
}

/// Runs one job: the op the caller times.
pub fn job(image: &GuestImage, ctx: &mut Ctx, obs: bool) -> (Monitor, [VmId; 2], RunExit) {
    let tr = &mut ctx.tr;
    let mut mon = tr.span(
        "core.monitor_new",
        || Monitor::new(MonitorConfig::default()),
    );
    if obs {
        mon.enable_obs(OBS_RING);
    }
    let a = tr.span("os.boot_in_monitor", || {
        boot_in_monitor(&mut mon, image, vm_config())
    });
    let b = tr.span("os.boot_in_monitor", || {
        boot_in_monitor(&mut mon, image, vm_config())
    });
    let exit = tr.span("core.run", || mon.run(JOB_BUDGET));
    (mon, [a, b], exit)
}

/// Reads a finished job's counts and halt state, after its timing.
pub fn outcome(mon: &Monitor, vms: [VmId; 2], exit: RunExit) -> Job {
    let halted = exit == RunExit::AllHalted
        && vms.iter().all(|&vm| {
            mon.vm(vm).halt_reason.is_none()
                && mon.vm_read_phys_u32(vm, KDATA_GPA + kvar::DONE) == Some(NPROC)
        });
    Job {
        counts: SimCounts::of(mon),
        halted,
    }
}

/// Compares a job with the committed reference for its iteration count.
/// Per-cause exit counts exist only with `enable_obs` on.
pub fn check(iterations: u32, job: &Job, obs: bool) -> Result<(), String> {
    let want = reference::e8(iterations).ok_or(format!("no reference for {iterations}"))?;
    let got = E8Ref::from_counts(iterations, &job.counts);
    if !job.halted {
        return Err(format!(
            "iterations {iterations}: a VM did not halt cleanly"
        ));
    }
    let same = got.cycles == want.cycles
        && got.instructions == want.instructions
        && got.vmm_cycles == want.vmm_cycles
        && got.world_switches == want.world_switches
        && got.vm_exits == want.vm_exits
        && (!obs || got.exits == want.exits);
    if same {
        Ok(())
    } else {
        Err(format!(
            "iterations {iterations}: got {got:?}, want {want:?}"
        ))
    }
}

/// One set-up: build every image, then run the warm-up jobs.
fn set_up(ctx: &mut Ctx) -> Vec<GuestImage> {
    let images: Vec<GuestImage> = ITERATIONS
        .iter()
        .map(|&n| {
            ctx.tr
                .span("os.build_image", || build_image(&os_config(n)))
                .expect("E8 image builds")
        })
        .collect();
    for i in 0..WARMUP_JOBS {
        let (mon, vms, exit) = job(&images[i % images.len()], ctx, false);
        let done = outcome(&mon, vms, exit);
        if let Err(e) = check(ITERATIONS[i % images.len()], &done, false) {
            ctx.error(format!("warm-up job: {e}"));
        }
    }
    images
}

/// The whole workload: one set-up, then jobs until time is up, with the
/// remaining set-ups spread evenly between them. A set-up takes about
/// two jobs; spread out, each is normalized by the same window of
/// reference chunks as the jobs around it, so `setup_s` samples the
/// same host as the jobs do (README.md, "Noise").
pub fn run(ctx: &mut Ctx) {
    let traced = ctx.tr.is_on();
    let mut images = ctx.setup(set_up);
    if traced {
        let mips = ctx
            .tr
            .span("cpu.bare_run", || sim::bare_mips(&images[2], JOB_BUDGET));
        ctx.layer.insert("cpu.bare_mips".into(), mips);
    }

    let mut picks = picks(ctx.seed);
    let mut total = SimCounts::default();
    let setup_every = ctx.seconds / ctx.setup_reps as f64;
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        let done_setups = ctx.setup_norm_ns.len();
        if done_setups < ctx.setup_reps
            && start.elapsed().as_secs_f64() >= setup_every * done_setups as f64
        {
            images = ctx.setup(set_up);
        }
        let k = picks.next().expect("the schedule never ends");
        ctx.tl.reference();
        ctx.tr.set_op(op);
        let t = Instant::now();
        ctx.tr.enter("op");
        let (mon, vms, exit) = job(&images[k], ctx, traced);
        ctx.tr.exit();
        let raw = ns_since(t);
        let done = outcome(&mon, vms, exit);
        let verdict = check(ITERATIONS[k], &done, traced);
        ctx.tl.busy(raw, done.counts.instructions);
        ctx.tl.op(raw, verdict.is_ok());
        if let Err(e) = verdict {
            ctx.op_error(e);
        }
        if traced {
            total.add(&done.counts);
            let text = ctx.tr.span("obs.render", || mon.metrics().to_prometheus());
            std::hint::black_box(text);
        }
        op += 1;
    }
    if traced {
        total.layer_metrics(op, &mut ctx.layer);
    }
}

/// Prints the reference table for every iteration count, as Rust
/// source for `reference.rs`.
pub fn print_reference() {
    let mut ctx = Ctx::new(0, 0.0, false, REFERENCE);
    for &n in &ITERATIONS {
        let image = build_image(&os_config(n)).expect("E8 image builds");
        let (mon, vms, exit) = job(&image, &mut ctx, true);
        let done = outcome(&mon, vms, exit);
        assert!(done.halted, "reference job halts");
        println!("    {:?},", E8Ref::from_counts(n, &done.counts));
    }
}
