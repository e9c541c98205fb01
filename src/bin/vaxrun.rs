//! `vaxrun` — assemble a VAX assembly file and run it on the simulated
//! machine, bare or inside a virtual machine under the VMM.
//!
//! ```console
//! $ vaxrun program.s                 # bare modified VAX, kernel mode
//! $ vaxrun --vm program.s           # as a virtual machine guest
//! $ vaxrun --list program.s         # print the listing, don't run
//! $ vaxrun --base 2000 program.s    # load address (hex, default 1000)
//! $ vaxrun --trace program.s        # dump the last PCs and a profile
//! $ vaxrun --exec-tier trans p.s    # translated superblocks for hot code
//! $ vaxrun --vm --trace program.s   # print a VM-exit cost breakdown
//! $ vaxrun --metrics-out m.json ... # write counters/histograms (JSON,
//!                                   # or Prometheus text for .prom)
//! $ vaxrun --trace-out t.json p.s   # write a Chrome trace of VM exits
//!                                   # and superblock events
//! $ vaxrun --fleet 8 --jobs 4 p.s   # 8 monitors across 4 host threads
//! $ vaxrun --fleet 8@2 ...          # ... with 2 VMs per monitor
//! $ vaxrun --vm --max-cycles 50000 --snapshot-out s.vaxsnap p.s
//!                                   # run part way, save the monitor
//! $ vaxrun --restore s.vaxsnap      # resume it (no source needed);
//!                                   # bit-identical to never stopping
//! $ vaxrun --restore s.vaxsnap,d1    # resume a base plus its deltas
//! $ vaxrun --vm --fork 4 p.s        # run, then fork 4 copy-on-write
//!                                   # children and resume each
//! ```
//!
//! Fleet mode (`--fleet M[@V]`) builds M independent monitors, each
//! with V VMs booted on the same program, and drives them with the
//! fleet executor — serially for `--jobs 1` (the default), across a
//! bounded thread pool otherwise. Per-monitor results are bit-identical
//! either way; `--metrics-out` then reports fleet-wide totals plus the
//! per-monitor breakdown.
//!
//! The program runs in kernel mode with translation off (addresses are
//! physical), console output goes through TXDB, and execution ends at
//! HALT or after `--max-cycles`.

use std::process::ExitCode;
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{ExecTier, HaltReason, Machine, StepEvent};
use vax_vmm::{
    chrome_trace, Fleet, Metrics, Monitor, MonitorConfig, Obs, ObsSink, ProfTier, RunExit,
    VmConfig, VmState, DEFAULT_SAMPLE_INTERVAL,
};

/// Upper bound on `--trace-depth`: 16M records is ~512 MiB of ring, far
/// beyond anything useful but a guard against typo'd byte counts.
const MAX_TRACE_DEPTH: usize = 1 << 24;

struct Options {
    path: String,
    vm: bool,
    list: bool,
    trace: bool,
    base: u32,
    max_cycles: u64,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    /// (monitors, vms per monitor) when `--fleet` is given.
    fleet: Option<(usize, usize)>,
    jobs: usize,
    snapshot_out: Option<String>,
    /// Comma-separated base,delta,... chain for `--restore`.
    restore: Option<String>,
    /// Write an incremental delta (parent = last restored image) here.
    snapshot_delta: Option<String>,
    fork: usize,
    exec_tier: ExecTier,
    profile_out: Option<String>,
    trace_depth: usize,
}

impl Options {
    /// Whether the run switches the observability sink on: `--trace`
    /// does, and so does every flag that writes what the sink collects.
    fn obs(&self) -> bool {
        self.trace
            || self.trace_out.is_some()
            || self.profile_out.is_some()
            || self.metrics_out.is_some()
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: vaxrun [--vm] [--list] [--trace] [--base HEX] [--max-cycles N] \
         [--exec-tier interp|cache|trans] [--metrics-out FILE] [--trace-out FILE] \
         [--trace-depth N] [--profile-out FILE] \
         [--fleet M[@V]] [--jobs N] [--snapshot-out FILE] [--fork K] \
         FILE.s\n       \
         vaxrun --restore BASE[,DELTA...] [--max-cycles N] [--snapshot-out FILE] \
         [--fork K] [--snapshot-delta FILE] [--metrics-out FILE]\n\n       \
         --restore resumes a snapshot, or a base snapshot plus the deltas\n       \
         taken after it, in order.\n\n       Every --snapshot-out image can anchor an \
         incremental chain: restore it (or a\n       chain) with --restore and write the \
         next link with\n       --snapshot-delta — O(dirty pages), digest-linked to its \
         parent.\n\n       --exec-tier selects how guest code executes: \
         'interp' (bytewise decode every\n       instruction), 'cache' (PA-keyed decode \
         cache, the default), or 'trans'\n       (decode cache + translated superblocks \
         for hot straight-line code). All\n       tiers produce bit-identical \
         architectural state, cycles, and counters.\n\n       --trace switches the \
         observability sink on: it traces VM exits and superblock\n       events, samples \
         the guest PC on the simulated clock and keeps the last\n       PCs, and on exit \
         prints a VM-exit cost breakdown (--vm, --fleet) or\n       the last PCs (bare), \
         plus a cycle-attributed profile (per-tier split,\n       hot pages, hot \
         superblocks, working set). --trace-out, --profile-out\n       and --metrics-out \
         switch it on too and write a Chrome trace, a\n       collapsed-stack file for \
         flamegraph tools, or the metrics. The sink\n       never perturbs the guest: \
         architectural state, cycles, and counters\n       are bit-identical with it on or \
         off.\n\n       --trace-depth sets the trace ring capacity in records (default\n       \
         65536, max 16777216); deeper rings keep more history for --trace-out."
    );
    ExitCode::from(2)
}

/// Parses a `--fleet` spec: `M` monitors, optionally `M@V` for V VMs
/// per monitor.
fn parse_fleet_spec(spec: &str) -> Option<(usize, usize)> {
    let (m, v) = match spec.split_once('@') {
        Some((m, v)) => (m, v.parse().ok()?),
        None => (spec, 1usize),
    };
    let m = m.parse().ok()?;
    (m >= 1 && v >= 1).then_some((m, v))
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut opts = Options {
        path: String::new(),
        vm: false,
        list: false,
        trace: false,
        base: 0x1000,
        max_cycles: 1_000_000_000,
        metrics_out: None,
        trace_out: None,
        fleet: None,
        jobs: 1,
        snapshot_out: None,
        restore: None,
        snapshot_delta: None,
        fork: 0,
        exec_tier: ExecTier::default(),
        profile_out: None,
        trace_depth: 65536,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--vm" => opts.vm = true,
            "--exec-tier" => {
                let v = args.next().ok_or_else(usage)?;
                opts.exec_tier = ExecTier::from_name(&v).ok_or_else(|| {
                    eprintln!("vaxrun: unknown exec tier {v:?} (interp, cache, trans)");
                    usage()
                })?;
            }
            "--fleet" => {
                let v = args.next().ok_or_else(usage)?;
                opts.fleet = Some(parse_fleet_spec(&v).ok_or_else(usage)?);
            }
            "--jobs" => {
                let v = args.next().ok_or_else(usage)?;
                opts.jobs = v.parse().map_err(|_| usage())?;
                if opts.jobs == 0 {
                    return Err(usage());
                }
            }
            "--list" => opts.list = true,
            "--trace" => opts.trace = true,
            "--base" => {
                let v = args.next().ok_or_else(usage)?;
                opts.base = u32::from_str_radix(&v, 16).map_err(|_| usage())?;
            }
            "--max-cycles" => {
                let v = args.next().ok_or_else(usage)?;
                opts.max_cycles = v.parse().map_err(|_| usage())?;
            }
            "--metrics-out" => opts.metrics_out = Some(args.next().ok_or_else(usage)?),
            "--trace-out" => opts.trace_out = Some(args.next().ok_or_else(usage)?),
            "--trace-depth" => {
                let v = args.next().ok_or_else(usage)?;
                opts.trace_depth = v.parse().map_err(|_| usage())?;
                if opts.trace_depth == 0 || opts.trace_depth > MAX_TRACE_DEPTH {
                    eprintln!("vaxrun: --trace-depth must be 1..={MAX_TRACE_DEPTH}");
                    return Err(usage());
                }
            }
            "--profile-out" => opts.profile_out = Some(args.next().ok_or_else(usage)?),
            "--snapshot-out" => opts.snapshot_out = Some(args.next().ok_or_else(usage)?),
            "--restore" => opts.restore = Some(args.next().ok_or_else(usage)?),
            "--snapshot-delta" => opts.snapshot_delta = Some(args.next().ok_or_else(usage)?),
            "--fork" => {
                let v = args.next().ok_or_else(usage)?;
                opts.fork = v.parse().map_err(|_| usage())?;
                if opts.fork == 0 {
                    return Err(usage());
                }
            }
            "--help" | "-h" => return Err(usage()),
            f if !f.starts_with('-') && opts.path.is_empty() => opts.path = f.to_string(),
            _ => return Err(usage()),
        }
    }
    if opts.path.is_empty() && opts.restore.is_none() {
        return Err(usage());
    }
    if opts.snapshot_delta.is_some() && opts.restore.is_none() {
        eprintln!("vaxrun: --snapshot-delta needs a parent image: use --restore");
        return Err(usage());
    }
    Ok(opts)
}

/// Writes a metrics snapshot as Prometheus text when the path ends in
/// `.prom`, JSON otherwise.
fn write_metrics(path: &str, metrics: &Metrics) -> std::io::Result<()> {
    let body = if path.ends_with(".prom") {
        metrics.to_prometheus()
    } else {
        metrics.to_json()
    };
    std::fs::write(path, body)
}

/// Post-run snapshot duties shared by `--vm` and `--restore` modes:
/// `--snapshot-out` serializes the quiescent monitor, `--fork K` forks
/// it into K copy-on-write children and resumes each under the same
/// cycle budget. Returns (snapshot bytes written, forks made) for the
/// metrics registry.
fn snapshot_duties(monitor: &mut Monitor, opts: &Options) -> Result<(u64, u64), ExitCode> {
    let mut snap_bytes = 0u64;
    if let Some(path) = &opts.snapshot_out {
        // The full snapshot anchors a delta chain, so it drains the
        // chain's view — the next --snapshot-delta ships only pages
        // written after this image.
        match vax_snap::snapshot_chain_base(monitor) {
            Ok(bytes) => {
                snap_bytes = bytes.len() as u64;
                if let Err(e) = std::fs::write(path, &bytes) {
                    eprintln!("vaxrun: {path}: {e}");
                    return Err(ExitCode::FAILURE);
                }
                eprintln!("-- vaxrun: snapshot: {snap_bytes} bytes -> {path}");
            }
            Err(e) => {
                eprintln!("vaxrun: --snapshot-out: {e}");
                return Err(ExitCode::FAILURE);
            }
        }
    }
    if opts.fork > 0 {
        let mut children = match vax_snap::fork_monitor(monitor, opts.fork) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("vaxrun: --fork: {e}");
                return Err(ExitCode::FAILURE);
            }
        };
        for (i, child) in children.iter_mut().enumerate() {
            let exit = child.run(opts.max_cycles);
            eprintln!(
                "-- fork {i}: {exit:?}, {:.1}% of memory still shared with the parent",
                100.0 * child.machine().mem().shared_fraction(),
            );
        }
    }
    Ok((snap_bytes, opts.fork as u64))
}

/// `--restore` mode: reconstruct a monitor from a snapshot file (plus
/// any incremental deltas) and resume it. No
/// assembly source is involved — the guests, their memory, and the
/// machine clock all come from the images. With `--snapshot-delta`,
/// the run's dirty pages are written as the chain's next link (parent
/// = the last image restored here).
fn run_restored(opts: &Options, paths: &[String]) -> ExitCode {
    let mut images = Vec::new();
    for path in paths {
        match std::fs::read(path) {
            Ok(b) => images.push(b),
            Err(e) => {
                eprintln!("vaxrun: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (base, deltas) = match images.split_first() {
        Some(v) => v,
        None => {
            eprintln!("vaxrun: --restore needs at least a base image");
            return ExitCode::FAILURE;
        }
    };
    let mut monitor = match vax_snap::restore_chain(base, deltas) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("vaxrun: {}: {e}", paths.join(","));
            return ExitCode::FAILURE;
        }
    };
    // The digest the next delta must name as its parent: the last image
    // of the chain as restored here.
    let parent_digest = vax_snap::snapshot_digest(images.last().unwrap_or(&Vec::new()));
    let exit = monitor.run(opts.max_cycles);
    let mut all_halted = exit == RunExit::AllHalted;
    let ids: Vec<_> = monitor.vm_ids().collect();
    for id in ids {
        let out = monitor.vm_console_output(id);
        print!("{}", String::from_utf8_lossy(&out));
        let guest = monitor.vm(id);
        all_halted &= guest.state == VmState::ConsoleHalt;
        eprintln!(
            "-- vaxrun: {}: {exit:?}, state {:?}",
            guest.name, guest.state
        );
        if let Some(reason) = &guest.halt_reason {
            eprintln!("-- vaxrun: {}: halt reason: {reason}", guest.name);
        }
    }
    let mut delta_bytes = 0u64;
    if let Some(dpath) = &opts.snapshot_delta {
        match vax_snap::snapshot_delta(&mut monitor, parent_digest) {
            Ok(bytes) => {
                delta_bytes = bytes.len() as u64;
                if let Err(e) = std::fs::write(dpath, &bytes) {
                    eprintln!("vaxrun: {dpath}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("-- vaxrun: delta snapshot: {delta_bytes} bytes -> {dpath}");
            }
            Err(e) => {
                eprintln!("vaxrun: --snapshot-delta: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let (snap_bytes, forks) = match snapshot_duties(&mut monitor, opts) {
        Ok(v) => v,
        Err(code) => return code,
    };
    if let Some(mpath) = &opts.metrics_out {
        let mut metrics = monitor.metrics();
        metrics
            .bump("snapshot_bytes_written", snap_bytes)
            .bump("snapshot_delta_bytes_written", delta_bytes)
            .bump("snapshot_forks", forks);
        if let Err(e) = write_metrics(mpath, &metrics) {
            eprintln!("vaxrun: {mpath}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if all_halted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints the per-cause exit-cost table from a metrics registry (works
/// for one monitor's registry or a fleet-wide merge).
fn print_exit_costs(metrics: &Metrics) {
    for cause in vax_vmm::ExitCause::ALL {
        if let Some(h) = metrics.get_histogram(&format!("exit_cost_{}", cause.name())) {
            if h.count() > 0 {
                eprintln!(
                    "--   {:<18} {:>8}  mean {:>7.1}  p99 {:>6}  max {:>6} cycles",
                    cause.name(),
                    h.count(),
                    h.mean(),
                    h.quantile(0.99),
                    h.max()
                );
            }
        }
    }
}

/// Prints the cycle-attributed profile for one machine: the per-tier
/// attribution split, the hottest guest pages, the hot-superblock
/// table, and working-set telemetry. Shared by every mode.
fn print_profile(obs: &Obs, mem: &vax_mem::PhysMemory) {
    let prof = obs.prof();
    let blocks = prof.superblocks();
    let total = prof.attributed_total().max(1);
    eprintln!(
        "-- profile: {} samples (interval {} cycles), {} cycles attributed",
        prof.samples(),
        prof.interval(),
        prof.attributed_total()
    );
    for tier in ProfTier::ALL {
        let cyc = prof.attributed(tier);
        if cyc == 0 && prof.retired(tier) == 0 {
            continue;
        }
        eprintln!(
            "--   tier {:<7} {:>12} instrs  {:>12} cycles ({:>5.1}%)",
            tier.name(),
            prof.retired(tier),
            cyc,
            100.0 * cyc as f64 / total as f64
        );
    }
    if prof.overflow_cycles() > 0 {
        eprintln!(
            "--   (bucket table full: {} cycles in overflow)",
            prof.overflow_cycles()
        );
    }
    let pages = prof.page_buckets();
    if !pages.is_empty() {
        eprintln!("-- hot pages:");
        for &(page, cyc) in pages.iter().take(8) {
            eprintln!(
                "--   page {:#07x} ({:#010x}..)  {:>12} cycles ({:>5.1}%)",
                page,
                page << vax_arch::PAGE_SHIFT,
                cyc,
                100.0 * cyc as f64 / total as f64
            );
        }
    }
    if !blocks.is_empty() {
        eprintln!(
            "-- hot superblocks (top {} of {}):",
            blocks.len().min(8),
            blocks.len()
        );
        eprintln!(
            "--   {:<10} {:>4} {:>5} {:>9} {:>11} {:>12} {:>6} {:>6} {:>6}",
            "entry", "len", "heat", "execs", "uops", "cycles", "irq", "bail", "inval"
        );
        for b in blocks.iter().take(8) {
            eprintln!(
                "--   {:#010x} {:>4} {:>5} {:>9} {:>11} {:>12} {:>6} {:>6} {:>6}",
                b.entry_pa,
                b.len,
                b.heat,
                b.executions,
                b.uops_retired,
                b.cycles_retired,
                b.side_exit_interrupt,
                b.side_exit_bail,
                b.invalidations
            );
        }
    }
    eprintln!(
        "-- working set: {} pages touched, {} dirty, {} dirty-page events",
        mem.touched_page_count(),
        mem.dirty_page_count(),
        mem.dirty_page_events()
    );
    let dr = prof.dirty_rate();
    if dr.count() > 0 {
        eprintln!(
            "--   dirty rate: mean {:.2} p99 {} max {} new dirty pages / interval",
            dr.mean(),
            dr.quantile(0.99),
            dr.max()
        );
    }
}

/// Writes a collapsed-stack profile (`--profile-out`); errors are
/// reported and turned into a failure exit code by the caller.
fn write_profile_out(path: &str, body: &str) -> Result<(), ExitCode> {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("vaxrun: {path}: {e}");
        return Err(ExitCode::FAILURE);
    }
    eprintln!("-- vaxrun: collapsed-stack profile -> {path}");
    Ok(())
}

/// One machine's sink outputs, shared by `--vm` and bare modes: the
/// profile summary on stderr, then `--profile-out` and `--trace-out`.
fn obs_outputs(
    opts: &Options,
    obs: Option<&Obs>,
    mem: &vax_mem::PhysMemory,
) -> Result<(), ExitCode> {
    if let Some(o) = obs {
        print_profile(o, mem);
    }
    if let Some(path) = &opts.profile_out {
        let body = obs.map(|o| o.prof().collapsed_stack()).unwrap_or_default();
        write_profile_out(path, &body)?;
    }
    if let Some(path) = &opts.trace_out {
        let trace = obs
            .map(|o| chrome_trace(o.trace().iter()))
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, trace) {
            eprintln!("vaxrun: {path}: {e}");
            return Err(ExitCode::FAILURE);
        }
    }
    Ok(())
}

/// Fleet mode: `monitors` independent Monitors, each booting
/// `vms_per_monitor` VMs on the same program, driven by the fleet
/// executor.
fn run_fleet(
    opts: &Options,
    program: &vax_asm::Program,
    monitors: usize,
    vms_per_monitor: usize,
) -> ExitCode {
    let mut fleet = Fleet::new();
    for m in 0..monitors {
        let mut monitor = Monitor::new(MonitorConfig::default());
        if opts.obs() {
            monitor.enable_obs(opts.trace_depth);
        }
        for v in 0..vms_per_monitor {
            let vm = monitor.create_vm(&format!("m{m}.v{v}"), VmConfig::default());
            if let Err(e) = monitor.vm_write_phys(vm, program.base, &program.bytes) {
                eprintln!("vaxrun: loading program: {e}");
                return ExitCode::FAILURE;
            }
            monitor.boot_vm(vm, program.base);
        }
        fleet.push(monitor);
    }
    // One call fans the tier out to every member, so parallel workers
    // all run the same way.
    fleet.set_exec_tier(opts.exec_tier);
    let report = if opts.jobs > 1 {
        fleet.run_parallel(opts.max_cycles, opts.jobs)
    } else {
        fleet.run_serial(opts.max_cycles)
    };
    let mut all_halted = true;
    for (i, o) in report.outcomes.iter().enumerate() {
        all_halted &=
            o.exit == RunExit::AllHalted && o.vms.iter().all(|v| v.state == VmState::ConsoleHalt);
        eprintln!(
            "-- monitor {i}: {:?}, {} cycles, {} instructions, {} vm exits",
            o.exit,
            o.cycles,
            o.counters.instructions,
            o.counters.vm_exits()
        );
        for v in &o.vms {
            if let Some(reason) = &v.halt_reason {
                eprintln!("--   {}: halt reason: {reason}", v.name);
            }
        }
    }
    eprintln!(
        "-- fleet: {} monitors x {} vms, {} jobs, {:.3}s wall, {:.0} aggregate instrs/sec",
        monitors,
        vms_per_monitor,
        report.jobs,
        report.wall.as_secs_f64(),
        report.instrs_per_sec()
    );
    if opts.obs() {
        eprintln!("-- fleet-wide vm exit costs:");
        print_exit_costs(&fleet.fleet_metrics());
        for i in 0..fleet.len() {
            let monitor = fleet.monitor(i);
            if let Some(obs) = monitor.obs() {
                eprintln!("-- monitor {i} profile:");
                print_profile(obs, monitor.machine().mem());
            }
        }
    }
    if let Some(path) = &opts.profile_out {
        // One flamegraph across the fleet: members' collapsed stacks
        // concatenate cleanly because each line carries full context.
        let mut body = String::new();
        for i in 0..fleet.len() {
            if let Some(obs) = fleet.monitor(i).obs() {
                body.push_str(&obs.prof().collapsed_stack());
            }
        }
        if let Err(code) = write_profile_out(path, &body) {
            return code;
        }
    }
    if let Some(path) = &opts.metrics_out {
        let body = if path.ends_with(".prom") {
            fleet.fleet_metrics().to_prometheus()
        } else {
            let per: Vec<String> = fleet
                .per_monitor_metrics()
                .iter()
                .map(|m| m.to_json().trim_end().to_string())
                .collect();
            format!(
                "{{\n\"fleet\": {},\n\"monitors\": [\n{}\n]\n}}\n",
                fleet.fleet_metrics().to_json().trim_end(),
                per.join(",\n")
            )
        };
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("vaxrun: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if opts.trace_out.is_some() {
        eprintln!("vaxrun: --trace-out is per-monitor; not written in fleet mode");
    }
    if opts.snapshot_out.is_some() || opts.fork > 0 {
        eprintln!("vaxrun: --snapshot-out/--fork are per-monitor; not applied in fleet mode");
    }
    if all_halted {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(code) => return code,
    };
    if let Some(chain) = &opts.restore {
        let paths: Vec<String> = chain.split(',').map(str::to_string).collect();
        return run_restored(&opts, &paths);
    }
    let source = match std::fs::read_to_string(&opts.path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("vaxrun: {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    let (program, symbols) = match vax_asm::assemble_text_with_symbols(&source, opts.base) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("vaxrun: {}: {e}", opts.path);
            return ExitCode::FAILURE;
        }
    };
    if opts.list {
        print!(
            "{}",
            vax_asm::listing(&program.bytes, program.base, &symbols)
        );
        return ExitCode::SUCCESS;
    }

    if let Some((monitors, vms_per_monitor)) = opts.fleet {
        return run_fleet(&opts, &program, monitors, vms_per_monitor);
    }

    if opts.vm {
        let mut monitor = Monitor::new(MonitorConfig::default());
        monitor.set_exec_tier(opts.exec_tier);
        if opts.obs() {
            monitor.enable_obs(opts.trace_depth);
        }
        let vm = monitor.create_vm("vaxrun", VmConfig::default());
        if let Err(e) = monitor.vm_write_phys(vm, program.base, &program.bytes) {
            eprintln!("vaxrun: loading program: {e}");
            return ExitCode::FAILURE;
        }
        monitor.boot_vm(vm, program.base);
        let exit = monitor.run(opts.max_cycles);
        let out = monitor.vm_console_output(vm);
        print!("{}", String::from_utf8_lossy(&out));
        let guest = monitor.vm(vm);
        eprintln!("-- vaxrun: {exit:?}, state {:?}", guest.state);
        if let Some(reason) = &guest.halt_reason {
            eprintln!("-- vaxrun: halt reason: {reason}");
        }
        for (i, chunk) in guest.regs.chunks(4).enumerate() {
            eprintln!(
                "-- R{:<2} {:08X} {:08X} {:08X} {:08X}",
                i * 4,
                chunk[0],
                chunk[1],
                chunk[2],
                chunk[3]
            );
        }
        for l in &guest.vmm_log {
            eprintln!("-- vmm: {l}");
        }
        let guest_state = guest.state;
        if let Some(obs) = monitor.obs() {
            eprintln!("-- vm exits ({} total):", obs.total_exits());
            print_exit_costs(&monitor.metrics());
        }
        if let Err(code) = obs_outputs(&opts, monitor.obs(), monitor.machine().mem()) {
            return code;
        }
        let (snap_bytes, forks) = match snapshot_duties(&mut monitor, &opts) {
            Ok(v) => v,
            Err(code) => return code,
        };
        if let Some(path) = &opts.metrics_out {
            let mut metrics = monitor.metrics();
            if snap_bytes > 0 || forks > 0 {
                metrics
                    .bump("snapshot_bytes_written", snap_bytes)
                    .bump("snapshot_forks", forks);
            }
            if let Err(e) = write_metrics(path, &metrics) {
                eprintln!("vaxrun: {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        return if exit == RunExit::AllHalted && guest_state == VmState::ConsoleHalt {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    if opts.snapshot_out.is_some() || opts.fork > 0 {
        eprintln!("vaxrun: --snapshot-out/--fork need a monitor; use --vm");
        return ExitCode::FAILURE;
    }
    let mut m = Machine::new(MachineVariant::Modified, 2 * 1024 * 1024);
    m.set_exec_tier(opts.exec_tier);
    if opts.obs() {
        m.set_obs(ObsSink::on(opts.trace_depth, DEFAULT_SAMPLE_INTERVAL));
    }
    if m.mem_mut()
        .write_slice(program.base, &program.bytes)
        .is_err()
    {
        eprintln!("vaxrun: program does not fit at {:#x}", program.base);
        return ExitCode::FAILURE;
    }
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(program.base);
    let mut status = ExitCode::FAILURE;
    while m.cycles() < opts.max_cycles {
        match m.step() {
            StepEvent::Ok => {}
            StepEvent::Halted(HaltReason::HaltInstruction) => {
                status = ExitCode::SUCCESS;
                break;
            }
            other => {
                eprintln!("-- vaxrun: stopped: {other:?} at pc={:#010x}", m.pc());
                break;
            }
        }
    }
    print!("{}", String::from_utf8_lossy(&m.console_take_output()));
    eprintln!(
        "-- vaxrun: {} cycles, {} instructions",
        m.cycles(),
        m.counters().instructions
    );
    if m.exec_tier() == ExecTier::Trans {
        let ts = m.trans_stats();
        eprintln!(
            "-- trans: {} superblocks executed ({} translated), {} chain follows, \
             {} links severed",
            ts.blocks_executed, ts.blocks_translated, ts.chain_hits, ts.chain_links_severed
        );
        eprintln!(
            "-- trans side exits: {} interrupt, {} bail ({} tlb-miss, {} prot, \
             {} modify, {} page-cross, {} io), {} smc",
            ts.side_exit_interrupt,
            ts.side_exit_bail,
            ts.side_exit_tlb_miss,
            ts.side_exit_prot,
            ts.side_exit_modify,
            ts.side_exit_page_cross,
            ts.side_exit_io,
            ts.side_exit_smc
        );
    }
    for (i, r) in (0..16)
        .map(|i| (i, m.reg(i)))
        .collect::<Vec<_>>()
        .chunks(4)
        .enumerate()
    {
        let row: Vec<String> = r.iter().map(|(_, v)| format!("{v:08X}")).collect();
        eprintln!("-- R{:<2} {}", i * 4, row.join(" "));
    }
    if m.obs().is_some() {
        let pcs: Vec<String> = m.recent_pcs().iter().map(|p| format!("{p:#x}")).collect();
        eprintln!("-- trace: {}", pcs.join(" "));
    }
    if let Err(code) = obs_outputs(&opts, m.obs(), m.mem()) {
        return code;
    }
    if let Some(path) = &opts.metrics_out {
        let metrics = m.metrics();
        if let Err(e) = write_metrics(path, &metrics) {
            eprintln!("vaxrun: {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    status
}
