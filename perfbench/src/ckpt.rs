//! `ckpt_migrate`: a write-heavy MiniVMS guest in a two-monitor fleet,
//! checkpointed incrementally, restore-drilled, fully checkpointed and
//! live-migrated on a seeded schedule. About half the time is snapshot
//! encode and decode, dirty-page tracking and migration; guest writes,
//! not forks, drive the memory layer.

use crate::harness::{self, median, ns_since, RefKernel, Rng};
use crate::sim::{self, SimCounts};
use crate::Ctx;
use std::time::Instant;
use vax_os::{boot_in_monitor, build_image, OsConfig, Workload};
use vax_snap::{
    restore_chain, snapshot_chain_base, snapshot_delta, snapshot_digest, snapshot_monitor,
};
use vax_vmm::{Fleet, LiveMigration, Monitor, MonitorConfig, RunExit, VmConfig, VmId};

/// The host-speed reference for this workload (README.md, "Noise").
/// It runs before each guest slice only: a chunk right before a
/// checkpoint would hand the capture a cache state the guest never
/// leaves behind.
pub const REFERENCE: RefKernel = harness::REF_1M;
/// Processes in the guest.
const NPROC: u32 = 4;
/// Per-process iterations: more than a run can finish, so the guest
/// never halts inside the loop.
const ITERATIONS: u32 = 10_000_000;
/// Seeded slice lengths, in machine cycles.
const SLICE_MIN: u64 = 300_000;
const SLICE_MAX: u64 = 700_000;
/// Slices per chain; a delta follows each but the last.
const SLICES_PER_CHAIN: usize = 4;
/// Every this many chains, the guest live-migrates at the boundary.
const MIGRATE_EVERY: u64 = 4;
/// Pre-copy round budget and bound for `Fleet::migrate_live`.
const ROUND_BUDGET: u64 = 50_000;
const MAX_ROUNDS: u32 = 8;
/// Cycles the guest runs in set-up before the first chain.
const WARMUP_CYCLES: u64 = 2_000_000;
/// Cycles the traced run steps the guest image bare for `cpu.bare_mips`.
const BARE_CYCLES: u64 = 20_000_000;
/// Trace-ring records kept while `enable_obs` is on.
const OBS_RING: usize = 64;

fn os_config() -> OsConfig {
    OsConfig {
        nproc: NPROC,
        workload: Workload::Transaction,
        iterations: ITERATIONS,
        ..OsConfig::default()
    }
}

/// The seeded slice lengths, one per slice in schedule order.
pub fn slices(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng::new(seed);
    std::iter::repeat_with(move || rng.range(SLICE_MIN, SLICE_MAX))
}

/// The fleet, where the guest lives, and its open chain.
pub struct Guest {
    fleet: Fleet,
    at: usize,
    vm: VmId,
    chain: u64,
    base: Vec<u8>,
    deltas: Vec<Vec<u8>>,
}

impl Guest {
    fn mon(&mut self) -> &mut Monitor {
        self.fleet.monitor_mut(self.at)
    }
}

/// What the traced run adds up across ops, and the deterministic op log
/// the self-test compares.
#[derive(Default)]
pub struct Tally {
    counts: SimCounts,
    delta_pages: Vec<f64>,
    delta_bytes: Vec<f64>,
    full_bytes: Vec<f64>,
    migrations: Vec<LiveMigration>,
    /// Every op, in order.
    pub log: Vec<OpRecord>,
}

/// One op's deterministic record, for the self-test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpRecord {
    /// An incremental checkpoint: its dirty pages and bytes.
    Delta { pages: u32, bytes: usize },
    /// A full checkpoint: its bytes.
    Full { bytes: usize },
    /// A live migration: pre-copy rounds and stop-phase pages.
    Migrate { rounds: u32, final_pages: u64 },
}

fn new_monitor(ctx: &mut Ctx, traced: bool) -> Monitor {
    let mut mon = ctx.tr.span(
        "core.monitor_new",
        || Monitor::new(MonitorConfig::default()),
    );
    if traced {
        mon.enable_obs(OBS_RING);
    }
    mon
}

/// Builds the fleet, boots the guest, warms it up and takes the first
/// chain's base.
pub fn set_up(ctx: &mut Ctx) -> Guest {
    let traced = ctx.tr.is_on();
    let image = ctx
        .tr
        .span("os.build_image", || build_image(&os_config()))
        .expect("the guest image builds");
    let mut fleet = Fleet::new();
    fleet.push(new_monitor(ctx, traced));
    fleet.push(new_monitor(ctx, traced));
    let mon = fleet.monitor_mut(0);
    mon.enable_dirty_tracking();
    let vm = ctx.tr.span("os.boot_in_monitor", || {
        boot_in_monitor(mon, &image, VmConfig::default())
    });
    let exit = ctx.tr.span("core.run", || mon.run(WARMUP_CYCLES));
    if exit != RunExit::BudgetExhausted {
        ctx.error("the guest halted during warm-up".into());
    }
    let base = ctx
        .tr
        .span("snap.full_capture", || snapshot_chain_base(mon))
        .expect("the first base captures");
    Guest {
        fleet,
        at: 0,
        vm,
        chain: 0,
        base,
        deltas: Vec::new(),
    }
}

/// Runs one chain: four slices with a delta after each of the first
/// three, the restore drill, a live migration at every fourth boundary,
/// and the next chain's full checkpoint. Every op goes through `ctx.tl`.
pub fn chain(
    ctx: &mut Ctx,
    g: &mut Guest,
    slices: &mut impl Iterator<Item = u64>,
    op: &mut u64,
    tally: &mut Tally,
) {
    let traced = ctx.tr.is_on();
    let mut pending = Vec::new();
    let mut oracle = Vec::new();
    let mut ok = true;
    for k in 0..SLICES_PER_CHAIN {
        let len = slices.next().expect("the slice schedule never ends");
        let before = SimCounts::of(g.mon());
        ctx.tl.reference();
        let t = Instant::now();
        let exit = ctx
            .tr
            .span("core.run", || g.fleet.monitor_mut(g.at).run(len));
        let raw = ns_since(t);
        let counts = SimCounts::of(g.mon()).since(&before);
        ctx.tl.busy(raw, counts.instructions);
        if traced {
            tally.counts.add(&counts);
        }
        if exit != RunExit::BudgetExhausted {
            ctx.op_error("the guest halted".into());
            ok = false;
        }
        if k + 1 == SLICES_PER_CHAIN {
            break;
        }
        let pages = g.mon().machine().mem().dirty_page_count();
        let parent = snapshot_digest(g.deltas.last().unwrap_or(&g.base));
        ctx.tr.set_op(*op);
        let t = Instant::now();
        ctx.tr.enter("op");
        let delta = ctx.tr.span("snap.delta_capture", || {
            snapshot_delta(g.fleet.monitor_mut(g.at), parent)
        });
        ctx.tr.exit();
        let raw = ns_since(t);
        ctx.tl.busy(raw, 0);
        *op += 1;
        match delta {
            Ok(d) => {
                tally.log.push(OpRecord::Delta {
                    pages,
                    bytes: d.len(),
                });
                if traced {
                    tally.delta_pages.push(f64::from(pages));
                    tally.delta_bytes.push(d.len() as f64);
                }
                g.deltas.push(d);
                pending.push((raw, ctx.tl.factor(), true));
            }
            Err(e) => {
                ctx.op_error(format!("delta capture: {e}"));
                pending.push((raw, ctx.tl.factor(), false));
            }
        }
        if k + 2 == SLICES_PER_CHAIN {
            // Oracle only, untimed: the live image the drill must match.
            oracle = snapshot_monitor(g.mon()).unwrap_or_default();
        }
    }

    // Restore drill of the finished chain: timed work, not an op.
    let t = Instant::now();
    let restored = ctx
        .tr
        .span("snap.restore_chain", || restore_chain(&g.base, &g.deltas));
    ctx.tl.busy(ns_since(t), 0);
    let drill_ok = restored
        .as_ref()
        .ok()
        .and_then(|m| snapshot_monitor(m).ok())
        .is_some_and(|bytes| bytes == oracle);
    drop(restored);
    if !drill_ok {
        ctx.op_error(format!(
            "chain {}: restore drill differs from the live image",
            g.chain
        ));
    }
    // The chain's deltas pass or fail with the drill.
    for (raw, factor, captured) in pending {
        ctx.tl
            .op_with_factor(raw, factor, ok && drill_ok && captured);
    }

    g.chain += 1;
    if g.chain.is_multiple_of(MIGRATE_EVERY) {
        migrate(ctx, g, op, tally);
    }

    ctx.tr.set_op(*op);
    let t = Instant::now();
    ctx.tr.enter("op");
    let base = ctx.tr.span("snap.full_capture", || {
        snapshot_chain_base(g.fleet.monitor_mut(g.at))
    });
    ctx.tr.exit();
    let raw = ns_since(t);
    ctx.tl.busy(raw, 0);
    *op += 1;
    match base {
        Ok(b) => {
            tally.log.push(OpRecord::Full { bytes: b.len() });
            if traced {
                tally.full_bytes.push(b.len() as f64);
            }
            g.base = b;
            g.deltas.clear();
            ctx.tl.op(raw, true);
        }
        Err(e) => {
            ctx.op_error(format!("full capture: {e}"));
            ctx.tl.op(raw, false);
        }
    }
}

/// Live-migrates the guest to the other monitor at a chain boundary;
/// `migrate_live` drains the source tracker, so no chain may be open
/// across it. The op's latency is the guest's downtime.
fn migrate(ctx: &mut Ctx, g: &mut Guest, op: &mut u64, tally: &mut Tally) {
    let traced = ctx.tr.is_on();
    let to = 1 - g.at;
    let before = SimCounts::of(g.mon());
    ctx.tr.set_op(*op);
    let t = Instant::now();
    ctx.tr.enter("op");
    let (from, vm) = (g.at, g.vm);
    let report = ctx.tr.span("core.fleet.migrate_live", || {
        g.fleet.migrate_live(vm, from, to, ROUND_BUDGET, MAX_ROUNDS)
    });
    ctx.tr.exit();
    let raw = ns_since(t);
    let counts = SimCounts::of(g.mon()).since(&before);
    ctx.tl.busy(raw, counts.instructions);
    *op += 1;
    match report {
        Ok(rep) => {
            tally.log.push(OpRecord::Migrate {
                rounds: rep.rounds,
                final_pages: rep.final_pages,
            });
            if traced {
                tally.counts.add(&counts);
                tally.migrations.push(rep.clone());
            }
            ctx.tl.op(rep.downtime.as_nanos() as f64, true);
            g.at = to;
            g.vm = rep.vm;
            // A fresh monitor takes the source's place, so halted
            // husks never fill real memory. Housekeeping, untimed.
            *g.fleet.monitor_mut(from) = new_monitor(ctx, traced);
        }
        Err(e) => {
            ctx.op_error(format!("migrate_live: {e}"));
            ctx.tl.op(raw, false);
        }
    }
}

/// The whole workload.
pub fn run(ctx: &mut Ctx) {
    let traced = ctx.tr.is_on();
    let mut guest = None;
    for _ in 0..ctx.setup_reps {
        guest = Some(ctx.setup(set_up));
    }
    let mut g = guest.expect("at least one set-up");
    if traced {
        let image = build_image(&os_config()).expect("the guest image builds");
        let mips = ctx
            .tr
            .span("cpu.bare_run", || sim::bare_mips(&image, BARE_CYCLES));
        ctx.layer.insert("cpu.bare_mips".into(), mips);
    }
    let mut slices = slices(ctx.seed);
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut op = 0u64;
    while start.elapsed().as_secs_f64() < ctx.seconds {
        chain(ctx, &mut g, &mut slices, &mut op, &mut tally);
        if traced {
            let text = ctx
                .tr
                .span("obs.render", || g.mon().metrics().to_prometheus());
            std::hint::black_box(text);
        }
    }
    if traced {
        tally.counts.layer_metrics(op, &mut ctx.layer);
        let m = &tally.migrations;
        let n = m.len().max(1) as f64;
        let downtime: Vec<f64> = m
            .iter()
            .map(|r| r.downtime.as_nanos() as f64 / 1e6)
            .collect();
        let entries = [
            (
                "core.fleet.downtime_ms",
                if m.is_empty() { 0.0 } else { median(&downtime) },
            ),
            (
                "core.fleet.precopy_rounds",
                m.iter().map(|r| f64::from(r.rounds)).sum::<f64>() / n,
            ),
            (
                "core.fleet.final_pages",
                m.iter().map(|r| r.final_pages as f64).sum::<f64>() / n,
            ),
            ("mem.dirty_pages_per_delta", mean(&tally.delta_pages)),
            ("snap.delta_bytes", median(&tally.delta_bytes)),
            ("snap.full_bytes", median(&tally.full_bytes)),
        ];
        for (k, v) in entries {
            ctx.layer.insert(k.into(), v);
        }
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}
