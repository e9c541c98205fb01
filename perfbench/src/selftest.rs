//! The benchmark's self-test: the seed is the only source of variation,
//! simulated counts repeat exactly and match the committed reference,
//! and `BENCHMARK.json` names runnable workloads and exactly the
//! metrics the runs print.
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::{ckpt, e8, fork, per_layer, Ctx, END_TO_END, WORKLOADS};
use vax_os::build_image;

/// The seed held out from every tuning run: later claims are checked on
/// it too.
const HELD_OUT_SEED: u64 = 20_261_017;

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    for seed in [1, HELD_OUT_SEED] {
        let a: Vec<usize> = e8::picks(seed).take(64).collect();
        assert_eq!(a, e8::picks(seed).take(64).collect::<Vec<_>>());
        assert_ne!(a, e8::picks(seed + 1).take(64).collect::<Vec<_>>());

        let (pool, picks) = fork::inputs(seed);
        let (pool2, picks2) = fork::inputs(seed);
        assert_eq!(pool, pool2);
        assert_eq!(
            picks.take(256).collect::<Vec<_>>(),
            picks2.take(256).collect::<Vec<_>>()
        );
        assert_ne!(pool, fork::inputs(seed + 1).0);

        let s: Vec<u64> = ckpt::slices(seed).take(64).collect();
        assert_eq!(s, ckpt::slices(seed).take(64).collect::<Vec<_>>());
        assert_ne!(s, ckpt::slices(seed + 1).take(64).collect::<Vec<_>>());
    }
}

#[test]
fn stratified_payload_pools_carry_the_same_load() {
    let mean_spin = |seed| {
        let (pool, _) = fork::inputs(seed);
        pool.iter().map(|p| f64::from(p.spin)).sum::<f64>() / pool.len() as f64
    };
    let means: Vec<f64> = (1..=20).map(mean_spin).collect();
    let (lo, hi) = means
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), m| (lo.min(*m), hi.max(*m)));
    assert!(hi / lo < 1.05, "pool mean spin varies {lo}..{hi}");
    let (pool, _) = fork::inputs(3);
    assert!(pool
        .iter()
        .all(|p| p.spin <= 2_000 && (1..=16).contains(&p.msg.len())));
}

#[test]
fn e8_jobs_repeat_exactly_and_match_the_reference() {
    let mut ctx = Ctx::new(HELD_OUT_SEED, 0.0, false, e8::REFERENCE);
    for &n in &e8::ITERATIONS {
        let image = build_image(&e8::os_config(n)).expect("image builds");
        for obs in [false, true] {
            let (mon, vms, exit) = e8::job(&image, &mut ctx, obs);
            let done = e8::outcome(&mon, vms, exit);
            assert_eq!(
                e8::check(n, &done, obs),
                Ok(()),
                "iterations {n}, obs {obs}"
            );
        }
    }
}

#[test]
fn ckpt_schedule_repeats_exactly() {
    let run = |seed| {
        let mut ctx = Ctx::new(seed, 0.0, false, ckpt::REFERENCE);
        let mut guest = ckpt::set_up(&mut ctx);
        let mut slices = ckpt::slices(seed);
        let mut tally = ckpt::Tally::default();
        let mut op = 0;
        // Four chains: the fourth boundary live-migrates.
        for _ in 0..4 {
            ckpt::chain(&mut ctx, &mut guest, &mut slices, &mut op, &mut tally);
        }
        assert_eq!(ctx.tl.failed, 0, "every op passes its checks");
        assert_eq!(ctx.errors, 0);
        tally.log
    };
    let a = run(HELD_OUT_SEED);
    assert_eq!(a, run(HELD_OUT_SEED));
    assert!(a
        .iter()
        .any(|r| matches!(r, ckpt::OpRecord::Migrate { .. })));
    assert_eq!(
        a.len(),
        4 * 4 + 1,
        "three deltas and a full capture per chain, one migration"
    );
}

#[test]
fn vaxd_oracle_repeats_exactly() {
    let (pool, _) = fork::inputs(HELD_OUT_SEED);
    let a = fork::oracle_outputs(&pool[..8]);
    assert_eq!(a, fork::oracle_outputs(&pool[..8]));
    assert!(a
        .iter()
        .all(|(out, instructions)| { out.status == vaxd::RunStatus::Halted && *instructions > 0 }));
}

#[test]
fn benchmark_json_names_what_the_runs_print() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let gated = names("workloads");
    assert!(gated.len() >= 2);
    assert!(gated.iter().all(|w| WORKLOADS.contains(&w.as_str())));
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names("per_layer"), layers);
}
