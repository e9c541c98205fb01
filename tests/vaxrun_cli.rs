//! End-to-end tests of the `vaxrun` command-line tool.

use std::io::Write;
use std::process::Command;

fn write_program(dir: &std::path::Path, name: &str, src: &str) -> std::path::PathBuf {
    let path = dir.join(name);
    let mut f = std::fs::File::create(&path).unwrap();
    f.write_all(src.as_bytes()).unwrap();
    path
}

const HELLO: &str = r#"
start:  moval msg, r0
loop:   movzbl (r0)+, r1
        beql done
        mtpr r1, #35
        brb loop
done:   halt
        .align 4
msg:    .asciz "hi there\n"
"#;

#[test]
fn vaxrun_executes_bare_and_in_vm() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "hello.s", HELLO);

    for extra in [&[][..], &["--vm"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
            .args(extra)
            .arg(&prog)
            .output()
            .expect("vaxrun runs");
        assert!(
            out.status.success(),
            "args {extra:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            "hi there\n",
            "args {extra:?}"
        );
    }
}

#[test]
fn vaxrun_listing_mode() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "list.s", HELLO);
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--list")
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("start:"), "{text}");
    assert!(text.contains("movzbl (r0)+, r1"), "{text}");
}

#[test]
fn vaxrun_reports_assembly_errors() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "bad.s", "frobnicate r0\n");
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg(&prog)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("unknown mnemonic"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn vaxrun_metrics_and_trace_outputs() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "metrics.s", HELLO);
    let json_path = dir.join("metrics.json");
    let prom_path = dir.join("metrics.prom");
    let trace_path = dir.join("trace.json");

    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--vm")
        .arg("--metrics-out")
        .arg(&json_path)
        .arg("--trace-out")
        .arg(&trace_path)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.contains("\"counters\""), "{json}");
    assert!(json.contains("\"vm_emulation_traps\""), "{json}");
    assert!(json.contains("\"histograms\""), "{json}");
    // HELLO's console output goes through MTPR-to-TXDB emulation traps.
    assert!(json.contains("exit_cost_emul_mtpr_other"), "{json}");
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"traceEvents\""), "{trace}");
    assert!(trace.contains("\"cat\": \"vmexit\""), "{trace}");

    // Prometheus text when the path ends in .prom, bare mode included.
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--metrics-out")
        .arg(&prom_path)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE vax_instructions counter"), "{prom}");
    assert!(prom.contains("vax_cycles "), "{prom}");
    // Bare mode exports the machine's families the monitor does,
    // the exec tier included.
    assert!(prom.contains("vax_exec_tier{tier=\"cache\"} 1"), "{prom}");

    // Bare --trace-out writes the sink's ring too: on the trans tier,
    // superblock lifecycle events.
    let loop_prog = write_program(
        &dir,
        "hot_loop.s",
        "movl #200, r0\ntop: addl2 r0, r1\n sobgtr r0, top\n halt\n",
    );
    let bare_trace = dir.join("bare_trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .args(["--exec-tier", "trans", "--trace-out"])
        .arg(&bare_trace)
        .arg(&loop_prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&bare_trace).unwrap();
    assert!(trace.contains("\"name\": \"sb_translate\""), "{trace}");
}

#[test]
fn vaxrun_fleet_mode() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "fleet.s", HELLO);
    let metrics_path = dir.join("fleet_metrics.json");

    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .args(["--fleet", "3@2", "--jobs", "2", "--metrics-out"])
        .arg(&metrics_path)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("-- monitor 0: AllHalted"), "{stderr}");
    assert!(stderr.contains("-- monitor 2: AllHalted"), "{stderr}");
    assert!(
        stderr.contains("-- fleet: 3 monitors x 2 vms, 2 jobs"),
        "{stderr}"
    );
    // Fleet metrics JSON: the merged registry plus one entry per monitor.
    let json = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(json.contains("\"fleet\""), "{json}");
    assert!(json.contains("\"monitors\""), "{json}");
    assert!(json.contains("\"fleet_monitors\""), "{json}");

    // A fleet spec that is not M or M@V is a usage error.
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .args(["--fleet", "3@"])
        .arg(&prog)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn vaxrun_profile_mode() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "profile.s", HELLO);
    let folded_path = dir.join("profile.folded");

    // --vm --profile-out: summary on stderr, collapsed stack on disk, and
    // profile families in the metrics registry.
    let metrics_path = dir.join("profile_metrics.json");
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--vm")
        .arg("--profile-out")
        .arg(&folded_path)
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(String::from_utf8_lossy(&out.stdout), "hi there\n");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("-- profile:"), "{stderr}");
    assert!(stderr.contains("tier cache"), "{stderr}");
    assert!(stderr.contains("-- working set:"), "{stderr}");
    let folded = std::fs::read_to_string(&folded_path).unwrap();
    assert!(folded.contains("guest;tier_"), "{folded}");
    let json = std::fs::read_to_string(&metrics_path).unwrap();
    assert!(json.contains("\"profile_samples\""), "{json}");
    assert!(json.contains("\"profile_cycles_cache\""), "{json}");
    assert!(json.contains("\"dirty_pages\""), "{json}");

    // Bare mode: --trace alone prints the summary too.
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--trace")
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("-- profile:"), "{stderr}");
}

#[test]
fn vaxrun_trace_depth_flag() {
    let dir = std::env::temp_dir().join("vaxrun_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let prog = write_program(&dir, "depth.s", HELLO);
    let trace_path = dir.join("depth_trace.json");

    // A valid depth works end to end.
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .args(["--vm", "--trace-depth", "128", "--trace-out"])
        .arg(&trace_path)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace = std::fs::read_to_string(&trace_path).unwrap();
    assert!(trace.contains("\"traceEvents\""), "{trace}");

    // Out-of-range depths are usage errors (exit code 2).
    for bad in ["0", "16777217", "banana"] {
        let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
            .args(["--vm", "--trace-depth", bad])
            .arg(&prog)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--trace-depth {bad}");
    }
}

#[test]
fn vaxrun_usage_on_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
        .arg("--bogus")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn vaxrun_delta_chain_workflow() {
    let dir = std::env::temp_dir().join("vaxrun_cli_delta_test");
    std::fs::create_dir_all(&dir).unwrap();
    // A loop that keeps writing memory, so every segment dirties pages.
    let prog = write_program(
        &dir,
        "chain.s",
        "
            movl #20000, r2
        top:
            addl2 #3, r3
            movl r3, @#0x3000
            sobgtr r2, top
            halt
        ",
    );
    let base = dir.join("base.snap");
    let d1 = dir.join("d1.snap");
    let d2 = dir.join("d2.snap");
    let run = |args: &[&std::ffi::OsStr]| {
        let out = Command::new(env!("CARGO_BIN_EXE_vaxrun"))
            .args(args)
            .output()
            .unwrap();
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    fn s(p: &std::path::Path) -> &std::ffi::OsStr {
        p.as_os_str()
    }
    fn a(t: &str) -> std::ffi::OsString {
        std::ffi::OsString::from(t)
    }

    // Base, two incremental links, full-chain resume. The intermediate
    // runs stop mid-loop (BudgetExhausted), so vaxrun's not-yet-halted
    // exit code is expected — the contract is that each image gets
    // written.
    let (_, err) = run(&[
        &a("--vm"),
        &a("--max-cycles"),
        &a("50000"),
        &a("--snapshot-out"),
        s(&base),
        s(prog.as_path()),
    ]);
    assert!(err.contains("snapshot:"), "{err}");
    let chain1 = base.as_os_str().to_os_string();
    let (_, err) = run(&[
        &a("--restore"),
        &chain1,
        &a("--max-cycles"),
        &a("50000"),
        &a("--snapshot-delta"),
        s(&d1),
    ]);
    assert!(err.contains("delta snapshot:"), "{err}");
    let mut chain2 = chain1.clone();
    chain2.push(",");
    chain2.push(&d1);
    let (_, err) = run(&[
        &a("--restore"),
        &chain2,
        &a("--max-cycles"),
        &a("50000"),
        &a("--snapshot-delta"),
        s(&d2),
    ]);
    assert!(err.contains("delta snapshot:"), "{err}");
    let mut chain3 = chain2.clone();
    chain3.push(",");
    chain3.push(&d2);
    let (ok, err) = run(&[&a("--restore"), &chain3]);
    assert!(ok, "{err}");
    assert!(err.contains("ConsoleHalt"), "{err}");

    // Deltas are an order of magnitude smaller than the base image.
    let base_len = std::fs::metadata(&base).unwrap().len();
    let d1_len = std::fs::metadata(&d1).unwrap().len();
    assert!(d1_len * 10 <= base_len, "delta {d1_len} vs base {base_len}");

    // A chain that skips a link is rejected, not silently wrong.
    let mut skipped = base.as_os_str().to_os_string();
    skipped.push(",");
    skipped.push(&d2);
    let (ok, err) = run(&[&a("--restore"), &skipped]);
    assert!(!ok);
    assert!(err.contains("digest mismatch"), "{err}");

    // --snapshot-delta without a restored parent is a usage error.
    let (ok, err) = run(&[
        &a("--vm"),
        &a("--snapshot-delta"),
        s(&d1),
        s(prog.as_path()),
    ]);
    assert!(!ok);
    assert!(err.contains("needs a parent image"), "{err}");
}
