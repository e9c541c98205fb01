//! Decode-cache microbenchmarks: steady-state hit-path speed over
//! operand-rich code, and the cost of invalidation-heavy (self-modifying)
//! workloads, cache on vs. off.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use vax_arch::{MachineVariant, Psl};
use vax_cpu::{ExecTier, Machine, StepEvent};

fn machine_running(program: &vax_asm::Program, tier: ExecTier) -> Machine {
    let mut m = Machine::new(MachineVariant::Standard, 256 * 1024);
    m.set_exec_tier(tier);
    m.mem_mut()
        .write_slice(program.base, &program.bytes)
        .unwrap();
    let mut psl = Psl::new();
    psl.set_ipl(31);
    m.set_psl(psl);
    m.set_reg(14, 0x8000);
    m.set_pc(program.base);
    m
}

fn bench(c: &mut Criterion) {
    // Operand-rich loop: displacement, autoincrement, and indexed
    // specifiers exercise the materialization paths the cache must
    // replay, not just the trivial register modes.
    let memory_loop = vax_asm::assemble_text(
        "
            movl #4000, r2
            movl #0x3000, r4
        top:
            movl r2, 4(r4)
            addl2 4(r4), r3
            movl #0x3000, r5
            movl (r5)+, r6
            sobgtr r2, top
            halt
        ",
        0x1000,
    )
    .unwrap();
    let instructions = 4_000u64 * 5 + 2;

    let mut g = c.benchmark_group("decode_cache");
    g.throughput(Throughput::Elements(instructions));
    for (name, tier) in [
        ("memory_loop", ExecTier::Cache),
        ("memory_loop_nocache", ExecTier::Interp),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut m = machine_running(&memory_loop, tier);
                while m.step() == StepEvent::Ok {}
                assert_eq!(m.counters().instructions, instructions);
                m.reg(3)
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
