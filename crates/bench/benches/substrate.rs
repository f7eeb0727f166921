//! Substrate micro-benchmarks: interpreter throughput, taint overhead,
//! solver cost. Not paper artefacts, but the numbers every optimisation
//! of the reproduction is judged against.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use octo_corpus::pair_by_idx;
use octo_ir::parse::parse_program;
use octo_ir::BinOp;
use octo_solver::{Cond, Constraint, ConstraintSet, Expr};
use octo_taint::{TaintConfig, TaintEngine};
use octo_vm::{Limits, NoHook, Vm};

/// A compute-heavy loop program (~5k instructions per run).
fn loop_program() -> octo_ir::Program {
    parse_program(
        r#"
func main() {
entry:
    acc = 1
    i = 0
    jmp loop
loop:
    done = uge i, 1000
    br done, fin, body
body:
    acc = mul acc, 31
    acc = xor acc, i
    acc = add acc, 7
    i = add i, 1
    jmp loop
fin:
    halt acc
}
"#,
    )
    .expect("parses")
}

fn bench_vm_throughput(c: &mut Criterion) {
    let p = loop_program();
    let mut probe = Vm::new(&p, b"");
    probe.run();
    let insts = probe.insts_executed();

    let mut group = c.benchmark_group("vm");
    group.throughput(Throughput::Elements(insts));
    group.bench_function("uninstrumented", |b| {
        b.iter(|| Vm::new(&p, b"").run_hooked(&mut NoHook))
    });
    // Coverage-hook overhead (what every fuzz exec pays).
    group.bench_function("coverage_hook", |b| {
        let mut hook = octo_fuzz::CoverageHook::new();
        b.iter(|| {
            hook.reset();
            Vm::new(&p, b"").run_hooked(&mut hook)
        })
    });
    group.finish();
}

fn bench_taint_overhead(c: &mut Criterion) {
    // The Idx-6 extraction: taint vs plain execution of the same run.
    let pair = pair_by_idx(6).expect("pair");
    let ep = pair.s.func_by_name(&pair.shared[0]).expect("ep");
    let shared = pair.s.resolve_names(pair.shared.iter().map(String::as_str));
    let mut group = c.benchmark_group("taint");
    group.bench_function("plain_execution", |b| {
        b.iter(|| {
            Vm::new(&pair.s, pair.poc.bytes())
                .with_limits(Limits::default())
                .run()
        })
    });
    group.bench_function("tainted_execution", |b| {
        b.iter(|| {
            let mut engine =
                TaintEngine::new(TaintConfig::new(ep, shared.clone()), pair.poc.clone());
            Vm::new(&pair.s, pair.poc.bytes()).run_hooked(&mut engine);
            engine.into_primitives()
        })
    });
    group.finish();
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.bench_function("bunch_placement_64_bytes", |b| {
        b.iter(|| {
            let mut set = ConstraintSet::new();
            for i in 0..64u32 {
                set.assert_byte(i, (i * 7) as u8);
            }
            set.solve()
        })
    });
    group.bench_function("word_equalities_and_ranges", |b| {
        b.iter(|| {
            let mut set = ConstraintSet::new();
            set.push(Constraint::new(
                Expr::concat_le(0, 4),
                Expr::val(0xDEAD_BEEF),
                Cond::Eq,
            ));
            set.push(Constraint::new(Expr::byte(5), Expr::val(64), Cond::Ult));
            set.push(Constraint::new(Expr::val(8), Expr::byte(5), Cond::Ule));
            set.solve()
        })
    });
    // The directed-symex hot shape (Table II Idx 14): 14 independent
    // 2-byte word constraints `(add K le(in[a], in[a+1])) == K`, each
    // followed by one link of the growing `(uge k in[5]) == 0` chain.
    // Every iteration forks the set and pre-checks one new branch, as
    // the engine does per branch; the forks share the solve memo.
    let mut path = ConstraintSet::new();
    for i in 0..14u32 {
        let (k, a) = (u64::from(12 + 3 * i), 10 + 3 * i);
        let word = Expr::bin(BinOp::Add, Expr::val(k), Expr::concat_le(a, 2));
        path.push(Constraint::new(word, Expr::val(k), Cond::Eq));
        let link = Expr::bin(BinOp::CmpGeU, Expr::val(u64::from(i)), Expr::byte(5));
        path.push(Constraint::new(link, Expr::val(0), Cond::Eq));
    }
    group.bench_function("independent_pairs_quick_feasible", |b| {
        b.iter(|| {
            let mut fork = path.clone();
            let link = Expr::bin(BinOp::CmpGeU, Expr::val(14), Expr::byte(5));
            fork.push(Constraint::new(link, Expr::val(0), Cond::Eq));
            fork.quick_feasible()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_vm_throughput,
    bench_taint_overhead,
    bench_solver
);
criterion_main!(benches);
