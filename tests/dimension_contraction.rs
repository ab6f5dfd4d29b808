//! End-to-end tests for the dimension-contraction extension (the paper's
//! Section 5.2 SP deficiency): semantics must be exactly preserved while
//! the collapsed arrays' memory disappears.

use zpl_fusion::fusion::pipeline::Optimized;
use zpl_fusion::prelude::*;

/// An SP-style sweep chain: T is produced by an x-direction stencil and
/// consumed by a y-direction stencil — full fusion is illegal, but the
/// row dimension is flow-flat.
const SWEEP: &str = "program sweep; config n : int = 24; \
    region GH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
    var A : [GH] float; var T, U : [GH] float; var OUT : [R] float; var s : float; \
    begin \
      [GH] A := index1 * 0.3 + sin(index2 * 0.7); \
      [R] T := A@[0,-1] + 2.0 * A + A@[0,1]; \
      [R] U := T@[0,-1] + 2.0 * T + T@[0,1]; \
      [R] OUT := U@[0,-1] + U@[0,1]; \
      s := +<< [R] OUT; end";

/// The `c2+dim` pipeline: plain `c2` plus dimension contraction.
fn c2_dim() -> Pipeline<'static> {
    Pipeline::new("c2+dim".parse::<LevelSpec>().unwrap())
}

fn run(opt: &Optimized, n: i64) -> (f64, u64) {
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, "n", n);
    let mut exec = Engine::default()
        .executor(&opt.scalarized, binding)
        .unwrap();
    let out = exec.execute(&mut NoopObserver).unwrap();
    (
        out.scalar(opt.scalarized.program.scalar_by_name("s").unwrap()),
        out.stats.peak_bytes,
    )
}

#[test]
fn sweep_chain_preserves_semantics_and_saves_memory() {
    let p = zlang::compile(SWEEP).unwrap();
    let plain = Pipeline::new(Level::C2).optimize(&p);
    let dimc = c2_dim().optimize(&p);

    assert!(dimc.report.dimension_contracted >= 1, "{:?}", dimc.report);

    for n in [8, 16, 24] {
        let (s_plain, mem_plain) = run(&plain, n);
        let (s_dimc, mem_dimc) = run(&dimc, n);
        assert_eq!(s_plain, s_dimc, "n = {n}");
        assert!(
            mem_dimc < mem_plain,
            "n = {n}: collapsed arrays must shrink memory ({mem_dimc} vs {mem_plain})"
        );
    }

    // The collapsed arrays grow O(n) instead of O(n^2): the memory ratio
    // between the two variants must widen with n.
    let (_, p8) = run(&plain, 8);
    let (_, d8) = run(&dimc, 8);
    let (_, p32) = run(&plain, 32);
    let (_, d32) = run(&dimc, 32);
    let r8 = p8 as f64 / d8 as f64;
    let r32 = p32 as f64 / d32 as f64;
    assert!(r32 > r8, "savings must grow with n: {r8:.2} -> {r32:.2}");
}

#[test]
fn every_benchmark_is_preserved_under_dimension_contraction() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        let program = bench.program();
        let plain = Pipeline::new(Level::C2).optimize(&program);
        let dimc = c2_dim().optimize(&program);
        let outputs = |opt: &Optimized| {
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let mut exec = Engine::default()
                .executor(&opt.scalarized, binding)
                .unwrap();
            exec.execute(&mut NoopObserver).unwrap().scalars
        };
        assert_eq!(outputs(&plain), outputs(&dimc), "{}", bench.name);
    }
}

#[test]
fn sp_gains_dimension_contractions() {
    // The motivating benchmark: SP's sweep-stage arrays (R*, S*, S*b) are
    // exactly the class the paper says should contract to lower dimensions.
    let bench = zpl_fusion::workloads::by_name("sp").unwrap();
    let dimc = c2_dim().optimize(&bench.program());
    assert!(
        dimc.report.dimension_contracted >= 5,
        "SP should collapse its sweep stages: {:?}",
        dimc.report
    );
    let plain = Pipeline::new(Level::C2).optimize(&bench.program());
    let mem = |opt: &Optimized| run_mem(opt, 10);
    assert!(
        mem(&dimc) < mem(&plain),
        "{} vs {}",
        mem(&dimc),
        mem(&plain)
    );
}

fn run_mem(opt: &Optimized, n: i64) -> u64 {
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, "n", n);
    let mut exec = Engine::default()
        .executor(&opt.scalarized, binding)
        .unwrap();
    exec.execute(&mut NoopObserver).unwrap().stats.peak_bytes
}
