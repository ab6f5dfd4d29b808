//! Bench measuring the cost of the supervisor's fault boundary.
//!
//! Both arms do the same end-to-end work — optimize SIMPLE at c2+f3,
//! compile it for the bytecode VM, and execute at n = 256 — but one runs
//! bare and one runs under `fusion_core::Supervisor` (stage tracking,
//! `catch_unwind`, report building; no budgets, no faults). The supervised
//! arm must stay within 5% of the bare arm: a fault boundary that taxes
//! the fault-free path would never be left on by default.
//!
//! Samples are interleaved (bare, supervised, bare, ...) so background
//! load perturbs both arms equally. The verdict is also written to
//! `BENCH_supervisor.json` for CI.

use fusion_core::{Level, RunRequest};
use loopir::{Engine, NoopObserver};
use testkit::bench;

const ROUNDS: usize = 8;
const TARGET_PCT: f64 = 5.0;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let b = benchmarks::by_name("simple").unwrap();
    let program = b.program();
    let req = RunRequest::new()
        .with_level(Level::C2F3)
        .with_engine(Engine::Vm)
        .with_set(b.size_config, 256);

    let bare = || {
        bench(0, 1, || {
            let opt = req.pipeline().optimize(&program);
            let binding = req.binding_for(&opt.scalarized.program).unwrap();
            let mut exec = req.engine.executor(&opt.scalarized, binding).unwrap();
            exec.execute(&mut NoopObserver).unwrap().checksum()
        })
        .min_ns
    };
    let supervised = || {
        bench(0, 1, || {
            let sup = req.supervisor();
            sup.run_program(&program).unwrap().outcome.checksum()
        })
        .min_ns
    };

    // Warm both arms, then interleave the timed rounds.
    bare();
    supervised();
    let (mut bare_ns, mut sup_ns) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        bare_ns.push(bare());
        sup_ns.push(supervised());
    }
    let (bare_ms, sup_ms) = (median(bare_ns) / 1e6, median(sup_ns) / 1e6);
    let overhead_pct = (sup_ms / bare_ms - 1.0) * 100.0;
    let pass = overhead_pct <= TARGET_PCT;

    println!("bench supervisor_overhead/simple_n256_c2f3/bare       median {bare_ms:.3} ms");
    println!("bench supervisor_overhead/simple_n256_c2f3/supervised median {sup_ms:.3} ms");
    println!(
        "supervisor_overhead: {overhead_pct:+.2}% vs bare vm (target <= {TARGET_PCT}%) — {}",
        if pass { "ok" } else { "OVER BUDGET" }
    );

    let json = format!(
        "{{\n  \"bench\": \"supervisor_overhead\",\n  \"config\": \"simple n=256 c2+f3 vm\",\n  \
         \"bare_ms\": {bare_ms:.6},\n  \"supervised_ms\": {sup_ms:.6},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \"target_pct\": {TARGET_PCT:.1},\n  \"pass\": {pass}\n}}\n"
    );
    if let Err(e) = std::fs::write("BENCH_supervisor.json", &json) {
        eprintln!("supervisor_overhead: cannot write BENCH_supervisor.json: {e}");
    }
    if !pass {
        std::process::exit(1);
    }
}
