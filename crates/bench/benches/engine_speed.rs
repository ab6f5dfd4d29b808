//! Bench comparing the execution engines on the same scalarized
//! program: the reference tree-walking interpreter vs the bytecode VM
//! tiers, on SIMPLE and Tomcatv at n = 256 optimized at c2+f3. SIMPLE is
//! the configuration the VM is required to run at least 2x, and the
//! superinstruction/lane engine at least 8x, faster than the interpreter;
//! Tomcatv's main nest carries two fused `max` reductions, so its row
//! shows the lane reduce end to end (`vm-simd` at least 2x `vm`).
//!
//! Samples are interleaved (interp, vm, interp, vm, ...) so background
//! load perturbs both engines equally instead of skewing the ratio.
//!
//! With `--check` the bench exits nonzero if either bar is missed (the CI
//! `simd` job runs this in release mode).

use fusion_core::pipeline::{Level, Pipeline};
use loopir::{Engine, NoopObserver};
use testkit::{bench, Timing};
use zlang::ir::ConfigBinding;

const ROUNDS: usize = 8;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Median run time in ns of every engine on benchmark `name` at n = 256,
/// c2+f3, as a lookup by engine.
fn row(name: &str) -> impl Fn(Engine) -> f64 {
    let b = benchmarks::by_name(name).unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&b.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, b.size_config, 256);

    // Construct (compile + verify) outside the timed region: this bench
    // compares the engines' execution speed, not compilation cost.
    let one = |engine: Engine| -> Timing {
        let mut exec = engine.executor(&opt.scalarized, binding.clone()).unwrap();
        bench(0, 1, || exec.execute(&mut NoopObserver).unwrap().checksum())
    };
    // Warm every path once, then interleave the timed rounds.
    for engine in Engine::all() {
        one(engine);
    }
    let mut samples: Vec<(Engine, Vec<f64>)> =
        Engine::all().into_iter().map(|e| (e, Vec::new())).collect();
    for _ in 0..ROUNDS {
        for (engine, xs) in &mut samples {
            xs.push(one(*engine).min_ns);
        }
    }
    let mut medians = Vec::new();
    for (engine, xs) in samples {
        let m = median(xs);
        println!(
            "bench engine_speed/{name}_n256_c2f3/{engine:<8} median {:.3} ms",
            m / 1e6
        );
        medians.push((engine, m));
    }
    move |engine| medians.iter().find(|(e, _)| *e == engine).unwrap().1
}

fn main() {
    let simple = row("simple");
    let simple_simd = simple(Engine::Interp) / simple(Engine::VmSimd);
    println!(
        "engine_speed: vm is {:.2}x the interpreter",
        simple(Engine::Interp) / simple(Engine::Vm)
    );
    println!(
        "engine_speed: vm-simd (superinstructions + lanes) is {simple_simd:.2}x the interpreter"
    );
    let tomcatv = row("tomcatv");
    let tomcatv_simd = tomcatv(Engine::Vm) / tomcatv(Engine::VmSimd);
    println!("engine_speed: on tomcatv (fused reductions) vm-simd is {tomcatv_simd:.2}x vm");
    if std::env::args().any(|a| a == "--check") {
        assert!(
            simple_simd >= 8.0,
            "vm-simd is only {simple_simd:.2}x the interpreter on simple (the bar is 8x)"
        );
        assert!(
            tomcatv_simd >= 2.0,
            "vm-simd is only {tomcatv_simd:.2}x vm on tomcatv (the bar is 2x)"
        );
        println!(
            "engine_speed: check ok (simple: vm-simd >= 8x interp; tomcatv: vm-simd >= 2x vm)"
        );
    }
}
