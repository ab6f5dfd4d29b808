//! Bench comparing the execution engines on the same scalarized
//! program: the reference tree-walking interpreter vs the bytecode VM
//! tiers, on SIMPLE at n = 256 optimized at c2+f3 (the configuration the
//! VM is required to run at least 2x, and the superinstruction/lane
//! engine at least 4x, faster than the interpreter).
//!
//! Samples are interleaved (interp, vm, interp, vm, ...) so background
//! load perturbs both engines equally instead of skewing the ratio.
//!
//! With `--check` the bench exits nonzero if the `vm-simd` engine is
//! under the 4x bar (the CI `simd` job runs this in release mode).

use fusion_core::pipeline::{Level, Pipeline};
use loopir::{Engine, NoopObserver};
use testkit::{bench, Timing};
use zlang::ir::ConfigBinding;

const ROUNDS: usize = 8;

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let b = benchmarks::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&b.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, b.size_config, 256);

    // Construct (compile + verify) outside the timed region: this bench
    // compares the engines' execution speed, not compilation cost.
    let one = |engine: Engine| -> Timing {
        let mut exec = engine.executor(&opt.scalarized, binding.clone()).unwrap();
        bench(0, 1, || exec.execute(&mut NoopObserver).unwrap().checksum())
    };
    // Warm both paths once, then interleave the timed rounds.
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
            "bench engine_speed/simple_n256_c2f3/{engine:<8} median {:.3} ms",
            m / 1e6
        );
        medians.push((engine, m));
    }
    let interp = medians
        .iter()
        .find(|(e, _)| *e == Engine::Interp)
        .unwrap()
        .1;
    let vm = medians.iter().find(|(e, _)| *e == Engine::Vm).unwrap().1;
    let simd = medians
        .iter()
        .find(|(e, _)| *e == Engine::VmSimd)
        .unwrap()
        .1;
    println!("engine_speed: vm is {:.2}x the interpreter", interp / vm);
    println!(
        "engine_speed: vm-simd (superinstructions + lanes) is {:.2}x the interpreter",
        interp / simd
    );
    if std::env::args().any(|a| a == "--check") {
        let ratio = interp / simd;
        assert!(
            ratio >= 4.0,
            "vm-simd is only {ratio:.2}x the interpreter (the bar is 4x)"
        );
        println!("engine_speed: check ok (vm-simd >= 4x interp)");
    }
}
