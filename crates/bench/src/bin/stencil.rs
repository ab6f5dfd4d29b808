//! FLOP and wall-clock impact of the `+rce2` stencil redundancy pass.
//!
//! Runs the three stencil-heavy paper benchmarks (Tomcatv, Simple, SP) at
//! `c2+f3` in three cleanup configurations — none, `+rce`, `+rce2` — on
//! the bytecode VM, and reports the executed floating-point operation
//! count (the VM's fuel counters, an exact machine-independent measure)
//! plus median wall-clock per run. Checksums are compared by bits across
//! the configurations: the pass must change *work*, never *answers*.
//! Results land in `BENCH_stencil.json` for CI trend tracking.
//!
//! This is the repository's last wall-clock bin, kept on purpose: every
//! other timing comes from the layered harness under `benchmark/`, but no
//! harness row times `c2+f3+rce2` at n >= 32, and ROADMAP item 4's
//! decision rule (`+rce2` pays in milliseconds or leaves) reads these
//! pairs. It goes when a harness row replaces them (ROADMAP item 1).
//!
//! ```text
//! stencil [--rounds N] [--quick] [--check]
//! ```
//!
//! `--check` exits nonzero unless `+rce2` cuts executed FLOPs by at least
//! 15% on at least one benchmark at the full sizes (SP clears it; Tomcatv
//! and Simple sit at their structural ceilings near 8% and 6% — see
//! EXPERIMENTS.md). `--check` therefore refuses to run with `--quick`,
//! whose shrunken grids inflate the non-eliminable halo fraction.

use fusion_core::pipeline::{Level, Pipeline};
use loopir::{Engine, NoopObserver};
use std::fmt::Write as _;
use std::time::Instant;
use zlang::ir::ConfigBinding;

const DEFAULT_ROUNDS: usize = 5;

/// The acceptance bar: `+rce2` must cut executed FLOPs by this much…
const FLOP_BAR_PCT: f64 = 15.0;
/// …on at least this many of the benchmarks. SP clears the 15% bar at
/// its full size; Tomcatv and Simple top out near 8% and 6% because
/// their remaining overlap is read-level, not shared-subexpression
/// level, and the pass only performs structural (bit-identical)
/// rewrites. The per-benchmark actuals are tracked in EXPERIMENTS.md.
const FLOP_BAR_COUNT: usize = 1;

fn usage() -> ! {
    eprintln!("usage: stencil [--rounds N] [--quick] [--check]");
    std::process::exit(2);
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

struct Variant {
    suffix: &'static str,
    flops: u64,
    median_ms: f64,
    checksum: u64,
}

fn run_variant(
    bench: &benchmarks::Benchmark,
    suffix: &'static str,
    n: i64,
    rounds: usize,
) -> Variant {
    let program = bench.program();
    let mut pipeline = Pipeline::new(Level::C2F3);
    match suffix {
        "" => {}
        "+rce" => pipeline = pipeline.with_rce(),
        "+rce2" => pipeline = pipeline.with_rce2(),
        _ => unreachable!(),
    }
    let opt = pipeline.optimize(&program);
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
    let mut flops = 0;
    let mut checksum = 0;
    let mut times = Vec::new();
    for round in 0..rounds {
        let mut exec = Engine::Vm
            .executor(&opt.scalarized, binding.clone())
            .expect("compiles");
        let start = Instant::now();
        let out = exec.execute(&mut NoopObserver).expect("runs");
        times.push(start.elapsed().as_secs_f64() * 1e3);
        if round == 0 {
            flops = out.stats.flops;
            checksum = out.checksum().to_bits();
        } else {
            assert_eq!(
                out.stats.flops, flops,
                "{}{suffix}: flops drifted",
                bench.name
            );
        }
    }
    Variant {
        suffix,
        flops,
        median_ms: median(times),
        checksum,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = DEFAULT_ROUNDS;
    let mut quick = false;
    let mut check = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--quick" => quick = true,
            "--check" => check = true,
            _ => usage(),
        }
    }
    if check && quick {
        eprintln!("stencil: --check applies to the full-size grids; drop --quick");
        std::process::exit(2);
    }

    println!("+rce2 stencil impact at c2+f3 on the VM ({rounds} rounds, median)");
    let mut bench_objects = Vec::new();
    let mut passing = 0usize;
    for name in ["tomcatv", "simple", "sp"] {
        let bench = benchmarks::by_name(name).expect("paper benchmark");
        let n = match (bench.rank, quick) {
            (3, true) => 8,
            (3, false) => 32,
            (_, true) => 32,
            (_, false) => 128,
        };
        let variants: Vec<Variant> = ["", "+rce", "+rce2"]
            .into_iter()
            .map(|s| run_variant(&bench, s, n, rounds))
            .collect();
        let base = &variants[0];
        for v in &variants[1..] {
            assert_eq!(
                v.checksum, base.checksum,
                "{name}{}: checksum diverged from the baseline configuration",
                v.suffix
            );
        }
        println!("\n{name} (n = {n})");
        let mut variant_objects = Vec::new();
        let mut rce2_cut = 0.0;
        for v in &variants {
            let cut = 100.0 * (base.flops as f64 - v.flops as f64) / base.flops as f64;
            if v.suffix == "+rce2" {
                rce2_cut = cut;
            }
            println!(
                "  c2+f3{:6} {:>12} flops ({cut:5.1}% cut)  {:8.3} ms",
                v.suffix, v.flops, v.median_ms
            );
            variant_objects.push(format!(
                "{{\"config\": \"c2+f3{}\", \"flops\": {}, \"flop_cut_pct\": {cut:.2}, \
                 \"median_ms\": {:.4}}}",
                v.suffix, v.flops, v.median_ms
            ));
        }
        if rce2_cut >= FLOP_BAR_PCT {
            passing += 1;
        }
        let mut obj = String::new();
        let _ = write!(
            obj,
            "    {{\n      \"name\": \"{name}\",\n      \"n\": {n},\n      \"configs\": [\n        {}\n      ]\n    }}",
            variant_objects.join(",\n        ")
        );
        bench_objects.push(obj);
    }

    let json = format!(
        "{{\n  \"bench\": \"stencil\",\n  \"rounds\": {rounds},\n  \"flop_bar_pct\": {FLOP_BAR_PCT},\n  \
         \"benchmarks\": [\n{}\n  ]\n}}\n",
        bench_objects.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_stencil.json", &json) {
        eprintln!("stencil: cannot write BENCH_stencil.json: {e}");
        std::process::exit(1);
    }
    println!(
        "\nwrote BENCH_stencil.json ({passing}/3 benchmarks beat the {FLOP_BAR_PCT}% rce2 bar)"
    );
    if check && passing < FLOP_BAR_COUNT {
        eprintln!(
            "stencil: FAIL: +rce2 cut executed FLOPs by >= {FLOP_BAR_PCT}% on only {passing} \
             benchmark(s); the bar is {FLOP_BAR_COUNT}"
        );
        std::process::exit(1);
    }
}
