//! Parallel tiled execution benchmark: speedup vs thread count.
//!
//! Runs SIMPLE and SP at large problem sizes through the `c2+f3` pipeline
//! on the verified sequential VM (the baseline), the parallel tiled VM at
//! 1/2/4 threads, the superinstruction/lane engine (`vm-simd`), and the
//! simd × tiling composition (`vm-par` with lanes) at the same thread
//! counts, asserting bit-identical checksums throughout, and writes
//! `BENCH_parallel.json`. The original fields are unchanged; the lane
//! rows ride along as `vm_simd_wall_ms` and `simd_wall_ms`.
//!
//! The headline **speedup** figure is *modeled from the per-tile stats
//! stream* ([`Vm::tile_stats`]), in the same spirit as the repo's machine
//! simulation: each operation (load, store, flop, iteration point) costs
//! one unit; the sequential run costs the [`RunStats`] total; a parallel
//! run replaces each fanned-out ladder's cost with its critical path
//! under `t` workers — `max(batch_total / t, max_tile)` per batch, the
//! classic greedy-scheduling bound. This keeps the number deterministic
//! and meaningful on any CI host (including single-core runners, where
//! raw wall-clock can show no parallel speedup at all). Wall-clock times
//! are included as auxiliary fields.
//!
//! ```text
//! parallel [--rounds N]
//! ```

use fusion_core::pipeline::{Level, Pipeline};
use loopir::{NoopObserver, RunOutcome, RunStats, TileStats, Vm};
use std::fmt::Write as _;
use std::time::Instant;
use zlang::ir::ConfigBinding;

const THREADS: [usize; 3] = [1, 2, 4];
const DEFAULT_ROUNDS: usize = 3;

fn usage() -> ! {
    eprintln!("usage: parallel [--rounds N]");
    std::process::exit(2);
}

/// Unit cost of a run: every counted operation costs one.
fn unit_cost(s: &RunStats) -> u64 {
    s.loads + s.stores + s.flops + s.points
}

fn tile_cost(t: &TileStats) -> u64 {
    t.loads + t.stores + t.flops + t.points
}

/// Modeled parallel cost: the sequential cost with each fanned-out batch
/// replaced by its greedy-schedule critical path under `threads` workers.
fn modeled_parallel_cost(serial: u64, tiles: &[TileStats], threads: usize) -> f64 {
    let mut tiled_total = 0u64;
    let mut parallel = 0.0f64;
    let mut batch_start = 0;
    while batch_start < tiles.len() {
        let batch = tiles[batch_start].batch;
        let mut end = batch_start;
        while end < tiles.len() && tiles[end].batch == batch {
            end += 1;
        }
        let costs: Vec<u64> = tiles[batch_start..end].iter().map(tile_cost).collect();
        let total: u64 = costs.iter().sum();
        let max = costs.iter().copied().max().unwrap_or(0);
        tiled_total += total;
        parallel += (total as f64 / threads as f64).max(max as f64);
        batch_start = end;
    }
    (serial - tiled_total) as f64 + parallel
}

struct Config {
    bench: &'static str,
    n: i64,
}

/// SIMPLE at n=256 (rank 2: 256x256 points per array) and SP at n=24
/// (rank 3) — large enough that the fused ladders dominate the run.
const CONFIGS: [Config; 2] = [
    Config {
        bench: "simple",
        n: 256,
    },
    Config { bench: "sp", n: 24 },
];

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

/// Runs the shared compiled program `rounds` times, a fresh [`Vm`] per
/// round (VM counters accumulate across runs on one instance; the shared
/// handle makes per-round instances compile-free). Returns the last
/// round's outcome and tile stream plus the median wall-clock.
fn timed(
    shared: &loopir::SharedProgram,
    threads: Option<usize>,
    lanes: usize,
    rounds: usize,
) -> (RunOutcome, Vec<TileStats>, f64) {
    use loopir::Executor as _;
    let mut last = None;
    let mut times = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let mut vm = Vm::from_shared(shared);
        if let Some(t) = threads {
            vm.set_threads(t);
        }
        if lanes > 0 {
            vm.set_lanes(lanes);
        }
        let started = Instant::now();
        let out = vm
            .execute(&mut NoopObserver)
            .expect("benchmark runs cleanly");
        times.push(started.elapsed().as_secs_f64() * 1e3);
        last = Some((out, vm.tile_stats().to_vec()));
    }
    let (out, tiles) = last.expect("rounds >= 1");
    (out, tiles, median(times))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut rounds = DEFAULT_ROUNDS;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rounds" => {
                rounds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
    }

    let level = Level::C2F3;
    let mut bench_objects = Vec::new();
    let mut simple_speedup_at_4 = 0.0f64;
    println!("parallel tiled execution at {level} ({rounds} rounds, median wall-clock)");
    for cfg in CONFIGS {
        let b = benchmarks::by_name(cfg.bench).expect("known benchmark");
        let opt = Pipeline::new(level).optimize(&b.program());
        let sp = &opt.scalarized;
        let mut binding = ConfigBinding::defaults(&sp.program);
        binding.set_by_name(&sp.program, b.size_config, cfg.n);

        // Compile + verify once; every run shares the immutable program.
        let mut first = Vm::new(sp, binding.clone()).expect("benchmark compiles to bytecode");
        first.verify().expect("benchmark bytecode verifies");
        let shared = first.share();

        // The superinstruction/lane tier over the same source program:
        // compiled through the post-compile peephole, verified (including
        // the simd_structure phase), and shared just like the scalar
        // stream.
        let mut sfirst =
            Vm::new_superfused(sp, binding.clone()).expect("benchmark superfuses to bytecode");
        sfirst.verify().expect("superfused bytecode verifies");
        let sshared = sfirst.share();

        // Baseline: the verified sequential VM.
        let (base_out, _, base_ms) = timed(&shared, None, 0, rounds);
        let serial = unit_cost(&base_out.stats);
        println!(
            "\n{:8} n={:4}  vm         : cost {serial:>12}  {base_ms:8.2} ms",
            b.name, cfg.n
        );

        // vm-simd: lane dispatch, sequential.
        let (simd_out, _, simd_ms) = timed(&sshared, None, 8, rounds);
        assert_eq!(
            base_out.checksum().to_bits(),
            simd_out.checksum().to_bits(),
            "{}: vm-simd drifted from the sequential VM",
            b.name
        );
        println!(
            "           vm-simd    : {simd_ms:8.2} ms ({:.2}x vm)",
            base_ms / simd_ms
        );

        let mut thread_objects = Vec::new();
        for threads in THREADS {
            let (out, tiles, wall_ms) = timed(&shared, Some(threads), 0, rounds);
            assert_eq!(
                base_out.checksum().to_bits(),
                out.checksum().to_bits(),
                "{} at {threads} threads drifted from the sequential VM",
                b.name
            );
            assert_eq!(
                base_out.stats, out.stats,
                "{}: merged stats drifted",
                b.name
            );
            assert!(
                !tiles.is_empty(),
                "{}: no ladder fanned out at {threads} threads",
                b.name
            );
            let parallel = modeled_parallel_cost(serial, &tiles, threads);
            let speedup = serial as f64 / parallel;
            if b.name == "simple" && threads == 4 {
                simple_speedup_at_4 = speedup;
            }

            // vm-par + simd: the same tile fan-out with lane dispatch in
            // each tile's innermost loops.
            let (sout, _, simd_wall_ms) = timed(&sshared, Some(threads), 8, rounds);
            assert_eq!(
                base_out.checksum().to_bits(),
                sout.checksum().to_bits(),
                "{} at {threads} threads + lanes drifted from the sequential VM",
                b.name
            );

            println!(
                "           {threads} threads: {:5} tiles, modeled speedup {speedup:5.2}x, \
                 {wall_ms:8.2} ms ({simd_wall_ms:8.2} ms with lanes)",
                tiles.len()
            );
            thread_objects.push(format!(
                "{{\"threads\": {threads}, \"tiles\": {}, \"modeled_parallel_cost\": \
                 {parallel:.1}, \"modeled_speedup\": {speedup:.4}, \"wall_ms\": {wall_ms:.4}, \
                 \"simd_wall_ms\": {simd_wall_ms:.4}}}",
                tiles.len()
            ));
        }
        let mut obj = String::new();
        let _ = write!(
            obj,
            "    {{\n      \"name\": \"{}\",\n      \"n\": {},\n      \
             \"serial_unit_cost\": {serial},\n      \"baseline_wall_ms\": {base_ms:.4},\n      \
             \"vm_simd_wall_ms\": {simd_ms:.4},\n      \
             \"threads\": [\n        {}\n      ]\n    }}",
            b.name,
            cfg.n,
            thread_objects.join(",\n        ")
        );
        bench_objects.push(obj);
    }

    // The acceptance bar this bench exists to demonstrate: the tiled
    // engine's modeled critical path at 4 threads beats the sequential
    // verified VM by at least 2.5x on SIMPLE.
    assert!(
        simple_speedup_at_4 >= 2.5,
        "SIMPLE modeled speedup at 4 threads is {simple_speedup_at_4:.2}x, expected >= 2.5x"
    );

    let json = format!(
        "{{\n  \"bench\": \"parallel\",\n  \"level\": \"{level}\",\n  \"rounds\": {rounds},\n  \
         \"cost_model\": \"unit cost per load/store/flop/point; parallel cost per batch is \
         max(total/threads, max_tile)\",\n  \"benchmarks\": [\n{}\n  ]\n}}\n",
        bench_objects.join(",\n")
    );
    if let Err(e) = std::fs::write("BENCH_parallel.json", &json) {
        eprintln!("parallel: cannot write BENCH_parallel.json: {e}");
        std::process::exit(1);
    }
    println!("\nwrote BENCH_parallel.json");
}
