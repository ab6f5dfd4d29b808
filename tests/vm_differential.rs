//! Differential testing of the two execution engines.
//!
//! The bytecode VM is only useful if it is indistinguishable from the
//! reference tree-walking interpreter. For every benchmark at every
//! transformation level this harness asserts that the two engines produce
//!
//! * bitwise-identical scalar results (every scalar, compared by bits so
//!   `-0.0` vs `0.0` or NaN-payload drift cannot hide),
//! * identical [`RunStats`] (points, loads, stores, flops, allocations,
//!   peak bytes), and
//! * an identical memory-access stream as seen by the `machine` crate's
//!   cache simulator (equal hit/miss counters on a real cache geometry).

use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::t3e;
use zpl_fusion::sim::MemSim;

fn outcomes(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: &ConfigBinding,
) -> Vec<(Engine, RunOutcome, zpl_fusion::sim::MemStats)> {
    let m = t3e();
    Engine::all()
        .into_iter()
        .map(|engine| {
            let mut sim = MemSim::new(m.l1, m.l2);
            let mut exec = engine.executor(&opt.scalarized, binding.clone()).unwrap();
            let out = exec.execute(&mut sim).unwrap();
            (engine, out, sim.stats())
        })
        .collect()
}

#[test]
fn engines_agree_on_every_benchmark_at_every_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let rs = outcomes(&opt, &binding);
            let (e0, out0, mem0) = &rs[0];
            for (e, out, mem) in &rs[1..] {
                let ctx = format!("{} at {level}: {e0} vs {e}", bench.name);
                for (i, (a, b)) in out0.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(out0.checksum().to_bits(), out.checksum().to_bits(), "{ctx}");
                assert_eq!(out0.stats, out.stats, "{ctx}: RunStats differ");
                assert_eq!(
                    mem0, mem,
                    "{ctx}: cache simulator saw a different access stream"
                );
            }
        }
    }
}

#[test]
fn vm_par_is_bit_identical_to_interp_at_every_thread_count() {
    // The parallel tiled engine promises results independent of the
    // thread count: tile decomposition is static, reductions never split,
    // and per-tile stats merge in tile order. Sweep 1/2/4 threads against
    // the reference interpreter on every benchmark at every level.
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let mut interp = Engine::Interp
                .executor(&opt.scalarized, binding.clone())
                .unwrap();
            let reference = interp.execute(&mut NoopObserver).unwrap();
            for threads in [1usize, 2, 4] {
                let mut exec = Engine::VmPar
                    .executor_with(
                        &opt.scalarized,
                        binding.clone(),
                        ExecOpts::with_threads(threads),
                    )
                    .unwrap();
                let out = exec.execute(&mut NoopObserver).unwrap();
                let ctx = format!("{} at {level}, {threads} threads", bench.name);
                for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(
                    reference.checksum().to_bits(),
                    out.checksum().to_bits(),
                    "{ctx}"
                );
                assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
            }
        }
    }
}

/// Modeled cost of a tiled run under `threads` workers, in the unit-cost
/// model the repo's machine simulation uses (one unit per load, store,
/// flop and iteration point): the sequential cost with each fanned-out
/// batch replaced by its greedy-schedule critical path,
/// `max(batch_total / threads, max_tile)`. Deterministic on any host.
fn modeled_parallel_cost(serial: u64, tiles: &[TileStats], threads: usize) -> f64 {
    let cost = |t: &TileStats| t.loads + t.stores + t.flops + t.points;
    let (mut tiled, mut parallel) = (0u64, 0.0f64);
    for batch in tiles.chunk_by(|a, b| a.batch == b.batch) {
        let total: u64 = batch.iter().map(cost).sum();
        let max = batch.iter().map(cost).max().unwrap_or(0);
        tiled += total;
        parallel += (total as f64 / threads as f64).max(max as f64);
    }
    (serial - tiled) as f64 + parallel
}

#[test]
fn vm_par_tiles_balance_and_cover_the_work_on_simple() {
    // What tiling can promise without a clock, on SIMPLE at `c2+f3`: the
    // merged stats are the sequential run's at every thread count, ladders
    // do fan out, and `make_tiles` cuts them evenly enough - with enough
    // of the run inside `ParBegin` ladders - that the tile stream's
    // critical path at 4 threads is at most 1/2.5 of the serial cost.
    // Whether that turns into milliseconds is the harness's question
    // (`loopir.exec.vm-par*_cu` on `exec_tiles`).
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, bench.size_config, 48);
    let mut vm = Vm::new(&opt.scalarized, binding).unwrap();
    vm.verify().expect("benchmark bytecode verifies");
    let shared = vm.share();
    let sequential = vm.execute(&mut NoopObserver).unwrap();
    let s = &sequential.stats;
    let serial = s.loads + s.stores + s.flops + s.points;
    for threads in [1usize, 2, 4] {
        let mut vm = Vm::from_shared(&shared);
        vm.set_threads(threads);
        let out = vm.execute(&mut NoopObserver).unwrap();
        assert_eq!(sequential, out, "{threads} threads");
        let tiles = vm.tile_stats();
        assert!(
            !tiles.is_empty(),
            "no ladder fanned out at {threads} threads"
        );
        if threads == 4 {
            let speedup = serial as f64 / modeled_parallel_cost(serial, tiles, threads);
            assert!(
                speedup >= 2.5,
                "modeled critical path at 4 threads is only {speedup:.2}x under serial"
            );
        }
    }
}

#[test]
fn engines_agree_under_dimension_contraction() {
    // The Outer construct takes a different compilation path in the VM;
    // make sure the extension stays bit-identical too.
    for bench in zpl_fusion::workloads::all() {
        let opt = Pipeline::new(Level::C2)
            .with_dimension_contraction()
            .optimize(&bench.program());
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        let n = if bench.rank == 1 { 256 } else { 8 };
        binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
        let rs = outcomes(&opt, &binding);
        let (_, out0, mem0) = &rs[0];
        for (e, out, mem) in &rs[1..] {
            assert_eq!(out0, out, "{} +dim ({e})", bench.name);
            assert_eq!(mem0, mem, "{} +dim ({e}): cache stream", bench.name);
        }
    }
}
