//! Differential suite for the two-tier ISA: superinstruction bytecode
//! with lane-based innermost-loop dispatch.
//!
//! The `vm-simd` and `vm-par` engines run a different instruction stream
//! from the scalar engines — the post-compile peephole collapses fused
//! element-wise chains into superinstructions and annotates provably
//! vectorizable innermost loops, which the dispatch loop then executes
//! in strips of consecutive iterations, op-major, the last strip cut to
//! what is left of the range. None of that may be observable: this
//! harness sweeps generated random and stencil-shaped programs (the
//! `testkit::genprog` generators) across strip widths 0 (the default),
//! 1, 2, 3, 8 and 64 and every engine, and insists every scalar stays
//! *bit-identical* to the unoptimized reference interpreter, with
//! identical execution counters. A second pass drives the same sweep
//! through the paper benchmarks at every level.

use testkit::{genprog, Rng};
use zlang::ir::{Program, ScalarId};
use zpl_fusion::prelude::*;

/// Generated programs per generator per sweep.
const PROGRAMS: u64 = 15;

/// The strip widths under test: the default (0 = 64), scalar dispatch
/// over superinstruction bytecode (1), the alias-cap boundary (2), a width
/// that divides no power of two (3, so most last strips are partial), the
/// old maximum (8), and the default spelled out (64, wider than most of
/// the generated extents, so the extent is what caps the strip).
const LANES: [usize; 6] = [0, 1, 2, 3, 8, 64];

/// The two checksum scalars every generated program declares first.
fn checksums(out: &RunOutcome) -> (u64, u64) {
    (
        out.scalar(ScalarId(0)).to_bits(),
        out.scalar(ScalarId(1)).to_bits(),
    )
}

/// The reference: the tree-walking interpreter on the same optimized
/// program (the optimizer is common to every engine; only execution is
/// under test here).
fn run(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: &ConfigBinding,
    engine: Engine,
    lanes: usize,
) -> RunOutcome {
    engine
        .executor_with(
            &opt.scalarized,
            binding.clone(),
            ExecOpts::with_lanes(lanes),
        )
        .unwrap_or_else(|e| panic!("{engine} x{lanes} refused to construct: {e}"))
        .execute(&mut NoopObserver)
        .unwrap_or_else(|e| panic!("{engine} x{lanes} failed: {e}"))
}

fn sweep(source: &str, ctx: &str) {
    let program: Program =
        zlang::compile(source).unwrap_or_else(|e| panic!("{ctx}: invalid program: {e}\n{source}"));
    let opt = Pipeline::new(Level::C2F3).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let reference = run(&opt, &binding, Engine::Interp, 1);
    let expect = checksums(&reference);
    for engine in Engine::all() {
        for lanes in LANES {
            let out = run(&opt, &binding, engine, lanes);
            assert_eq!(
                checksums(&out),
                expect,
                "{ctx}: {engine} x{lanes} diverged from interp\n{source}"
            );
            assert_eq!(
                out.stats, reference.stats,
                "{ctx}: {engine} x{lanes} counters differ\n{source}"
            );
        }
    }
}

#[test]
fn random_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate(&mut Rng::new(seed));
        sweep(&source, &format!("random seed {seed}"));
    }
}

#[test]
fn stencil_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate_stencil(&mut Rng::new(seed));
        sweep(&source, &format!("stencil seed {seed}"));
    }
}

#[test]
fn benchmarks_are_bit_identical_at_every_lane_width_and_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 256,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let reference = run(&opt, &binding, Engine::Interp, 1);
            for engine in [Engine::VmSimd, Engine::VmPar] {
                for lanes in LANES {
                    let out = run(&opt, &binding, engine, lanes);
                    let ctx = format!("{} at {level}: {engine} x{lanes}", bench.name);
                    for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{ctx}: scalar {i} differs ({a} vs {b})"
                        );
                    }
                    assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
                }
            }
        }
    }
}

#[test]
fn cache_simulation_sees_the_scalar_access_stream() {
    // Under an observer that consumes per-element addresses the lane path
    // must stand down entirely, so the cache simulator sees exactly the
    // access stream the scalar engines produce.
    use zpl_fusion::sim::presets::t3e;
    use zpl_fusion::sim::MemSim;
    let source = genprog::generate_stencil(&mut Rng::new(7));
    let program = zlang::compile(&source).unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let m = t3e();
    let mut stats = Vec::new();
    for engine in [Engine::Vm, Engine::VmSimd] {
        let mut sim = MemSim::new(m.l1, m.l2);
        let mut exec = engine
            .executor_with(&opt.scalarized, binding.clone(), ExecOpts::with_lanes(8))
            .unwrap();
        exec.execute(&mut sim).unwrap();
        stats.push(sim.stats());
    }
    assert_eq!(
        stats[0], stats[1],
        "vm-simd changed the observed access stream under the cache simulator"
    );
}
