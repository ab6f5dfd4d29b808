//! Differential suite for the `+rce2` offset-lattice redundancy pass.
//!
//! The pass rewrites stencil programs aggressively — materializing shared
//! subexpressions, redirecting statements to shifted reuses, hoisting
//! loop-invariant statements — so this harness sweeps generated
//! stencil-shaped programs and the paper benchmarks through every
//! combination of cleanup suffix and execution engine and insists the
//! checksums stay *bit-identical* to the unoptimized interpreter. A
//! second pass runs the translation validator at `always` and asserts the
//! independent rce2 re-checker accepts every recorded rewrite.

use testkit::{genprog, Rng};
use zlang::ir::{Program, ScalarId};
use zpl_fusion::fusion::request::RunRequest;
use zpl_fusion::fusion::verify::Severity;
use zpl_fusion::prelude::*;

/// Generated stencil programs per sweep.
const PROGRAMS: u64 = 25;

/// The level specs the sweep compares against the reference: the paper's
/// headline level with and without the pass, plus `+rce2` on an unfused
/// level (rewrites survive into unfused scalarization).
const SPECS: [&str; 3] = ["c2+f3", "c2+f3+rce2", "baseline+rce2"];

/// The `c2+f3+rce2` spec.
fn c2f3_rce2() -> LevelSpec {
    "c2+f3+rce2".parse().unwrap()
}

/// The two checksum scalars every generated program declares first.
fn checksums(out: &RunOutcome) -> (u64, u64) {
    (
        out.scalar(ScalarId(0)).to_bits(),
        out.scalar(ScalarId(1)).to_bits(),
    )
}

/// The O0 reference: baseline level, plain interpreter.
fn reference(program: &Program) -> (u64, u64) {
    let opt = Pipeline::new(Level::Baseline).optimize(program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let out = Engine::Interp
        .executor(&opt.scalarized, binding)
        .expect("reference compiles")
        .execute(&mut NoopObserver)
        .expect("reference runs");
    checksums(&out)
}

#[test]
fn stencil_programs_agree_at_every_spec_and_engine() {
    for seed in 0..PROGRAMS {
        let src = genprog::generate_stencil(&mut Rng::new(seed));
        let program = zlang::compile(&src)
            .unwrap_or_else(|e| panic!("seed {seed} generated an invalid program: {e}\n{src}"));
        let expect = reference(&program);
        for spec in SPECS {
            let req = RunRequest::new().with_level_spec(spec).unwrap();
            let opt = req.pipeline().optimize(&program);
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            for engine in Engine::all() {
                let out = engine
                    .executor(&opt.scalarized, binding.clone())
                    .unwrap_or_else(|e| panic!("seed {seed} {spec} {engine}: {e}"))
                    .execute(&mut NoopObserver)
                    .unwrap_or_else(|e| panic!("seed {seed} {spec} {engine}: {e}"));
                assert_eq!(
                    checksums(&out),
                    expect,
                    "seed {seed} at {spec} on {engine} diverged from baseline interp\n{src}"
                );
            }
        }
    }
}

#[test]
fn rce2_rewrites_pass_the_independent_validator() {
    for seed in 0..PROGRAMS {
        let src = genprog::generate_stencil(&mut Rng::new(seed));
        let program = zlang::compile(&src).unwrap();
        let opt = Pipeline::new(c2f3_rce2())
            .with_verify(VerifyLevel::Always)
            .optimize(&program);
        let errors: Vec<_> = opt
            .diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .collect();
        assert!(
            errors.is_empty(),
            "seed {seed}: validator rejected rce2 output: {errors:?}\n{src}"
        );
    }
}

/// The re-checker is only worth its keep if it actually rejects bad
/// records: tamper with genuine rewrites in every way a buggy pass could
/// get wrong — the shift amount, the provider array, the replaced
/// expression — and insist each forgery draws an error.
#[test]
fn validator_rejects_injected_illegal_rewrites() {
    use zpl_fusion::fusion::verify::check_rce2;

    let bench = zpl_fusion::workloads::by_name("tomcatv").unwrap();
    let opt = Pipeline::new(c2f3_rce2()).optimize(&bench.program());
    let info = opt.rce2.as_ref().expect("rce2 ran");
    assert!(!info.rewrites.is_empty(), "tomcatv must yield rewrites");
    assert!(
        check_rce2(&opt.norm, info).is_empty(),
        "genuine records must verify"
    );

    // A wrong shift claims the value lives somewhere it does not.
    let mut tampered = info.clone();
    tampered.rewrites[0].delta[0] += 1;
    assert!(
        !check_rce2(&opt.norm, &tampered).is_empty(),
        "off-by-one delta must be rejected"
    );

    // A wrong provider points the reuse at an unrelated array.
    let mut tampered = info.clone();
    tampered.rewrites[0].provider = zlang::ir::ArrayId(0);
    assert!(
        !check_rce2(&opt.norm, &tampered).is_empty(),
        "wrong provider must be rejected"
    );

    // A forged replaced-expression claims the reuse stands for a value
    // the provider never computed.
    let mut tampered = info.clone();
    let b = tampered.rewrites[0].replaced.clone();
    tampered.rewrites[0].replaced =
        zlang::ir::ArrayExpr::Binary(zlang::ast::BinOp::Add, Box::new(b.clone()), Box::new(b));
    assert!(
        !check_rce2(&opt.norm, &tampered).is_empty(),
        "forged replaced expression must be rejected"
    );

    // A hoist record naming a statement that was never hoisted.
    let mut tampered = info.clone();
    tampered.hoists.push(zpl_fusion::fusion::rce2::Rce2Hoist {
        landing_block: 0,
        landing_stmt: 0,
        array: zlang::ir::ArrayId(0),
        orig_block: 0,
        orig_index: 0,
    });
    assert!(
        !check_rce2(&opt.norm, &tampered).is_empty(),
        "fabricated hoist must be rejected"
    );
}

#[test]
fn benchmarks_agree_at_every_level_with_rce2() {
    for name in ["tomcatv", "simple", "sp"] {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let program = bench.program();
        let n = match bench.rank {
            1 => 128,
            2 => 10,
            _ => 5,
        };
        let expect = {
            let opt = Pipeline::new(Level::Baseline).optimize(&program);
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let out = Engine::Interp
                .executor(&opt.scalarized, binding)
                .unwrap()
                .execute(&mut NoopObserver)
                .unwrap();
            out.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        };
        for level in Level::all() {
            let spec = LevelSpec {
                rce2: true,
                ..level.into()
            };
            let opt = Pipeline::new(spec).optimize(&program);
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            for engine in Engine::all() {
                let out = engine
                    .executor(&opt.scalarized, binding.clone())
                    .unwrap()
                    .execute(&mut NoopObserver)
                    .unwrap();
                let got: Vec<u64> = out.scalars.iter().map(|s| s.to_bits()).collect();
                assert_eq!(
                    got, expect,
                    "{name} at {level}+rce2 on {engine} diverged from baseline interp"
                );
            }
        }
    }
}

/// The supervised path compiles what the request says, not a copy of some
/// of its fields: at every cleanup combination, on every engine, a
/// supervised Tomcatv run returns exactly the `RunStats` (and scalars) of
/// the cache's `get_or_compile` + `executor` + `execute` for the same
/// request, and `+rce2` shows up in it as strictly fewer executed flops.
#[test]
fn supervised_runs_execute_the_requested_spec() {
    use zpl_fusion::fusion::CompileCache;

    let bench = zpl_fusion::workloads::by_name("tomcatv").unwrap();
    let program = bench.program();
    let flops_at = |spec: &str, engine: Engine| {
        let req = RunRequest::new()
            .with_level_spec(spec)
            .unwrap()
            .with_engine(engine)
            .with_set(bench.size_config, 12);
        let (cached, _) = CompileCache::new().get_or_compile(&program, &req).unwrap();
        let direct = cached
            .executor(req.exec_opts())
            .execute(&mut NoopObserver)
            .unwrap();
        let run = req.supervisor().run_program(&program).unwrap();
        assert!(!run.report.degraded(), "{}", run.report.render());
        assert_eq!(run.report.final_spec.to_string(), spec);
        assert_eq!(run.outcome.stats, direct.stats, "{spec} on {engine}");
        assert_eq!(run.outcome, direct, "{spec} on {engine}");
        direct.stats.flops
    };
    for spec in SPECS {
        for engine in Engine::all() {
            flops_at(spec, engine);
        }
    }
    assert!(flops_at("c2+f3+rce2", Engine::Vm) < flops_at("c2+f3", Engine::Vm));
}

/// What the pass records on each paper benchmark at `c2+f3+rce2`:
/// rewrites / temporaries / hoists. EP and Frac have nothing to share.
#[test]
fn rce2_records_are_pinned_on_the_paper_benchmarks() {
    let pinned = [
        ("tomcatv", (10, 5, 0)),
        ("sp", (47, 22, 0)),
        ("simple", (7, 2, 0)),
        ("fibro", (8, 2, 0)),
        ("ep", (0, 0, 0)),
        ("frac", (0, 0, 0)),
    ];
    assert_eq!(pinned.len(), zpl_fusion::workloads::all().len());
    for (name, counts) in pinned {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let opt = Pipeline::new(c2f3_rce2()).optimize(&bench.program());
        let info = opt.rce2.as_ref().expect("rce2 ran");
        assert_eq!(
            (info.rewrites.len(), info.temps.len(), info.hoists.len()),
            counts,
            "{name}: rewrites / temps / hoists"
        );
    }
}

/// The trade the pass makes on SP at n = 32, to the count (`RunStats` is
/// deterministic and the same on every engine): 15.1% fewer flops and
/// 13.0% fewer loads for 51% more stores and sixteen more arrays that
/// outlive contraction. This replaces the `stencil --check` flop bar
/// (">= 15% on one benchmark"), and is the guard that nothing outside
/// the pass changed what it emits.
#[test]
fn sp_flop_cut_and_its_price_are_pinned() {
    let bench = zpl_fusion::workloads::by_name("sp").unwrap();
    let program = bench.program();
    let run = |pipeline: Pipeline| {
        let opt = pipeline.optimize(&program);
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, bench.size_config, 32);
        let stats = Engine::VmSimd
            .executor(&opt.scalarized, binding)
            .unwrap()
            .execute(&mut NoopObserver)
            .unwrap()
            .stats;
        (stats.flops, stats.loads, stats.stores, opt.report.after())
    };
    assert_eq!(
        run(Pipeline::new(Level::C2F3)),
        (21_415_792, 15_609_936, 2_254_016, 32),
        "c2+f3: flops, loads, stores, arrays after"
    );
    assert_eq!(
        run(Pipeline::new(c2f3_rce2())),
        (18_174_896, 13_584_592, 3_404_032, 48),
        "c2+f3+rce2: flops, loads, stores, arrays after"
    );
}
