//! Translation validation over the whole pipeline.
//!
//! Runs the independent re-checkers of `fusion_core::verify` over every
//! benchmark at every optimization level (the paper's Section 5.4 sweep)
//! and asserts a clean bill; then corrupts a pipeline result on purpose
//! and asserts the validator localizes the damage and names the violated
//! paper definition. The compiled bytecode of every configuration must
//! also pass the `loopir` bytecode verifier, the gate for lane and tile
//! fan-out.

use std::collections::BTreeSet;
use testkit::{genprog, Rng};
use zlang::ir::Program;
use zpl_fusion::fusion::verify::{self, Severity};
use zpl_fusion::prelude::*;

#[test]
fn validator_is_clean_on_all_benchmarks_at_all_levels() {
    for bench in zpl_fusion::workloads::all() {
        for level in Level::all() {
            for dim in [false, true] {
                let spec = LevelSpec {
                    dim,
                    ..level.into()
                };
                let opt = Pipeline::new(spec)
                    .with_verify(VerifyLevel::Always)
                    .optimize(&bench.program());
                assert!(
                    opt.diagnostics.is_empty(),
                    "{} at {spec}: {:?}",
                    bench.name,
                    opt.diagnostics
                );
            }
        }
    }
}

#[test]
fn verify_off_reports_nothing_on_clean_programs() {
    let bench = &zpl_fusion::workloads::all()[0];
    let opt = Pipeline::new(Level::C2)
        .with_verify(VerifyLevel::Off)
        .optimize(&bench.program());
    assert!(opt.diagnostics.is_empty(), "{:?}", opt.diagnostics);
}

/// Corrupting the final partition — fusing two clusters the pipeline kept
/// apart — must produce an error diagnostic citing Definition 5.
#[test]
fn injected_illegal_fusion_names_the_violated_definition() {
    let program = zpl_fusion::lang::compile(
        "program bad;
         config n : int = 8;
         region R = [1..n, 1..n];
         region S = [1..n];
         var A, B : [R] float;
         var U, V : [S] float;
         begin
           [R] B := A + A;
           [S] V := U + U;
         end",
    )
    .unwrap();
    let opt = Pipeline::new(Level::C2)
        .with_verify(VerifyLevel::Always)
        .optimize(&program);
    assert!(opt.diagnostics.is_empty(), "{:?}", opt.diagnostics);

    // Fuse the R-statement's cluster with the S-statement's cluster: the
    // regions do not conform, so the merged cluster is illegal.
    let mut bad = opt.clone();
    let detail = &mut bad.details[0];
    let c0 = detail.partition.cluster_of(0);
    let c1 = detail.partition.cluster_of(1);
    assert_ne!(c0, c1, "pipeline should not have fused across regions");
    detail.partition.merge(&BTreeSet::from([c0, c1]));

    let diags = verify::validate(&bad);
    let err = diags
        .iter()
        .find(|d| d.severity == Severity::Error)
        .unwrap_or_else(|| panic!("expected an error diagnostic, got {diags:?}"));
    assert!(
        err.render().contains("Definition 5"),
        "diagnostic should cite Definition 5 (legal fusion partitions): {}",
        err.render()
    );
}

/// The verifier's precision over a corpus: every stream the compiler
/// emits - plain and superfused, for the six paper benchmarks and 32
/// generated programs at three sizes and every level spec - must verify.
/// A proof that lost precision would otherwise surface only as lanes and
/// tiles standing down.
#[test]
fn bytecode_verifier_accepts_every_benchmark_configuration() {
    let mut programs: Vec<(String, Program, &str)> = zpl_fusion::workloads::all()
        .iter()
        .map(|b| (b.name.to_string(), b.program(), b.size_config))
        .collect();
    for seed in 0..16 {
        for (kind, source) in [
            ("random", genprog::generate(&mut Rng::new(seed))),
            ("stencil", genprog::generate_stencil(&mut Rng::new(seed))),
        ] {
            let program = zpl_fusion::lang::compile(&source).unwrap();
            programs.push((format!("{kind} seed {seed}"), program, "n"));
        }
    }
    for (name, program, size_config) in &programs {
        for level in Level::all() {
            for rce2 in [false, true] {
                let spec = LevelSpec {
                    rce2,
                    ..level.into()
                };
                let opt = Pipeline::new(spec).optimize(program);
                let sp = &opt.scalarized;
                for n in [4, 5, 13] {
                    let mut binding = ConfigBinding::defaults(&sp.program);
                    binding.set_by_name(&sp.program, size_config, n);
                    for superfused in [false, true] {
                        let mut vm = if superfused {
                            Vm::new_superfused(sp, binding.clone())
                        } else {
                            Vm::new(sp, binding.clone())
                        }
                        .unwrap();
                        let r = vm.verify();
                        assert!(
                            r.is_ok(),
                            "{name} at {level}{} n={n}{}: {:?}",
                            if rce2 { "+rce2" } else { "" },
                            if superfused { " superfused" } else { "" },
                            r.err()
                        );
                        assert!(vm.is_verified());
                    }
                }
            }
        }
    }
}
