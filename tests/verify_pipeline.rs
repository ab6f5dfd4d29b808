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
use zpl_fusion::fusion::verify::{self, Severity};
use zpl_fusion::prelude::*;

#[test]
fn validator_is_clean_on_all_benchmarks_at_all_levels() {
    for bench in zpl_fusion::workloads::all() {
        for level in Level::all() {
            for dim in [false, true] {
                let mut p = Pipeline::new(level).with_verify(VerifyLevel::Always);
                if dim {
                    p = p.with_dimension_contraction();
                }
                let opt = p.optimize(&bench.program());
                assert!(
                    opt.diagnostics.is_empty(),
                    "{} at {level}{}: {:?}",
                    bench.name,
                    if dim { " +dim" } else { "" },
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

#[test]
fn bytecode_verifier_accepts_every_benchmark_configuration() {
    for bench in zpl_fusion::workloads::all() {
        let n = if bench.rank == 1 { 64 } else { 8 };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let mut vm = Vm::new(&opt.scalarized, binding).unwrap();
            let r = vm.verify();
            assert!(r.is_ok(), "{} at {level}: {:?}", bench.name, r.err());
            assert!(vm.is_verified());
        }
    }
}
