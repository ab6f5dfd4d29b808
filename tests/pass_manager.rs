//! Integration tests for the optimizer driver: the schedule each level
//! spec runs, analysis caching, trace instrumentation, where the
//! translation validator runs, and the `+rce2` cleanup pass.

use zpl_fusion::fusion::pass::PassId;
use zpl_fusion::fusion::pipeline::Optimized;
use zpl_fusion::fusion::verify;
use zpl_fusion::prelude::*;

/// `level` with the `+rce2` cleanup pass on.
fn rce2(level: Level) -> LevelSpec {
    LevelSpec {
        rce2: true,
        ..level.into()
    }
}

fn outputs(pipeline: &Pipeline, program: &zlang::ir::Program) -> Vec<f64> {
    let opt = pipeline.optimize(program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let mut exec = Engine::default()
        .executor(&opt.scalarized, binding)
        .unwrap();
    exec.execute(&mut NoopObserver).expect("executes").scalars
}

/// The paper levels never invalidate analyses, so the optimizer must
/// build exactly one ASDG per basic block — even with the translation
/// validator re-checking every stage.
#[test]
fn asdg_built_once_per_block_at_every_level() {
    for bench in zpl_fusion::workloads::all() {
        let program = bench.program();
        for level in Level::all() {
            for verify in [VerifyLevel::Off, VerifyLevel::Always] {
                let opt = Pipeline::new(level).with_verify(verify).optimize(&program);
                assert_eq!(
                    opt.asdg_builds,
                    opt.norm.blocks.len(),
                    "{} at {level} (verify {verify:?}): ASDG rebuilt",
                    bench.name
                );
            }
        }
    }
}

/// Every run logs one trace per scheduled pass, in schedule order, with
/// monotone non-increasing statement counts (no pass adds statements).
#[test]
fn traces_cover_the_schedule_in_order() {
    for bench in zpl_fusion::workloads::all() {
        let name = bench.name;
        let schedule = |opt: &Optimized| opt.passes.iter().map(|t| t.id).collect::<Vec<_>>();
        let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
        let ids = schedule(&opt);
        assert_eq!(ids.first(), Some(&PassId::Normalize), "{name}");
        let pos = |id| {
            ids.iter()
                .position(|&i| i == id)
                .unwrap_or_else(|| panic!("{name}: {id} not scheduled"))
        };
        assert!(pos(PassId::FuseContraction) < pos(PassId::Contract));
        assert!(pos(PassId::Contract) < pos(PassId::FindLoopStructure));
        assert!(pos(PassId::FindLoopStructure) < pos(PassId::Scalarize));
        // The validator did not run (`VerifyLevel::Off`), so scalarize is
        // the last row: `passes` carries no `verify::*` row.
        assert_eq!(ids.last(), Some(&PassId::Scalarize), "{name}");
        // Paper levels never schedule the cleanup pass.
        assert!(!ids.contains(&PassId::Rce2));
        let stmts: Vec<usize> = opt.passes.iter().map(|t| t.stmts).collect();
        assert!(stmts.windows(2).all(|w| w[0] >= w[1]), "{name}: {stmts:?}");
        assert!(opt.passes.iter().any(|t| t.changed), "{name}");
        // The schedule is a function of the program and the level: a
        // second run neither adds nor drops a pass.
        let again = Pipeline::new(Level::C2F3).optimize(&bench.program());
        assert_eq!(ids, schedule(&again), "{name}: schedule drifted");
    }
}

const RCE2_SRC: &str = "program rce2test; config n : int = 8; \
                        region RH = [0..n, 0..n]; region R = [1..n-1, 1..n-1]; \
                        direction e = [0, 1]; direction w = [0, -1]; \
                        var U : [RH] float; var F, G : [R] float; var s : float; begin \
                        [RH] U := index1 * 2.0 + index2; \
                        [R] F := (U@e - U) * 0.5; \
                        [R] G := (U - U@w) * 0.5; \
                        s := +<< [R] (F + G); end";

/// `+rce2` materializes the shared flux-pair subexpression once and turns
/// both statements into shifted reuses; the paper levels recompute; the
/// observable output is identical, and the validator (which re-checks
/// the recorded rewrites) is clean.
#[test]
fn rce2_materializes_stencil_overlap_paper_levels_recompute() {
    let program = zlang::compile(RCE2_SRC).unwrap();
    for level in [Level::Baseline, Level::C2, Level::C2F3] {
        let cleaned = Pipeline::new(rce2(level))
            .with_emit(PassId::Rce2)
            .with_verify(VerifyLevel::Always)
            .optimize(&program);
        let snap = cleaned.emitted.as_deref().unwrap();
        assert!(
            snap.contains("rce2: 2 rewrite(s), 1 temp(s)"),
            "{level}+rce2 must materialize the flux pair once:\n{snap}"
        );
        assert!(
            cleaned.diagnostics.is_empty(),
            "{level}+rce2 validator findings: {:?}",
            cleaned.diagnostics
        );
        let info = cleaned.rce2.as_ref().expect("rce2 info recorded");
        assert_eq!(info.rewrites.len(), 2);
        assert!(cleaned.passes.iter().any(|t| t.id == PassId::Rce2));
        assert_eq!(cleaned.diagnostics, verify::validate(&cleaned));
        assert_eq!(
            outputs(&Pipeline::new(level), &program),
            outputs(&Pipeline::new(rce2(level)), &program),
            "{level}: rce2 changed observable behavior"
        );
    }
    // Paper levels do not schedule rce2.
    let plain = Pipeline::new(Level::C2F3)
        .with_verify(VerifyLevel::Always)
        .optimize(&program);
    assert!(plain.passes.iter().all(|t| t.id != PassId::Rce2));
    assert!(plain.rce2.is_none());
}

/// The translation validator runs once, over the finished result, and only
/// when the `VerifyLevel` gate says so: `diagnostics` is exactly what
/// `verify::validate` returns for that result, and `passes` carries a
/// `verify::*` row (one, after `scalarize`) only when it ran.
#[test]
fn validator_runs_once_on_the_result_when_the_gate_says_so() {
    let verify_rows = |opt: &Optimized| {
        let rows = opt.passes.iter().map(|t| t.id.name());
        rows.filter(|n| n.starts_with("verify::")).count()
    };
    for bench in zpl_fusion::workloads::all() {
        let program = bench.program();
        for level in Level::all() {
            for dim in [false, true] {
                let spec = LevelSpec {
                    dim,
                    ..level.into()
                };
                let pipeline = |verify| Pipeline::new(spec).with_verify(verify);
                let what = format!("{} at {spec}", bench.name);
                let opt = pipeline(VerifyLevel::Always).optimize(&program);
                assert_eq!(opt.diagnostics, verify::validate(&opt), "{what}");
                assert_eq!(verify_rows(&opt), 1, "{what}");
                assert_ne!(opt.passes.last().unwrap().id, PassId::Scalarize, "{what}");
                let opt = pipeline(VerifyLevel::Off).optimize(&program);
                assert_eq!(verify_rows(&opt), 0, "{what}, verify off");
                assert!(opt.diagnostics.is_empty(), "{what}, verify off");
            }
        }
    }
}

/// The cleanup pass starts a new mutation epoch when it changes something:
/// the ASDGs are built once afterwards — over the rewritten statements —
/// and exactly once.
#[test]
fn cleanup_passes_invalidate_then_rebuild_once() {
    let program = zlang::compile(RCE2_SRC).unwrap();
    let opt = Pipeline::new(rce2(Level::C2F3)).optimize(&program);
    let rce2 = opt.passes.iter().find(|t| t.id == PassId::Rce2).unwrap();
    assert!(rce2.changed);
    assert_eq!(opt.asdg_builds, opt.norm.blocks.len());
    // The graphs fusion consumed describe the post-rewrite program: the
    // materialization temporary is a statement of its block.
    let plain = Pipeline::new(Level::C2F3).optimize(&program);
    let stmts = |o: &Optimized| o.details.iter().map(|d| d.asdg.n).sum::<usize>();
    assert_eq!(stmts(&opt), stmts(&plain) + 1);
}

/// `with_emit` captures a snapshot after the requested pass and leaves
/// `emitted` empty when the pass is not in the schedule.
#[test]
fn emit_snapshot_presence() {
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let program = bench.program();
    let opt = Pipeline::new(Level::C2F3)
        .with_emit(PassId::Normalize)
        .optimize(&program);
    let snap = opt.emitted.expect("normalize always runs");
    assert!(snap.starts_with("// after normalize\n"), "{snap}");
    let opt = Pipeline::new(Level::C2F3)
        .with_emit(PassId::Rce2)
        .optimize(&program);
    assert!(
        opt.emitted.is_none(),
        "rce2 is not scheduled at paper levels"
    );
}

/// The schedule, pinned: the transformation passes each level runs, in
/// order, written out. The `+rce2` suffix slots in after `normalize`,
/// `+dim` after `contract`.
/// The translation validator's `verify::*` rows are not transformations
/// and are ignored here.
#[test]
fn schedule_is_a_function_of_the_level_spec() {
    use PassId::*;
    let levels: [(Level, &[PassId]); 8] = [
        (Level::Baseline, &[]),
        (Level::F1, &[FuseContraction]),
        (Level::C1, &[FuseContraction]),
        (Level::F2, &[FuseContraction]),
        (Level::F3, &[FuseContraction, FuseLocality]),
        (Level::C2, &[FuseContraction]),
        (Level::C2F3, &[FuseContraction, FuseLocality]),
        (Level::C2F4, &[FuseContraction, FuseLocality, FusePairwise]),
    ];
    let transformations = |opt: &Optimized| -> Vec<PassId> {
        opt.passes
            .iter()
            .map(|t| t.id)
            .filter(|id| !id.name().starts_with("verify"))
            .collect()
    };
    let program = zpl_fusion::workloads::by_name("tomcatv").unwrap().program();
    for (level, fusion) in levels {
        for rce2 in [false, true] {
            for dim in [false, true] {
                let mut expected = vec![Normalize];
                if rce2 {
                    expected.push(Rce2);
                }
                expected.extend_from_slice(fusion);
                expected.push(Contract);
                if dim {
                    expected.push(DimContract);
                }
                expected.extend([FindLoopStructure, Scalarize]);
                let spec = LevelSpec { level, rce2, dim };
                assert_eq!(
                    transformations(&Pipeline::new(spec).optimize(&program)),
                    expected,
                    "{spec}"
                );
            }
        }
    }
}
