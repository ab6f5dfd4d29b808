//! Loop-structure legality of the emitted nests (Definition 4).
//!
//! The scalarizer stamps every [`LoopNest`] with the cluster it implements;
//! this checker re-associates each nest with its source block by walking
//! the control-flow skeleton the same way [`crate::pipeline`]'s splice
//! does, then re-checks, per nest, that
//!
//! * the referenced cluster is live in the block's final partition and the
//!   cluster's statements iterate the nest's region;
//! * the structure vector is a signed permutation of `1..=rank`
//!   (Definition 4's well-formedness); and
//! * every intra-cluster dependence UDV is preserved — constraining it by
//!   the structure yields a lexicographically non-negative distance vector.
//!
//! Nests under an [`LStmt::Outer`] loop (the dimension-contraction
//! extension) carry partial structures that deliberately omit the shared
//! outer dimension; for those only well-formedness of the remaining
//! entries is checked.

use super::{Diagnostic, Stage};
use crate::asdg::VarLabel;
use crate::normal::NStmt;
use crate::pipeline::Optimized;
use loopir::ir::{is_valid_structure, LStmt, LoopNest};

struct Found<'a> {
    block: usize,
    under_outer: bool,
    nest: &'a LoopNest,
}

fn collect_nests<'a>(s: &'a LStmt, block: usize, under_outer: bool, out: &mut Vec<Found<'a>>) {
    match s {
        LStmt::Nest(n) => out.push(Found {
            block,
            under_outer,
            nest: n,
        }),
        LStmt::Outer { body, .. } => {
            for inner in body {
                collect_nests(inner, block, true, out);
            }
        }
        _ => {}
    }
}

/// Walks the normalized skeleton and the scalarized statement list in
/// lockstep (the inverse of the pipeline's splice), attributing every nest
/// to its block. Returns `false` when the two shapes do not line up.
fn align<'a>(body: &[NStmt], ls: &'a [LStmt], out: &mut Vec<Found<'a>>) -> bool {
    let mut it = ls.iter().peekable();
    for ns in body {
        match ns {
            NStmt::Block(bi) => {
                while let Some(s) = it.peek() {
                    if matches!(s, LStmt::For { .. } | LStmt::If { .. }) {
                        break;
                    }
                    collect_nests(it.next().unwrap(), *bi, false, out);
                }
            }
            NStmt::For { body, .. } => {
                let Some(LStmt::For { body: lbody, .. }) = it.next() else {
                    return false;
                };
                if !align(body, lbody, out) {
                    return false;
                }
            }
            NStmt::If {
                then_body,
                else_body,
                ..
            } => {
                let Some(LStmt::If {
                    then_body: lt,
                    else_body: le,
                    ..
                }) = it.next()
                else {
                    return false;
                };
                if !align(then_body, lt, out) || !align(else_body, le, out) {
                    return false;
                }
            }
        }
    }
    it.next().is_none()
}

/// Structure well-formedness for reduction loops, which carry no cluster
/// provenance: just walk everything.
fn check_reduce_structures(
    program: &zlang::ir::Program,
    stmts: &[LStmt],
    diags: &mut Vec<Diagnostic>,
) {
    for s in stmts {
        match s {
            LStmt::ReduceNest {
                region, structure, ..
            } => {
                let rank = program.region(*region).rank();
                if !is_valid_structure(structure, rank) {
                    diags.push(Diagnostic::error(
                        Stage::VerifyStructure,
                        format!(
                            "reduction over rank-{rank} region `{}` has structure \
                             {structure:?}, which is not a signed permutation of 1..={rank}",
                            program.region(*region).name
                        ),
                    ));
                }
            }
            LStmt::For { body, .. } | LStmt::Outer { body, .. } => {
                check_reduce_structures(program, body, diags)
            }
            LStmt::If {
                then_body,
                else_body,
                ..
            } => {
                check_reduce_structures(program, then_body, diags);
                check_reduce_structures(program, else_body, diags);
            }
            LStmt::Nest(_) | LStmt::Scalar { .. } => {}
        }
    }
}

pub(crate) fn check(opt: &Optimized) -> Vec<Diagnostic> {
    let (norm, scalarized, details) = (&opt.norm, &opt.scalarized, &opt.details);
    let program = &norm.program;
    let mut diags = Vec::new();
    check_reduce_structures(program, &scalarized.stmts, &mut diags);

    let mut found = Vec::new();
    if !align(&norm.body, &scalarized.stmts, &mut found) {
        diags.push(Diagnostic::warning(
            Stage::VerifyStructure,
            "control-flow skeletons of the normalized and scalarized programs do not line \
             up; per-nest structure checks skipped",
        ));
        return diags;
    }

    for f in &found {
        let Some(detail) = details.get(f.block) else {
            diags.push(
                Diagnostic::error(
                    Stage::VerifyStructure,
                    format!("nest belongs to block {} which has no record", f.block),
                )
                .in_block(f.block),
            );
            continue;
        };
        let part = &detail.partition;
        let loc = format!("nest for cluster {}", f.nest.cluster);
        if !part.live_clusters().contains(&f.nest.cluster) {
            diags.push(
                Diagnostic::error(
                    Stage::VerifyStructure,
                    format!(
                        "nest references cluster {} which is not live in the block's \
                         partition",
                        f.nest.cluster
                    ),
                )
                .in_block(f.block)
                .at(loc),
            );
            continue;
        }
        let stmts = part.cluster(f.nest.cluster);
        let rank = program.region(f.nest.region).rank();
        let mut region_ok = true;
        for &s in stmts {
            if let Some(r) = norm.blocks[f.block].stmts[s].region() {
                if r != f.nest.region {
                    region_ok = false;
                    diags.push(
                        Diagnostic::error(
                            Stage::VerifyStructure,
                            format!(
                                "statement {s} iterates region `{}` but its nest was emitted \
                                 over `{}`",
                                program.region(r).name,
                                program.region(f.nest.region).name
                            ),
                        )
                        .in_block(f.block)
                        .at(loc.clone()),
                    );
                }
            }
        }
        if f.under_outer {
            // Partial structure under a shared outer loop: entries must
            // still name valid, distinct dimensions.
            let mut seen = vec![false; rank];
            let partial_ok = f.nest.structure.iter().all(|&e| {
                let d = e.unsigned_abs() as usize;
                let ok = e != 0 && d <= rank && !seen[d - 1];
                if ok {
                    seen[d - 1] = true;
                }
                ok
            });
            if !partial_ok {
                diags.push(
                    Diagnostic::error(
                        Stage::VerifyStructure,
                        format!(
                            "partial structure {:?} under a shared outer loop names invalid \
                             or repeated dimensions of rank-{rank} region `{}`",
                            f.nest.structure,
                            program.region(f.nest.region).name
                        ),
                    )
                    .in_block(f.block)
                    .at(loc.clone()),
                );
            }
            continue;
        }
        if !is_valid_structure(&f.nest.structure, rank) {
            diags.push(
                Diagnostic::error(
                    Stage::VerifyStructure,
                    format!(
                        "structure {:?} is not a signed permutation of 1..={rank} for region \
                         `{}`",
                        f.nest.structure,
                        program.region(f.nest.region).name
                    ),
                )
                .in_block(f.block)
                .at(loc),
            );
            continue;
        }
        if !region_ok {
            continue; // UDV ranks cannot be trusted against this nest
        }
        // Definition 4: every intra-cluster dependence, constrained by the
        // chosen structure, must be lexicographically non-negative.
        let in_cluster = |s: usize| part.cluster_of(s) == f.nest.cluster;
        for e in &detail.asdg.edges {
            if !(in_cluster(e.src) && in_cluster(e.dst)) {
                continue;
            }
            for l in &e.labels {
                let (VarLabel::Array(_), Some(u)) = (&l.var, &l.udv) else {
                    continue;
                };
                if u.rank() == rank && !u.preserved_by(&f.nest.structure) {
                    diags.push(
                        Diagnostic::error(
                            Stage::VerifyStructure,
                            format!(
                                "{} dependence {} -> {} with UDV {u} is violated by loop \
                                 structure {:?}: the constrained distance vector {:?} is \
                                 lexicographically negative",
                                l.kind,
                                e.src,
                                e.dst,
                                f.nest.structure,
                                u.constrain(&f.nest.structure)
                            ),
                        )
                        .in_block(f.block)
                        .at(loc.clone()),
                    );
                }
            }
        }
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Level, Pipeline};

    const P: &str = "program p; config n : int = 8; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; var A, B, C : [R] float; var s : float; ";

    fn optimize(src: &str, level: Level) -> Optimized {
        Pipeline::new(level).optimize(&zlang::compile(src).unwrap())
    }

    #[test]
    fn reversal_structure_passes() {
        // Fragment (7): fusing forces p = (1, -2); the checker must accept.
        let opt = optimize(
            &format!("{P} begin [R] B := A + C@w; [R] C := B; end"),
            Level::C2,
        );
        let diags = check(&opt);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn corrupt_structure_is_reported() {
        let mut opt = optimize(
            &format!("{P} begin [R] B := A + C@w; [R] C := B; end"),
            Level::C2,
        );
        // Overwrite the (reversed) structure with the identity, which
        // violates the anti dependence u = (0,-1).
        fn first_nest(stmts: &mut [LStmt]) -> Option<&mut LoopNest> {
            for s in stmts {
                if let LStmt::Nest(n) = s {
                    return Some(n);
                }
            }
            None
        }
        let nest = first_nest(&mut opt.scalarized.stmts).unwrap();
        assert_eq!(nest.structure, vec![1, -2]);
        nest.structure = vec![1, 2];
        let diags = check(&opt);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("lexicographically negative")),
            "{diags:?}"
        );
    }

    #[test]
    fn malformed_structure_vector_is_reported() {
        let mut opt = optimize(&format!("{P} begin [R] B := A + A; end"), Level::Baseline);
        let LStmt::Nest(n) = &mut opt.scalarized.stmts[0] else {
            panic!()
        };
        n.structure = vec![1, 1];
        let diags = check(&opt);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("signed permutation")),
            "{diags:?}"
        );
    }

    #[test]
    fn loops_and_ifs_align() {
        let src = format!(
            "{P} var k : int; begin [R] A := 1.0; for k := 1 to 2 do [R] B := A + B@w; \
             if s > 0.0 then [R] C := B; end; end; s := +<< [R] C; end"
        );
        let opt = optimize(&src, Level::C2F3);
        let diags = check(&opt);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
