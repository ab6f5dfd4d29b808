//! Dimension contraction (extension).
//!
//! Section 5.2 of the paper identifies a deficiency: "SP contains a great
//! many opportunities to contract arrays to *lower dimensional* arrays.
//! Though the resulting arrays cannot be manipulated in registers, they
//! conserve memory and make better use of the cache." The paper's
//! algorithm only contracts to scalars; this module implements the missing
//! transformation.
//!
//! Mechanism: **depth-1 partial fusion**. When the producer and consumer
//! of an array cannot share a single loop nest (their other dependences
//! make full fusion illegal), they can often still share one *outer* loop
//! over a dimension `d` in which the array's flow dependences have zero
//! distance. Inside each outer iteration the member nests run to
//! completion in order, so any dependence with zero distance in `d` is
//! automatically preserved; the array then only ever holds one
//! `d`-slice at a time and its `d` dimension collapses to extent 1 — an
//! `n`-fold memory reduction.
//!
//! Legality for a group `S` of clusters sharing an outer loop over `d`
//! with direction `dir`:
//!
//! 1. all statements in `S` are fusable and share one region;
//! 2. every dependence between members has a known UDV; **flow**
//!    dependences must have `u[d] = 0` (the outer loop stays parallel,
//!    matching Definition 5's condition (ii) one level up); anti/output
//!    dependences need `dir · u[d] ≥ 0`;
//! 3. each member cluster's internal dependences are legalized by `d`
//!    outermost (carried or zero) plus a legal inner structure over the
//!    remaining dimensions;
//! 4. `GROW`-closure: no dependence path leaves and re-enters the group.
//!
//! An array collapses in `d` when it is a contraction candidate, every
//! flow dependence of each of its definitions has `u[d] = 0`, and all its
//! references lie inside the group.

use crate::asdg::{DefId, VarLabel};
use crate::depvec::DepKind;
use crate::depvec::Udv;
use crate::fusion::{FusionCtx, Partition};
use crate::loopstruct::find_loop_structure;
use std::collections::{BTreeSet, HashMap, HashSet};
use zlang::ir::ArrayId;

/// A partial-fusion group: clusters sharing one outer loop.
#[derive(Debug, Clone)]
pub struct PartialGroup {
    /// Member cluster ids.
    pub clusters: BTreeSet<usize>,
    /// The shared outer dimension (0-based).
    pub dim: u8,
    /// Outer loop direction.
    pub reverse: bool,
    /// Per-member inner loop structure (over the remaining dimensions).
    pub inner: HashMap<usize, Vec<i8>>,
    /// Arrays collapsed to extent 1 in `dim`.
    pub collapsed: Vec<ArrayId>,
}

/// Projects a UDV by removing dimension `d` (for inner-structure search).
fn project(u: &Udv, d: usize) -> Udv {
    Udv(u
        .0
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != d)
        .map(|(_, &v)| v)
        .collect())
}

/// Maps an inner structure over `rank-1` projected dimensions back to
/// original dimension numbers (skipping `d`).
fn unproject_structure(p: &[i8], d: usize) -> Vec<i8> {
    p.iter()
        .map(|&e| {
            let dim0 = (e.unsigned_abs() as usize) - 1; // projected, 0-based
            let orig = if dim0 >= d { dim0 + 1 } else { dim0 };
            ((orig + 1) as i8) * e.signum()
        })
        .collect()
}

/// Tries to form a legal group from the clusters in `s` over dimension
/// `d`. Returns per-member inner structures on success.
fn group_ok(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    s: &BTreeSet<usize>,
    d: usize,
    dir: i64,
) -> Option<HashMap<usize, Vec<i8>>> {
    // Collect all member statements; check fusability and a common region.
    let mut region = None;
    let mut rank = 0;
    for &c in s {
        for &st in part.cluster(c) {
            let stmt = &ctx.block.stmts[st];
            if !stmt.is_fusable() {
                return None;
            }
            let r = stmt.region().expect("fusable statements have regions");
            match region {
                None => {
                    region = Some(r);
                    rank = ctx.program.region(r).rank();
                }
                Some(r0) if r0 != r => return None,
                _ => {}
            }
        }
    }
    if d >= rank {
        return None;
    }
    let in_group = |st: usize| s.contains(&part.cluster_of(st));

    // Check every edge among group statements.
    let mut intra: HashMap<usize, Vec<Udv>> = HashMap::new();
    for e in &ctx.asdg.edges {
        if !(in_group(e.src) && in_group(e.dst)) {
            continue;
        }
        let same_cluster = part.cluster_of(e.src) == part.cluster_of(e.dst);
        for l in &e.labels {
            let u = match (&l.var, &l.udv) {
                (VarLabel::Scalar(_), _) => return None,
                (_, None) => return None,
                (_, Some(u)) => u,
            };
            let ud = dir * u.0[d];
            if same_cluster {
                // Outer-carried deps stop constraining the inner nest.
                match ud.cmp(&0) {
                    std::cmp::Ordering::Less => return None,
                    std::cmp::Ordering::Greater => {}
                    std::cmp::Ordering::Equal => {
                        if l.kind == DepKind::Flow && !u.is_null() {
                            return None; // would re-break condition (ii)
                        }
                        intra
                            .entry(part.cluster_of(e.src))
                            .or_default()
                            .push(project(u, d));
                    }
                }
            } else {
                match l.kind {
                    DepKind::Flow => {
                        if u.0[d] != 0 {
                            return None; // keep the outer loop parallel
                        }
                    }
                    DepKind::Anti | DepKind::Output => {
                        if ud < 0 {
                            return None;
                        }
                    }
                }
            }
        }
    }

    // Per-member inner structures over the remaining dimensions.
    let mut inner = HashMap::new();
    for &c in s {
        let deps = intra.remove(&c).unwrap_or_default();
        let p = find_loop_structure(&deps, rank - 1)?;
        inner.insert(c, unproject_structure(&p, d));
    }
    Some(inner)
}

/// Finds partial-fusion groups enabling dimension contraction, given the
/// final partition and the set of already-contracted definitions.
/// `candidates` are the block's contraction-candidate definitions.
pub fn find_groups(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    candidates: &[DefId],
    already_contracted: &HashSet<DefId>,
) -> Vec<PartialGroup> {
    let mut groups: Vec<PartialGroup> = Vec::new();
    let mut used_clusters: BTreeSet<usize> = BTreeSet::new();

    for &x in candidates {
        if already_contracted.contains(&x) {
            continue;
        }
        // Flow labels of x must all be known; find dimensions where every
        // flow distance is zero.
        let flows: Vec<&Udv> = ctx
            .asdg
            .labels_of_def(x)
            .into_iter()
            .filter(|(_, _, l)| l.kind == DepKind::Flow)
            .map(|(_, _, l)| l.udv.as_ref())
            .collect::<Option<Vec<_>>>()
            .unwrap_or_default();
        if flows.is_empty() {
            continue; // cross-region or unread definition
        }
        let rank = flows[0].rank();
        let zero_dims: Vec<usize> = (0..rank)
            .filter(|&d| flows.iter().all(|u| u.0[d] == 0))
            .collect();
        if zero_dims.is_empty() {
            continue;
        }

        // Form the group around x's references.
        let mut s: BTreeSet<usize> = ctx
            .asdg
            .stmts_of_def(x)
            .iter()
            .map(|&st| part.cluster_of(st))
            .collect();
        if s.len() < 2 {
            continue; // full contraction already had its chance
        }
        s.extend(ctx.grow(part, &s));
        if s.iter().any(|c| used_clusters.contains(c)) {
            // Try to extend an existing group instead of overlapping it:
            // the union must itself be a legal group over the same
            // dimension and direction.
            if let Some(gi) = groups
                .iter()
                .position(|g| s.iter().any(|c| g.clusters.contains(c)))
            {
                let (dim, dir) = (
                    groups[gi].dim as usize,
                    if groups[gi].reverse { -1 } else { 1 },
                );
                if zero_dims.contains(&dim)
                    && !s
                        .iter()
                        .any(|c| used_clusters.contains(c) && !groups[gi].clusters.contains(c))
                {
                    let mut union: BTreeSet<usize> = groups[gi].clusters.clone();
                    union.extend(s.iter().copied());
                    union.extend(ctx.grow(part, &union));
                    let union_free = union
                        .iter()
                        .all(|c| groups[gi].clusters.contains(c) || !used_clusters.contains(c));
                    if union_free {
                        if let Some(inner) = group_ok(ctx, part, &union, dim, dir) {
                            used_clusters.extend(union.iter().copied());
                            let array = ctx.asdg.def(x).array;
                            let g = &mut groups[gi];
                            g.clusters = union;
                            g.inner = inner;
                            if !g.collapsed.contains(&array) {
                                g.collapsed.push(array);
                            }
                        }
                    }
                }
            }
            continue;
        }

        // Try each zero dimension, each direction.
        let mut formed = false;
        'dims: for &d in &zero_dims {
            for dir in [1i64, -1] {
                if let Some(inner) = group_ok(ctx, part, &s, d, dir) {
                    let array = ctx.asdg.def(x).array;
                    used_clusters.extend(s.iter().copied());
                    groups.push(PartialGroup {
                        clusters: s.clone(),
                        dim: d as u8,
                        reverse: dir < 0,
                        inner,
                        collapsed: vec![array],
                    });
                    formed = true;
                    break 'dims;
                }
            }
        }
        let _ = formed;
    }

    // Validate collapses: an array may collapse only if EVERY definition
    // of it in the block has zero flow distance in the group dimension and
    // all its references are inside the group.
    for g in &mut groups {
        let dim = g.dim as usize;
        g.collapsed.retain(|&a| {
            ctx.asdg.defs_of(a).iter().all(|&def| {
                let refs_in = ctx
                    .asdg
                    .stmts_of_def(def)
                    .iter()
                    .all(|&st| g.clusters.contains(&part.cluster_of(st)));
                let flows_zero = ctx.asdg.labels_of_def(def).iter().all(|(_, _, l)| {
                    l.kind != DepKind::Flow || l.udv.as_ref().is_some_and(|u| u.0[dim] == 0)
                });
                refs_in && flows_zero
            })
        });
    }
    groups.retain(|g| !g.collapsed.is_empty());
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asdg::build;
    use crate::normal::{contraction_candidates, normalize};
    use crate::weights::sort_by_weight;

    struct Setup {
        np: crate::normal::NormProgram,
        asdg: crate::asdg::Asdg,
    }

    fn setup(src: &str) -> Setup {
        let np = normalize(&zlang::compile(src).unwrap());
        assert_eq!(np.blocks.len(), 1);
        let asdg = build(&np.program, &np.blocks[0]);
        Setup { np, asdg }
    }

    fn run(s: &Setup) -> (Partition, HashSet<DefId>, Vec<PartialGroup>) {
        let ctx = FusionCtx::new(&s.np.program, &s.np.blocks[0], &s.asdg);
        let mut part = Partition::trivial(s.asdg.n);
        let cand_arrays = contraction_candidates(&s.np);
        let mut defs = Vec::new();
        for (i, c) in cand_arrays.iter().enumerate() {
            if c.is_some() {
                defs.extend(s.asdg.defs_of(ArrayId(i as u32)));
            }
        }
        let defs = sort_by_weight(
            &s.np.program,
            &s.np.blocks[0],
            &s.asdg,
            defs,
            &s.np.default_binding(),
        );
        ctx.fusion_for_contraction(&mut part, &defs, &mut loopir::Deadline::default())
            .unwrap();
        let contracted: HashSet<DefId> = ctx.contracted_defs(&part, &defs).into_iter().collect();
        let groups = find_groups(&ctx, &part, &defs, &contracted);
        (part, contracted, groups)
    }

    /// The SP shape: T produced with an x-offset stencil, consumed with a
    /// y-offset stencil. Full fusion is illegal (T's flow is carried in
    /// dim 2), but both nests can share the dim-1 outer loop and T drops
    /// to a single row.
    const SWEEP: &str = "program p; config n : int = 8; \
        region GH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
        var A : [GH] float; var T : [GH] float; var OUT : [R] float; var s : float; \
        begin \
          [R] T := A@[0,-1] + A@[0,1]; \
          [R] OUT := T@[0,-1] + T@[0,1]; \
          s := +<< [R] OUT; end";

    #[test]
    fn no_group_when_flow_is_carried_in_every_dim() {
        // T read at diagonal offsets: no zero dimension.
        let s = setup(
            "program p; config n : int = 8; \
             region GH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
             var A, T : [GH] float; var OUT : [R] float; var s : float; \
             begin [R] T := A; [R] OUT := T@[-1,-1]; s := +<< [R] OUT; end",
        );
        let (_, _, groups) = run(&s);
        assert!(groups.is_empty());
    }

    #[test]
    fn sweep_chain_forms_group_and_collapses_dim1() {
        let s = setup(SWEEP);
        let (part, contracted, groups) = run(&s);
        // T's flow (u = (0,±1)) blocks full contraction...
        let t = s.np.program.array_by_name("T").unwrap();
        for def in s.asdg.defs_of(t) {
            assert!(!contracted.contains(&def));
        }
        // ...but dimension 1 (index 0) is flow-free, so a group forms.
        assert_eq!(groups.len(), 1, "{groups:?}");
        let g = &groups[0];
        assert_eq!(g.dim, 0);
        assert!(!g.reverse);
        assert_eq!(g.collapsed, vec![t]);
        assert_eq!(g.clusters.len(), part.live_clusters().len().min(3));
        // Inner structures cover only dimension 2.
        for inner in g.inner.values() {
            assert_eq!(inner, &vec![2]);
        }
    }

    #[test]
    fn carried_anti_in_outer_dim_respects_direction() {
        // The consumer also reads A@[1,0] while a later statement writes A:
        // an anti dependence carried in dim 1. Grouping must still work
        // with dir = +1 (anti distance ≥ 0 towards the write).
        let s = setup(
            "program p; config n : int = 8; \
             region GH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
             var A, T : [GH] float; var OUT : [R] float; var s : float; \
             begin \
               [R] T := A@[0,-1] + A@[0,1]; \
               [R] OUT := T@[0,-1] + T@[0,1]; \
               s := +<< [R] OUT; end",
        );
        let (_, _, groups) = run(&s);
        assert_eq!(groups.len(), 1);
    }
}
