//! Scalarization (Section 4.2 of the paper).
//!
//! Generates one loop nest per fusible cluster; loop nests are ordered by a
//! topological sort of inter-cluster dependences and statements within a
//! nest by intra-cluster dependences (program order, which is always
//! consistent). Each nest's loop structure comes from
//! `FIND-LOOP-STRUCTURE`; contracted array definitions are demoted to
//! loop-local scalars.

use crate::asdg::DefId;
use crate::fusion::{FusionCtx, Partition};
use crate::normal::BStmt;
use loopir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest, TempId};
use std::collections::{BTreeMap, HashSet};
use zlang::ast::ReduceOp;
use zlang::ir::{ArrayExpr, ArrayId, Offset, ScalarExpr};

/// Converts an element-wise array expression into a loop-body expression,
/// demoting reads of contracted definitions to temps: `read_defs` is the
/// statement's `(array, offset, definition)` list from the ASDG, and the
/// definition at index `t` of `temps` lives in temp `t`.
fn lower_expr(e: &ArrayExpr, read_defs: &[(ArrayId, Offset, DefId)], temps: &[DefId]) -> EExpr {
    match e {
        ArrayExpr::Read(a, off) => {
            // Every read of one array in a statement sees the same
            // definition: writes come after the reads.
            let def = read_defs.iter().find(|r| r.0 == *a).map(|r| r.2);
            match def.and_then(|d| temps.iter().position(|&t| t == d)) {
                Some(t) => {
                    debug_assert!(
                        off.is_zero(),
                        "contracted reads must be aligned (null UDV guarantees this)"
                    );
                    EExpr::Temp(TempId(t as u32))
                }
                None => EExpr::Load(*a, off.clone()),
            }
        }
        ArrayExpr::ScalarRef(s) => EExpr::ScalarRef(*s),
        ArrayExpr::ConfigRef(c) => EExpr::ConfigRef(*c),
        ArrayExpr::Const(v) => EExpr::Const(*v),
        ArrayExpr::Index(d) => EExpr::Index(*d),
        ArrayExpr::Unary(op, inner) => {
            EExpr::Unary(*op, Box::new(lower_expr(inner, read_defs, temps)))
        }
        ArrayExpr::Binary(op, l, r) => EExpr::Binary(
            *op,
            Box::new(lower_expr(l, read_defs, temps)),
            Box::new(lower_expr(r, read_defs, temps)),
        ),
        ArrayExpr::Call(i, args) => EExpr::Call(
            *i,
            args.iter()
                .map(|a| lower_expr(a, read_defs, temps))
                .collect(),
        ),
    }
}

/// The identity element of a reduction operator.
pub fn reduce_identity(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Min => f64::INFINITY,
    }
}

/// Kahn's algorithm with a smallest-first tie break over arbitrary keyed
/// nodes; `edges` are (from, to) pairs over `0..n`. A repeated pair adds
/// to its target's in-degree once per copy and is released once per
/// copy, so repeats need no removal; self-loops are skipped.
fn kahn(n: usize, edges: &[(usize, usize)], key: impl Fn(usize) -> usize) -> Vec<usize> {
    let mut indegree = vec![0usize; n];
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in edges {
        if a != b {
            succ[a].push(b);
            indegree[b] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    let mut out = Vec::with_capacity(n);
    while !ready.is_empty() {
        let (pick, _) = ready
            .iter()
            .enumerate()
            .min_by_key(|&(_, &i)| key(i))
            .expect("invariant: loop guard ensures `ready` is nonempty here");
        let i = ready.swap_remove(pick);
        out.push(i);
        for &j in &succ[i] {
            indegree[j] -= 1;
            if indegree[j] == 0 {
                ready.push(j);
            }
        }
    }
    assert_eq!(out.len(), n, "dependence graph must be acyclic");
    out
}

/// Topologically orders clusters as *nodes*, where each partial-fusion
/// group is contracted into one super-node (legal because `GROW` guarantees
/// no dependence path leaves and re-enters a group). Returns one entry per
/// node: the node's clusters in a valid internal topological order.
fn topo_nodes(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    groups: &[crate::ext::PartialGroup],
) -> Vec<Vec<usize>> {
    const NONE: usize = usize::MAX;
    // Cluster ids are statement indices, so both maps index by cluster.
    let cluster_edges = || {
        ctx.asdg
            .edges
            .iter()
            .map(|e| (part.cluster_of(e.src), part.cluster_of(e.dst)))
    };
    let mut node_of = vec![NONE; ctx.asdg.n];
    let mut nodes: Vec<Vec<usize>> = Vec::new();
    // Node assignment: group members share a node.
    let mut member_pos = vec![NONE; ctx.asdg.n];
    for g in groups {
        let id = nodes.len();
        let members: Vec<usize> = g.clusters.iter().copied().collect();
        // Internal topological order among members.
        for (i, &c) in members.iter().enumerate() {
            member_pos[c] = i;
        }
        let inner_edges: Vec<(usize, usize)> = cluster_edges()
            .map(|(a, b)| (member_pos[a], member_pos[b]))
            .filter(|&(pa, pb)| pa != NONE && pb != NONE && pa != pb)
            .collect();
        let order = kahn(members.len(), &inner_edges, |i| part.cluster(members[i])[0]);
        for &c in &members {
            member_pos[c] = NONE;
            node_of[c] = id;
        }
        nodes.push(order.into_iter().map(|i| members[i]).collect());
    }
    for c in part.live_clusters() {
        if node_of[c] == NONE {
            node_of[c] = nodes.len();
            nodes.push(vec![c]);
        }
    }
    // Node-level edges.
    let edges: Vec<(usize, usize)> = cluster_edges()
        .map(|(a, b)| (node_of[a], node_of[b]))
        .filter(|&(a, b)| a != b)
        .collect();
    let order = kahn(nodes.len(), &edges, |i| part.cluster(nodes[i][0])[0]);
    order
        .into_iter()
        .map(|i| std::mem::take(&mut nodes[i]))
        .collect()
}

/// Lowers one fusible cluster to a loop nest, returning the reduction
/// identity initializations (to emit before the nest) and the nest itself.
/// `structure_override` replaces the cluster's own loop structure (used by
/// dimension contraction's partial fusion, where the inner nest iterates a
/// subset of the dimensions).
pub fn lower_cluster(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    contracted: &HashSet<DefId>,
    cluster: usize,
    structure_override: Option<Vec<i8>>,
) -> (Vec<LStmt>, LoopNest) {
    let stmts = part.cluster(cluster);
    let structure = structure_override.unwrap_or_else(|| ctx.cluster_structure(part, cluster));
    let region = ctx.block.stmts[stmts[0]]
        .region()
        .expect("invariant: fusion only clusters array statements, which always carry a region");
    // Assign temps to the contracted definitions this cluster writes, in
    // statement order: temp `t` holds `temps[t]`.
    let temps: Vec<DefId> = stmts
        .iter()
        .filter_map(|&s| ctx.asdg.write_def[s])
        .filter(|d| contracted.contains(d))
        .collect();
    let mut body = Vec::new();
    let mut inits = Vec::new();
    for &s in stmts {
        let read_defs = &ctx.asdg.read_defs[s];
        match &ctx.block.stmts[s] {
            BStmt::Array(ast) => {
                let rhs = lower_expr(&ast.rhs, read_defs, &temps);
                let temp = ctx.asdg.write_def[s].and_then(|d| temps.iter().position(|&t| t == d));
                let target = match temp {
                    Some(t) => ElemRef::Temp(TempId(t as u32)),
                    None => {
                        let rank = ctx.program.region(ast.region).rank();
                        ElemRef::Array(ast.lhs, Offset::zero(rank))
                    }
                };
                body.push(ElemStmt { target, rhs });
            }
            BStmt::Reduce { lhs, op, arg, .. } => {
                inits.push(LStmt::Scalar {
                    lhs: *lhs,
                    rhs: ScalarExpr::Const(reduce_identity(*op)),
                });
                body.push(ElemStmt {
                    target: ElemRef::Reduce(*lhs, *op),
                    rhs: lower_expr(arg, read_defs, &temps),
                });
            }
            BStmt::Scalar { .. } => unreachable!("scalar statements are singleton clusters"),
        }
    }
    (
        inits,
        LoopNest {
            region,
            structure,
            body,
            cluster,
            temps: temps.len() as u32,
        },
    )
}

/// Runs `FIND-LOOP-STRUCTURE` for every cluster that will be lowered as
/// its own loop nest, keyed by cluster id.
///
/// Partial-fusion group members are skipped (their inner structures come
/// from [`crate::ext::PartialGroup::inner`]), as are lone scalar
/// statements (which lower without loops). The result feeds
/// [`scalarize_block`], letting the optimizer run
/// structure selection and lowering as separate passes.
pub fn cluster_structures(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    groups: &[crate::ext::PartialGroup],
) -> BTreeMap<usize, Vec<i8>> {
    let mut out = BTreeMap::new();
    for c in part.live_clusters() {
        if groups.iter().any(|g| g.clusters.contains(&c)) {
            continue;
        }
        let stmts = part.cluster(c);
        if stmts.len() == 1 && matches!(ctx.block.stmts[stmts[0]], BStmt::Scalar { .. }) {
            continue;
        }
        out.insert(c, ctx.cluster_structure(part, c));
    }
    out
}

/// Scalarizes one basic block given its final fusion partition, the set
/// of contracted definitions, its partial-fusion groups (each group's
/// clusters share one outer loop, [`LStmt::Outer`], over the group's
/// dimension, enabling dimension contraction of the arrays flowing between
/// them) and the per-cluster loop structures [`cluster_structures`]
/// selected. A cluster absent from `structures` has its structure
/// computed on the spot.
pub fn scalarize_block(
    ctx: &FusionCtx<'_>,
    part: &Partition,
    contracted: &HashSet<DefId>,
    groups: &[crate::ext::PartialGroup],
    structures: &BTreeMap<usize, Vec<i8>>,
) -> Vec<LStmt> {
    let group_of = |cluster: usize| groups.iter().position(|g| g.clusters.contains(&cluster));
    let mut out = Vec::new();
    for node in topo_nodes(ctx, part, groups) {
        // Lone scalar statement.
        if node.len() == 1 {
            let stmts = part.cluster(node[0]);
            if stmts.len() == 1 {
                if let BStmt::Scalar { lhs, rhs } = &ctx.block.stmts[stmts[0]] {
                    out.push(LStmt::Scalar {
                        lhs: *lhs,
                        rhs: rhs.clone(),
                    });
                    continue;
                }
            }
        }
        match group_of(node[0]) {
            None => {
                debug_assert_eq!(node.len(), 1);
                let known = structures.get(&node[0]).cloned();
                let (inits, nest) = lower_cluster(ctx, part, contracted, node[0], known);
                out.extend(inits);
                out.push(LStmt::Nest(nest));
            }
            Some(gi) => {
                let g = &groups[gi];
                let mut body = Vec::new();
                let mut region = None;
                for &c in &node {
                    let inner = g.inner.get(&c).cloned();
                    let (inits, nest) = lower_cluster(ctx, part, contracted, c, inner);
                    region = Some(nest.region);
                    out.extend(inits); // identities initialize before the outer loop
                    body.push(LStmt::Nest(nest));
                }
                out.push(LStmt::Outer {
                    region: region.expect("invariant: find_groups never produces an empty group"),
                    dim: g.dim,
                    reverse: g.reverse,
                    body,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asdg::build;
    use crate::normal::normalize;
    use crate::weights::sort_by_weight;
    use loopir::{Engine, NoopObserver, ScalarProgram};
    use zlang::ir::ConfigBinding;

    const P: &str = "program p; config n : int = 6; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; var A, B, C : [R] float; var s : float; ";

    /// Full mini-pipeline for a single-block program.
    fn compile_block(src: &str, fuse: bool) -> (ScalarProgram, usize) {
        let np = normalize(&zlang::compile(src).unwrap());
        let asdg = build(&np.program, &np.blocks[0]);
        let ctx = FusionCtx::new(&np.program, &np.blocks[0], &asdg);
        let mut part = Partition::trivial(asdg.n);
        let mut contracted = HashSet::new();
        if fuse {
            let cand_arrays = crate::normal::contraction_candidates(&np);
            let mut defs = Vec::new();
            for (i, c) in cand_arrays.iter().enumerate() {
                if c.is_some() {
                    defs.extend(asdg.defs_of(zlang::ir::ArrayId(i as u32)));
                }
            }
            let defs = sort_by_weight(
                &np.program,
                &np.blocks[0],
                &asdg,
                defs,
                &np.default_binding(),
            );
            ctx.fusion_for_contraction(&mut part, &defs);
            contracted = ctx.contracted_defs(&part, &defs).into_iter().collect();
        }
        let stmts = scalarize_block(&ctx, &part, &contracted, &[], &BTreeMap::new());
        let ncontracted = contracted.len();
        (
            ScalarProgram {
                program: np.program.clone(),
                stmts,
            },
            ncontracted,
        )
    }

    #[test]
    fn baseline_and_fused_agree() {
        let src = format!("{P} begin [R] B := A + 1.0; [R] C := B * B; s := +<< [R] C; end");
        let (base, n0) = compile_block(&src, false);
        let (fused, n1) = compile_block(&src, true);
        assert_eq!(n0, 0);
        assert!(n1 >= 1);
        let run = |sp: &ScalarProgram| {
            let mut exec = Engine::default()
                .executor(sp, ConfigBinding::defaults(&sp.program))
                .unwrap();
            exec.execute(&mut NoopObserver).unwrap().checksum()
        };
        let (a, b) = (run(&base), run(&fused));
        assert_eq!(a, b);
        assert_eq!(a, 36.0); // (0+1)^2 * 36 elements
    }

    #[test]
    fn contraction_eliminates_allocation() {
        let src = format!("{P} begin [R] B := A + 1.0; [R] C := B * B; s := +<< [R] C; end");
        let (base, _) = compile_block(&src, false);
        let (fused, _) = compile_block(&src, true);
        assert_eq!(base.live_arrays().len(), 3);
        // B and C contract; only A remains.
        assert_eq!(fused.live_arrays().len(), 1);
    }

    #[test]
    fn reduction_identity_initialization_emitted() {
        let src = format!("{P} begin [R] B := A + 1.0; s := max<< [R] B; end");
        let (fused, _) = compile_block(&src, true);
        // Expect: scalar init to -inf, then one nest.
        assert!(matches!(
            &fused.stmts[0],
            LStmt::Scalar { rhs: ScalarExpr::Const(v), .. } if *v == f64::NEG_INFINITY
        ));
        assert_eq!(fused.nest_count(), 1);
        let mut exec = Engine::default()
            .executor(&fused, ConfigBinding::defaults(&fused.program))
            .unwrap();
        assert_eq!(exec.execute(&mut NoopObserver).unwrap().checksum(), 1.0);
    }

    #[test]
    fn self_update_via_compiler_temp_is_correct() {
        // Fragment (5): A := A@w + 1 — the temp is inserted and contracted;
        // semantics must match the unfused version. Fusing T:=A@w+1; A:=T
        // carries an anti dependence on A (u=(0,-1)) -> loop over dim 2
        // reversed. Every element must read the OLD value of A.
        let src =
            "program p; config n : int = 6; region RH = [0..n, 0..n]; region R = [1..n, 1..n]; \
             var A : [RH] float; var s : float; begin \
             [RH] A := index2; [R] A := A@[0,-1] + 100.0; s := +<< [R] A; end"
                .to_string();
        let (base, n0) = compile_block(&src, false);
        let (fused, n1) = compile_block(&src, true);
        assert_eq!(n0, 0);
        // Both the compiler temp and A's final (reduce-only) definition
        // contract; A's array stays allocated for its first definition.
        assert_eq!(n1, 2);
        let run = |sp: &ScalarProgram| {
            let mut exec = Engine::default()
                .executor(sp, ConfigBinding::defaults(&sp.program))
                .unwrap();
            exec.execute(&mut NoopObserver).unwrap().checksum()
        };
        assert_eq!(run(&base), run(&fused));
        // Old values of A are index2 - 1 per element, plus 100.
        // Sum over [1..6]x[1..6]: sum(j-1 for j in 1..=6)*6 + 100*36
        assert_eq!(run(&base), (1 + 2 + 3 + 4 + 5) as f64 * 6.0 + 3600.0);
        // Baseline allocates A and the temp; fused allocates only A.
        assert_eq!(base.live_arrays().len(), 2);
        assert_eq!(fused.live_arrays().len(), 1);
    }

    #[test]
    fn clusters_topologically_ordered_with_interleaving() {
        // Build: 0: B := A; 1: C := B@w (separate cluster; depends on 0);
        // 2: A2... a case where min-index ordering would be wrong is hard
        // to trigger through fusion-for-contraction alone; directly verify
        // topo order output respects all inter-cluster edges.
        // B needs a halo for the B@w read; A and C stay on R.
        let src = "program p; config n : int = 6; region RH = [0..n, 0..n]; \
             region R = [1..n, 1..n]; direction w = [0, -1]; \
             var B : [RH] float; var A, C : [R] float; var s : float; \
             begin [RH] B := 2.0; [R] C := B@w; [R] A := B + C; s := +<< [R] A; end"
            .to_string();
        let (sp, _) = compile_block(&src, true);
        // Execute — interpreter would produce wrong results or OOB if
        // ordering was broken; also compare against unfused.
        let run = |sp: &ScalarProgram| {
            let mut exec = Engine::default()
                .executor(sp, ConfigBinding::defaults(&sp.program))
                .unwrap();
            exec.execute(&mut NoopObserver).unwrap().checksum()
        };
        let (base, _) = compile_block(&src, false);
        assert_eq!(run(&sp), run(&base));
    }
}
