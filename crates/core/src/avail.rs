//! Offset-lattice availability facts for stencil redundancy.
//!
//! Stencil codes (Tomcatv, Simple, SP) recompute the same *subexpression*
//! at several neighboring offsets inside one statement (flux pairs like
//! `RHO@[1,0]*U@[1,0] - RHO@[-1,0]*U@[-1,0]`) and across the statements
//! of a block. This module is the fact algebra that finds them — the
//! canonical forms, the per-statement transfer function and the symbolic
//! region predicates — and [`crate::rce2`], its one consumer, walks each
//! basic block with it from an empty state.
//!
//! # The lattice
//!
//! Subexpressions are *canonicalized*: every compound subtree that reads
//! at least one array is rebased so its first read sits at offset zero.
//! A subtree `e` with first-read offset `b` becomes the pair
//! `(canon(e), b)` where `e = shift(canon(e), b)` and
//! `shift(c, δ)[p] = c[p + δ]` adds `δ` to every read offset. Canonical
//! forms are bucketed by their structural FNV digest
//! ([`crate::hash::expr_hash`]).
//!
//! An analysis *fact* says: array `provider`, over `region`, currently
//! holds the canonical expression at shift `base` —
//! `provider[p] = canon[p + base]` for all `p ∈ region`. The abstract
//! state at a program point is a set of facts: for each canonical key, a
//! finite subset of the (ℤ^rank) offset lattice of shifts at which the
//! value is materialized. Availability is a must-analysis (a reuse is
//! legal only if the fact holds on every path), and no fact crosses a
//! block boundary: every block starts from the empty state, so there is
//! no join to compute.
//!
//! # Transfer function
//!
//! Per statement, kills before gens:
//!
//! * writing array `A` kills every fact provided by `A` *and* every fact
//!   whose canonical form reads `A` (its stored value goes stale);
//! * writing scalar `s` kills facts whose canonical form references `s`;
//! * an array statement `[R] A := rhs` generates the fact
//!   `(canon(rhs), base(rhs))` with provider `A` over `R`;
//! * a *copy* statement `[R] A := B@d` additionally **composes** shifts:
//!   every live fact `B[p] = c[p + b]` spawns `A[p] = c[p + (b + d)]` —
//!   provided `R + d` lies inside the fact's region, so no stale-halo
//!   value is laundered through the copy.
//!
//! # Widening
//!
//! Shift composition along copy chains can grow offsets without bound
//! (the analog of interval growth in `loopir::verifier`, which widens to
//! unbounded after `WIDEN_AFTER = 8` steps). Two caps keep the lattice
//! finite, both deliberately mirroring that verifier's scheme:
//!
//! * at most [`WIDEN_FACTS_PER_KEY`] (= 8) distinct shifts are tracked
//!   per canonical key — further gens widen to "unknown" (dropped);
//! * any shift component with magnitude above [`WIDEN_SHIFT_MAG`] widens
//!   to unknown (no realistic stencil reaches past a 64-cell halo).
//!
//! Dropping facts is always sound for a must-analysis: it can only
//! suppress a rewrite, never enable an illegal one.

use crate::hash::expr_hash;
use crate::normal::{BStmt, Block, NStmt};
use zlang::ir::{ArrayExpr, ArrayId, LinExpr, Offset, Program, RegionId, ScalarId};

/// Maximum distinct shifts tracked per canonical key before widening
/// (mirrors `loopir::verifier`'s `WIDEN_AFTER = 8` interval cap).
pub const WIDEN_FACTS_PER_KEY: usize = 8;

/// Maximum shift-component magnitude before a composed offset widens to
/// unknown.
pub const WIDEN_SHIFT_MAG: i64 = 64;

// ---------------------------------------------------------------------------
// Canonicalization and shift algebra
// ---------------------------------------------------------------------------

/// A canonicalized subexpression: `expr = shift(canon, base)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Canon {
    /// The rebased expression (first read at offset zero).
    pub expr: ArrayExpr,
    /// The shift that was factored out.
    pub base: Vec<i64>,
    /// Whether the expression contains an `index` term (which shifts
    /// cannot move: `index` evaluates to the write point).
    pub has_index: bool,
    /// Structural digest of `expr` — the lattice bucket key.
    pub key: u64,
}

/// Canonicalizes an expression by factoring out its first read's offset.
/// Returns `None` for read-free expressions (nothing to shift) and for
/// mixed-rank reads (no single shift vector applies).
pub fn canonicalize(e: &ArrayExpr) -> Option<Canon> {
    let mut first: Option<Vec<i64>> = None;
    let mut rank_ok = true;
    e.for_each_read(&mut |_, o| match &first {
        None => first = Some(o.0.clone()),
        Some(b) => rank_ok &= o.0.len() == b.len(),
    });
    let base = first?;
    if !rank_ok {
        return None;
    }
    let neg: Vec<i64> = base.iter().map(|d| -d).collect();
    let expr = shift_reads(e, &neg);
    let has_index = contains_index(e);
    let key = expr_hash(&expr);
    Some(Canon {
        expr,
        base,
        has_index,
        key,
    })
}

/// `shift(e, δ)`: adds `δ` to every read offset. `index` terms are left
/// alone — callers must reject nonzero shifts of index-bearing
/// expressions themselves (see [`Canon::has_index`]).
///
/// Every read's rank must equal `delta.len()`.
pub fn shift_reads(e: &ArrayExpr, delta: &[i64]) -> ArrayExpr {
    e.map_reads(&mut |a, o| {
        debug_assert_eq!(o.0.len(), delta.len(), "rank mismatch in shift");
        ArrayExpr::Read(
            a,
            Offset(o.0.iter().zip(delta).map(|(x, d)| x + d).collect()),
        )
    })
}

/// Whether the expression contains an `index` term anywhere.
pub fn contains_index(e: &ArrayExpr) -> bool {
    match e {
        ArrayExpr::Index(_) => true,
        ArrayExpr::Unary(_, i) => contains_index(i),
        ArrayExpr::Binary(_, l, r) => contains_index(l) || contains_index(r),
        ArrayExpr::Call(_, args) => args.iter().any(contains_index),
        _ => false,
    }
}

/// Whether the expression reads the given array.
pub fn reads_array(e: &ArrayExpr, a: ArrayId) -> bool {
    let mut found = false;
    e.for_each_read(&mut |x, _| found |= x == a);
    found
}

/// Whether the expression references the given scalar.
pub fn reads_scalar(e: &ArrayExpr, s: ScalarId) -> bool {
    match e {
        ArrayExpr::ScalarRef(x) => *x == s,
        ArrayExpr::Unary(_, i) => reads_scalar(i, s),
        ArrayExpr::Binary(_, l, r) => reads_scalar(l, s) || reads_scalar(r, s),
        ArrayExpr::Call(_, args) => args.iter().any(|a| reads_scalar(a, s)),
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Subexpression paths
// ---------------------------------------------------------------------------

/// A compound subexpression with its tree path (child indices from the
/// root; `Unary`/`Binary` children are 0/1, `Call` arguments by
/// position).
#[derive(Debug, Clone)]
pub struct SubExpr<'a> {
    /// Child-index path from the RHS root to this node.
    pub path: Vec<u32>,
    /// The node itself.
    pub expr: &'a ArrayExpr,
}

/// Every *interesting* subexpression, in preorder (outermost first): a
/// node qualifies if it performs at least one floating-point operation
/// and reads at least one array. Leaves and read-free arithmetic can
/// never pay for a materialized reuse.
pub fn compound_subexprs(e: &ArrayExpr) -> Vec<SubExpr<'_>> {
    fn walk<'a>(e: &'a ArrayExpr, path: &mut Vec<u32>, out: &mut Vec<SubExpr<'a>>) {
        if e.flops() >= 1 && e.read_count() >= 1 {
            out.push(SubExpr {
                path: path.clone(),
                expr: e,
            });
        }
        match e {
            ArrayExpr::Unary(_, i) => {
                path.push(0);
                walk(i, path, out);
                path.pop();
            }
            ArrayExpr::Binary(_, l, r) => {
                path.push(0);
                walk(l, path, out);
                path.pop();
                path.push(1);
                walk(r, path, out);
                path.pop();
            }
            ArrayExpr::Call(_, args) => {
                for (i, a) in args.iter().enumerate() {
                    path.push(i as u32);
                    walk(a, path, out);
                    path.pop();
                }
            }
            _ => {}
        }
    }
    let mut out = Vec::new();
    walk(e, &mut Vec::new(), &mut out);
    out
}

/// The node at a child-index path, if the path is valid.
pub fn node_at<'a>(e: &'a ArrayExpr, path: &[u32]) -> Option<&'a ArrayExpr> {
    let Some((&head, rest)) = path.split_first() else {
        return Some(e);
    };
    match e {
        ArrayExpr::Unary(_, i) if head == 0 => node_at(i, rest),
        ArrayExpr::Binary(_, l, _) if head == 0 => node_at(l, rest),
        ArrayExpr::Binary(_, _, r) if head == 1 => node_at(r, rest),
        ArrayExpr::Call(_, args) => args.get(head as usize).and_then(|a| node_at(a, rest)),
        _ => None,
    }
}

/// Replaces the node at a path, returning whether the path was valid.
pub fn replace_at(e: &mut ArrayExpr, path: &[u32], new: ArrayExpr) -> bool {
    let Some((&head, rest)) = path.split_first() else {
        *e = new;
        return true;
    };
    match e {
        ArrayExpr::Unary(_, i) if head == 0 => replace_at(i, rest, new),
        ArrayExpr::Binary(_, l, _) if head == 0 => replace_at(l, rest, new),
        ArrayExpr::Binary(_, _, r) if head == 1 => replace_at(r, rest, new),
        ArrayExpr::Call(_, args) => match args.get_mut(head as usize) {
            Some(a) => replace_at(a, rest, new),
            None => false,
        },
        _ => false,
    }
}

// ---------------------------------------------------------------------------
// Symbolic region predicates (shared with the rce2 verifier)
// ---------------------------------------------------------------------------

/// `a <= b` provable symbolically: identical config terms, constant
/// comparison on the bases. (Terms are kept sorted and zero-free by
/// [`LinExpr`]'s constructors.)
pub fn lin_le(a: &LinExpr, b: &LinExpr) -> bool {
    a.terms == b.terms && a.base <= b.base
}

/// Whether `inner + delta ⊆ outer` holds for every symbolic binding.
pub fn region_contains_shifted(
    program: &Program,
    outer: RegionId,
    inner: RegionId,
    delta: &[i64],
) -> bool {
    let ro = program.region(outer);
    let ri = program.region(inner);
    if ro.rank() != ri.rank() || ro.rank() != delta.len() {
        return false;
    }
    ro.extents
        .iter()
        .zip(&ri.extents)
        .zip(delta)
        .all(|((o, i), &d)| lin_le(&o.lo, &i.lo.offset(d)) && lin_le(&i.hi.offset(d), &o.hi))
}

// ---------------------------------------------------------------------------
// Facts and abstract state
// ---------------------------------------------------------------------------

/// One availability fact: `provider[p] = canon[p + base]` for all
/// `p ∈ region`, established by statement `stmt` of block `block`.
#[derive(Debug, Clone, PartialEq)]
pub struct Fact {
    /// Structural digest of the canonical expression.
    pub key: u64,
    /// The canonical expression itself (digest collisions are resolved
    /// by structural comparison before any reuse).
    pub canon: ArrayExpr,
    /// Whether the canonical expression contains an `index` term.
    pub has_index: bool,
    /// The array holding the value.
    pub provider: ArrayId,
    /// The shift at which the provider materializes the canonical form.
    pub base: Vec<i64>,
    /// The region over which the fact holds.
    pub region: RegionId,
    /// Block of the establishing statement.
    pub block: usize,
    /// Statement index (within the block) of the establishing statement.
    pub stmt: usize,
}

/// The abstract state at a program point: the set of facts that hold on
/// every path reaching it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AvailState {
    /// Live facts (small sets; linear scans throughout).
    pub facts: Vec<Fact>,
}

impl AvailState {
    /// Kills facts invalidated by a write to array `a`: those `a`
    /// provides and those whose canonical form reads `a`.
    pub fn kill_array(&mut self, a: ArrayId) {
        self.facts
            .retain(|f| f.provider != a && !reads_array(&f.canon, a));
    }

    /// Kills facts whose canonical form references scalar `s`.
    pub fn kill_scalar(&mut self, s: ScalarId) {
        self.facts.retain(|f| !reads_scalar(&f.canon, s));
    }

    /// Adds a fact, widening instead of growing without bound: oversized
    /// shifts and over-full key buckets are dropped (sound for a
    /// must-analysis). A same-key same-provider fact is replaced.
    pub fn gen(&mut self, f: Fact) {
        if f.base.iter().any(|d| d.abs() > WIDEN_SHIFT_MAG) {
            return;
        }
        self.facts
            .retain(|g| !(g.key == f.key && g.provider == f.provider));
        if self.facts.iter().filter(|g| g.key == f.key).count() >= WIDEN_FACTS_PER_KEY {
            return;
        }
        self.facts.push(f);
    }
}

/// Applies one statement's transfer function (kills, then gens).
/// `block`/`idx` locate the statement for the facts it establishes.
pub fn transfer(program: &Program, state: &mut AvailState, stmt: &BStmt, block: usize, idx: usize) {
    if let Some(a) = stmt.lhs_array() {
        state.kill_array(a);
    }
    if let Some(s) = stmt.lhs_scalar() {
        state.kill_scalar(s);
    }
    let BStmt::Array(st) = stmt else { return };
    // Shift composition through a copy: `[R] A := B@d` republishes every
    // fact B provides, rebased by d, as long as every element the copy
    // read was covered by the fact's region (otherwise the copy could
    // launder a stale halo value into the new fact).
    if let ArrayExpr::Read(b, d) = &st.rhs {
        let composed: Vec<Fact> = state
            .facts
            .iter()
            .filter(|f| {
                f.provider == *b
                    && f.base.len() == d.0.len()
                    && region_contains_shifted(program, f.region, st.region, &d.0)
            })
            .cloned()
            .collect();
        for mut f in composed {
            f.base = f.base.iter().zip(&d.0).map(|(x, y)| x + y).collect();
            f.provider = st.lhs;
            f.region = st.region;
            f.block = block;
            f.stmt = idx;
            state.gen(f);
        }
    }
    if let Some(c) = canonicalize(&st.rhs) {
        state.gen(Fact {
            key: c.key,
            canon: c.expr,
            has_index: c.has_index,
            provider: st.lhs,
            base: c.base,
            region: st.region,
            block,
            stmt: idx,
        });
    }
}

// ---------------------------------------------------------------------------
// Writes under a skeleton subtree (hoisting and its re-checker)
// ---------------------------------------------------------------------------

/// Collects every array and scalar written anywhere under a skeleton
/// subtree, including loop variables of `for` nodes. Writes are pushed
/// once per writing statement (callers may count multiplicities).
pub fn written_under(
    blocks: &[Block],
    body: &[NStmt],
    arrays: &mut Vec<ArrayId>,
    scalars: &mut Vec<ScalarId>,
) {
    for n in body {
        match n {
            NStmt::Block(b) => {
                for s in &blocks[*b].stmts {
                    if let Some(a) = s.lhs_array() {
                        arrays.push(a);
                    }
                    if let Some(sc) = s.lhs_scalar() {
                        scalars.push(sc);
                    }
                }
            }
            NStmt::For { var, body, .. } => {
                scalars.push(*var);
                written_under(blocks, body, arrays, scalars);
            }
            NStmt::If {
                then_body,
                else_body,
                ..
            } => {
                written_under(blocks, then_body, arrays, scalars);
                written_under(blocks, else_body, arrays, scalars);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zlang::ast::BinOp;

    fn read(a: u32, off: Vec<i64>) -> ArrayExpr {
        ArrayExpr::Read(ArrayId(a), Offset(off))
    }

    fn add(l: ArrayExpr, r: ArrayExpr) -> ArrayExpr {
        ArrayExpr::Binary(BinOp::Add, Box::new(l), Box::new(r))
    }

    #[test]
    fn canonicalize_rebases_first_read_to_zero() {
        let e = add(read(0, vec![1, 0]), read(1, vec![1, 1]));
        let c = canonicalize(&e).unwrap();
        assert_eq!(c.base, vec![1, 0]);
        assert_eq!(c.expr, add(read(0, vec![0, 0]), read(1, vec![0, 1])));
        assert_eq!(shift_reads(&c.expr, &c.base), e);
        // Shifted copies share the canonical key.
        let shifted = add(read(0, vec![-1, 2]), read(1, vec![-1, 3]));
        let c2 = canonicalize(&shifted).unwrap();
        assert_eq!(c.key, c2.key);
        assert_eq!(c2.base, vec![-1, 2]);
    }

    #[test]
    fn canonicalize_rejects_read_free_and_mixed_rank() {
        assert!(canonicalize(&ArrayExpr::Const(1.0)).is_none());
        let mixed = add(read(0, vec![0]), read(1, vec![0, 0]));
        assert!(canonicalize(&mixed).is_none());
    }

    #[test]
    fn paths_round_trip() {
        let e = add(
            read(0, vec![0]),
            add(read(1, vec![1]), ArrayExpr::Const(2.0)),
        );
        let subs = compound_subexprs(&e);
        // Preorder: the whole expr first, then the inner add.
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].path, Vec::<u32>::new());
        assert_eq!(subs[1].path, vec![1]);
        for s in &subs {
            assert_eq!(node_at(&e, &s.path), Some(s.expr));
        }
        let mut m = e.clone();
        assert!(replace_at(&mut m, &[1], read(9, vec![0])));
        assert_eq!(m, add(read(0, vec![0]), read(9, vec![0])));
        assert!(!replace_at(&mut m, &[1, 0, 0], ArrayExpr::Const(0.0)));
    }

    #[test]
    fn widening_caps_apply() {
        let mut s = AvailState::default();
        let fact = |provider: u32, base: Vec<i64>| Fact {
            key: 7,
            canon: read(0, vec![0]),
            has_index: false,
            provider: ArrayId(provider),
            base,
            region: RegionId(0),
            block: 0,
            stmt: 0,
        };
        for i in 0..20 {
            s.gen(fact(i + 1, vec![i as i64]));
        }
        assert_eq!(s.facts.len(), WIDEN_FACTS_PER_KEY);
        // Oversized shifts widen away entirely.
        let mut t = AvailState::default();
        t.gen(fact(1, vec![WIDEN_SHIFT_MAG + 1]));
        assert!(t.facts.is_empty());
    }

    #[test]
    fn lin_le_requires_identical_terms() {
        let a = LinExpr::constant(3);
        let b = LinExpr::constant(5);
        assert!(lin_le(&a, &b));
        assert!(!lin_le(&b, &a));
    }
}
