//! The scalarized loop-nest IR data structures.

use zlang::ast::{BinOp, ReduceOp, UnOp};
use zlang::ir::{ArrayId, ConfigId, Intrinsic, Offset, RegionId, ScalarExpr, ScalarId};

/// Index of a loop-local scalar introduced by array contraction.
///
/// Each contracted array definition becomes one temp; temps are local to the
/// loop nest that computes them (the paper's Definition 6 guarantees all
/// references land in one nest with null distance vectors).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TempId(pub u32);

/// A reference appearing on the left-hand side of an element statement.
#[derive(Debug, Clone, PartialEq)]
pub enum ElemRef {
    /// An array element at a constant offset from the loop index.
    Array(ArrayId, Offset),
    /// A contracted-array scalar.
    Temp(TempId),
    /// A reduction accumulation into a program scalar: at each iteration
    /// point the RHS is combined into the scalar with the operator.
    /// The scalar must be initialized to the operator's identity before the
    /// nest (the scalarizer emits that assignment).
    Reduce(ScalarId, ReduceOp),
}

/// An element-wise expression evaluated at each iteration point.
#[derive(Debug, Clone, PartialEq)]
pub enum EExpr {
    /// Array element load at a constant offset from the loop index.
    Load(ArrayId, Offset),
    /// A contracted-array scalar.
    Temp(TempId),
    /// A program scalar variable.
    ScalarRef(ScalarId),
    /// A config variable.
    ConfigRef(ConfigId),
    /// A literal.
    Const(f64),
    /// The loop index along array dimension `d` (0-based), as a float.
    Index(u8),
    /// Unary operation.
    Unary(UnOp, Box<EExpr>),
    /// Binary operation.
    Binary(BinOp, Box<EExpr>, Box<EExpr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<EExpr>),
}

impl EExpr {
    /// Visits every array load in the expression.
    pub fn for_each_load(&self, f: &mut impl FnMut(ArrayId, &Offset)) {
        match self {
            EExpr::Load(a, off) => f(*a, off),
            EExpr::Unary(_, e) => e.for_each_load(f),
            EExpr::Binary(_, l, r) => {
                l.for_each_load(f);
                r.for_each_load(f);
            }
            EExpr::Call(_, args) => {
                for a in args {
                    a.for_each_load(f);
                }
            }
            _ => {}
        }
    }

    /// Counts floating-point operations per evaluation.
    pub fn flops(&self) -> u64 {
        match self {
            EExpr::Unary(_, e) => 1 + e.flops(),
            EExpr::Binary(_, l, r) => 1 + l.flops() + r.flops(),
            EExpr::Call(_, args) => 1 + args.iter().map(|a| a.flops()).sum::<u64>(),
            _ => 0,
        }
    }
}

/// One statement inside a loop nest body, executed per iteration point.
#[derive(Debug, Clone, PartialEq)]
pub struct ElemStmt {
    /// Assignment target.
    pub target: ElemRef,
    /// Right-hand side.
    pub rhs: EExpr,
}

/// A scalarized loop nest implementing one fusible cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopNest {
    /// The iteration region.
    pub region: RegionId,
    /// The loop structure vector `p` (Definition 4 of the paper): entry `i`
    /// is the 1-based array dimension the `i`-th loop (outermost first)
    /// iterates over, negated for decreasing iteration. Always a signed
    /// permutation of `1..=rank`.
    pub structure: Vec<i8>,
    /// Straight-line element statements (intra-cluster topological order).
    pub body: Vec<ElemStmt>,
    /// Provenance: index of the fusible cluster this nest implements.
    pub cluster: usize,
    /// Number of loop-local temps used by `body` (temp ids are dense,
    /// `0..temps`).
    pub temps: u32,
}

impl LoopNest {
    /// All `(array, offset)` loads performed by the nest body.
    pub fn loads(&self) -> Vec<(ArrayId, Offset)> {
        let mut out = Vec::new();
        for s in &self.body {
            s.rhs
                .for_each_load(&mut |a, off| out.push((a, off.clone())));
        }
        out
    }

    /// All `(array, offset)` stores performed by the nest body.
    pub fn stores(&self) -> Vec<(ArrayId, Offset)> {
        self.body
            .iter()
            .filter_map(|s| match &s.target {
                ElemRef::Array(a, off) => Some((*a, off.clone())),
                ElemRef::Temp(_) | ElemRef::Reduce(..) => None,
            })
            .collect()
    }
}

/// A statement in the scalarized program.
#[derive(Debug, Clone, PartialEq)]
pub enum LStmt {
    /// A loop nest (one fusible cluster).
    Nest(LoopNest),
    /// A shared outer loop over one dimension of a region, produced by
    /// depth-1 *partial fusion* for dimension contraction: the body's
    /// nests iterate the remaining dimensions with this dimension's index
    /// bound by the enclosing loop.
    Outer {
        /// The iteration region (shared with the body's nests).
        region: RegionId,
        /// The dimension (0-based) this loop iterates.
        dim: u8,
        /// Iterate high-to-low when true.
        reverse: bool,
        /// Inner statements; their nests' `structure` must omit `dim`.
        body: Vec<LStmt>,
    },
    /// A scalar assignment.
    Scalar { lhs: ScalarId, rhs: ScalarExpr },
    /// A reduction loop accumulating into a scalar.
    ReduceNest {
        lhs: ScalarId,
        op: ReduceOp,
        region: RegionId,
        structure: Vec<i8>,
        rhs: EExpr,
    },
    /// A counted scalar loop.
    For {
        var: ScalarId,
        lo: ScalarExpr,
        hi: ScalarExpr,
        down: bool,
        body: Vec<LStmt>,
    },
    /// A conditional.
    If {
        cond: ScalarExpr,
        then_body: Vec<LStmt>,
        else_body: Vec<LStmt>,
    },
}

/// A scalarized program: the original program's declarations plus a
/// statement list of loop nests and scalar control flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarProgram {
    /// The program's declarations: configs, regions, arrays (compiler
    /// temporaries and collapsed dimensions included) and scalars. Its
    /// `body` is empty when the optimizer built it: the statements live in
    /// [`ScalarProgram::stmts`].
    pub program: zlang::ir::Program,
    /// The scalarized statement list.
    pub stmts: Vec<LStmt>,
}

impl ScalarProgram {
    /// The set of arrays that are actually referenced by the scalarized
    /// code (contracted arrays disappear and are never allocated).
    pub fn live_arrays(&self) -> Vec<ArrayId> {
        let mut seen = vec![false; self.program.arrays.len()];
        fn walk(stmts: &[LStmt], seen: &mut [bool]) {
            for s in stmts {
                match s {
                    LStmt::Nest(n) => {
                        for (a, _) in n.loads() {
                            seen[a.0 as usize] = true;
                        }
                        for (a, _) in n.stores() {
                            seen[a.0 as usize] = true;
                        }
                    }
                    LStmt::ReduceNest { rhs, .. } => {
                        rhs.for_each_load(&mut |a, _| seen[a.0 as usize] = true);
                    }
                    LStmt::For { body, .. } | LStmt::Outer { body, .. } => walk(body, seen),
                    LStmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, seen);
                        walk(else_body, seen);
                    }
                    LStmt::Scalar { .. } => {}
                }
            }
        }
        walk(&self.stmts, &mut seen);
        seen.iter()
            .enumerate()
            .filter(|(_, &s)| s)
            .map(|(i, _)| ArrayId(i as u32))
            .collect()
    }

    /// Every [`LStmt::Nest`] of the program, in pre-order: a nest's index
    /// here is its id, the one [`Observer::nest_begin`](crate::Observer::nest_begin)
    /// is called with. Each nest has one id however often it runs, and a
    /// nest that never runs (an untaken branch, an empty loop) keeps its
    /// own, so the ids depend on the program text alone.
    pub fn nests(&self) -> Vec<&LoopNest> {
        fn walk<'a>(stmts: &'a [LStmt], out: &mut Vec<&'a LoopNest>) {
            for s in stmts {
                match s {
                    LStmt::Nest(n) => out.push(n),
                    LStmt::For { body, .. } | LStmt::Outer { body, .. } => walk(body, out),
                    LStmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        walk(then_body, out);
                        walk(else_body, out);
                    }
                    LStmt::Scalar { .. } | LStmt::ReduceNest { .. } => {}
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.stmts, &mut out);
        out
    }

    /// Total loop nests in the program (recursively), counting each
    /// [`LStmt::ReduceNest`] too: those get no id in
    /// [`ScalarProgram::nests`], which counts only the [`LStmt::Nest`]s.
    pub fn nest_count(&self) -> usize {
        fn walk(stmts: &[LStmt]) -> usize {
            stmts
                .iter()
                .map(|s| match s {
                    LStmt::Nest(_) | LStmt::ReduceNest { .. } => 1,
                    LStmt::For { body, .. } | LStmt::Outer { body, .. } => walk(body),
                    LStmt::If {
                        then_body,
                        else_body,
                        ..
                    } => walk(then_body) + walk(else_body),
                    LStmt::Scalar { .. } => 0,
                })
                .sum()
        }
        walk(&self.stmts)
    }
}

/// The id of `nest`: its index in `nests`, the [`ScalarProgram::nests`]
/// of the program it is a statement of, found by address.
pub(crate) fn nest_id(nests: &[&LoopNest], nest: &LoopNest) -> u32 {
    let id = nests.iter().position(|n| std::ptr::eq(*n, nest));
    id.expect("a nest of the program its ids were taken from") as u32
}

/// Returns the identity loop structure vector for a rank: `[1, 2, ..., n]`
/// (outer loop over dimension 1, all increasing — row-major order).
pub fn identity_structure(rank: usize) -> Vec<i8> {
    (1..=rank as i8).collect()
}

/// Validates that `p` is a signed permutation of `1..=rank`.
pub fn is_valid_structure(p: &[i8], rank: usize) -> bool {
    if p.len() != rank {
        return false;
    }
    let mut seen = vec![false; rank];
    for &e in p {
        let d = e.unsigned_abs() as usize;
        if e == 0 || d > rank || seen[d - 1] {
            return false;
        }
        seen[d - 1] = true;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_structure_is_valid() {
        for rank in 1..=4 {
            assert!(is_valid_structure(&identity_structure(rank), rank));
        }
    }

    #[test]
    fn invalid_structures_rejected() {
        assert!(!is_valid_structure(&[1, 1], 2));
        assert!(!is_valid_structure(&[0, 2], 2));
        assert!(!is_valid_structure(&[3, 1], 2));
        assert!(!is_valid_structure(&[1], 2));
        assert!(is_valid_structure(&[-2, 1], 2));
    }

    #[test]
    fn eexpr_flops_and_loads() {
        let a = ArrayId(0);
        let e = EExpr::Binary(
            BinOp::Mul,
            Box::new(EExpr::Load(a, Offset(vec![0]))),
            Box::new(EExpr::Call(
                Intrinsic::Sqrt,
                vec![EExpr::Load(a, Offset(vec![1]))],
            )),
        );
        assert_eq!(e.flops(), 2);
        let mut n = 0;
        e.for_each_load(&mut |_, _| n += 1);
        assert_eq!(n, 2);
    }
}
