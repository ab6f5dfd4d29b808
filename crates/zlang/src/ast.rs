//! Surface abstract syntax tree produced by the [`parser`](crate::parser).
//!
//! Names are unresolved [`Name`]s at this level; [`sema`](crate::sema)
//! resolves them into the array-level [`ir`](crate::ir).
//!
//! Expressions live in one arena per program, [`Program::exprs`], and
//! refer to their operands by [`ExprId`]; call arguments and inline `@`
//! offsets are runs of [`Program::args`] and [`Program::offsets`]. The
//! tree is therefore a handful of vectors, built and freed without an
//! allocation per node, and it stays an owned value with no lifetime.

use crate::error::Pos;
pub use crate::token::Name;

/// A parsed program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name from the `program` header.
    pub name: Name,
    /// Declarations, in source order.
    pub decls: Vec<Decl>,
    /// Statements between `begin` and `end`.
    pub body: Vec<Stmt>,
    /// Every expression node; an [`ExprId`] indexes it.
    pub exprs: Vec<Expr>,
    /// Call argument lists, each a [`Run`] of this vector.
    pub args: Vec<ExprId>,
    /// Inline `@[...]` offset vectors, each a [`Run`] of this vector.
    pub offsets: Vec<i64>,
}

impl Program {
    /// The expression `id` names.
    ///
    /// # Panics
    ///
    /// Panics if `id` came from another program.
    pub fn expr(&self, id: ExprId) -> &Expr {
        &self.exprs[id.0 as usize]
    }

    /// A call's arguments.
    pub fn args(&self, run: Run) -> &[ExprId] {
        &self.args[run.range()]
    }

    /// An inline offset vector.
    pub fn offsets(&self, run: Run) -> &[i64] {
        &self.offsets[run.range()]
    }
}

/// Index of an expression in [`Program::exprs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(pub u32);

/// A contiguous run `start..start + len` of one of a [`Program`]'s list
/// vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run {
    /// Index of the first element.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Run {
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A top-level declaration.
#[derive(Debug, Clone, PartialEq)]
pub enum Decl {
    /// `config n : int = 64;` — a compile-time-defaulted, run-time
    /// overridable problem parameter.
    Config {
        name: Name,
        ty: Type,
        default: Literal,
        pos: Pos,
    },
    /// `region R = [1..n, 0..m+1];`
    Region {
        name: Name,
        extents: Vec<RangeExpr>,
        pos: Pos,
    },
    /// `direction north = [-1, 0];`
    Direction {
        name: Name,
        offsets: Vec<i64>,
        pos: Pos,
    },
    /// `var A, B : [R] float;` (array) or `var s : float;` (scalar).
    Var {
        names: Vec<Name>,
        region: Option<Name>,
        ty: Type,
        pos: Pos,
    },
}

/// A scalar type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Type {
    /// 64-bit float.
    Float,
    /// 64-bit signed integer.
    Int,
}

/// A literal constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Literal {
    /// Integer literal.
    Int(i64),
    /// Float literal.
    Float(f64),
}

/// One dimension of a region: `lo..hi` where the bounds are affine
/// expressions over integer literals and config variables.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeExpr {
    /// Lower bound.
    pub lo: AffineExpr,
    /// Upper bound (inclusive).
    pub hi: AffineExpr,
}

/// An affine expression `c0 + c1*v1 + c2*v2 + ...` over config variables.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineExpr {
    /// Constant term.
    pub base: i64,
    /// `(config name, coefficient)` terms.
    pub terms: Vec<(Name, i64)>,
    /// Source position (for diagnostics).
    pub pos: Pos,
}

/// A statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `[R] A := expr;` — an element-wise array assignment over region `R`.
    ArrayAssign {
        region: Name,
        lhs: Name,
        rhs: ExprId,
        pos: Pos,
    },
    /// `s := expr;` — a scalar assignment; `expr` may contain reductions.
    ScalarAssign { lhs: Name, rhs: ExprId, pos: Pos },
    /// `for k := lo to|downto hi do ... end;`
    For {
        var: Name,
        lo: ExprId,
        hi: ExprId,
        down: bool,
        body: Vec<Stmt>,
        pos: Pos,
    },
    /// `if cond then ... [else ...] end;`
    If {
        cond: ExprId,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
        pos: Pos,
    },
}

/// An expression (array-valued or scalar-valued; sema decides).
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Integer or float literal.
    Lit(Literal, Pos),
    /// A bare name: array, scalar, or config variable.
    Name(Name, Pos),
    /// `A@north` or `A@[dx, dy]` — an offset array reference.
    At(Name, AtOffset, Pos),
    /// Unary operation.
    Unary(UnOp, ExprId, Pos),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId, Pos),
    /// Intrinsic call `f(a, b, ...)`; the arguments are a run of
    /// [`Program::args`].
    Call(Name, Run, Pos),
    /// `op<< [R] expr` — a full reduction of an array expression to a scalar.
    Reduce(ReduceOp, Name, ExprId, Pos),
}

impl Expr {
    /// The source position of an expression.
    pub fn pos(&self) -> Pos {
        match self {
            Expr::Lit(_, p)
            | Expr::Name(_, p)
            | Expr::At(_, _, p)
            | Expr::Unary(_, _, p)
            | Expr::Binary(_, _, _, p)
            | Expr::Call(_, _, p)
            | Expr::Reduce(_, _, _, p) => *p,
        }
    }
}

/// The target of an `@`: a named direction or an inline literal vector.
#[derive(Debug, Clone, PartialEq)]
pub enum AtOffset {
    /// `A@north`
    Named(Name),
    /// `A@[dx, dy]`: a run of [`Program::offsets`].
    Inline(Run),
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
}

/// Binary operators. Comparisons evaluate to `1.0` / `0.0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
}

/// Reduction operators for `op<< [R] expr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    Sum,
    Prod,
    Max,
    Min,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_pos_is_stable() {
        let p = Pos::new(4, 2);
        let e = Expr::Binary(BinOp::Add, ExprId(0), ExprId(1), p);
        assert_eq!(e.pos(), p);
    }

    #[test]
    fn runs_index_their_lists() {
        let program = Program {
            name: Name::new("p"),
            decls: Vec::new(),
            body: Vec::new(),
            exprs: Vec::new(),
            args: vec![ExprId(3), ExprId(4), ExprId(5)],
            offsets: vec![1, -1, 0],
        };
        let run = Run { start: 1, len: 2 };
        assert_eq!(program.args(run), [ExprId(4), ExprId(5)]);
        assert_eq!(program.offsets(run), [-1, 0]);
    }
}
