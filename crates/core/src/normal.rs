//! Array statement normalization (Section 2.1 of the paper) and basic-block
//! structure.
//!
//! A *normalized* array statement `[R] f(A1@d1, ..., As@ds)` never reads and
//! writes the same array. When a source statement does (e.g. F90's
//! `A(1:n) = A(0:n-1) + A(0:n-1)`), normalization splits it through a
//! compiler temporary:
//!
//! ```text
//! [R] A := A@d + ...        =>        [R] _t0 := A@d + ...
//!                                     [R] A   := _t0
//! ```
//!
//! The paper's technique *always* inserts the temporary and relies on
//! contraction to remove it when a single statement does not truly require
//! it — in contrast to the Cray compiler, which never inserts one and
//! thereby forgoes profitable cross-statement contractions (Section 5.1).
//!
//! Normalization also flattens the program into *basic blocks* of
//! statements: maximal runs of array / reduction / scalar statements not
//! crossing control flow. Each block gets its own array statement
//! dependence graph.

use zlang::ast::ReduceOp;
use zlang::ir::{
    ArrayExpr, ArrayId, ArrayStmt, ConfigBinding, Program, RegionId, ScalarExpr, ScalarId, Stmt,
};

/// A statement inside a basic block.
#[derive(Debug, Clone, PartialEq)]
pub enum BStmt {
    /// A normalized element-wise array assignment.
    Array(ArrayStmt),
    /// A reduction into a scalar. Fusable with array statements over the
    /// same region; never contractible (it has no array LHS).
    Reduce {
        /// Scalar receiving the result.
        lhs: ScalarId,
        /// Reduction operator.
        op: ReduceOp,
        /// Region reduced over.
        region: RegionId,
        /// Element-wise argument.
        arg: ArrayExpr,
    },
    /// A scalar assignment. Unfusable: it is a single event, not an
    /// element-wise loop.
    Scalar {
        /// Scalar written.
        lhs: ScalarId,
        /// Right-hand side.
        rhs: ScalarExpr,
    },
}

impl BStmt {
    /// The region this statement iterates over, if it is loop-shaped.
    pub fn region(&self) -> Option<RegionId> {
        match self {
            BStmt::Array(s) => Some(s.region),
            BStmt::Reduce { region, .. } => Some(*region),
            BStmt::Scalar { .. } => None,
        }
    }

    /// True for statements that can join a fusible cluster (array
    /// statements and reductions).
    pub fn is_fusable(&self) -> bool {
        !matches!(self, BStmt::Scalar { .. })
    }

    /// The array written, if any.
    pub fn lhs_array(&self) -> Option<ArrayId> {
        match self {
            BStmt::Array(s) => Some(s.lhs),
            _ => None,
        }
    }

    /// All `(array, offset)` reads of the statement.
    pub fn reads(&self) -> Vec<(ArrayId, zlang::ir::Offset)> {
        match self {
            BStmt::Array(s) => s.rhs.reads(),
            BStmt::Reduce { arg, .. } => arg.reads(),
            BStmt::Scalar { .. } => Vec::new(),
        }
    }

    /// Visits the statement's reads in the order [`BStmt::reads`] lists
    /// them, without copying an offset.
    pub fn for_each_read(&self, mut f: impl FnMut(ArrayId, &zlang::ir::Offset)) {
        match self {
            BStmt::Array(s) => s.rhs.for_each_read(&mut f),
            BStmt::Reduce { arg, .. } => arg.for_each_read(&mut f),
            BStmt::Scalar { .. } => {}
        }
    }

    /// All scalars read by the statement.
    pub fn scalar_reads(&self) -> Vec<ScalarId> {
        fn from_array(e: &ArrayExpr, out: &mut Vec<ScalarId>) {
            match e {
                ArrayExpr::ScalarRef(s) => out.push(*s),
                ArrayExpr::Unary(_, i) => from_array(i, out),
                ArrayExpr::Binary(_, l, r) => {
                    from_array(l, out);
                    from_array(r, out);
                }
                ArrayExpr::Call(_, args) => args.iter().for_each(|a| from_array(a, out)),
                _ => {}
            }
        }
        fn from_scalar(e: &ScalarExpr, out: &mut Vec<ScalarId>) {
            match e {
                ScalarExpr::ScalarRef(s) => out.push(*s),
                ScalarExpr::Unary(_, i) => from_scalar(i, out),
                ScalarExpr::Binary(_, l, r) => {
                    from_scalar(l, out);
                    from_scalar(r, out);
                }
                ScalarExpr::Call(_, args) => args.iter().for_each(|a| from_scalar(a, out)),
                _ => {}
            }
        }
        let mut out = Vec::new();
        match self {
            BStmt::Array(s) => from_array(&s.rhs, &mut out),
            BStmt::Reduce { arg, .. } => from_array(arg, &mut out),
            BStmt::Scalar { rhs, .. } => from_scalar(rhs, &mut out),
        }
        out
    }

    /// The scalar written, if any.
    pub fn lhs_scalar(&self) -> Option<ScalarId> {
        match self {
            BStmt::Reduce { lhs, .. } | BStmt::Scalar { lhs, .. } => Some(*lhs),
            BStmt::Array(_) => None,
        }
    }
}

/// A basic block: a straight-line sequence of statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    /// Statements in program order.
    pub stmts: Vec<BStmt>,
}

/// Control-flow skeleton around basic blocks.
#[derive(Debug, Clone, PartialEq)]
pub enum NStmt {
    /// A basic block (index into [`NormProgram::blocks`]).
    Block(usize),
    /// A counted loop.
    For {
        var: ScalarId,
        lo: ScalarExpr,
        hi: ScalarExpr,
        down: bool,
        body: Vec<NStmt>,
    },
    /// A conditional.
    If {
        cond: ScalarExpr,
        then_body: Vec<NStmt>,
        else_body: Vec<NStmt>,
    },
}

/// A normalized program: the original declarations (with compiler
/// temporaries appended) plus basic blocks under a control-flow skeleton.
#[derive(Debug, Clone, PartialEq)]
pub struct NormProgram {
    /// The source program's declarations, with compiler temporaries
    /// appended to `arrays`. Its `body` is empty: the statements live in
    /// [`NormProgram::blocks`], under the skeleton [`NormProgram::body`].
    pub program: Program,
    /// All basic blocks.
    pub blocks: Vec<Block>,
    /// The control-flow skeleton referencing blocks by index.
    pub body: Vec<NStmt>,
}

impl NormProgram {
    /// Number of compiler temporaries inserted by normalization.
    pub fn compiler_temps(&self) -> usize {
        self.program
            .arrays
            .iter()
            .filter(|a| a.compiler_temp)
            .count()
    }

    /// The default config binding of the underlying program.
    pub fn default_binding(&self) -> ConfigBinding {
        ConfigBinding::defaults(&self.program)
    }
}

struct Normalizer {
    program: Program,
    blocks: Vec<Block>,
}

impl Normalizer {
    fn push_array_stmt(&mut self, block: &mut Block, s: &ArrayStmt) {
        let mut reads_lhs = false;
        s.rhs.for_each_read(&mut |a, _| reads_lhs |= a == s.lhs);
        if reads_lhs {
            // Split through a compiler temporary (the paper's rule: always
            // insert; contraction removes it when unneeded).
            let t = self.program.add_compiler_temp(s.region);
            block.stmts.push(BStmt::Array(ArrayStmt {
                region: s.region,
                lhs: t,
                rhs: s.rhs.clone(),
            }));
            let rank = self.program.region(s.region).rank();
            block.stmts.push(BStmt::Array(ArrayStmt {
                region: s.region,
                lhs: s.lhs,
                rhs: ArrayExpr::Read(t, zlang::ir::Offset::zero(rank)),
            }));
        } else {
            block.stmts.push(BStmt::Array(s.clone()));
        }
    }

    fn lower(&mut self, stmts: &[Stmt]) -> Vec<NStmt> {
        let mut out = Vec::new();
        let mut block = Block::default();
        let flush = |blocks: &mut Vec<Block>, block: &mut Block, out: &mut Vec<NStmt>| {
            if !block.stmts.is_empty() {
                out.push(NStmt::Block(blocks.len()));
                blocks.push(std::mem::take(block));
            }
        };
        for s in stmts {
            match s {
                Stmt::Array(a) => self.push_array_stmt(&mut block, a),
                Stmt::Reduce {
                    lhs,
                    op,
                    region,
                    arg,
                } => {
                    block.stmts.push(BStmt::Reduce {
                        lhs: *lhs,
                        op: *op,
                        region: *region,
                        arg: arg.clone(),
                    });
                }
                Stmt::Scalar { lhs, rhs } => {
                    block.stmts.push(BStmt::Scalar {
                        lhs: *lhs,
                        rhs: rhs.clone(),
                    });
                }
                Stmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                } => {
                    flush(&mut self.blocks, &mut block, &mut out);
                    let body = self.lower(body);
                    out.push(NStmt::For {
                        var: *var,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        down: *down,
                        body,
                    });
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    flush(&mut self.blocks, &mut block, &mut out);
                    let then_body = self.lower(then_body);
                    let else_body = self.lower(else_body);
                    out.push(NStmt::If {
                        cond: cond.clone(),
                        then_body,
                        else_body,
                    });
                }
            }
        }
        flush(&mut self.blocks, &mut block, &mut out);
        out
    }
}

/// Normalizes a program: inserts compiler temporaries and builds the basic
/// block structure. The statement tree is read in place; only the
/// declarations are copied.
pub fn normalize(program: &Program) -> NormProgram {
    let decls = Program {
        name: program.name.clone(),
        configs: program.configs.clone(),
        regions: program.regions.clone(),
        arrays: program.arrays.clone(),
        scalars: program.scalars.clone(),
        body: Vec::new(),
        names: program.names.clone(),
    };
    let mut n = Normalizer {
        program: decls,
        blocks: Vec::new(),
    };
    let body = n.lower(&program.body);
    NormProgram {
        program: n.program,
        blocks: n.blocks,
        body,
    }
}

/// Per-array contraction candidacy: an array is a *candidate* iff all of
/// its references occur in exactly one basic block, the first reference in
/// that block is a write, and the array is read at least once (an array
/// that is written but never read is treated as a program output and kept).
///
/// Compiler temporaries always satisfy these conditions by construction.
/// Returns, per array, `Some(block_index)` when the array is a candidate.
pub fn contraction_candidates(np: &NormProgram) -> Vec<Option<usize>> {
    #[derive(Default, Clone)]
    struct Info {
        blocks: Vec<usize>,
        first_is_write: bool,
        seen: bool,
        read_anywhere: bool,
    }
    let mut info = vec![Info::default(); np.program.arrays.len()];
    for (bi, block) in np.blocks.iter().enumerate() {
        for s in &block.stmts {
            // Reads first: a statement's RHS is evaluated before its write.
            s.for_each_read(|a, _| {
                let inf = &mut info[a.0 as usize];
                if !inf.blocks.contains(&bi) {
                    inf.blocks.push(bi);
                }
                if !inf.seen {
                    inf.seen = true;
                    inf.first_is_write = false;
                }
                inf.read_anywhere = true;
            });
            if let Some(a) = s.lhs_array() {
                let inf = &mut info[a.0 as usize];
                if !inf.blocks.contains(&bi) {
                    inf.blocks.push(bi);
                }
                if !inf.seen {
                    inf.seen = true;
                    inf.first_is_write = true;
                }
            }
        }
    }
    info.iter()
        .map(|inf| {
            if inf.seen && inf.blocks.len() == 1 && inf.first_is_write && inf.read_anywhere {
                Some(inf.blocks[0])
            } else {
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn norm(src: &str) -> NormProgram {
        normalize(&zlang::compile(src).unwrap())
    }

    const P: &str = "program p; config n : int = 8; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; var A, B, C : [R] float; var s : float; var k : int; ";

    #[test]
    fn no_temp_for_clean_statement() {
        let np = norm(&format!("{P} begin [R] B := A + A; end"));
        assert_eq!(np.compiler_temps(), 0);
        assert_eq!(np.blocks.len(), 1);
        assert_eq!(np.blocks[0].stmts.len(), 1);
    }

    #[test]
    fn normalize_copies_declarations_only() {
        let p = zlang::compile(&format!(
            "{P} begin [R] A := A@w + 1.0; for k := 1 to 2 do [R] B := A; end; end"
        ))
        .unwrap();
        let np = normalize(&p);
        assert!(np.program.body.is_empty(), "statements live in the blocks");
        assert_eq!(np.blocks.len(), 2);
        assert_eq!(np.program.arrays.len(), p.arrays.len() + 1);
        assert_eq!(np.program.arrays[..p.arrays.len()], p.arrays[..]);
        assert_eq!(np.program.scalars, p.scalars);
        assert_eq!(np.program.array_by_name("_t0"), Some(ArrayId(3)));
    }

    #[test]
    fn temp_inserted_for_read_write_conflict() {
        // Fragment (5) of Figure 5: A := A@w + A@w.
        let np = norm(&format!("{P} begin [R] A := A@w + A@w; end"));
        assert_eq!(np.compiler_temps(), 1);
        let b = &np.blocks[0];
        assert_eq!(b.stmts.len(), 2);
        // First statement writes the temp, second copies it into A.
        let BStmt::Array(s0) = &b.stmts[0] else {
            panic!()
        };
        let BStmt::Array(s1) = &b.stmts[1] else {
            panic!()
        };
        assert!(np.program.array(s0.lhs).compiler_temp);
        assert_eq!(np.program.array(s1.lhs).name, "A");
        assert_eq!(
            s1.rhs.reads(),
            vec![(s0.lhs, zlang::ir::Offset(vec![0, 0]))]
        );
    }

    #[test]
    fn temp_inserted_even_for_aligned_self_reference() {
        // Fragment (4): A := A + A (aligned) — still split; contraction
        // is what removes it later.
        let np = norm(&format!("{P} begin [R] A := A + A; end"));
        assert_eq!(np.compiler_temps(), 1);
    }

    #[test]
    fn blocks_split_at_control_flow() {
        let np = norm(&format!(
            "{P} begin [R] A := 1.0; for k := 1 to 2 do [R] B := A; end; [R] C := B; end"
        ));
        assert_eq!(np.blocks.len(), 3);
        assert_eq!(np.body.len(), 3);
        assert!(matches!(np.body[1], NStmt::For { .. }));
    }

    #[test]
    fn scalar_and_reduce_stay_in_block() {
        let np = norm(&format!(
            "{P} begin [R] A := 1.0; s := 1.0 + +<< [R] A; [R] B := A + s; end"
        ));
        assert_eq!(np.blocks.len(), 1);
        let b = &np.blocks[0];
        assert_eq!(b.stmts.len(), 4); // array, hoisted reduce, scalar, array
        assert!(matches!(b.stmts[1], BStmt::Reduce { .. }));
        assert!(matches!(b.stmts[2], BStmt::Scalar { .. }));
    }

    #[test]
    fn direct_reduction_needs_no_hidden_scalar() {
        let np = norm(&format!("{P} begin [R] A := 1.0; s := +<< [R] A; end"));
        let b = &np.blocks[0];
        assert_eq!(b.stmts.len(), 2); // array, reduce — no copy statement
        let BStmt::Reduce { lhs, .. } = &b.stmts[1] else {
            panic!()
        };
        assert_eq!(np.program.scalar(*lhs).name, "s");
    }

    #[test]
    fn candidates_user_temp() {
        // B is written then read, only in one block; A is live-in; C is
        // written but never read (output).
        let np = norm(&format!("{P} begin [R] B := A + A; [R] C := B * B; end"));
        let cand = contraction_candidates(&np);
        let names = np.program.array_names();
        assert_eq!(cand[names["A"].0 as usize], None);
        assert_eq!(cand[names["B"].0 as usize], Some(0));
        assert_eq!(cand[names["C"].0 as usize], None);
    }

    #[test]
    fn candidates_cross_block_array_rejected() {
        let np = norm(&format!(
            "{P} begin [R] B := A; for k := 1 to 2 do [R] C := B; s := +<< [R] C; end; end"
        ));
        let cand = contraction_candidates(&np);
        let names = np.program.array_names();
        assert_eq!(
            cand[names["B"].0 as usize], None,
            "B is read in another block"
        );
        assert_eq!(
            cand[names["C"].0 as usize],
            Some(1),
            "C lives within the loop body block"
        );
    }

    #[test]
    fn candidates_read_before_write_rejected() {
        // Fragment (3)-style: C is read (stale value) before being written.
        let np = norm(&format!(
            "{P} begin [R] B := A + C@w; [R] C := A * A; s := +<< [R] B; end"
        ));
        let cand = contraction_candidates(&np);
        let names = np.program.array_names();
        assert_eq!(cand[names["C"].0 as usize], None);
        assert_eq!(cand[names["B"].0 as usize], Some(0));
    }

    #[test]
    fn compiler_temps_are_candidates() {
        let np = norm(&format!("{P} begin [R] A := A + A; end"));
        let cand = contraction_candidates(&np);
        let tid = np.program.array_by_name("_t0").unwrap();
        assert_eq!(cand[tid.0 as usize], Some(0));
    }

    #[test]
    fn empty_then_else_blocks() {
        let np = norm(&format!("{P} begin if s > 0.0 then [R] A := 1.0; end; end"));
        assert_eq!(np.blocks.len(), 1);
        let NStmt::If {
            then_body,
            else_body,
            ..
        } = &np.body[0]
        else {
            panic!()
        };
        assert_eq!(then_body.len(), 1);
        assert!(else_body.is_empty());
    }
}
