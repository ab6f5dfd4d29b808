//! A lazy array frontend: build programs at *runtime*, fuse them as a
//! batch.
//!
//! The paper's pipeline (normalize → ASDG → FUSION-FOR-CONTRACTION →
//! scalarize) consumes whole programs, which traditionally come from
//! source files. This crate records array computations as a host program
//! runs — element-wise arithmetic, constant shifts, and reductions build
//! an expression graph instead of executing eagerly — and lowers the
//! recorded batch into an ordinary [`zlang::ir::Program`] on flush. The
//! optimizer then sees every statement of the batch at once, so
//! cross-statement fusion and array contraction apply to code that never
//! existed as source text.
//!
//! Recording is deterministic: arrays, regions, and scalars are named in
//! creation order (`a0`, `R0`, `s0`, ...), so two identical recordings
//! produce structurally identical programs — and therefore identical
//! [`fusion_core::hash::program_hash`] digests, which is what makes the
//! serving path's compile cache effective for lazy workloads: a hot loop
//! re-recording the same batch hits the cache and skips the pipeline
//! entirely.
//!
//! ```
//! use fusion_core::{CompileCache, RunRequest};
//! use lazy::Batch;
//!
//! let mut b = Batch::new("smooth");
//! let interior = b.region(&[(2, 63)]);
//! let grid = b.region(&[(1, 64)]);
//! let a = b.store(grid, 2.0);
//! // Three-point stencil over the interior; reads stay in bounds.
//! let s = b.store(interior, (a.at(&[-1]) + a + a.at(&[1])) / 3.0);
//! let total = b.sum(interior, s);
//!
//! let cache = CompileCache::new();
//! let (out, hit) = b.flush(&RunRequest::new(), &cache).unwrap();
//! assert!(!hit, "first flush compiles");
//! assert_eq!(out.value(total), 124.0);
//! let (out2, hit) = b.flush(&RunRequest::new(), &cache).unwrap();
//! assert!(hit, "second flush reuses the compiled batch");
//! assert_eq!(out2.value(total).to_bits(), out.value(total).to_bits());
//! ```

use fusion_core::supervisor::SupervisorError;
use fusion_core::{CompileCache, RunRequest};
use loopir::{ExecError, NoopObserver, RunOutcome};
use std::ops::{Add, Div, Mul, Neg, Sub};
use zlang::ast::{BinOp, ReduceOp, Type, UnOp};
use zlang::ir::{
    ArrayDecl, ArrayExpr, ArrayId, ArrayStmt, Extent, LinExpr, Offset, Program, RegionDecl,
    RegionId, ScalarDecl, ScalarId, Stmt,
};

/// A handle to a recorded region (a constant rectangular index set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    id: RegionId,
    rank: usize,
}

/// A handle to a materialized array — the result of a [`Batch::store`].
///
/// Reading it in a later expression uses the array at zero offset;
/// [`Arr::at`] shifts the read by a constant offset (zlang's `A@[d]`).
#[derive(Debug, Clone, Copy)]
pub struct Arr {
    id: ArrayId,
    rank: usize,
}

impl Arr {
    /// This array read at a constant offset: at iteration point `i` the
    /// statement reads `self[i + offset]`.
    ///
    /// # Panics
    ///
    /// Panics if `offset.len()` differs from the array's rank.
    pub fn at(&self, offset: &[i64]) -> Expr {
        assert_eq!(
            offset.len(),
            self.rank,
            "lazy: offset {offset:?} has rank {}, array has rank {}",
            offset.len(),
            self.rank
        );
        Expr(ArrayExpr::Read(self.id, Offset(offset.to_vec())))
    }
}

/// A handle to a recorded scalar — the result of a reduction. Read the
/// final value out of an [`Evaluated`] with [`Evaluated::value`], or use
/// it inside later expressions (it broadcasts over the region).
#[derive(Debug, Clone, Copy)]
pub struct Scl {
    id: ScalarId,
}

/// A recorded element-wise expression: the right-hand side of a future
/// [`Batch::store`] or reduction. Built by the arithmetic operators over
/// [`Arr`], [`Scl`], `f64`, and other `Expr`s.
#[derive(Debug, Clone)]
pub struct Expr(ArrayExpr);

impl From<Arr> for Expr {
    fn from(a: Arr) -> Self {
        Expr(ArrayExpr::Read(a.id, Offset::zero(a.rank)))
    }
}

impl From<Scl> for Expr {
    fn from(s: Scl) -> Self {
        Expr(ArrayExpr::ScalarRef(s.id))
    }
}

impl From<f64> for Expr {
    fn from(v: f64) -> Self {
        Expr(ArrayExpr::Const(v))
    }
}

macro_rules! lazy_binop {
    ($trait:ident, $method:ident, $op:expr) => {
        impl<T: Into<Expr>> $trait<T> for Expr {
            type Output = Expr;
            fn $method(self, rhs: T) -> Expr {
                Expr(ArrayExpr::Binary(
                    $op,
                    Box::new(self.0),
                    Box::new(rhs.into().0),
                ))
            }
        }
        impl<T: Into<Expr>> $trait<T> for Arr {
            type Output = Expr;
            fn $method(self, rhs: T) -> Expr {
                Expr::from(self).$method(rhs)
            }
        }
        impl<T: Into<Expr>> $trait<T> for Scl {
            type Output = Expr;
            fn $method(self, rhs: T) -> Expr {
                Expr::from(self).$method(rhs)
            }
        }
        impl $trait<Expr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Expr) -> Expr {
                Expr::from(self).$method(rhs)
            }
        }
        impl $trait<Arr> for f64 {
            type Output = Expr;
            fn $method(self, rhs: Arr) -> Expr {
                Expr::from(self).$method(Expr::from(rhs))
            }
        }
    };
}

lazy_binop!(Add, add, BinOp::Add);
lazy_binop!(Sub, sub, BinOp::Sub);
lazy_binop!(Mul, mul, BinOp::Mul);
lazy_binop!(Div, div, BinOp::Div);

impl Neg for Expr {
    type Output = Expr;
    fn neg(self) -> Expr {
        Expr(ArrayExpr::Unary(UnOp::Neg, Box::new(self.0)))
    }
}

impl Neg for Arr {
    type Output = Expr;
    fn neg(self) -> Expr {
        -Expr::from(self)
    }
}

/// The recording context: a batch of array computations waiting to be
/// fused, compiled, and run as one program.
#[derive(Debug, Clone)]
pub struct Batch {
    program: Program,
}

impl Batch {
    /// An empty batch. `name` becomes the program name (part of the
    /// structural hash, so batches with different names never share
    /// cache entries).
    pub fn new(name: &str) -> Self {
        Batch {
            program: Program {
                name: name.to_string(),
                configs: Vec::new(),
                regions: Vec::new(),
                arrays: Vec::new(),
                scalars: Vec::new(),
                body: Vec::new(),
                names: Default::default(),
            },
        }
    }

    /// Declares a rectangular region with constant inclusive bounds, one
    /// `(lo, hi)` pair per dimension.
    ///
    /// # Panics
    ///
    /// Panics on an empty bounds list or a dimension with `lo > hi`.
    pub fn region(&mut self, bounds: &[(i64, i64)]) -> Region {
        assert!(
            !bounds.is_empty(),
            "lazy: a region needs at least one dimension"
        );
        for &(lo, hi) in bounds {
            assert!(lo <= hi, "lazy: empty region dimension [{lo}..{hi}]");
        }
        let id = RegionId(self.program.regions.len() as u32);
        let name = format!("R{}", id.0);
        self.program.names.register_region(&name, id);
        self.program.regions.push(RegionDecl {
            name,
            extents: bounds
                .iter()
                .map(|&(lo, hi)| Extent {
                    lo: LinExpr::constant(lo),
                    hi: LinExpr::constant(hi),
                })
                .collect(),
        });
        Region {
            id,
            rank: bounds.len(),
        }
    }

    /// The current iteration index along dimension `dim` (0-based), as an
    /// expression — zlang's `#1`, `#2`, ... index generators.
    pub fn index(&self, dim: u8) -> Expr {
        Expr(ArrayExpr::Index(dim))
    }

    /// Records an element-wise store: a fresh array over `region`,
    /// assigned `expr` at every point of `region`. This is the lazy
    /// analogue of `[R] a := expr;` — nothing executes until
    /// [`Batch::flush`].
    ///
    /// # Panics
    ///
    /// Panics (with the offending array and offset) if any read in
    /// `expr` can fall outside the read array's declared region for some
    /// point of `region`, if any read or index generator has the wrong
    /// rank, or if a scalar is read before the statement recording it.
    pub fn store(&mut self, region: Region, expr: impl Into<Expr>) -> Arr {
        let rhs = expr.into().0;
        self.check_rhs(region, &rhs);
        let id = ArrayId(self.program.arrays.len() as u32);
        let name = format!("a{}", id.0);
        self.program.names.register_array(&name, id);
        self.program.arrays.push(ArrayDecl {
            name,
            region: region.id,
            compiler_temp: false,
            collapsed: Vec::new(),
        });
        self.program.body.push(Stmt::Array(ArrayStmt {
            region: region.id,
            lhs: id,
            rhs,
        }));
        Arr {
            id,
            rank: region.rank,
        }
    }

    /// Records a sum reduction of `expr` over `region` (`+<< [R] expr`).
    pub fn sum(&mut self, region: Region, expr: impl Into<Expr>) -> Scl {
        self.reduce(ReduceOp::Sum, region, expr.into())
    }

    /// Records a product reduction (`*<< [R] expr`).
    pub fn prod(&mut self, region: Region, expr: impl Into<Expr>) -> Scl {
        self.reduce(ReduceOp::Prod, region, expr.into())
    }

    /// Records a max reduction (`max<< [R] expr`).
    pub fn max(&mut self, region: Region, expr: impl Into<Expr>) -> Scl {
        self.reduce(ReduceOp::Max, region, expr.into())
    }

    /// Records a min reduction (`min<< [R] expr`).
    pub fn min(&mut self, region: Region, expr: impl Into<Expr>) -> Scl {
        self.reduce(ReduceOp::Min, region, expr.into())
    }

    fn reduce(&mut self, op: ReduceOp, region: Region, expr: Expr) -> Scl {
        let arg = expr.0;
        self.check_rhs(region, &arg);
        let id = ScalarId(self.program.scalars.len() as u32);
        let name = format!("s{}", id.0);
        self.program.names.register_scalar(&name, id);
        self.program.scalars.push(ScalarDecl {
            name,
            ty: Type::Float,
        });
        self.program.body.push(Stmt::Reduce {
            lhs: id,
            op,
            region: region.id,
            arg,
        });
        Scl { id }
    }

    /// Number of statements recorded so far.
    pub fn recorded(&self) -> usize {
        self.program.body.len()
    }

    /// The recorded batch as an array-level IR program — exactly what a
    /// source file compiling to the same statements would produce.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The recorded batch as zlang source text. Compiling this source
    /// yields a program equal to [`Batch::program`] (and with an equal
    /// structural hash) — the bridge for differential testing against
    /// the static frontend.
    pub fn source(&self) -> String {
        zlang::pretty::source(&self.program)
    }

    /// Flushes through the serving path: look the batch up in `cache`
    /// (compiling and publishing on a miss), then execute under `req`'s
    /// engine, the compile and the run under the one deadline instant
    /// measured from this call. Returns the outcome and whether the
    /// compile was a cache hit. A recording has no source text, so it enters the
    /// cache at the optimize stage: the program is hashed once per flush,
    /// and a miss that differs from an earlier flush only in `req`'s
    /// engine reuses that flush's optimizer run.
    ///
    /// # Errors
    ///
    /// Compile/verify failures from the cache and runtime faults from
    /// the engine, as [`ExecError`].
    pub fn flush(
        &self,
        req: &RunRequest,
        cache: &CompileCache,
    ) -> Result<(Evaluated, bool), ExecError> {
        let deadline = req.deadline_from_now();
        let (cached, hit) = cache.get_or_compile_by(&self.program, req, deadline)?;
        let mut exec = cached.executor(req.exec_opts());
        exec.set_deadline(deadline);
        let outcome = exec.execute(&mut NoopObserver)?;
        Ok((Evaluated { outcome }, hit))
    }

    /// Runs the batch once under `req`'s fault-tolerant
    /// [`Supervisor`](fusion_core::Supervisor) — no cache, full
    /// degradation ladder.
    ///
    /// # Errors
    ///
    /// Only when every ladder rung faults.
    pub fn run(&self, req: &RunRequest) -> Result<Evaluated, SupervisorError> {
        let run = req.supervisor().run_program(&self.program)?;
        Ok(Evaluated {
            outcome: run.outcome,
        })
    }

    /// Validates that `rhs`, executed at every point of `target`, stays
    /// inside every read array's declared region; also checks read and
    /// index-generator ranks and scalar recording order.
    fn check_rhs(&self, target: Region, rhs: &ArrayExpr) {
        let bounds = |r: RegionId| -> Vec<(i64, i64)> {
            self.program.regions[r.0 as usize]
                .extents
                .iter()
                .map(|e| (e.lo.base, e.hi.base))
                .collect()
        };
        let tb = bounds(target.id);
        let walk = |e: &ArrayExpr| {
            self.walk(e, &mut |node| match node {
                ArrayExpr::Read(a, off) => {
                    let decl = self
                        .program
                        .arrays
                        .get(a.0 as usize)
                        .unwrap_or_else(|| panic!("lazy: read of undeclared array {a:?}"));
                    let ab = bounds(decl.region);
                    assert_eq!(
                        off.0.len(),
                        tb.len(),
                        "lazy: `{}` (rank {}) read from a rank-{} statement",
                        decl.name,
                        off.0.len(),
                        tb.len()
                    );
                    for (d, &delta) in off.0.iter().enumerate() {
                        let (tlo, thi) = tb[d];
                        let (alo, ahi) = ab[d];
                        assert!(
                            tlo + delta >= alo && thi + delta <= ahi,
                            "lazy: read of `{}` at offset {:?} reaches \
                             [{}..{}] in dimension {d}, outside its region [{alo}..{ahi}] \
                             (store into a larger region first)",
                            decl.name,
                            off.0,
                            tlo + delta,
                            thi + delta,
                        );
                    }
                }
                ArrayExpr::Index(d) => {
                    assert!(
                        (*d as usize) < tb.len(),
                        "lazy: index generator for dimension {d} in a rank-{} statement",
                        tb.len()
                    );
                }
                ArrayExpr::ScalarRef(s) => {
                    assert!(
                        (s.0 as usize) < self.program.scalars.len(),
                        "lazy: reference to unrecorded scalar {s:?}"
                    );
                }
                _ => {}
            });
        };
        walk(rhs);
    }

    fn walk(&self, e: &ArrayExpr, f: &mut impl FnMut(&ArrayExpr)) {
        f(e);
        match e {
            ArrayExpr::Unary(_, inner) => self.walk(inner, f),
            ArrayExpr::Binary(_, l, r) => {
                self.walk(l, f);
                self.walk(r, f);
            }
            ArrayExpr::Call(_, args) => {
                for a in args {
                    self.walk(a, f);
                }
            }
            _ => {}
        }
    }
}

/// The results of one executed batch.
#[derive(Debug, Clone)]
pub struct Evaluated {
    /// The raw outcome (scalars + execution counters).
    pub outcome: RunOutcome,
}

impl Evaluated {
    /// The final value of a recorded reduction.
    pub fn value(&self, s: Scl) -> f64 {
        self.outcome.scalar(s.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::hash::program_hash;
    use fusion_core::{Level, Pipeline};
    use loopir::Engine;

    /// A stencil batch with a user temporary the optimizer can contract.
    fn stencil() -> (Batch, Scl) {
        let mut b = Batch::new("stencil");
        let grid = b.region(&[(1, 32)]);
        let interior = b.region(&[(2, 31)]);
        let a = b.store(grid, 1.0);
        let t = b.store(interior, (a.at(&[-1]) + a.at(&[1])) * 0.5);
        let r = b.store(interior, t + 1.0);
        let s = b.sum(interior, r);
        (b, s)
    }

    #[test]
    fn records_and_runs_a_stencil() {
        let (b, s) = stencil();
        assert_eq!(b.recorded(), 4);
        let out = b.run(&RunRequest::new()).unwrap();
        assert_eq!(out.value(s), 60.0); // 30 interior points of 2.0
    }

    #[test]
    fn recorded_batch_fuses_and_contracts() {
        let (b, _) = stencil();
        let opt = Pipeline::new(Level::C2).optimize(b.program());
        // `t` is consumed only by the next statement at matching offsets.
        assert!(
            opt.contracted_names().iter().any(|n| n == "a1"),
            "{:?}",
            opt.contracted_names()
        );
    }

    #[test]
    fn identical_recordings_hash_identically_and_hit_the_cache() {
        let (b1, _) = stencil();
        let (b2, s2) = stencil();
        assert_eq!(b1.program(), b2.program());
        assert_eq!(program_hash(b1.program()), program_hash(b2.program()));
        let cache = CompileCache::new();
        let req = RunRequest::new().with_engine(Engine::Vm);
        let (out1, hit1) = b1.flush(&req, &cache).unwrap();
        let (out2, hit2) = b2.flush(&req, &cache).unwrap();
        assert!(!hit1 && hit2);
        assert_eq!(
            out1.value(s2).to_bits(),
            out2.value(s2).to_bits(),
            "hit must be bit-identical"
        );
        // A re-recording on another VM engine name is a hit on the same
        // artifact; only the tree-walker addresses another one, lowered
        // from the first flush's optimizer run.
        let simd = RunRequest::new().with_engine(Engine::VmSimd);
        let (out3, hit3) = b2.flush(&simd, &cache).unwrap();
        assert!(hit3);
        assert_eq!(out3.value(s2).to_bits(), out1.value(s2).to_bits());
        let interp = RunRequest::new().with_engine(Engine::Interp);
        let (out4, hit4) = b2.flush(&interp, &cache).unwrap();
        assert!(!hit4);
        assert_eq!(out4.value(s2).to_bits(), out1.value(s2).to_bits());
        let stats = cache.stats();
        assert_eq!((stats.optimize_misses, stats.optimize_hits), (1, 1));
    }

    #[test]
    fn source_round_trips_to_an_equal_program() {
        let (b, _) = stencil();
        let reparsed = zlang::compile(&b.source()).unwrap();
        assert_eq!(*b.program(), reparsed);
        assert_eq!(program_hash(b.program()), program_hash(&reparsed));
    }

    #[test]
    fn scalar_results_broadcast_into_later_stores() {
        let mut b = Batch::new("normalize");
        let r = b.region(&[(1, 8)]);
        let a = b.store(r, 3.0);
        let total = b.sum(r, a);
        let scaled = b.store(r, a / total);
        let check = b.sum(r, scaled);
        let out = b.run(&RunRequest::new()).unwrap();
        assert_eq!(out.value(check), 1.0);
        let _ = scaled;
    }

    #[test]
    #[should_panic(expected = "outside its region")]
    fn out_of_bounds_read_panics_at_record_time() {
        let mut b = Batch::new("oob");
        let r = b.region(&[(1, 8)]);
        let a = b.store(r, 1.0);
        let _ = b.store(r, a.at(&[1]));
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn rank_mismatch_panics_at_record_time() {
        let mut b = Batch::new("rank");
        let r1 = b.region(&[(1, 8)]);
        let r2 = b.region(&[(1, 4), (1, 4)]);
        let a = b.store(r1, 1.0);
        let _ = b.store(r2, a.at(&[0]));
    }

    #[test]
    fn two_dimensional_batches_work() {
        let mut b = Batch::new("mat");
        let m = b.region(&[(1, 4), (1, 4)]);
        let a = b.store(m, 2.0);
        let sq = b.store(m, a * a - 1.0);
        let s = b.sum(m, sq);
        let out = b.run(&RunRequest::new()).unwrap();
        assert_eq!(out.value(s), 48.0);
        let _ = sq;
    }
}
