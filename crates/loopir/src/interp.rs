//! A sequential interpreter for the scalarized IR.
//!
//! The interpreter executes a [`ScalarProgram`] under a config binding,
//! modelling arrays as row-major buffers in a flat byte address space.
//! Every element load/store is reported to an [`Observer`] (the `machine`
//! crate's cache simulator implements this) together with its byte address,
//! so cache behavior can be measured exactly rather than estimated.

use crate::ir::{EExpr, ElemRef, LStmt, LoopNest, ScalarProgram};
use std::fmt;
use std::time::Instant;
use zlang::ast::{BinOp, ReduceOp, UnOp};
use zlang::ir::{ArrayId, ConfigBinding, Offset, RegionId, ScalarExpr, ScalarId};

/// Receives the interpreter's memory-access and arithmetic stream.
///
/// Addresses are byte addresses of 8-byte (f64) elements in a flat space;
/// distinct arrays occupy disjoint, cache-line-aligned extents.
pub trait Observer {
    /// An 8-byte element load at `addr`.
    fn load(&mut self, addr: u64);
    /// An 8-byte element store at `addr`.
    fn store(&mut self, addr: u64);
    /// `n` floating-point operations.
    fn flops(&mut self, n: u64);
    /// A loop nest is about to execute (once per dynamic execution).
    /// `nest` is its id: its index in the running program's
    /// [`ScalarProgram::nests`], the same under every engine. The
    /// simulated parallel runtime uses this to account ghost-region
    /// communication and overlap.
    fn nest_begin(&mut self, _nest: u32) {}
    /// A standalone reduction nest is about to execute.
    fn reduce_begin(&mut self) {}
    /// A lane run of the [`Vm`](crate::Vm) has executed the positions `at`
    /// of its loops, each of which issues `events` in that order. The
    /// default replays them through [`load`](Observer::load),
    /// [`store`](Observer::store) and [`flops`](Observer::flops) position
    /// by position, which is exactly the sequence of calls scalar dispatch
    /// of the same loops makes: an observer that does not override this
    /// cannot tell at which width a program ran.
    fn strip(&mut self, events: &[StripEvent], at: Strip) {
        for (row, col) in at.positions() {
            for event in events {
                match *event {
                    StripEvent::Load(a) => self.load(a.at(row, col)),
                    StripEvent::Store(a) => self.store(a.at(row, col)),
                    StripEvent::Flops(n) => self.flops(n),
                }
            }
        }
    }
    /// Whether this observer consumes the ordered per-element address
    /// stream. Defaults to `true`. Every sequential execution strategy
    /// delivers that order, lane runs included ([`Observer::strip`]), so
    /// the one reader is the parallel tiled VM
    /// ([`Engine::VmPar`](crate::Engine::VmPar)): tiles run concurrently
    /// and report no addresses, so ladders only fan out under observers
    /// that return `false` (like [`NoopObserver`]) and run on the calling
    /// thread otherwise.
    fn wants_addresses(&self) -> bool {
        true
    }
}

/// One thing every position of a lane run reports to the observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StripEvent {
    /// An element load.
    Load(StripAccess),
    /// An element store.
    Store(StripAccess),
    /// This many floating-point operations.
    Flops(u64),
}

/// The address stream of one memory access of a lane run: an affine
/// function of the position's row and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StripAccess {
    /// Byte address at row 0, column 0 of the run.
    pub addr: u64,
    /// Bytes the address advances per row.
    pub row: i64,
    /// Bytes the address advances per column.
    pub col: i64,
}

impl StripAccess {
    /// The byte address at a position of the run.
    #[inline]
    pub fn at(self, row: i64, col: i64) -> u64 {
        self.addr
            .wrapping_add_signed(row * self.row + col * self.col)
    }
}

/// The positions one [`Observer::strip`] call covers: `len` consecutive
/// positions from number `first` of a run whose positions are numbered
/// row-major over rows of `cols` columns (a strip may cross row ends).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Strip {
    /// The first position's number in the run.
    pub first: u64,
    /// How many positions.
    pub len: usize,
    /// Columns per row of the run (at least 1).
    pub cols: u64,
}

impl Strip {
    /// The `(row, column)` of each position, in execution order.
    pub fn positions(self) -> impl Iterator<Item = (i64, i64)> {
        let cols = self.cols as i64;
        let mut next = (
            (self.first / self.cols) as i64,
            (self.first % self.cols) as i64,
        );
        (0..self.len).map(move |_| {
            let at = next;
            next = if at.1 + 1 == cols {
                (at.0 + 1, 0)
            } else {
                (at.0, at.1 + 1)
            };
            at
        })
    }
}

/// An observer that ignores everything (pure functional execution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn load(&mut self, _addr: u64) {}
    fn store(&mut self, _addr: u64) {}
    fn flops(&mut self, _n: u64) {}
    fn strip(&mut self, _events: &[StripEvent], _at: Strip) {}
    fn wants_addresses(&self) -> bool {
        false
    }
}

/// Counters accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Array element loads.
    pub loads: u64,
    /// Array element stores.
    pub stores: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Loop-nest iteration points executed.
    pub points: u64,
    /// Number of arrays that were allocated (touched).
    pub arrays_allocated: usize,
    /// Peak bytes of array storage allocated.
    pub peak_bytes: u64,
}

/// What class of failure an [`ExecError`] is — the execution supervisor
/// keys its degradation decisions off this, so every error site must tag
/// itself honestly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum ErrorKind {
    /// An out-of-region array access (a program bug, not an engine fault).
    Access,
    /// The bytecode compiler cannot lower the program (e.g. rank above the
    /// VM's limit).
    Lower,
    /// The wall-clock deadline passed, before the run started or
    /// mid-execution.
    Deadline,
    /// The engine trapped (an internal invariant failed at run time, or an
    /// injected fault).
    Trap,
    /// The bytecode verifier rejected the program.
    Verify,
    /// The simulated communication layer failed (message lost after all
    /// retries).
    Comm,
    /// Anything else.
    #[default]
    Other,
}

/// An execution error (out-of-region access, lowering failure, passed
/// deadline, trap, verification rejection, or comm failure).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecError {
    /// Which class of failure this is.
    pub kind: ErrorKind,
    /// Description of the failure.
    pub message: String,
}

impl ExecError {
    /// Creates an error of a given kind.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        ExecError {
            kind,
            message: message.into(),
        }
    }

    /// An out-of-region access error.
    pub fn access(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Access, message)
    }

    /// A lowering (bytecode compilation) error.
    pub fn lower(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Lower, message)
    }

    /// A deadline-exceeded error.
    pub fn deadline() -> Self {
        ExecError::new(
            ErrorKind::Deadline,
            "execution deadline exceeded (raise the wall-clock budget)",
        )
    }

    /// An engine trap.
    pub fn trap(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Trap, message)
    }

    /// A bytecode-verification rejection.
    pub fn verify(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Verify, message)
    }

    /// A communication failure.
    pub fn comm(message: impl Into<String>) -> Self {
        ExecError::new(ErrorKind::Comm, message)
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

struct ArrayBuf {
    base: u64,
    lo: Vec<i64>,
    dims: Vec<i64>,
    /// Dimensions collapsed by dimension contraction: extent 1, index
    /// ignored.
    collapsed: Vec<u8>,
    data: Vec<f64>,
}

impl ArrayBuf {
    /// Flat index of `idx + off`, or `None` if out of the declared region.
    fn flat(&self, idx: &[i64], off: &Offset) -> Option<usize> {
        let mut f: i64 = 0;
        // Index-based: `d` simultaneously indexes dims, lo, idx, and off.
        #[allow(clippy::needless_range_loop)]
        for d in 0..self.dims.len() {
            if self.collapsed.contains(&(d as u8)) {
                continue; // extent-1 dimension: contributes index 0
            }
            let i = idx[d] + off.0[d] - self.lo[d];
            if i < 0 || i >= self.dims[d] {
                return None;
            }
            f = f * self.dims[d] + i;
        }
        Some(f as usize)
    }

    fn addr(&self, flat: usize) -> u64 {
        self.base + (flat as u64) * 8
    }
}

/// The interpreter.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use loopir::{Interp, NoopObserver};
/// use zlang::ir::ConfigBinding;
/// // Build a trivial scalarized program by hand: one nest copying A into B.
/// let p = zlang::compile(
///     "program t; region R = [1..4]; var A, B : [R] float; begin [R] A := 2.0; end")?;
/// let nest = loopir::LoopNest {
///     region: zlang::ir::RegionId(0),
///     structure: vec![1],
///     body: vec![loopir::ElemStmt {
///         target: loopir::ElemRef::Array(zlang::ir::ArrayId(0), zlang::ir::Offset(vec![0])),
///         rhs: loopir::EExpr::Const(2.0),
///     }],
///     cluster: 0,
///     temps: 0,
/// };
/// let sp = loopir::ScalarProgram { program: p, stmts: vec![loopir::LStmt::Nest(nest)] };
/// let mut interp = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
/// let stats = interp.run(&mut NoopObserver)?;
/// assert_eq!(stats.stores, 4);
/// assert_eq!(interp.array(zlang::ir::ArrayId(0)).unwrap(), &[2.0; 4]);
/// # Ok(())
/// # }
/// ```
pub struct Interp<'p> {
    prog: &'p ScalarProgram,
    /// `prog.nests()`: a nest's index here is its id.
    nests: Vec<&'p LoopNest>,
    binding: ConfigBinding,
    arrays: Vec<Option<ArrayBuf>>,
    scalars: Vec<f64>,
    temps: Vec<f64>,
    stats: RunStats,
    next_base: u64,
    /// `(dim, value)` bindings from enclosing `LStmt::Outer` loops.
    outer_bound: Vec<(u8, i64)>,
    deadline: Option<Instant>,
    /// Points executed this run, used to pace the deadline check.
    ticks: u64,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for a program under a config binding.
    pub fn new(prog: &'p ScalarProgram, binding: ConfigBinding) -> Self {
        Interp {
            prog,
            nests: prog.nests(),
            binding,
            arrays: (0..prog.program.arrays.len()).map(|_| None).collect(),
            scalars: vec![0.0; prog.program.scalars.len()],
            temps: Vec::new(),
            stats: RunStats::default(),
            next_base: 4096,
            outer_bound: Vec::new(),
            deadline: None,
            ticks: 0,
        }
    }

    /// Sets the wall-clock instant after which subsequent runs stop with
    /// a [`Deadline`](ErrorKind::Deadline) error, or `None` for no
    /// deadline. [`Interp::run`] checks it once before the first
    /// statement, then every 4096 loop-nest iteration points.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Counts one iteration point, polling the deadline.
    #[inline]
    fn spend_point(&mut self) -> Result<(), ExecError> {
        self.ticks += 1;
        // The deadline needs a clock read, so check it only every 4096
        // points — more than often enough at nanoseconds per point.
        if self.ticks & 0xFFF == 0 {
            self.check_deadline()?;
        }
        Ok(())
    }

    fn check_deadline(&self) -> Result<(), ExecError> {
        match self.deadline {
            Some(d) if Instant::now() >= d => Err(ExecError::deadline()),
            _ => Ok(()),
        }
    }

    /// Executes the program, reporting accesses to `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on an out-of-region array access (declare
    /// arrays with halos large enough for their `@` offsets), or when the
    /// deadline ([`Interp::set_deadline`]) has passed, before the first
    /// statement or at a poll.
    pub fn run(&mut self, obs: &mut (impl Observer + ?Sized)) -> Result<RunStats, ExecError> {
        self.check_deadline()?;
        self.ticks = 0;
        let stmts = &self.prog.stmts;
        self.exec_stmts(stmts, obs)?;
        Ok(self.stats)
    }

    /// The contents of an array, if it was allocated during the run.
    pub fn array(&self, id: ArrayId) -> Option<&[f64]> {
        self.arrays[id.0 as usize]
            .as_ref()
            .map(|b| b.data.as_slice())
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The config binding in use.
    pub fn binding(&self) -> &ConfigBinding {
        &self.binding
    }

    fn ensure_alloc(&mut self, id: ArrayId) -> Result<(), ExecError> {
        if self.arrays[id.0 as usize].is_some() {
            return Ok(());
        }
        let decl = self.prog.program.array(id);
        let region = self.prog.program.region(decl.region);
        let bounds = region.bounds(&self.binding);
        let mut lo = Vec::with_capacity(bounds.len());
        let mut dims = Vec::with_capacity(bounds.len());
        let mut n: i64 = 1;
        for (d, &(l, h)) in bounds.iter().enumerate() {
            // Empty dimensions allocate zero elements; loops over the
            // region never execute, so no access can reach them.
            let extent = (h - l + 1).max(0);
            let collapsed = decl.collapsed.contains(&(d as u8));
            lo.push(l);
            dims.push(if collapsed { extent.min(1) } else { extent });
            if !collapsed {
                n = n.saturating_mul(extent);
            }
        }
        let bytes = (n as u64) * 8;
        // Cache-line align each array's base, staggering consecutive
        // allocations across cache sets (as a real allocator's headers and
        // padding do) so power-of-two array sizes do not alias
        // pathologically in direct-mapped caches.
        let stagger = ((self.stats.arrays_allocated as u64 * 7) % 128) * 64;
        let base = ((self.next_base + 63) & !63) + stagger;
        self.next_base = base + bytes;
        self.arrays[id.0 as usize] = Some(ArrayBuf {
            base,
            lo,
            dims,
            collapsed: decl.collapsed.clone(),
            data: vec![0.0; n as usize],
        });
        self.stats.arrays_allocated += 1;
        self.stats.peak_bytes += bytes;
        Ok(())
    }

    fn region_bounds(&self, r: RegionId) -> Vec<(i64, i64)> {
        self.prog.program.region(r).bounds(&self.binding)
    }

    /// The run-time value of a config variable: integer configs come from
    /// the binding (overridable), float configs are compile-time constants.
    fn config_value(&self, c: zlang::ir::ConfigId) -> f64 {
        let d = &self.prog.program.configs[c.0 as usize];
        if d.ty == zlang::ast::Type::Int {
            self.binding.get(c) as f64
        } else {
            d.default
        }
    }

    fn scalar_expr(&self, e: &ScalarExpr) -> f64 {
        match e {
            ScalarExpr::Const(v) => *v,
            ScalarExpr::ScalarRef(s) => self.scalars[s.0 as usize],
            ScalarExpr::ConfigRef(c) => self.config_value(*c),
            ScalarExpr::Unary(UnOp::Neg, inner) => -self.scalar_expr(inner),
            ScalarExpr::Binary(op, l, r) => binop(*op, self.scalar_expr(l), self.scalar_expr(r)),
            ScalarExpr::Call(i, args) => {
                let vals: Vec<f64> = args.iter().map(|a| self.scalar_expr(a)).collect();
                i.eval(&vals)
            }
        }
    }

    fn exec_stmts(
        &mut self,
        stmts: &[LStmt],
        obs: &mut (impl Observer + ?Sized),
    ) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                LStmt::Nest(n) => self.exec_nest(n, obs)?,
                LStmt::Scalar { lhs, rhs } => {
                    self.scalars[lhs.0 as usize] = self.scalar_expr(rhs);
                }
                LStmt::ReduceNest {
                    lhs,
                    op,
                    region,
                    structure: _,
                    rhs,
                } => {
                    self.exec_reduce(*lhs, *op, *region, rhs, obs)?;
                }
                LStmt::Outer {
                    region,
                    dim,
                    reverse,
                    body,
                } => {
                    let (lo, hi) = self.region_bounds(*region)[*dim as usize];
                    let iter: Box<dyn Iterator<Item = i64>> = if *reverse {
                        Box::new((lo..=hi).rev())
                    } else {
                        Box::new(lo..=hi)
                    };
                    for v in iter {
                        self.outer_bound.push((*dim, v));
                        let r = self.exec_stmts(body, obs);
                        self.outer_bound.pop();
                        r?;
                    }
                }
                LStmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                } => {
                    let lo = self.scalar_expr(lo).round() as i64;
                    let hi = self.scalar_expr(hi).round() as i64;
                    let iter: Box<dyn Iterator<Item = i64>> = if *down {
                        Box::new((hi..=lo).rev())
                    } else {
                        Box::new(lo..=hi)
                    };
                    for k in iter {
                        self.scalars[var.0 as usize] = k as f64;
                        self.exec_stmts(body, obs)?;
                    }
                }
                LStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    if self.scalar_expr(cond) != 0.0 {
                        self.exec_stmts(then_body, obs)?;
                    } else {
                        self.exec_stmts(else_body, obs)?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Builds the iteration order for a region under a structure vector:
    /// per *loop* (outer..inner), the dimension it iterates and direction.
    fn loop_order(&self, region: RegionId, structure: &[i8]) -> Vec<(usize, bool, i64, i64)> {
        let bounds = self.region_bounds(region);
        structure
            .iter()
            .map(|&p| {
                let dim = (p.unsigned_abs() as usize) - 1;
                let (lo, hi) = bounds[dim];
                (dim, p > 0, lo, hi)
            })
            .collect()
    }

    fn exec_nest(
        &mut self,
        nest: &LoopNest,
        obs: &mut (impl Observer + ?Sized),
    ) -> Result<(), ExecError> {
        // Pre-allocate every array the nest touches.
        for (a, _) in nest.loads() {
            self.ensure_alloc(a)?;
        }
        for (a, _) in nest.stores() {
            self.ensure_alloc(a)?;
        }
        if self.temps.len() < nest.temps as usize {
            self.temps.resize(nest.temps as usize, 0.0);
        }
        obs.nest_begin(crate::ir::nest_id(&self.nests, nest));
        let order = self.loop_order(nest.region, &nest.structure);
        if order.iter().any(|&(_, _, lo, hi)| hi < lo) {
            return Ok(()); // empty region
        }
        let rank = order.len();
        let full_rank = self.prog.program.region(nest.region).rank();
        let mut idx = vec![0i64; full_rank];
        // Dimensions bound by enclosing Outer loops keep their values.
        for &(d, v) in &self.outer_bound {
            if (d as usize) < full_rank {
                idx[d as usize] = v;
            }
        }
        // Odometer over the loops, outermost = order[0].
        let mut cur: Vec<i64> = order
            .iter()
            .map(|&(_, up, lo, hi)| if up { lo } else { hi })
            .collect();
        'outer: loop {
            for (l, &(dim, _, _, _)) in order.iter().enumerate() {
                idx[dim] = cur[l];
            }
            self.spend_point()?;
            self.exec_point(nest, &idx, obs)?;
            self.stats.points += 1;
            // Advance the odometer from the innermost loop.
            let mut l = rank;
            loop {
                if l == 0 {
                    break 'outer;
                }
                l -= 1;
                let (_, up, lo, hi) = order[l];
                if up {
                    cur[l] += 1;
                    if cur[l] <= hi {
                        break;
                    }
                    cur[l] = lo;
                } else {
                    cur[l] -= 1;
                    if cur[l] >= lo {
                        break;
                    }
                    cur[l] = hi;
                }
            }
        }
        Ok(())
    }

    fn exec_point(
        &mut self,
        nest: &LoopNest,
        idx: &[i64],
        obs: &mut (impl Observer + ?Sized),
    ) -> Result<(), ExecError> {
        for stmt in &nest.body {
            let v = self.eval_elem(&stmt.rhs, idx, obs)?;
            match &stmt.target {
                ElemRef::Array(a, off) => {
                    let buf = self.arrays[a.0 as usize].as_ref().expect(
                        "invariant: exec_nest/exec_reduce pre-allocate every referenced array",
                    );
                    let Some(flat) = buf.flat(idx, off) else {
                        return Err(self.oob(*a, idx, off));
                    };
                    let addr = buf.addr(flat);
                    self.arrays[a.0 as usize]
                        .as_mut()
                        .expect(
                            "invariant: exec_nest/exec_reduce pre-allocate every referenced array",
                        )
                        .data[flat] = v;
                    obs.store(addr);
                    self.stats.stores += 1;
                }
                ElemRef::Temp(t) => {
                    self.temps[t.0 as usize] = v;
                }
                ElemRef::Reduce(s, op) => {
                    let acc = &mut self.scalars[s.0 as usize];
                    *acc = match op {
                        ReduceOp::Sum => *acc + v,
                        ReduceOp::Prod => *acc * v,
                        ReduceOp::Max => acc.max(v),
                        ReduceOp::Min => acc.min(v),
                    };
                    obs.flops(1);
                    self.stats.flops += 1;
                }
            }
        }
        Ok(())
    }

    fn oob(&self, a: ArrayId, idx: &[i64], off: &Offset) -> ExecError {
        let decl = self.prog.program.array(a);
        let pt: Vec<i64> = idx.iter().zip(&off.0).map(|(i, d)| i + d).collect();
        ExecError::access(format!(
            "access to `{}` at {:?} is outside its declared region (declare a halo?)",
            decl.name, pt
        ))
    }

    fn eval_elem(
        &mut self,
        e: &EExpr,
        idx: &[i64],
        obs: &mut (impl Observer + ?Sized),
    ) -> Result<f64, ExecError> {
        Ok(match e {
            EExpr::Load(a, off) => {
                let buf = self.arrays[a.0 as usize]
                    .as_ref()
                    .expect("invariant: exec_nest/exec_reduce pre-allocate every referenced array");
                let Some(flat) = buf.flat(idx, off) else {
                    return Err(self.oob(*a, idx, off));
                };
                let addr = buf.addr(flat);
                let v = buf.data[flat];
                obs.load(addr);
                self.stats.loads += 1;
                v
            }
            EExpr::Temp(t) => self.temps[t.0 as usize],
            EExpr::ScalarRef(s) => self.scalars[s.0 as usize],
            EExpr::ConfigRef(c) => self.config_value(*c),
            EExpr::Const(v) => *v,
            EExpr::Index(d) => idx[*d as usize] as f64,
            EExpr::Unary(UnOp::Neg, inner) => {
                let v = -self.eval_elem(inner, idx, obs)?;
                obs.flops(1);
                self.stats.flops += 1;
                v
            }
            EExpr::Binary(op, l, r) => {
                let lv = self.eval_elem(l, idx, obs)?;
                let rv = self.eval_elem(r, idx, obs)?;
                obs.flops(1);
                self.stats.flops += 1;
                binop(*op, lv, rv)
            }
            EExpr::Call(i, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(self.eval_elem(a, idx, obs)?);
                }
                obs.flops(1);
                self.stats.flops += 1;
                i.eval(&vals)
            }
        })
    }

    fn exec_reduce(
        &mut self,
        lhs: ScalarId,
        op: ReduceOp,
        region: RegionId,
        rhs: &EExpr,
        obs: &mut (impl Observer + ?Sized),
    ) -> Result<(), ExecError> {
        let mut reads = Vec::new();
        rhs.for_each_load(&mut |a, _| reads.push(a));
        for a in reads {
            self.ensure_alloc(a)?;
        }
        obs.reduce_begin();
        let bounds = self.region_bounds(region);
        let mut acc = match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Prod => 1.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        };
        if bounds.iter().all(|&(lo, hi)| hi >= lo) {
            let rank = bounds.len();
            let mut idx: Vec<i64> = bounds.iter().map(|&(lo, _)| lo).collect();
            'outer: loop {
                self.spend_point()?;
                let v = self.eval_elem(rhs, &idx, obs)?;
                self.stats.points += 1;
                acc = match op {
                    ReduceOp::Sum => acc + v,
                    ReduceOp::Prod => acc * v,
                    ReduceOp::Max => acc.max(v),
                    ReduceOp::Min => acc.min(v),
                };
                obs.flops(1);
                self.stats.flops += 1;
                let mut d = rank;
                loop {
                    if d == 0 {
                        break 'outer;
                    }
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] <= bounds[d].1 {
                        break;
                    }
                    idx[d] = bounds[d].0;
                }
            }
        }
        self.scalars[lhs.0 as usize] = acc;
        Ok(())
    }
}

impl crate::exec::Executor for Interp<'_> {
    fn execute(&mut self, obs: &mut dyn Observer) -> Result<crate::exec::RunOutcome, ExecError> {
        let stats = self.run(obs)?;
        Ok(crate::exec::RunOutcome::new(self.scalars.clone(), stats))
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        Interp::set_deadline(self, deadline);
    }
}

pub(crate) fn binop(op: BinOp, l: f64, r: f64) -> f64 {
    match op {
        BinOp::Add => l + r,
        BinOp::Sub => l - r,
        BinOp::Mul => l * r,
        BinOp::Div => l / r,
        BinOp::Lt => (l < r) as u8 as f64,
        BinOp::Le => (l <= r) as u8 as f64,
        BinOp::Gt => (l > r) as u8 as f64,
        BinOp::Ge => (l >= r) as u8 as f64,
        BinOp::Eq => (l == r) as u8 as f64,
        BinOp::Ne => (l != r) as u8 as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest, ScalarProgram, TempId};
    use zlang::ir::{ArrayId, Offset, RegionId};

    fn two_array_prog() -> zlang::ir::Program {
        zlang::compile(
            "program t; config n : int = 4; region R = [1..n, 1..n]; \
             var A, B : [R] float; var s : float; var k : int; begin end",
        )
        .unwrap()
    }

    fn nest(body: Vec<ElemStmt>, structure: Vec<i8>, temps: u32) -> LoopNest {
        LoopNest {
            region: RegionId(0),
            structure,
            body,
            cluster: 0,
            temps,
        }
    }

    fn store(a: u32, rhs: EExpr) -> ElemStmt {
        ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0, 0])),
            rhs,
        }
    }

    #[test]
    fn fills_array_row_major() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::Nest(nest(
                vec![store(
                    0,
                    EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Index(0)),
                            Box::new(EExpr::Const(10.0)),
                        )),
                        Box::new(EExpr::Index(1)),
                    ),
                )],
                vec![1, 2],
                0,
            ))],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let st = i.run(&mut NoopObserver).unwrap();
        assert_eq!(st.points, 16);
        assert_eq!(st.stores, 16);
        let a = i.array(ArrayId(0)).unwrap();
        assert_eq!(a[0], 11.0); // (1,1)
        assert_eq!(a[1], 12.0); // (1,2)
        assert_eq!(a[4], 21.0); // (2,1)
    }

    #[test]
    fn loop_reversal_changes_semantics_of_carried_reads() {
        // A(i) := A(i-1)+1 over [2..n] with A(1)=5:
        // increasing: propagates (cascade); decreasing: each reads old value.
        let p = zlang::compile(
            "program t; config n : int = 5; region RH = [1..n]; region R = [2..n]; \
             var A : [RH] float; begin end",
        )
        .unwrap();
        let init = LoopNest {
            region: RegionId(0),
            structure: vec![1],
            body: vec![ElemStmt {
                target: ElemRef::Array(ArrayId(0), Offset(vec![0])),
                rhs: EExpr::Const(5.0),
            }],
            cluster: 0,
            temps: 0,
        };
        let cascade = |structure: Vec<i8>| LoopNest {
            region: RegionId(1),
            structure,
            body: vec![ElemStmt {
                target: ElemRef::Array(ArrayId(0), Offset(vec![0])),
                rhs: EExpr::Binary(
                    zlang::ast::BinOp::Add,
                    Box::new(EExpr::Load(ArrayId(0), Offset(vec![-1]))),
                    Box::new(EExpr::Const(1.0)),
                ),
            }],
            cluster: 1,
            temps: 0,
        };
        let run = |structure: Vec<i8>| {
            let sp = ScalarProgram {
                program: zlang::compile(
                    "program t; config n : int = 5; region RH = [1..n]; region R = [2..n]; \
                     var A : [RH] float; begin end",
                )
                .unwrap(),
                stmts: vec![LStmt::Nest(init.clone()), LStmt::Nest(cascade(structure))],
            };
            let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
            i.run(&mut NoopObserver).unwrap();
            i.array(ArrayId(0)).unwrap().to_vec()
        };
        let _ = &p;
        assert_eq!(run(vec![1]), vec![5.0, 6.0, 7.0, 8.0, 9.0]);
        assert_eq!(run(vec![-1]), vec![5.0, 6.0, 6.0, 6.0, 6.0]);
    }

    #[test]
    fn temps_carry_within_a_point() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::Nest(nest(
                vec![
                    ElemStmt {
                        target: ElemRef::Temp(TempId(0)),
                        rhs: EExpr::Const(3.0),
                    },
                    store(
                        1,
                        EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Temp(TempId(0))),
                            Box::new(EExpr::Temp(TempId(0))),
                        ),
                    ),
                ],
                vec![1, 2],
                1,
            ))],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let st = i.run(&mut NoopObserver).unwrap();
        assert_eq!(i.array(ArrayId(1)).unwrap()[0], 9.0);
        // Temps generate no memory traffic.
        assert_eq!(st.loads, 0);
        assert_eq!(st.stores, 16);
    }

    #[test]
    fn out_of_region_access_errors() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::Nest(nest(
                vec![store(0, EExpr::Load(ArrayId(1), Offset(vec![-1, 0])))],
                vec![1, 2],
                0,
            ))],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let e = i.run(&mut NoopObserver).unwrap_err();
        assert!(e.message.contains("halo"), "{e}");
    }

    #[test]
    fn peak_bytes_counts_only_touched_arrays() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::Nest(nest(
                vec![store(0, EExpr::Const(1.0))],
                vec![1, 2],
                0,
            ))],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let st = i.run(&mut NoopObserver).unwrap();
        assert_eq!(st.arrays_allocated, 1);
        assert_eq!(st.peak_bytes, 16 * 8);
    }

    #[test]
    fn reduce_nest_accumulates() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![
                LStmt::Nest(nest(vec![store(0, EExpr::Const(2.0))], vec![1, 2], 0)),
                LStmt::ReduceNest {
                    lhs: ScalarId(0),
                    op: ReduceOp::Sum,
                    region: RegionId(0),
                    structure: vec![1, 2],
                    rhs: EExpr::Load(ArrayId(0), Offset(vec![0, 0])),
                },
            ],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let out = crate::exec::Executor::execute(&mut i, &mut NoopObserver).unwrap();
        assert_eq!(out.scalar(ScalarId(0)), 32.0);
    }

    #[test]
    fn for_and_if_control_flow() {
        let p = two_array_prog();
        // for k := 1 to 3: A := A + 1 ; if (k-ish cond) unused — just check loop count via stats
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::For {
                var: ScalarId(1),
                lo: ScalarExpr::Const(1.0),
                hi: ScalarExpr::Const(3.0),
                down: false,
                body: vec![LStmt::Nest(nest(
                    vec![store(
                        0,
                        EExpr::Binary(
                            zlang::ast::BinOp::Add,
                            Box::new(EExpr::Load(ArrayId(0), Offset(vec![0, 0]))),
                            Box::new(EExpr::Const(1.0)),
                        ),
                    )],
                    vec![1, 2],
                    0,
                ))],
            }],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let st = i.run(&mut NoopObserver).unwrap();
        assert_eq!(st.points, 48);
        assert_eq!(i.array(ArrayId(0)).unwrap()[0], 3.0);
    }

    #[test]
    fn downto_loop_runs_reversed() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::For {
                var: ScalarId(1),
                lo: ScalarExpr::Const(3.0),
                hi: ScalarExpr::Const(1.0),
                down: true,
                body: vec![LStmt::Scalar {
                    lhs: ScalarId(0),
                    rhs: ScalarExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(ScalarExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(ScalarExpr::ScalarRef(ScalarId(0))),
                            Box::new(ScalarExpr::Const(10.0)),
                        )),
                        Box::new(ScalarExpr::ScalarRef(ScalarId(1))),
                    ),
                }],
            }],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let out = crate::exec::Executor::execute(&mut i, &mut NoopObserver).unwrap();
        assert_eq!(out.scalar(ScalarId(0)), 321.0);
    }

    #[test]
    fn column_major_structure_visits_all_points() {
        let p = two_array_prog();
        let sp = ScalarProgram {
            program: p,
            stmts: vec![LStmt::Nest(nest(
                vec![store(0, EExpr::Const(7.0))],
                vec![-2, -1],
                0,
            ))],
        };
        let mut i = Interp::new(&sp, ConfigBinding::defaults(&sp.program));
        let st = i.run(&mut NoopObserver).unwrap();
        assert_eq!(st.points, 16);
        assert!(i.array(ArrayId(0)).unwrap().iter().all(|&v| v == 7.0));
    }
}
