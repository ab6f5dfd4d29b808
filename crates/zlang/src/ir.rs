//! The array-level intermediate representation.
//!
//! This is the representation on which the paper's transformations operate:
//! programs are scalar control flow (loops, conditionals) around *basic
//! blocks of array statements*. Every array statement is element-wise over a
//! region with constant-offset references — the paper's candidates for
//! normalization, fusion, and contraction.

use crate::ast::{BinOp, ReduceOp, Type, UnOp};
use crate::intern::{Interner, Symbol};
use std::collections::HashMap;
use std::fmt;

/// Index of a config variable in [`Program::configs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConfigId(pub u32);

/// Index of a region in [`Program::regions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

/// Index of an array variable in [`Program::arrays`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ArrayId(pub u32);

/// Index of a scalar variable in [`Program::scalars`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarId(pub u32);

macro_rules! impl_display_id {
    ($t:ty, $prefix:literal) => {
        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

/// An affine expression `base + Σ coeff·config` over config variables.
///
/// Region bounds are affine so that problem sizes can be swept at run time
/// without recompiling (the paper scales problem size with processor count).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct LinExpr {
    /// Constant term.
    pub base: i64,
    /// Terms, sorted by config id, with no zero coefficients.
    pub terms: Vec<(ConfigId, i64)>,
}

impl LinExpr {
    /// A constant expression.
    pub fn constant(base: i64) -> Self {
        LinExpr {
            base,
            terms: Vec::new(),
        }
    }

    /// A single config variable.
    pub fn var(id: ConfigId) -> Self {
        LinExpr {
            base: 0,
            terms: vec![(id, 1)],
        }
    }

    /// Normalizes terms: sorts by config id, merges duplicates, drops zeros.
    pub fn normalize(mut self) -> Self {
        self.terms.sort_by_key(|&(id, _)| id);
        let mut merged: Vec<(ConfigId, i64)> = Vec::with_capacity(self.terms.len());
        for (id, c) in self.terms {
            match merged.last_mut() {
                Some((last_id, last_c)) if *last_id == id => *last_c += c,
                _ => merged.push((id, c)),
            }
        }
        merged.retain(|&(_, c)| c != 0);
        self.terms = merged;
        self
    }

    /// Evaluates under a config binding.
    ///
    /// # Panics
    ///
    /// Panics if a referenced config variable is missing from `binding`.
    pub fn eval(&self, binding: &ConfigBinding) -> i64 {
        self.base
            + self
                .terms
                .iter()
                .map(|&(id, c)| c * binding.get(id))
                .sum::<i64>()
    }

    /// Adds a constant.
    pub fn offset(&self, delta: i64) -> Self {
        LinExpr {
            base: self.base + delta,
            terms: self.terms.clone(),
        }
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }
}

/// Concrete values for every config variable.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ConfigBinding {
    values: Vec<i64>,
}

impl ConfigBinding {
    /// Builds the default binding for a program (each config's declared
    /// default, with float defaults truncated).
    pub fn defaults(program: &Program) -> Self {
        ConfigBinding {
            values: program.configs.iter().map(|c| c.default_int()).collect(),
        }
    }

    /// Returns the value of a config variable.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn get(&self, id: ConfigId) -> i64 {
        self.values[id.0 as usize]
    }

    /// Overrides one config variable's value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set(&mut self, id: ConfigId, value: i64) {
        self.values[id.0 as usize] = value;
    }

    /// Overrides a config variable by name; returns `false` if no config
    /// with that name exists.
    pub fn set_by_name(&mut self, program: &Program, name: &str, value: i64) -> bool {
        match program.config_by_name(name) {
            Some(id) => {
                self.values[id.0 as usize] = value;
                true
            }
            None => false,
        }
    }
}

/// A declared config variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigDecl {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
    /// Default value (float defaults are allowed for scalar math constants).
    pub default: f64,
}

impl ConfigDecl {
    /// The default truncated to an integer (region bounds are integral).
    pub fn default_int(&self) -> i64 {
        self.default as i64
    }
}

/// One dimension of a region.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Extent {
    /// Inclusive lower bound.
    pub lo: LinExpr,
    /// Inclusive upper bound.
    pub hi: LinExpr,
}

/// A declared index set `[lo1..hi1, ..., lor..hir]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDecl {
    /// Source name.
    pub name: String,
    /// Extents, one per dimension.
    pub extents: Vec<Extent>,
}

impl RegionDecl {
    /// The rank (dimensionality) of the region.
    pub fn rank(&self) -> usize {
        self.extents.len()
    }

    /// Evaluates the region's concrete bounds under `binding`:
    /// `(lo, hi)` per dimension, inclusive.
    pub fn bounds(&self, binding: &ConfigBinding) -> Vec<(i64, i64)> {
        self.extents
            .iter()
            .map(|e| (e.lo.eval(binding), e.hi.eval(binding)))
            .collect()
    }

    /// The number of index points under `binding` (empty dims count as 0).
    pub fn size(&self, binding: &ConfigBinding) -> u64 {
        self.bounds(binding)
            .iter()
            .map(|&(lo, hi)| (hi - lo + 1).max(0) as u64)
            .product()
    }
}

/// A declared array variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Source name (compiler temporaries are named `_tN`).
    pub name: String,
    /// The region the array is allocated over.
    pub region: RegionId,
    /// True if this array was inserted by the compiler (normalization),
    /// false for user-declared arrays. The distinction drives the paper's
    /// C1 (compiler-only) vs C2 (compiler+user) contraction levels.
    pub compiler_temp: bool,
    /// Dimensions (0-based) collapsed by *dimension contraction*: the
    /// array is allocated with extent 1 in these dimensions and every
    /// access ignores the loop index there. Produced by the optional
    /// lower-dimensional contraction extension (the paper's Section 5.2
    /// deficiency); empty for ordinary arrays.
    pub collapsed: Vec<u8>,
}

/// A declared scalar variable.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalarDecl {
    /// Source name.
    pub name: String,
    /// Declared type.
    pub ty: Type,
}

/// A constant offset vector applied by `@`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Offset(pub Vec<i64>);

impl Offset {
    /// The all-zero offset of a given rank.
    pub fn zero(rank: usize) -> Self {
        Offset(vec![0; rank])
    }

    /// True if every component is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|&d| d == 0)
    }

    /// The rank of the offset.
    pub fn rank(&self) -> usize {
        self.0.len()
    }
}

impl fmt::Display for Offset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// Intrinsic element-wise functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    Sqrt,
    Exp,
    Ln,
    Sin,
    Cos,
    Abs,
    Floor,
    Min,
    Max,
    Pow,
    /// `select(c, a, b)` = `a` if `c != 0`, else `b`.
    Select,
    /// `rnd(x)`: a deterministic pseudo-random hash of `x` in `[0, 1)`.
    Rnd,
    /// `sign(x)`: -1, 0, or 1.
    Sign,
}

impl Intrinsic {
    /// Resolves an intrinsic from its source name.
    pub fn from_name(name: &str) -> Option<Self> {
        Some(match name {
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "ln" => Intrinsic::Ln,
            "sin" => Intrinsic::Sin,
            "cos" => Intrinsic::Cos,
            "abs" => Intrinsic::Abs,
            "floor" => Intrinsic::Floor,
            "min" => Intrinsic::Min,
            "max" => Intrinsic::Max,
            "pow" => Intrinsic::Pow,
            "select" => Intrinsic::Select,
            "rnd" => Intrinsic::Rnd,
            "sign" => Intrinsic::Sign,
            _ => return None,
        })
    }

    /// The required argument count.
    pub fn arity(self) -> usize {
        match self {
            Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow => 2,
            Intrinsic::Select => 3,
            _ => 1,
        }
    }

    /// The source-level name.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Ln => "ln",
            Intrinsic::Sin => "sin",
            Intrinsic::Cos => "cos",
            Intrinsic::Abs => "abs",
            Intrinsic::Floor => "floor",
            Intrinsic::Min => "min",
            Intrinsic::Max => "max",
            Intrinsic::Pow => "pow",
            Intrinsic::Select => "select",
            Intrinsic::Rnd => "rnd",
            Intrinsic::Sign => "sign",
        }
    }

    /// Evaluates the intrinsic on concrete arguments.
    ///
    /// # Panics
    ///
    /// Panics if `args.len() != self.arity()`.
    pub fn eval(self, args: &[f64]) -> f64 {
        assert_eq!(args.len(), self.arity(), "intrinsic {} arity", self.name());
        match self {
            Intrinsic::Sqrt => args[0].sqrt(),
            Intrinsic::Exp => args[0].exp(),
            Intrinsic::Ln => args[0].ln(),
            Intrinsic::Sin => args[0].sin(),
            Intrinsic::Cos => args[0].cos(),
            Intrinsic::Abs => args[0].abs(),
            Intrinsic::Floor => args[0].floor(),
            Intrinsic::Min => args[0].min(args[1]),
            Intrinsic::Max => args[0].max(args[1]),
            Intrinsic::Pow => args[0].powf(args[1]),
            Intrinsic::Select => {
                if args[0] != 0.0 {
                    args[1]
                } else {
                    args[2]
                }
            }
            Intrinsic::Rnd => rnd(args[0]),
            Intrinsic::Sign => sign(args[0]),
        }
    }
}

/// `rnd(x)`: a SplitMix64-style hash of `x`'s bit pattern, mapped to
/// `[0, 1)`. The one definition [`Intrinsic::eval`] and the lane executor's
/// strip kernel share.
#[inline]
pub fn rnd(x: f64) -> f64 {
    let mut z = x.to_bits().wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// `sign(x)`: -1, 0 or 1 (0 for either zero and for NaN). Shared like
/// [`rnd`].
#[inline]
pub fn sign(x: f64) -> f64 {
    if x > 0.0 {
        1.0
    } else if x < 0.0 {
        -1.0
    } else {
        0.0
    }
}

/// An element-wise array expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrayExpr {
    /// `A@d` — reads array `A` at constant offset `d` from the region index.
    Read(ArrayId, Offset),
    /// A scalar variable broadcast over the region.
    ScalarRef(ScalarId),
    /// A config variable broadcast over the region.
    ConfigRef(ConfigId),
    /// A literal constant broadcast over the region.
    Const(f64),
    /// The region index along dimension `d` (0-based), as a float —
    /// the analogue of ZPL's `Index1`/`Index2` arrays.
    Index(u8),
    /// Unary operation.
    Unary(UnOp, Box<ArrayExpr>),
    /// Binary operation.
    Binary(BinOp, Box<ArrayExpr>, Box<ArrayExpr>),
    /// Intrinsic call.
    Call(Intrinsic, Vec<ArrayExpr>),
}

impl ArrayExpr {
    /// Visits every array read in the expression.
    pub fn for_each_read(&self, f: &mut impl FnMut(ArrayId, &Offset)) {
        match self {
            ArrayExpr::Read(a, off) => f(*a, off),
            ArrayExpr::Unary(_, e) => e.for_each_read(f),
            ArrayExpr::Binary(_, l, r) => {
                l.for_each_read(f);
                r.for_each_read(f);
            }
            ArrayExpr::Call(_, args) => {
                for a in args {
                    a.for_each_read(f);
                }
            }
            ArrayExpr::ScalarRef(_)
            | ArrayExpr::ConfigRef(_)
            | ArrayExpr::Const(_)
            | ArrayExpr::Index(_) => {}
        }
    }

    /// All `(array, offset)` reads, in evaluation order.
    pub fn reads(&self) -> Vec<(ArrayId, Offset)> {
        let mut out = Vec::new();
        self.for_each_read(&mut |a, off| out.push((a, off.clone())));
        out
    }

    /// Rewrites every read via `f` (e.g. to substitute contracted arrays).
    pub fn map_reads(&self, f: &mut impl FnMut(ArrayId, &Offset) -> ArrayExpr) -> ArrayExpr {
        match self {
            ArrayExpr::Read(a, off) => f(*a, off),
            ArrayExpr::Unary(op, e) => ArrayExpr::Unary(*op, Box::new(e.map_reads(f))),
            ArrayExpr::Binary(op, l, r) => {
                ArrayExpr::Binary(*op, Box::new(l.map_reads(f)), Box::new(r.map_reads(f)))
            }
            ArrayExpr::Call(i, args) => {
                ArrayExpr::Call(*i, args.iter().map(|a| a.map_reads(f)).collect())
            }
            other => other.clone(),
        }
    }

    /// Counts array-element references (reads) in the expression.
    pub fn read_count(&self) -> usize {
        let mut n = 0;
        self.for_each_read(&mut |_, _| n += 1);
        n
    }

    /// Counts floating-point operations per element evaluation.
    pub fn flops(&self) -> u64 {
        match self {
            ArrayExpr::Unary(_, e) => 1 + e.flops(),
            ArrayExpr::Binary(_, l, r) => 1 + l.flops() + r.flops(),
            // Transcendentals are costed by the machine model; count 1 here.
            ArrayExpr::Call(_, args) => 1 + args.iter().map(|a| a.flops()).sum::<u64>(),
            _ => 0,
        }
    }
}

/// An element-wise array assignment `[R] A := rhs;`.
///
/// The LHS is always written at offset zero from the region index (as in
/// ZPL); offsets appear only on reads.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayStmt {
    /// The region the statement iterates over.
    pub region: RegionId,
    /// The array written.
    pub lhs: ArrayId,
    /// The element-wise right-hand side.
    pub rhs: ArrayExpr,
}

/// A scalar expression (control flow, reduction targets, loop bounds).
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    Const(f64),
    ScalarRef(ScalarId),
    ConfigRef(ConfigId),
    Unary(UnOp, Box<ScalarExpr>),
    Binary(BinOp, Box<ScalarExpr>, Box<ScalarExpr>),
    Call(Intrinsic, Vec<ScalarExpr>),
}

/// A statement in the array-level IR.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// An element-wise array assignment.
    Array(ArrayStmt),
    /// A scalar assignment.
    Scalar { lhs: ScalarId, rhs: ScalarExpr },
    /// A full reduction `s := op<< [R] expr;`.
    ///
    /// Reductions are *unnormalizable* array statements: they participate in
    /// dependence analysis (they read arrays) but never fuse or contract.
    Reduce {
        lhs: ScalarId,
        op: ReduceOp,
        region: RegionId,
        arg: ArrayExpr,
    },
    /// A counted loop. The body is re-entered each iteration, so arrays
    /// written in the body may be live across iterations.
    For {
        var: ScalarId,
        lo: ScalarExpr,
        hi: ScalarExpr,
        down: bool,
        body: Vec<Stmt>,
    },
    /// A conditional.
    If {
        cond: ScalarExpr,
        then_body: Vec<Stmt>,
        else_body: Vec<Stmt>,
    },
}

/// The program's interned name table: one [`Symbol`] per declared name,
/// plus symbol-keyed maps to the declaration ids.
///
/// Built by semantic analysis and maintained by
/// [`Program::add_compiler_temp`], it replaces `String`-keyed `HashMap`
/// lookups on the sema and tooling hot paths: names are hashed once at
/// interning time; every later lookup compares a `u32`.
#[derive(Debug, Clone, Default)]
pub struct NameTable {
    interner: Interner,
    arrays: HashMap<Symbol, ArrayId>,
    scalars: HashMap<Symbol, ScalarId>,
    regions: HashMap<Symbol, RegionId>,
    configs: HashMap<Symbol, ConfigId>,
}

/// Two tables are equal when they bind the same *names* to the same
/// declaration ids. Raw [`Symbol`] values are an artifact of interning
/// order (e.g. direction names interned during analysis but absent from
/// pretty-printed output), so they are deliberately not compared —
/// otherwise a print/re-parse round trip would spuriously differ.
impl PartialEq for NameTable {
    fn eq(&self, other: &Self) -> bool {
        fn by_name<'t, T: Copy>(
            t: &'t NameTable,
            m: &'t HashMap<Symbol, T>,
        ) -> HashMap<&'t str, T> {
            m.iter().map(|(&s, &id)| (t.resolve(s), id)).collect()
        }
        by_name(self, &self.arrays) == by_name(other, &other.arrays)
            && by_name(self, &self.scalars) == by_name(other, &other.scalars)
            && by_name(self, &self.regions) == by_name(other, &other.regions)
            && by_name(self, &self.configs) == by_name(other, &other.configs)
    }
}

impl NameTable {
    /// Interns a name (registering nothing), returning its symbol.
    pub fn intern(&mut self, name: &str) -> Symbol {
        self.interner.intern(name)
    }

    /// Looks a name up without interning it.
    pub fn symbol(&self, name: &str) -> Option<Symbol> {
        self.interner.get(name)
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` came from a different program's table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Registers an array declaration under its interned name.
    pub fn register_array(&mut self, name: &str, id: ArrayId) -> Symbol {
        let sym = self.interner.intern(name);
        self.arrays.insert(sym, id);
        sym
    }

    /// Registers a scalar declaration under its interned name.
    pub fn register_scalar(&mut self, name: &str, id: ScalarId) -> Symbol {
        let sym = self.interner.intern(name);
        self.scalars.insert(sym, id);
        sym
    }

    /// Registers a region declaration under its interned name.
    pub fn register_region(&mut self, name: &str, id: RegionId) -> Symbol {
        let sym = self.interner.intern(name);
        self.regions.insert(sym, id);
        sym
    }

    /// Registers a config declaration under its interned name.
    pub fn register_config(&mut self, name: &str, id: ConfigId) -> Symbol {
        let sym = self.interner.intern(name);
        self.configs.insert(sym, id);
        sym
    }

    /// The array bound to a symbol, if any.
    pub fn array(&self, sym: Symbol) -> Option<ArrayId> {
        self.arrays.get(&sym).copied()
    }

    /// The scalar bound to a symbol, if any.
    pub fn scalar(&self, sym: Symbol) -> Option<ScalarId> {
        self.scalars.get(&sym).copied()
    }

    /// The region bound to a symbol, if any.
    pub fn region(&self, sym: Symbol) -> Option<RegionId> {
        self.regions.get(&sym).copied()
    }

    /// The config bound to a symbol, if any.
    pub fn config(&self, sym: Symbol) -> Option<ConfigId> {
        self.configs.get(&sym).copied()
    }
}

/// A complete program in the array-level IR.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name.
    pub name: String,
    /// Config (problem-size) variables.
    pub configs: Vec<ConfigDecl>,
    /// Regions.
    pub regions: Vec<RegionDecl>,
    /// Arrays (user + compiler temporaries appended by normalization).
    pub arrays: Vec<ArrayDecl>,
    /// Scalars (loop variables, reduction targets, user scalars).
    pub scalars: Vec<ScalarDecl>,
    /// Top-level statement list.
    pub body: Vec<Stmt>,
    /// Interned name table over every declaration.
    pub names: NameTable,
}

impl Program {
    /// Looks up an array by name.
    pub fn array_by_name(&self, name: &str) -> Option<ArrayId> {
        self.names
            .symbol(name)
            .and_then(|s| self.names.array(s))
            .or_else(|| {
                // Fallback for hand-built programs that never populated
                // the table.
                self.arrays
                    .iter()
                    .position(|a| a.name == name)
                    .map(|i| ArrayId(i as u32))
            })
    }

    /// Looks up a scalar by name.
    pub fn scalar_by_name(&self, name: &str) -> Option<ScalarId> {
        self.names
            .symbol(name)
            .and_then(|s| self.names.scalar(s))
            .or_else(|| {
                self.scalars
                    .iter()
                    .position(|s| s.name == name)
                    .map(|i| ScalarId(i as u32))
            })
    }

    /// Looks up a region by name.
    pub fn region_by_name(&self, name: &str) -> Option<RegionId> {
        self.names
            .symbol(name)
            .and_then(|s| self.names.region(s))
            .or_else(|| {
                self.regions
                    .iter()
                    .position(|r| r.name == name)
                    .map(|i| RegionId(i as u32))
            })
    }

    /// Looks up a config by name.
    pub fn config_by_name(&self, name: &str) -> Option<ConfigId> {
        self.names
            .symbol(name)
            .and_then(|s| self.names.config(s))
            .or_else(|| {
                self.configs
                    .iter()
                    .position(|c| c.name == name)
                    .map(|i| ConfigId(i as u32))
            })
    }

    /// The declaration of an array.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn array(&self, id: ArrayId) -> &ArrayDecl {
        &self.arrays[id.0 as usize]
    }

    /// The declaration of a region.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn region(&self, id: RegionId) -> &RegionDecl {
        &self.regions[id.0 as usize]
    }

    /// The declaration of a scalar.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn scalar(&self, id: ScalarId) -> &ScalarDecl {
        &self.scalars[id.0 as usize]
    }

    /// The rank of an array (the rank of its declared region).
    pub fn array_rank(&self, id: ArrayId) -> usize {
        self.region(self.array(id).region).rank()
    }

    /// Adds a compiler temporary array over `region`, returning its id.
    pub fn add_compiler_temp(&mut self, region: RegionId) -> ArrayId {
        let id = ArrayId(self.arrays.len() as u32);
        let name = format!(
            "_t{}",
            self.arrays.iter().filter(|a| a.compiler_temp).count()
        );
        self.names.register_array(&name, id);
        self.arrays.push(ArrayDecl {
            name,
            region,
            compiler_temp: true,
            collapsed: Vec::new(),
        });
        id
    }

    /// The number of elements an array's allocation holds under a binding,
    /// honoring collapsed dimensions (extent 1).
    pub fn array_alloc_elems(&self, id: ArrayId, binding: &ConfigBinding) -> u64 {
        let decl = self.array(id);
        let region = self.region(decl.region);
        region
            .bounds(binding)
            .iter()
            .enumerate()
            .map(|(d, &(lo, hi))| {
                if decl.collapsed.contains(&(d as u8)) {
                    1
                } else {
                    (hi - lo + 1).max(0) as u64
                }
            })
            .product()
    }

    /// Counts statements of each kind, recursively (diagnostics/reporting).
    pub fn stmt_counts(&self) -> StmtCounts {
        fn walk(stmts: &[Stmt], c: &mut StmtCounts) {
            for s in stmts {
                match s {
                    Stmt::Array(_) => c.array += 1,
                    Stmt::Scalar { .. } => c.scalar += 1,
                    Stmt::Reduce { .. } => c.reduce += 1,
                    Stmt::For { body, .. } => {
                        c.for_loops += 1;
                        walk(body, c);
                    }
                    Stmt::If {
                        then_body,
                        else_body,
                        ..
                    } => {
                        c.ifs += 1;
                        walk(then_body, c);
                        walk(else_body, c);
                    }
                }
            }
        }
        let mut c = StmtCounts::default();
        walk(&self.body, &mut c);
        c
    }

    /// Builds a name → id map for arrays (tests and tooling).
    pub fn array_names(&self) -> HashMap<String, ArrayId> {
        self.arrays
            .iter()
            .enumerate()
            .map(|(i, a)| (a.name.clone(), ArrayId(i as u32)))
            .collect()
    }
}

/// Statement counts by kind (see [`Program::stmt_counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StmtCounts {
    pub array: usize,
    pub scalar: usize,
    pub reduce: usize,
    pub for_loops: usize,
    pub ifs: usize,
}

impl_display_id!(ConfigId, "cfg");
impl_display_id!(RegionId, "R");
impl_display_id!(ScalarId, "s");
impl_display_id!(ArrayId, "A");

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(i: u32) -> ConfigId {
        ConfigId(i)
    }

    #[test]
    fn linexpr_eval_and_normalize() {
        let e = LinExpr {
            base: 3,
            terms: vec![(cfg(1), 2), (cfg(0), 1), (cfg(1), -2)],
        }
        .normalize();
        assert_eq!(e.terms, vec![(cfg(0), 1)]);
        let mut b = ConfigBinding {
            values: vec![10, 99],
        };
        assert_eq!(e.eval(&b), 13);
        b.set(cfg(0), 4);
        assert_eq!(e.eval(&b), 7);
    }

    #[test]
    fn region_size_and_bounds() {
        let r = RegionDecl {
            name: "R".into(),
            extents: vec![
                Extent {
                    lo: LinExpr::constant(1),
                    hi: LinExpr::var(cfg(0)),
                },
                Extent {
                    lo: LinExpr::constant(0),
                    hi: LinExpr::var(cfg(0)).offset(1),
                },
            ],
        };
        let b = ConfigBinding { values: vec![8] };
        assert_eq!(r.bounds(&b), vec![(1, 8), (0, 9)]);
        assert_eq!(r.size(&b), 8 * 10);
    }

    #[test]
    fn empty_region_has_zero_size() {
        let r = RegionDecl {
            name: "E".into(),
            extents: vec![Extent {
                lo: LinExpr::constant(5),
                hi: LinExpr::constant(2),
            }],
        };
        assert_eq!(r.size(&ConfigBinding::default()), 0);
    }

    #[test]
    fn offset_zero_and_display() {
        assert!(Offset::zero(3).is_zero());
        assert!(!Offset(vec![0, -1]).is_zero());
        assert_eq!(Offset(vec![1, -2]).to_string(), "(1,-2)");
    }

    #[test]
    fn intrinsic_eval() {
        assert_eq!(Intrinsic::Select.eval(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(Intrinsic::Select.eval(&[0.0, 2.0, 3.0]), 3.0);
        assert_eq!(Intrinsic::Sign.eval(&[-3.5]), -1.0);
        assert_eq!(Intrinsic::Max.eval(&[1.0, 2.0]), 2.0);
        let r = Intrinsic::Rnd.eval(&[42.0]);
        assert!((0.0..1.0).contains(&r));
        // Deterministic.
        assert_eq!(r, Intrinsic::Rnd.eval(&[42.0]));
        assert_ne!(r, Intrinsic::Rnd.eval(&[43.0]));
    }

    #[test]
    fn intrinsic_roundtrip_names() {
        for i in [
            Intrinsic::Sqrt,
            Intrinsic::Exp,
            Intrinsic::Ln,
            Intrinsic::Sin,
            Intrinsic::Cos,
            Intrinsic::Abs,
            Intrinsic::Floor,
            Intrinsic::Min,
            Intrinsic::Max,
            Intrinsic::Pow,
            Intrinsic::Select,
            Intrinsic::Rnd,
            Intrinsic::Sign,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
        assert_eq!(Intrinsic::from_name("bogus"), None);
    }

    #[test]
    fn expr_reads_and_map() {
        let a = ArrayId(0);
        let b = ArrayId(1);
        let e = ArrayExpr::Binary(
            BinOp::Add,
            Box::new(ArrayExpr::Read(a, Offset(vec![0, 1]))),
            Box::new(ArrayExpr::Call(
                Intrinsic::Sqrt,
                vec![ArrayExpr::Read(b, Offset::zero(2))],
            )),
        );
        assert_eq!(e.reads().len(), 2);
        assert_eq!(e.read_count(), 2);
        assert_eq!(e.flops(), 2);
        let swapped =
            e.map_reads(&mut |id, off| ArrayExpr::Read(if id == a { b } else { a }, off.clone()));
        assert_eq!(swapped.reads()[0].0, b);
    }
}
