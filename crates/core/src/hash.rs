//! Structural hashing of array-level programs — the content addresses of
//! the staged compile cache ([`crate::cache`]).
//!
//! Each cache stage is keyed by a digest of exactly what the stage reads:
//!
//! * [`text_hash`] digests *source text*, for the parse stage. It is a
//!   fast word-at-a-time fold, not a collision-resistant one: the parse
//!   stage stores the text beside the program and compares it on every
//!   hit, so a collision costs a re-parse and never serves another
//!   program.
//! * [`program_hash`] folds a [`Program`]'s entire observable structure —
//!   declarations in order (config *defaults* included), resolved *names*
//!   (never raw interner [`Symbol`](zlang::intern::Symbol) values, which
//!   are an artifact of interning order), region extents, and the
//!   statement tree — into one 64-bit FNV-1a digest. Two programs that
//!   compare equal under `Program`'s `PartialEq` hash identically; in
//!   particular a pretty-print/re-parse round trip
//!   (`zlang::pretty::source` followed by `zlang::compile`) preserves the
//!   hash, the same interned-name invariant `NameTable`'s `PartialEq`
//!   upholds. This is the optimize stage's address: the optimizer works on
//!   symbolic regions and reads no binding, so one optimized program
//!   serves every size.
//! * [`key_hash`] extends a program digest with a concrete
//!   [`ConfigBinding`], for the lower stage: the bytecode compiler
//!   resolves region bounds and strides under a specific binding and the
//!   verifier proves accesses in bounds for those numbers, so lowering is
//!   the one stage that stays per size.
//!
//! The program digest is computed once per request — by the parse stage,
//! which stores it beside the program, or by the caller that starts from
//! a [`Program`] — and carried into every later key. Level and engine are
//! kept *out* of the digests — the cache keys carry them as explicit
//! fields so collisions between levels are structurally impossible rather
//! than probabilistically unlikely.
//!
//! The program digest is exposed for debugging as `zlc --print hash`.

use zlang::ast::{BinOp, ReduceOp, Type, UnOp};
use zlang::ir::{ArrayExpr, ConfigBinding, ConfigId, LinExpr, Program, ScalarExpr, Stmt};

/// A 64-bit FNV-1a accumulator with typed write helpers.
///
/// FNV-1a is not cryptographic; it is a fast, dependency-free mixing
/// function whose 64-bit collision rate is negligible at cache scale,
/// and the cache key pairs the digest with explicit level/engine fields
/// anyway.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    /// A fresh accumulator at the FNV offset basis.
    pub fn new() -> Self {
        Fnv::default()
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }

    /// Mixes one byte.
    pub fn u8(&mut self, b: u8) {
        self.0 = (self.0 ^ b as u64).wrapping_mul(FNV_PRIME);
    }

    /// Mixes eight bytes, little-endian.
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }

    /// Mixes a signed integer.
    pub fn i64(&mut self, v: i64) {
        self.u64(v as u64);
    }

    /// Mixes a length-prefixed string (the prefix keeps `"ab","c"` and
    /// `"a","bc"` distinct).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.as_bytes() {
            self.u8(*b);
        }
    }

    /// Mixes a float by its exact bit pattern (so `-0.0` and `0.0`
    /// differ, matching `f64::to_bits` result comparison elsewhere).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn lin(h: &mut Fnv, e: &LinExpr) {
    h.i64(e.base);
    h.u64(e.terms.len() as u64);
    for &(ConfigId(id), c) in &e.terms {
        h.u64(id as u64);
        h.i64(c);
    }
}

fn ty(h: &mut Fnv, t: Type) {
    h.u8(match t {
        Type::Float => 0,
        Type::Int => 1,
    });
}

fn unop(h: &mut Fnv, op: UnOp) {
    h.u8(match op {
        UnOp::Neg => 0,
    });
}

fn binop(h: &mut Fnv, op: BinOp) {
    h.u8(match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Lt => 4,
        BinOp::Le => 5,
        BinOp::Gt => 6,
        BinOp::Ge => 7,
        BinOp::Eq => 8,
        BinOp::Ne => 9,
    });
}

fn reduce_op(h: &mut Fnv, op: ReduceOp) {
    h.u8(match op {
        ReduceOp::Sum => 0,
        ReduceOp::Prod => 1,
        ReduceOp::Max => 2,
        ReduceOp::Min => 3,
    });
}

fn array_expr(h: &mut Fnv, e: &ArrayExpr) {
    match e {
        ArrayExpr::Read(a, off) => {
            h.u8(0);
            h.u64(a.0 as u64);
            h.u64(off.0.len() as u64);
            for &d in &off.0 {
                h.i64(d);
            }
        }
        ArrayExpr::ScalarRef(s) => {
            h.u8(1);
            h.u64(s.0 as u64);
        }
        ArrayExpr::ConfigRef(c) => {
            h.u8(2);
            h.u64(c.0 as u64);
        }
        ArrayExpr::Const(v) => {
            h.u8(3);
            h.f64(*v);
        }
        ArrayExpr::Index(d) => {
            h.u8(4);
            h.u8(*d);
        }
        ArrayExpr::Unary(op, e) => {
            h.u8(5);
            unop(h, *op);
            array_expr(h, e);
        }
        ArrayExpr::Binary(op, l, r) => {
            h.u8(6);
            binop(h, *op);
            array_expr(h, l);
            array_expr(h, r);
        }
        ArrayExpr::Call(i, args) => {
            h.u8(7);
            h.str(i.name());
            h.u64(args.len() as u64);
            for a in args {
                array_expr(h, a);
            }
        }
    }
}

/// The structural digest of a single array expression.
///
/// This is the subexpression key the offset-lattice availability analysis
/// ([`crate::avail`]) uses to bucket canonicalized subtrees: two
/// expressions hash equal iff they are structurally identical (same
/// operators, same array ids, same offsets, same constant bit patterns).
pub fn expr_hash(e: &ArrayExpr) -> u64 {
    let mut h = Fnv::new();
    array_expr(&mut h, e);
    h.finish()
}

fn scalar_expr(h: &mut Fnv, e: &ScalarExpr) {
    match e {
        ScalarExpr::Const(v) => {
            h.u8(0);
            h.f64(*v);
        }
        ScalarExpr::ScalarRef(s) => {
            h.u8(1);
            h.u64(s.0 as u64);
        }
        ScalarExpr::ConfigRef(c) => {
            h.u8(2);
            h.u64(c.0 as u64);
        }
        ScalarExpr::Unary(op, e) => {
            h.u8(3);
            unop(h, *op);
            scalar_expr(h, e);
        }
        ScalarExpr::Binary(op, l, r) => {
            h.u8(4);
            binop(h, *op);
            scalar_expr(h, l);
            scalar_expr(h, r);
        }
        ScalarExpr::Call(i, args) => {
            h.u8(5);
            h.str(i.name());
            h.u64(args.len() as u64);
            for a in args {
                scalar_expr(h, a);
            }
        }
    }
}

fn stmts(h: &mut Fnv, body: &[Stmt]) {
    h.u64(body.len() as u64);
    for s in body {
        match s {
            Stmt::Array(a) => {
                h.u8(0);
                h.u64(a.region.0 as u64);
                h.u64(a.lhs.0 as u64);
                array_expr(h, &a.rhs);
            }
            Stmt::Scalar { lhs, rhs } => {
                h.u8(1);
                h.u64(lhs.0 as u64);
                scalar_expr(h, rhs);
            }
            Stmt::Reduce {
                lhs,
                op,
                region,
                arg,
            } => {
                h.u8(2);
                h.u64(lhs.0 as u64);
                reduce_op(h, *op);
                h.u64(region.0 as u64);
                array_expr(h, arg);
            }
            Stmt::For {
                var,
                lo,
                hi,
                down,
                body,
            } => {
                h.u8(3);
                h.u64(var.0 as u64);
                scalar_expr(h, lo);
                scalar_expr(h, hi);
                h.u8(*down as u8);
                stmts(h, body);
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                h.u8(4);
                scalar_expr(h, cond);
                stmts(h, then_body);
                stmts(h, else_body);
            }
        }
    }
}

/// The structural digest of a program: declarations (with their resolved
/// names) in declaration order, plus the full statement tree.
///
/// Declaration *indices* are the ids the statement tree references, so
/// hashing declarations in order pins the meaning of every id the tree
/// mentions. Equal programs hash equal; see the module docs for the
/// round-trip invariant.
pub fn program_hash(p: &Program) -> u64 {
    let mut h = Fnv::new();
    h.str(&p.name);

    h.u64(p.configs.len() as u64);
    for c in &p.configs {
        h.str(&c.name);
        ty(&mut h, c.ty);
        h.f64(c.default);
    }

    h.u64(p.regions.len() as u64);
    for r in &p.regions {
        h.str(&r.name);
        h.u64(r.extents.len() as u64);
        for e in &r.extents {
            lin(&mut h, &e.lo);
            lin(&mut h, &e.hi);
        }
    }

    h.u64(p.arrays.len() as u64);
    for a in &p.arrays {
        h.str(&a.name);
        h.u64(a.region.0 as u64);
        h.u8(a.compiler_temp as u8);
        h.u64(a.collapsed.len() as u64);
        for &d in &a.collapsed {
            h.u8(d);
        }
    }

    h.u64(p.scalars.len() as u64);
    for s in &p.scalars {
        h.str(&s.name);
        ty(&mut h, s.ty);
    }

    stmts(&mut h, &p.body);
    h.finish()
}

/// The lower stage's content address: a [`program_hash`] digest (passed
/// in, so a request hashes its program once) extended with the concrete
/// value of every config variable of `p` under `binding` (the bytecode
/// compiler bakes region bounds in at compile time, so different bindings
/// are different compiled artifacts).
pub fn key_hash(program_digest: u64, p: &Program, binding: &ConfigBinding) -> u64 {
    let mut h = Fnv::new();
    h.u64(program_digest);
    h.u64(p.configs.len() as u64);
    for i in 0..p.configs.len() {
        h.i64(binding.get(ConfigId(i as u32)));
    }
    h.finish()
}

/// The parse stage's address: a digest of source text, eight bytes per
/// multiply (byte-wise FNV costs more than the rest of a cache hit on a
/// 7 KB program). Not collision-resistant; see the module docs for why it
/// need not be.
pub fn text_hash(text: &str) -> u64 {
    // The 64-bit golden-ratio multiplier spreads a word's low bits
    // upward; the shift folds the high bits back down for the next word.
    let mix = |h: u64, word: u64| {
        let h = (h ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 29)
    };
    let mut words = text.as_bytes().chunks_exact(8);
    let mut h = mix(FNV_OFFSET, text.len() as u64);
    for w in &mut words {
        h = mix(h, u64::from_le_bytes(w.try_into().expect("chunks of 8")));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    mix(h, u64::from_le_bytes(tail))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program t; config n : int = 8; region R = [1..n]; \
        var A, B : [R] float; var s : float; \
        begin [R] A := 2.0; [R] B := A@[1] + 1.5; s := +<< [R] B; end";

    #[test]
    fn equal_programs_hash_equal() {
        let a = zlang::compile(SRC).unwrap();
        let b = zlang::compile(SRC).unwrap();
        assert_eq!(program_hash(&a), program_hash(&b));
    }

    #[test]
    fn print_reparse_round_trip_preserves_hash() {
        let p = zlang::compile(SRC).unwrap();
        let reparsed = zlang::compile(&zlang::pretty::source(&p)).unwrap();
        assert_eq!(p, reparsed, "round trip must preserve the program");
        assert_eq!(program_hash(&p), program_hash(&reparsed));
    }

    #[test]
    fn structural_changes_change_the_hash() {
        let base = program_hash(&zlang::compile(SRC).unwrap());
        for variant in [
            SRC.replace("2.0", "3.0"),
            SRC.replace("+<<", "max<<"),
            SRC.replace("A@[1]", "A"),
            SRC.replace("n : int = 8", "n : int = 9"),
            SRC.replace("var s : float", "var s, z : float"),
        ] {
            let h = program_hash(&zlang::compile(&variant).unwrap());
            assert_ne!(h, base, "variant {variant:?} must hash differently");
        }
    }

    #[test]
    fn key_hash_distinguishes_bindings() {
        let p = zlang::compile(SRC).unwrap();
        let digest = program_hash(&p);
        let d = ConfigBinding::defaults(&p);
        let mut big = d.clone();
        big.set_by_name(&p, "n", 64);
        assert_eq!(key_hash(digest, &p, &d), key_hash(digest, &p, &d));
        assert_ne!(key_hash(digest, &p, &d), key_hash(digest, &p, &big));
        assert_ne!(key_hash(digest, &p, &d), key_hash(digest ^ 1, &p, &d));
    }

    #[test]
    fn text_hash_sees_every_byte_and_the_length() {
        let base = text_hash(SRC);
        // A flip anywhere — full words, the tail, the last byte — and a
        // zero-padded tail all move the digest.
        for at in [0, 7, 8, SRC.len() / 2, SRC.len() - 1] {
            let mut bytes = SRC.as_bytes().to_vec();
            bytes[at] ^= 0x20;
            let flipped = String::from_utf8(bytes).unwrap();
            assert_ne!(text_hash(&flipped), base, "byte {at}");
        }
        assert_ne!(text_hash("abc"), text_hash("abc\0"));
        assert_ne!(text_hash(""), text_hash("\0"));
    }

    #[test]
    fn zero_sign_matters() {
        let a = zlang::compile(SRC).unwrap();
        let b = zlang::compile(&SRC.replace("2.0", "-0.0")).unwrap();
        let c = zlang::compile(&SRC.replace("2.0", "0.0")).unwrap();
        assert_ne!(program_hash(&b), program_hash(&c));
        assert_ne!(program_hash(&a), program_hash(&c));
    }
}
