//! Seeded random `zlang` program generation for differential testing.
//!
//! Emits program *source text* (keeping this crate dependency-free), built
//! so that every generated program is valid by construction:
//!
//! * offset (`@`) reads touch only arrays declared over the haloed region
//!   `RH`, so no access can leave a declared region;
//! * interior arrays are read only after they have been written;
//! * the first declared scalar is a checksum reduction over the final
//!   state, so semantic equivalence across optimization levels and
//!   engines is a single `f64` comparison (compare bits, not values —
//!   generated arithmetic may legitimately produce infinities).
//!
//! The statement mix deliberately exercises the optimizer: self-updates
//! (which force compiler temporaries), chained interior temporaries
//! (contraction candidates), stencil reads (fusion blockers/enablers),
//! `for` loops, and multi-statement dependence chains.

use crate::Rng;
use std::fmt::Write;

/// Tuning knobs for [`generate`].
#[derive(Debug, Clone, Copy)]
pub struct GenOptions {
    /// Problem size bounds (the generated `config n`), inclusive.
    pub n: (i64, i64),
    /// Number of interior arrays (`U0..`), at least 2.
    pub interior_arrays: usize,
    /// Number of haloed arrays (`H0..`), at least 1.
    pub halo_arrays: usize,
    /// Top-level statement count bounds, inclusive.
    pub stmts: (usize, usize),
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            n: (4, 8),
            interior_arrays: 4,
            halo_arrays: 2,
            stmts: (4, 10),
        }
    }
}

/// The nine stencil offsets usable on haloed arrays.
const OFFSETS: [(i64, i64); 9] = [
    (0, 0),
    (-1, 0),
    (1, 0),
    (0, -1),
    (0, 1),
    (-1, -1),
    (-1, 1),
    (1, -1),
    (1, 1),
];

struct Gen<'r> {
    rng: &'r mut Rng,
    opts: GenOptions,
    /// Interior arrays already written (safe to read).
    written: Vec<bool>,
}

impl Gen<'_> {
    fn constant(&mut self) -> String {
        // Small magnitudes and a damping bias keep chained products from
        // exploding too fast; overflow to infinity is still legal.
        let v = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0];
        format!("{:?}", v[self.rng.below(v.len())])
    }

    /// A readable operand: an initialized interior array (aligned), a
    /// haloed array (possibly at an offset), an index expression, or a
    /// constant.
    fn operand(&mut self) -> String {
        match self.rng.below(6) {
            0 | 1 => {
                let h = self.rng.below(self.opts.halo_arrays);
                let (di, dj) = OFFSETS[self.rng.below(OFFSETS.len())];
                if (di, dj) == (0, 0) {
                    format!("H{h}")
                } else {
                    format!("H{h}@[{di},{dj}]")
                }
            }
            2 | 3 => {
                let ready: Vec<usize> = (0..self.written.len())
                    .filter(|&u| self.written[u])
                    .collect();
                if ready.is_empty() {
                    self.constant()
                } else {
                    format!("U{}", ready[self.rng.below(ready.len())])
                }
            }
            4 => ["index1", "index2"][self.rng.below(2)].to_string(),
            _ => self.constant(),
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 || self.rng.below(3) == 0 {
            return self.operand();
        }
        let op = ["+", "-", "*"][self.rng.below(3)];
        let l = self.expr(depth - 1);
        let r = self.expr(depth - 1);
        format!("({l} {op} {r})")
    }

    /// One `[R] ...` array assignment, possibly a self-update (which
    /// forces normalization to insert a compiler temporary).
    fn array_stmt(&mut self, out: &mut String, indent: &str) {
        let u = self.rng.below(self.opts.interior_arrays);
        let rhs = self.expr(2);
        let rhs = if self.written[u] && self.rng.below(3) == 0 {
            format!("(U{u} * 0.5 + {rhs})") // self-update: read-and-write
        } else {
            rhs
        };
        self.written[u] = true;
        let _ = writeln!(out, "{indent}[R] U{u} := {rhs};");
    }

    fn stmt(&mut self, out: &mut String, indent: &str, allow_loop: bool) {
        if allow_loop && self.rng.below(5) == 0 {
            let iters = self.rng.range(2, 3);
            let _ = writeln!(out, "{indent}for k := 1 to {iters} do");
            let inner = self.rng.range(1, 3);
            for _ in 0..inner {
                self.array_stmt(out, &format!("{indent}  "));
            }
            let _ = writeln!(out, "{indent}end;");
        } else {
            self.array_stmt(out, indent);
        }
    }
}

/// Generates one random program's source under the default options.
pub fn generate(rng: &mut Rng) -> String {
    generate_with(rng, GenOptions::default())
}

/// Generates one random program's source.
///
/// # Panics
///
/// Panics if `opts` asks for fewer than one halo array, fewer than two
/// interior arrays, or an empty statement range.
pub fn generate_with(rng: &mut Rng, opts: GenOptions) -> String {
    assert!(opts.halo_arrays >= 1 && opts.interior_arrays >= 2);
    assert!(opts.stmts.0 >= 1 && opts.stmts.0 <= opts.stmts.1);
    let n = rng.range(opts.n.0, opts.n.1);
    let mut g = Gen {
        rng,
        opts,
        written: vec![false; opts.interior_arrays],
    };
    let mut src = String::new();
    let _ = writeln!(src, "program chaos;");
    let _ = writeln!(src, "config n : int = {n};");
    let _ = writeln!(src, "region RH = [0..n+1, 0..n+1];");
    let _ = writeln!(src, "region R = [1..n, 1..n];");
    let halos: Vec<String> = (0..opts.halo_arrays).map(|h| format!("H{h}")).collect();
    let _ = writeln!(src, "var {} : [RH] float;", halos.join(", "));
    let interiors: Vec<String> = (0..opts.interior_arrays).map(|u| format!("U{u}")).collect();
    let _ = writeln!(src, "var {} : [R] float;", interiors.join(", "));
    let _ = writeln!(src, "var chk, chk2 : float;");
    let _ = writeln!(src, "var k : int;");
    let _ = writeln!(src, "begin");
    // Initialize every haloed array over its full (haloed) region so that
    // stencil reads never see an unwritten-but-allocated cell pattern that
    // differs between engines (all engines zero-fill, but explicit
    // initialization makes the programs read naturally).
    for h in 0..g.opts.halo_arrays {
        let scale = g.constant();
        let bias = g.constant();
        let _ = writeln!(src, "  [RH] H{h} := (index1 * {scale} + index2 * {bias});");
    }
    let count = g.rng.range(g.opts.stmts.0 as i64, g.opts.stmts.1 as i64);
    for _ in 0..count {
        g.stmt(&mut src, "  ", true);
    }
    // Checksum every interior array that was written, plus one halo array;
    // this keeps them live-out (as in real applications) and gives the
    // differential tests a single scalar to compare.
    let mut terms: Vec<String> = (0..g.opts.interior_arrays)
        .filter(|&u| g.written[u])
        .map(|u| format!("U{u}"))
        .collect();
    terms.push("H0".to_string());
    let sum = terms.join(" + ");
    let _ = writeln!(src, "  chk := +<< [R] ({sum});");
    let _ = writeln!(src, "  chk2 := max<< [R] ({sum});");
    let _ = writeln!(src, "end");
    src
}

/// Generates one stencil-shaped program: flux pairs whose two statements
/// share a compound subexpression at different uniform offsets, repeated
/// neighbor sums, and a const-bound time loop mixing loop-invariant
/// statements (hoistable) with self-updating ones. These are the shapes
/// the `+rce2` offset-lattice pass exists for, so the differential suite
/// sweeps them across levels and engines.
pub fn generate_stencil(rng: &mut Rng) -> String {
    let opts = GenOptions {
        interior_arrays: 6,
        ..GenOptions::default()
    };
    let n = rng.range(opts.n.0, opts.n.1);
    let mut g = Gen {
        rng,
        opts,
        written: vec![false; opts.interior_arrays],
    };
    let mut src = String::new();
    let _ = writeln!(src, "program stencil;");
    let _ = writeln!(src, "config n : int = {n};");
    let _ = writeln!(src, "region RH = [0..n+1, 0..n+1];");
    let _ = writeln!(src, "region R = [1..n, 1..n];");
    let halos: Vec<String> = (0..opts.halo_arrays).map(|h| format!("H{h}")).collect();
    let _ = writeln!(src, "var {} : [RH] float;", halos.join(", "));
    let interiors: Vec<String> = (0..opts.interior_arrays).map(|u| format!("U{u}")).collect();
    let _ = writeln!(src, "var {} : [R] float;", interiors.join(", "));
    let _ = writeln!(src, "var chk, chk2 : float;");
    let _ = writeln!(src, "var k : int;");
    let _ = writeln!(src, "begin");
    for h in 0..g.opts.halo_arrays {
        let scale = g.constant();
        let bias = g.constant();
        let _ = writeln!(src, "  [RH] H{h} := (index1 * {scale} + index2 * {bias});");
    }
    let shapes = g.rng.range(2, 4);
    for _ in 0..shapes {
        g.stencil_shape(&mut src, "  ");
    }
    // A const-bound time loop: one loop-invariant statement (a pure
    // function of the halo arrays, which the loop never writes) followed
    // by self-updates that carry state across iterations.
    let trips = g.rng.range(2, 4);
    let _ = writeln!(src, "  for k := 1 to {trips} do");
    let inv = g.rng.below(g.opts.interior_arrays);
    let h = g.rng.below(g.opts.halo_arrays);
    let c = g.constant();
    let _ = writeln!(src, "    [R] U{inv} := ((H{h}@[-1,0] + H{h}@[1,0]) * {c});");
    g.written[inv] = true;
    for _ in 0..g.rng.range(1, 2) {
        let u = g.rng.below(g.opts.interior_arrays);
        if u == inv {
            continue;
        }
        let rhs = g.expr(1);
        let rhs = if g.written[u] {
            format!("(U{u} * 0.5 + {rhs})")
        } else {
            rhs
        };
        g.written[u] = true;
        let _ = writeln!(src, "    [R] U{u} := {rhs};");
    }
    let _ = writeln!(src, "  end;");
    let mut terms: Vec<String> = (0..g.opts.interior_arrays)
        .filter(|&u| g.written[u])
        .map(|u| format!("U{u}"))
        .collect();
    terms.push("H0".to_string());
    let sum = terms.join(" + ");
    let _ = writeln!(src, "  chk := +<< [R] ({sum});");
    let _ = writeln!(src, "  chk2 := max<< [R] ({sum});");
    let _ = writeln!(src, "end");
    src
}

impl Gen<'_> {
    /// One redundancy-bearing stencil shape: a flux pair (the same
    /// difference expression at offsets `[0,1]`/`[0,0]` and
    /// `[0,0]`/`[0,-1]`, i.e. a uniform shift apart) or a neighbor sum
    /// recomputed verbatim by a second statement.
    fn stencil_shape(&mut self, out: &mut String, indent: &str) {
        let h = self.rng.below(self.opts.halo_arrays);
        let a = self.rng.below(self.opts.interior_arrays);
        let b = self.rng.below(self.opts.interior_arrays);
        let c = self.constant();
        if self.rng.below(2) == 0 {
            // Flux pair along a random axis.
            let (e, w) = if self.rng.below(2) == 0 {
                ("[0,1]", "[0,-1]")
            } else {
                ("[1,0]", "[-1,0]")
            };
            let _ = writeln!(out, "{indent}[R] U{a} := ((H{h}@{e} - H{h}) * {c});");
            if b != a {
                let _ = writeln!(out, "{indent}[R] U{b} := ((H{h} - H{h}@{w}) * {c});");
                self.written[b] = true;
            }
        } else {
            // Neighbor sum, recomputed by a second consumer.
            let sum = format!("((H{h}@[-1,0] + H{h}@[1,0]) + (H{h}@[0,-1] + H{h}@[0,1]))");
            let _ = writeln!(out, "{indent}[R] U{a} := ({sum} * {c});");
            if b != a {
                let _ = writeln!(out, "{indent}[R] U{b} := ({sum} * {c} + H{h});");
                self.written[b] = true;
            }
        }
        self.written[a] = true;
    }
}

/// A block of `len` statements that cannot fuse, each reading the one
/// before it one point along: `[R] A1 := A0@e + 1.0`, then
/// `[R] A2 := A1@e + 1.0`, ... over a haloed region. Every flow
/// dependence has a non-null distance, so greedy pairwise fusion (the
/// `c2+f4` level) tries and refuses every pair of clusters, and its cost
/// grows with the cube of `len`: the optimizer's worst case on a long
/// straight-line block. The first scalar sums the last array.
pub fn unfusable_chain(len: usize) -> String {
    let arrays: Vec<String> = (0..=len).map(|i| format!("A{i}")).collect();
    let mut src = String::new();
    let _ = writeln!(src, "program chain; config n : int = 8;");
    let _ = writeln!(src, "region RH = [0..n+1]; region R = [1..n];");
    let _ = writeln!(src, "direction e = [1];");
    let _ = writeln!(
        src,
        "var {} : [RH] float; var s : float;",
        arrays.join(", ")
    );
    let _ = writeln!(src, "begin [RH] A0 := index1;");
    for i in 1..=len {
        let _ = writeln!(src, "  [R] A{i} := A{}@e + 1.0;", i - 1);
    }
    let _ = writeln!(src, "  s := +<< [R] A{len};");
    let _ = writeln!(src, "end");
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stencil_generation_is_deterministic_and_shaped() {
        let a = generate_stencil(&mut Rng::new(7));
        let b = generate_stencil(&mut Rng::new(7));
        assert_eq!(a, b);
        for seed in 0..30 {
            let src = generate_stencil(&mut Rng::new(seed));
            assert!(src.starts_with("program stencil;"), "{src}");
            assert!(src.contains("for k := 1 to"), "{src}");
            assert!(src.contains("chk := +<<"), "{src}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&mut Rng::new(11));
        let b = generate(&mut Rng::new(11));
        assert_eq!(a, b);
        let c = generate(&mut Rng::new(12));
        assert_ne!(a, c);
    }

    #[test]
    fn programs_have_the_expected_skeleton() {
        for seed in 0..50 {
            let src = generate(&mut Rng::new(seed));
            assert!(src.starts_with("program chaos;"), "{src}");
            assert!(src.contains("chk := +<<"), "{src}");
            assert!(src.contains("[RH] H0 :="), "{src}");
            // Offset reads only ever target haloed arrays.
            for piece in src.split('@').skip(1) {
                let before = &src[..src.find(piece).unwrap() - 1];
                assert!(before.ends_with(|c: char| c.is_ascii_digit()), "{src}");
                let name_start = before.rfind(|c: char| !c.is_ascii_alphanumeric()).unwrap() + 1;
                assert!(
                    before[name_start..].starts_with('H'),
                    "offset read of interior array:\n{src}"
                );
            }
        }
    }
}
