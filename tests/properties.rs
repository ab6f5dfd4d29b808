//! Property-based tests over randomly generated array programs:
//!
//! * every optimization level preserves semantics exactly, on both
//!   execution engines;
//! * `FUSION-FOR-CONTRACTION` always produces a valid fusion partition
//!   (Definition 5, re-checked independently);
//! * contraction decisions satisfy Definition 6's observable consequence —
//!   contracted arrays vanish from the scalarized code;
//! * `FIND-LOOP-STRUCTURE` results legalize every dependence;
//! * the source printer round-trips through the compiler.

use testkit::{cases, Rng};
use zpl_fusion::fusion::asdg;
use zpl_fusion::fusion::depvec::Udv;
use zpl_fusion::fusion::fusion::{FusionCtx, Partition};
use zpl_fusion::fusion::loopstruct::find_loop_structure;
use zpl_fusion::fusion::normal;
use zpl_fusion::fusion::pipeline::{Level, Pipeline};
use zpl_fusion::prelude::*;

/// One randomly generated statement: which array it writes and an
/// expression tree over reads of earlier-declared arrays.
#[derive(Debug, Clone)]
struct GenStmt {
    target: usize,
    rhs: GenExpr,
}

#[derive(Debug, Clone)]
enum GenExpr {
    Const(f64),
    /// Read array `idx` at offset (di, dj) ∈ {-1,0,1}².
    Read(usize, i64, i64),
    Index(u8),
    Add(Box<GenExpr>, Box<GenExpr>),
    Mul(Box<GenExpr>, Box<GenExpr>),
    Sub(Box<GenExpr>, Box<GenExpr>),
}

fn gen_expr(rng: &mut Rng, arrays: usize, depth: u32) -> GenExpr {
    if depth == 0 || rng.below(3) == 0 {
        match rng.below(3) {
            0 => GenExpr::Const(rng.f64(-4.0, 4.0)),
            1 => GenExpr::Read(rng.below(arrays), rng.range(-1, 1), rng.range(-1, 1)),
            _ => GenExpr::Index(rng.below(2) as u8),
        }
    } else {
        let a = Box::new(gen_expr(rng, arrays, depth - 1));
        let b = Box::new(gen_expr(rng, arrays, depth - 1));
        match rng.below(3) {
            0 => GenExpr::Add(a, b),
            1 => GenExpr::Mul(a, b),
            _ => GenExpr::Sub(a, b),
        }
    }
}

fn render_expr(e: &GenExpr, names: &[String]) -> String {
    match e {
        GenExpr::Const(v) => format!("{v:?}"),
        GenExpr::Read(a, 0, 0) => names[*a].clone(),
        GenExpr::Read(a, i, j) => format!("{}@[{i},{j}]", names[*a]),
        GenExpr::Index(0) => "index1".into(),
        GenExpr::Index(_) => "index2".into(),
        GenExpr::Add(a, b) => format!("({} + {})", render_expr(a, names), render_expr(b, names)),
        GenExpr::Mul(a, b) => {
            // Keep magnitudes bounded: multiply by a damped factor.
            format!(
                "({} * 0.125 * {})",
                render_expr(a, names),
                render_expr(b, names)
            )
        }
        GenExpr::Sub(a, b) => format!("({} - {})", render_expr(a, names), render_expr(b, names)),
    }
}

/// Renders a generated block as a complete program. All arrays are
/// declared over the halo region so every `@` read is in bounds.
fn render_program(arrays: usize, stmts: &[GenStmt]) -> String {
    let names: Vec<String> = (0..arrays).map(|i| format!("V{i}")).collect();
    let mut src = String::from("program gen;\nconfig n : int = 7;\n");
    src.push_str("region RH = [0..n+1, 0..n+1];\nregion R = [1..n, 1..n];\n");
    for n in &names {
        src.push_str(&format!("var {n} : [RH] float;\n"));
    }
    src.push_str("var chk : float;\nbegin\n");
    for s in stmts {
        src.push_str(&format!(
            "  [R] {} := {};\n",
            names[s.target],
            render_expr(&s.rhs, &names)
        ));
    }
    // Checksum over everything so all arrays are live-out candidates or not
    // purely dead.
    let sum = names.join(" + ");
    src.push_str(&format!("  chk := +<< [R] {sum};\n"));
    src.push_str("end\n");
    src
}

fn gen_block(rng: &mut Rng, max_arrays: usize, max_stmts: usize) -> (usize, Vec<GenStmt>) {
    let arrays = rng.range(2, max_arrays as i64) as usize;
    let count = rng.range(1, max_stmts as i64) as usize;
    let stmts = (0..count)
        .map(|_| GenStmt {
            target: rng.below(arrays),
            rhs: gen_expr(rng, arrays, 2),
        })
        .collect();
    (arrays, stmts)
}

fn checksum(src: &str, level: Level, engine: Engine) -> f64 {
    let program = zpl_fusion::lang::compile(src).expect("generated program compiles");
    let opt = Pipeline::new(level).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let mut exec = engine
        .executor(&opt.scalarized, binding)
        .expect("engine compiles");
    let outcome = exec
        .execute(&mut NoopObserver)
        .expect("generated program executes");
    outcome.scalar(opt.scalarized.program.scalar_by_name("chk").unwrap())
}

#[test]
fn all_levels_preserve_random_programs() {
    cases(48, 0x1eef, |rng| {
        let (arrays, stmts) = gen_block(rng, 5, 8);
        let src = render_program(arrays, &stmts);
        let expect = checksum(&src, Level::Baseline, Engine::Interp);
        assert!(expect.is_finite(), "baseline diverged: {src}");
        for level in Level::all() {
            for engine in Engine::all() {
                let got = checksum(&src, level, engine);
                // Element-wise results are bit-exact; the checksum reduction
                // may be *reassociated* when its cluster's loop structure is
                // reversed or interchanged (reductions are associative by
                // language definition), so compare with a tight relative
                // tolerance.
                let tol = 1e-9 * expect.abs().max(1.0);
                assert!(
                    (got - expect).abs() <= tol,
                    "level {level} on {engine}: {got} != {expect}\n{src}"
                );
            }
        }
    });
}

#[test]
fn fusion_partitions_are_valid() {
    cases(48, 0xfa51, |rng| {
        let (arrays, stmts) = gen_block(rng, 5, 10);
        let src = render_program(arrays, &stmts);
        let program = zpl_fusion::lang::compile(&src).unwrap();
        let np = normal::normalize(&program);
        let candidates = normal::contraction_candidates(&np);
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg::build(&np.program, block);
            let ctx = FusionCtx::new(&np.program, block, &g);
            let mut part = Partition::trivial(g.n);
            let mut defs = Vec::new();
            for (ai, c) in candidates.iter().enumerate() {
                if *c == Some(bi) {
                    defs.extend(g.defs_of(zpl_fusion::lang::ir::ArrayId(ai as u32)));
                }
            }
            let defs = zpl_fusion::fusion::weights::sort_by_weight(
                &np.program,
                block,
                &g,
                defs,
                &np.default_binding(),
            );
            ctx.fusion_for_contraction(&mut part, &defs);
            assert!(
                ctx.validate(&part).is_ok(),
                "{:?}\n{src}",
                ctx.validate(&part)
            );
            // Locality fusion and pairwise fusion must also stay valid.
            let all: Vec<_> = (0..g.defs.len() as u32)
                .map(zpl_fusion::fusion::asdg::DefId)
                .collect();
            let all = zpl_fusion::fusion::weights::sort_by_weight(
                &np.program,
                block,
                &g,
                all,
                &np.default_binding(),
            );
            ctx.fusion_for_locality(&mut part, &all);
            assert!(ctx.validate(&part).is_ok());
            ctx.pairwise_fusion(&mut part);
            assert!(ctx.validate(&part).is_ok());
        }
    });
}

#[test]
fn contracted_arrays_vanish_from_scalarized_code() {
    cases(48, 0xc0a7, |rng| {
        let (arrays, stmts) = gen_block(rng, 5, 8);
        let src = render_program(arrays, &stmts);
        let program = zpl_fusion::lang::compile(&src).unwrap();
        let opt = Pipeline::new(Level::C2).optimize(&program);
        let live = opt.scalarized.live_arrays();
        for &a in &opt.contracted {
            assert!(!live.contains(&a));
        }
        // And vice versa: everything referenced but not contracted is live.
        assert_eq!(
            live.len() + opt.contracted.len(),
            opt.report.before(),
            "accounting must balance"
        );
    });
}

#[test]
fn find_loop_structure_legalizes_or_rejects() {
    cases(48, 0x100b, |rng| {
        let count = rng.below(12);
        let deps: Vec<Udv> = (0..count)
            .map(|_| Udv(vec![rng.range(-3, 3), rng.range(-3, 3), rng.range(-3, 3)]))
            .collect();
        match find_loop_structure(&deps, 3) {
            Some(p) => {
                assert!(zpl_fusion::loops::ir::is_valid_structure(&p, 3));
                for u in &deps {
                    assert!(u.preserved_by(&p), "{u} not preserved by {p:?}");
                }
            }
            None => {
                // The identity and simple reversals must indeed all fail —
                // spot-check a few structures to build confidence that
                // rejection is not spurious.
                for p in [[1i8, 2, 3], [-1, 2, 3], [2, 1, 3], [3, -2, -1]] {
                    assert!(
                        deps.iter().any(|u| !u.preserved_by(&p)),
                        "{p:?} legalizes everything but NOSOLUTION was returned"
                    );
                }
            }
        }
    });
}

#[test]
fn dimension_contraction_preserves_random_programs() {
    cases(48, 0xd1c0, |rng| {
        let (arrays, stmts) = gen_block(rng, 5, 10);
        let src = render_program(arrays, &stmts);
        let program = zpl_fusion::lang::compile(&src).unwrap();
        let run = |dim: bool| {
            let opt = Pipeline::new(LevelSpec {
                dim,
                ..Level::C2.into()
            })
            .optimize(&program);
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            let mut exec = Engine::Vm.executor(&opt.scalarized, binding).unwrap();
            let outcome = exec.execute(&mut NoopObserver).expect("executes");
            let chk = outcome.scalar(opt.scalarized.program.scalar_by_name("chk").unwrap());
            (chk, outcome.stats.peak_bytes)
        };
        let (plain, mem_plain) = run(false);
        let (dimc, mem_dimc) = run(true);
        let tol = 1e-9 * plain.abs().max(1.0);
        assert!((plain - dimc).abs() <= tol, "{plain} != {dimc}\n{src}");
        assert!(
            mem_dimc <= mem_plain,
            "collapse must never grow memory\n{src}"
        );
    });
}

#[test]
fn printed_source_roundtrips() {
    cases(48, 0x9127, |rng| {
        let (arrays, stmts) = gen_block(rng, 4, 6);
        let src = render_program(arrays, &stmts);
        let p1 = zpl_fusion::lang::compile(&src).unwrap();
        let printed = zpl_fusion::lang::pretty::source(&p1);
        let p2 = zpl_fusion::lang::compile(&printed)
            .unwrap_or_else(|e| panic!("printed source does not compile: {e}\n{printed}"));
        assert_eq!(&p1, &p2, "round-trip changed the program:\n{}", printed);
    });
}
