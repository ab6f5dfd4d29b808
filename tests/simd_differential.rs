//! Differential suite for the lowered stream: superinstruction bytecode
//! with lane-based innermost-loop dispatch.
//!
//! Every VM engine name runs one instruction stream — the post-compile
//! peephole collapses fused element-wise chains into superinstructions
//! and annotates provably vectorizable innermost loops — and `vm-simd`
//! and `vm-par` additionally execute the annotated loops in strips of
//! consecutive iterations, op-major, the last strip cut to what is left
//! of the range. None of that may be observable: this
//! harness sweeps generated random and stencil-shaped programs (the
//! `testkit::genprog` generators) across strip widths 0 (the default),
//! 1, 2, 3, 8, 64 and 128 and every engine, and insists every scalar
//! stays *bit-identical* to the unoptimized reference interpreter, with
//! identical execution counters. A second pass drives the same sweep
//! through the paper benchmarks at every level, and a hand-written group
//! aims at what a lane run that spans rows adds: strips that cross row
//! ends at every alignment, loops that run backwards, dependences that
//! cross rows, the per-row outer index, reductions over short rows - each
//! also under `vm-par` at 1, 2 and 4 threads. Another group aims at what
//! a lane program no longer copies: loads read in place by every kind of
//! reader, ops evaluated once per row or per run, dropped and kept
//! register copies, and the loads that must still be copied (read after a
//! store to their array, strided, a slot's last write) - with `vm-simd`'s
//! whole register frame held to scalar dispatch's, as it is on SIMPLE,
//! Tomcatv and SP. One test holds what an observer is told - the cache
//! simulator's input, access by access - to the interpreter's at every
//! width, with the lanes running and counted. The last test stops lane
//! runs and tiles at a deadline, at 1, 2 and 4 threads.

use std::time::{Duration, Instant};
use testkit::{genprog, Rng};
use zlang::ast::{BinOp, UnOp};
use zlang::ir::{Intrinsic, Offset, Program, ScalarId};
use zpl_fusion::fusion::pipeline::Optimized;
use zpl_fusion::loops::{
    EExpr, ElemRef, ElemStmt, ErrorKind, LStmt, LoopNest, ScalarProgram, SharedProgram, Strip,
    StripEvent, TempId,
};
use zpl_fusion::prelude::*;

/// Generated programs per generator per sweep.
const PROGRAMS: u64 = 15;

/// The strip widths under test: the default (0 = 128), scalar dispatch
/// over superinstruction bytecode (1), the alias-cap boundary (2), a width
/// that divides no power of two (3, so most last strips are partial and
/// most strips cross a row end), the old maximum (8), the old default
/// (64, wider than most of the generated extents, so the extent is what
/// caps the strip), and the default spelled out (128, which only a run
/// that spans rows fills on short rows).
const LANES: [usize; 7] = [0, 1, 2, 3, 8, 64, 128];

/// Thread counts the hand-written group runs `vm-par` at.
const THREADS: [usize; 3] = [1, 2, 4];

/// The two checksum scalars every generated program declares first.
fn checksums(out: &RunOutcome) -> (u64, u64) {
    (
        out.scalar(ScalarId(0)).to_bits(),
        out.scalar(ScalarId(1)).to_bits(),
    )
}

/// The reference: the tree-walking interpreter on the same optimized
/// program (the optimizer is common to every engine; only execution is
/// under test here).
fn run(sp: &ScalarProgram, binding: &ConfigBinding, engine: Engine, lanes: usize) -> RunOutcome {
    run_with(sp, binding, engine, ExecOpts::with_lanes(lanes))
}

fn run_with(
    sp: &ScalarProgram,
    binding: &ConfigBinding,
    engine: Engine,
    opts: ExecOpts,
) -> RunOutcome {
    engine
        .executor_with(sp, binding.clone(), opts)
        .unwrap_or_else(|e| panic!("{engine} {opts:?} refused to construct: {e}"))
        .execute(&mut NoopObserver)
        .unwrap_or_else(|e| panic!("{engine} {opts:?} failed: {e}"))
}

/// Every scalar bit for bit, and the counters.
fn assert_same(reference: &RunOutcome, out: &RunOutcome, ctx: &str) {
    for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{ctx}: scalar {i} differs ({a} vs {b})"
        );
    }
    assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
}

fn sweep(source: &str, ctx: &str) {
    let program: Program =
        zlang::compile(source).unwrap_or_else(|e| panic!("{ctx}: invalid program: {e}\n{source}"));
    let opt = Pipeline::new(Level::C2F3).optimize(&program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let reference = run(&opt.scalarized, &binding, Engine::Interp, 1);
    let expect = checksums(&reference);
    for engine in Engine::all() {
        for lanes in LANES {
            let out = run(&opt.scalarized, &binding, engine, lanes);
            assert_eq!(
                checksums(&out),
                expect,
                "{ctx}: {engine} x{lanes} diverged from interp\n{source}"
            );
            assert_eq!(
                out.stats, reference.stats,
                "{ctx}: {engine} x{lanes} counters differ\n{source}"
            );
        }
    }
}

#[test]
fn random_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate(&mut Rng::new(seed));
        sweep(&source, &format!("random seed {seed}"));
    }
}

#[test]
fn stencil_programs_are_bit_identical_at_every_lane_width() {
    for seed in 0..PROGRAMS {
        let source = genprog::generate_stencil(&mut Rng::new(seed));
        sweep(&source, &format!("stencil seed {seed}"));
    }
}

#[test]
fn benchmarks_are_bit_identical_at_every_lane_width_and_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 256,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let reference = run(&opt.scalarized, &binding, Engine::Interp, 1);
            for engine in [Engine::VmSimd, Engine::VmPar] {
                for lanes in LANES {
                    let out = run(&opt.scalarized, &binding, engine, lanes);
                    let ctx = format!("{} at {level}: {engine} x{lanes}", bench.name);
                    assert_same(&reference, &out, &ctx);
                }
            }
        }
    }
}

/// The cache simulator, plus the order it was fed in: every access
/// folded, in sequence, into a hash and a count. An address names its
/// array (arrays occupy disjoint extents), so the fold is over
/// `(load | store, array, address)`.
struct AccessSequence {
    sim: zpl_fusion::sim::MemSim,
    hash: u64,
    count: u64,
}

impl AccessSequence {
    fn fold(&mut self, store: bool, addr: u64) {
        // FNV-1a over the access, then over its position.
        for word in [store as u64, addr, self.count] {
            self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.count += 1;
    }
}

impl zpl_fusion::loops::Observer for AccessSequence {
    fn load(&mut self, addr: u64) {
        self.fold(false, addr);
        self.sim.load(addr);
    }

    fn store(&mut self, addr: u64) {
        self.fold(true, addr);
        self.sim.store(addr);
    }

    fn flops(&mut self, n: u64) {
        self.sim.flops(n);
    }

    fn wants_addresses(&self) -> bool {
        true
    }
}

/// An [`AccessSequence`] that also counts the strips it is handed, and
/// hands each on to the default replay (`seq` does not override the
/// hook): whether lanes ran at all is the one thing the sequence itself
/// must not show.
struct CountingStrips {
    seq: AccessSequence,
    strips: u64,
}

impl zpl_fusion::loops::Observer for CountingStrips {
    fn load(&mut self, addr: u64) {
        self.seq.load(addr);
    }

    fn store(&mut self, addr: u64) {
        self.seq.store(addr);
    }

    fn flops(&mut self, n: u64) {
        self.seq.flops(n);
    }

    fn strip(&mut self, events: &[StripEvent], at: Strip) {
        self.strips += 1;
        self.seq.strip(events, at);
    }
}

#[test]
fn cache_simulation_sees_the_scalar_access_stream() {
    // An observer that consumes per-element addresses is fed exactly the
    // reference interpreter's access *sequence* — same accesses, same
    // order — under every VM name at every width: tiles stand down, and a
    // lane run reports each strip as the scalar loops would have issued
    // it, position by position, across row ends and the ragged last
    // strip. Since every VM name runs the superinstruction stream, this
    // also pins that a superinstruction issues its loads and stores in
    // the order of the plain ops it replaced.
    use zpl_fusion::loops::Observer;
    use zpl_fusion::sim::presets::t3e;
    use zpl_fusion::sim::MemSim;
    let m = t3e();
    let observe = |opt: &Optimized, binding: &ConfigBinding, engine: Engine, opts: ExecOpts| {
        let mut obs = CountingStrips {
            seq: AccessSequence {
                sim: MemSim::new(m.l1, m.l2),
                hash: 0xcbf2_9ce4_8422_2325,
                count: 0,
            },
            strips: 0,
        };
        assert!(obs.wants_addresses());
        engine
            .executor_with(&opt.scalarized, binding.clone(), opts)
            .unwrap()
            .execute(&mut obs)
            .unwrap();
        let CountingStrips { seq, strips } = obs;
        ((seq.hash, seq.count, seq.sim.stats()), strips)
    };
    let stencil = genprog::generate_stencil(&mut Rng::new(7));
    let tomcatv = zpl_fusion::workloads::by_name("tomcatv").unwrap();
    let sp = zpl_fusion::workloads::by_name("sp").unwrap();
    let hand = |source: &str| zlang::compile(source).unwrap();
    let mut cases = vec![
        ("stencil", hand(&stencil), vec![]),
        (
            "tomcatv",
            tomcatv.program(),
            vec![(tomcatv.size_config, 12)],
        ),
        ("sp", sp.program(), vec![(sp.size_config, 6)]),
        // The hand-written group: replay across row ends.
        ("backwards", hand(BACKWARDS), vec![]),
        ("backwards", hand(BACKWARDS), vec![("n", 5), ("m", 70)]),
        ("skewed", hand(SKEWED), vec![]),
        ("skewed", hand(SKEWED), vec![("m", 70)]),
        ("cube", hand(CUBE), vec![]),
    ];
    for m in [1, 2, 3, 5, 24, 63, 64, 65, 130] {
        cases.push(("rows", hand(ROWS), vec![("m", m)]));
    }
    for (name, program, sets) in &cases {
        for level in [Level::C2F3, Level::Baseline] {
            let opt = Pipeline::new(level).optimize(program);
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            for (config, n) in sets {
                binding.set_by_name(&opt.scalarized.program, config, *n);
            }
            let ctx = format!("{name} {sets:?} at {level}");
            let (want, strips) = observe(&opt, &binding, Engine::Interp, ExecOpts::default());
            assert!(want.1 > 0, "{ctx} touches no memory");
            assert_eq!(strips, 0, "{ctx}: interp has no lanes");
            for engine in [Engine::Vm, Engine::VmSimd, Engine::VmPar] {
                for lanes in [0, 1, 8, 128] {
                    let threads = if engine == Engine::VmPar { 2 } else { 0 };
                    let (got, strips) =
                        observe(&opt, &binding, engine, ExecOpts { threads, lanes });
                    assert_eq!(
                        got, want,
                        "{ctx}: {engine} x{lanes} fed the cache simulator \
                         another access sequence than interp"
                    );
                    // The sequence cannot show whether lanes ran; the strip
                    // count does (`vm` pins one lane whatever is asked).
                    if engine == Engine::Vm || lanes == 1 {
                        assert_eq!(strips, 0, "{ctx}: {engine} x{lanes} is scalar dispatch");
                    } else {
                        assert!(strips > 0, "{ctx}: {engine} x{lanes} ran no lane");
                    }
                }
            }
        }
    }
}

/// One hand-written case: runs `source` under `sets` through
/// [`differential`].
fn hand_written(source: &str, dim: bool, sets: &[(&str, i64)], shows: &[&str]) {
    let program = zlang::compile(source).unwrap_or_else(|e| panic!("{e}\n{source}"));
    let spec = LevelSpec {
        dim,
        ..Level::C2F3.into()
    };
    let opt = Pipeline::new(spec).optimize(&program);
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    for &(name, v) in sets {
        binding.set_by_name(&opt.scalarized.program, name, v);
    }
    let ctx = format!("{} {sets:?}", program.name);
    differential(&opt.scalarized, &binding, &ctx, shows);
}

/// Runs `sp` on `vm-simd` at every width and on `vm-par` at every width
/// and thread count, and holds every scalar and the (tile-merged)
/// counters to `interp`'s, and `vm-simd`'s whole register frame to
/// scalar dispatch's. The superfused listing must contain each of
/// `shows`, so a case keeps exercising what it was written for.
fn differential(sp: &ScalarProgram, binding: &ConfigBinding, ctx: &str, shows: &[&str]) {
    let listing = Vm::new_superfused(sp, binding.clone()).unwrap().disasm();
    for show in shows {
        assert!(listing.contains(show), "{ctx}: no `{show}` in\n{listing}");
    }
    let reference = run(sp, binding, Engine::Interp, 1);
    let scalar = frame(sp, binding, 1);
    for lanes in LANES {
        let out = run(sp, binding, Engine::VmSimd, lanes);
        assert_same(&reference, &out, &format!("{ctx}: vm-simd x{lanes}"));
        assert_eq!(
            frame(sp, binding, lanes),
            scalar,
            "{ctx}: frame at x{lanes}"
        );
        for threads in THREADS {
            let out = run_with(sp, binding, Engine::VmPar, ExecOpts { threads, lanes });
            assert_same(
                &reference,
                &out,
                &format!("{ctx}: vm-par x{lanes} t{threads}"),
            );
        }
    }
}

/// The register frame a `vm-simd` run at `lanes` leaves, as bits.
fn frame(sp: &ScalarProgram, binding: &ConfigBinding, lanes: usize) -> Vec<u64> {
    let mut vm = SharedProgram::lower(sp, binding.clone(), None)
        .unwrap()
        .executor(ExecOpts { threads: 1, lanes });
    vm.execute(&mut NoopObserver).unwrap();
    vm.frame().iter().map(|v| v.to_bits()).collect()
}

/// Every index source, a load at each neighbour, and three reductions
/// whose result depends on their order (the values span 1e-1..1e7), over
/// `n` rows of length `m`.
const ROWS: &str = "program rows; config n : int = 7; config m : int = 5; \
    region GH = [0..n+1, 0..m+1]; region R = [1..n, 1..m]; \
    var A, B, C : [GH] float; var s, hi, lo : float; \
    begin \
      [GH] A := index1 * 0.3 + sin(index2 * 0.7); \
      [GH] B := (index1 * 1.5 - index2) * 1e6; \
      [R] C := A@[0,1] * B + A@[1,0] - index1 * 0.125 + index2; \
      s := +<< [GH] C + A; \
      hi := max<< [R] C * A; \
      lo := min<< [R] C - B@[0,-1]; end";

#[test]
fn strips_cross_row_ends_at_every_alignment() {
    // Row lengths against W: shorter than every width, dividing it, one
    // short of it, equal, one past it, past twice the default. A row of 1
    // is not vectorized over `R` at all (its halo region's rows are 3).
    for m in [1, 2, 3, 5, 24, 63, 64, 65, 130] {
        hand_written(
            ROWS,
            false,
            &[("m", m)],
            &["rows i0 x9 lanes 128", "broadcast f64(i0)", "in order"],
        );
    }
    // Two rows, and a single one: a run that has no row end to cross.
    hand_written(
        ROWS,
        false,
        &[("n", 2), ("m", 5)],
        &["rows i0 x2 lanes 128"],
    );
    hand_written(
        ROWS,
        false,
        &[("n", 1), ("m", 70)],
        &["rows i0 x3 lanes 128"],
    );
}

/// In-place updates whose reads force a loop to run backwards: the inner
/// one (`A`, `D`; `A`'s distance-3 dependence also caps the strip, `D`'s
/// reaches past the row and caps nothing), the outer one (`B`: the row
/// above is read before it is overwritten, and comes one row length
/// later in execution order), both (`C`).
const BACKWARDS: &str = "program backwards; config n : int = 6; config m : int = 11; \
    region GH = [0..n+1, -69..m+1]; region R = [1..n, 1..m]; \
    var A, B, C, D : [GH] float; var s : float; \
    begin \
      [GH] A := index1 * 0.3 + sin(index2 * 0.7); \
      [GH] B := index1 * 1.5 - index2; \
      [GH] C := cos(index1 + index2 * 0.1); \
      [GH] D := index1 - index2 * 0.01; \
      [R] A := A@[0,-3] * 0.5 + B; \
      [R] B := B@[-1,0] + A * 0.25; \
      [R] C := C@[-1,0] * C@[0,-3] + 1.0; \
      [R] D := D@[0,-70] + A; \
      s := +<< [GH] A + B + C + D; end";

#[test]
fn loops_that_run_backwards_span_rows() {
    hand_written(
        BACKWARDS,
        false,
        &[],
        &[
            "lanes 3 range [11, 0) step -1",
            "lanes 128 range [11, 0) step -1",
            "i0 += -1",
            "rows i0 x6 lanes 3 pcs",
            "rows i0 x6 lanes 11 pcs",
            "rows i0 x6 lanes 128 pcs",
        ],
    );
    hand_written(
        BACKWARDS,
        false,
        &[("n", 5), ("m", 70)],
        &["rows i0 x5 lanes 70 pcs"],
    );
}

/// In-place updates that read the row below at a column offset: nothing
/// collides within a row, but the cell `(r+1, c-k)` is read `m - k`
/// positions before it is overwritten, so the row-spanning width binds.
const SKEWED: &str = "program skewed; config n : int = 6; config m : int = 5; \
    region GH = [0..n+1, -2..m+1]; region R = [1..n, 1..m]; \
    var A, B : [GH] float; var s : float; \
    begin \
      [GH] A := index1 * 0.3 + sin(index2 * 0.7); \
      [GH] B := index1 * 1.5 - index2; \
      [R] A := A@[1,-1] * 0.5 + B; \
      [R] B := B@[1,-3] + A; \
      s := +<< [GH] A * B; end";

#[test]
fn dependences_that_cross_rows_bind_the_width() {
    // m = 5: widths 4 and 2, so a run spans rows at `--lanes 2` (and 3 for
    // `A`) and stays inside its row above that.
    hand_written(
        SKEWED,
        false,
        &[],
        &["rows i0 x6 lanes 4 pcs", "rows i0 x6 lanes 2 pcs"],
    );
    // m = 70: widths 69 and 67 against rows of 70, so a run spans rows up
    // to the default width and not at 128.
    hand_written(
        SKEWED,
        false,
        &[("m", 70)],
        &["rows i0 x6 lanes 69 pcs", "rows i0 x6 lanes 67 pcs"],
    );
}

/// A rank-3 region: the run covers the (middle, last) plane, the
/// outermost index is invariant across it, the middle one changes per row
/// segment.
const CUBE: &str = "program cube; config n : int = 4; config m : int = 5; config k : int = 6; \
    region GH = [0..n+1, 0..m+1, 0..k+1]; region R = [1..n, 1..m, 1..k]; \
    var A, B : [GH] float; var s : float; \
    begin \
      [GH] A := index1 * 100.0 + index2 * 10.0 + index3; \
      [R] B := A@[0,0,1] - A@[0,1,0] * 0.5 + A@[1,0,0] + index1 * index2 - index3; \
      s := +<< [R] B * A; end";

#[test]
fn contracted_rows_and_rank_three_planes() {
    hand_written(
        CUBE,
        false,
        &[],
        &[
            "rows i1 x5 lanes 128",
            "broadcast f64(i0)",
            "broadcast f64(i1)",
        ],
    );
    // Under dimension contraction the stage arrays keep one row (stride 0
    // along the rows) and the row loop is a counter loop, not a region
    // loop: the lane runs stay inside it.
    hand_written(
        include_str!("../examples/programs/sweep.zl"),
        true,
        &[],
        &["rows: no (no enclosing loop)", "ctrstep"],
    );
    hand_written(
        include_str!("../examples/programs/sweep.zl"),
        true,
        &[("n", 70)],
        &["rows: no (no enclosing loop)"],
    );
}

#[test]
fn lane_runs_leave_the_scalar_frame() {
    // Every register - temporaries included - as scalar dispatch leaves
    // it, at every width: what a lane run writes back on exit, from the
    // lane file, or from the slot a dropped copy read.
    for (name, n) in [("simple", 12), ("tomcatv", 12), ("sp", 6)] {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
        let scalar = frame(&opt.scalarized, &binding, 1);
        for lanes in LANES {
            let got = frame(&opt.scalarized, &binding, lanes);
            assert_eq!(got, scalar, "{name}: frame at x{lanes}");
        }
    }
}

/// Loads read in place by a `-`, a call, a `+`, a store and a reduction;
/// evaluated-once ops per row and per run; and loads the lane program
/// must copy (the last writes of their slots) - from source, through the
/// optimizer.
const FOLDS: &str = "program folds; config n : int = 7; config m : int = 5; \
    region GH = [0..n+1, 0..m+1]; region R = [1..n, 1..m]; \
    var A, B, C, D, E, F, T1, T2 : [GH] float; var s, t : float; \
    begin \
      [GH] A := index1 * 0.3 + sin(index2 * 0.7); \
      [GH] B := (index1 * 1.5 - index2) * 0.25; \
      [GH] C := cos(index1 * 0.1) - index2; \
      [R] T1 := A@[0,1] + B; \
      [R] D := -A@[1,0] * T1; \
      [R] T2 := sqrt(abs(B@[1,0])) + T1; \
      [R] E := C@[0,1] + T2; \
      [R] F := T2 * C - sin(index1 * 0.2 + 1.0) * index1 * (2.0 * 3.0); \
      s := +<< [R] A@[1,1] * T2 + E; \
      t := +<< [GH] D + E + F; end";

#[test]
fn loads_read_in_place_across_row_ends() {
    let shows = [
        "l2 = @3 + @4",
        "l1 = -@5",
        "l1 = Abs(@7)",
        "per row: l8 = Sin(l7)",
        "per run: l11 = l16 * l17",
        "per row: l12 = l10 * l11",
        "l3 = load @12",
    ];
    hand_written(FOLDS, false, &[], &shows);
    for (n, m) in [(3, 1), (2, 64), (9, 130)] {
        hand_written(FOLDS, false, &[("n", n), ("m", m)], &[]);
    }
}

/// A program of one fill nest over the whole of `A`..`E` and one nest of
/// `body` over the `n x m` interior, rows outer and the rows run
/// backwards when `backwards`; `s`, `hi` are its scalars.
fn interior(backwards: bool, temps: u32, body: Vec<ElemStmt>) -> ScalarProgram {
    use zlang::ir::{ArrayId, RegionId};
    let program = zlang::compile(
        "program interior; config n : int = 6; config m : int = 5; \
         region GH = [0..n+1, 0..m+1]; region R = [1..n, 1..m]; \
         var A, B, C, D, E : [GH] float; var s, hi : float; begin end",
    )
    .unwrap();
    let fill = (0..5)
        .map(|a| ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0, 0])),
            rhs: bin(
                BinOp::Add,
                bin(BinOp::Mul, EExpr::Index(0), EExpr::Const(0.3 + a as f64)),
                EExpr::Call(
                    Intrinsic::Sin,
                    vec![bin(
                        BinOp::Mul,
                        EExpr::Index(1),
                        EExpr::Const(0.7 * (a + 1) as f64),
                    )],
                ),
            ),
        })
        .collect();
    let nest = |region, structure, body, temps| {
        LStmt::Nest(LoopNest {
            region: RegionId(region),
            structure,
            body,
            cluster: 0,
            temps,
        })
    };
    let inner = if backwards { -2 } else { 2 };
    ScalarProgram {
        program,
        stmts: vec![
            nest(0, vec![1, 2], fill, 0),
            nest(1, vec![1, inner], body, temps),
        ],
    }
}

fn bin(op: BinOp, a: EExpr, b: EExpr) -> EExpr {
    EExpr::Binary(op, Box::new(a), Box::new(b))
}

fn at(a: u32, r: i64, c: i64) -> EExpr {
    EExpr::Load(zlang::ir::ArrayId(a), Offset(vec![r, c]))
}

fn temp(t: u32) -> EExpr {
    EExpr::Temp(TempId(t))
}

fn set(t: u32, rhs: EExpr) -> ElemStmt {
    ElemStmt {
        target: ElemRef::Temp(TempId(t)),
        rhs,
    }
}

fn put(a: u32, rhs: EExpr) -> ElemStmt {
    ElemStmt {
        target: ElemRef::Array(zlang::ir::ArrayId(a), Offset(vec![0, 0])),
        rhs,
    }
}

/// Runs a hand-built nest through [`differential`] over rows shorter than
/// every tested width (the listing must show `shows` there), rows of one
/// (nothing vectorizes), rows around 3 and rows one past 128.
fn hand_built(name: &str, sp: &ScalarProgram, shows: &[&str]) {
    for (n, m) in [(6, 5), (4, 1), (3, 7), (2, 129)] {
        let mut binding = ConfigBinding::defaults(&sp.program);
        binding.set_by_name(&sp.program, "n", n);
        binding.set_by_name(&sp.program, "m", m);
        let shows = if m == 5 { shows } else { &[] };
        differential(sp, &binding, &format!("{name} n={n} m={m}"), shows);
    }
}

#[test]
fn lane_programs_copy_only_what_they_must() {
    let (a, b, c, d, e) = (0, 1, 2, 3, 4);
    // A load read after a store to its array, and the same body with the
    // rows run backwards (no stream is unit-stride), and the last writes
    // of their slots: each must be copied, nothing read in place.
    let across = vec![
        set(0, at(a, 0, 0)),
        put(a, bin(BinOp::Mul, at(b, 0, 0), EExpr::Const(2.0))),
        put(c, bin(BinOp::Mul, temp(0), EExpr::Const(3.0))),
        set(0, at(b, 0, 1)),
        put(d, bin(BinOp::Add, temp(0), at(c, 0, 0))),
    ];
    let across_shows = ["l0 = load @5", "l2 = l0 * l4", "l1 = load @10"];
    hand_built(
        "across a store",
        &interior(false, 1, across.clone()),
        &across_shows,
    );
    let backwards = ["step -1", "l0 = load @5", "l2 = l1 * l3", "store @7, l2"];
    hand_built("backwards", &interior(true, 1, across), &backwards);

    // One reader each: a `-`, a call, a `+`, a store and a reduction.
    let consumers = vec![
        set(0, at(a, 0, 1)),
        put(d, EExpr::Unary(UnOp::Neg, Box::new(temp(0)))),
        put(
            e,
            EExpr::Call(
                Intrinsic::Sqrt,
                vec![EExpr::Call(Intrinsic::Abs, vec![at(b, 1, 0)])],
            ),
        ),
        set(0, at(c, 0, 0)),
        put(d, bin(BinOp::Add, temp(0), at(a, -1, 0))),
        set(0, at(a, 1, 1)),
        put(e, temp(0)),
        set(0, at(b, 0, -1)),
        ElemStmt {
            target: ElemRef::Reduce(ScalarId(0), zlang::ast::ReduceOp::Sum),
            rhs: temp(0),
        },
        set(0, at(c, 0, 1)),
        ElemStmt {
            target: ElemRef::Reduce(ScalarId(1), zlang::ast::ReduceOp::Max),
            rhs: bin(BinOp::Mul, temp(0), at(d, 0, 0)),
        },
        put(
            d,
            EExpr::Call(
                Intrinsic::Sqrt,
                vec![EExpr::Call(Intrinsic::Abs, vec![at(e, -1, 0)])],
            ),
        ),
    ];
    let folds = [
        "l1 = -@5",
        "l3 = Abs(@7)",
        "l1 = @9 + @10",
        "store @13, @12",
        "r0 = Sum(r0, @14) in order",
        "l0 = load @15",
        "l2 = load @17",
    ];
    hand_built("consumers", &interior(false, 1, consumers), &folds);

    // Evaluated once: per row (the row index), per run (two constants),
    // and neither (the column index).
    let once = vec![put(
        c,
        bin(
            BinOp::Sub,
            bin(
                BinOp::Add,
                at(a, 0, 0),
                bin(
                    BinOp::Mul,
                    EExpr::Call(
                        Intrinsic::Sin,
                        vec![bin(BinOp::Mul, EExpr::Index(0), EExpr::Const(0.3))],
                    ),
                    bin(BinOp::Mul, EExpr::Const(3.0), EExpr::Const(4.0)),
                ),
            ),
            bin(BinOp::Mul, EExpr::Index(1), EExpr::Const(0.5)),
        ),
    )];
    let shows = [
        "per row: l2 = l10 * l11",
        "per row: l3 = Sin(l2)",
        "per run: l4 = l12 * l13",
        "per row: l5 = l3 * l4",
        "l8 = l7 * l14",
    ];
    hand_built("once", &interior(false, 0, once), &shows);

    // A copy whose source is loaded again before the copy is read stays;
    // a copy that is its register's last write goes, and the register
    // takes the source's last value on exit.
    let copy = vec![
        set(0, at(a, 0, 0)),
        set(1, temp(0)),
        set(0, at(b, 0, 0)),
        put(
            c,
            bin(
                BinOp::Add,
                bin(BinOp::Mul, temp(1), EExpr::Const(2.0)),
                temp(0),
            ),
        ),
        set(2, temp(1)),
        put(d, bin(BinOp::Mul, temp(2), temp(0))),
    ];
    let shows = ["l1 = l0\n", "l2 = l1 * l5", "on exit r4 = l1"];
    hand_built("copies", &interior(false, 3, copy), &shows);
}

#[test]
fn a_deadline_stops_lanes_and_tiles_mid_run() {
    // SIMPLE at n = 256 runs far longer than 1 ms at every width, so each
    // run meets the deadline inside a lane run or a tile (or before its
    // first op, on a slow host) and stops there. A tile stopped by the
    // deadline still counts as done, so the pool it ran on serves the next
    // executor of its width, which runs to the interpreter's bits.
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
    let sp = &opt.scalarized;
    let mut binding = ConfigBinding::defaults(&sp.program);
    assert!(binding.set_by_name(&sp.program, bench.size_config, 256));
    let want = Engine::Interp
        .executor(sp, binding.clone())
        .unwrap()
        .execute(&mut NoopObserver)
        .unwrap();
    let shared = SharedProgram::lower(sp, binding, None).unwrap();
    for threads in [1usize, 2, 4] {
        for lanes in [1usize, 3, 128] {
            let ctx = format!("{threads} threads x{lanes}");
            let mut vm = shared.executor(ExecOpts { threads, lanes });
            vm.set_deadline(Some(Instant::now() + Duration::from_millis(1)));
            let err = vm.execute(&mut NoopObserver).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Deadline, "{ctx}: {err}");
            drop(vm);
            let got = shared
                .executor(ExecOpts { threads, lanes })
                .execute(&mut NoopObserver)
                .unwrap();
            for (i, (a, b)) in want.scalars.iter().zip(&got.scalars).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: scalar {i} ({a} vs {b})");
            }
            assert_eq!(want.stats, got.stats, "{ctx}: RunStats differ");
        }
    }
}
