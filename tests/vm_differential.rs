//! Differential testing of the two execution engines.
//!
//! The bytecode VM is only useful if it is indistinguishable from the
//! reference tree-walking interpreter. For every benchmark at every
//! transformation level this harness asserts that the two engines produce
//!
//! * bitwise-identical scalar results (every scalar, compared by bits so
//!   `-0.0` vs `0.0` or NaN-payload drift cannot hide),
//! * identical [`RunStats`] (points, loads, stores, flops, allocations,
//!   peak bytes), and
//! * an identical memory-access stream as seen by the `machine` crate's
//!   cache simulator (equal hit/miss counters on a real cache geometry),
//!   and
//! * the identical stream of nest ids an observer is told (each an index
//!   into `ScalarProgram::nests()`, the numbering the simulated runtime
//!   looks nests up by), here also over the generated corpus, branches
//!   either way and a statically empty `Outer`.

use testkit::{genprog, Rng};
use zpl_fusion::loops::{ScalarProgram, SharedProgram};
use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::t3e;
use zpl_fusion::sim::MemSim;

fn outcomes(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: &ConfigBinding,
) -> Vec<(Engine, RunOutcome, zpl_fusion::sim::MemStats)> {
    let m = t3e();
    Engine::all()
        .into_iter()
        .map(|engine| {
            let mut sim = MemSim::new(m.l1, m.l2);
            let mut exec = engine.executor(&opt.scalarized, binding.clone()).unwrap();
            let out = exec.execute(&mut sim).unwrap();
            (engine, out, sim.stats())
        })
        .collect()
}

#[test]
fn engines_agree_on_every_benchmark_at_every_level() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let rs = outcomes(&opt, &binding);
            let (e0, out0, mem0) = &rs[0];
            for (e, out, mem) in &rs[1..] {
                let ctx = format!("{} at {level}: {e0} vs {e}", bench.name);
                for (i, (a, b)) in out0.scalars.iter().zip(&out.scalars).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{ctx}: scalar {i} differs ({a} vs {b})"
                    );
                }
                assert_eq!(out0.checksum().to_bits(), out.checksum().to_bits(), "{ctx}");
                assert_eq!(out0.stats, out.stats, "{ctx}: RunStats differ");
                assert_eq!(
                    mem0, mem,
                    "{ctx}: cache simulator saw a different access stream"
                );
            }
        }
    }
}

#[test]
fn vm_par_is_bit_identical_to_interp_at_every_thread_count() {
    // The parallel tiled engine promises results independent of the
    // thread count: tile decomposition is static, reductions fold their
    // terms in position order, and per-tile stats merge in tile order. Sweep 1/2/4 threads against
    // the reference interpreter on every benchmark at every level, at two
    // sizes: a small one, at which most ladders are below the grain and
    // run on the coordinator, and one large enough that at every level
    // some ladder clears it and fans out (one outer iteration, to keep
    // the sweep short).
    for bench in zpl_fusion::workloads::all() {
        let (small, tiled) = match bench.rank {
            1 => (512, 8192),
            2 => (12, 96),
            _ => (6, 16),
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            for (n, fans_out) in [(small, false), (tiled, true)] {
                let prog = &opt.scalarized.program;
                let mut binding = ConfigBinding::defaults(prog);
                binding.set_by_name(prog, bench.size_config, n);
                if let (true, Some(iters)) = (fans_out, bench.iters_config) {
                    binding.set_by_name(prog, iters, 1);
                }
                let mut interp = Engine::Interp
                    .executor(&opt.scalarized, binding.clone())
                    .unwrap();
                let reference = interp.execute(&mut NoopObserver).unwrap();
                let shared = SharedProgram::lower(&opt.scalarized, binding, None).unwrap();
                for threads in [1usize, 2, 4] {
                    let knobs = Engine::VmPar.knobs(ExecOpts::with_threads(threads));
                    let mut vm = shared.executor(knobs.unwrap());
                    let out = vm.execute(&mut NoopObserver).unwrap();
                    let ctx = format!("{} n={n} at {level}, {threads} threads", bench.name);
                    for (i, (a, b)) in reference.scalars.iter().zip(&out.scalars).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{ctx}: scalar {i} differs ({a} vs {b})"
                        );
                    }
                    assert_eq!(
                        reference.checksum().to_bits(),
                        out.checksum().to_bits(),
                        "{ctx}"
                    );
                    assert_eq!(reference.stats, out.stats, "{ctx}: RunStats differ");
                    if threads == 1 || fans_out {
                        assert_eq!(
                            vm.tile_stats().is_empty(),
                            threads == 1,
                            "{ctx}: fanned out at one thread, or nothing did"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn vm_par_pools_carry_no_state_from_one_program_to_the_next() {
    // Pools outlive the `Vm`s that borrow them, and each thread of a pool
    // keeps its lane file and the pool its term logs from one ladder to
    // the next. So SP (the widest lane file), then Tomcatv (tiled
    // reduction folds), then SIMPLE run one after another on the pools
    // of each width, each at a size where its larger ladders fan out,
    // and every run must still answer with `interp`'s bits and counters.
    let programs: Vec<_> = [("sp", 16), ("tomcatv", 64), ("simple", 64)]
        .into_iter()
        .map(|(name, n)| {
            let bench = zpl_fusion::workloads::by_name(name).unwrap();
            let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let reference = Engine::Interp
                .executor(&opt.scalarized, binding.clone())
                .unwrap()
                .execute(&mut NoopObserver)
                .unwrap();
            let shared = SharedProgram::lower(&opt.scalarized, binding, None).unwrap();
            (name, reference, shared)
        })
        .collect();
    for threads in [2usize, 3, 4] {
        for (name, reference, shared) in &programs {
            let mut vm = shared.executor(ExecOpts::with_threads(threads));
            let out = vm.execute(&mut NoopObserver).unwrap();
            let ctx = format!("{name} at {threads} threads");
            assert!(!vm.tile_stats().is_empty(), "{ctx}: nothing fanned out");
            let bits = |o: &RunOutcome| o.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(reference), "{ctx}");
            assert_eq!(out.stats, reference.stats, "{ctx}: RunStats differ");
        }
    }
}

/// Modeled cost of a tiled run under `threads` workers, in the unit-cost
/// model the repo's machine simulation uses (one unit per load, store,
/// flop and iteration point): the sequential cost with each fanned-out
/// batch replaced by its greedy-schedule critical path,
/// `max(batch_total / threads, max_tile)`. Deterministic on any host.
fn modeled_parallel_cost(serial: u64, tiles: &[TileStats], threads: usize) -> f64 {
    let cost = |t: &TileStats| t.stats.loads + t.stats.stores + t.stats.flops + t.stats.points;
    let (mut tiled, mut parallel) = (0u64, 0.0f64);
    for batch in tiles.chunk_by(|a, b| a.batch == b.batch) {
        let total: u64 = batch.iter().map(cost).sum();
        let max = batch.iter().map(cost).max().unwrap_or(0);
        tiled += total;
        parallel += (total as f64 / threads as f64).max(max as f64);
    }
    (serial - tiled) as f64 + parallel
}

#[test]
fn vm_par_tiles_balance_and_cover_the_work_on_simple() {
    // What tiling can promise without a clock, on SIMPLE at `c2+f3`: the
    // merged stats are the sequential run's at every thread count, ladders
    // do fan out, and `make_tiles` cuts them evenly enough - with enough
    // of the run inside `ParBegin` ladders that clear the grain (at n = 64
    // too few do: 1.7x) - that the tile stream's critical path at 4
    // threads is at most 1/2.5 of the serial cost.
    // Whether that turns into milliseconds is the harness's question
    // (`loopir.exec.vm-par*_cu` on `exec_tiles`).
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&bench.program());
    let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
    binding.set_by_name(&opt.scalarized.program, bench.size_config, 96);
    let mut vm = Vm::new(&opt.scalarized, binding).unwrap();
    vm.verify().expect("benchmark bytecode verifies");
    let shared = vm.share();
    let sequential = vm.execute(&mut NoopObserver).unwrap();
    let s = &sequential.stats;
    let serial = s.loads + s.stores + s.flops + s.points;
    for threads in [1usize, 2, 4] {
        let mut vm = Vm::from_shared(&shared);
        vm.set_threads(threads);
        let out = vm.execute(&mut NoopObserver).unwrap();
        assert_eq!(sequential, out, "{threads} threads");
        let tiles = vm.tile_stats();
        assert!(
            !tiles.is_empty(),
            "no ladder fanned out at {threads} threads"
        );
        if threads == 4 {
            let speedup = serial as f64 / modeled_parallel_cost(serial, tiles, threads);
            assert!(
                speedup >= 2.5,
                "modeled critical path at 4 threads is only {speedup:.2}x under serial"
            );
        }
    }
}

#[test]
fn engines_agree_under_dimension_contraction() {
    // The Outer construct takes a different compilation path in the VM;
    // make sure the extension stays bit-identical too: `+dim` at every
    // level, on every engine, answers with `interp`'s bits at `baseline`.
    let bits = |out: &RunOutcome| out.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    for bench in zpl_fusion::workloads::all() {
        let n = if bench.rank == 1 { 256 } else { 8 };
        let run = |spec: LevelSpec| {
            let opt = Pipeline::new(spec).optimize(&bench.program());
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            outcomes(&opt, &binding)
        };
        let reference = bits(&run(Level::Baseline.into())[0].1);
        for level in Level::all() {
            let spec = LevelSpec {
                dim: true,
                ..level.into()
            };
            let rs = run(spec);
            let (_, out0, mem0) = &rs[0];
            for (e, out, mem) in &rs {
                assert_eq!(bits(out), reference, "{} at {spec} ({e})", bench.name);
                assert_eq!(out0, out, "{} at {spec} ({e})", bench.name);
                assert_eq!(mem0, mem, "{} at {spec} ({e}): cache stream", bench.name);
            }
        }
    }
}

/// Four reductions whose bits depend on the order of their terms, fused
/// by `c2+f3` into one nest with their producers: a sum of `1 + p`,
/// `1e16` and `-1e16` in turn (whatever is added next to a `1e16` is
/// lost), a product of `1e300`, `1e-300` and numbers just above 1 (each
/// rounding depends on the running value), and a maximum and a minimum of
/// `0.0`, `-0.0` and NaN (a tie of signed zeros keeps the one that came
/// first, and a NaN is skipped). `p` is the position in row-major order
/// over `n` rows of `m`.
const ORDER_SENSITIVE: &str = "program order; config n : int = 3; config m : int = 3; \
     config h : int = 1; region R = [1..n, 1..m]; region H = [1..h, 1..m]; \
     var P, K, A, B, C, D : [R] float; var F : [H] float; \
     var sum, prod, hi, lo : float; \
     begin \
       [R] P := (index1 - 1) * m + index2 - 1; \
       [R] K := P - 3.0 * floor(P / 3.0); \
       [R] A := select(K == 0.0, 1.0 + P, select(K == 1.0, 1e16, -1e16)); \
       [R] B := select(K == 0.0, 1e300, select(K == 1.0, 1e-300, 1.0 + 1e-9 * P)); \
       [R] C := select(K == 0.0, 0.0, select(K == 1.0, -0.0, 0.0 / 0.0)); \
       [R] D := select(K == 0.0, -0.0, select(K == 1.0, 0.0 / 0.0, 0.0)); \
       sum := +<< [R] A; \
       prod := *<< [R] B; \
       hi := max<< [R] C; \
       lo := min<< [R] D; \
     end";

#[test]
fn vm_par_reduction_ladders_fold_in_position_order() {
    // A ladder that reduces tiles along its outermost loop; each tile logs
    // its terms and the logs are folded in tile order, so every
    // accumulator takes the interpreter's sequence of values. Folding
    // per-tile partial accumulators instead changes the sum's and the
    // product's bits at 41 rows of 64 (a maximum or minimum keeps the
    // first of tied values, which partial folds keep too). The row counts
    // are below (3) and above (41) every thread count x 4, so some tiles
    // are a single row and some batches have more tiles than threads; the
    // rows are long enough that the ladder clears the grain.
    let ok = Pipeline::new(Level::C2F3)
        .optimize(&zpl_fusion::lang::compile(ORDER_SENSITIVE).unwrap())
        .scalarized;
    // `F` covers rows 1..=h only: reading it traps from row h + 1 on, in
    // a middle tile and in every tile after it, each at its own row.
    let trapping = Pipeline::new(Level::C2F3)
        .optimize(
            &zpl_fusion::lang::compile(&ORDER_SENSITIVE.replace("+<< [R] A;", "+<< [R] A + F;"))
                .unwrap(),
        )
        .scalarized;
    for (n, m) in [(3i64, 1024i64), (41, 64)] {
        for (sp, h) in [(&ok, n), (&trapping, n / 2)] {
            let mut binding = ConfigBinding::defaults(&sp.program);
            assert!(binding.set_by_name(&sp.program, "n", n));
            assert!(binding.set_by_name(&sp.program, "m", m));
            assert!(binding.set_by_name(&sp.program, "h", h));
            let want = Engine::Interp
                .executor(sp, binding.clone())
                .unwrap()
                .execute(&mut NoopObserver);
            let shared = SharedProgram::lower(sp, binding, None).unwrap();
            let listing = Vm::from_shared(&shared).disasm();
            let ladders = listing
                .lines()
                .filter(|l| !l.starts_with(";;") && l.contains(" par "))
                .count();
            assert!(
                listing.contains("folds r0 Sum, r1 Prod, r2 Max, r3 Min in tile order; tiles: yes"),
                "{n}x{m}: the reductions should share one tiled ladder\n{listing}"
            );
            for threads in [1usize, 2, 3, 4, 7] {
                for lanes in [1usize, 3, 128] {
                    let ctx = format!("{n}x{m} h={h}, {threads} threads x{lanes}");
                    let mut par = Vm::from_shared(&shared);
                    par.set_lanes(lanes);
                    par.set_threads(threads);
                    let got = par.execute(&mut NoopObserver);
                    let mut batches: Vec<u32> = par.tile_stats().iter().map(|t| t.batch).collect();
                    batches.dedup();
                    match (&want, got) {
                        (Ok(want), Ok(got)) => {
                            assert_eq!(batches.len(), ladders, "{ctx}: every ladder fans out");
                            for (i, (a, b)) in want.scalars.iter().zip(&got.scalars).enumerate() {
                                assert_eq!(
                                    a.to_bits(),
                                    b.to_bits(),
                                    "{ctx}: scalar {i} differs ({a} vs {b})"
                                );
                            }
                            assert_eq!(want.stats, got.stats, "{ctx}: RunStats differ");
                        }
                        (Err(want), Err(got)) => {
                            assert_eq!(want.to_string(), got.to_string(), "{ctx}");
                        }
                        (want, got) => panic!("{ctx}: interp {want:?}, vm-par {got:?}"),
                    }
                }
            }
        }
    }
}

/// What an observer is told, in order: each nest id and reduction start,
/// and the address of every load and store (flop reports are batched
/// differently per engine, so they are left out).
#[derive(Debug, Default, PartialEq)]
struct NestLog(Vec<Event>);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Event {
    Nest(u32),
    Reduce,
    Load(u64),
    Store(u64),
}

impl zpl_fusion::loops::Observer for NestLog {
    fn load(&mut self, addr: u64) {
        self.0.push(Event::Load(addr));
    }
    fn store(&mut self, addr: u64) {
        self.0.push(Event::Store(addr));
    }
    fn flops(&mut self, _n: u64) {}
    fn nest_begin(&mut self, nest: u32) {
        self.0.push(Event::Nest(nest));
    }
    fn reduce_begin(&mut self) {
        self.0.push(Event::Reduce);
    }
}

/// Runs `sp` under a [`NestLog`] on the interpreter and on the lowered
/// stream at lanes 1, 3 and 128, and holds every VM log to the
/// interpreter's. Each id must name, in `sp.nests()`, the nest the
/// interpreter ran: the loads and stores up to the next nest or reduction
/// are that nest's, once per point of its loops. Returns the ids seen.
fn nest_ids_agree(sp: &ScalarProgram, binding: &ConfigBinding, ctx: &str) -> Vec<u32> {
    let log = |engine: Engine, lanes: usize| {
        let mut log = NestLog::default();
        engine
            .executor_with(sp, binding.clone(), ExecOpts::with_lanes(lanes))
            .unwrap_or_else(|e| panic!("{ctx}: {engine} refused to construct: {e}"))
            .execute(&mut log)
            .unwrap_or_else(|e| panic!("{ctx}: {engine} x{lanes}: {e}"));
        log
    };
    let want = log(Engine::Interp, 0);
    for lanes in [1, 3, 128] {
        let got = log(Engine::VmSimd, lanes);
        assert!(got == want, "{ctx}: vm-simd x{lanes} reported other nests");
    }
    let nests = sp.nests();
    let mut ids = Vec::new();
    let mut events = want.0.iter().peekable();
    while let Some(event) = events.next() {
        let Event::Nest(id) = *event else { continue };
        let nest = nests
            .get(id as usize)
            .unwrap_or_else(|| panic!("{ctx}: nest id {id} of {}", nests.len()));
        let (mut loads, mut stores) = (0, 0);
        while let Some(Event::Load(_) | Event::Store(_)) = events.peek() {
            match events.next() {
                Some(Event::Load(_)) => loads += 1,
                _ => stores += 1,
            }
        }
        let bounds = sp.program.region(nest.region).bounds(binding);
        let points: usize = nest
            .structure
            .iter()
            .map(|&p| {
                let (lo, hi) = bounds[p.unsigned_abs() as usize - 1];
                (hi - lo + 1).max(0) as usize
            })
            .product();
        assert_eq!(
            (loads, stores),
            (points * nest.loads().len(), points * nest.stores().len()),
            "{ctx}: nest {id} ran {points} points of other accesses"
        );
        ids.push(id);
    }
    ids
}

#[test]
fn nest_ids_agree_in_loops_and_both_branches() {
    // The `if` takes each branch on some iteration of the `for`, so every
    // nest runs: a branch's ids are its own whichever way it goes.
    let program = zpl_fusion::lang::compile(
        "program ids; config n : int = 6; \
         region RH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
         var A : [RH] float; var B, C : [R] float; var s : float; var k : int; \
         begin \
           [RH] A := index1 * 0.5 + index2; \
           for k := 1 to 4 do \
             [R] B := A@[-1,0] + A@[0,1]; \
             if s < 100.0 then \
               [R] C := B * 2.0; \
             else \
               [R] C := B - 1.0; \
               [R] A := C * 0.5; \
             end; \
             s := +<< [R] C; \
           end; \
           [R] B := C + 1.0; \
         end",
    )
    .unwrap();
    for level in Level::all() {
        let opt = Pipeline::new(level).optimize(&program);
        let sp = &opt.scalarized;
        let binding = ConfigBinding::defaults(&sp.program);
        let mut ids = nest_ids_agree(sp, &binding, &format!("ids at {level}"));
        ids.sort_unstable();
        ids.dedup();
        let all: Vec<u32> = (0..sp.nests().len() as u32).collect();
        assert_eq!(ids, all, "at {level}: every nest runs");
    }
}

#[test]
fn a_statically_empty_outer_uses_up_its_nest_ids() {
    // The lowering compiles nothing of an `Outer` over an empty range,
    // so its body's nest reaches no `NestBegin`; the nest after it is
    // still nest 1.
    use zpl_fusion::lang::ir::{ArrayId, Offset, RegionId};
    use zpl_fusion::loops::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest};
    let program = zpl_fusion::lang::compile(
        "program t; config n : int = 4; config m : int = 0; \
         region R = [1..n, 1..n]; region E = [1..m, 1..n]; \
         var A : [R] float; begin end",
    )
    .unwrap();
    let fill = |region, structure| {
        LStmt::Nest(LoopNest {
            region: RegionId(region),
            structure,
            body: vec![ElemStmt {
                target: ElemRef::Array(ArrayId(0), Offset(vec![0, 0])),
                rhs: EExpr::Const(1.0),
            }],
            cluster: 0,
            temps: 0,
        })
    };
    let sp = ScalarProgram {
        program,
        stmts: vec![
            LStmt::Outer {
                region: RegionId(1),
                dim: 0,
                reverse: false,
                body: vec![fill(1, vec![2])],
            },
            fill(0, vec![1, 2]),
        ],
    };
    let binding = ConfigBinding::defaults(&sp.program);
    assert_eq!(nest_ids_agree(&sp, &binding, "empty outer"), [1]);
}

#[test]
fn nest_ids_agree_on_every_benchmark_and_generated_program() {
    for bench in zpl_fusion::workloads::all() {
        let n = match bench.rank {
            1 => 512,
            2 => 12,
            _ => 6,
        };
        for level in Level::all() {
            let opt = Pipeline::new(level).optimize(&bench.program());
            let sp = &opt.scalarized;
            let mut binding = ConfigBinding::defaults(&sp.program);
            binding.set_by_name(&sp.program, bench.size_config, n);
            nest_ids_agree(sp, &binding, &format!("{} at {level}", bench.name));
        }
    }
    for seed in 0..16 {
        for (kind, source) in [
            ("random", genprog::generate(&mut Rng::new(seed))),
            ("stencil", genprog::generate_stencil(&mut Rng::new(seed))),
        ] {
            let program = zpl_fusion::lang::compile(&source).unwrap();
            for level in Level::all() {
                let opt = Pipeline::new(level).optimize(&program);
                let sp = &opt.scalarized;
                let binding = ConfigBinding::defaults(&sp.program);
                nest_ids_agree(sp, &binding, &format!("{kind} seed {seed} at {level}"));
            }
        }
    }
}
