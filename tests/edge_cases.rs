//! Edge cases and failure injection across the whole stack, exercised
//! through both execution engines.

use zpl_fusion::loops::ErrorKind;
use zpl_fusion::par::{simulate, ExecConfig};
use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::t3e;

/// Runs a scalarized program on one engine and returns the outcome.
fn execute(
    opt: &zpl_fusion::fusion::pipeline::Optimized,
    binding: ConfigBinding,
    engine: Engine,
) -> Result<RunOutcome, zpl_fusion::loops::ExecError> {
    engine
        .executor(&opt.scalarized, binding)?
        .execute(&mut NoopObserver)
}

#[test]
fn empty_program_optimizes_to_nothing() {
    let p = zlang::compile("program empty; begin end").unwrap();
    for level in Level::all() {
        let opt = Pipeline::new(level).optimize(&p);
        assert_eq!(opt.scalarized.stmts.len(), 0);
        assert_eq!(opt.report.before(), 0);
        for engine in Engine::all() {
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            let out = execute(&opt, binding, engine).unwrap();
            assert_eq!(out.stats.points, 0, "{engine}");
        }
    }
}

#[test]
fn scalar_only_program_works() {
    let p = zlang::compile(
        "program s; var a, b : float; var k : int; begin \
         a := 1.5; for k := 1 to 4 do b := b + a * 2.0; end; end",
    )
    .unwrap();
    let opt = Pipeline::new(Level::C2F4).optimize(&p);
    for engine in Engine::all() {
        let binding = ConfigBinding::defaults(&opt.scalarized.program);
        let out = execute(&opt, binding, engine).unwrap();
        assert_eq!(
            out.scalar(opt.scalarized.program.scalar_by_name("b").unwrap()),
            12.0
        );
    }
}

#[test]
fn minimum_problem_sizes_run() {
    // Every benchmark at the smallest size its halos allow.
    for bench in zpl_fusion::workloads::all() {
        let n = 2;
        let opt = Pipeline::new(Level::C2).optimize(&bench.program());
        for engine in Engine::all() {
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, bench.size_config, n);
            let out = execute(&opt, binding, engine)
                .unwrap_or_else(|e| panic!("{} ({engine}) at n=2: {e}", bench.name));
            assert!(out.stats.points > 0, "{} ({engine})", bench.name);
        }
    }
}

#[test]
fn empty_region_loop_executes_zero_times() {
    // A region with hi < lo under an override: the nest body must not run.
    let p = zlang::compile(
        "program z; config n : int = 4; region R = [2..n]; var A : [R] float; \
         var s : float; begin [R] A := 1.0; s := +<< [R] A; end",
    )
    .unwrap();
    let opt = Pipeline::new(Level::Baseline).optimize(&p);
    for engine in Engine::all() {
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, "n", 1); // 2..1 is empty
        let out = execute(&opt, binding, engine).unwrap();
        assert_eq!(out.stats.points, 0, "{engine}");
        assert_eq!(out.checksum(), 0.0, "{engine}: empty sum is the identity");
    }
}

#[test]
fn out_of_region_access_is_reported_not_crashed() {
    // `B` reads `A` one row above its declared region. The nest before it
    // fans out on `vm-par`, so a run that got as far as the fault had a
    // live pool; the faulting nest itself is a partitioned ladder too (its
    // halo check does not keep it from tiling). At n = 128 both ladders
    // clear the grain at both levels: `B`'s body carries enough work that
    // at `c2+f3`, fused with the sum, its ladder still fans out despite
    // the fold.
    let p = zlang::compile(
        "program o; config n : int = 128; region R = [1..n, 1..n];
         var A, B : [R] float; var s : float;
         begin [R] A := index1 + index2; [R] B := A@[-1, 0] * 2.0 + A * A + index1 * index2;
         s := +<< [R] B; end",
    )
    .unwrap();
    for level in [Level::Baseline, Level::C2F3] {
        let opt = Pipeline::new(level).optimize(&p);
        let binding = || ConfigBinding::defaults(&opt.scalarized.program);
        let want = execute(&opt, binding(), Engine::Interp).unwrap_err();
        for engine in Engine::all() {
            let err = execute(&opt, binding(), engine).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Access, "{level} {engine}: {err}");
            assert!(err.message.contains("halo"), "{level} {engine}: {err}");
        }
        let shared = SharedProgram::lower(&opt.scalarized, binding(), None).unwrap();
        assert!(
            checked_access_is_tiled(&Vm::from_shared(&shared).disasm()),
            "{level}: the faulting nest is not a ladder that fans out"
        );
        // The same fault, at the same point, at every width: a
        // narrower rung would only meet it again.
        for threads in [1, 2, 4] {
            for lanes in [1, 3, 128] {
                let mut vm = shared.executor(ExecOpts { threads, lanes });
                let err = vm.execute(&mut NoopObserver).unwrap_err();
                let at = format!("{level} at {threads}x{lanes}");
                assert_eq!(err.kind, ErrorKind::Access, "{at}: {err}");
                assert_eq!(err.message, want.message, "{at}");
                assert_eq!(vm.tile_stats().is_empty(), threads == 1, "{at}");
            }
        }
    }
}

/// True if the first `[checked]` access of a `Vm::disasm` listing lies
/// inside a `par` ladder's `pcs [entry, exit)` and that ladder clears the
/// grain (`tiles: yes`).
fn checked_access_is_tiled(listing: &str) -> bool {
    let pc = |line: &str| line.split_whitespace().next()?.parse::<usize>().ok();
    let Some(checked) = listing
        .lines()
        .find(|l| l.contains("[checked]"))
        .and_then(pc)
    else {
        return false;
    };
    listing
        .lines()
        .filter(|l| l.split_whitespace().nth(1) == Some("par") && l.contains("; tiles: yes"))
        .filter_map(|l| l.split_once(" pcs [")?.1.split_once(')'))
        .filter_map(|(range, _)| {
            let (a, b) = range.split_once(", ")?;
            Some(a.parse::<usize>().ok()?..b.parse::<usize>().ok()?)
        })
        .any(|ladder| ladder.contains(&checked))
}

#[test]
fn dimension_contracted_programs_simulate_in_parallel() {
    // The Outer construct must flow through the parallel executor and the
    // cache simulator without disturbing results.
    let bench = zpl_fusion::workloads::by_name("sp").unwrap();
    let plain = Pipeline::new(Level::C2).optimize(&bench.program());
    let dimc = Pipeline::new("c2+dim".parse::<LevelSpec>().unwrap()).optimize(&bench.program());
    let run = |opt: &zpl_fusion::fusion::pipeline::Optimized| {
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, "n", 6);
        let cfg = ExecConfig::new(t3e(), 8);
        simulate(&opt.scalarized, binding, &cfg).unwrap()
    };
    let (a, b) = (run(&plain), run(&dimc));
    assert!(b.run.peak_bytes < a.run.peak_bytes);
    assert!(b.total_ns > 0.0);
    // Same arithmetic despite the different schedule.
    assert_eq!(a.run.flops, b.run.flops);
}

#[test]
fn config_overrides_by_name_reject_unknown_names() {
    let p = zlang::compile("program c; config n : int = 4; begin end").unwrap();
    let mut binding = ConfigBinding::defaults(&p);
    assert!(binding.set_by_name(&p, "n", 9));
    assert!(!binding.set_by_name(&p, "bogus", 1));
}

#[test]
fn deeply_nested_control_flow_survives_all_levels() {
    let p = zlang::compile(
        "program d; config n : int = 4; region R = [1..n]; var A, B : [R] float; \
         var s : float; var i : int; var j : int; begin \
         for i := 1 to 2 do \
           for j := 1 to 2 do \
             if s >= 0.0 then [R] A := A + 1.0; [R] B := A; else [R] B := 0.0; end; \
             s := +<< [R] B; \
           end; \
         end; end",
    )
    .unwrap();
    let mut expect = None;
    for level in Level::all() {
        let opt = Pipeline::new(level).optimize(&p);
        for engine in Engine::all() {
            let binding = ConfigBinding::defaults(&opt.scalarized.program);
            let out = execute(&opt, binding, engine).unwrap();
            let s = out.scalar(opt.scalarized.program.scalar_by_name("s").unwrap());
            match expect {
                None => expect = Some(s),
                Some(e) => assert_eq!(s, e, "level {level}, engine {engine}"),
            }
        }
    }
    assert_eq!(
        expect.unwrap(),
        16.0,
        "4 iterations x 4 elements, accumulated A"
    );
}

/// A `for` loop of scalar statements runs no loop nest, so nothing but
/// the loop itself can meet the deadline: every engine counts its
/// iterations (the VM its back-edges, the tree-walker each iteration) and
/// stops a run far longer than the budget, at every width.
#[test]
fn a_deadline_stops_a_scalar_for_loop_on_every_engine() {
    use std::time::{Duration, Instant};
    // 10^8 iterations: seconds on `interp` even in release.
    let p = zlang::compile(
        "program spin; config iters : int = 100000000; var s : float; var k : int; \
         begin for k := 1 to iters do s := s + 1.0; s := s * 0.5; end; end",
    )
    .unwrap();
    let opt = Pipeline::new(Level::C2F3).optimize(&p);
    let sp = &opt.scalarized;
    assert!(sp.nests().is_empty(), "the loop runs no nest");
    let mut runs = vec![
        (Engine::Interp, ExecOpts::default()),
        (Engine::Vm, ExecOpts::default()),
    ];
    runs.extend([1, 3, 128].map(|lanes| (Engine::VmSimd, ExecOpts::with_lanes(lanes))));
    runs.extend([1, 2, 4].map(|threads| (Engine::VmPar, ExecOpts::with_threads(threads))));
    for (engine, opts) in runs {
        let ctx = format!("{engine} at {opts:?}");
        let binding = ConfigBinding::defaults(&sp.program);
        let mut exec = engine.executor_with(sp, binding, opts).unwrap();
        exec.set_deadline(Some(Instant::now() + Duration::from_millis(1)));
        let err = exec.execute(&mut NoopObserver).unwrap_err();
        assert_eq!(err.kind, ErrorKind::Deadline, "{ctx}: {err}");
    }
}

/// A program nested as deeply as the parser allows (`MAX_NESTING` open
/// parentheses, unary minuses, calls, `for` blocks or `if` blocks, or a
/// chain of `MAX_NESTING` `+` or `*` operators, each a level of the tree)
/// compiles and runs at `baseline` and `c2+f3` on every engine, on a
/// thread with a 2 MB stack (what a spawned thread, such as a `zlc serve`
/// worker, gets by default); one level more is a parse error, not a
/// stack overflow.
#[test]
fn programs_at_the_nesting_limit_run_on_a_two_megabyte_stack() {
    let max = zlang::parser::MAX_NESTING as usize;
    let program = |depth: usize, shape: &str| {
        let body = match shape {
            "parens" => format!("[R] B := {}A{};", "(".repeat(depth), ")".repeat(depth)),
            // Spaced, since `--` starts a comment; an even count is `+A`.
            "minus" => format!("[R] B := {}A;", "- ".repeat(depth)),
            "calls" => format!("[R] B := {}A{};", "abs(".repeat(depth), ")".repeat(depth)),
            "plus" => format!("[R] B := A{};", " + 0.0".repeat(depth)),
            "times" => format!("[R] B := A{};", " * 1.0".repeat(depth)),
            "loops" => format!(
                "{}[R] B := A;{}",
                "for k := 1 to 1 do ".repeat(depth),
                " end;".repeat(depth)
            ),
            "ifs" => format!(
                "{}[R] B := A;{}",
                "if n > 0 then ".repeat(depth),
                " end;".repeat(depth)
            ),
            _ => unreachable!(),
        };
        format!(
            "program deep; config n : int = 8; region R = [1..n]; \
             var A, B : [R] float; var s : float; var k : int; \
             begin [R] A := 1.0; {body} s := +<< [R] B; end"
        )
    };
    for shape in ["parens", "minus", "calls", "plus", "times", "loops", "ifs"] {
        let deep = program(max, shape);
        let run = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let p = zlang::compile(&deep).unwrap();
                for level in [Level::Baseline, Level::C2F3] {
                    let opt = Pipeline::new(level).optimize(&p);
                    for engine in Engine::all() {
                        let binding = ConfigBinding::defaults(&opt.scalarized.program);
                        let out = execute(&opt, binding, engine).unwrap();
                        let s = opt.scalarized.program.scalar_by_name("s").unwrap();
                        assert_eq!(out.scalar(s), 8.0, "{level} on {engine}");
                    }
                }
            })
            .unwrap()
            .join();
        assert!(run.is_ok(), "{shape} at depth {max}");
        let e = zlang::compile(&program(max + 1, shape)).unwrap_err();
        assert_eq!(
            e.message,
            format!("nesting exceeds the limit of {max} levels"),
            "{shape}"
        );
    }
}
