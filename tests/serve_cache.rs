//! Integration tests for the serving path: the staged content-addressed
//! compile cache (parse, optimize, lower), its supervisor integration,
//! and concurrent batch replay.

use fusion_core::serve::{serve, serve_with, ServeOptions, ServeRequest};
use fusion_core::{CacheKey, CompileCache, Depth, Level, RunRequest};
use loopir::Engine;
use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use testkit::{genprog, Rng};

const HEAT: &str = r#"
program heat;
config n : int = 24;
region R = [1..n];
region I = [2..n-1];
var A, B : [R] float;
var err : float;
begin
  [R] A := 1.0;
  [I] B := (A@[-1] + A@[1]) / 2.0;
  err := max<< [I] B;
end
"#;

/// Cache accounting is exact across a serve batch: one miss per distinct
/// (program, level, binding) coordinate — two here, the tree-only
/// artifact `interp` addresses and the one lowered artifact the three VM
/// names share — and hits for every repeat.
#[test]
fn serve_accounting_one_miss_per_distinct_key() {
    let engines = Engine::all();
    let distinct = 2;
    let repeats = 10;
    let batch: Vec<ServeRequest> = (0..engines.len() * repeats)
        .map(|i| {
            ServeRequest::new(
                "heat",
                HEAT,
                RunRequest::new().with_engine(engines[i % engines.len()]),
            )
        })
        .collect();
    let cache = Arc::new(CompileCache::new());
    let report = serve(&batch, 4, &cache);
    assert_eq!(report.completed(), batch.len());
    assert_eq!(report.cache.misses, distinct as u64);
    assert_eq!(report.cache.insertions, distinct as u64);
    assert_eq!(
        report.cache.hits,
        (engines.len() * repeats - distinct) as u64,
        "{:?}",
        report.cache
    );
    assert_eq!(cache.len(), distinct);
}

/// The artifact is engine-independent: one program, size and spec asked
/// for as `vm`, `vm-simd`, `vm-par` and `vm-par` at threads 1 / lanes 1
/// is one lowering and three hits on the very same artifact, every run
/// bit-identical to `interp` — whose own artifact is the tree alone.
#[test]
fn vm_engine_names_share_one_artifact() {
    let cache = CompileCache::new();
    let program = zlang::compile(HEAT).unwrap();
    let spec = || RunRequest::new().with_level(Level::C2F3);
    let (tree, hit) = cache
        .get_or_compile(&program, &spec().with_engine(Engine::Interp))
        .unwrap();
    assert!(!hit);
    assert!(tree.shared.is_none(), "interp never lowers");
    let want = tree.executor(Default::default()).execute_pure().unwrap();
    let bits = |o: &loopir::RunOutcome| o.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let before = cache.stats();

    let mut artifacts = Vec::new();
    for req in [
        spec().with_engine(Engine::Vm),
        spec().with_engine(Engine::VmSimd),
        spec().with_engine(Engine::VmPar).with_threads(2),
        spec()
            .with_engine(Engine::VmPar)
            .with_threads(1)
            .with_lanes(1),
    ] {
        let (cached, hit) = cache.get_or_compile(&program, &req).unwrap();
        assert_eq!(hit, !artifacts.is_empty(), "{req}");
        assert!(cached.shared.as_ref().is_some_and(|s| s.is_verified()));
        let got = cached.executor(req.exec_opts()).execute_pure().unwrap();
        assert_eq!(bits(&got), bits(&want), "{req}");
        assert_eq!(got.stats, want.stats, "{req}");
        artifacts.push(cached);
    }
    assert!(artifacts.iter().all(|a| Arc::ptr_eq(a, &artifacts[0])));
    let after = cache.stats();
    assert_eq!(
        (after.misses - before.misses, after.hits - before.hits),
        (1, 3)
    );
    assert_eq!(cache.len(), 2);
}

/// N threads hammering one key concurrently all get bit-identical
/// outcomes, and single-flight claiming compiles the program exactly
/// once: the racers wait out the first miss and count as hits.
#[test]
fn concurrent_hits_are_bit_identical() {
    let cache = Arc::new(CompileCache::new());
    let program = zlang::compile(HEAT).unwrap();
    let req = RunRequest::new().with_engine(Engine::Vm);
    let threads = 8;
    let per_thread = 16;
    let mut handles = Vec::new();
    for _ in 0..threads {
        let cache = cache.clone();
        let program = program.clone();
        let req = req.clone();
        handles.push(std::thread::spawn(move || {
            (0..per_thread)
                .map(|_| {
                    let (cached, _) = cache.get_or_compile(&program, &req).unwrap();
                    let out = cached.executor(req.exec_opts()).execute_pure().unwrap();
                    out.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        }));
    }
    let mut all: Vec<Vec<u64>> = Vec::new();
    for h in handles {
        all.extend(h.join().unwrap());
    }
    assert_eq!(all.len(), threads * per_thread);
    for bits in &all {
        assert_eq!(bits, &all[0], "concurrent executions diverged");
    }
    let stats = cache.stats();
    // Exactly one miss (the claimant); every other lookup — including
    // the threads that waited on the in-flight compile — is a hit.
    assert_eq!(stats.misses, 1, "{stats:?}");
    assert_eq!(stats.insertions, 1, "{stats:?}");
    assert_eq!(stats.hits, (threads * per_thread - 1) as u64, "{stats:?}");
}

/// A cache-attached supervisor publishes on its first run and reuses the
/// artifact afterwards — including across engine-coordinate reruns.
#[test]
fn supervisor_runs_hit_the_attached_cache() {
    for spec in ["c2", "c2+f3+rce2"] {
        supervisor_runs_hit_the_attached_cache_at(spec);
    }
}

fn supervisor_runs_hit_the_attached_cache_at(spec: &str) {
    let cache = Arc::new(CompileCache::new());
    let req = RunRequest::new()
        .with_level_spec(spec)
        .unwrap()
        .with_engine(Engine::Vm);
    let first = req
        .supervisor()
        .with_cache(cache.clone())
        .run_source(HEAT)
        .unwrap();
    let s0 = cache.stats();
    assert_eq!((s0.hits, s0.misses, s0.insertions), (0, 1, 1));
    let second = req
        .supervisor()
        .with_cache(cache.clone())
        .run_source(HEAT)
        .unwrap();
    let s1 = cache.stats();
    assert_eq!((s1.hits, s1.misses, s1.insertions), (1, 1, 1));
    assert_eq!(
        first.outcome.checksum().to_bits(),
        second.outcome.checksum().to_bits()
    );
    // The cached artifact is addressable by the exact request key.
    let program = zlang::compile(HEAT).unwrap();
    let binding = req.binding_for(&program).unwrap();
    let key = CacheKey::for_request(&program, &binding, &req);
    assert_eq!(key.spec.to_string(), spec);
    let (_, depth) = cache.compile(&program, &binding, key, None).unwrap();
    assert_eq!(depth, Depth::Hit, "{spec}");
    assert_eq!(
        cache.len(),
        1,
        "{spec}: nothing published under another key"
    );
}

/// Who watches a run is not a cache coordinate: a supervised run under
/// the machine simulation and a plain one of the same request execute one
/// lowered artifact (a simulated rung used to publish a tree-only entry
/// of its own and lower privately, per attempt).
#[test]
fn simulated_and_plain_runs_share_one_artifact() {
    let cache = Arc::new(CompileCache::new());
    let program = zlang::compile(HEAT).unwrap();
    let req = RunRequest::new()
        .with_level(Level::C2F3)
        .with_engine(Engine::VmSimd);
    let sup = req.supervisor().with_cache(cache.clone());
    let cfg = runtime::ExecConfig::new(machine::presets::t3e(), 16);
    let mut sim = None;
    let simulated = sup
        .run_program_simulated(&program, &mut |exec, sp, binding| {
            let (outcome, result) = runtime::simulate_executor(exec, sp, binding, &cfg)?;
            sim = Some(result);
            Ok(outcome)
        })
        .unwrap();
    assert_eq!(simulated.report.attempts[0].depth, Depth::Optimized);
    assert!(sim.is_some_and(|s| s.comm.messages > 0));
    let plain = sup.run_program(&program).unwrap();
    assert_eq!(plain.report.attempts[0].depth, Depth::Hit);
    assert_eq!(plain.outcome, simulated.outcome);
    assert_eq!((cache.stats().insertions, cache.len()), (1, 1));
    let binding = req.binding_for(&program).unwrap();
    let key = CacheKey::for_request(&program, &binding, &req);
    let (artifact, depth) = cache.compile(&program, &binding, key, None).unwrap();
    assert_eq!(depth, Depth::Hit);
    assert!(artifact.shared.is_some());
}

/// The cleanup suffixes are cache coordinates on the serving path: a
/// batch alternating `c2+f3` and `c2+f3+rce2` for one program compiles
/// exactly twice, and each artifact sits under its own request's key.
#[test]
fn cleanup_suffixes_are_distinct_serve_keys() {
    let specs = ["c2+f3", "c2+f3+rce2"];
    let reqs: Vec<RunRequest> = specs
        .iter()
        .map(|s| RunRequest::new().with_level_spec(s).unwrap())
        .collect();
    let batch: Vec<ServeRequest> = (0..12)
        .map(|i| ServeRequest::new("heat", HEAT, reqs[i % 2].clone()))
        .collect();
    let cache = Arc::new(CompileCache::new());
    let report = serve(&batch, 3, &cache);
    assert_eq!(report.completed(), batch.len());
    assert!(report.records.iter().all(|r| !r.degraded));
    assert_eq!(
        (
            report.cache.misses,
            report.cache.insertions,
            report.cache.hits
        ),
        (2, 2, 10),
        "{:?}",
        report.cache
    );
    for (record, i) in report.records.iter().zip(0..) {
        assert_eq!(record.spec, reqs[i % 2].spec);
    }
    let program = zlang::compile(HEAT).unwrap();
    for req in &reqs {
        let binding = req.binding_for(&program).unwrap();
        let key = CacheKey::for_request(&program, &binding, req);
        let (_, depth) = cache.compile(&program, &binding, key, None).unwrap();
        assert_eq!(depth, Depth::Hit, "{req}");
    }
}

/// `+dim` is a serve coordinate like the cleanup suffix: SP and
/// `sweep.zl`, each served alternately at `c2+f3` and `c2+f3+dim`, compile
/// one artifact and run the optimizer once per spec, answer with the
/// reference interpreter's bits, and peak lower under `+dim`.
#[test]
fn dimension_contraction_is_a_serve_key() {
    let sp = benchmarks::by_name("sp").unwrap();
    let sweep = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/programs/sweep.zl"
    ))
    .unwrap();
    for (name, source, sets) in [
        ("sp", sp.source, &[(sp.size_config, 8)][..]),
        ("sweep", &sweep, &[]),
    ] {
        let at = |spec: &str| {
            let req = RunRequest::new().with_level_spec(spec).unwrap();
            let req = req.with_engine(Engine::VmSimd);
            sets.iter().fold(req, |req, &(k, v)| req.with_set(k, v))
        };
        let reqs = [at("c2+f3"), at("c2+f3+dim")];
        let batch: Vec<ServeRequest> = (0..8)
            .map(|i| ServeRequest::new(name, source, reqs[i % 2].clone()))
            .collect();
        let cache = Arc::new(CompileCache::new());
        let report = serve(&batch, 2, &cache);
        assert_eq!((report.completed(), report.degraded()), (8, 0), "{name}");
        let s = report.cache;
        assert_eq!(
            (cache.len(), s.misses, s.optimize_misses),
            (2, 2, 2),
            "{name}"
        );
        let reference = cold_bits(source, &at("baseline").with_engine(Engine::Interp));
        for record in &report.records {
            assert_eq!(record.scalars_bits, reference, "{name} at {}", record.spec);
        }
        let peak = |req: &RunRequest| {
            let program = zlang::compile(source).unwrap();
            let (artifact, hit) = cache.get_or_compile(&program, req).unwrap();
            assert!(hit, "{name} at {req}");
            let out = artifact.executor(req.exec_opts()).execute_pure().unwrap();
            out.stats.peak_bytes
        };
        assert!(peak(&reqs[1]) < peak(&reqs[0]), "{name}");
    }
}

/// The cached artifact at every level matches a cache-free compile of
/// the same source, bit for bit, on every engine.
#[test]
fn cached_results_match_uncached_at_all_levels() {
    for level in Level::all() {
        let cache = CompileCache::new();
        for engine in Engine::all() {
            let req = RunRequest::new().with_level(level).with_engine(engine);
            let program = zlang::compile(HEAT).unwrap();
            let (cached, hit) = cache.get_or_compile(&program, &req).unwrap();
            // `interp` misses for the tree, `vm` for the lowering the
            // other two VM names then share.
            let shares = matches!(engine, Engine::VmSimd | Engine::VmPar);
            assert_eq!(hit, shares, "{level:?} {engine}");
            let cold = cached.executor(req.exec_opts()).execute_pure().unwrap();
            let uncached = req.supervisor().run_source(HEAT).unwrap();
            assert_eq!(
                cold.checksum().to_bits(),
                uncached.outcome.checksum().to_bits(),
                "{level:?} on {engine}: cached vs supervisor"
            );
            let (again, hit) = cache.get_or_compile(&program, &req).unwrap();
            assert!(hit);
            let warm = again.executor(req.exec_opts()).execute_pure().unwrap();
            assert_eq!(cold.checksum().to_bits(), warm.checksum().to_bits());
        }
    }
}

/// Eviction keeps serving correct results: a cache one entry wide keeps
/// thrashing between two coordinates and still answers both exactly.
#[test]
fn eviction_thrash_stays_correct() {
    let cache = Arc::new(CompileCache::with_shards(1, 1));
    let a = RunRequest::new().with_engine(Engine::Vm);
    let b = RunRequest::new().with_engine(Engine::Interp);
    let program = zlang::compile(HEAT).unwrap();
    let (first_a, _) = cache.get_or_compile(&program, &a).unwrap();
    let want = first_a.executor(a.exec_opts()).execute_pure().unwrap();
    for _ in 0..4 {
        for req in [&a, &b] {
            let (c, _) = cache.get_or_compile(&program, req).unwrap();
            let out = c.executor(req.exec_opts()).execute_pure().unwrap();
            assert_eq!(out.checksum().to_bits(), want.checksum().to_bits());
        }
    }
    assert!(cache.stats().evictions >= 6, "{:?}", cache.stats());
    assert_eq!(cache.len(), 1);
}

/// Result bits of `req` over `source` on an empty cache: every stage
/// runs, nothing is shared with any other request.
fn cold_bits(source: &str, req: &RunRequest) -> Vec<u64> {
    let program = zlang::compile(source).unwrap();
    let (cold, hit) = CompileCache::new().get_or_compile(&program, req).unwrap();
    assert!(!hit);
    let out = cold.executor(req.exec_opts()).execute_pure().unwrap();
    out.scalars.iter().map(|s| s.to_bits()).collect()
}

/// The `k`-th of 24 problem sizes for a benchmark of `rank`. Rank 3 (SP)
/// grows as n^3, so it gets 12 distinct sizes, each used twice.
fn size(rank: usize, k: usize) -> i64 {
    (match rank {
        1 => 32 + 8 * k,
        2 => 8 + k,
        _ => 4 + k / 2,
    }) as i64
}

/// The staged cache's contract: the six paper programs at 24 sizes each
/// are 144 requests and 132 artifacts but six optimizer runs and six
/// front-end runs, at any worker count, and every served result is
/// `to_bits`-equal to a cold compile of that program at that size on that
/// engine.
#[test]
fn sizes_of_one_program_share_one_optimizer_run() {
    let engines = Engine::all();
    let benchmarks = benchmarks::all();
    assert_eq!(benchmarks.len(), 6);
    let mut cold: HashMap<(usize, usize), Vec<u64>> = HashMap::new();
    for workers in [1, 2, 8] {
        // Size-major order, so neighbouring requests (and racing workers)
        // are different sizes of all six programs.
        let mut coords = Vec::new();
        let mut batch = Vec::new();
        for k in 0..24 {
            for (p, b) in benchmarks.iter().enumerate() {
                let engine = engines[(p + k / 2) % engines.len()];
                let mut req = RunRequest::new()
                    .with_level_spec("c2+f3")
                    .unwrap()
                    .with_engine(engine)
                    .with_set(b.size_config, size(b.rank, k));
                if let Some(iters) = b.iters_config {
                    req = req.with_set(iters, 1);
                }
                cold.entry((p, k))
                    .or_insert_with(|| cold_bits(b.source, &req));
                coords.push((p, k));
                batch.push(ServeRequest::new(b.name, b.source, req));
            }
        }
        let cache = Arc::new(CompileCache::with_shards(8, 64));
        let opts = ServeOptions::new().with_workers(workers);
        let report = serve_with(&batch, &opts, &cache);
        assert_eq!(report.completed(), batch.len(), "{}", report.render());
        let stats = report.cache;
        assert_eq!(stats.parse_misses, 6, "{workers} workers: {stats:?}");
        assert_eq!(stats.parse_hits, 138, "{workers} workers: {stats:?}");
        assert_eq!(stats.optimize_misses, 6, "{workers} workers: {stats:?}");
        assert_eq!(stats.optimize_hits, 126, "{workers} workers: {stats:?}");
        assert_eq!((stats.misses, stats.hits), (132, 12), "{stats:?}");
        assert!(report
            .render()
            .contains("stages: parsed 6, optimized 6, lowered 132"));
        for (record, coord) in report.records.iter().zip(&coords) {
            assert!(!record.degraded, "{coord:?}");
            assert_eq!(
                record.scalars_bits, cold[coord],
                "{coord:?} at {workers} workers diverged from its cold compile"
            );
        }
        // Each request reports the deepest stage it ran: per program one
        // parse and one optimizer run (two requests' when workers race),
        // lowering or nothing for everyone else.
        let count = |depth| report.records.iter().filter(|r| r.depth == depth).count();
        assert!((1..=6).contains(&count(Depth::Parsed)));
        assert!((6..=12).contains(&(count(Depth::Parsed) + count(Depth::Optimized))));
        assert!(count(Depth::Hit) <= 12);
        // A second pass over the same batch is all hits, at every stage.
        let again = serve_with(&batch, &opts, &cache);
        assert!(again.records.iter().all(|r| r.depth == Depth::Hit));
        assert_eq!(again.cache.optimize_misses, 6);
        assert_eq!((again.cache.misses, again.cache.hits), (132, 156));
    }
}

/// Single-flight holds at the optimize stage: N threads released at once
/// on N different sizes of one program are N lowerings waiting on one
/// optimizer run.
#[test]
fn racing_sizes_wait_on_one_optimizer_run() {
    let threads = 8;
    let cache = CompileCache::new();
    let program = zlang::compile(HEAT).unwrap();
    let start = Barrier::new(threads);
    let bits: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|i| {
                let (cache, program, start) = (&cache, &program, &start);
                scope.spawn(move || {
                    let req = RunRequest::new().with_set("n", 8 + i as i64);
                    start.wait();
                    let (cached, hit) = cache.get_or_compile(program, &req).unwrap();
                    assert!(!hit, "every size is its own artifact");
                    let out = cached.executor(req.exec_opts()).execute_pure().unwrap();
                    out.scalars.iter().map(|s| s.to_bits()).collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let stats = cache.stats();
    assert_eq!(stats.optimize_misses, 1, "{stats:?}");
    assert_eq!(stats.optimize_hits, threads as u64 - 1, "{stats:?}");
    assert_eq!((stats.misses, stats.hits), (threads as u64, 0), "{stats:?}");
    for (i, got) in bits.iter().enumerate() {
        let req = RunRequest::new().with_set("n", 8 + i as i64);
        assert_eq!(got, &cold_bits(HEAT, &req), "n={}", 8 + i);
    }
}

/// Quarantining an artifact also drops the optimize-stage entry it was
/// lowered from: the next compile of the key re-optimizes and re-lowers,
/// while another size's artifact stays served.
#[test]
fn quarantine_invalidates_both_stages() {
    let cache = CompileCache::new();
    let program = zlang::compile(HEAT).unwrap();
    let small = RunRequest::new().with_set("n", 10);
    let large = RunRequest::new().with_set("n", 20);
    let (first, _) = cache.get_or_compile(&program, &small).unwrap();
    cache.get_or_compile(&program, &large).unwrap();
    assert_eq!(cache.stats().optimize_misses, 1);

    let binding = small.binding_for(&program).unwrap();
    let key = CacheKey::for_request(&program, &binding, &small);
    assert!(cache.quarantine(&key));
    assert_eq!(cache.len(), 1, "the other size keeps its artifact");

    let (fresh, hit) = cache.get_or_compile(&program, &small).unwrap();
    assert!(!hit);
    let stats = cache.stats();
    assert_eq!(stats.optimize_misses, 2, "re-optimized: {stats:?}");
    assert!(
        !Arc::ptr_eq(&first.scalarized, &fresh.scalarized),
        "the fresh artifact shares nothing with the quarantined one"
    );
    let (_, hit) = cache.get_or_compile(&program, &large).unwrap();
    assert!(hit);
    let out = fresh.executor(small.exec_opts()).execute_pure().unwrap();
    let bits: Vec<u64> = out.scalars.iter().map(|s| s.to_bits()).collect();
    assert_eq!(bits, cold_bits(HEAT, &small));
}

/// A cache two entries wide thrashes all three stages — three source
/// texts, three programs, nine artifacts — and still answers every
/// request exactly.
#[test]
fn eviction_thrash_stays_correct_at_every_stage() {
    let cache = Arc::new(CompileCache::with_shards(1, 2));
    let sources: Vec<String> = (0..3)
        .map(|i| HEAT.replace("A := 1.0", &format!("A := {i}.5 + index1")))
        .collect();
    for round in 0..3 {
        for (i, source) in sources.iter().enumerate() {
            for n in [8, 12, 16] {
                let req = RunRequest::new()
                    .with_engine(Engine::VmSimd)
                    .with_set("n", n);
                let run = req
                    .supervisor()
                    .with_cache(cache.clone())
                    .run_source(source)
                    .unwrap();
                assert!(!run.report.degraded());
                let bits: Vec<u64> = run.outcome.scalars.iter().map(|s| s.to_bits()).collect();
                assert_eq!(bits, cold_bits(source, &req), "round {round} p{i} n={n}");
            }
        }
    }
    let stats = cache.stats();
    assert_eq!(cache.len(), 2);
    // Program-major order with three of everything over two slots: each
    // program's text and optimized form are evicted before its next turn.
    assert_eq!((stats.parse_misses, stats.parse_hits), (9, 18), "{stats:?}");
    assert_eq!(stats.optimize_misses, 9, "{stats:?}");
    assert_eq!((stats.misses, stats.hits), (27, 0), "{stats:?}");
    assert_eq!(stats.evictions, 25, "{stats:?}");
}

/// The optimizer reads config *defaults* (never the binding), so two
/// programs that differ only in a default are different programs to the
/// optimize stage even when a `--set` gives them the same binding.
#[test]
fn config_defaults_are_part_of_the_optimize_key() {
    let cache = Arc::new(CompileCache::new());
    let other = HEAT.replace("config n : int = 24;", "config n : int = 25;");
    let req = RunRequest::new().with_set("n", 12);
    let mut bits = Vec::new();
    for source in [HEAT, &other] {
        let run = req
            .supervisor()
            .with_cache(cache.clone())
            .run_source(source)
            .unwrap();
        assert_eq!(run.report.depth(), Depth::Parsed);
        bits.push(run.outcome.checksum().to_bits());
    }
    assert_eq!(bits[0], bits[1], "same binding, same answer");
    let stats = cache.stats();
    assert_eq!((stats.parse_misses, stats.optimize_misses), (2, 2));
    assert_eq!((stats.optimize_hits, stats.misses, stats.hits), (0, 2, 0));
}

/// Staged == unstaged over generated programs at `c2+f3+rce2`: the
/// scalarized program an artifact is lowered from — optimized once,
/// whichever size asked first — prints identically to a direct
/// `Pipeline::optimize` of the program, and runs to the same bits at a
/// size the optimizer never saw.
#[test]
fn staged_optimizer_output_matches_unstaged_on_generated_programs() {
    let req = RunRequest::new().with_level_spec("c2+f3+rce2").unwrap();
    let cache = CompileCache::with_shards(8, 64);
    for seed in 0..25 {
        for source in [
            genprog::generate_stencil(&mut Rng::new(seed)),
            genprog::generate(&mut Rng::new(seed)),
        ] {
            let program = zlang::compile(&source)
                .unwrap_or_else(|e| panic!("seed {seed} generated an invalid program: {e}"));
            let unstaged = req.pipeline().optimize(&program).scalarized;
            let want = loopir::printer::print(&unstaged);
            for n in [5, 9, 6] {
                let sized = req.clone().with_set("n", n);
                let (staged, _) = cache.get_or_compile(&program, &sized).unwrap();
                assert_eq!(
                    loopir::printer::print(&staged.scalarized),
                    want,
                    "seed {seed} n={n}\n{source}"
                );
                let out = staged.executor(sized.exec_opts()).execute_pure().unwrap();
                let direct = sized
                    .engine
                    .executor(&unstaged, staged.binding.clone())
                    .unwrap()
                    .execute_pure()
                    .unwrap();
                assert_eq!(out, direct, "seed {seed} n={n}\n{source}");
            }
        }
    }
    let stats = cache.stats();
    assert_eq!((stats.optimize_misses, stats.optimize_hits), (50, 100));
}
