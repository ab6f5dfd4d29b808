//! Integration tests for the serving path: the content-addressed compile
//! cache, its supervisor integration, and concurrent batch replay.

use fusion_core::serve::{serve, ServeRequest};
use fusion_core::{CacheKey, CompileCache, Level, RunRequest};
use loopir::Engine;
use std::sync::Arc;

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
/// (program, level, engine, binding) coordinate, hits for every repeat.
#[test]
fn serve_accounting_one_miss_per_distinct_key() {
    let engines = Engine::all();
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
    assert_eq!(report.cache.misses, engines.len() as u64);
    assert_eq!(report.cache.insertions, engines.len() as u64);
    assert_eq!(
        report.cache.hits,
        (engines.len() * (repeats - 1)) as u64,
        "{:?}",
        report.cache
    );
    assert_eq!(cache.len(), engines.len());
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
    assert!(cache.lookup(&key).is_some(), "{spec}");
    assert_eq!(
        cache.len(),
        1,
        "{spec}: nothing published under another key"
    );
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
        assert!(cache.lookup(&key).is_some(), "{req}");
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
            assert!(!hit, "{level:?} {engine}");
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
