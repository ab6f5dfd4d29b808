//! Chaos serving suite: mixed batches through `serve_with` under injected
//! faults, at 1/2/8 workers.
//!
//! The contract under test is the serving fault model's bottom line:
//! whatever a fault makes the serving layer do — degrade a ladder, retry
//! a transient failure, trip a circuit breaker, shed for overload — every
//! *completed* request must hand back the `f64::to_bits`-identical
//! scalars of a one-shot baseline-interpreter run of *its own* program
//! (no cross-request contamination), and every non-completed request must
//! be accounted with a typed cause attributing the injected site.
//!
//! The seed comes from `CHAOS_SEED` (default 1), like the other chaos
//! suites, so CI can rotate schedules without touching the source.

use fusion_core::breaker::BreakerConfig;
use fusion_core::pipeline::{Level, Pipeline};
use fusion_core::serve::{
    serve, serve_with, Disposition, ServeOptions, ServeRequest, ShedCause, ShedPolicy,
};
use fusion_core::supervisor::CauseKind;
use fusion_core::{CompileCache, RunRequest};
use loopir::{Engine, NoopObserver};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use testkit::faults::{FaultPlan, FaultSite};
use zlang::ir::{ConfigBinding, Program};

/// The worker counts every scenario sweeps.
const WORKERS: [usize; 3] = [1, 2, 8];

/// Four small programs with pairwise-distinct answers, so a result that
/// leaks across requests cannot masquerade as a correct one.
const PROGRAMS: [&str; 4] = [
    "program p0; config n : int = 8; region R = [1..n]; \
     var A, B : [R] float; var s : float; \
     begin [R] A := 2.0; [R] B := A * A + 1.5; s := +<< [R] B; end",
    "program p1; config n : int = 8; region R = [1..n]; \
     var A, B : [R] float; var s : float; \
     begin [R] A := 3.0; [R] B := A + A - 0.25; s := +<< [R] B; end",
    "program p2; config n : int = 8; region R = [1..n]; \
     var A, B, C : [R] float; var s : float; \
     begin [R] A := 1.5; [R] B := A * 4.0 + 2.0; [R] C := B * A; s := +<< [R] C; end",
    "program p3; config n : int = 8; region R = [1..n]; \
     var A, B : [R] float; var s : float; \
     begin [R] A := 0.75; [R] B := A * A * A; s := +<< [R] B; end",
];

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The O0 reference: baseline level, plain interpreter, no serving layer.
fn reference(program: &Program) -> Vec<u64> {
    let opt = Pipeline::new(Level::Baseline).optimize(program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let outcome = Engine::Interp
        .executor(&opt.scalarized, binding)
        .expect("reference compiles")
        .execute(&mut NoopObserver)
        .expect("reference runs");
    outcome.scalars.iter().map(|s| s.to_bits()).collect()
}

/// Reference bits per program name; asserts they are pairwise distinct so
/// the contamination check below actually discriminates.
fn references() -> HashMap<String, Vec<u64>> {
    let mut map = HashMap::new();
    for (i, source) in PROGRAMS.iter().enumerate() {
        let program = zlang::compile(source).expect("chaos-serve program compiles");
        map.insert(format!("p{i}"), reference(&program));
    }
    let bits: Vec<&Vec<u64>> = map.values().collect();
    for (i, a) in bits.iter().enumerate() {
        for b in bits.iter().skip(i + 1) {
            assert_ne!(a, b, "reference answers must be pairwise distinct");
        }
    }
    map
}

/// The mixed batch: every program on every engine, `rounds` times, so
/// later rounds hit the cache entries the first round inserted.
fn batch(rounds: usize) -> Vec<ServeRequest> {
    let engines = [Engine::Interp, Engine::Vm, Engine::VmSimd, Engine::VmPar];
    let mut reqs = Vec::new();
    for _ in 0..rounds {
        for (i, source) in PROGRAMS.iter().enumerate() {
            for engine in engines {
                reqs.push(ServeRequest::new(
                    &format!("p{i}"),
                    source,
                    RunRequest::new().with_engine(engine),
                ));
            }
        }
    }
    reqs
}

/// Every completed record must carry its own program's reference bits.
fn assert_uncontaminated(report: &fusion_core::ServeReport, want: &HashMap<String, Vec<u64>>) {
    for r in report.records.iter().filter(|r| r.completed()) {
        assert_eq!(
            &r.scalars_bits,
            &want[&r.name],
            "request {} ({}) diverged from its reference:\n{}",
            r.index,
            r.name,
            report.render()
        );
    }
}

/// The tentpole sweep: each fault site at probability 0.5, at 1/2/8
/// workers. Pipeline and engine faults are absorbed by the ladder; only
/// worker panics and corrupted cache artifacts may fail a request, and
/// when they do the cause must name the injected site. The sweep closes
/// with the control, an empty plan: with the whole overload-control stack
/// in the loop and nothing injected, nothing fails, degrades, sheds or
/// trips a breaker.
#[test]
fn injected_faults_never_contaminate_served_results() {
    let want = references();
    let sites = [
        Some(FaultSite::FuseGrow),
        Some(FaultSite::VerifyReject),
        Some(FaultSite::VmTrap),
        Some(FaultSite::CacheCorrupt),
        Some(FaultSite::WorkerPanic),
        Some(FaultSite::ServeStall),
        None,
    ];
    for (si, injected) in sites.into_iter().enumerate() {
        let site = injected.map_or("no fault", FaultSite::name);
        for workers in WORKERS {
            let cache = Arc::new(CompileCache::new());
            let reqs = batch(2);
            let mut plan = FaultPlan::new(chaos_seed().wrapping_add((si * 8 + workers) as u64));
            if let Some(injected) = injected {
                plan = plan.with(injected, 0.5);
            }
            let opts = ServeOptions::new().with_workers(workers).with_faults(plan);
            let report = serve_with(&reqs, &opts, &cache);

            assert_eq!(
                report.completed() + report.failed(),
                reqs.len(),
                "{site} at {workers} workers: every request is accounted:\n{}",
                report.render()
            );
            assert_eq!(
                report.shed(),
                0,
                "{site}: nothing sheds without backpressure"
            );
            assert_uncontaminated(&report, &want);

            match injected {
                None => {
                    assert_eq!(report.failed(), 0, "{}", report.render());
                    assert_eq!(report.degraded(), 0, "{}", report.render());
                    assert_eq!(report.breaker.trips, 0, "{}", report.render());
                }
                // A panicked worker or a fully corrupted ladder is an
                // attributed failure naming the injected site.
                Some(FaultSite::WorkerPanic | FaultSite::CacheCorrupt) => {
                    for r in &report.records {
                        if let Some(cause) = r.cause() {
                            assert!(
                                cause.message.contains(site),
                                "{site} at {workers} workers: failure not attributed \
                                 to the injected site: {cause}"
                            );
                        }
                    }
                }
                // Everything else the degradation ladder absorbs.
                _ => assert_eq!(
                    report.failed(),
                    0,
                    "{site} at {workers} workers must be absorbed:\n{}",
                    report.render()
                ),
            }
        }
    }
}

/// The breaker lifecycle end to end, deterministically: a warm key whose
/// every cache hit is corrupted trips open within the failure threshold,
/// is quarantined, routes the next request to the reference rung (cache
/// bypassed), then heals through a half-open probe.
#[test]
fn poisoned_key_trips_quarantines_routes_and_heals() {
    let want = references();
    let cache = Arc::new(CompileCache::new());
    let mk = || ServeRequest::new("p0", PROGRAMS[0], RunRequest::new().with_engine(Engine::Vm));

    // Warm the requested rung's key with a clean, fault-free serve.
    let warm = serve(&[mk()], 1, &cache);
    assert_eq!(warm.completed(), 1);

    let opts = ServeOptions::new()
        .with_workers(1)
        .with_breaker(BreakerConfig {
            failure_threshold: 3,
            cooldown: 1,
            success_threshold: 1,
        })
        .with_faults(FaultPlan::new(chaos_seed()).with(FaultSite::CacheCorrupt, 1.0));
    let reqs: Vec<ServeRequest> = (0..6).map(|_| mk()).collect();
    let report = serve_with(&reqs, &opts, &cache);

    // Requests 0-1 degrade past the corrupted hit; request 2 lands the
    // third requested-rung failure, trips the breaker, and quarantines
    // the key — by then every fallback rung is also a corrupted hit, so
    // it fails outright. Request 3 arrives during cooldown and is routed
    // to the reference rung with the cache bypassed; request 4 is the
    // half-open probe that recompiles the quarantined key and closes the
    // breaker; request 5 hits the recompiled (again corrupted) entry.
    assert_eq!(report.breaker.trips, 1, "{}", report.render());
    assert_eq!(report.cache.quarantines, 1, "{}", report.render());
    assert_eq!(
        report.breaker.rejected, 1,
        "one request routed to reference"
    );
    assert_eq!(report.breaker.probes, 1, "{}", report.render());
    assert_eq!(report.breaker.closes, 1, "the probe heals the key");

    let routed: Vec<usize> = report
        .records
        .iter()
        .filter(|r| r.breaker_routed)
        .map(|r| r.index)
        .collect();
    assert_eq!(routed, vec![3], "exactly the cooldown-window request");
    assert!(
        report.records[3].completed(),
        "the reference route serves the request:\n{}",
        report.render()
    );
    for r in &report.records {
        if let Some(cause) = r.cause() {
            assert_eq!(cause.kind, CauseKind::Exec);
            assert!(cause.message.contains("cache-corrupt"), "{cause}");
        }
    }
    assert_uncontaminated(&report, &want);
}

/// Overload with a bounded queue and stalled workers: sheds happen, every
/// shed carries the queue-full cause, and the survivors are still exact.
#[test]
fn overload_sheds_are_typed_and_survivors_exact() {
    let want = references();
    for workers in [2usize, 8] {
        let cache = Arc::new(CompileCache::new());
        let reqs = batch(2);
        let opts = ServeOptions::new()
            .with_workers(workers)
            .with_queue_cap(2)
            .with_shed(ShedPolicy::RejectNewest)
            .with_faults(
                FaultPlan::new(chaos_seed().wrapping_add(workers as u64))
                    .with(FaultSite::ServeStall, 1.0),
            );
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.completed() + report.shed(), reqs.len());
        assert!(report.shed() >= 1, "{}", report.render());
        for r in &report.records {
            if let Disposition::Shed(cause) = r.disposition {
                assert_eq!(cause, ShedCause::QueueFull);
            }
        }
        assert_uncontaminated(&report, &want);
    }
}

/// Deadlines under load at 8 workers: a request whose deadline expires in
/// (effective) queue wait is shed without ever compiling.
#[test]
fn expired_deadlines_shed_without_compiling_under_load() {
    let cache = Arc::new(CompileCache::new());
    let reqs: Vec<ServeRequest> = batch(1)
        .into_iter()
        .map(|r| r.with_deadline(Duration::from_millis(5)))
        .collect();
    let opts = ServeOptions::new()
        .with_workers(8)
        .with_faults(FaultPlan::new(chaos_seed()).with(FaultSite::ServeStall, 1.0));
    let report = serve_with(&reqs, &opts, &cache);
    assert_eq!(report.completed(), 0);
    assert_eq!(report.shed(), reqs.len());
    for r in &report.records {
        assert_eq!(r.disposition, Disposition::Shed(ShedCause::DeadlineExpired));
    }
    assert_eq!(cache.stats().misses, 0, "expired requests never compile");
}
