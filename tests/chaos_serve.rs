//! Chaos serving suite: mixed batches through `serve_with` under injected
//! faults, at 1/2/8 workers.
//!
//! The contract under test is the serving fault model's bottom line:
//! whatever a fault makes the serving layer do — degrade a ladder,
//! quarantine a key and route its requests to the reference rung, shed
//! for overload — every
//! *completed* request must hand back the `f64::to_bits`-identical
//! scalars of a one-shot baseline-interpreter run of *its own* program
//! (no cross-request contamination), and every non-completed request must
//! be accounted with a typed cause attributing the injected site.
//!
//! The seed comes from `CHAOS_SEED` (default 1), like the other chaos
//! suites, so CI can rotate schedules without touching the source.

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
/// in the loop and nothing injected, nothing fails, degrades, sheds,
/// is quarantined or is routed.
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
                    assert_eq!(report.cache.quarantines, 0, "{}", report.render());
                    assert!(
                        report.records.iter().all(|r| !r.breaker_routed),
                        "{}",
                        report.render()
                    );
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

/// Quarantine end to end, deterministically: the first corrupted hit of
/// a warm key quarantines it (that request degrades and still answers),
/// and every later request for the key is routed to the reference rung
/// with the cache bypassed, so the still-armed corruption never fires
/// again. There is no probe and no heal.
#[test]
fn poisoned_key_is_quarantined_on_first_fault_and_routed() {
    let want = references();
    let cache = Arc::new(CompileCache::new());
    let mk = || ServeRequest::new("p0", PROGRAMS[0], RunRequest::new().with_engine(Engine::Vm));

    // Warm the requested rung's key with a clean, fault-free serve.
    let warm = serve(&[mk()], 1, &cache);
    assert_eq!(warm.completed(), 1);

    let opts = ServeOptions::new()
        .with_workers(1)
        .with_faults(FaultPlan::new(chaos_seed()).with(FaultSite::CacheCorrupt, 1.0));
    let reqs: Vec<ServeRequest> = (0..6).map(|_| mk()).collect();
    let report = serve_with(&reqs, &opts, &cache);

    assert_eq!(report.failed(), 0, "{}", report.render());
    assert_eq!(report.cache.quarantines, 1, "{}", report.render());
    let routed: Vec<usize> = report
        .records
        .iter()
        .filter(|r| r.breaker_routed)
        .map(|r| r.index)
        .collect();
    assert_eq!(routed, vec![1, 2, 3, 4, 5], "{}", report.render());
    assert!(
        report.records[0].degraded,
        "the faulting request walks the ladder:\n{}",
        report.render()
    );
    assert_uncontaminated(&report, &want);
}

/// A deterministic execution fault (`vm-trap` at p = 1) over the mixed
/// batch: every VM run of every program traps. The first VM request of a
/// program quarantines its VM key and walks the ladder; at one worker,
/// every later VM request of that program is routed to the reference
/// rung. At every worker count nothing fails and every result is exact.
#[test]
fn deterministic_fault_quarantines_each_key_once() {
    let want = references();
    for workers in WORKERS {
        let cache = Arc::new(CompileCache::new());
        let reqs = batch(2);
        let opts = ServeOptions::new().with_workers(workers).with_faults(
            FaultPlan::new(chaos_seed().wrapping_add(workers as u64)).with(FaultSite::VmTrap, 1.0),
        );
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.completed(), reqs.len(), "{}", report.render());
        assert_uncontaminated(&report, &want);
        for r in &report.records {
            if r.engine == Engine::Interp {
                assert!(!r.degraded && !r.breaker_routed, "{}", report.render());
            }
        }
        // A request that passes the quarantine check before its key's
        // first faulting run ends may recompile the evicted artifact,
        // fault and quarantine it again; at one worker there is none.
        if workers > 1 {
            assert!(report.cache.quarantines >= PROGRAMS.len() as u64);
            continue;
        }
        assert_eq!(report.cache.quarantines, PROGRAMS.len() as u64);
        for program in 0..PROGRAMS.len() {
            let name = format!("p{program}");
            let vm: Vec<_> = report
                .records
                .iter()
                .filter(|r| r.name == name && r.engine != Engine::Interp)
                .collect();
            let walked = vm.iter().filter(|r| !r.breaker_routed).count();
            assert_eq!(walked, 1, "{name}: one request walks the ladder");
            assert!(!vm[0].breaker_routed && vm[0].degraded, "{name}");
            assert!(
                vm[1..].iter().all(|r| r.breaker_routed),
                "{name}: every later VM request is routed:\n{}",
                report.render()
            );
        }
    }
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
        .map(|mut r| {
            r.request = r.request.with_deadline(Duration::from_millis(5));
            r
        })
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

/// One request too large to allocate among ordinary ones: `heat.zl` at
/// `n = 2^27`, whose `T` takes about 2^57 bytes, more than any 64-bit
/// host maps. Every rung of its ladder fails to allocate, so it fails
/// with the allocation cause; its key is not quarantined, because the
/// binding and the host are at fault, not the artifact, so the second
/// oversized request walks the ladder again instead of being routed.
/// Every other request is answered bit-identically, and the process
/// does not abort.
#[test]
fn an_oversized_request_fails_alone_and_quarantines_nothing() {
    const HEAT: &str = include_str!("../examples/programs/heat.zl");
    let mut want = references();
    want.insert("heat".into(), reference(&zlang::compile(HEAT).unwrap()));
    let oversized = |engine| {
        ServeRequest::new(
            "heat-2^27",
            HEAT,
            RunRequest::new().with_engine(engine).with_set("n", 1 << 27),
        )
    };
    for workers in WORKERS {
        let cache = Arc::new(CompileCache::new());
        let mut reqs = batch(1);
        reqs.insert(3, oversized(Engine::Vm));
        reqs.push(ServeRequest::new("heat", HEAT, RunRequest::new()));
        reqs.push(oversized(Engine::VmPar));
        let report = serve_with(&reqs, &ServeOptions::new().with_workers(workers), &cache);

        assert_eq!(report.failed(), 2, "{}", report.render());
        assert_eq!(report.completed(), reqs.len() - 2, "{}", report.render());
        assert_uncontaminated(&report, &want);
        for r in report.records.iter().filter(|r| r.name == "heat-2^27") {
            let cause = r.cause().expect("the oversized request fails");
            assert_eq!(cause.kind, CauseKind::Alloc, "{cause}");
            assert!(
                cause.message.contains("cannot allocate array `T`"),
                "{cause}"
            );
            assert!(!r.breaker_routed, "{}", report.render());
        }
        assert_eq!(report.cache.quarantines, 0, "{}", report.render());
    }
}
