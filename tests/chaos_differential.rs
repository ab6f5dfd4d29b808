//! Chaos differential suite: generated programs under injected faults.
//!
//! Every generated program is run twice: once plainly at `baseline` on the
//! interpreter (the O0 reference), and once under the supervisor at
//! `c2+f3` on the lane VM (`vm-simd`) with a fault injected somewhere in
//! the pipeline. Whatever the supervisor has to do to survive — degrade the
//! engine, recompile at a lower level, drop the machine simulation, fall
//! all the way to the reference rung — the answer it hands back must be
//! the bit-identical checksum of the unoptimized interpreter. The one
//! fault that is not survived is a passed deadline: it fails the request
//! on its first rung, since no rung can start before an instant that has
//! passed.
//!
//! The seed comes from `CHAOS_SEED` (default 1) so CI can rotate schedules
//! without touching the source.

use fusion_core::pipeline::{Level, Pipeline};
use fusion_core::supervisor::CauseKind;
use fusion_core::RunRequest;
use loopir::{Engine, NoopObserver};
use machine::presets::MachineKind;
use runtime::{simulate_executor, ExecConfig};
use std::time::Duration;
use testkit::faults::{self, FaultPlan, FaultSite};
use testkit::{genprog, Rng};
use zlang::ir::{ConfigBinding, Program, ScalarId};

/// How many generated programs the suite pushes through the supervisor.
const PROGRAMS: usize = 210;

fn chaos_seed() -> u64 {
    std::env::var("CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1)
}

/// The fault classes the ladder must survive. Injected sites come from the
/// fault plan; `Deadline` is a zero deadline, with no site.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultClass {
    Inject(FaultSite),
    Deadline,
}

const CLASSES: [FaultClass; 6] = [
    FaultClass::Inject(FaultSite::FuseGrow),
    FaultClass::Inject(FaultSite::VerifyReject),
    FaultClass::Inject(FaultSite::VmTrap),
    FaultClass::Inject(FaultSite::CommDrop),
    FaultClass::Inject(FaultSite::CommDup),
    FaultClass::Deadline,
];

/// The suite's request: `c2+f3` on `engine`, nothing else set.
fn request(engine: Engine) -> RunRequest {
    RunRequest::new()
        .with_level(Level::C2F3)
        .with_engine(engine)
}

/// The two checksum scalars every generated program declares first.
fn checksums(outcome: &loopir::RunOutcome) -> (u64, u64) {
    (
        outcome.scalar(ScalarId(0)).to_bits(),
        outcome.scalar(ScalarId(1)).to_bits(),
    )
}

/// The O0 reference: baseline level, plain interpreter, no supervisor.
fn reference(program: &Program) -> (u64, u64) {
    let opt = Pipeline::new(Level::Baseline).optimize(program);
    let binding = ConfigBinding::defaults(&opt.scalarized.program);
    let outcome = Engine::Interp
        .executor(&opt.scalarized, binding)
        .expect("reference compiles")
        .execute(&mut NoopObserver)
        .expect("reference runs");
    checksums(&outcome)
}

/// Runs `program` under the supervisor of `req` — with every rung
/// observed by the machine simulation (T3E, 16 processors) when `sim` is
/// set: the only path that exercises the ghost message channel.
fn run_supervised(
    req: &RunRequest,
    program: &Program,
    sim: bool,
) -> Result<fusion_core::Supervised, fusion_core::SupervisorError> {
    let sup = req.supervisor();
    if !sim {
        return sup.run_program(program);
    }
    let cfg = ExecConfig::new(MachineKind::T3e.machine(), 16);
    sup.run_program_simulated(program, &mut |exec, sp, binding| {
        simulate_executor(exec, sp, binding, &cfg).map(|(outcome, _)| outcome)
    })
}

/// A supervisor requesting the most aggressive configuration, so a fault
/// has the whole ladder to fall down. Comm fault classes attach the
/// machine-simulation backend.
fn supervised(
    program: &Program,
    class: FaultClass,
) -> Result<fusion_core::Supervised, fusion_core::SupervisorError> {
    let mut req = request(Engine::VmSimd);
    if class == FaultClass::Deadline {
        req = req.with_deadline(Duration::ZERO);
    }
    let sim = matches!(
        class,
        FaultClass::Inject(FaultSite::CommDrop) | FaultClass::Inject(FaultSite::CommDup)
    );
    run_supervised(&req, program, sim)
}

fn run_class(program: &Program, source: &str, class: FaultClass, want: (u64, u64)) {
    let plan = match class {
        FaultClass::Inject(site) => FaultPlan::new(chaos_seed()).with(site, 1.0),
        _ => FaultPlan::new(chaos_seed()),
    };
    let _guard = faults::install(plan);
    let result = supervised(program, class);
    let fired = faults::fired();
    drop(_guard);
    let run = match (class, result) {
        // A passed deadline fails the request on its first rung, before
        // compiling: the first deadline fault ends the ladder.
        (FaultClass::Deadline, Err(e)) => {
            assert_eq!(e.cause.kind, CauseKind::Deadline, "{}", e.report.render());
            assert_eq!(e.report.attempts.len(), 1, "{}", e.report.render());
            return;
        }
        (_, result) => result.unwrap_or_else(|e| {
            panic!("supervisor must survive {class:?}:\n{}", e.report.render())
        }),
    };

    let got = checksums(&run.outcome);
    assert_eq!(
        got,
        want,
        "checksum mismatch under {class:?}\n{}\nprogram:\n{source}",
        run.report.render()
    );

    match class {
        // Pipeline/engine faults always fire on the first attempt and must
        // be named in the report; the run cannot end where it started.
        FaultClass::Inject(
            site @ (FaultSite::FuseGrow | FaultSite::VerifyReject | FaultSite::VmTrap),
        ) => {
            assert!(
                fired.iter().any(|&(s, n)| s == site && n > 0),
                "{site} never fired:\n{source}"
            );
            assert!(
                run.report.mentions(site.name()),
                "report does not name {site}:\n{}",
                run.report.render()
            );
            assert!(run.report.degraded(), "{}", run.report.render());
            // One rung per artifact. A trap or a rejection is a fact
            // about the one lowered artifact, so the tree-walker answers
            // at the same spec; an optimizer panic poisons the spec for
            // every engine. Either way the fault is met once.
            let end = match site {
                FaultSite::FuseGrow => (Level::Baseline, Engine::Interp),
                _ => (Level::C2F3, Engine::Interp),
            };
            assert_eq!(run.report.attempts.len(), 2, "{}", run.report.render());
            assert_eq!(
                (run.report.final_spec, run.report.final_engine),
                (end.0.into(), end.1),
                "{}",
                run.report.render()
            );
        }
        // A permanently dropped exchange surfaces as a comm failure and a
        // sim-disabled retry of the same rung — if any exchange happened.
        FaultClass::Inject(FaultSite::CommDrop) => {
            if fired.iter().any(|&(s, _)| s == FaultSite::CommDrop) {
                assert!(
                    run.report.mentions(FaultSite::CommDrop.name()),
                    "{}",
                    run.report.render()
                );
                assert!(!run.report.degraded(), "{}", run.report.render());
            }
        }
        // Duplicated deliveries are semantically harmless: no degradation,
        // nothing to report.
        FaultClass::Inject(FaultSite::CommDup) => {
            assert!(!run.report.degraded(), "{}", run.report.render());
        }
        FaultClass::Deadline => {
            panic!("a passed deadline answered:\n{}", run.report.render())
        }
        // Serving-layer sites are exercised by tests/chaos_serve.rs; they
        // never appear in this suite's CLASSES.
        FaultClass::Inject(
            FaultSite::ServeStall | FaultSite::WorkerPanic | FaultSite::CacheCorrupt,
        ) => unreachable!("serving-layer fault sites are not in CLASSES"),
    }
}

/// The tentpole assertion: 210 generated programs, each through the
/// supervisor with a fault from one of the six classes, every answer
/// bit-identical to the O0 interpreter (a passed deadline gives none, and
/// fails on its first rung).
#[test]
fn injected_faults_never_change_the_answer() {
    let mut rng = Rng::new(chaos_seed());
    for i in 0..PROGRAMS {
        let source = genprog::generate(&mut rng);
        let program = zlang::compile(&source)
            .unwrap_or_else(|e| panic!("generated program {i} must compile: {e}\n{source}"));
        let want = reference(&program);
        let class = CLASSES[i % CLASSES.len()];
        run_class(&program, &source, class, want);
    }
}

/// Sanity anchor for the differential: with no faults injected, the
/// supervised aggressive configuration already matches the reference and
/// reports a clean single attempt.
#[test]
fn clean_supervised_runs_match_the_reference() {
    let mut rng = Rng::new(chaos_seed().wrapping_add(0x9E37));
    for i in 0..24 {
        let source = genprog::generate(&mut rng);
        let program = zlang::compile(&source)
            .unwrap_or_else(|e| panic!("generated program {i} must compile: {e}\n{source}"));
        let want = reference(&program);
        let run = request(Engine::VmSimd)
            .supervisor()
            .run_program(&program)
            .expect("clean run succeeds");
        assert_eq!(checksums(&run.outcome), want, "program {i}:\n{source}");
        assert!(!run.report.degraded(), "{}", run.report.render());
        assert_eq!(run.report.attempts.len(), 1);
    }
}

/// The parallel tiled engine under supervision: clean runs at 1/2/4
/// worker threads must land on `vm-par` undegraded with the reference
/// checksum — the thread count must never leak into the answer.
#[test]
fn vm_par_clean_runs_match_the_reference_at_every_thread_count() {
    let mut rng = Rng::new(chaos_seed().wrapping_add(0x7A12));
    for i in 0..12 {
        let source = genprog::generate(&mut rng);
        let program = zlang::compile(&source)
            .unwrap_or_else(|e| panic!("generated program {i} must compile: {e}\n{source}"));
        let want = reference(&program);
        for threads in [1usize, 2, 4] {
            let run = request(Engine::VmPar)
                .with_threads(threads)
                .supervisor()
                .run_program(&program)
                .expect("clean vm-par run succeeds");
            assert_eq!(
                checksums(&run.outcome),
                want,
                "program {i}, {threads} threads:\n{source}"
            );
            assert!(!run.report.degraded(), "{}", run.report.render());
            assert_eq!(run.report.final_engine, Engine::VmPar);
        }
    }
}

/// Faults under the parallel engine: a trapped VM instruction or a
/// dropped exchange while `vm-par` leads the ladder must still resolve to
/// the reference answer at every thread count.
#[test]
fn vm_par_survives_injected_faults_at_every_thread_count() {
    let mut rng = Rng::new(chaos_seed().wrapping_add(0x9A71));
    for (i, site) in [
        FaultSite::VmTrap,
        FaultSite::CommDrop,
        FaultSite::VerifyReject,
    ]
    .into_iter()
    .enumerate()
    {
        for threads in [1usize, 2, 4] {
            let source = genprog::generate(&mut rng);
            let program = zlang::compile(&source)
                .unwrap_or_else(|e| panic!("generated program {i} must compile: {e}\n{source}"));
            let want = reference(&program);
            let _guard = faults::install(FaultPlan::new(chaos_seed()).with(site, 1.0));
            let req = request(Engine::VmPar).with_threads(threads);
            let sim = site == FaultSite::CommDrop;
            let run = run_supervised(&req, &program, sim).unwrap_or_else(|e| {
                panic!(
                    "vm-par must survive {site} at {threads} threads:\n{}",
                    e.report.render()
                )
            });
            drop(_guard);
            assert_eq!(
                checksums(&run.outcome),
                want,
                "{site} at {threads} threads:\n{source}"
            );
            if site != FaultSite::CommDrop {
                assert!(run.report.mentions(site.name()), "{}", run.report.render());
                assert!(run.report.degraded(), "{}", run.report.render());
                // The trap or rejection is met once, at the requested
                // knobs; the tree-walker answers at the same spec.
                assert_eq!(run.report.attempts.len(), 2, "{}", run.report.render());
                assert_eq!(run.report.final_engine, Engine::Interp);
                assert_eq!(run.report.final_spec, Level::C2F3.into());
            }
        }
    }
}

/// Faults at every site in the *same* run: the ladder composes.
#[test]
fn stacked_faults_still_produce_the_reference_answer() {
    let mut rng = Rng::new(chaos_seed().wrapping_add(0x51DE));
    for _ in 0..12 {
        let source = genprog::generate(&mut rng);
        let program = zlang::compile(&source).expect("generated program compiles");
        let want = reference(&program);
        let plan = FaultPlan::new(chaos_seed())
            .with(FaultSite::VerifyReject, 1.0)
            .with(FaultSite::VmTrap, 1.0);
        let _guard = faults::install(plan);
        let run = request(Engine::VmSimd)
            .supervisor()
            .run_program(&program)
            .unwrap_or_else(|e| panic!("ladder must bottom out:\n{}", e.report.render()));
        drop(_guard);
        assert_eq!(checksums(&run.outcome), want, "{source}");
        assert!(
            run.report.mentions("verify-reject"),
            "{}",
            run.report.render()
        );
        // No stream runs unverified, so the armed trap has no VM rung to
        // fire in: the rejection is the whole story.
        assert!(!run.report.mentions("vm-trap"), "{}", run.report.render());
        assert_eq!(run.report.attempts.len(), 2, "{}", run.report.render());
        assert_eq!(run.report.final_engine, Engine::Interp);
        assert_eq!(run.report.final_spec, Level::C2F3.into());
    }
}
