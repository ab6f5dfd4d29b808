//! Differential tests for the lazy frontend: a runtime-recorded batch
//! must behave exactly like the equivalent static source program — same
//! structural hash, same results at every optimization level, on every
//! engine.

use fusion_core::hash::program_hash;
use fusion_core::{CompileCache, Level, RunRequest};
use lazy::Batch;
use loopir::Engine;

/// A representative batch: producer, stencil with a contractible
/// temporary, elementwise combine, and two reductions.
fn record() -> Batch {
    let mut b = Batch::new("diff");
    let grid = b.region(&[(1, 40)]);
    let interior = b.region(&[(2, 39)]);
    let a = b.store(grid, 0.5);
    let t = b.store(interior, (a.at(&[-1]) + 2.0 * a + a.at(&[1])) / 4.0);
    let u = b.store(interior, t * t - a);
    let _hi = b.max(interior, u);
    let _sum = b.sum(interior, u + 1.0);
    b
}

/// The hand-written zlang source equivalent to [`record`].
const STATIC_SRC: &str = r#"
program diff;
region R0 = [1..40];
region R1 = [2..39];
var a0 : [R0] float;
var a1, a2 : [R1] float;
var s0, s1 : float;
begin
  [R0] a0 := 0.5;
  [R1] a1 := (a0@[-1] + 2.0 * a0 + a0@[1]) / 4.0;
  [R1] a2 := a1 * a1 - a0;
  s0 := max<< [R1] a2;
  s1 := +<< [R1] (a2 + 1.0);
end
"#;

/// The recorded program and the static source compile to equal programs
/// with equal structural hashes — the property that makes lazy batches
/// cache-compatible with their static twins.
#[test]
fn recorded_batch_equals_static_source() {
    let b = record();
    let from_source = zlang::compile(STATIC_SRC).unwrap();
    assert_eq!(*b.program(), from_source);
    assert_eq!(program_hash(b.program()), program_hash(&from_source));
}

/// Re-recording is deterministic, and pretty-printing the recorded batch
/// round-trips to the same hash (the interned-name invariant).
#[test]
fn recording_and_print_round_trips_are_hash_stable() {
    let h1 = program_hash(record().program());
    let h2 = program_hash(record().program());
    assert_eq!(h1, h2);
    let reparsed = zlang::compile(&record().source()).unwrap();
    assert_eq!(h1, program_hash(&reparsed));
}

/// The full sweep: the lazy batch matches the static compile bit for bit
/// at every one of the paper's 8 levels. `Engine::Interp` on the static
/// program is the ground truth; the lazy side runs on the VM to cross
/// engines at the same time.
#[test]
fn lazy_matches_static_at_all_levels() {
    let b = record();
    let static_program = zlang::compile(STATIC_SRC).unwrap();
    for level in Level::all() {
        let truth_req = RunRequest::new()
            .with_level(level)
            .with_engine(Engine::Interp);
        let cache = CompileCache::new();
        let (truth, _) = cache.get_or_compile(&static_program, &truth_req).unwrap();
        let want = truth
            .executor(truth_req.exec_opts())
            .execute_pure()
            .unwrap();
        for engine in [Engine::Vm, Engine::VmSimd, Engine::VmPar] {
            let req = RunRequest::new().with_level(level).with_engine(engine);
            let (out, _) = b.flush(&req, &cache).unwrap();
            assert_eq!(
                out.outcome
                    .scalars
                    .iter()
                    .map(|s| s.to_bits())
                    .collect::<Vec<_>>(),
                want.scalars.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
                "lazy {engine} at {} diverged from static interp",
                level.name()
            );
        }
    }
}

/// Two differently-shaped recordings never collide in one cache, and
/// each hits on its own repeat.
#[test]
fn distinct_recordings_do_not_cross_hit() {
    let cache = CompileCache::new();
    let req = RunRequest::new();
    let (_, hit_a1) = record().flush(&req, &cache).unwrap();
    let mut other = Batch::new("diff");
    let r = other.region(&[(1, 40)]);
    let x = other.store(r, 0.5);
    let _s = other.sum(r, x);
    let (_, hit_b1) = other.flush(&req, &cache).unwrap();
    assert!(!hit_a1 && !hit_b1, "different structure, same name: no hit");
    let (_, hit_a2) = record().flush(&req, &cache).unwrap();
    let (_, hit_b2) = other.flush(&req, &cache).unwrap();
    assert!(hit_a2 && hit_b2);
}
