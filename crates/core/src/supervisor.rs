//! The fault-tolerant compile-and-run supervisor.
//!
//! The optimizer is an experiment in aggressive program transformation,
//! and aggressive transformations fail in interesting ways: a panic deep
//! inside `GROW`, a verifier that (correctly or not) rejects the lowered
//! bytecode, a trapped VM instruction, a run that exceeds its time or
//! space budget. None of those should take down a caller that asked a
//! simple question — "what does this program compute?" — because the
//! system always has a slower engine that still knows the answer.
//!
//! [`Supervisor`] holds the [`RunRequest`] it serves and wraps the whole
//! path — parse, normalize, fuse, scalarize, verify, execute — in a fault
//! boundary. Source text is parsed through the cache's parse stage
//! ([`CompileCache::parse`]), and every attempt is the same request → key
//! → [`CompileCache::compile`] → execute sequence an unsupervised caller
//! gets from [`CompileCache::get_or_compile`]; a supervisor with no cache
//! attached runs the same path through a private cache that lives for
//! the one run. The degradation ladder has one rung per distinct
//! artifact: the request as asked, then the tree-walker at the same
//! [`LevelSpec`], then plain `baseline` on the tree-walker with both
//! extensions off:
//!
//! ```text
//! (spec, engine, knobs)  →  (spec, interp)  →  (baseline, interp)
//! ```
//!
//! A rung equal to the one before it is dropped (`interp` at `baseline`
//! is one rung). There is no rung at other knobs: the three VM names run
//! one lowered artifact, whose halo checks and verifier verdict are the
//! same at every `(threads, lanes)`, so a fault of the
//! requested rung would repeat at any other width. The tree-walker is a
//! different program over the same optimized loops, and needs no
//! bytecode: a lowering failure or a verifier rejection is recorded once
//! and the tree-walker answers at the requested spec — there is no
//! unverified stream to hide a compiler bug behind.
//!
//! The final rung — the unoptimized reference interpreter — is the
//! semantic ground truth for the entire system (every engine is tested
//! bit-identical against it), so degradation never changes the computed
//! answer, only how fast it arrives. Every attempt and fault is
//! recorded in a [`SupervisorReport`] so callers can see exactly what
//! happened and why.
//!
//! Faults handled:
//!
//! * **Panics** in any stage (caught with `catch_unwind`; the panic-hook
//!   output is suppressed while the supervisor is in charge). A panic
//!   during optimization *poisons the spec*: rungs that would re-run the
//!   same deterministic optimization are skipped. The panicking stage's
//!   cache claim is abandoned, so a failure is never memoized.
//! * **Verifier rejections** and lowering failures — no VM name
//!   constructs; the tree-walker, which needs no bytecode, answers at the
//!   requested spec.
//! * **The deadline** ([`RunRequest::deadline`]): one wall-clock instant
//!   per run, shared by every budgeted rung and enforced inside the
//!   engines ([`Executor::set_deadline`]); a rung that starts after it
//!   faults before compiling. The reference rung runs without it — a
//!   degraded answer late beats no answer.
//! * **Communication failures** from a simulated-runtime backend
//!   ([`Supervisor::run_program_simulated`]): the same rung runs once
//!   more without the backend, since the communication simulation
//!   affects timing models, never computed values. That is a degradation
//!   of what observes the rung, not a retry: it pays even when every
//!   exchange fails. A backend is an *observer* of the rung, not a second
//!   way to run it: it is handed the executor the rung built — from the
//!   same cached artifact, at the same knobs and deadline — and only
//!   chooses what watches it run.
//! * **Poisoned artifacts.** With a cache attached, an execution fault of
//!   the requested rung (`Stage::Execute`, an `Exec` or `Panic` kind)
//!   [quarantines](CompileCache::quarantine) the requested key on its
//!   first occurrence — execution is deterministic, so a rerun would
//!   fault again — once the run's own ladder is done, and every later run
//!   of a quarantined key goes straight to the reference rung without
//!   consulting the cache.
//!
//! ```
//! use fusion_core::supervisor::Supervisor;
//! use fusion_core::Level;
//! use loopir::Engine;
//!
//! let src = "program t; config n : int = 4; region R = [1..n];
//!            var A : [R] float; var s : float;
//!            begin [R] A := 2.5; s := +<< [R] A; end";
//! let sup = Supervisor::new(Level::C2F3, Engine::VmSimd);
//! let run = sup.run_source(src).unwrap();
//! assert_eq!(run.outcome.checksum(), 10.0);
//! assert!(!run.report.degraded());
//! ```

use crate::cache::{CacheKey, CompileCache, Depth};
use crate::hash;
use crate::pipeline::{Level, LevelSpec};
use crate::request::RunRequest;
use loopir::{Engine, ErrorKind, ExecError, Executor, NoopObserver, RunOutcome, ScalarProgram};
use std::cell::Cell;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::{Duration, Instant};
use testkit::faults::{self, FaultSite};
use zlang::ir::{ConfigBinding, Program};

/// A pipeline stage, for fault attribution — the shared pass identity
/// from [`crate::pass::PassId`]. The optimizer marks each pass as it
/// runs, so a caught panic is attributed to the exact pass (e.g.
/// `fuse-contraction`) rather than a coarse phase; `Parse`,
/// `VerifyBytecode`, and `Execute` cover the stages around it.
pub use crate::pass::PassId as Stage;

thread_local! {
    static CURRENT_STAGE: Cell<Stage> = const { Cell::new(Stage::Execute) };
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Marks the currently running pipeline stage on this thread, so a panic
/// caught by the supervisor is attributed to the stage that raised it.
/// Called by the optimizer before each pass and by
/// [`CompileCache::compile`] before lowering; a no-op for everyone else.
pub fn enter_stage(stage: Stage) {
    CURRENT_STAGE.with(|s| s.set(stage));
}

/// The stage most recently marked with [`enter_stage`] on this thread.
pub fn current_stage() -> Stage {
    CURRENT_STAGE.with(|s| s.get())
}

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report while a supervisor on this thread is inside
/// `catch_unwind`. Panics on other threads report normally.
fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Runs `f`, converting a panic into its message. The default panic
/// report is suppressed for the duration. Shared with the serve layer,
/// whose workers need the same boundary around per-request code that
/// runs *outside* the supervisor (dequeue, fault injection, deadline math).
pub(crate) fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    install_quiet_hook();
    let prev = CAPTURING.with(|c| c.replace(true));
    let r = panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(prev));
    r.map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic with non-string payload".to_string()
        }
    })
}

/// What kind of fault an attempt died of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CauseKind {
    /// A caught panic.
    Panic,
    /// The bytecode verifier rejected the program.
    VerifyReject,
    /// The wall-clock deadline passed.
    Deadline,
    /// The simulated runtime reported an unrecoverable communication
    /// failure.
    Comm,
    /// Source text failed to parse or typecheck.
    Parse,
    /// A config override names no config variable of the program.
    Config,
    /// Any other execution error (trap, out-of-bounds access, lowering
    /// failure).
    Exec,
}

impl CauseKind {
    /// One human-readable word-or-two per kind, used in rendered causes
    /// and to bucket failures in serving reports.
    pub fn name(self) -> &'static str {
        match self {
            CauseKind::Panic => "panic",
            CauseKind::VerifyReject => "verifier rejection",
            CauseKind::Deadline => "deadline exceeded",
            CauseKind::Comm => "communication failure",
            CauseKind::Parse => "parse error",
            CauseKind::Config => "config error",
            CauseKind::Exec => "execution error",
        }
    }
}

/// Why an attempt failed: the stage it was in, the kind of fault, and
/// the fault's own message.
#[derive(Debug, Clone, PartialEq)]
pub struct Cause {
    /// The stage that faulted.
    pub stage: Stage,
    /// The fault classification.
    pub kind: CauseKind,
    /// The underlying message (panic payload, error display, ...).
    pub message: String,
}

impl fmt::Display for Cause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} in {} stage: {}",
            self.kind.name(),
            self.stage,
            self.message
        )
    }
}

/// A lowering or execution error, attributed to the lowering stage when
/// the bytecode could not be built or was rejected, and to execution
/// otherwise.
impl From<ExecError> for Cause {
    fn from(e: ExecError) -> Cause {
        let (stage, kind) = match e.kind {
            ErrorKind::Verify => (Stage::VerifyBytecode, CauseKind::VerifyReject),
            ErrorKind::Lower => (Stage::VerifyBytecode, CauseKind::Exec),
            ErrorKind::Deadline => (Stage::Execute, CauseKind::Deadline),
            ErrorKind::Comm => (Stage::Execute, CauseKind::Comm),
            _ => (Stage::Execute, CauseKind::Exec),
        };
        Cause {
            stage,
            kind,
            message: e.message,
        }
    }
}

/// One rung of the degradation ladder as actually tried.
#[derive(Debug, Clone)]
pub struct Attempt {
    /// Level spec (level and extensions) of this attempt.
    pub spec: LevelSpec,
    /// The engine this attempt ran on.
    pub engine: Engine,
    /// Wall-clock time the attempt took (including a failed one).
    pub elapsed: Duration,
    /// `None` if the attempt succeeded; the fault otherwise.
    pub fault: Option<Cause>,
    /// True if this attempt re-ran its rung with the simulated runtime
    /// disabled after a communication failure.
    pub sim_disabled: bool,
    /// The deepest cache stage this attempt had to run; the first attempt
    /// of a run from source includes the parse stage.
    pub depth: Depth,
}

/// The complete record of a supervised run.
#[derive(Debug, Clone)]
pub struct SupervisorReport {
    /// The level spec the caller asked for.
    pub requested_spec: LevelSpec,
    /// The engine the caller asked for.
    pub requested_engine: Engine,
    /// Every attempt, in order; the last one succeeded unless the whole
    /// run failed.
    pub attempts: Vec<Attempt>,
    /// The spec that produced the answer (meaningless if the run failed).
    pub final_spec: LevelSpec,
    /// The engine that produced the answer (meaningless if the run failed).
    pub final_engine: Engine,
    /// True if the requested key was quarantined and the run was routed
    /// straight to the reference rung, bypassing the cache.
    pub quarantined: bool,
}

impl SupervisorReport {
    fn new(req: &RunRequest) -> Self {
        SupervisorReport {
            requested_spec: req.spec,
            requested_engine: req.engine,
            attempts: Vec::new(),
            final_spec: req.spec,
            final_engine: req.engine,
            quarantined: false,
        }
    }

    /// True if the answer did not come from the requested (spec, engine).
    pub fn degraded(&self) -> bool {
        self.final_spec != self.requested_spec || self.final_engine != self.requested_engine
    }

    /// The deepest cache stage any attempt had to run: how much of the
    /// pipeline this request paid for.
    pub fn depth(&self) -> Depth {
        self.attempts
            .iter()
            .map(|a| a.depth)
            .max()
            .unwrap_or_default()
    }

    /// Every fault recorded across the attempts.
    pub fn faults(&self) -> impl Iterator<Item = &Cause> {
        self.attempts.iter().filter_map(|a| a.fault.as_ref())
    }

    /// True if `text` appears anywhere in the rendered report — stage
    /// names, fault kinds, or fault messages. Chaos tests use this to
    /// assert that the report names the injected fault site.
    pub fn mentions(&self, text: &str) -> bool {
        self.render().contains(text)
    }

    /// A human-readable multi-line account of the run.
    pub fn render(&self) -> String {
        let mut out = format!(
            "supervised run: requested {} on {}\n",
            self.requested_spec, self.requested_engine
        );
        for (i, a) in self.attempts.iter().enumerate() {
            let status = match &a.fault {
                None => "ok".to_string(),
                Some(c) => c.to_string(),
            };
            let sim = if a.sim_disabled { ", sim disabled" } else { "" };
            out.push_str(&format!(
                "  attempt {}: {} on {}{} — {} ({:.3} ms, {})\n",
                i + 1,
                a.spec,
                a.engine,
                sim,
                status,
                a.elapsed.as_secs_f64() * 1e3,
                a.depth,
            ));
        }
        out.push_str(&format!(
            "  final: {} on {}{}{}\n",
            self.final_spec,
            self.final_engine,
            if self.degraded() { " (degraded)" } else { "" },
            if self.quarantined {
                " (key quarantined)"
            } else {
                ""
            }
        ));
        out
    }
}

/// A simulated-runtime backend: runs a rung's executor — already built
/// from the rung's cached artifact, knobs and deadline set — under its own
/// observer, returning the outcome or a (possibly communication-related)
/// failure. The scalarized program and the binding are the ones the
/// executor was built over, for a machine model that reads declarations
/// and looks up each nest the run reports: an
/// [`Observer::nest_begin`](loopir::Observer::nest_begin) id is an index
/// into this program's [`ScalarProgram::nests`].
pub type SimFn<'a> = dyn FnMut(&mut dyn Executor, &ScalarProgram, &ConfigBinding) -> Result<RunOutcome, ExecError>
    + 'a;

/// A successful supervised run: the answer plus the account of how it
/// was obtained.
#[derive(Debug, Clone)]
pub struct Supervised {
    /// The program's result (scalars + stats) from the final attempt.
    pub outcome: RunOutcome,
    /// What happened along the way.
    pub report: SupervisorReport,
}

/// Every rung of the ladder faulted.
#[derive(Debug, Clone)]
pub struct SupervisorError {
    /// The fault that killed the last attempt.
    pub cause: Cause,
    /// The full account, for diagnosis.
    pub report: SupervisorReport,
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "all execution strategies failed; last {}", self.cause)
    }
}

impl std::error::Error for SupervisorError {}

/// The fault-boundary wrapper around compile-and-run. See the module
/// docs for the fault model and ladder. It owns the [`RunRequest`] it
/// serves (level spec, engine, threads, lanes, deadline, `--set`
/// overrides are set there) plus only what a request does not carry:
/// the shared cache, which also holds the quarantined keys.
pub struct Supervisor {
    request: RunRequest,
    cache: Option<Arc<CompileCache>>,
}

impl fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Supervisor")
            .field("request", &self.request)
            .finish()
    }
}

/// What the rungs of one supervised run share: the program, its binding
/// and the requested rung's cache key (bound and hashed once per run),
/// the budgeted rungs' deadline (one instant per run), and the
/// cache they compile through, which is what lets the rungs at one spec
/// run the optimizer once.
struct Run<'p> {
    program: &'p Program,
    binding: ConfigBinding,
    key: CacheKey,
    deadline: Option<Instant>,
    cache: &'p CompileCache,
    /// True if `cache` is the attached, shared one — the only kind whose
    /// artifacts outlive a run and can come back corrupted.
    shared: bool,
    /// The deepest stage the attempt in progress ran.
    depth: Depth,
}

impl Supervisor {
    /// A supervisor for the default request at a level and engine: no
    /// extension, no deadline, no overrides. Shorthand for
    /// [`RunRequest::supervisor`].
    pub fn new(level: Level, engine: Engine) -> Self {
        Supervisor::for_request(RunRequest::new().with_level(level).with_engine(engine))
    }

    /// A supervisor serving `request`.
    pub fn for_request(request: RunRequest) -> Self {
        Supervisor {
            request,
            cache: None,
        }
    }

    /// Attaches a shared [`CompileCache`]: source text is parsed through
    /// its parse stage and every rung compiles through it at its own
    /// spec — a hit reuses the `Arc`-shared
    /// scalarized program and compiled bytecode and skips the front end,
    /// the optimizer, the bytecode compiler, and the verifier; a new
    /// size of a known program skips all but the last two — and every
    /// stage that runs publishes its result for future runs. This is how
    /// the serve path amortizes compilation across requests while
    /// keeping the fault boundary per-request.
    ///
    /// The attached cache also decides quarantine: a requested key it
    /// holds as [quarantined](CompileCache::is_quarantined) routes the run
    /// straight to the unoptimized reference interpreter *without
    /// consulting the cache*, and the first execution-time fault of the
    /// requested rung quarantines its key.
    pub fn with_cache(mut self, cache: Arc<CompileCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Tightens the wall-clock budget to at most `remaining` — the serve
    /// path calls this with a request's deadline minus its queue wait, so
    /// time spent queued is charged against the same total deadline the
    /// caller asked for.
    pub fn with_remaining(mut self, remaining: Duration) -> Self {
        let deadline = &mut self.request.deadline;
        *deadline = Some(deadline.map_or(remaining, |d| d.min(remaining)));
        self
    }

    /// Parses and runs source text under supervision.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisorError`] if the source does not compile (there
    /// is no ladder below parsing) or if every rung faulted.
    pub fn run_source(&self, source: &str) -> Result<Supervised, SupervisorError> {
        enter_stage(Stage::Parse);
        let started = Instant::now();
        let cache = self.run_cache();
        let (parsed, depth) = match quiet_catch(|| cache.parse(source)) {
            Ok(Ok(parsed)) => parsed,
            Ok(Err(e)) => return Err(self.parse_error(e.to_string(), started)),
            Err(msg) => return Err(self.parse_error(msg, started)),
        };
        self.run(&cache, &parsed.program, parsed.digest, depth, None)
    }

    /// The cache a run compiles through: the attached one, or a private
    /// one sized for one ladder and dropped with the run.
    fn run_cache(&self) -> Arc<CompileCache> {
        self.cache
            .clone()
            .unwrap_or_else(|| Arc::new(CompileCache::with_shards(1, 8)))
    }

    fn parse_error(&self, message: String, started: Instant) -> SupervisorError {
        let cause = Cause {
            stage: Stage::Parse,
            kind: CauseKind::Parse,
            message,
        };
        let mut report = SupervisorReport::new(&self.request);
        report.attempts.push(Attempt {
            spec: self.request.spec,
            engine: self.request.engine,
            elapsed: started.elapsed(),
            fault: Some(cause.clone()),
            sim_disabled: false,
            depth: Depth::Parsed,
        });
        SupervisorError { cause, report }
    }

    /// Runs a compiled program under supervision, degrading along the
    /// ladder on faults.
    ///
    /// # Errors
    ///
    /// Returns [`SupervisorError`] if a `--set` override names no config
    /// variable of the program (a [`CauseKind::Config`] cause; no rung is
    /// attempted and nothing is quarantined), or if every rung —
    /// including the unoptimized reference interpreter — faulted.
    pub fn run_program(&self, program: &Program) -> Result<Supervised, SupervisorError> {
        let digest = hash::program_hash(program);
        self.run(&self.run_cache(), program, digest, Depth::Hit, None)
    }

    /// [`run_program`](Self::run_program) with every rung's executor run
    /// by `sim`, a simulated-runtime backend, instead of unobserved. The
    /// ladder, the artifacts and the knobs are the plain run's: a
    /// simulated and a plain request share their cache entries. On a
    /// communication failure the same rung runs once more without the
    /// backend (communication simulation affects timing models, not
    /// values).
    ///
    /// # Errors
    ///
    /// As [`run_program`](Self::run_program).
    pub fn run_program_simulated(
        &self,
        program: &Program,
        sim: &mut SimFn<'_>,
    ) -> Result<Supervised, SupervisorError> {
        let digest = hash::program_hash(program);
        self.run(&self.run_cache(), program, digest, Depth::Hit, Some(sim))
    }

    /// The ladder over a program whose digest the caller holds; `parsed`
    /// is what the parse stage cost, charged to the first attempt.
    fn run(
        &self,
        cache: &CompileCache,
        program: &Program,
        digest: u64,
        mut parsed: Depth,
        mut sim: Option<&mut SimFn<'_>>,
    ) -> Result<Supervised, SupervisorError> {
        let req = &self.request;
        let mut report = SupervisorReport::new(req);
        let binding = match req.binding_for(program) {
            Ok(binding) => binding,
            Err(message) => {
                let cause = Cause {
                    stage: Stage::Parse,
                    kind: CauseKind::Config,
                    message,
                };
                return Err(SupervisorError { cause, report });
            }
        };
        // The requested rung's cache key identifies the artifact under
        // suspicion. A quarantined key routes the whole run to the
        // reference rung without touching the cache.
        let key = CacheKey::at(digest, program, &binding, req.spec, req.engine);
        let forced_reference = self.cache.as_ref().is_some_and(|c| c.is_quarantined(&key));
        report.quarantined = forced_reference;
        let rungs = if forced_reference {
            vec![(Level::Baseline.into(), Engine::Interp)]
        } else {
            ladder(req)
        };
        // A quarantined key's run must not consult the attached cache: its
        // one rung compiles through a cache of its own.
        let bypass;
        let (cache, shared) = if forced_reference {
            bypass = CompileCache::with_shards(1, 1);
            (&bypass, false)
        } else {
            (cache, self.cache.is_some())
        };
        let mut run = Run {
            program,
            binding,
            key,
            deadline: req.deadline_from_now(),
            cache,
            shared,
            depth: Depth::Hit,
        };
        let mut poisoned: Option<LevelSpec> = None;
        let mut last_cause: Option<Cause> = None;
        // Set when the requested rung faults at execution. The key is
        // quarantined once the ladder is done, so that the tree-walker
        // rung below it still shares the one optimizer run.
        let mut quarantine = false;

        let mut answer = None;
        'rungs: for (ri, &(spec, engine)) in rungs.iter().enumerate() {
            if poisoned == Some(spec) {
                continue;
            }
            // The reference rung — the last of a ladder with more than
            // one — is the degradation target of last resort; the deadline
            // does not apply to it because its entire point is to always
            // produce the answer. A directly requested (baseline, interp)
            // run (ri == 0) is an ordinary rung and stays budgeted —
            // except when quarantine forced the run there, which carries
            // reference semantics.
            let budgeted = !(forced_reference || (ri > 0 && ri == rungs.len() - 1));

            // Try with the sim backend if there is one; on a
            // communication failure, once more without it.
            let mut use_sim = sim.is_some();
            loop {
                let started = Instant::now();
                run.depth = std::mem::take(&mut parsed);
                let backend = sim.as_deref_mut().filter(|_| use_sim);
                let r = self.attempt(&mut run, (spec, engine), budgeted, backend);
                let elapsed = started.elapsed();
                let depth = run.depth;
                let attempt = |fault| Attempt {
                    spec,
                    engine,
                    elapsed,
                    fault,
                    sim_disabled: sim.is_some() && !use_sim,
                    depth,
                };
                let cause = match r {
                    Ok(outcome) => {
                        report.attempts.push(attempt(None));
                        report.final_spec = spec;
                        report.final_engine = engine;
                        answer = Some(outcome);
                        break 'rungs;
                    }
                    Err(cause) => cause,
                };
                report.attempts.push(attempt(Some(cause.clone())));
                // An execution-time fault of the requested rung is what a
                // poisoned artifact looks like from the outside. Execution
                // is deterministic, so the first one quarantines the key:
                // the artifact is never re-served. Only the requested rung
                // counts; a degraded rung runs different code.
                quarantine |= !forced_reference
                    && ri == 0
                    && cause.stage == Stage::Execute
                    && matches!(cause.kind, CauseKind::Exec | CauseKind::Panic);
                if cause.kind == CauseKind::Panic && cause.stage != Stage::Execute {
                    // Optimization is deterministic: re-running the same
                    // spec would panic again.
                    poisoned = Some(spec);
                }
                let comm_fallback = cause.kind == CauseKind::Comm && use_sim;
                last_cause = Some(cause);
                if !comm_fallback {
                    break;
                }
                use_sim = false;
            }
        }
        if quarantine {
            if let Some(cache) = &self.cache {
                cache.quarantine(&key);
            }
        }
        match answer {
            Some(outcome) => Ok(Supervised { outcome, report }),
            None => {
                let cause = last_cause.unwrap_or_else(|| Cause {
                    stage: Stage::Execute,
                    kind: CauseKind::Exec,
                    message: "no execution strategy was attempted".to_string(),
                });
                Err(SupervisorError { cause, report })
            }
        }
    }

    /// One rung: the request at the rung's spec and engine, through the
    /// one path — [`CompileCache::compile`] at the rung's key in the run's
    /// cache, build the executor at the requested knobs, run it —
    /// unobserved, or handed to `sim`. Every step is inside the panic
    /// boundary; errors come back as a [`Cause`], and a fault anywhere
    /// before publication abandons the claim.
    fn attempt(
        &self,
        run: &mut Run<'_>,
        (spec, engine): Rung,
        budgeted: bool,
        sim: Option<&mut SimFn<'_>>,
    ) -> Result<RunOutcome, Cause> {
        // A rung that starts after the run's deadline can never meet it;
        // fault deterministically up front rather than compile and then
        // depend on how far a fast program gets before the engine's
        // periodic clock check. A zero deadline always lands here.
        let deadline = run.deadline.filter(|_| budgeted);
        if deadline.is_some_and(|t| Instant::now() >= t) {
            return Err(Cause {
                stage: Stage::Execute,
                kind: CauseKind::Deadline,
                message: DEADLINE_PASSED.to_string(),
            });
        }
        enter_stage(Stage::Normalize);
        quiet_catch(|| -> Result<RunOutcome, Cause> {
            let binding = &run.binding;
            // The run's digests at this rung's coordinates.
            let key = CacheKey {
                spec,
                bytecode: engine != Engine::Interp,
                ..run.key
            };
            let (artifact, depth) = run.cache.compile(run.program, binding, key)?;
            run.depth = run.depth.max(depth);
            // Injected artifact corruption: the hit "decodes" but faults
            // the moment it executes, which is how a real bit-flipped or
            // mis-compiled entry presents. Results are never contaminated
            // — the fault replaces the run entirely.
            if run.shared && depth == Depth::Hit && faults::fire(FaultSite::CacheCorrupt) {
                return Err(Cause {
                    stage: Stage::Execute,
                    kind: CauseKind::Exec,
                    message: format!(
                        "{}: cached artifact faulted at execution",
                        faults::message(FaultSite::CacheCorrupt)
                    ),
                });
            }
            enter_stage(Stage::Execute);
            let mut exec = artifact.executor(self.request.exec_opts());
            exec.set_deadline(deadline);
            Ok(match sim {
                Some(sim) => sim(&mut *exec, &artifact.scalarized, binding)?,
                None => exec.execute(&mut NoopObserver)?,
            })
        })
        .unwrap_or_else(|message| {
            Err(Cause {
                stage: current_stage(),
                kind: CauseKind::Panic,
                message,
            })
        })
    }
}

/// The message of a rung that starts after the run's deadline passed.
const DEADLINE_PASSED: &str =
    "deadline passed before the attempt started (raise the wall-clock budget)";

/// One rung of the ladder: a spec and the engine that runs it. A VM rung
/// runs at the request's knobs; the tree-walker reads none.
type Rung = (LevelSpec, Engine);

/// The degradation ladder of a request, one rung per distinct artifact:
/// the request as asked, then the tree-walker at the same spec, then
/// (always last, unless it is all that was asked for) the unoptimized
/// reference interpreter with both extensions off.
fn ladder(req: &RunRequest) -> Vec<Rung> {
    let mut rungs = vec![
        (req.spec, req.engine),
        (req.spec, Engine::Interp),
        (Level::Baseline.into(), Engine::Interp),
    ];
    rungs.dedup();
    rungs
}

/// Peak-allocation estimate: every array live in the scalarized program,
/// at its allocated extent under `binding`, 8 bytes per element.
/// Contracted arrays are no longer live and cost nothing — the estimate
/// reflects the optimization's space savings. The supervisor does not
/// read it; the benchmark harness reports it as `array_bytes`, the
/// paper's Figure 8 quantity.
pub fn estimate_alloc_bytes(sp: &ScalarProgram, binding: &ConfigBinding) -> u64 {
    sp.live_arrays()
        .iter()
        .map(|&a| sp.program.array_alloc_elems(a, binding).saturating_mul(8))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use testkit::faults::{self, FaultPlan, FaultSite};

    const SRC: &str = "program t; config n : int = 6; region R = [1..n];
        var A, B : [R] float; var s : float;
        begin [R] A := 3.0; [R] B := A + 1.0; s := +<< [R] B; end";

    /// The default request at a level and engine, for the tests that go
    /// on to set threads, a deadline or overrides on it.
    fn request(level: Level, engine: Engine) -> RunRequest {
        RunRequest::new().with_level(level).with_engine(engine)
    }

    fn reference_checksum() -> f64 {
        let sup = Supervisor::new(Level::Baseline, Engine::Interp);
        sup.run_source(SRC).unwrap().outcome.checksum()
    }

    #[test]
    fn clean_run_is_not_degraded() {
        let sup = Supervisor::new(Level::C2F3, Engine::Vm);
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert!(!run.report.degraded());
        assert_eq!(run.report.attempts.len(), 1);
        assert_eq!(run.report.final_engine, Engine::Vm);
    }

    #[test]
    fn vm_par_clean_run_is_not_degraded() {
        let sup = request(Level::C2F3, Engine::VmPar)
            .with_threads(2)
            .supervisor();
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert!(!run.report.degraded());
        assert_eq!(run.report.final_engine, Engine::VmPar);
    }

    /// A rejection is a fact about the one lowered artifact: it is recorded
    /// once and the tree-walker answers at the same spec.
    fn assert_rejected_once_then_interp(run: &Supervised, spec: LevelSpec) {
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert_eq!(run.report.final_engine, Engine::Interp);
        assert_eq!(run.report.final_spec, spec);
        assert_eq!(run.report.attempts.len(), 2, "{}", run.report.render());
        let rejections: Vec<_> = run
            .report
            .faults()
            .filter(|c| c.kind == CauseKind::VerifyReject)
            .collect();
        assert_eq!(rejections.len(), 1, "{}", run.report.render());
        assert_eq!(rejections[0].stage, Stage::VerifyBytecode);
    }

    #[test]
    fn vm_par_verify_reject_degrades_to_interp() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VerifyReject, 1.0));
        let sup = request(Level::C2F3, Engine::VmPar)
            .with_threads(2)
            .supervisor();
        let run = sup.run_source(SRC).unwrap();
        assert_rejected_once_then_interp(&run, Level::C2F3.into());
    }

    #[test]
    fn plain_vm_is_verified_too() {
        // `vm` is a setting of the verified stream, not a way around the
        // verifier.
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VerifyReject, 1.0));
        let run = Supervisor::new(Level::C2F3, Engine::Vm)
            .run_source(SRC)
            .unwrap();
        assert_rejected_once_then_interp(&run, Level::C2F3.into());
    }

    #[test]
    fn a_trap_falls_to_the_tree_walker_through_one_optimizer_run() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VmTrap, 1.0));
        let cache = Arc::new(CompileCache::new());
        let run = request(Level::C2F3, Engine::VmPar)
            .with_threads(2)
            .supervisor()
            .with_cache(cache.clone())
            .run_source(SRC)
            .unwrap();
        let trail: Vec<_> = run
            .report
            .attempts
            .iter()
            .map(|a| (a.engine, a.depth))
            .collect();
        // The trapping artifact runs once; no narrower width re-runs it.
        assert_eq!(
            trail,
            [
                (Engine::VmPar, Depth::Parsed),
                (Engine::Interp, Depth::Lowered)
            ]
        );
        // One lowered artifact, one tree-only artifact, one optimizer run
        // for both: the trap quarantines the key only once the ladder is
        // done.
        let s = cache.stats();
        assert_eq!((s.misses, s.hits), (2, 0));
        assert_eq!((s.optimize_misses, s.optimize_hits), (1, 1));
        assert_eq!(s.quarantines, 1);
    }

    #[test]
    fn the_ladder_has_one_rung_per_artifact() {
        use Engine::{Interp, Vm, VmPar, VmSimd};
        let baseline = LevelSpec::from(Level::Baseline);
        let c2f3 = LevelSpec::from(Level::C2F3);
        for engine in [Vm, VmSimd, VmPar, Interp] {
            for req in [
                request(Level::C2F3, engine),
                request(Level::C2F3, engine).with_threads(4).with_lanes(8),
                request(Level::C2F3, engine).with_threads(1).with_lanes(1),
            ] {
                let want: &[Rung] = if engine == Interp {
                    &[(c2f3, Interp), (baseline, Interp)]
                } else {
                    &[(c2f3, engine), (c2f3, Interp), (baseline, Interp)]
                };
                assert_eq!(ladder(&req), want, "{req}");
                let want: &[Rung] = if engine == Interp {
                    &[(baseline, Interp)]
                } else {
                    &[(baseline, engine), (baseline, Interp)]
                };
                assert_eq!(ladder(&req.with_level(Level::Baseline)), want);
            }
        }
        // The `interp` rung keeps the extensions; the reference drops them.
        for spec in ["c2+f3+rce2", "c2+f3+dim"] {
            let req = request(Level::C2F3, Vm).with_level_spec(spec).unwrap();
            assert_eq!(
                ladder(&req),
                [(req.spec, Vm), (req.spec, Interp), (baseline, Interp)]
            );
        }
    }

    #[test]
    fn vm_par_trap_degrades_to_interp() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VmTrap, 1.0));
        let sup = request(Level::C2F3, Engine::VmPar)
            .with_threads(4)
            .supervisor();
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert_eq!(run.report.final_engine, Engine::Interp);
        assert!(run.report.mentions("vm-trap"));
    }

    #[test]
    fn grow_panic_degrades_to_baseline() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::FuseGrow, 1.0));
        let sup = Supervisor::new(Level::C2F3, Engine::Vm);
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert!(run.report.degraded());
        assert_eq!(run.report.final_spec, Level::Baseline.into());
        assert!(run.report.mentions("grow-panic"), "{}", run.report.render());
        // The poisoned level is attempted once, not once per engine.
        assert_eq!(run.report.attempts.len(), 2);
    }

    #[test]
    fn verify_reject_degrades_to_interp() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VerifyReject, 1.0));
        let sup = Supervisor::new(Level::C2F3, Engine::VmSimd);
        let run = sup.run_source(SRC).unwrap();
        assert!(run.report.mentions("verify-reject"));
        assert_rejected_once_then_interp(&run, Level::C2F3.into());
    }

    #[test]
    fn vm_trap_degrades_to_interp() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VmTrap, 1.0));
        let sup = Supervisor::new(Level::C2F3, Engine::Vm);
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert_eq!(run.report.final_engine, Engine::Interp);
        assert!(run.report.mentions("vm-trap"));
    }

    #[test]
    fn zero_deadline_falls_to_unbudgeted_reference() {
        let sup = request(Level::C2F3, Engine::Vm)
            .with_deadline(Duration::ZERO)
            .supervisor();
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert_eq!(run.report.final_spec, Level::Baseline.into());
        assert!(run.report.faults().any(|c| c.kind == CauseKind::Deadline));
    }

    #[test]
    fn budgeted_rungs_share_one_deadline() {
        // Far more work than the deadline allows on any engine.
        let src = "program t; config n : int = 512; region R = [1..n, 1..n];
            var A, B : [R] float; var s : float;
            begin [R] A := index1 * 0.5 + index2;
              [R] B := A * A + 1.0; s := +<< [R] (A + B); end";
        let run = request(Level::C2F3, Engine::Vm)
            .with_deadline(Duration::from_millis(1))
            .supervisor()
            .run_source(src)
            .unwrap();
        let causes: Vec<_> = run.report.faults().collect();
        assert_eq!(causes.len(), 2, "{}", run.report.render());
        assert!(causes.iter().all(|c| c.kind == CauseKind::Deadline));
        // The second budgeted rung starts after the run's one deadline
        // passed, so it faults before compiling instead of getting a
        // window of its own.
        assert_eq!(
            causes[1].message,
            DEADLINE_PASSED,
            "{}",
            run.report.render()
        );
        assert_eq!(run.report.attempts[1].depth, Depth::Hit);
        // The unbudgeted reference rung still answers.
        assert_eq!(run.report.final_spec, Level::Baseline.into());
        assert_eq!(run.report.final_engine, Engine::Interp);
    }

    #[test]
    fn comm_failure_reruns_same_rung_without_sim() {
        let mut calls = 0;
        let program = zlang::compile(SRC).unwrap();
        let run = Supervisor::new(Level::C2F3, Engine::Vm)
            .run_program_simulated(&program, &mut |_, _, _| {
                calls += 1;
                Err(ExecError::comm("ghost exchange failed after 4 retries"))
            })
            .unwrap();
        // The backend saw the rung once; the rerun ran without it.
        assert_eq!(calls, 1);
        assert_eq!(run.outcome.checksum(), reference_checksum());
        // Same rung, rerun with sim disabled — no engine degradation.
        assert_eq!(run.report.final_engine, Engine::Vm);
        assert_eq!(run.report.final_spec, Level::C2F3.into());
        assert!(run.report.attempts[1].sim_disabled);
        assert!(run.report.faults().any(|c| c.kind == CauseKind::Comm));
    }

    #[test]
    fn parse_error_is_reported_not_panicked() {
        let sup = Supervisor::new(Level::C2F3, Engine::Vm);
        let err = sup.run_source("progrm nope;").unwrap_err();
        assert_eq!(err.cause.kind, CauseKind::Parse);
        assert_eq!(err.cause.stage, Stage::Parse);
    }

    #[test]
    fn config_binding_overrides_apply() {
        let sup = request(Level::C2F3, Engine::Vm)
            .with_set("n", 3)
            .supervisor();
        let run = sup.run_source(SRC).unwrap();
        // n=3: B = 4.0 over three points.
        assert_eq!(run.outcome.checksum(), 12.0);
    }

    #[test]
    fn unknown_override_fails_up_front_and_quarantines_nothing() {
        let cache = Arc::new(CompileCache::new());
        let req = request(Level::C2F3, Engine::VmSimd).with_set("bogus", 3);
        let err = req
            .supervisor()
            .with_cache(cache.clone())
            .run_source(SRC)
            .unwrap_err();
        assert_eq!(err.cause.kind, CauseKind::Config);
        let program = zlang::compile(SRC).unwrap();
        assert_eq!(err.cause.message, req.binding_for(&program).unwrap_err());
        assert!(err.cause.message.contains("bogus"), "{}", err.cause);
        // No rung ran, nothing past the parse stage was looked up, and no
        // key was quarantined.
        assert!(err.report.attempts.is_empty());
        assert!(!err.report.quarantined);
        assert_eq!(
            cache.stats(),
            crate::cache::CacheStats {
                parse_misses: 1,
                ..Default::default()
            }
        );
        let key = CacheKey::compute(
            &program,
            &ConfigBinding::defaults(&program),
            req.spec,
            req.engine,
        );
        assert!(!cache.is_quarantined(&key));
    }

    #[test]
    fn every_rung_compiles_the_requested_spec() {
        // `B` and `C` recompute the same stencil sum; `+rce2` shares it.
        let src = "program t; config n : int = 8;
            region RH = [0..n+1]; region R = [1..n];
            var H : [RH] float; var B, C : [R] float; var s : float;
            begin [RH] H := index1 * 1.5;
              [R] B := (H@[-1] + H@[1]) * 2.0;
              [R] C := (H@[-1] + H@[1]) * 3.0;
              s := +<< [R] (B + C); end";
        let program = zlang::compile(src).unwrap();
        let plain = request(Level::C2F3, Engine::VmSimd);
        let rce2 = plain.clone().with_level_spec("c2+f3+rce2").unwrap();
        let flops = |req: &RunRequest| {
            let run = req.supervisor().run_program(&program).unwrap();
            assert!(!run.report.degraded());
            assert_eq!(run.report.final_spec, req.spec);
            run.outcome.stats.flops
        };
        assert!(flops(&rce2) < flops(&plain));

        // Degraded rungs keep the spec until the reference rung drops it.
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VmTrap, 1.0));
        let run = rce2.supervisor().run_program(&program).unwrap();
        let trail: Vec<String> = run
            .report
            .attempts
            .iter()
            .map(|a| format!("{} on {}", a.spec, a.engine))
            .collect();
        assert_eq!(trail, ["c2+f3+rce2 on vm-simd", "c2+f3+rce2 on interp"]);
        assert!(run.report.degraded());
        assert!(run
            .report
            .render()
            .contains("requested c2+f3+rce2 on vm-simd"));
    }

    #[test]
    fn corrupted_cache_hit_quarantines_on_first_fault() {
        let cache = Arc::new(CompileCache::new());
        let program = zlang::compile(SRC).unwrap();
        let want = reference_checksum();

        // Warm the requested rung's artifact, then corrupt every hit.
        Supervisor::new(Level::C2, Engine::Vm)
            .with_cache(cache.clone())
            .run_program(&program)
            .unwrap();
        let binding = ConfigBinding::defaults(&program);
        let key = CacheKey::compute(&program, &binding, Level::C2.into(), Engine::Vm);
        let _g =
            faults::install(testkit::faults::FaultPlan::new(5).with(FaultSite::CacheCorrupt, 1.0));
        let sup = || Supervisor::new(Level::C2, Engine::Vm).with_cache(cache.clone());

        // The first corrupted hit quarantines the key and evicts the
        // artifact; the run degrades but still answers correctly.
        let run = sup().run_program(&program).unwrap();
        assert_eq!(run.outcome.checksum(), want);
        assert!(run.report.degraded());
        assert!(!run.report.quarantined, "this run was not routed");
        assert!(run.report.mentions("cache-corrupt"));
        assert!(cache.is_quarantined(&key));
        assert_eq!(cache.stats().quarantines, 1);

        // From then on every run is routed to the reference rung without
        // consulting the cache: no hit, so the (still-armed) corruption
        // cannot fire, and the answer is clean. Nothing heals the key.
        for _ in 0..2 {
            let hits_before = cache.stats().hits;
            let run = sup().run_program(&program).unwrap();
            assert_eq!(run.outcome.checksum(), want);
            assert!(run.report.quarantined);
            assert_eq!(run.report.attempts.len(), 1);
            assert_eq!(run.report.final_spec, Level::Baseline.into());
            assert_eq!(cache.stats().hits, hits_before, "cache bypassed");
            assert!(run.report.render().contains("key quarantined"));
        }
        assert_eq!(cache.stats().quarantines, 1);
    }

    #[test]
    fn with_remaining_tightens_the_deadline() {
        let sup = request(Level::C2F3, Engine::Vm)
            .with_deadline(Duration::from_secs(60))
            .supervisor()
            .with_remaining(Duration::ZERO);
        let run = sup.run_source(SRC).unwrap();
        assert_eq!(run.outcome.checksum(), reference_checksum());
        assert!(run.report.faults().any(|c| c.kind == CauseKind::Deadline));
        // And the other direction: a generous remaining never loosens.
        let sup = request(Level::C2F3, Engine::Vm)
            .with_deadline(Duration::ZERO)
            .supervisor()
            .with_remaining(Duration::from_secs(60));
        let run = sup.run_source(SRC).unwrap();
        assert!(run.report.faults().any(|c| c.kind == CauseKind::Deadline));
    }

    #[test]
    fn report_renders_attempt_trail() {
        let _g = faults::install(FaultPlan::new(7).with(FaultSite::VmTrap, 1.0));
        let sup = Supervisor::new(Level::C2F3, Engine::Vm);
        let run = sup.run_source(SRC).unwrap();
        let text = run.report.render();
        assert!(text.contains("attempt 1"));
        assert!(text.contains("degraded"));
    }
}
