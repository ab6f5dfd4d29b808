//! One run configuration: [`RunRequest`].
//!
//! A request says what to compile (a [`LevelSpec`]: level plus the
//! `+rce2` and `+dim` extensions), how to execute it (engine, threads,
//! lanes, deadline) and under which config overrides. `zlc`, the lazy
//! frontend, the compile cache, the serve path and the simulated
//! runtime's `ExecConfig::from_request` all read this one value, and a
//! [`Supervisor`] *holds* the request it was built from rather than a
//! copy of its fields, so a supervised run compiles exactly what an
//! unsupervised one does. Adapters produce the downstream forms:
//! [`RunRequest::pipeline`], [`RunRequest::supervisor`],
//! [`RunRequest::exec_opts`], [`RunRequest::deadline_from_now`] and
//! [`RunRequest::binding_for`]. The compile cache reads a request stage by
//! stage: `spec` addresses the optimized program (with the program's
//! digest, and nothing else — the optimizer takes no binding), and
//! [`crate::cache::CacheKey::for_request`] addresses the lowered artifact
//! by `(program + binding, spec)` — the engine name only says whether to
//! lower at all, and otherwise reaches execution alone, as the two knobs
//! of [`RunRequest::exec_opts`].
//!
//! ```
//! use fusion_core::request::RunRequest;
//! use fusion_core::Level;
//! use loopir::Engine;
//!
//! let req = RunRequest::new()
//!     .with_level_spec("c2+f3+rce2")
//!     .unwrap()
//!     .with_engine(Engine::VmSimd)
//!     .with_set("n", 32);
//! assert_eq!(req.spec.level, Level::C2F3);
//! assert!(req.spec.rce2);
//! assert_eq!(req.level_spec(), "c2+f3+rce2");
//! ```

use crate::pipeline::{Level, LevelSpec, Pipeline};
use crate::supervisor::Supervisor;
use crate::verify::VerifyLevel;
use loopir::{Engine, ExecOpts};
use std::fmt;
use std::time::{Duration, Instant};
use zlang::ir::{ConfigBinding, Program};

/// A complete, self-describing run configuration: what to compile
/// (level + extensions), how to execute it (engine, threads, lanes,
/// deadline), and under which config bindings. Built fluently, consumed
/// by `zlc`, the [`Supervisor`], the compile cache, and the serve path.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRequest {
    /// Optimization level plus extensions (default plain
    /// [`Level::C2`], matching `zlc`).
    pub spec: LevelSpec,
    /// Execution engine (default [`Engine::Vm`]).
    pub engine: Engine,
    /// Worker threads; `0` = auto. Read by [`Engine::VmPar`] alone: every
    /// other name pins it ([`RunRequest::exec_opts`]).
    pub threads: usize,
    /// Strip width (iterations run op-major at a time) of the
    /// innermost-loop dispatch; `0` = the default (64), `1` = scalar
    /// dispatch, other values cap the strip (at most 128). Read by
    /// [`Engine::VmSimd`] and [`Engine::VmPar`]; `vm` pins it to 1.
    pub lanes: usize,
    /// Run the translation validator and report its diagnostics. Read by
    /// [`RunRequest::pipeline`] alone, i.e. by `zlc --verify` on the
    /// unsupervised path (which also runs the bytecode verifier). It does
    /// not change generated code, and the compile cache, the
    /// [`Supervisor`] and the serve path neither key on it nor run the
    /// validator for it: they have no reader for the diagnostics, so
    /// `zlc` rejects `--verify` in those modes.
    pub verify: bool,
    /// Wall-clock budget for the run, measured from its start, or `None`
    /// for none. A supervised run applies it to every rung but the
    /// reference one, the rung of last resort: a slow correct answer
    /// beats none.
    pub deadline: Option<Duration>,
    /// Config-variable overrides, applied in order (`--set n=64`).
    pub sets: Vec<(String, i64)>,
}

impl Default for RunRequest {
    fn default() -> Self {
        RunRequest {
            spec: Level::C2.into(),
            engine: Engine::default(),
            threads: 0,
            lanes: 0,
            verify: false,
            deadline: None,
            sets: Vec::new(),
        }
    }
}

impl RunRequest {
    /// The default request: level `c2` on the bytecode VM, no deadline.
    pub fn new() -> Self {
        RunRequest::default()
    }

    /// Sets the optimization level (keeping the `+rce2` / `+dim` choices).
    pub fn with_level(mut self, level: Level) -> Self {
        self.spec.level = level;
        self
    }

    /// Parses and sets the level *spec* (`"c2+f3+rce2"`, the
    /// `zlc --level` grammar; see [`LevelSpec`]).
    ///
    /// # Errors
    ///
    /// Returns a rustc-style message naming the valid levels when the
    /// base level is unknown, or the suffix when it is given twice.
    pub fn with_level_spec(mut self, spec: &str) -> Result<Self, String> {
        self.spec = spec.parse()?;
        Ok(self)
    }

    /// The level spec string this request round-trips to
    /// (`"c2+f3+rce2"`-style).
    pub fn level_spec(&self) -> String {
        self.spec.to_string()
    }

    /// Sets the execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Parses and sets the engine from its flag name (`interp`, `vm`,
    /// `vm-simd`, `vm-par`; `Engine::from_str`).
    ///
    /// # Errors
    ///
    /// Returns the shared `FromStr` message naming every valid engine.
    pub fn with_engine_name(mut self, name: &str) -> Result<Self, String> {
        self.engine = name.parse()?;
        Ok(self)
    }

    /// Sets the worker-thread count for [`Engine::VmPar`] (`0` = auto).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the lane width for [`Engine::VmSimd`] / [`Engine::VmPar`]
    /// (`0` = default, `1` = scalar dispatch).
    pub fn with_lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Enables (or disables) verification.
    pub fn with_verify(mut self, verify: bool) -> Self {
        self.verify = verify;
        self
    }

    /// Sets a wall-clock budget for the run (one deadline that every
    /// budgeted rung of a supervised run shares).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Adds a config-variable override.
    pub fn with_set(mut self, name: &str, value: i64) -> Self {
        self.sets.push((name.to_string(), value));
        self
    }

    /// The compile pipeline this request describes: its spec, plus the
    /// translation validator when [`verify`](Self::verify) is set — for
    /// callers that read [`Optimized::diagnostics`](crate::Optimized)
    /// themselves. Callers with pipeline-only concerns (e.g. `zlc --emit`,
    /// `--favor-comm`) extend the returned builder further. The
    /// compile cache does not come through here; it optimizes at the spec
    /// alone.
    pub fn pipeline(&self) -> Pipeline<'static> {
        let p = Pipeline::new(self.spec);
        if self.verify {
            p.with_verify(VerifyLevel::Always)
        } else {
            p
        }
    }

    /// A fault-tolerant [`Supervisor`] serving a clone of this request.
    pub fn supervisor(&self) -> Supervisor {
        Supervisor::for_request(self.clone())
    }

    /// The knobs this request runs the lowered program at: `threads` and
    /// `lanes` once the engine name has pinned the ones it does not read
    /// ([`Engine::knobs`]), ready for
    /// [`CachedProgram::executor`](crate::CachedProgram::executor).
    /// [`Engine::Interp`] reads neither.
    pub fn exec_opts(&self) -> ExecOpts {
        let asked = ExecOpts {
            threads: self.threads,
            lanes: self.lanes,
        };
        self.engine.knobs(asked).unwrap_or_default()
    }

    /// The instant the deadline falls on, measured from the moment of
    /// this call, for [`Executor::set_deadline`](loopir::Executor::set_deadline).
    pub fn deadline_from_now(&self) -> Option<Instant> {
        self.deadline.map(|d| Instant::now() + d)
    }

    /// The concrete config binding for a program: defaults overridden by
    /// this request's `--set` pairs, in order.
    ///
    /// # Errors
    ///
    /// Names the first override that matches no config variable.
    pub fn binding_for(&self, program: &Program) -> Result<ConfigBinding, String> {
        let mut binding = ConfigBinding::defaults(program);
        for (name, value) in &self.sets {
            if !binding.set_by_name(program, name, *value) {
                return Err(format!("no config named `{name}`"));
            }
        }
        Ok(binding)
    }
}

impl fmt::Display for RunRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} on {}", self.level_spec(), self.engine)?;
        if self.threads != 0 && self.engine == Engine::VmPar {
            write!(f, " x{}", self.threads)?;
        }
        for (name, value) in &self.sets {
            write!(f, " {name}={value}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_spec_round_trips() {
        for spec in [
            "baseline",
            "c2+f3",
            "c2+f4",
            "f1+rce2",
            "c2+f3+rce2",
            "c2+dim",
            "c2+f4+rce2+dim",
        ] {
            let req = RunRequest::new().with_level_spec(spec).unwrap();
            assert_eq!(req.level_spec(), spec, "{spec}");
        }
        // The grammar is `L[+rce2][+dim]`: 8 levels x 4, and nothing else.
        let specs = Level::all()
            .map(|l| ["", "+rce2", "+dim", "+rce2+dim"].map(|suffix| format!("{l}{suffix}")));
        for spec in specs.as_flattened() {
            assert_eq!(&spec.parse::<LevelSpec>().unwrap().to_string(), spec);
        }
        assert!(
            RunRequest::new()
                .with_level_spec("c2+rce2")
                .unwrap()
                .spec
                .rce2
        );
    }

    #[test]
    fn bad_level_names_the_valid_ones() {
        let err = RunRequest::new().with_level_spec("o3").unwrap_err();
        assert!(err.contains("unknown level `o3`"), "{err}");
        assert!(err.contains("c2+f3"), "{err}");
        // The retired `+rce` and `+dse` suffixes are unknown levels like
        // any other, in any position.
        for retired in ["c2+rce", "c2+dse", "c2+dse+rce2", "c2+rce2+dse"] {
            let err = RunRequest::new().with_level_spec(retired).unwrap_err();
            assert!(err.contains(&format!("unknown level `{retired}`")), "{err}");
            assert!(err.contains("append `+rce2`"), "{err}");
        }
        // One spec has one spelling: a repeated suffix is rejected by name,
        // and the suffixes come in one order.
        for (twice, suffix) in [("c2+f3+rce2+rce2", "+rce2"), ("c2+f3+dim+dim", "+dim")] {
            let err = RunRequest::new().with_level_spec(twice).unwrap_err();
            assert!(err.contains(&format!("`{suffix}` is given twice")), "{err}");
        }
        let err = RunRequest::new()
            .with_level_spec("c2+dim+rce2")
            .unwrap_err();
        assert!(err.contains("unknown level `c2+dim+rce2`"), "{err}");
        assert!(err.contains("then `+dim`"), "{err}");
    }

    #[test]
    fn bad_engine_names_the_valid_ones() {
        let err = RunRequest::new().with_engine_name("jit").unwrap_err();
        assert!(err.contains("unknown engine `jit`"), "{err}");
        assert!(err.contains("vm-par"), "{err}");
    }

    #[test]
    fn binding_applies_sets_in_order() {
        let p = zlang::compile(
            "program t; config n : int = 4; region R = [1..n]; \
             var A : [R] float; begin end",
        )
        .unwrap();
        let req = RunRequest::new().with_set("n", 9).with_set("n", 7);
        let b = req.binding_for(&p).unwrap();
        assert_eq!(b.get(zlang::ir::ConfigId(0)), 7);
        let err = RunRequest::new()
            .with_set("missing", 1)
            .binding_for(&p)
            .unwrap_err();
        assert!(err.contains("missing"), "{err}");
    }

    #[test]
    fn display_is_compact() {
        let req = RunRequest::new()
            .with_level_spec("c2+f3")
            .unwrap()
            .with_engine(Engine::VmPar)
            .with_threads(4)
            .with_set("n", 64);
        assert_eq!(req.to_string(), "c2+f3 on vm-par x4 n=64");
        // ` xN` only under the name that reads threads.
        let req = req.with_engine(Engine::VmSimd);
        assert_eq!(req.to_string(), "c2+f3 on vm-simd n=64");
    }

    #[test]
    fn exec_opts_are_the_knobs_the_name_reads() {
        let req = RunRequest::new().with_threads(4).with_lanes(8);
        let knobs = |engine| {
            let o = req.clone().with_engine(engine).exec_opts();
            (o.threads, o.lanes)
        };
        assert_eq!(knobs(Engine::Vm), (1, 1));
        assert_eq!(knobs(Engine::VmSimd), (1, 8));
        assert_eq!(knobs(Engine::VmPar), (4, 8));
    }

    #[test]
    fn supervisor_and_pipeline_adapters_run() {
        let src = "program t; config n : int = 4; region R = [1..n]; \
             var A : [R] float; var s : float; \
             begin [R] A := 2.0; s := +<< [R] A; end";
        let req = RunRequest::new()
            .with_level_spec("c2+f3")
            .unwrap()
            .with_engine(Engine::Vm)
            .with_set("n", 3);
        let run = req.supervisor().run_source(src).unwrap();
        assert_eq!(run.outcome.checksum(), 6.0);
        let opt = req.pipeline().optimize(&zlang::compile(src).unwrap());
        assert_eq!(opt.spec, req.spec);
    }
}
