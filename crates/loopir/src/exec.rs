//! The unified execution API: [`Executor`], [`RunOutcome`], [`Engine`].
//!
//! Historically every caller drove the interpreter differently — benches
//! constructed an [`Interp`], ran it, then poked `scalar(ScalarId(0))` for
//! the checksum; the parallel runtime reached for `stats()`; tests mixed
//! both. This module gives all of them one surface:
//!
//! * [`Executor`] — anything that can run a [`ScalarProgram`] to
//!   completion while streaming accesses to an [`Observer`];
//! * [`RunOutcome`] — the complete result of a run (final scalar values
//!   plus [`RunStats`] counters), replacing post-run field poking;
//! * [`Engine`] — selects between the tree-walking [`Interp`] and the
//!   bytecode [`Vm`], for benches and CLI flags.
//!
//! ```
//! # fn main() -> Result<(), loopir::ExecError> {
//! use loopir::{Engine, NoopObserver, ScalarProgram};
//! use zlang::ir::ConfigBinding;
//! let p = zlang::compile(
//!     "program t; region R = [1..4]; var A : [R] float; begin end").unwrap();
//! let sp = ScalarProgram { program: p, stmts: vec![] };
//! for engine in Engine::all() {
//!     let mut exec = engine.executor(&sp, ConfigBinding::defaults(&sp.program))?;
//!     let outcome = exec.execute(&mut NoopObserver)?;
//!     assert_eq!(outcome.stats.points, 0);
//! }
//! # Ok(())
//! # }
//! ```

use crate::interp::{ExecError, Interp, NoopObserver, Observer, RunStats};
use crate::ir::ScalarProgram;
use crate::vm::{SharedProgram, Vm};
use std::fmt;
use std::str::FromStr;
use std::time::{Duration, Instant};
use zlang::ir::{ConfigBinding, ScalarId};

/// Resource budgets for one execution: an abstract-step fuel counter and a
/// wall-clock deadline. The default is unlimited.
///
/// One unit of fuel is one abstract step: a bytecode instruction on the
/// [`Vm`], a loop-nest iteration point on the
/// [`Interp`]. The two engines therefore exhaust a given
/// budget at different program sizes; fuel bounds *work*, it is not a
/// portable measure of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Abstract steps the run may take, or `None` for unlimited.
    pub fuel: Option<u64>,
    /// Wall-clock instant after which the run must stop, or `None`.
    pub deadline: Option<Instant>,
}

impl ExecLimits {
    /// No limits (the default).
    pub fn none() -> Self {
        ExecLimits::default()
    }

    /// True if neither budget is set.
    pub fn is_unlimited(&self) -> bool {
        self.fuel.is_none() && self.deadline.is_none()
    }

    /// Adds a fuel budget.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Adds a deadline `d` from now.
    pub fn with_deadline_in(mut self, d: Duration) -> Self {
        self.deadline = Some(Instant::now() + d);
        self
    }
}

/// Execution counters from one tile of a parallel ladder.
///
/// The parallel VM ([`Engine::VmPar`]) fans each tile-partitionable loop
/// ladder out as per-tile tasks; every task counts its own work and
/// returns one `TileStats`. The `(batch, tile)` key is assigned
/// deterministically from the static tile decomposition, so the stream can
/// always be aggregated in the same order regardless of which worker ran
/// which tile — see [`RunOutcome::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Which fan-out (dynamic ladder execution) of the run this tile
    /// belongs to, in coordinator execution order.
    pub batch: u32,
    /// The tile's index within its batch, in iteration order along the
    /// partitioned dimension.
    pub tile: u32,
    /// Array element loads performed by the tile.
    pub loads: u64,
    /// Array element stores performed by the tile.
    pub stores: u64,
    /// Floating-point operations performed by the tile.
    pub flops: u64,
    /// Iteration points executed by the tile.
    pub points: u64,
    /// Bytecode instructions executed by the tile (the tile's fuel cost).
    pub ops: u64,
}

/// The complete result of one program execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Final values of every program scalar, indexed by [`ScalarId`].
    pub scalars: Vec<f64>,
    /// Execution counters (loads, stores, flops, points, peak bytes).
    pub stats: RunStats,
}

impl RunOutcome {
    pub(crate) fn new(scalars: Vec<f64>, stats: RunStats) -> Self {
        RunOutcome { scalars, stats }
    }

    /// Builds an outcome from the sequential portion of a run plus a
    /// stream of per-tile counters.
    ///
    /// The merge is deterministic: tiles are folded in `(batch, tile)`
    /// order, which the parallel VM assigns from the static tile
    /// decomposition — so the aggregate is independent of worker
    /// scheduling and thread count, and `u64` addition makes it equal to
    /// the sequential run's counters exactly.
    pub fn merge(
        scalars: Vec<f64>,
        base: RunStats,
        tiles: impl IntoIterator<Item = TileStats>,
    ) -> RunOutcome {
        let mut ordered: Vec<TileStats> = tiles.into_iter().collect();
        ordered.sort_by_key(|t| (t.batch, t.tile));
        let mut stats = base;
        for t in &ordered {
            stats.loads += t.loads;
            stats.stores += t.stores;
            stats.flops += t.flops;
            stats.points += t.points;
        }
        RunOutcome::new(scalars, stats)
    }

    /// The conventional checksum: the first declared scalar. Every
    /// benchmark and generated test program declares its checksum scalar
    /// first, so this replaces the old `interp.scalar(ScalarId(0))` idiom.
    /// Returns `0.0` for programs with no scalars.
    pub fn checksum(&self) -> f64 {
        self.scalars.first().copied().unwrap_or(0.0)
    }

    /// The final value of a scalar.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn scalar(&self, id: ScalarId) -> f64 {
        self.scalars[id.0 as usize]
    }
}

/// Runs a [`ScalarProgram`] to completion.
///
/// Implemented by the tree-walking [`Interp`] and the bytecode
/// [`Vm`]; both stream every array element access through the
/// provided [`Observer`], so the cache simulator sees an identical access
/// stream regardless of engine.
pub trait Executor {
    /// Executes the program, reporting accesses to `obs`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on an out-of-region array access (declare
    /// arrays with halos large enough for their `@` offsets).
    fn execute(&mut self, obs: &mut dyn Observer) -> Result<RunOutcome, ExecError>;

    /// Executes without observation (pure functional execution).
    ///
    /// # Errors
    ///
    /// Same as [`Executor::execute`].
    fn execute_pure(&mut self) -> Result<RunOutcome, ExecError> {
        self.execute(&mut NoopObserver)
    }

    /// Installs resource budgets for subsequent [`Executor::execute`]
    /// calls. Both engines implement this (there is deliberately no
    /// silently-ignoring default): when fuel or the deadline runs out the
    /// run stops with an [`ExecError`] of kind
    /// [`Fuel`](crate::ErrorKind::Fuel) or
    /// [`Deadline`](crate::ErrorKind::Deadline).
    fn set_limits(&mut self, limits: ExecLimits);
}

/// Selects an execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter ([`Interp`]).
    Interp,
    /// The bytecode compiler + virtual machine ([`Vm`]) —
    /// same observable behavior, substantially faster. The default.
    /// Every element access is bounds-checked. The names `vm-verified`
    /// and `verified` parse to this engine: no unchecked dispatch exists
    /// for them to select, and the benchmark harness still passes them.
    #[default]
    Vm,
    /// The VM over verified superinstruction bytecode with lane-based
    /// innermost-loop dispatch: after compilation a peephole pass collapses
    /// fused element-wise chains into superinstructions and annotates
    /// provably vectorizable innermost loops, which the dispatch loop then
    /// executes in strips of up to 64 consecutive iterations, each op
    /// over the whole strip (the last strip cut to what is left).
    /// Reductions fold each strip in iteration order, so results are
    /// `f64::to_bits`-identical to [`Engine::Interp`]. Refuses to
    /// construct (with the verifier's diagnostics) if the bytecode
    /// verifier's proof — which bounds every element access and
    /// independently re-derives every superinstruction and lane
    /// annotation — fails. Lane fan-out only happens under observers that
    /// do not consume the per-element address stream
    /// ([`Observer::wants_addresses`]); under the cache simulator the
    /// engine runs scalar, preserving the exact address order.
    VmSimd,
    /// [`Engine::VmSimd`] with parallel tiled execution: loop ladders the
    /// compiler proved independent along one dimension fan out as per-tile
    /// tasks on a work-stealing `std::thread` pool, and each tile
    /// vectorizes its innermost loop (outer tiles x inner lanes).
    /// Bit-identical to [`Engine::Interp`] regardless of thread count
    /// (reduction nests never tile, tile counters merge in deterministic
    /// tile order). Like [`Engine::VmSimd`], refuses to construct if the
    /// bytecode verifier's proof fails, and fans out only under observers
    /// that do not consume the per-element address stream; under the cache
    /// simulator the engine runs sequentially, preserving the exact
    /// address order.
    VmPar,
}

/// Per-execution options beyond the [`Engine`] choice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// Worker threads for [`Engine::VmPar`] (including the coordinator);
    /// `0` means one per available core, capped at 8. Other engines
    /// ignore this.
    pub threads: usize,
    /// Strip width for the innermost-loop dispatch of
    /// [`Engine::VmSimd`] and [`Engine::VmPar`]: how many consecutive
    /// iterations run op-major at a time. `0` means the default width
    /// (64), and widths are capped at 128. `1` disables lane dispatch (the
    /// engine runs the same superinstruction bytecode scalar). Other
    /// engines ignore this.
    pub lanes: usize,
}

impl ExecOpts {
    /// Options requesting a specific thread count.
    pub fn with_threads(threads: usize) -> Self {
        ExecOpts {
            threads,
            ..ExecOpts::default()
        }
    }

    /// Options requesting a specific lane width.
    pub fn with_lanes(lanes: usize) -> Self {
        ExecOpts {
            lanes,
            ..ExecOpts::default()
        }
    }
}

/// The program form an engine executes.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Form {
    /// The [`ScalarProgram`] tree itself.
    Tree,
    /// Plain bytecode, run without consulting the verifier.
    Bytecode,
    /// Superinstruction bytecode with lane annotations, verified at
    /// construction: a rejection refuses the engine.
    Superfused,
}

/// What an engine name means.
struct Shape {
    name: &'static str,
    form: Form,
    /// Whether [`ExecOpts::lanes`] applies.
    lanes: bool,
    /// Whether [`ExecOpts::threads`] applies.
    threads: bool,
}

impl Engine {
    /// Every engine, reference interpreter first.
    pub fn all() -> [Engine; 4] {
        [Engine::Interp, Engine::Vm, Engine::VmSimd, Engine::VmPar]
    }

    /// The one place that says what each engine is: the engines are one
    /// interpreter plus one VM under three settings (bytecode form, lanes,
    /// threads), and every constructor below reads them from here.
    fn shape(self) -> Shape {
        let (name, form, lanes, threads) = match self {
            Engine::Interp => ("interp", Form::Tree, false, false),
            Engine::Vm => ("vm", Form::Bytecode, false, false),
            Engine::VmSimd => ("vm-simd", Form::Superfused, true, false),
            Engine::VmPar => ("vm-par", Form::Superfused, true, true),
        };
        Shape {
            name,
            form,
            lanes,
            threads,
        }
    }

    /// The engine's flag/display name (`interp`, `vm`, `vm-simd`, or
    /// `vm-par`).
    pub fn name(self) -> &'static str {
        self.shape().name
    }

    /// Whether the engine runs verified superinstruction bytecode
    /// ([`Vm::new_superfused`] + [`Vm::verify`]) — the engines whose
    /// construction can fail with a [`Verify`](crate::ErrorKind::Verify)
    /// error.
    pub fn superfused(self) -> bool {
        self.shape().form == Form::Superfused
    }

    /// Creates a boxed executor for a program under a config binding,
    /// with default [`ExecOpts`] (automatic thread count for
    /// [`Engine::VmPar`]).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program cannot be lowered (e.g. a
    /// region of rank greater than the VM supports).
    pub fn executor<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        self.executor_with(prog, binding, ExecOpts::default())
    }

    /// Creates a boxed executor with explicit [`ExecOpts`]:
    /// [`Engine::compile_shared`], then [`Engine::shared_executor`].
    ///
    /// # Errors
    ///
    /// As [`Engine::executor`]; additionally, `VmSimd` and `VmPar`
    /// return a [`Verify`](crate::ErrorKind::Verify) error carrying every
    /// diagnostic when the bytecode verifier rejects the program.
    pub fn executor_with<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
        opts: ExecOpts,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        Ok(match self.compile_shared(prog, binding.clone())? {
            Some(shared) => self.shared_executor(&shared, opts),
            None => Box::new(Interp::new(prog, binding)),
        })
    }

    /// Compiles a program once into a thread-shareable
    /// [`SharedProgram`] handle for this engine, or `None` for
    /// [`Engine::Interp`] (the tree-walking interpreter has no compiled
    /// form to share; callers re-instantiate it from the
    /// [`ScalarProgram`]).
    ///
    /// The handle remembers whether verification ran: `VmSimd` and
    /// `VmPar` verify here, once, so every executor later built from the
    /// handle with [`Engine::shared_executor`] may fan out over lanes and
    /// tiles without re-running the verifier. This is the compile
    /// half of the compile-once/execute-many serving path — the
    /// `fusion_core` compile cache stores exactly this handle.
    ///
    /// # Errors
    ///
    /// As [`Engine::executor`]: lowering failures for every VM engine,
    /// plus verifier rejections for `VmSimd` and `VmPar`.
    pub fn compile_shared(
        self,
        prog: &ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Option<SharedProgram>, ExecError> {
        let vm = match self.shape().form {
            Form::Tree => return Ok(None),
            Form::Bytecode => Vm::new(prog, binding)?,
            Form::Superfused => {
                // The verifier re-derives every superinstruction and lane
                // annotation from first principles, so a peephole bug
                // cannot reach the raw-pointer lane and tile code: the
                // engine refuses to construct instead.
                let mut vm = Vm::new_superfused(prog, binding)?;
                if let Err(diags) = vm.verify() {
                    let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                    return Err(ExecError::verify(format!(
                        "bytecode verification failed:\n{}",
                        msgs.join("\n")
                    )));
                }
                vm
            }
        };
        Ok(Some(vm.share()))
    }

    /// Builds a fresh executor around an already-compiled
    /// [`SharedProgram`] — one `Arc` bump plus run-state allocation, no
    /// recompilation and no re-verification. This is the hit half of the
    /// compile-once/execute-many serving path.
    ///
    /// The handle must have come from [`Engine::compile_shared`] on a
    /// compatible engine: a `VmSimd`/`VmPar` executor built from an
    /// unverified handle runs every loop scalar and sequential (correct,
    /// just slower), never through the raw-pointer lane and tile code.
    pub fn shared_executor(self, shared: &SharedProgram, opts: ExecOpts) -> Box<dyn Executor> {
        let shape = self.shape();
        let mut vm = Vm::from_shared(shared);
        if shape.lanes {
            vm.set_lanes(opts.lanes);
        }
        if shape.threads {
            vm.set_threads(opts.threads);
        }
        Box::new(vm)
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "interp" | "interpreter" => Ok(Engine::Interp),
            // `vm-verified`: the frozen benchmark harness passes this
            // name, and scalar dispatch has no unchecked form to select.
            "vm" | "bytecode" | "vm-verified" | "verified" => Ok(Engine::Vm),
            "vm-simd" | "simd" => Ok(Engine::VmSimd),
            "vm-par" | "parallel" => Ok(Engine::VmPar),
            other => Err(format!(
                "unknown engine `{other}` (expected `interp`, `vm`, `vm-simd`, or `vm-par`)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_parses_and_displays() {
        assert_eq!("vm".parse::<Engine>().unwrap(), Engine::Vm);
        assert_eq!("interp".parse::<Engine>().unwrap(), Engine::Interp);
        // `vm-verified` selects nothing `vm` does not: a spelling of it.
        assert_eq!("vm-verified".parse::<Engine>().unwrap(), Engine::Vm);
        assert_eq!("verified".parse::<Engine>().unwrap(), Engine::Vm);
        assert_eq!("vm-verified".parse::<Engine>().unwrap().to_string(), "vm");
        assert_eq!("vm-simd".parse::<Engine>().unwrap(), Engine::VmSimd);
        assert_eq!("simd".parse::<Engine>().unwrap(), Engine::VmSimd);
        assert_eq!("vm-par".parse::<Engine>().unwrap(), Engine::VmPar);
        assert_eq!("parallel".parse::<Engine>().unwrap(), Engine::VmPar);
        assert!("jit".parse::<Engine>().is_err());
        assert_eq!(Engine::Vm.to_string(), "vm");
        assert_eq!(Engine::VmSimd.to_string(), "vm-simd");
        assert_eq!(Engine::VmPar.to_string(), "vm-par");
        assert_eq!(Engine::default(), Engine::Vm);
        assert_eq!(Engine::all().len(), 4);
    }

    #[test]
    fn merge_is_order_independent_and_exact() {
        let a = TileStats {
            batch: 0,
            tile: 1,
            loads: 10,
            stores: 5,
            flops: 7,
            points: 5,
            ops: 40,
        };
        let b = TileStats {
            batch: 0,
            tile: 0,
            loads: 2,
            stores: 1,
            flops: 3,
            points: 1,
            ops: 9,
        };
        let base = RunStats {
            loads: 100,
            ..RunStats::default()
        };
        let fwd = RunOutcome::merge(vec![1.0], base, [a, b]);
        let rev = RunOutcome::merge(vec![1.0], base, [b, a]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.stats.loads, 112);
        assert_eq!(fwd.stats.stores, 6);
        assert_eq!(fwd.stats.flops, 10);
        assert_eq!(fwd.stats.points, 6);
    }

    #[test]
    fn outcome_checksum_is_first_scalar() {
        let o = RunOutcome::new(vec![3.5, 7.0], RunStats::default());
        assert_eq!(o.checksum(), 3.5);
        assert_eq!(o.scalar(ScalarId(1)), 7.0);
        assert_eq!(RunOutcome::new(vec![], RunStats::default()).checksum(), 0.0);
    }
}
