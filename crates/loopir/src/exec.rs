//! The unified execution API: [`Executor`], [`RunOutcome`], [`Engine`].
//!
//! One surface for everything that runs a [`ScalarProgram`]:
//!
//! * [`Executor`] — anything that can run a program to completion while
//!   streaming accesses to an [`Observer`];
//! * [`RunOutcome`] — the complete result of a run (final scalar values
//!   plus [`RunStats`] counters);
//! * [`Engine`] — the four names benches and CLI flags select by. A name
//!   is not a lowering: there is the tree-walking [`Interp`], and there is
//!   the one artifact [`SharedProgram::lower`] produces (compile →
//!   superfuse → verify), which the [`Vm`] runs at two integers,
//!   [`ExecOpts`]. [`Engine::knobs`] maps a name to those integers — `vm`
//!   is lanes 1 / threads 1, `vm-simd` reads `lanes`, `vm-par` reads both
//!   — and [`SharedProgram::executor`] applies them. `Vm::new`,
//!   `Vm::new_superfused` and `Vm::verify` are the lowering's three steps,
//!   public for the harness that times them and the tests that corrupt
//!   streams between them; no request can select one.
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
use std::time::Instant;
use zlang::ir::{ConfigBinding, ScalarId};

/// Execution counters from one tile of a parallel ladder.
///
/// The parallel VM ([`Engine::VmPar`]) fans each tile-partitionable loop
/// ladder out as per-tile tasks; every task counts its own work and
/// returns one `TileStats`. The `(batch, tile)` key is assigned
/// deterministically from the static tile decomposition, so
/// [`Vm::tile_stats`] lists the stream in the same order whichever worker
/// ran which tile; the counters are `u64` sums, so [`RunOutcome::merge`]
/// totals them the same in any order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TileStats {
    /// Which fan-out (dynamic ladder execution) of the run this tile
    /// belongs to, in coordinator execution order.
    pub batch: u32,
    /// The tile's index within its batch, in iteration order along the
    /// partitioned dimension.
    pub tile: u32,
    /// The loads, stores, flops and iteration points the tile executed (a
    /// tile allocates nothing, so the allocation counters are zero).
    pub stats: RunStats,
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
    /// The counters are `u64` sums, so the total is the same in any order
    /// (independent of worker scheduling and thread count) and equals the
    /// sequential run's counters exactly.
    pub fn merge(
        scalars: Vec<f64>,
        base: RunStats,
        tiles: impl IntoIterator<Item = TileStats>,
    ) -> RunOutcome {
        let mut stats = base;
        for t in tiles {
            stats += t.stats;
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

    /// Sets the wall-clock instant after which subsequent
    /// [`Executor::execute`] calls stop, or `None` for no deadline. Both
    /// engines implement this (there is deliberately no
    /// silently-ignoring default), and both follow one rule: a run checks
    /// the deadline once before its first op, so one that has already
    /// passed always fails, then reads the clock once per 1024 loop
    /// iterations, counted the same way by the tree-walker's points and
    /// `for` iterations, the VM's loop back-edges, each lane strip's
    /// positions and each tile's back-edges. When it has passed the run
    /// stops with an [`ExecError`] of kind
    /// [`Deadline`](crate::ErrorKind::Deadline).
    fn set_deadline(&mut self, deadline: Option<Instant>);
}

/// How many loop iterations pass between two reads of the clock under a
/// deadline. At the VM's 10-30 ns an iteration that is a clock read every
/// 10-30 us, a fraction of a percent of the run; a slower iteration (a
/// tree-walker point, a long loop body) reads it less often in time, and
/// the run overshoots the deadline by at most 1024 such iterations.
const POLL_EVERY: u64 = 1024;

/// The one deadline rule of a request, from admission to its last op.
/// A request turns its budget into one [`Instant`] once, and every loop
/// that does its work starts a `Deadline` from that instant: the
/// optimizer's passes and fusion loops, the lowering, a wait on another
/// thread's compile, and, at execution, the VM's dispatch loop, a
/// parallel tile, a lane run's strip loop and the tree-walker.
/// [`Deadline::start`] checks the instant before the first unit of work;
/// then each loop ticks once per iteration (a lane strip once, weighted
/// by its positions; a fusion step by the clusters it scans), and every
/// 1024 units the clock is read. Without a deadline (as
/// `Deadline::default()` has) a tick is one predictable branch and never
/// reads the clock.
#[derive(Debug, Default)]
pub struct Deadline {
    /// The instant itself, for a parallel tile to start its own from.
    pub(crate) at: Option<Instant>,
    ticks: u64,
}

impl Deadline {
    /// Starts a unit of work under `at`, or under no deadline when `at`
    /// is `None`.
    ///
    /// # Errors
    ///
    /// A [`Deadline`](crate::ErrorKind::Deadline) error when `at` has
    /// already passed, so such work fails before it starts: a run before
    /// its first op, on every engine at every width, and a compile before
    /// its first pass.
    pub fn start(at: Option<Instant>) -> Result<Deadline, ExecError> {
        let d = Deadline { at, ticks: 0 };
        d.check()?;
        Ok(d)
    }

    /// Counts `n` units of work: 1 for a back-edge, a point or a `for`
    /// iteration, a strip's positions for a lane strip, the clusters a
    /// fusion step scans.
    ///
    /// # Errors
    ///
    /// A [`Deadline`](crate::ErrorKind::Deadline) error when this tick
    /// reads the clock and the deadline has passed.
    #[inline(always)]
    pub fn tick(&mut self, n: u64) -> Result<(), ExecError> {
        if self.at.is_some() {
            self.ticks += n;
            if self.ticks >= POLL_EVERY {
                self.ticks = 0;
                return self.check();
            }
        }
        Ok(())
    }

    /// Reads the clock now, whatever the count: the poll between two
    /// steps of a compile (two optimizer passes, the bytecode and its
    /// proof).
    ///
    /// # Errors
    ///
    /// A [`Deadline`](crate::ErrorKind::Deadline) error when the deadline
    /// has passed.
    #[cold]
    pub fn check(&self) -> Result<(), ExecError> {
        match self.at {
            Some(at) if Instant::now() >= at => Err(ExecError::deadline()),
            _ => Ok(()),
        }
    }
}

/// The one placement and allocation rule of both engines: where an array
/// sits in the address space the cache simulator reads, how it is
/// counted in [`RunStats`], and the one allocation of its elements. The
/// tree-walker and the VM each allocate an array when a run first
/// touches it, through [`Heap::alloc`], so both present identical byte
/// addresses and identical counters. It holds the end of the last array
/// placed: 0 before the first, which is placed at 4096.
#[derive(Default)]
pub(crate) struct Heap(u64);

impl Heap {
    /// Places an array of `elems` elements (`bytes` bytes, as
    /// [`zlang::ir::Storage`] counts them), books it in `stats` and
    /// allocates its zeroed elements. Each base is cache-line aligned and
    /// staggered across cache sets by the number of arrays placed before
    /// it (as a real allocator's headers and padding do), so power-of-two
    /// array sizes do not alias pathologically in direct-mapped caches.
    ///
    /// # Errors
    ///
    /// An [`Alloc`](crate::ErrorKind::Alloc) error naming the array and
    /// its bytes when the host refuses the allocation; nothing is placed
    /// or booked then, and the process does not abort.
    #[cold]
    pub(crate) fn alloc(
        &mut self,
        stats: &mut RunStats,
        name: &str,
        elems: u64,
        bytes: u64,
    ) -> Result<(u64, Vec<f64>), ExecError> {
        let n = usize::try_from(elems).unwrap_or(usize::MAX);
        let mut data = Vec::new();
        data.try_reserve_exact(n)
            .map_err(|_| ExecError::alloc(name, Some(bytes)))?;
        data.resize(n, 0.0);
        let stagger = ((stats.arrays_allocated as u64 * 7) % 128) * 64;
        let base = ((self.0.max(4096) + 63) & !63) + stagger;
        self.0 = base + bytes;
        stats.arrays_allocated += 1;
        stats.peak_bytes += bytes;
        Ok((base, data))
    }
}

/// Selects an execution engine by name.
///
/// There is one interpreter and one VM. Every VM name reaches the same
/// lowered artifact — [`SharedProgram::lower`]: superinstruction bytecode
/// with lane and tile annotations, accepted by the bytecode verifier —
/// and differs only in the two integers of [`ExecOpts`] it runs that
/// artifact at; [`Engine::knobs`] is the one place that says which.
/// Results are `f64::to_bits`-identical to [`Engine::Interp`] at every
/// setting: reductions fold each strip in iteration order, a reduction
/// nest's tiles log their terms and the logs are folded in tile order,
/// and the tile counters are `u64` sums of the sequential run's. No
/// VM name constructs (a [`Verify`](crate::ErrorKind::Verify) error with
/// the verifier's diagnostics) if the proof — which bounds every element
/// access and independently re-derives every superinstruction and lane
/// annotation — fails. Lanes run under every observer: a lane run reports
/// each strip through [`Observer::strip`], whose default replays the
/// scalar loops' `load`/`store`/`flops` calls in their order, so the cache
/// simulator is fed the same sequence at every width. Tiles fan out only
/// under observers that do not consume the per-element address stream
/// ([`Observer::wants_addresses`]); under the cache simulator every ladder
/// runs on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Engine {
    /// The reference tree-walking interpreter ([`Interp`]). Never lowers:
    /// it is what still runs when lowering itself fails.
    Interp,
    /// The VM at `lanes = 1, threads = 1`: scalar, sequential dispatch of
    /// the verified stream. The default; reads neither knob. The name
    /// `vm-verified` parses to this engine too (the benchmark harness
    /// still passes it).
    #[default]
    Vm,
    /// The VM at `threads = 1`: provably vectorizable innermost loops run
    /// in strips of up to [`ExecOpts::lanes`] consecutive iterations, each
    /// op over the whole strip (the last strip cut to what is left).
    VmSimd,
    /// The VM at both knobs: loop ladders the compiler proved independent
    /// along one dimension fan out as per-tile tasks on a work-stealing
    /// `std::thread` pool of [`ExecOpts::threads`] threads, and each tile
    /// vectorizes its innermost loop (outer tiles x inner lanes).
    VmPar,
}

/// The two knobs the VM runs a lowered program at. An [`Engine`] name pins
/// zero, one or both of them ([`Engine::knobs`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecOpts {
    /// Threads running tile-partitionable ladders (including the
    /// coordinator); `0` means one per available core, capped at 8, and
    /// `1` runs every ladder on the caller with no pool. Above 1 the
    /// executor borrows a pool of that width from the process's idle
    /// pools for its lifetime ([`Vm::set_threads`](crate::Vm::set_threads)),
    /// and only ladders whose static work clears the grain fan out. Read
    /// by [`Engine::VmPar`] alone.
    pub threads: usize,
    /// Strip width of the innermost-loop dispatch: how many consecutive
    /// iterations run op-major at a time. `0` means the default, the
    /// widest strip (128), widths are capped at 128, and `1` is scalar
    /// dispatch. Read by [`Engine::VmSimd`] and [`Engine::VmPar`].
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

impl SharedProgram {
    /// The one lowering every VM name reaches: `bytecode::compile`, the
    /// superinstruction + lane rewrite, then the bytecode verifier, which
    /// re-derives every superinstruction and annotation from first
    /// principles — so a peephole bug cannot reach the raw-pointer lane
    /// and tile code, and no executed stream skips the proof. This is the
    /// compile half of the compile-once/execute-many serving path: the
    /// `fusion_core` compile cache stores exactly this handle, one per
    /// (program, binding, level spec), whatever VM name asked.
    ///
    /// # Errors
    ///
    /// A [`Lower`](crate::ErrorKind::Lower) error if the program cannot
    /// be lowered (e.g. a region of rank above the VM's limit), a
    /// [`Verify`](crate::ErrorKind::Verify) error carrying every
    /// diagnostic when the verifier rejects the stream, or a
    /// [`Deadline`](crate::ErrorKind::Deadline) error when `deadline` has
    /// passed before the lowering starts or before the verifier does (the
    /// two polls of [`Deadline`]; the bytecode compiler and the verifier
    /// run whole between them).
    pub fn lower(
        prog: &ScalarProgram,
        binding: ConfigBinding,
        deadline: Option<Instant>,
    ) -> Result<Self, ExecError> {
        let deadline = Deadline::start(deadline)?;
        let mut vm = Vm::new_superfused(prog, binding)?;
        deadline.check()?;
        vm.verify().map_err(|diags| {
            let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
            ExecError::verify(format!(
                "bytecode verification failed:\n{}",
                msgs.join("\n")
            ))
        })?;
        Ok(vm.share())
    }

    /// A fresh VM over the lowered program at `knobs` — one `Arc` bump
    /// plus run-state allocation, no recompilation and no re-verification
    /// (the hit half of the serving path). Both knobs apply as given; no
    /// pool is borrowed at `threads == 1`, and above it an idle pool of
    /// that width is, so no thread is spawned once one exists.
    pub fn executor(&self, knobs: ExecOpts) -> Vm {
        let mut vm = Vm::from_shared(self);
        vm.set_lanes(knobs.lanes);
        if knobs.threads != 1 {
            vm.set_threads(knobs.threads);
        }
        vm
    }
}

impl Engine {
    /// Every engine, reference interpreter first.
    pub fn all() -> [Engine; 4] {
        [Engine::Interp, Engine::Vm, Engine::VmSimd, Engine::VmPar]
    }

    /// The engine's flag/display name (`interp`, `vm`, `vm-simd`, or
    /// `vm-par`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Interp => "interp",
            Engine::Vm => "vm",
            Engine::VmSimd => "vm-simd",
            Engine::VmPar => "vm-par",
        }
    }

    /// What an engine name means: `None` for the tree-walker, otherwise
    /// the knobs the VM runs at once the name has pinned the ones it does
    /// not read — `vm` is lanes 1 / threads 1, `vm-simd` reads `lanes`,
    /// `vm-par` reads both. Idempotent.
    pub fn knobs(self, opts: ExecOpts) -> Option<ExecOpts> {
        let (threads, lanes) = match self {
            Engine::Interp => return None,
            Engine::Vm => (1, 1),
            Engine::VmSimd => (1, opts.lanes),
            Engine::VmPar => (opts.threads, opts.lanes),
        };
        Some(ExecOpts { threads, lanes })
    }

    /// Creates a boxed executor for a program under a config binding,
    /// with default [`ExecOpts`] (automatic thread count for
    /// [`Engine::VmPar`]).
    ///
    /// # Errors
    ///
    /// As [`Engine::executor_with`].
    pub fn executor<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        self.executor_with(prog, binding, ExecOpts::default())
    }

    /// Creates a boxed executor with explicit [`ExecOpts`]: the
    /// tree-walker, or [`SharedProgram::lower`] then
    /// [`SharedProgram::executor`] at [`Engine::knobs`].
    ///
    /// # Errors
    ///
    /// Every VM name fails as [`SharedProgram::lower`] does;
    /// [`Engine::Interp`] always constructs.
    pub fn executor_with<'p>(
        self,
        prog: &'p ScalarProgram,
        binding: ConfigBinding,
        opts: ExecOpts,
    ) -> Result<Box<dyn Executor + 'p>, ExecError> {
        Ok(match self.knobs(opts) {
            Some(knobs) => Box::new(SharedProgram::lower(prog, binding, None)?.executor(knobs)),
            None => Box::new(Interp::new(prog, binding)),
        })
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
            "interp" => Ok(Engine::Interp),
            // `vm-verified`: the frozen benchmark harness passes this
            // name; every VM name runs the verified stream.
            "vm" | "vm-verified" => Ok(Engine::Vm),
            "vm-simd" => Ok(Engine::VmSimd),
            "vm-par" => Ok(Engine::VmPar),
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
        assert_eq!("vm-verified".parse::<Engine>().unwrap().to_string(), "vm");
        assert_eq!("vm-simd".parse::<Engine>().unwrap(), Engine::VmSimd);
        assert_eq!("vm-par".parse::<Engine>().unwrap(), Engine::VmPar);
        // One documented spelling per engine, plus the harness's.
        for retired in [
            "interpreter",
            "bytecode",
            "verified",
            "simd",
            "parallel",
            "jit",
        ] {
            let err = retired.parse::<Engine>().unwrap_err();
            assert!(
                err.contains("`interp`, `vm`, `vm-simd`, or `vm-par`"),
                "{err}"
            );
        }
        assert_eq!(Engine::Vm.to_string(), "vm");
        assert_eq!(Engine::VmSimd.to_string(), "vm-simd");
        assert_eq!(Engine::VmPar.to_string(), "vm-par");
        assert_eq!(Engine::default(), Engine::Vm);
        assert_eq!(Engine::all().len(), 4);
    }

    #[test]
    fn a_name_pins_the_knobs_it_does_not_read() {
        let asked = ExecOpts {
            threads: 4,
            lanes: 8,
        };
        let knobs = |threads, lanes| Some(ExecOpts { threads, lanes });
        assert_eq!(Engine::Interp.knobs(asked), None);
        assert_eq!(Engine::Vm.knobs(asked), knobs(1, 1));
        assert_eq!(Engine::VmSimd.knobs(asked), knobs(1, 8));
        assert_eq!(Engine::VmPar.knobs(asked), knobs(4, 8));
        for engine in Engine::all() {
            // Resolving is idempotent.
            if let Some(k) = engine.knobs(asked) {
                assert_eq!(engine.knobs(k), Some(k));
            }
        }
        let scalar = ExecOpts {
            threads: 1,
            lanes: 1,
        };
        assert_eq!(Engine::VmPar.knobs(scalar), Some(scalar));
    }

    #[test]
    fn merge_is_order_independent_and_exact() {
        let tile = |tile, loads, stores, flops, points| TileStats {
            batch: 0,
            tile,
            stats: RunStats {
                loads,
                stores,
                flops,
                points,
                ..RunStats::default()
            },
        };
        let (a, b) = (tile(1, 10, 5, 7, 5), tile(0, 2, 1, 3, 1));
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
