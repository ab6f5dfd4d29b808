//! A register virtual machine executing `bytecode`
//! compiled from a [`ScalarProgram`].
//!
//! The VM is observationally identical to the tree-walking
//! [`Interp`](crate::Interp) — bit-equal scalar results, equal
//! [`RunStats`], and the same ordered address stream through the
//! [`Observer`] — but resolves bounds, strides, and control flow once at
//! compile time instead of at every iteration point. The differential
//! suite in `tests/vm_differential.rs` holds the two engines equal over
//! every benchmark at every optimization level.
//!
//! ```
//! # fn main() -> Result<(), loopir::ExecError> {
//! use loopir::{Executor, NoopObserver, Vm};
//! use zlang::ir::ConfigBinding;
//! let p = zlang::compile(
//!     "program t; region R = [1..4]; var A : [R] float; begin end").unwrap();
//! let nest = loopir::LoopNest {
//!     region: zlang::ir::RegionId(0),
//!     structure: vec![1],
//!     body: vec![loopir::ElemStmt {
//!         target: loopir::ElemRef::Array(zlang::ir::ArrayId(0), zlang::ir::Offset(vec![0])),
//!         rhs: loopir::EExpr::Const(2.0),
//!     }],
//!     cluster: 0,
//!     temps: 0,
//! };
//! let sp = loopir::ScalarProgram { program: p, stmts: vec![loopir::LStmt::Nest(nest)] };
//! let mut vm = Vm::new(&sp, ConfigBinding::defaults(&sp.program))?;
//! let outcome = vm.execute(&mut NoopObserver)?;
//! assert_eq!(outcome.stats.stores, 4);
//! assert_eq!(vm.array(zlang::ir::ArrayId(0)).unwrap(), &[2.0; 4]);
//! # Ok(())
//! # }
//! ```

use crate::bytecode::{self, Check, Code, Op, MAX_LANES, MAX_RANK};
use crate::exec::{Deadline, Executor, Heap, RunOutcome, TileStats};
use crate::interp::{binop, ExecError, Observer, RunStats};
use crate::ir::ScalarProgram;
use crate::par::Lease;
use crate::simd::{self, ElemMem, LaneScratch, VmMem};
use crate::verifier::{self, VerifyDiagnostic};
use std::sync::Arc;
use std::time::Instant;
use testkit::faults::{self, FaultSite};
use zlang::ast::ReduceOp;
use zlang::ir::{ArrayId, ConfigBinding};

#[derive(Debug, Clone, Copy, Default)]
struct Ctr {
    cur: i64,
    end: i64,
    step: i64,
}

pub(crate) struct VmArray {
    pub(crate) base: u64,
    pub(crate) data: Vec<f64>,
}

/// An immutable, thread-shareable handle to a compiled bytecode program:
/// what [`SharedProgram::lower`] produces and every VM
/// [`Engine`](crate::Engine) name runs.
///
/// A [`Vm`] holds its compiled tables behind an `Arc`; [`Vm::share`]
/// exposes that handle and [`Vm::from_shared`] builds a fresh executor
/// around it without recompiling. Cloning the handle is one `Arc` bump, so
/// compilation can happen once on one thread while each executor keeps its
/// run state (registers, index vector, array buffers) private. The handle
/// remembers whether [`Vm::verify`] succeeded: executors built from a
/// verified handle may fan out over lanes and tiles without re-running the
/// verifier, because the proof is about the immutable bytecode, not the VM
/// instance.
#[derive(Clone)]
pub struct SharedProgram {
    code: Arc<Code>,
    binding: ConfigBinding,
    verified: bool,
}

impl std::fmt::Debug for SharedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedProgram")
            .field("verified", &self.verified)
            .finish_non_exhaustive()
    }
}

impl SharedProgram {
    /// The config binding the program was compiled under.
    pub fn binding(&self) -> &ConfigBinding {
        &self.binding
    }

    /// Whether the bytecode verifier accepted the program before it was
    /// shared.
    pub fn is_verified(&self) -> bool {
        self.verified
    }
}

/// The bytecode virtual machine.
///
/// Construction compiles the program once under the given binding; each
/// [`Vm::run`] (or [`Executor::execute`]) then executes the flat bytecode.
/// The compiled tables are immutable and `Arc`-shared ([`Vm::share`]);
/// [`Vm::set_threads`] additionally enables the parallel tiled fast path
/// ([`Engine::VmPar`](crate::Engine::VmPar)).
pub struct Vm {
    code: Arc<Code>,
    binding: ConfigBinding,
    regs: Vec<f64>,
    idx: [i64; MAX_RANK],
    ctrs: Vec<Ctr>,
    arrays: Vec<Option<VmArray>>,
    stats: RunStats,
    heap: Heap,
    verified: bool,
    deadline: Option<Instant>,
    par: Option<Lease>,
    tile_log: Vec<TileStats>,
    /// Strip width for `Op::SimdBegin` loops (effective only once verified;
    /// per-loop alias analysis and the loop's extent may clamp it further).
    lanes: usize,
    /// Reusable lane file and stream table, grown by the first lane runs
    /// (those of a `Vm` without a pool; one with a pool uses the pool's).
    simd_scratch: LaneScratch,
}

impl Vm {
    /// Compiles a program to plain bytecode under a config binding: the
    /// first step of [`SharedProgram::lower`], on its own for the harness
    /// that times it and for tests. No [`Engine`](crate::Engine) name runs
    /// this stream.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program cannot be lowered (e.g. a
    /// region of rank above the VM's limit).
    pub fn new(prog: &ScalarProgram, binding: ConfigBinding) -> Result<Self, ExecError> {
        let code = Arc::new(bytecode::compile(prog, &binding)?);
        Ok(Vm::from_parts(code, binding, false))
    }

    /// Compiles a program and then runs the superinstruction + SIMD
    /// rewrite (`crate::simd`) over the bytecode: fused element-wise
    /// chains collapse into superinstructions and vectorizable innermost
    /// loops gain `Op::SimdBegin` annotations. The rewritten bytecode runs
    /// on every dispatcher (at `lanes = 1` the annotations are no-ops);
    /// the lane fast path additionally requires [`Vm::verify`]. The first
    /// two steps of [`SharedProgram::lower`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if the program cannot be lowered.
    pub fn new_superfused(prog: &ScalarProgram, binding: ConfigBinding) -> Result<Self, ExecError> {
        let mut code = bytecode::compile(prog, &binding)?;
        simd::superfuse(&mut code);
        Ok(Vm::from_parts(Arc::new(code), binding, false))
    }

    /// Sets the strip width for vectorized innermost loops (`0` restores
    /// the default, the widest strip of 128; other values clamp to
    /// `1..=128`; `1` disables the lane path). Effective only on verified
    /// superfused programs — the lane dispatch rests on the verifier's
    /// bounds and annotation proofs.
    pub fn set_lanes(&mut self, lanes: usize) {
        self.lanes = match lanes {
            0 => MAX_LANES,
            n => n.min(MAX_LANES),
        };
    }

    /// The configured lane width.
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Renders the compiled bytecode as human-readable assembly, one op
    /// per line with full operand detail (`zlc --print bytecode`).
    pub fn disasm(&self) -> String {
        bytecode::disasm(&self.code)
    }

    /// Builds a fresh VM around an existing [`SharedProgram`] handle — no
    /// recompilation, no re-verification; run state starts pristine.
    pub fn from_shared(shared: &SharedProgram) -> Self {
        Vm::from_parts(
            Arc::clone(&shared.code),
            shared.binding.clone(),
            shared.verified,
        )
    }

    /// Shares this VM's compiled (and possibly verified) program.
    pub fn share(&self) -> SharedProgram {
        SharedProgram {
            code: Arc::clone(&self.code),
            binding: self.binding.clone(),
            verified: self.verified,
        }
    }

    fn from_parts(code: Arc<Code>, binding: ConfigBinding, verified: bool) -> Self {
        let mut regs = vec![0.0; code.frame as usize];
        for (i, &v) in code.consts.iter().enumerate() {
            regs[code.const_base as usize + i] = v;
        }
        let n_arrays = code.arrays.len();
        let n_ctrs = code.n_ctrs as usize;
        Vm {
            code,
            binding,
            regs,
            idx: [0; MAX_RANK],
            ctrs: vec![Ctr::default(); n_ctrs],
            arrays: (0..n_arrays).map(|_| None).collect(),
            stats: RunStats::default(),
            heap: Heap::default(),
            verified,
            deadline: None,
            par: None,
            tile_log: Vec::new(),
            lanes: MAX_LANES,
            simd_scratch: LaneScratch::default(),
        }
    }

    /// Enables parallel tiled execution for subsequent runs: ladders the
    /// compiler marked partitionable (`Op::ParBegin`) fan out as
    /// per-tile tasks on a persistent work-stealing pool of `threads`
    /// threads (including the calling thread; `0` means one per available
    /// core, capped at 8). The pool is borrowed from the process's spare
    /// pools of that width, or spawned when none is idle, and this `Vm`
    /// holds it alone until it drops (or the next call) hands it back:
    /// building and dropping a `vm-par` executor
    /// spawns and joins no thread once a pool of its width exists.
    /// Fan-out only happens once [`Vm::verify`] has
    /// succeeded, under observers with
    /// [`Observer::wants_addresses`]`() == false`, and for ladders whose
    /// static work clears the grain (`--print bytecode` shows each
    /// ladder's decision); otherwise the ladder
    /// runs on the calling thread (in lane runs, like any other loop), so
    /// the address stream keeps its contracted order.
    /// Results are bit-identical to the sequential run for every thread
    /// count: tiles partition the writes, a reducing ladder's tiles log
    /// their terms and the logs are folded in tile order, and the
    /// per-tile counters sum to the sequential run's.
    pub fn set_threads(&mut self, threads: usize) {
        let threads = if threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
                .min(8)
        } else {
            threads
        };
        self.par = Some(Lease::take(threads));
    }

    /// The configured parallel width: 1 when [`Vm::set_threads`] was never
    /// called.
    pub fn threads(&self) -> usize {
        self.par.as_ref().map_or(1, |pool| pool.threads())
    }

    /// How many idle tile pools of exactly `threads` threads the process
    /// keeps for the next [`Vm::set_threads`] of that width: never more
    /// than the number of `Vm`s of that width that were alive at once.
    /// Kept out of the documented API: it exists so that tests outside
    /// this crate can check that bound.
    #[doc(hidden)]
    pub fn idle_pools(threads: usize) -> usize {
        crate::par::spares(threads)
    }

    /// The per-tile counter stream of the most recent run, in
    /// deterministic `(batch, tile)` order. Empty when no ladder fanned
    /// out (sequential runs, active observers, or no partitionable nest
    /// whose work clears the grain).
    pub fn tile_stats(&self) -> &[TileStats] {
        &self.tile_log
    }

    /// Sets the wall-clock instant after which subsequent runs stop with
    /// a [`Deadline`](crate::ErrorKind::Deadline) error, or `None` for no
    /// deadline. [`Vm::run`] checks it once before the first op, so a
    /// deadline that has already passed fails every run, at any width;
    /// after that the dispatch loop counts its taken loop back-edges, each
    /// lane run the positions of its strips and each tile its own
    /// back-edges, under the one rule of [`Executor::set_deadline`]. A run
    /// without a deadline reads no clock and pays one predictable branch
    /// per back-edge.
    pub fn set_deadline(&mut self, deadline: Option<Instant>) {
        self.deadline = deadline;
    }

    /// Runs the [bytecode verifier](crate::verifier) over the compiled
    /// program. Success is the gate for the two fan-outs that touch array
    /// memory through raw pointers: lane dispatch of `Op::SimdBegin` loops
    /// ([`Vm::set_lanes`]) and tiled execution of `Op::ParBegin` ladders
    /// ([`Vm::set_threads`]). Scalar dispatch is bounds-checked either way,
    /// and runtime halo checks (the compiler's `check` entries) execute on
    /// every path — the verifier proves they dominate the flat index, not
    /// that they always pass.
    ///
    /// # Errors
    ///
    /// Returns every diagnostic when verification fails; the VM then runs
    /// every loop scalar and sequential, and remains safe to run.
    pub fn verify(&mut self) -> Result<(), Vec<VerifyDiagnostic>> {
        if faults::fire(FaultSite::VerifyReject) {
            return Err(vec![VerifyDiagnostic {
                pc: None,
                message: faults::message(FaultSite::VerifyReject),
            }]);
        }
        let diags = verifier::verify(&self.code);
        if diags.is_empty() {
            self.verified = true;
            Ok(())
        } else {
            Err(diags)
        }
    }

    /// Whether [`Vm::verify`] has succeeded (lanes and tiles may fan out).
    pub fn is_verified(&self) -> bool {
        self.verified
    }

    /// Executes the bytecode, reporting accesses to `obs`. Every run,
    /// observed or not, goes through the one compiled copy of the dispatch
    /// loop; [`NoopObserver`](crate::NoopObserver) is an observer like any
    /// other here.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] on an out-of-region array access, when the
    /// deadline ([`Vm::set_deadline`]) has passed, before the first op or
    /// at a poll, or when an array's storage cannot be allocated
    /// ([`Alloc`](crate::ErrorKind::Alloc)).
    pub fn run(&mut self, obs: &mut dyn Observer) -> Result<RunOutcome, ExecError> {
        let deadline = Deadline::start(self.deadline)?;
        // Clone the `Arc` into a local so op fetch and access resolution
        // do not re-read through `self` (which the stat and register
        // writes below mutate) on every dispatch.
        let code = Arc::clone(&self.code);
        self.dispatch(&code, obs, deadline)
    }

    /// The dispatch loop, compiled once: for every observer, with or
    /// without a deadline. It owns control flow, allocation and loop
    /// bookkeeping; every straight-line op of a fused loop body goes
    /// through [`body_op`], bounds-checked, whether or not the program was
    /// verified. Each taken back-edge (`IdxStep`, `CtrStep`) ticks
    /// `deadline`, and lane runs and tiles tick the same rule
    /// ([`Executor::set_deadline`]).
    fn dispatch(
        &mut self,
        code: &Arc<Code>,
        obs: &mut dyn Observer,
        mut deadline: Deadline,
    ) -> Result<RunOutcome, ExecError> {
        // Split `self` into disjoint field borrows and keep the hottest
        // state — the index vector and the access counters — in locals,
        // so the dispatch loop works on registers instead of round-tripping
        // every increment through `&mut self`. The counters are merged back
        // into the cumulative stats at the single exit point below.
        let Vm {
            regs,
            ctrs,
            arrays,
            stats,
            heap,
            par,
            simd_scratch,
            ..
        } = self;
        // Lanes and tiles reach array memory through raw pointers, so they
        // start only on bytecode `Vm::verify` accepted. A lane run reports
        // what the scalar loops would have (`Observer::strip`); tiles run
        // concurrently and report nothing, so ladders fan out only under
        // observers that do not need the ordered address stream.
        let lane_want = if self.verified { self.lanes } else { 1 };
        let fans_out = self.verified && !obs.wants_addresses();
        // A `vm-par` run's lane runs use the pool's coordinator lane file,
        // which outlives this `Vm`; tiles on this thread use it too.
        let mut pool = par.as_deref_mut();
        let mut idx = self.idx;
        let mut mem = VmMem {
            code: code.as_ref(),
            arrays: arrays.as_mut_slice(),
        };
        let mut batch_tiles: Vec<TileStats> = Vec::new();
        let mut next_batch = 0u32;
        let mut n = RunStats::default();
        let ops = &code.ops[..];
        let mut pc = 0usize;
        let res: Result<(), ExecError> = loop {
            let op = ops[pc];
            pc += 1;
            // Loop-body ops first: they are nearly every op a run executes.
            match body_op(op, code, regs, &idx, &mut mem, &mut n, obs) {
                Ok(true) => continue,
                Ok(false) => {}
                Err(e) => break Err(e),
            }
            match op {
                Op::Reduce { op, dst, src } => {
                    let a = regs[dst as usize];
                    let v = regs[src as usize];
                    regs[dst as usize] = match op {
                        ReduceOp::Sum => a + v,
                        ReduceOp::Prod => a * v,
                        ReduceOp::Max => a.max(v),
                        ReduceOp::Min => a.min(v),
                    };
                }
                Op::NestBegin { nest } => {
                    if faults::fire(FaultSite::VmTrap) {
                        break Err(ExecError::trap(faults::message(FaultSite::VmTrap)));
                    }
                    obs.nest_begin(nest);
                }
                Op::ReduceBegin => {
                    obs.reduce_begin();
                }
                Op::ParBegin { par: pi } => {
                    // Sequential runs (no pool, unverified bytecode, or an
                    // observer that needs the ordered address stream) and
                    // ladders below the grain fall through into the
                    // ladder; this op is then a no-op.
                    if let Some(pool) = pool
                        .as_deref_mut()
                        .filter(|_| fans_out && code.pars[pi as usize].tiles())
                    {
                        let r = crate::par::run_ladder(
                            pool,
                            code,
                            pi as usize,
                            regs,
                            &idx,
                            mem.arrays,
                            deadline.at,
                            next_batch,
                            lane_want,
                            &mut batch_tiles,
                        );
                        next_batch += 1;
                        match r {
                            Ok(final_idx) => idx = final_idx,
                            Err(e) => break Err(e),
                        }
                        pc = code.pars[pi as usize].exit as usize;
                    }
                }
                Op::Alloc { arr } if mem.arrays[arr as usize].is_none() => {
                    let info = &code.arrays[arr as usize];
                    match heap.alloc(stats, &info.name, info.elems, info.bytes) {
                        Ok((base, data)) => mem.arrays[arr as usize] = Some(VmArray { base, data }),
                        Err(e) => break Err(e),
                    }
                }
                Op::Alloc { .. } => {}
                Op::SetIdx { d, v } => {
                    idx[d as usize] = v;
                }
                Op::IdxStep {
                    d,
                    step,
                    stop,
                    head,
                } => {
                    let v = idx[d as usize] + step;
                    idx[d as usize] = v;
                    if v != stop {
                        if let Err(e) = deadline.tick(1) {
                            break Err(e);
                        }
                        pc = head as usize;
                    }
                }
                Op::CtrInit {
                    ctr,
                    cur,
                    end,
                    step,
                } => {
                    ctrs[ctr as usize] = Ctr { cur, end, step };
                }
                Op::CtrToIdx { d, ctr } => {
                    idx[d as usize] = ctrs[ctr as usize].cur;
                }
                Op::CtrToScalar { dst, ctr } => {
                    regs[dst as usize] = ctrs[ctr as usize].cur as f64;
                }
                Op::ForInit {
                    ctr,
                    lo,
                    hi,
                    down,
                    exit,
                } => {
                    let lo_v = regs[lo as usize].round() as i64;
                    let hi_v = regs[hi as usize].round() as i64;
                    let empty = if down { hi_v > lo_v } else { lo_v > hi_v };
                    if empty {
                        pc = exit as usize;
                    } else {
                        let step = if down { -1 } else { 1 };
                        ctrs[ctr as usize] = Ctr {
                            cur: lo_v,
                            end: hi_v,
                            step,
                        };
                    }
                }
                Op::CtrStep { ctr, head } => {
                    let c = &mut ctrs[ctr as usize];
                    c.cur += c.step;
                    let more = if c.step > 0 {
                        c.cur <= c.end
                    } else {
                        c.cur >= c.end
                    };
                    if more {
                        if let Err(e) = deadline.tick(1) {
                            break Err(e);
                        }
                        pc = head as usize;
                    }
                }
                Op::Jmp { target } => {
                    pc = target as usize;
                }
                Op::JmpIfZero { cond, target } => {
                    if regs[cond as usize] == 0.0 {
                        pc = target as usize;
                    }
                }
                Op::SimdBegin { simd } => {
                    // Scalar runs fall through into the loop.
                    if lane_want >= 2 {
                        let r = simd::run_lanes(
                            code,
                            &code.simds[simd as usize],
                            lane_want,
                            None,
                            regs,
                            &idx,
                            &mut mem,
                            pool.as_deref_mut()
                                .map_or(&mut *simd_scratch, |p| &mut p.scratch),
                            &mut deadline,
                            None,
                            obs,
                        );
                        match r {
                            Err(e) => break Err(e),
                            Ok(Some(run)) => {
                                n += run.stats;
                                idx = run.idx;
                                pc = run.resume as usize;
                            }
                            Ok(None) => {} // width below 2: stay scalar
                        }
                    }
                }
                Op::Halt => break Ok(()),
                _ => unreachable!("body_op executes every op without an arm above"),
            }
        };
        self.idx = idx;
        // Tile counters are u64 sums like the rest, so the cumulative stats
        // match a sequential run exactly (same points, same sums).
        self.stats += n;
        for t in &batch_tiles {
            self.stats += t.stats;
        }
        self.tile_log = batch_tiles;
        res?;
        Ok(RunOutcome::new(
            self.regs[..code.n_scalars as usize].to_vec(),
            self.stats,
        ))
    }

    /// The contents of an array, if it was allocated during the run.
    pub fn array(&self, id: ArrayId) -> Option<&[f64]> {
        self.arrays[id.0 as usize]
            .as_ref()
            .map(|b| b.data.as_slice())
    }

    /// The register frame as the last run left it: program scalars,
    /// interned constants and every temporary. A lane run must leave it
    /// exactly as the scalar loops would have.
    pub fn frame(&self) -> &[f64] {
        &self.regs
    }

    /// Run statistics so far.
    pub fn stats(&self) -> RunStats {
        self.stats
    }

    /// The config binding in use.
    pub fn binding(&self) -> &ConfigBinding {
        &self.binding
    }

    /// Number of bytecode operations in the compiled program.
    pub fn code_len(&self) -> usize {
        self.code.ops.len()
    }
}

/// Executes `op` if it is a straight-line op of a fused loop body:
/// arithmetic, element loads and stores, superinstructions and the
/// per-point tick. This is the only scalar implementation of the body —
/// [`Vm::dispatch`] runs it over the VM's own arrays and a parallel tile
/// (`crate::par`) over its sub-range and raw views, each through its
/// [`ElemMem`], which length-checks every access.
///
/// A superinstruction runs fused, in one dispatch; what it means is
/// `Op::parts`, and `tests::a_bundle_executes_as_its_parts` holds the two
/// to the same effects.
///
/// Returns `Ok(false)`, having done nothing, for the ops that move the pc,
/// allocate, or fold a reduction: those belong to the loop that owns that
/// state.
#[inline(always)]
pub(crate) fn body_op<M: ElemMem, O: Observer + ?Sized>(
    op: Op,
    code: &Code,
    regs: &mut [f64],
    idx: &[i64; MAX_RANK],
    mem: &mut M,
    n: &mut RunStats,
    obs: &mut O,
) -> Result<bool, ExecError> {
    match op {
        Op::Add { dst, a, b } => {
            regs[dst as usize] = regs[a as usize] + regs[b as usize];
        }
        Op::Sub { dst, a, b } => {
            regs[dst as usize] = regs[a as usize] - regs[b as usize];
        }
        Op::Mul { dst, a, b } => {
            regs[dst as usize] = regs[a as usize] * regs[b as usize];
        }
        Op::Div { dst, a, b } => {
            regs[dst as usize] = regs[a as usize] / regs[b as usize];
        }
        Op::Bin { op, dst, a, b } => {
            regs[dst as usize] = binop(op, regs[a as usize], regs[b as usize]);
        }
        Op::Neg { dst, src } => {
            regs[dst as usize] = -regs[src as usize];
        }
        Op::Mov { dst, src } => {
            regs[dst as usize] = regs[src as usize];
        }
        Op::Call { intr, dst, base, n } => {
            let base = base as usize;
            let v = intr.eval(&regs[base..base + n as usize]);
            regs[dst as usize] = v;
        }
        Op::IdxF { dst, d } => {
            regs[dst as usize] = idx[d as usize] as f64;
        }
        Op::Load { dst, acc } => {
            regs[dst as usize] = load_elem(code, idx, mem, n, obs, acc)?;
        }
        Op::Store { acc, src } => {
            store_elem(code, idx, mem, n, obs, acc, regs[src as usize])?;
        }
        Op::Tick { flops } => {
            n.points += 1;
            n.flops += flops as u64;
            obs.flops(flops as u64);
        }
        Op::LdLdBin {
            op,
            dst,
            da,
            aa,
            db,
            ab,
        } => {
            regs[da as usize] = load_elem(code, idx, mem, n, obs, aa)?;
            regs[db as usize] = load_elem(code, idx, mem, n, obs, ab)?;
            regs[dst as usize] = binop(op, regs[da as usize], regs[db as usize]);
        }
        Op::LdBin {
            op,
            dst,
            dl,
            acc,
            other,
            right,
        } => {
            regs[dl as usize] = load_elem(code, idx, mem, n, obs, acc)?;
            let (x, y) = if right { (other, dl) } else { (dl, other) };
            regs[dst as usize] = binop(op, regs[x as usize], regs[y as usize]);
        }
        Op::BinBin {
            op1,
            d1,
            a1,
            b1,
            op2,
            d2,
            a2,
            b2,
        } => {
            regs[d1 as usize] = binop(op1, regs[a1 as usize], regs[b1 as usize]);
            regs[d2 as usize] = binop(op2, regs[a2 as usize], regs[b2 as usize]);
        }
        Op::BinSt { op, dst, a, b, acc } => {
            regs[dst as usize] = binop(op, regs[a as usize], regs[b as usize]);
            store_elem(code, idx, mem, n, obs, acc, regs[dst as usize])?;
        }
        Op::LdSt { dst, la, sa } => {
            regs[dst as usize] = load_elem(code, idx, mem, n, obs, la)?;
            store_elem(code, idx, mem, n, obs, sa, regs[dst as usize])?;
        }
        _ => return Ok(false),
    }
    Ok(true)
}

/// One element load — `Op::Load` and every load a superinstruction
/// bundles: the access's halo check, then the memory's own length check.
#[inline(always)]
fn load_elem<M: ElemMem, O: Observer + ?Sized>(
    code: &Code,
    idx: &[i64; MAX_RANK],
    mem: &M,
    n: &mut RunStats,
    obs: &mut O,
    acc: u32,
) -> Result<f64, ExecError> {
    let (ai, flat) = resolve(code, idx, acc)?;
    let v = mem.load(ai, flat, obs)?;
    n.loads += 1;
    Ok(v)
}

/// One element store; the counterpart of [`load_elem`].
#[inline(always)]
fn store_elem<M: ElemMem, O: Observer + ?Sized>(
    code: &Code,
    idx: &[i64; MAX_RANK],
    mem: &mut M,
    n: &mut RunStats,
    obs: &mut O,
    acc: u32,
    v: f64,
) -> Result<(), ExecError> {
    let (ai, flat) = resolve(code, idx, acc)?;
    mem.store(ai, flat, v, obs)?;
    n.stores += 1;
    Ok(())
}

/// Resolves an access-table entry against the current index vector,
/// evaluating its halo check if it has one.
#[inline]
fn resolve(code: &Code, idx: &[i64; MAX_RANK], acc: u32) -> Result<(usize, usize), ExecError> {
    let a = &code.accesses[acc as usize];
    if let Some(chk) = &a.check {
        for &(d, off, lo, ext) in &chk.dims {
            let i = idx[d as usize] + off - lo;
            if i < 0 || i >= ext {
                return Err(oob(code, idx, chk));
            }
        }
    }
    let mut flat = a.const_flat;
    match a.rank {
        0 => {}
        1 => flat += idx[0] * a.strides[0],
        // The common case: every paper benchmark is rank <= 2.
        2 => flat += idx[0] * a.strides[0] + idx[1] * a.strides[1],
        _ => {
            for (i, s) in idx.iter().zip(&a.strides).take(a.rank as usize) {
                flat += i * s;
            }
        }
    }
    Ok((a.arr as usize, flat as usize))
}

#[cold]
fn oob(code: &Code, idx: &[i64; MAX_RANK], chk: &Check) -> ExecError {
    let pt: Vec<i64> = chk
        .off
        .iter()
        .take(MAX_RANK)
        .enumerate()
        .map(|(d, &o)| idx[d] + o)
        .collect();
    ExecError::access(format!(
        "access to `{}` at {:?} is outside its declared region (declare a halo?)",
        code.arrays[chk.arr.0 as usize].name, pt
    ))
}

#[cold]
pub(crate) fn unallocated(code: &Code, ai: usize) -> ExecError {
    ExecError::trap(format!(
        "array `{}` accessed before its Alloc op (malformed bytecode)",
        code.arrays[ai].name
    ))
}

impl Executor for Vm {
    fn execute(&mut self, obs: &mut dyn Observer) -> Result<RunOutcome, ExecError> {
        self.run(obs)
    }

    fn set_deadline(&mut self, deadline: Option<Instant>) {
        Vm::set_deadline(self, deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::{Interp, NoopObserver};
    use crate::ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest};
    use zlang::ir::{ConfigBinding, Offset, RegionId, ScalarExpr, ScalarId};

    fn prog() -> zlang::ir::Program {
        zlang::compile(
            "program t; config n : int = 4; region R = [1..n, 1..n]; \
             var A, B : [R] float; var s : float; var k : int; begin end",
        )
        .unwrap()
    }

    fn run_both(sp: &ScalarProgram) -> (RunOutcome, RunOutcome) {
        let b = ConfigBinding::defaults(&sp.program);
        let mut i = Interp::new(sp, b.clone());
        let oi = i.execute(&mut NoopObserver).unwrap();
        let mut v = Vm::new(sp, b).unwrap();
        let ov = v.execute(&mut NoopObserver).unwrap();
        (oi, ov)
    }

    /// `A := 1.0` over `R` at `n`.
    fn fill_at(n: i64) -> (ScalarProgram, ConfigBinding) {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1, 2],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Const(1.0),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let mut b = ConfigBinding::defaults(&sp.program);
        b.set_by_name(&sp.program, "n", n);
        (sp, b)
    }

    #[test]
    fn a_count_that_overflows_is_a_lower_error_on_the_vm_and_an_alloc_error_on_interp() {
        // 2^32 x 2^32 elements: no u64 counts them.
        let (sp, b) = fill_at(1 << 32);
        let e = Vm::new(&sp, b.clone())
            .err()
            .expect("the VM refuses to lower");
        assert_eq!(e.kind, crate::ErrorKind::Lower, "{e}");
        assert!(e.message.contains("`A`"), "{e}");
        let mut interp = Interp::new(&sp, b);
        let e = interp.run(&mut NoopObserver).unwrap_err();
        assert_eq!(e.kind, crate::ErrorKind::Alloc, "{e}");
        assert!(e.message.contains("`A` (over 2^64 bytes"), "{e}");
        assert_eq!(interp.stats(), RunStats::default());
    }

    #[test]
    fn a_refused_allocation_is_an_error_on_both_engines_not_an_abort() {
        // 2^27 x 2^27 elements are 2^57 bytes: counted exactly, and more
        // than any 64-bit host maps.
        let (sp, b) = fill_at(1 << 27);
        let mut vm = Vm::new(&sp, b.clone()).unwrap();
        let mut interp = Interp::new(&sp, b);
        let errors = [
            vm.execute(&mut NoopObserver).unwrap_err(),
            interp.execute(&mut NoopObserver).unwrap_err(),
        ];
        for e in errors {
            assert_eq!(e.kind, crate::ErrorKind::Alloc, "{e}");
            assert!(e.message.contains("`A` (144115188075855872 bytes)"), "{e}");
        }
        // Nothing was booked; at a binding that fits, one array is booked.
        assert_eq!(interp.stats(), RunStats::default());
        let (sp, b) = fill_at(4);
        let out = Vm::new(&sp, b).unwrap().execute(&mut NoopObserver).unwrap();
        assert_eq!((out.stats.arrays_allocated, out.stats.peak_bytes), (1, 128));
    }

    #[test]
    fn vm_matches_interp_on_index_fill() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Index(0)),
                            Box::new(EExpr::Const(10.0)),
                        )),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let (oi, ov) = run_both(&sp);
        assert_eq!(oi, ov);
    }

    #[test]
    fn vm_matches_interp_on_reduce_and_for() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![
                LStmt::Nest(LoopNest {
                    region: RegionId(0),
                    structure: vec![1, 2],
                    body: vec![ElemStmt {
                        target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                        rhs: EExpr::Index(1),
                    }],
                    cluster: 0,
                    temps: 0,
                }),
                LStmt::For {
                    var: ScalarId(1),
                    lo: ScalarExpr::Const(1.0),
                    hi: ScalarExpr::Const(3.0),
                    down: false,
                    body: vec![LStmt::ReduceNest {
                        lhs: ScalarId(0),
                        op: zlang::ast::ReduceOp::Sum,
                        region: RegionId(0),
                        structure: vec![1, 2],
                        rhs: EExpr::Load(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    }],
                },
            ],
        };
        let (oi, ov) = run_both(&sp);
        assert_eq!(oi, ov);
        assert_eq!(ov.scalar(ScalarId(0)), 40.0);
    }

    #[test]
    fn verified_vm_matches_checked_vm() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Index(0)),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let mut checked = Vm::new(&sp, b.clone()).unwrap();
        let oc = checked.execute(&mut NoopObserver).unwrap();
        let mut fast = Vm::new(&sp, b).unwrap();
        fast.verify().unwrap();
        assert!(fast.is_verified());
        let of = fast.execute(&mut NoopObserver).unwrap();
        assert_eq!(oc, of);
        assert_eq!(
            checked.array(zlang::ir::ArrayId(0)),
            fast.array(zlang::ir::ArrayId(0))
        );
    }

    #[test]
    fn vm_reports_halo_error_like_interp() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1, 2],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Load(zlang::ir::ArrayId(1), Offset(vec![-1, 0])),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let ei = Interp::new(&sp, b.clone())
            .execute(&mut NoopObserver)
            .unwrap_err();
        let ev = Vm::new(&sp, b)
            .unwrap()
            .execute(&mut NoopObserver)
            .unwrap_err();
        assert_eq!(ei, ev);
    }

    fn fill_nest() -> ScalarProgram {
        ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![2, -1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(zlang::ir::ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Binary(
                            zlang::ast::BinOp::Mul,
                            Box::new(EExpr::Index(0)),
                            Box::new(EExpr::Const(10.0)),
                        )),
                        Box::new(EExpr::Index(1)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        }
    }

    /// `fill_nest`'s binding at `n = 128`: 16384 points, so its ladder
    /// clears the grain (`par::GRAIN`) and fans out.
    fn tiled(sp: &ScalarProgram) -> ConfigBinding {
        let mut b = ConfigBinding::defaults(&sp.program);
        assert!(b.set_by_name(&sp.program, "n", 128));
        b
    }

    #[test]
    fn parallel_vm_is_bit_identical_to_sequential_vm() {
        let sp = fill_nest();
        let b = tiled(&sp);
        let mut seq = Vm::new(&sp, b.clone()).unwrap();
        let os = seq.execute(&mut NoopObserver).unwrap();
        for threads in [1, 2, 3] {
            let mut par = Vm::new(&sp, b.clone()).unwrap();
            par.verify().unwrap();
            par.set_threads(threads);
            assert_eq!(par.threads(), threads);
            let op = par.execute(&mut NoopObserver).unwrap();
            assert_eq!(os, op, "threads={threads}");
            assert_eq!(
                seq.array(zlang::ir::ArrayId(0)),
                par.array(zlang::ir::ArrayId(0))
            );
            assert!(
                !par.tile_stats().is_empty(),
                "the fill nest should fan out (threads={threads})"
            );
            let tiled_points: u64 = par.tile_stats().iter().map(|t| t.stats.points).sum();
            assert_eq!(tiled_points, op.stats.points);
        }
    }

    /// At the default `n = 4` the fill nest's ladder is below the grain:
    /// it runs on the coordinator at every width, as the listing says.
    #[test]
    fn a_ladder_below_the_grain_runs_on_the_coordinator() {
        let sp = fill_nest();
        let b = ConfigBinding::defaults(&sp.program);
        let want = Vm::new(&sp, b.clone())
            .unwrap()
            .execute(&mut NoopObserver)
            .unwrap();
        let mut par = Vm::new(&sp, b).unwrap();
        par.verify().unwrap();
        assert!(par.disasm().contains("; tiles: no (work "));
        par.set_threads(3);
        assert_eq!(par.execute(&mut NoopObserver).unwrap(), want);
        assert!(par.tile_stats().is_empty());
    }

    /// A ladder that comes long after the pool went idle (its workers
    /// parked, see `par::SPIN`) fans out like the first one, and so does
    /// the one right behind it.
    #[test]
    fn an_idle_pool_takes_the_next_ladder() {
        let sp = fill_nest();
        let b = tiled(&sp);
        let want = Vm::new(&sp, b.clone())
            .unwrap()
            .execute(&mut NoopObserver)
            .unwrap();
        let mut par = Vm::new(&sp, b).unwrap();
        par.verify().unwrap();
        par.set_threads(3);
        for pause_ms in [5, 0, 5] {
            std::thread::sleep(std::time::Duration::from_millis(pause_ms));
            let got = par.execute(&mut NoopObserver).unwrap();
            assert_eq!(got.scalars, want.scalars);
            assert!(!par.tile_stats().is_empty());
        }
    }

    /// A standalone `ReduceNest` carries no `ParBegin`: only a fused nest's
    /// reductions tile.
    #[test]
    fn standalone_reduce_nests_never_fan_out() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::ReduceNest {
                lhs: ScalarId(0),
                op: zlang::ast::ReduceOp::Sum,
                region: RegionId(0),
                structure: vec![1, 2],
                rhs: EExpr::Index(0),
            }],
        };
        let b = ConfigBinding::defaults(&sp.program);
        let mut seq = Vm::new(&sp, b.clone()).unwrap();
        let os = seq.execute(&mut NoopObserver).unwrap();
        let mut par = Vm::new(&sp, b).unwrap();
        par.set_threads(4);
        let op = par.execute(&mut NoopObserver).unwrap();
        assert_eq!(os, op);
        assert!(par.tile_stats().is_empty());
    }

    #[test]
    fn shared_program_runs_without_recompiling() {
        let sp = fill_nest();
        let b = ConfigBinding::defaults(&sp.program);
        let mut first = Vm::new(&sp, b).unwrap();
        first.verify().unwrap();
        let shared = first.share();
        assert!(shared.is_verified());
        let o1 = first.execute(&mut NoopObserver).unwrap();
        let mut second = Vm::from_shared(&shared);
        assert!(second.is_verified());
        second.set_threads(2);
        let o2 = second.execute(&mut NoopObserver).unwrap();
        assert_eq!(o1, o2);
    }

    /// Every observer call, in order.
    #[derive(Debug, Default, PartialEq)]
    struct Events(Vec<(char, u64)>);

    impl Observer for Events {
        fn load(&mut self, addr: u64) {
            self.0.push(('l', addr));
        }
        fn store(&mut self, addr: u64) {
            self.0.push(('s', addr));
        }
        fn flops(&mut self, n: u64) {
            self.0.push(('f', n));
        }
    }

    /// Arrays `A` and `B` of 8 elements, 8 registers, and three accesses:
    /// `A[i0]`, `B[i0 + 1]` and `A[i0 - 1]`, the last halo-checked.
    fn bundle_code() -> Code {
        use crate::bytecode::{Access, ArrayInfo};
        let access = |arr, const_flat, check| Access {
            arr,
            const_flat,
            strides: [1, 0, 0, 0],
            rank: 1,
            check,
        };
        let halo = Check {
            dims: vec![(0, -1, 0, 8)],
            off: vec![-1],
            arr: ArrayId(0),
        };
        Code {
            accesses: vec![
                access(0, 0, None),
                access(1, 1, None),
                access(0, -1, Some(Box::new(halo))),
            ],
            arrays: ["A", "B"]
                .map(|name| ArrayInfo {
                    name: name.into(),
                    elems: 8,
                    bytes: 64,
                })
                .into(),
            frame: 8,
            ..Code::default()
        }
    }

    /// What `body_op` over `ops` at `i0` leaves, stopping at the first
    /// error: register bits, array contents, counters, observer events,
    /// and that error.
    #[allow(clippy::type_complexity)]
    fn run_body(
        code: &Code,
        ops: impl IntoIterator<Item = Op>,
        i0: i64,
    ) -> (Vec<u64>, Vec<Vec<f64>>, RunStats, Events, Option<ExecError>) {
        let mut regs: Vec<f64> = (0..code.frame).map(|r| 0.5 + 1.25 * r as f64).collect();
        let mut arrays: Vec<Option<VmArray>> = [1.5, -0.25]
            .into_iter()
            .enumerate()
            .map(|(a, scale)| {
                Some(VmArray {
                    base: 4096 * (a as u64 + 1),
                    data: (1..=8).map(|k| scale * k as f64).collect(),
                })
            })
            .collect();
        let idx = [i0, 0, 0, 0];
        let (mut n, mut obs) = (RunStats::default(), Events::default());
        let mut mem = VmMem {
            code,
            arrays: &mut arrays,
        };
        let mut err = None;
        for op in ops {
            match body_op(op, code, &mut regs, &idx, &mut mem, &mut n, &mut obs) {
                Ok(ran) => assert!(ran, "{op:?} is a body op"),
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        let regs = regs.iter().map(|r| r.to_bits()).collect();
        let data = arrays.into_iter().map(|a| a.unwrap().data).collect();
        (regs, data, n, obs, err)
    }

    /// `body_op` runs a superinstruction fused; `Op::parts` says what it
    /// means, and the verifier and the lane analysis read only that. The
    /// two must agree on everything a run can tell.
    #[test]
    fn a_bundle_executes_as_its_parts() {
        use zlang::ast::BinOp::*;
        let cases = [
            Op::LdLdBin {
                op: Mul,
                dst: 2,
                da: 3,
                aa: 0,
                db: 4,
                ab: 1,
            },
            // `da == db`: the second load overwrites the first.
            Op::LdLdBin {
                op: Sub,
                dst: 2,
                da: 3,
                aa: 0,
                db: 3,
                ab: 1,
            },
            // A comparison, into its own first operand; at i0 = 0 the
            // second load's halo check fails after the first load ran.
            Op::LdLdBin {
                op: Lt,
                dst: 3,
                da: 3,
                aa: 1,
                db: 4,
                ab: 2,
            },
            Op::LdBin {
                op: Div,
                dst: 2,
                dl: 3,
                acc: 1,
                other: 5,
                right: false,
            },
            Op::LdBin {
                op: Sub,
                dst: 2,
                dl: 3,
                acc: 0,
                other: 5,
                right: true,
            },
            // `other == dl`: the loaded value on both sides.
            Op::LdBin {
                op: Add,
                dst: 2,
                dl: 3,
                acc: 0,
                other: 3,
                right: false,
            },
            // `a2 == d1`.
            Op::BinBin {
                op1: Add,
                d1: 2,
                a1: 5,
                b1: 6,
                op2: Mul,
                d2: 3,
                a2: 2,
                b2: 7,
            },
            // `b2 == d1`.
            Op::BinBin {
                op1: Ge,
                d1: 2,
                a1: 5,
                b1: 6,
                op2: Sub,
                d2: 3,
                a2: 7,
                b2: 2,
            },
            Op::BinSt {
                op: Div,
                dst: 2,
                a: 5,
                b: 6,
                acc: 1,
            },
            Op::BinSt {
                op: Eq,
                dst: 2,
                a: 5,
                b: 5,
                acc: 0,
            },
            Op::LdSt {
                dst: 2,
                la: 0,
                sa: 1,
            },
            // At i0 = 0 the store's halo check fails after the load ran.
            Op::LdSt {
                dst: 2,
                la: 1,
                sa: 2,
            },
        ];
        let code = bundle_code();
        for i0 in [3, 0] {
            for bundle in cases {
                let fused = run_body(&code, [bundle], i0);
                assert_eq!(
                    fused,
                    run_body(&code, bundle.parts(), i0),
                    "{bundle:?} at i0 = {i0}"
                );
                // A fault is in a second part: the first one's load is
                // the one event before it.
                let checked = |p| matches!(p, Op::Load { acc: 2, .. } | Op::Store { acc: 2, .. });
                let faults = i0 == 0 && bundle.parts().any(checked);
                assert_eq!(fused.4.is_some(), faults, "{bundle:?} at i0 = {i0}");
                if faults {
                    assert_eq!(fused.3 .0.len(), 1, "{bundle:?}");
                }
            }
        }
    }

    #[test]
    fn shared_program_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedProgram>();
        assert_send_sync::<Vm>();
    }
}
