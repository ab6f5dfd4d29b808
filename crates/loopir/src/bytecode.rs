//! Compilation of [`ScalarProgram`] loop nests to flat register bytecode.
//!
//! The tree-walking [`Interp`](crate::Interp) re-discovers everything on
//! every iteration point: region bounds, array strides, bounds checks,
//! expression structure. Under a fixed [`ConfigBinding`] all of that is
//! static, so this pass resolves it once:
//!
//! * **Frame layout** — one flat `f64` register file holds the program
//!   scalars, the contracted-array temps, interned constants (including
//!   config values and reduction identities), and per-statement scratch.
//! * **Access table** — every array reference becomes a precomputed
//!   `const_flat + Σ idx[d]·stride[d]` entry; dimensions collapsed by
//!   dimension contraction get stride 0. When the enclosing loops' index
//!   ranges prove the access in bounds (the common case), the runtime
//!   check is elided entirely; otherwise a checked entry reproduces the
//!   interpreter's "declare a halo?" error exactly.
//! * **Loop protocol** — region loops become `SetIdx`/`IdxStep` pairs with
//!   absolute jump targets and constant bounds; empty regions are resolved
//!   at compile time. `for`/`outer` loops run on dedicated counters.
//!
//! The [`Vm`](crate::Vm) executes the result with bit-identical observable
//! behavior: same scalar results, same [`RunStats`], and the same ordered
//! load/store address stream through the [`Observer`](crate::Observer).

use crate::interp::ExecError;
use crate::ir::{EExpr, ElemRef, LStmt, LoopNest, ScalarProgram};
use std::collections::HashMap;
use zlang::ast::{BinOp, ReduceOp, UnOp};
use zlang::ir::{ArrayId, ConfigBinding, Intrinsic, Offset, ScalarExpr};

/// Maximum region rank the VM supports (the paper's programs are rank ≤ 3).
pub(crate) const MAX_RANK: usize = 4;

/// A register index into the VM's flat `f64` frame.
pub(crate) type Reg = u16;

/// One bytecode operation. All operands are pre-resolved; the only runtime
/// state is the register frame, the index vector, the loop counters, and
/// the array buffers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Op {
    /// `f[dst] = f[a] + f[b]` (dedicated opcode for the hottest operators
    /// so dispatch needs no second match on the operator; likewise
    /// `Sub`/`Mul`/`Div`).
    Add { dst: Reg, a: Reg, b: Reg },
    /// `f[dst] = f[a] - f[b]`.
    Sub { dst: Reg, a: Reg, b: Reg },
    /// `f[dst] = f[a] * f[b]`.
    Mul { dst: Reg, a: Reg, b: Reg },
    /// `f[dst] = f[a] / f[b]`.
    Div { dst: Reg, a: Reg, b: Reg },
    /// `f[dst] = f[a] <op> f[b]` for the remaining (comparison) operators
    /// (flops are batched into [`Op::Tick`]).
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `f[dst] = -f[src]`.
    Neg { dst: Reg, src: Reg },
    /// `f[dst] = f[src]`.
    Mov { dst: Reg, src: Reg },
    /// `f[dst] = intr(f[base..base+n])`.
    Call {
        intr: Intrinsic,
        dst: Reg,
        base: Reg,
        n: u8,
    },
    /// `f[dst] = idx[d] as f64`.
    IdxF { dst: Reg, d: u8 },
    /// `f[dst] = array element` through access-table entry `acc`.
    Load { dst: Reg, acc: u32 },
    /// `array element = f[src]` through access-table entry `acc`.
    Store { acc: u32, src: Reg },
    /// `f[dst] = f[dst] <op> f[src]` (reduction combine, no counters).
    Reduce { op: ReduceOp, dst: Reg, src: Reg },
    /// Per-iteration bookkeeping, fused into one dispatch: count one
    /// iteration point and report the body's `flops` (nest bodies are
    /// straight-line, so the flop count per point is a compile-time
    /// constant; observers accumulate totals, so batching per body is
    /// indistinguishable from the interpreter's per-statement reports).
    Tick { flops: u32 },
    /// `Observer::nest_begin` with the nest at index `nest`.
    NestBegin { nest: u32 },
    /// `Observer::reduce_begin`.
    ReduceBegin,
    /// Marks the following loop ladder as tile-partitionable along the
    /// dimension recorded in [`Code::pars`]`[par]`. A plain sequential run
    /// treats this as a no-op and falls through into the ladder; a
    /// parallel-enabled [`Vm`](crate::Vm) may instead fan the ladder out as
    /// per-tile tasks and resume at the ladder's exit pc.
    ParBegin { par: u32 },
    /// Allocate array `arr` if not yet allocated.
    Alloc { arr: u16 },
    /// `idx[d] = v`.
    SetIdx { d: u8, v: i64 },
    /// `idx[d] += step; if idx[d] != stop jump to head` (region loop back
    /// edge; `stop` is one `step` past the last iterate).
    IdxStep {
        d: u8,
        step: i64,
        stop: i64,
        head: u32,
    },
    /// Initialize counter `ctr` (compile-time constant, non-empty) for an
    /// `Outer` loop.
    CtrInit {
        ctr: u16,
        cur: i64,
        end: i64,
        step: i64,
    },
    /// `idx[d] = ctr value` (Outer loop header; also restores the dim at
    /// each inner nest entry).
    CtrToIdx { d: u8, ctr: u16 },
    /// `f[dst] = ctr value as f64` (`for` loop variable binding).
    CtrToScalar { dst: Reg, ctr: u16 },
    /// Evaluate `for` bounds from registers; jump to `exit` when empty,
    /// otherwise initialize counter `ctr`.
    ForInit {
        ctr: u16,
        lo: Reg,
        hi: Reg,
        down: bool,
        exit: u32,
    },
    /// Counter back edge: step `ctr`; jump to `head` while in range.
    CtrStep { ctr: u16, head: u32 },
    /// Unconditional jump.
    Jmp { target: u32 },
    /// Jump to `target` when `f[cond] == 0.0`.
    JmpIfZero { cond: Reg, target: u32 },
    /// Superinstruction: `f[da] = load(aa); f[db] = load(ab);
    /// f[dst] = f[da] <op> f[db]`. All three constituent writes happen in
    /// order, so the bundle is observably identical to the unfused
    /// sequence (same register facts, same load order, same faults).
    LdLdBin {
        op: BinOp,
        dst: Reg,
        da: Reg,
        aa: u32,
        db: Reg,
        ab: u32,
    },
    /// Superinstruction: `f[dl] = load(acc);
    /// f[dst] = right ? f[other] <op> f[dl] : f[dl] <op> f[other]`.
    LdBin {
        op: BinOp,
        dst: Reg,
        dl: Reg,
        acc: u32,
        other: Reg,
        right: bool,
    },
    /// Superinstruction: two consecutive arithmetic ops, executed in
    /// order (`d1` may feed `a2`/`b2`).
    BinBin {
        op1: BinOp,
        d1: Reg,
        a1: Reg,
        b1: Reg,
        op2: BinOp,
        d2: Reg,
        a2: Reg,
        b2: Reg,
    },
    /// Superinstruction: `f[dst] = f[a] <op> f[b]; store(acc, f[dst])`.
    BinSt {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
        acc: u32,
    },
    /// Superinstruction: `f[dst] = load(la); store(sa, f[dst])`.
    LdSt { dst: Reg, la: u32, sa: u32 },
    /// Marks the innermost loop that immediately follows (its `SetIdx` is
    /// at the next pc) as lane-vectorizable per [`Code::simds`]`[simd]`.
    /// A scalar dispatcher treats this as a no-op and falls through into
    /// the loop; a lane-enabled verified [`Vm`](crate::Vm) executes the
    /// whole range in strips of iterations and resumes at the loop exit -
    /// or, when the loop records [`Rows`], what is left of the enclosing
    /// loop as well, resuming at that loop's exit.
    SimdBegin { simd: u32 },
    /// End of program.
    Halt,
}

impl Op {
    /// The plain ops a superinstruction bundles, in execution order:
    /// `Load`, `Store`, and each arithmetic op as [`bin_op`] encodes it. A
    /// plain op is its own one part.
    ///
    /// This is the one definition of what a bundle means. The verifier,
    /// the lane analysis and the disassembler read bundles only through
    /// it; `vm::body_op` executes them fused, and a test holds the two to
    /// the same registers, memory, counters, observer events and errors.
    #[inline]
    pub(crate) fn parts(self) -> Parts {
        let len = match self {
            Op::LdLdBin { .. } => 3,
            Op::LdBin { .. } | Op::BinBin { .. } | Op::BinSt { .. } | Op::LdSt { .. } => 2,
            _ => 1,
        };
        Parts {
            op: self,
            next: 0,
            len,
        }
    }

    /// Part `k` of [`Op::parts`], for `k` below their count (`Parts::len`):
    /// a plain op is its part 0.
    #[inline]
    fn part(self, k: u8) -> Op {
        match (self, k) {
            (Op::LdLdBin { da, aa, .. }, 0) => Op::Load { dst: da, acc: aa },
            (Op::LdLdBin { db, ab, .. }, 1) => Op::Load { dst: db, acc: ab },
            (
                Op::LdLdBin {
                    op, dst, da, db, ..
                },
                2,
            ) => bin_op(op, dst, da, db),
            (Op::LdBin { dl, acc, .. }, 0) => Op::Load { dst: dl, acc },
            (
                Op::LdBin {
                    op,
                    dst,
                    dl,
                    other,
                    right,
                    ..
                },
                1,
            ) if right => bin_op(op, dst, other, dl),
            (
                Op::LdBin {
                    op, dst, dl, other, ..
                },
                1,
            ) => bin_op(op, dst, dl, other),
            (
                Op::BinBin {
                    op1, d1, a1, b1, ..
                },
                0,
            ) => bin_op(op1, d1, a1, b1),
            (
                Op::BinBin {
                    op2, d2, a2, b2, ..
                },
                1,
            ) => bin_op(op2, d2, a2, b2),
            (Op::BinSt { op, dst, a, b, .. }, 0) => bin_op(op, dst, a, b),
            (Op::BinSt { dst, acc, .. }, 1) => Op::Store { acc, src: dst },
            (Op::LdSt { dst, la, .. }, 0) => Op::Load { dst, acc: la },
            (Op::LdSt { dst, sa, .. }, 1) => Op::Store { acc: sa, src: dst },
            (op, _) => op,
        }
    }

    /// Views the five arithmetic encodings (`Add`, `Sub`, `Mul`, `Div`,
    /// `Bin`) as one `(op, dst, a, b)`.
    pub(crate) fn arith(self) -> Option<(BinOp, Reg, Reg, Reg)> {
        match self {
            Op::Add { dst, a, b } => Some((BinOp::Add, dst, a, b)),
            Op::Sub { dst, a, b } => Some((BinOp::Sub, dst, a, b)),
            Op::Mul { dst, a, b } => Some((BinOp::Mul, dst, a, b)),
            Op::Div { dst, a, b } => Some((BinOp::Div, dst, a, b)),
            Op::Bin { op, dst, a, b } => Some((op, dst, a, b)),
            _ => None,
        }
    }

    /// The one pc operand of a jump or a loop op: `Jmp`'s and
    /// `JmpIfZero`'s target, `IdxStep`'s and `CtrStep`'s head, `ForInit`'s
    /// exit.
    pub(crate) fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jmp { target } | Op::JmpIfZero { target, .. } => Some(target),
            Op::IdxStep { head, .. } | Op::CtrStep { head, .. } => Some(head),
            Op::ForInit { exit, .. } => Some(exit),
            _ => None,
        }
    }
}

/// The iterator [`Op::parts`] returns.
pub(crate) struct Parts {
    op: Op,
    next: u8,
    /// How many parts `op` has.
    len: u8,
}

impl Iterator for Parts {
    type Item = Op;

    #[inline]
    fn next(&mut self) -> Option<Op> {
        if self.next == self.len {
            return None;
        }
        self.next += 1;
        Some(self.op.part(self.next - 1))
    }
}

/// Widest strip of consecutive positions the lane executor runs
/// op-major (the cap on [`SimdInfo::lanes`] and [`Rows::lanes`], which
/// stay `u8`), and the width a run asks for when the caller does not.
pub(crate) const MAX_LANES: usize = 128;

/// Largest intrinsic arity a lane program carries (`select`'s).
pub(crate) const MAX_CALL_ARGS: usize = 3;

/// One entry of a simd loop's broadcast table: a value that is invariant
/// across the loop, filled into every position of its own slot when the
/// loop is entered. Entry `i` owns slot `lane_regs.len() + i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Bcast {
    /// Frame register `r` (a register the body never writes).
    Reg(Reg),
    /// `idx[d] as f64` for a dimension other than the loop's own. In a
    /// run that spans the rows of the enclosing loop, that loop's index
    /// is the one entry that varies: its slot is refilled for every
    /// strip, each row's piece of the strip with that row's index.
    Idx(u8),
}

/// Where a lane op reads an operand: slot `s` of the lane file
/// ([`Src::lane`]), or stream `i` of the run ([`Src::mem`]: its `i`-th
/// memory op in body order, a [`LaneOp::Fold`]) read in place - each row
/// segment of the strip is the array's own elements, never copied into
/// the lane file. One `u16` whose top bit tells the two apart, so that a
/// lane op is 12 bytes (an enum of two `u16` cases would make it 24, and
/// every cached artifact carries its lane programs); `analyze_loop`
/// annotates no loop with [`Src::LIMIT`] slots or streams.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct Src(u16);

impl Src {
    /// Slot and stream numbers stay below this.
    pub(crate) const LIMIT: usize = 1 << 15;

    pub(crate) const fn lane(slot: u16) -> Src {
        Src(slot)
    }

    pub(crate) const fn mem(stream: u16) -> Src {
        Src(stream | Src::LIMIT as u16)
    }

    /// The lane slot, unless the operand is read in place.
    pub(crate) fn slot(self) -> Option<u16> {
        (self.0 < Src::LIMIT as u16).then_some(self.0)
    }

    /// The stream, if the operand is read in place.
    pub(crate) fn stream(self) -> Option<u16> {
        self.0.checked_sub(Src::LIMIT as u16)
    }
}

impl std::fmt::Debug for Src {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.stream() {
            Some(i) => write!(f, "Mem({i})"),
            None => write!(f, "Lane({})", self.0),
        }
    }
}

/// What a lane op computes at one position: the scalar definition each
/// strip kernel reproduces bit for bit, and what an evaluated-once op
/// ([`LaneOp::Once`]) runs as it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Func {
    /// `a <op> b`.
    Bin(BinOp),
    /// `-a`.
    Neg,
    /// `intr(a, ..)`, with the intrinsic's arity.
    Call(Intrinsic),
}

impl Func {
    /// How many operands the function reads.
    pub(crate) fn arity(self) -> usize {
        match self {
            Func::Bin(_) => 2,
            Func::Neg => 1,
            Func::Call(intr) => intr.arity(),
        }
    }

    /// The scalar definition: what the scalar dispatcher computes.
    pub(crate) fn eval(self, x: &[f64]) -> f64 {
        match self {
            Func::Bin(op) => crate::interp::binop(op, x[0], x[1]),
            Func::Neg => -x[0],
            Func::Call(intr) => intr.eval(&x[..intr.arity()]),
        }
    }
}

/// One micro-op of a decoded innermost-loop body, with every operand
/// already resolved to a slot of the lane file or a stream of the run:
/// slots below `lane_regs.len()` hold the registers the body writes (one
/// value per iteration of the strip), the slots after them hold the
/// loop's broadcast table. The superfuse pass emits this form once at
/// compile time, so entering the loop resolves nothing. Position `m` of a
/// strip is one iteration of the loop - of the enclosing loop's row `r`
/// and the loop's own column `c` when the run spans rows, numbered
/// row-major.
///
/// The program moves no value it need not: a load read once and
/// overwritten later is read in place by its reader ([`LaneOp::Fold`],
/// [`Src::mem`]), a register copy is propagated into its readers and
/// gone, and an op whose operands are the same at every position of a
/// run or of a row runs once there ([`LaneOp::Once`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LaneOp {
    /// Per position `m`: `dst[m] = load(acc at the position's indices)`.
    Load { dst: u16, acc: u32 },
    /// A unit-stride load whose one reader takes it in place (a
    /// [`Src::mem`] operand), before anything stores to its array: the
    /// position's load is counted and reported here, in body order, and
    /// nothing is copied.
    Fold { acc: u32 },
    /// Per position `m`: `store(acc at the position's indices, src[m])`.
    Store { acc: u32, src: Src },
    /// Per position `m`: `dst[m] = f(args[0][m], ..)`, the first
    /// `f.arity()` operands.
    Apply {
        f: Func,
        dst: u16,
        args: [Src; MAX_CALL_ARGS],
    },
    /// `f` over lane slots that hold one value across the run, or across
    /// each row of it (`row`: some operand is the enclosing loop's index):
    /// evaluated as a scalar, once per run or per row, and the result
    /// fills `dst` wherever the strip lies in that run or row.
    Once {
        f: Func,
        dst: u16,
        args: [Src; MAX_CALL_ARGS],
        row: bool,
    },
    /// Per position `m`: `dst[m] = src[m]`. Only a copy that cannot be
    /// propagated is left: its source is overwritten before the copy's
    /// last reader runs.
    Mov { dst: u16, src: Src },
    /// Per position `m`: `dst[m] = (start + c·step) as f64`, the loop's
    /// own index at the position's column (other dimensions' `IdxF` read a
    /// [`Bcast::Idx`] slot).
    IdxSeq { dst: u16 },
    /// `f[acc] = f[acc] <op> src[m]` for `m` ascending: the strip is
    /// folded into frame register `acc` in position order, which is the
    /// scalar loops' order, so the result has the scalar loops' bits.
    Reduce { op: ReduceOp, acc: Reg, src: Src },
    /// Count one iteration point and `flops` flops per position.
    Tick { flops: u32 },
}

impl LaneOp {
    /// The lane slot the op writes.
    pub(crate) fn dst(&self) -> Option<u16> {
        match *self {
            LaneOp::Load { dst, .. }
            | LaneOp::Apply { dst, .. }
            | LaneOp::Once { dst, .. }
            | LaneOp::Mov { dst, .. }
            | LaneOp::IdxSeq { dst } => Some(dst),
            LaneOp::Fold { .. }
            | LaneOp::Store { .. }
            | LaneOp::Reduce { .. }
            | LaneOp::Tick { .. } => None,
        }
    }

    /// The operands the op reads.
    pub(crate) fn srcs(&self) -> &[Src] {
        match self {
            LaneOp::Apply { f, args, .. } | LaneOp::Once { f, args, .. } => &args[..f.arity()],
            LaneOp::Store { src, .. } | LaneOp::Mov { src, .. } | LaneOp::Reduce { src, .. } => {
                std::slice::from_ref(src)
            }
            _ => &[],
        }
    }

    /// [`LaneOp::srcs`], to rewrite.
    pub(crate) fn srcs_mut(&mut self) -> &mut [Src] {
        match self {
            LaneOp::Apply { f, args, .. } | LaneOp::Once { f, args, .. } => &mut args[..f.arity()],
            LaneOp::Store { src, .. } | LaneOp::Mov { src, .. } | LaneOp::Reduce { src, .. } => {
                std::slice::from_mut(src)
            }
            _ => &mut [],
        }
    }
}

/// Compile-time description of one lane-vectorizable innermost loop,
/// referenced by [`Op::SimdBegin`].
///
/// The loop occupying pcs `[head, exit)` (body plus its `IdxStep`; the
/// loop's `SetIdx` sits at `head - 1`) is straight-line, touches only
/// check-free accesses, carries no register dependence around its back
/// edge other than reduction accumulators that one `Reduce` each owns
/// outright, and the cross-iteration alias analysis proved that no two
/// accesses to a stored array collide within `lanes` consecutive
/// iterations. Executing strips of up to `lanes` iterations op-major is
/// therefore observably identical to the scalar order: each position
/// computes exactly the scalar iteration's values, bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimdInfo {
    /// The index-vector dimension the loop iterates.
    pub dim: u8,
    /// Widest safe strip proven by the alias analysis (2..=128).
    pub lanes: u8,
    /// First iterate of `dim`.
    pub start: i64,
    /// Iteration direction: `+1` or `-1`.
    pub step: i64,
    /// One `step` past the last iterate.
    pub stop: i64,
    /// pc of the first body op (the op after the loop's `SetIdx`).
    pub head: u32,
    /// pc one past the loop's `IdxStep`.
    pub exit: u32,
    /// The slot-resolved lane program (the loop body as lane micro-ops).
    pub body: Vec<LaneOp>,
    /// Frame register backing each of the first `lane_regs.len()` slots;
    /// after the last strip, `lane_regs[s]` takes slot `s`'s value at the
    /// last iteration, so post-loop code sees exactly the registers a
    /// scalar run would have left - except for the slots in `finals`.
    pub lane_regs: Vec<Reg>,
    /// `(s, from)`: lane slot `s`'s last write is a copy the lane program
    /// propagated away, so its register takes the value of slot `from`,
    /// the slot the copy read, which nothing overwrites after the copy.
    pub finals: Vec<(u16, u16)>,
    /// The broadcast table: what fills each slot past the lane registers.
    pub bcast: Vec<Bcast>,
    /// The enclosing loop a lane run may cover as well, or why it may not.
    pub rows: Result<Rows, NoRows>,
}

/// The loop directly around a simd loop, recorded when the ops around the
/// annotated loop are exactly `SetIdx outer; [SimdBegin; SetIdx inner;
/// body; IdxStep inner]; IdxStep outer`: the outer back edge lands on the
/// `SimdBegin`, nothing else jumps into the nest, and the two loops
/// iterate different dimensions. A lane run entered at the `SimdBegin` may
/// then cover every remaining outer iterate too: positions are numbered
/// row-major over (outer, inner) - the scalar order - and strips of up to
/// `lanes` positions are cut across row ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rows {
    /// The index-vector dimension the enclosing loop iterates.
    pub dim: u8,
    /// First iterate of `dim`.
    pub start: i64,
    /// Iteration direction: `+1` or `-1`.
    pub step: i64,
    /// One `step` past the last iterate.
    pub stop: i64,
    /// pc one past the enclosing loop's `IdxStep`.
    pub exit: u32,
    /// Widest strip of row-major positions proven safe (2..=128): the
    /// least linear distance at which two accesses of one array, at least
    /// one of them a store, touch the same cell. Never above
    /// [`SimdInfo::lanes`], which is the same bound within one row.
    pub lanes: u8,
}

/// Why a simd loop records no [`Rows`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum NoRows {
    /// No region loop encloses the simd loop.
    NoEnclosingLoop,
    /// The enclosing loop's body holds more than the simd loop.
    OtherOps,
    /// Two positions this far apart in row-major order touch the same
    /// cell of a stored array, and a strip must be at least 2 wide.
    Dependence(u32),
}

impl std::fmt::Display for NoRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NoRows::NoEnclosingLoop => f.write_str("no enclosing loop"),
            NoRows::OtherOps => f.write_str("enclosing body has other ops"),
            NoRows::Dependence(d) => write!(f, "row-crossing dependence at distance {d}"),
        }
    }
}

/// Static per-array allocation info (bounds resolved under the binding).
#[derive(Debug, Clone)]
pub(crate) struct ArrayInfo {
    /// Declared name, for error messages.
    pub name: String,
    /// Allocated element count.
    pub elems: usize,
    /// Allocated bytes (`elems * 8`).
    pub bytes: u64,
}

/// A runtime bounds check: per non-collapsed dimension,
/// `(dim, offset, lo, extent)` — the access is legal iff
/// `0 <= idx[dim] + offset - lo < extent` for all entries.
#[derive(Debug, Clone)]
pub(crate) struct Check {
    pub dims: Vec<(u8, i64, i64, i64)>,
    /// The full offset vector, for the error message.
    pub off: Vec<i64>,
    pub arr: ArrayId,
}

/// Compile-time description of one tile-partitionable loop ladder,
/// referenced by [`Op::ParBegin`].
///
/// The ladder occupying pcs `[entry, exit)` iterates a fused cluster whose
/// iteration points are independent along `dim`: the compiler proved that
/// every array written inside the ladder varies along `dim` (nonzero
/// stride) and is only accessed at a single constant offset along `dim`,
/// and that every loop-local temp is written before it is read. Splitting
/// the range of `dim` into contiguous tiles therefore partitions the
/// writes, and executing the tiles in any interleaving is observably
/// identical to the sequential run (the per-element result of each point
/// does not depend on any other tile). A body that reduces does depend on
/// the order of its points, through its accumulators: such a ladder
/// splits only along its outermost loop, where tile order is position
/// order, and lists its accumulators in `folds`.
#[derive(Debug, Clone)]
pub(crate) struct ParInfo {
    /// The index-vector dimension whose range may be partitioned.
    pub dim: u8,
    /// First iterate of `dim` in execution order.
    pub start: i64,
    /// Iteration direction: `+1` or `-1`.
    pub step: i64,
    /// Total number of iterates along `dim` (static, ≥ 2).
    pub extent: i64,
    /// pc of the ladder's first op (the outermost `SetIdx`).
    pub entry: u32,
    /// pc one past the ladder's outermost `IdxStep`.
    pub exit: u32,
    /// The accumulators the ladder's `Reduce`s fold, each under its one
    /// operator, in body order. No other op of the ladder touches them,
    /// so a tile logs its terms instead of folding them, and the logs are
    /// folded in tile order (`crate::par`). Empty for a ladder that does
    /// not reduce.
    pub folds: Vec<(Reg, ReduceOp)>,
    /// The ladder's static work: its iteration points times its body's
    /// ops, less what a reducing ladder's serial fold costs
    /// ([`ParInfo::work_of`]). Below [`GRAIN`](crate::par::GRAIN) the
    /// ladder runs on the coordinator ([`ParInfo::tiles`]).
    pub work: u64,
}

impl ParInfo {
    /// The static work of a ladder of `points` iteration points whose
    /// body is `body` ops and folds `folds` accumulators. A fold term
    /// costs the ladder one body op's worth of parallel work at
    /// [`FOLD_WEIGHT`](crate::par::FOLD_WEIGHT) per term, because tiles
    /// fold their logs one term after another, in tile order.
    pub fn work_of(points: u64, body: u64, folds: usize) -> u64 {
        let fold = crate::par::FOLD_WEIGHT * folds as u64;
        points.saturating_mul(body.saturating_sub(fold))
    }

    /// Whether the ladder fans out into tiles: its work is at least one
    /// grain. The decision is static, so every thread count makes it
    /// alike and `--print bytecode` shows it.
    pub fn tiles(&self) -> bool {
        self.work >= crate::par::GRAIN
    }
}

/// One resolved array access site.
#[derive(Debug, Clone)]
pub(crate) struct Access {
    /// Index into [`Code::arrays`].
    pub arr: u16,
    /// Flat-index contribution of the offset and region lows.
    pub const_flat: i64,
    /// Row-major strides per dimension (0 for collapsed dimensions).
    pub strides: [i64; MAX_RANK],
    /// Number of leading `strides` entries in use (the array's rank).
    pub rank: u8,
    /// Runtime bounds check, when static analysis could not elide it.
    pub check: Option<Box<Check>>,
}

/// A compiled program: flat bytecode plus its constant tables.
///
/// Immutable once built; the [`Vm`](crate::Vm) holds it behind an `Arc` so
/// runs (and parallel tile tasks) share one copy across threads.
#[derive(Default)]
pub(crate) struct Code {
    pub ops: Vec<Op>,
    pub accesses: Vec<Access>,
    pub arrays: Vec<ArrayInfo>,
    /// How many ids `Op::NestBegin` may name: the program's
    /// [`ScalarProgram::nests`] count.
    pub n_nests: u32,
    /// Ladders referenced by `Op::ParBegin`.
    pub pars: Vec<ParInfo>,
    /// Vectorizable innermost loops referenced by `Op::SimdBegin`
    /// (populated by [`crate::simd::superfuse`]; empty for plain
    /// compiles).
    pub simds: Vec<SimdInfo>,
    /// Initial values for the interned-constant registers.
    pub consts: Vec<f64>,
    pub n_scalars: u16,
    pub const_base: u16,
    /// Total registers in the frame.
    pub frame: u16,
    pub n_ctrs: u16,
}

/// The grain decision of a `par` line: `yes (work 57.6k)`, or
/// `no (work 1.4k < grain)`.
fn tiles_str(p: &ParInfo) -> String {
    let work = match p.work {
        w if w >= 10_000_000 => format!("{:.0}M", w as f64 / 1e6),
        w if w >= 1_000_000 => format!("{:.1}M", w as f64 / 1e6),
        w if w >= 10_000 => format!("{:.0}k", w as f64 / 1e3),
        w if w >= 1_000 => format!("{:.1}k", w as f64 / 1e3),
        w => w.to_string(),
    };
    if p.tiles() {
        format!("yes (work {work})")
    } else {
        format!("no (work {work} < grain)")
    }
}

fn err(message: impl Into<String>) -> ExecError {
    ExecError::lower(message)
}

/// Selects the dedicated opcode for arithmetic operators, falling back to
/// the generic [`Op::Bin`] for comparisons.
fn bin_op(op: BinOp, dst: Reg, a: Reg, b: Reg) -> Op {
    match op {
        BinOp::Add => Op::Add { dst, a, b },
        BinOp::Sub => Op::Sub { dst, a, b },
        BinOp::Mul => Op::Mul { dst, a, b },
        BinOp::Div => Op::Div { dst, a, b },
        _ => Op::Bin { op, dst, a, b },
    }
}

fn reduce_identity(op: ReduceOp) -> f64 {
    match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Prod => 1.0,
        ReduceOp::Max => f64::NEG_INFINITY,
        ReduceOp::Min => f64::INFINITY,
    }
}

/// Per-array static layout used while compiling accesses (not needed at
/// runtime, where `Access` carries everything): the first `rank` entries
/// of each table describe the array's dimensions.
struct Layout {
    lo: [i64; MAX_RANK],
    extent: [i64; MAX_RANK],
    strides: [i64; MAX_RANK],
    /// Bit `d` is set when dimension `d` is collapsed.
    collapsed: u8,
    rank: u8,
}

impl Layout {
    fn collapsed(&self, d: usize) -> bool {
        self.collapsed >> d & 1 != 0
    }
}

/// Hashes an interned constant's bit pattern with one multiply and a fold:
/// the keys are a program's literals, where SipHash's guard against
/// chosen keys buys nothing. The fold matters: small integers and powers
/// of two have all-zero low mantissa bits.
#[derive(Default)]
struct BitsHasher(u64);

impl std::hash::Hasher for BitsHasher {
    fn finish(&self) -> u64 {
        self.0 ^ self.0 >> 32
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v ^ v >> 32).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type ConstRegs = HashMap<u64, Reg, std::hash::BuildHasherDefault<BitsHasher>>;

/// One loop of a static ladder: `(dim, ascending, lo, hi)`.
type LoopSpec = (usize, bool, i64, i64);

struct Compiler<'p> {
    prog: &'p ScalarProgram,
    binding: &'p ConfigBinding,
    ops: Vec<Op>,
    accesses: Vec<Access>,
    arrays: Vec<ArrayInfo>,
    layouts: Vec<Layout>,
    /// Every region's `(lo, hi)` per dimension under the binding,
    /// evaluated once: region `r`'s are
    /// `bounds[bounds_at[r]..bounds_at[r + 1]]`.
    bounds_at: Vec<u32>,
    bounds: Vec<(i64, i64)>,
    /// `prog.nests()`: a nest's index here is the id its `NestBegin`
    /// names. Taken from the program, not counted while compiling, since
    /// a statically empty `Outer` compiles none of its body's nests.
    nests: Vec<&'p LoopNest>,
    pars: Vec<ParInfo>,
    consts: Vec<f64>,
    const_regs: ConstRegs,
    n_scalars: u16,
    temp_base: u16,
    const_base: u16,
    scratch_base: u16,
    /// Next free scratch register (bump-allocated, reset per statement).
    scratch: u32,
    max_scratch: u32,
    n_ctrs: u16,
    /// Compile-time value range of each index-vector slot, if initialized.
    dim_range: [Option<(i64, i64)>; MAX_RANK],
    /// Enclosing `Outer` loops: `(dim, counter, range)`.
    outer_dims: Vec<(u8, u16, (i64, i64))>,
    /// Flops in the statement currently being compiled.
    stmt_flops: u64,
    /// `alloc_mark[a] == alloc_epoch`: the current nest or reduction
    /// already emitted `Alloc` for array `a`.
    alloc_mark: Vec<u32>,
    alloc_epoch: u32,
    /// Reused per nest: its accesses, loads in body order and then stores
    /// ([`Compiler::touch`]), the ladder it emits, and the temps its body
    /// has written so far ([`Compiler::par_dim`]).
    touched: Vec<(ArrayId, &'p Offset)>,
    order: Vec<LoopSpec>,
    defined: Vec<bool>,
}

/// Compiles a scalarized program to bytecode under a config binding.
pub(crate) fn compile(prog: &ScalarProgram, binding: &ConfigBinding) -> Result<Code, ExecError> {
    let n_scalars = prog.program.scalars.len();
    if n_scalars > u16::MAX as usize {
        return Err(err("too many scalars for the VM frame"));
    }
    let mut c = Compiler {
        prog,
        binding,
        ops: Vec::new(),
        accesses: Vec::new(),
        arrays: Vec::with_capacity(prog.program.arrays.len()),
        layouts: Vec::with_capacity(prog.program.arrays.len()),
        bounds_at: Vec::with_capacity(prog.program.regions.len() + 1),
        bounds: Vec::new(),
        nests: prog.nests(),
        pars: Vec::new(),
        consts: Vec::new(),
        const_regs: ConstRegs::default(),
        n_scalars: n_scalars as u16,
        temp_base: n_scalars as u16,
        const_base: 0,
        scratch_base: 0,
        scratch: 0,
        max_scratch: 0,
        n_ctrs: 0,
        dim_range: [None; MAX_RANK],
        outer_dims: Vec::new(),
        stmt_flops: 0,
        alloc_mark: vec![0; prog.program.arrays.len()],
        alloc_epoch: 0,
        touched: Vec::new(),
        order: Vec::new(),
        defined: Vec::new(),
    };
    c.eval_bounds();
    c.build_layouts()?;
    // Interned constants must be placed before compilation starts so their
    // registers sit below the scratch area: collect them in a pre-pass.
    c.collect_consts(&prog.stmts);
    let max_temps = c.nests.iter().map(|n| n.temps).max().unwrap_or(0);
    let const_base = c.temp_base as u32 + max_temps;
    let scratch_base = const_base + c.consts.len() as u32;
    if scratch_base > u16::MAX as u32 {
        return Err(err("register frame overflow"));
    }
    c.const_base = const_base as u16;
    c.scratch_base = scratch_base as u16;

    c.compile_stmts(&prog.stmts)?;
    c.emit(Op::Halt);

    let frame = scratch_base + c.max_scratch;
    if frame > u16::MAX as u32 {
        return Err(err("register frame overflow"));
    }
    Ok(Code {
        ops: c.ops,
        accesses: c.accesses,
        arrays: c.arrays,
        n_nests: c.nests.len() as u32,
        pars: c.pars,
        simds: Vec::new(),
        consts: c.consts,
        n_scalars: c.n_scalars,
        const_base: c.const_base,
        frame: frame as u16,
        n_ctrs: c.n_ctrs,
    })
}

/// Appends every array load in `e` to `out`, in evaluation order.
fn loads_in<'e>(e: &'e EExpr, out: &mut Vec<(ArrayId, &'e Offset)>) {
    match e {
        EExpr::Load(a, off) => out.push((*a, off)),
        EExpr::Unary(_, inner) => loads_in(inner, out),
        EExpr::Binary(_, l, r) => {
            loads_in(l, out);
            loads_in(r, out);
        }
        EExpr::Call(_, args) => {
            for a in args {
                loads_in(a, out);
            }
        }
        EExpr::Temp(_)
        | EExpr::ScalarRef(_)
        | EExpr::ConfigRef(_)
        | EExpr::Const(_)
        | EExpr::Index(_) => {}
    }
}

/// Visits every leaf of `e`: loads, temps, scalars, configs, constants
/// and indices.
fn leaves(e: &EExpr, f: &mut impl FnMut(&EExpr)) {
    match e {
        EExpr::Unary(_, inner) => leaves(inner, f),
        EExpr::Binary(_, l, r) => {
            leaves(l, f);
            leaves(r, f);
        }
        EExpr::Call(_, args) => {
            for a in args {
                leaves(a, f);
            }
        }
        leaf => f(leaf),
    }
}

impl<'p> Compiler<'p> {
    fn emit(&mut self, op: Op) -> u32 {
        self.ops.push(op);
        (self.ops.len() - 1) as u32
    }

    fn here(&self) -> u32 {
        self.ops.len() as u32
    }

    /// The run-time value of a config variable (mirrors the interpreter:
    /// integer configs come from the binding, float configs are constants).
    fn config_value(&self, c: zlang::ir::ConfigId) -> f64 {
        let d = &self.prog.program.configs[c.0 as usize];
        if d.ty == zlang::ast::Type::Int {
            self.binding.get(c) as f64
        } else {
            d.default
        }
    }

    /// Evaluates every region's bounds under the binding, once.
    fn eval_bounds(&mut self) {
        for r in &self.prog.program.regions {
            self.bounds_at.push(self.bounds.len() as u32);
            let b = self.binding;
            self.bounds
                .extend(r.extents.iter().map(|e| (e.lo.eval(b), e.hi.eval(b))));
        }
        self.bounds_at.push(self.bounds.len() as u32);
    }

    fn region_bounds(&self, r: zlang::ir::RegionId) -> &[(i64, i64)] {
        let r = r.0 as usize;
        &self.bounds[self.bounds_at[r] as usize..self.bounds_at[r + 1] as usize]
    }

    // ---- frame layout -----------------------------------------------------

    /// Resolves every array's allocation layout (mirroring the
    /// interpreter's `ensure_alloc` exactly, including collapsed dims).
    fn build_layouts(&mut self) -> Result<(), ExecError> {
        for (i, decl) in self.prog.program.arrays.iter().enumerate() {
            if i > u16::MAX as usize {
                return Err(err("too many arrays for the VM"));
            }
            let bounds = self.region_bounds(decl.region);
            if bounds.len() > MAX_RANK {
                return Err(err(format!(
                    "array `{}` has rank {} > {MAX_RANK} (unsupported by the VM)",
                    decl.name,
                    bounds.len()
                )));
            }
            let mut lay = Layout {
                lo: [0; MAX_RANK],
                extent: [0; MAX_RANK],
                strides: [0; MAX_RANK],
                collapsed: 0,
                rank: bounds.len() as u8,
            };
            let mut n: i64 = 1;
            for (d, &(l, h)) in bounds.iter().enumerate() {
                let e = (h - l + 1).max(0);
                let is_collapsed = decl.collapsed.contains(&(d as u8));
                lay.lo[d] = l;
                lay.extent[d] = if is_collapsed { e.min(1) } else { e };
                if is_collapsed {
                    lay.collapsed |= 1 << d;
                } else {
                    n = n.saturating_mul(e);
                }
            }
            // Row-major strides over the non-collapsed extents; collapsed
            // dimensions contribute stride 0 so their index is ignored.
            let mut running = 1i64;
            for d in (0..bounds.len()).rev() {
                if !lay.collapsed(d) {
                    lay.strides[d] = running;
                    running = running.saturating_mul(lay.extent[d]);
                }
            }
            self.arrays.push(ArrayInfo {
                name: decl.name.clone(),
                elems: n as usize,
                bytes: (n as u64) * 8,
            });
            self.layouts.push(lay);
        }
        Ok(())
    }

    // ---- constant interning ----------------------------------------------

    fn intern(&mut self, v: f64) {
        let next = self.consts.len() as Reg;
        if let std::collections::hash_map::Entry::Vacant(e) = self.const_regs.entry(v.to_bits()) {
            e.insert(next);
            self.consts.push(v);
        }
    }

    fn const_reg(&self, v: f64) -> Reg {
        self.const_base + self.const_regs[&v.to_bits()]
    }

    fn collect_consts(&mut self, stmts: &[LStmt]) {
        for s in stmts {
            match s {
                LStmt::Nest(n) => {
                    for st in &n.body {
                        self.collect_econsts(&st.rhs);
                    }
                }
                LStmt::Scalar { rhs, .. } => self.collect_sconsts(rhs),
                LStmt::ReduceNest { op, rhs, .. } => {
                    self.intern(reduce_identity(*op));
                    self.collect_econsts(rhs);
                }
                LStmt::Outer { body, .. } => self.collect_consts(body),
                LStmt::For { lo, hi, body, .. } => {
                    self.collect_sconsts(lo);
                    self.collect_sconsts(hi);
                    self.collect_consts(body);
                }
                LStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    self.collect_sconsts(cond);
                    self.collect_consts(then_body);
                    self.collect_consts(else_body);
                }
            }
        }
    }

    fn collect_econsts(&mut self, e: &EExpr) {
        match e {
            EExpr::Const(v) => self.intern(*v),
            EExpr::ConfigRef(c) => self.intern(self.config_value(*c)),
            EExpr::Unary(_, inner) => self.collect_econsts(inner),
            EExpr::Binary(_, l, r) => {
                self.collect_econsts(l);
                self.collect_econsts(r);
            }
            EExpr::Call(_, args) => {
                for a in args {
                    self.collect_econsts(a);
                }
            }
            EExpr::Load(..) | EExpr::Temp(_) | EExpr::ScalarRef(_) | EExpr::Index(_) => {}
        }
    }

    fn collect_sconsts(&mut self, e: &ScalarExpr) {
        match e {
            ScalarExpr::Const(v) => self.intern(*v),
            ScalarExpr::ConfigRef(c) => self.intern(self.config_value(*c)),
            ScalarExpr::Unary(_, inner) => self.collect_sconsts(inner),
            ScalarExpr::Binary(_, l, r) => {
                self.collect_sconsts(l);
                self.collect_sconsts(r);
            }
            ScalarExpr::Call(_, args) => {
                for a in args {
                    self.collect_sconsts(a);
                }
            }
            ScalarExpr::ScalarRef(_) => {}
        }
    }

    // ---- scratch allocation ----------------------------------------------

    fn alloc_scratch(&mut self) -> Result<Reg, ExecError> {
        let r = self.scratch_base as u32 + self.scratch;
        self.scratch += 1;
        self.max_scratch = self.max_scratch.max(self.scratch);
        if r > u16::MAX as u32 {
            return Err(err("register frame overflow"));
        }
        Ok(r as Reg)
    }

    // ---- accesses ---------------------------------------------------------

    /// Resolves an array access site: flat-index affine form plus a bounds
    /// check unless the current loop ranges prove it in bounds.
    fn make_access(&mut self, a: ArrayId, off: &Offset) -> Result<u32, ExecError> {
        let lay = &self.layouts[a.0 as usize];
        let rank = lay.rank as usize;
        if off.0.len() < rank {
            return Err(err(format!(
                "offset rank mismatch on array `{}`",
                self.arrays[a.0 as usize].name
            )));
        }
        let mut const_flat = 0i64;
        let mut strides = [0i64; MAX_RANK];
        let mut need_check = false;
        // Indexing several parallel per-dimension tables; an iterator chain
        // over one of them would only obscure that.
        #[allow(clippy::needless_range_loop)]
        for d in 0..rank {
            if lay.collapsed(d) {
                continue;
            }
            const_flat += lay.strides[d] * (off.0[d] - lay.lo[d]);
            strides[d] = lay.strides[d];
            let Some((mn, mx)) = self.dim_range[d] else {
                return Err(err(format!(
                    "array `{}` has rank {} but the enclosing nest binds fewer dimensions",
                    self.arrays[a.0 as usize].name, rank
                )));
            };
            let lo_i = mn + off.0[d] - lay.lo[d];
            let hi_i = mx + off.0[d] - lay.lo[d];
            if lo_i < 0 || hi_i >= lay.extent[d] {
                need_check = true;
            }
        }
        // Only an access the loop ranges cannot prove keeps its check.
        let check = need_check.then(|| {
            let dims = (0..rank).filter(|&d| !lay.collapsed(d));
            Box::new(Check {
                dims: dims
                    .map(|d| (d as u8, off.0[d], lay.lo[d], lay.extent[d]))
                    .collect(),
                off: off.0.clone(),
                arr: a,
            })
        });
        let id = self.accesses.len() as u32;
        self.accesses.push(Access {
            arr: a.0 as u16,
            const_flat,
            strides,
            rank: rank as u8,
            check,
        });
        Ok(id)
    }

    // ---- element expressions ----------------------------------------------

    /// Returns a register holding the expression's value, using an existing
    /// register when the expression is a direct reference.
    fn operand(&mut self, e: &EExpr) -> Result<Reg, ExecError> {
        match e {
            EExpr::ScalarRef(s) => Ok(s.0 as Reg),
            EExpr::Temp(t) => Ok(self.temp_base + t.0 as Reg),
            EExpr::Const(v) => Ok(self.const_reg(*v)),
            EExpr::ConfigRef(c) => Ok(self.const_reg(self.config_value(*c))),
            _ => {
                let r = self.alloc_scratch()?;
                self.compile_expr_into(e, r)?;
                Ok(r)
            }
        }
    }

    fn compile_expr_into(&mut self, e: &EExpr, dst: Reg) -> Result<(), ExecError> {
        match e {
            EExpr::Load(a, off) => {
                let acc = self.make_access(*a, off)?;
                self.emit(Op::Load { dst, acc });
            }
            EExpr::Temp(t) => {
                self.emit(Op::Mov {
                    dst,
                    src: self.temp_base + t.0 as Reg,
                });
            }
            EExpr::ScalarRef(s) => {
                self.emit(Op::Mov {
                    dst,
                    src: s.0 as Reg,
                });
            }
            EExpr::ConfigRef(c) => {
                let src = self.const_reg(self.config_value(*c));
                self.emit(Op::Mov { dst, src });
            }
            EExpr::Const(v) => {
                let src = self.const_reg(*v);
                self.emit(Op::Mov { dst, src });
            }
            EExpr::Index(d) => {
                self.emit(Op::IdxF { dst, d: *d });
            }
            EExpr::Unary(UnOp::Neg, inner) => {
                let src = self.operand(inner)?;
                self.emit(Op::Neg { dst, src });
                self.stmt_flops += 1;
            }
            EExpr::Binary(op, l, r) => {
                let a = self.operand(l)?;
                let b = self.operand(r)?;
                self.emit(bin_op(*op, dst, a, b));
                self.stmt_flops += 1;
            }
            EExpr::Call(i, args) => {
                // Arguments live in consecutive scratch registers; reserve
                // the block first so nested evaluation does not interleave.
                let base = self.alloc_scratch()?;
                for _ in 1..args.len() {
                    self.alloc_scratch()?;
                }
                for (k, a) in args.iter().enumerate() {
                    self.compile_expr_into(a, base + k as Reg)?;
                }
                self.emit(Op::Call {
                    intr: *i,
                    dst,
                    base,
                    n: args.len() as u8,
                });
                self.stmt_flops += 1;
            }
        }
        Ok(())
    }

    // ---- scalar expressions -----------------------------------------------

    fn soperand(&mut self, e: &ScalarExpr) -> Result<Reg, ExecError> {
        match e {
            ScalarExpr::ScalarRef(s) => Ok(s.0 as Reg),
            ScalarExpr::Const(v) => Ok(self.const_reg(*v)),
            ScalarExpr::ConfigRef(c) => Ok(self.const_reg(self.config_value(*c))),
            _ => {
                let r = self.alloc_scratch()?;
                self.compile_sexpr_into(e, r)?;
                Ok(r)
            }
        }
    }

    /// Scalar expressions count no flops (mirroring the interpreter, where
    /// scalar control-flow arithmetic is free).
    fn compile_sexpr_into(&mut self, e: &ScalarExpr, dst: Reg) -> Result<(), ExecError> {
        match e {
            ScalarExpr::Const(v) => {
                let src = self.const_reg(*v);
                self.emit(Op::Mov { dst, src });
            }
            ScalarExpr::ScalarRef(s) => {
                self.emit(Op::Mov {
                    dst,
                    src: s.0 as Reg,
                });
            }
            ScalarExpr::ConfigRef(c) => {
                let src = self.const_reg(self.config_value(*c));
                self.emit(Op::Mov { dst, src });
            }
            ScalarExpr::Unary(UnOp::Neg, inner) => {
                let src = self.soperand(inner)?;
                self.emit(Op::Neg { dst, src });
            }
            ScalarExpr::Binary(op, l, r) => {
                let a = self.soperand(l)?;
                let b = self.soperand(r)?;
                self.emit(bin_op(*op, dst, a, b));
            }
            ScalarExpr::Call(i, args) => {
                let base = self.alloc_scratch()?;
                for _ in 1..args.len() {
                    self.alloc_scratch()?;
                }
                for (k, a) in args.iter().enumerate() {
                    self.compile_sexpr_into(a, base + k as Reg)?;
                }
                self.emit(Op::Call {
                    intr: *i,
                    dst,
                    base,
                    n: args.len() as u8,
                });
            }
        }
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    fn compile_stmts(&mut self, stmts: &'p [LStmt]) -> Result<(), ExecError> {
        for s in stmts {
            match s {
                LStmt::Nest(n) => self.compile_nest(n)?,
                LStmt::Scalar { lhs, rhs } => {
                    let cp = self.scratch;
                    self.compile_sexpr_into(rhs, lhs.0 as Reg)?;
                    self.scratch = cp;
                }
                LStmt::ReduceNest {
                    lhs,
                    op,
                    region,
                    structure: _,
                    rhs,
                } => {
                    self.compile_reduce(lhs.0 as Reg, *op, *region, rhs)?;
                }
                LStmt::Outer {
                    region,
                    dim,
                    reverse,
                    body,
                } => {
                    self.compile_outer(*region, *dim, *reverse, body)?;
                }
                LStmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                } => {
                    self.compile_for(var.0 as Reg, lo, hi, *down, body)?;
                }
                LStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let cp = self.scratch;
                    let c = self.soperand(cond)?;
                    self.scratch = cp;
                    let jz = self.emit(Op::JmpIfZero { cond: c, target: 0 });
                    self.compile_stmts(then_body)?;
                    if else_body.is_empty() {
                        let end = self.here();
                        self.patch_jump(jz, end);
                    } else {
                        let jend = self.emit(Op::Jmp { target: 0 });
                        let else_at = self.here();
                        self.patch_jump(jz, else_at);
                        self.compile_stmts(else_body)?;
                        let end = self.here();
                        self.patch_jump(jend, end);
                    }
                }
            }
        }
        Ok(())
    }

    fn patch_jump(&mut self, at: u32, to: u32) {
        match &mut self.ops[at as usize] {
            Op::Jmp { target } | Op::JmpIfZero { target, .. } => *target = to,
            Op::ForInit { exit, .. } => *exit = to,
            _ => unreachable!("patching a non-jump"),
        }
    }

    fn alloc_ctr(&mut self) -> Result<u16, ExecError> {
        let c = self.n_ctrs;
        self.n_ctrs = self
            .n_ctrs
            .checked_add(1)
            .ok_or_else(|| err("too many loops"))?;
        Ok(c)
    }

    /// Emits dedup'd `Alloc` ops for every array a nest or reduction
    /// touches, in the interpreter's order: loads first, then stores,
    /// first occurrence wins.
    fn emit_allocs(&mut self, touched: &[(ArrayId, &Offset)]) {
        self.alloc_epoch += 1;
        for &(a, _) in touched {
            let mark = &mut self.alloc_mark[a.0 as usize];
            if *mark != self.alloc_epoch {
                *mark = self.alloc_epoch;
                self.emit(Op::Alloc { arr: a.0 as u16 });
            }
        }
    }

    /// Collects a nest's accesses into `touched`: its loads in body order,
    /// then its stores. Returns how many are loads.
    fn touch(nest: &'p LoopNest, touched: &mut Vec<(ArrayId, &'p Offset)>) -> usize {
        touched.clear();
        for s in &nest.body {
            loads_in(&s.rhs, touched);
        }
        let loads = touched.len();
        touched.extend(nest.body.iter().filter_map(|s| match &s.target {
            ElemRef::Array(a, off) => Some((*a, off)),
            ElemRef::Temp(_) | ElemRef::Reduce(..) => None,
        }));
        loads
    }

    /// Emits a static counted-loop ladder over `order` (outermost first),
    /// with `body` compiled at the innermost level. Records each
    /// dimension's value range for bounds-check elision.
    fn emit_static_loops(
        &mut self,
        order: &[LoopSpec],
        body: &mut dyn FnMut(&mut Self) -> Result<(), ExecError>,
    ) -> Result<(), ExecError> {
        match order.first() {
            None => body(self),
            Some(&(d, up, lo, hi)) => {
                self.dim_range[d] = Some((lo, hi));
                let (start, step, last) = if up { (lo, 1, hi) } else { (hi, -1, lo) };
                self.emit(Op::SetIdx {
                    d: d as u8,
                    v: start,
                });
                let head = self.here();
                self.emit_static_loops(&order[1..], body)?;
                self.emit(Op::IdxStep {
                    d: d as u8,
                    step,
                    stop: last + step,
                    head,
                });
                Ok(())
            }
        }
    }

    fn compile_nest(&mut self, nest: &'p LoopNest) -> Result<(), ExecError> {
        let mut touched = std::mem::take(&mut self.touched);
        let loads = Self::touch(nest, &mut touched);
        self.emit_allocs(&touched);
        let nest_id = crate::ir::nest_id(&self.nests, nest);
        self.emit(Op::NestBegin { nest: nest_id });

        let full_rank = self.region_bounds(nest.region).len();
        if full_rank > MAX_RANK {
            return Err(err(format!(
                "region rank {full_rank} > {MAX_RANK} (unsupported by the VM)"
            )));
        }
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        let bounds = self.region_bounds(nest.region);
        order.extend(nest.structure.iter().map(|&p| {
            let dim = (p.unsigned_abs() as usize) - 1;
            let (lo, hi) = bounds[dim];
            (dim, p > 0, lo, hi)
        }));
        if order.iter().all(|&(_, _, lo, hi)| hi >= lo) {
            self.compile_ladder(nest, &order, &touched, loads)?;
        } // else the region is empty: the nest body never runs
        self.order = order;
        self.touched = touched;
        Ok(())
    }

    /// The non-empty ladder of `nest` over `order`, its accesses
    /// `touched` (the first `loads` of them loads).
    fn compile_ladder(
        &mut self,
        nest: &'p LoopNest,
        order: &[LoopSpec],
        touched: &[(ArrayId, &Offset)],
        loads: usize,
    ) -> Result<(), ExecError> {
        let saved = self.dim_range;
        // Dimensions the structure does not iterate: bound by an enclosing
        // Outer loop, or pinned to 0 (the interpreter's fresh-index rule).
        let structured = order.iter().fold(0u32, |m, &(d, ..)| m | 1 << d);
        for d in 0..self.region_bounds(nest.region).len() {
            if structured >> d & 1 != 0 {
                continue;
            }
            if let Some(&(od, ctr, range)) = self
                .outer_dims
                .iter()
                .rev()
                .find(|&&(od, _, _)| od as usize == d)
            {
                self.emit(Op::CtrToIdx { d: od, ctr });
                self.dim_range[d] = Some(range);
            } else {
                self.emit(Op::SetIdx { d: d as u8, v: 0 });
                self.dim_range[d] = Some((0, 0));
            }
        }

        let par = self.par_dim(nest, order, touched, loads).map(|info| {
            let id = self.pars.len() as u32;
            self.pars.push(info);
            self.emit(Op::ParBegin { par: id });
            self.pars[id as usize].entry = self.here();
            id
        });
        self.emit_static_loops(order, &mut |c| c.compile_nest_body(nest))?;
        if let Some(id) = par {
            let exit = self.here();
            let p = &mut self.pars[id as usize];
            p.exit = exit;
            // The ladder is a perfect nest: a `SetIdx` and an `IdxStep` per
            // loop around the body.
            let body = u64::from(p.exit - p.entry) - 2 * order.len() as u64;
            let points = order
                .iter()
                .map(|&(_, _, lo, hi)| (hi - lo + 1) as u64)
                .product();
            p.work = ParInfo::work_of(points, body, p.folds.len());
        }
        self.dim_range = saved;
        Ok(())
    }

    /// Decides whether `nest`'s ladder may be tile-partitioned, and along
    /// which dimension. Returns the outermost structured dimension `d`
    /// (extent ≥ 2) such that splitting `d`'s range keeps every tile's
    /// reads and writes confined to its own slice of every written array:
    ///
    /// * every array the nest writes has a nonzero layout stride along `d`
    ///   (a collapsed or absent dimension would alias every tile onto the
    ///   same elements), and
    /// * all accesses to a written array agree on a single constant offset
    ///   along `d` (offsets along *other* dimensions are free — a column
    ///   stencil still row-parallelizes).
    ///
    /// Independently of the dimension, every loop-local temp must be
    /// written before it is read so no point depends on another tile's
    /// temp value. A body that reduces has two more obligations, because
    /// IEEE-754 folds are not associative and the tiles' terms must be
    /// folded in exactly the interpreter's order: `d` must be the
    /// outermost loop (tile order is then position order), and each
    /// accumulator must be folded under one operator and touched by no
    /// other statement (so a tile can log its terms, [`ParInfo::folds`]).
    /// Note that clusters fused under the paper's null-distance
    /// contraction test satisfy the access obligations automatically; the
    /// re-check keeps hand-built nests honest.
    ///
    /// `touched` is the nest's accesses, the first `loads` of them loads
    /// and the rest its stores ([`Compiler::touch`]).
    fn par_dim(
        &mut self,
        nest: &LoopNest,
        order: &[LoopSpec],
        touched: &[(ArrayId, &Offset)],
        loads: usize,
    ) -> Option<ParInfo> {
        let defined = &mut self.defined;
        defined.clear();
        defined.resize(nest.temps as usize, false);
        let mut folds: Vec<(Reg, ReduceOp)> = Vec::new();
        for s in &nest.body {
            let mut stale = false;
            leaves(&s.rhs, &mut |e| {
                if let EExpr::Temp(t) = e {
                    stale |= !defined.get(t.0 as usize).copied().unwrap_or(false);
                }
            });
            if stale {
                return None;
            }
            match &s.target {
                ElemRef::Reduce(acc, op) => {
                    let acc = acc.0 as Reg;
                    match folds.iter().find(|&&(a, _)| a == acc) {
                        None => folds.push((acc, *op)),
                        Some(&(_, first)) if first != *op => return None,
                        Some(_) => {}
                    }
                }
                ElemRef::Temp(t) => {
                    let t = t.0 as usize;
                    if t >= defined.len() {
                        defined.resize(t + 1, false);
                    }
                    defined[t] = true;
                }
                ElemRef::Array(..) => {}
            }
        }
        let mut reads_acc = false;
        for s in &nest.body {
            leaves(&s.rhs, &mut |e| {
                if let EExpr::ScalarRef(v) = e {
                    reads_acc |= folds.iter().any(|&(a, _)| a == v.0 as Reg);
                }
            });
        }
        if reads_acc {
            return None;
        }
        let dims = if folds.is_empty() {
            order
        } else {
            &order[..order.len().min(1)]
        };
        let at = |off: &Offset, d: usize| off.0.get(d).copied().unwrap_or(0);
        'dims: for &(d, up, lo, hi) in dims {
            let extent = hi - lo + 1;
            if extent < 2 {
                continue;
            }
            for &(a, stored) in &touched[loads..] {
                let lay = &self.layouts[a.0 as usize];
                if lay.strides.get(d).copied().unwrap_or(0) == 0 {
                    continue 'dims;
                }
                let want = at(stored, d);
                if touched.iter().any(|&(b, off)| b == a && at(off, d) != want) {
                    continue 'dims;
                }
            }
            return Some(ParInfo {
                dim: d as u8,
                start: if up { lo } else { hi },
                step: if up { 1 } else { -1 },
                extent,
                entry: 0,
                exit: 0,
                folds,
                work: 0,
            });
        }
        None
    }

    fn compile_nest_body(&mut self, nest: &LoopNest) -> Result<(), ExecError> {
        let mut body_flops: u64 = 0;
        for stmt in &nest.body {
            let cp = self.scratch;
            self.stmt_flops = 0;
            match &stmt.target {
                ElemRef::Array(a, off) => {
                    let v = self.operand(&stmt.rhs)?;
                    let acc = self.make_access(*a, off)?;
                    self.emit(Op::Store { acc, src: v });
                }
                ElemRef::Temp(t) => {
                    let dst = self.temp_base + t.0 as Reg;
                    self.compile_expr_into(&stmt.rhs, dst)?;
                }
                ElemRef::Reduce(s, op) => {
                    let v = self.operand(&stmt.rhs)?;
                    self.emit(Op::Reduce {
                        op: *op,
                        dst: s.0 as Reg,
                        src: v,
                    });
                    self.stmt_flops += 1;
                }
            }
            body_flops += self.stmt_flops;
            self.scratch = cp;
        }
        self.emit(Op::Tick {
            flops: body_flops.min(u32::MAX as u64) as u32,
        });
        Ok(())
    }

    fn compile_reduce(
        &mut self,
        lhs: Reg,
        op: ReduceOp,
        region: zlang::ir::RegionId,
        rhs: &'p EExpr,
    ) -> Result<(), ExecError> {
        let mut touched = std::mem::take(&mut self.touched);
        touched.clear();
        loads_in(rhs, &mut touched);
        self.emit_allocs(&touched);
        self.touched = touched;
        self.emit(Op::ReduceBegin);

        let rank = self.region_bounds(region).len();
        if rank > MAX_RANK {
            return Err(err(format!(
                "region rank {rank} > {MAX_RANK} (unsupported by the VM)"
            )));
        }
        let cp = self.scratch;
        let acc = self.alloc_scratch()?;
        self.emit(Op::Mov {
            dst: acc,
            src: self.const_reg(reduce_identity(op)),
        });
        let mut order = std::mem::take(&mut self.order);
        order.clear();
        // Standalone reductions iterate every region dimension in
        // increasing row-major order, ignoring the structure vector
        // (reductions are order-insensitive by language definition).
        let bounds = self.region_bounds(region);
        order.extend((0..rank).map(|d| (d, true, bounds[d].0, bounds[d].1)));
        if order.iter().all(|&(_, _, lo, hi)| hi >= lo) {
            let saved = self.dim_range;
            self.emit_static_loops(&order, &mut |c| {
                let icp = c.scratch;
                c.stmt_flops = 0;
                let v = c.operand(rhs)?;
                c.emit(Op::Reduce {
                    op,
                    dst: acc,
                    src: v,
                });
                c.stmt_flops += 1;
                c.emit(Op::Tick {
                    flops: c.stmt_flops.min(u32::MAX as u64) as u32,
                });
                c.scratch = icp;
                Ok(())
            })?;
            self.dim_range = saved;
        }
        self.order = order;
        self.emit(Op::Mov { dst: lhs, src: acc });
        self.scratch = cp;
        Ok(())
    }

    fn compile_outer(
        &mut self,
        region: zlang::ir::RegionId,
        dim: u8,
        reverse: bool,
        body: &'p [LStmt],
    ) -> Result<(), ExecError> {
        let (lo, hi) = self.region_bounds(region)[dim as usize];
        if hi < lo {
            return Ok(()); // statically empty
        }
        let ctr = self.alloc_ctr()?;
        let (start, step, last) = if reverse { (hi, -1, lo) } else { (lo, 1, hi) };
        self.emit(Op::CtrInit {
            ctr,
            cur: start,
            end: last,
            step,
        });
        let head = self.here();
        self.emit(Op::CtrToIdx { d: dim, ctr });
        self.outer_dims.push((dim, ctr, (lo, hi)));
        let saved = self.dim_range;
        self.dim_range[dim as usize] = Some((lo, hi));
        let r = self.compile_stmts(body);
        self.dim_range = saved;
        self.outer_dims.pop();
        r?;
        self.emit(Op::CtrStep { ctr, head });
        Ok(())
    }

    fn compile_for(
        &mut self,
        var: Reg,
        lo: &ScalarExpr,
        hi: &ScalarExpr,
        down: bool,
        body: &'p [LStmt],
    ) -> Result<(), ExecError> {
        let cp = self.scratch;
        let lo_r = self.soperand(lo)?;
        let hi_r = self.soperand(hi)?;
        let ctr = self.alloc_ctr()?;
        let init = self.emit(Op::ForInit {
            ctr,
            lo: lo_r,
            hi: hi_r,
            down,
            exit: 0,
        });
        // The bound registers are consumed by ForInit; free them before the
        // body so loop bodies do not stack scratch.
        self.scratch = cp;
        let head = self.here();
        self.emit(Op::CtrToScalar { dst: var, ctr });
        self.compile_stmts(body)?;
        self.emit(Op::CtrStep { ctr, head });
        let end = self.here();
        self.patch_jump(init, end);
        Ok(())
    }
}

// ---- disassembly ----------------------------------------------------------

fn binop_sym(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
    }
}

/// Renders an access-table entry's affine flat-index form with every
/// immediate offset spelled out: `@3 = B[17 + 256*i0 + 1*i1]`, with a
/// ` [checked]` suffix when the runtime bounds check was not elided.
fn acc_str(code: &Code, acc: u32) -> String {
    let a = &code.accesses[acc as usize];
    let name = &code.arrays[a.arr as usize].name;
    let mut flat = format!("{}", a.const_flat);
    for d in 0..a.rank as usize {
        if a.strides[d] != 0 {
            flat.push_str(&format!(" + {}*i{}", a.strides[d], d));
        }
    }
    let chk = if a.check.is_some() { " [checked]" } else { "" };
    format!("@{acc} = {name}[{flat}]{chk}")
}

/// One lane op of a `--print bytecode` listing, or `None` for a load its
/// reader takes in place: the reader shows it, as `@acc` (`accs` maps the
/// run's streams to access-table entries).
fn lane_op_str(dim: u8, accs: &[u32], op: &LaneOp) -> Option<String> {
    let src = |s: Src| match s.stream() {
        Some(i) => format!("@{}", accs[i as usize]),
        None => format!("l{}", s.0),
    };
    let apply = |f: Func, args: &[Src]| match f {
        Func::Bin(op) => format!("{} {} {}", src(args[0]), binop_sym(op), src(args[1])),
        Func::Neg => format!("-{}", src(args[0])),
        Func::Call(intr) => format!(
            "{intr:?}({})",
            args[..intr.arity()]
                .iter()
                .map(|&a| src(a))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    };
    Some(match *op {
        LaneOp::Load { dst, acc } => format!("l{dst} = load @{acc}"),
        LaneOp::Fold { .. } => return None,
        LaneOp::Store { acc, src: s } => format!("store @{acc}, {}", src(s)),
        LaneOp::Apply { f, dst, args } => format!("l{dst} = {}", apply(f, &args)),
        LaneOp::Once { f, dst, args, row } => format!(
            "per {}: l{dst} = {}",
            if row { "row" } else { "run" },
            apply(f, &args)
        ),
        LaneOp::Mov { dst, src: s } => format!("l{dst} = {}", src(s)),
        LaneOp::IdxSeq { dst } => format!("l{dst} = f64(i{dim})"),
        LaneOp::Reduce { op, acc, src: s } => {
            format!("r{acc} = {op:?}(r{acc}, {}) in order", src(s))
        }
        LaneOp::Tick { flops } => format!("tick flops={flops}"),
    })
}

/// What a tiled ladder folds, for its `par` line: nothing for a ladder
/// that does not reduce.
fn folds_str(folds: &[(Reg, ReduceOp)]) -> String {
    if folds.is_empty() {
        return String::new();
    }
    let each: Vec<String> = folds.iter().map(|(r, op)| format!("r{r} {op:?}")).collect();
    format!(" folds {} in tile order", each.join(", "))
}

/// A superinstruction's line: its mnemonic, and its parts' details joined
/// by `"; "`.
fn bundle_str(code: &Code, op: Op, mnemonic: &'static str) -> (&'static str, String) {
    let details: Vec<String> = op.parts().map(|part| op_str(code, &part).1).collect();
    (mnemonic, details.join("; "))
}

fn op_str(code: &Code, op: &Op) -> (&'static str, String) {
    match *op {
        Op::Add { dst, a, b } => ("add", format!("r{dst} = r{a} + r{b}")),
        Op::Sub { dst, a, b } => ("sub", format!("r{dst} = r{a} - r{b}")),
        Op::Mul { dst, a, b } => ("mul", format!("r{dst} = r{a} * r{b}")),
        Op::Div { dst, a, b } => ("div", format!("r{dst} = r{a} / r{b}")),
        Op::Bin { op, dst, a, b } => ("bin", format!("r{dst} = r{a} {} r{b}", binop_sym(op))),
        Op::Neg { dst, src } => ("neg", format!("r{dst} = -r{src}")),
        Op::Mov { dst, src } => ("mov", format!("r{dst} = r{src}")),
        Op::Call { intr, dst, base, n } => (
            "call",
            format!("r{dst} = {intr:?}(r{base}..r{})", base as u32 + n as u32),
        ),
        Op::IdxF { dst, d } => ("idxf", format!("r{dst} = f64(i{d})")),
        Op::Load { dst, acc } => ("load", format!("r{dst} = load {}", acc_str(code, acc))),
        Op::Store { acc, src } => ("store", format!("store {}, r{src}", acc_str(code, acc))),
        Op::Reduce { op, dst, src } => ("reduce", format!("r{dst} = {op:?}(r{dst}, r{src})")),
        Op::Tick { flops } => ("tick", format!("flops={flops}")),
        Op::NestBegin { nest } => ("nest", format!("begin nest {nest}")),
        Op::ReduceBegin => ("rbegin", "begin reduction".to_string()),
        Op::ParBegin { par } => {
            let p = &code.pars[par as usize];
            (
                "par",
                format!(
                    "p{par}: dim i{} start {} step {} extent {} pcs [{}, {}){}; tiles: {}",
                    p.dim,
                    p.start,
                    p.step,
                    p.extent,
                    p.entry,
                    p.exit,
                    folds_str(&p.folds),
                    tiles_str(p)
                ),
            )
        }
        Op::Alloc { arr } => (
            "alloc",
            format!(
                "a{arr} {} ({} elems)",
                code.arrays[arr as usize].name, code.arrays[arr as usize].elems
            ),
        ),
        Op::SetIdx { d, v } => ("setidx", format!("i{d} = {v}")),
        Op::IdxStep {
            d,
            step,
            stop,
            head,
        } => (
            "idxstep",
            format!("i{d} += {step}; if i{d} != {stop} goto {head}"),
        ),
        Op::CtrInit {
            ctr,
            cur,
            end,
            step,
        } => ("ctrinit", format!("c{ctr} = {cur} step {step} until {end}")),
        Op::CtrToIdx { d, ctr } => ("ctridx", format!("i{d} = c{ctr}")),
        Op::CtrToScalar { dst, ctr } => ("ctrf", format!("r{dst} = f64(c{ctr})")),
        Op::ForInit {
            ctr,
            lo,
            hi,
            down,
            exit,
        } => (
            "forinit",
            format!(
                "c{ctr} = r{lo}..r{hi}{}; if empty goto {exit}",
                if down { " down" } else { "" }
            ),
        ),
        Op::CtrStep { ctr, head } => (
            "ctrstep",
            format!("c{ctr} step; goto {head} while in range"),
        ),
        Op::Jmp { target } => ("jmp", format!("goto {target}")),
        Op::JmpIfZero { cond, target } => ("jz", format!("if r{cond} == 0 goto {target}")),
        Op::LdLdBin { .. } => bundle_str(code, *op, "ld.ld.bin"),
        Op::LdBin { .. } => bundle_str(code, *op, "ld.bin"),
        Op::BinBin { .. } => bundle_str(code, *op, "bin.bin"),
        Op::BinSt { .. } => bundle_str(code, *op, "bin.st"),
        Op::LdSt { .. } => bundle_str(code, *op, "ld.st"),
        Op::SimdBegin { simd } => {
            let s = &code.simds[simd as usize];
            (
                "simd",
                format!(
                    "s{simd}: dim i{} lanes {} range [{}, {}) step {} pcs [{}, {})",
                    s.dim, s.lanes, s.start, s.stop, s.step, s.head, s.exit
                ),
            )
        }
        Op::Halt => ("halt", String::new()),
    }
}

/// Renders the compiled program as a readable listing: every op with its
/// operand details (register numbers, immediate offsets, jump targets),
/// followed by the constant, parallel-ladder, and simd-loop tables
/// (including each simd loop's broadcast table and lane program).
/// Deterministic for a given program + binding, so the output can be
/// golden-snapshotted.
pub(crate) fn disasm(code: &Code) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        ";; bytecode: {} ops, frame {} regs ({} scalars, consts at r{}), \
         {} accesses, {} arrays, {} par ladders, {} simd loops",
        code.ops.len(),
        code.frame,
        code.n_scalars,
        code.const_base,
        code.accesses.len(),
        code.arrays.len(),
        code.pars.len(),
        code.simds.len()
    );
    for (i, v) in code.consts.iter().enumerate() {
        let _ = writeln!(out, ";; const r{} = {v:?}", code.const_base as usize + i);
    }
    for (pc, op) in code.ops.iter().enumerate() {
        let (mnemonic, detail) = op_str(code, op);
        let _ = writeln!(out, "{pc:>4}  {mnemonic:<9} {detail}");
    }
    for (i, s) in code.simds.iter().enumerate() {
        let _ = writeln!(
            out,
            ";; simd s{i}: {} lane regs {:?}, {} broadcast slots, lane body:",
            s.lane_regs.len(),
            s.lane_regs,
            s.bcast.len()
        );
        let _ = match s.rows {
            Ok(r) => writeln!(
                out,
                ";;   rows i{} x{} lanes {} pcs [{}, {})",
                r.dim,
                (r.stop - r.start) / r.step,
                r.lanes,
                s.head - 2,
                r.exit
            ),
            Err(why) => writeln!(out, ";;   rows: no ({why})"),
        };
        for (j, b) in s.bcast.iter().enumerate() {
            let slot = s.lane_regs.len() + j;
            let _ = match *b {
                Bcast::Reg(r) => writeln!(out, ";;   l{slot} = broadcast r{r}"),
                Bcast::Idx(d) => writeln!(out, ";;   l{slot} = broadcast f64(i{d})"),
            };
        }
        let accs: Vec<u32> = s
            .body
            .iter()
            .filter_map(|op| match *op {
                LaneOp::Load { acc, .. } | LaneOp::Fold { acc } | LaneOp::Store { acc, .. } => {
                    Some(acc)
                }
                _ => None,
            })
            .collect();
        for lop in &s.body {
            if let Some(line) = lane_op_str(s.dim, &accs, lop) {
                let _ = writeln!(out, ";;   {line}");
            }
        }
        for &(slot, from) in &s.finals {
            let _ = writeln!(
                out,
                ";;   on exit r{} = l{from}",
                s.lane_regs[slot as usize]
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ElemStmt;
    use zlang::ir::{RegionId, ScalarId};

    fn prog() -> zlang::ir::Program {
        zlang::compile(
            "program t; config n : int = 8; region R = [1..n, 1..n]; \
             var A, B : [R] float; var s, t : float; begin end",
        )
        .unwrap()
    }

    fn load(a: u32, row: i64) -> EExpr {
        EExpr::Load(ArrayId(a), Offset(vec![row, 0]))
    }

    fn put(a: u32, rhs: EExpr) -> ElemStmt {
        ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0, 0])),
            rhs,
        }
    }

    fn reduce(s: u32, op: ReduceOp, rhs: EExpr) -> ElemStmt {
        ElemStmt {
            target: ElemRef::Reduce(ScalarId(s), op),
            rhs,
        }
    }

    /// The one nest's `(dim, folds)`, if it tiles.
    fn split(structure: Vec<i8>, body: Vec<ElemStmt>) -> Option<(u8, Vec<(Reg, ReduceOp)>)> {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure,
                body,
                cluster: 0,
                temps: 0,
            })],
        };
        let code = compile(&sp, &ConfigBinding::defaults(&sp.program)).unwrap();
        assert!(code.pars.len() <= 1);
        code.pars.into_iter().next().map(|p| (p.dim, p.folds))
    }

    #[test]
    fn a_reduction_nest_splits_along_its_outermost_loop() {
        let sum = || reduce(0, ReduceOp::Sum, load(0, 0));
        assert_eq!(
            split(vec![1, 2], vec![sum()]),
            Some((0, vec![(0, ReduceOp::Sum)]))
        );
        assert_eq!(
            split(vec![2, -1], vec![sum()]),
            Some((1, vec![(0, ReduceOp::Sum)]))
        );
        // No loop of its own (an enclosing `Outer` iterates it).
        assert_eq!(split(vec![], vec![sum()]), None);
        // Two accumulators, one reduced twice, in body order.
        let two = vec![
            reduce(1, ReduceOp::Max, load(0, 0)),
            sum(),
            reduce(1, ReduceOp::Max, load(1, 0)),
        ];
        assert_eq!(
            split(vec![1, 2], two),
            Some((0, vec![(1, ReduceOp::Max), (0, ReduceOp::Sum)]))
        );
    }

    #[test]
    fn a_reduction_nest_whose_only_split_is_inner_does_not_tile() {
        // `B[i, j] = B[i - 1, j]` carries a dependence along rows: only
        // the columns split, which a nest without a reduction does.
        let shift = || put(1, load(1, -1));
        assert_eq!(split(vec![1, 2], vec![shift()]), Some((1, vec![])));
        let sum = reduce(0, ReduceOp::Sum, load(0, 0));
        assert_eq!(split(vec![1, 2], vec![shift(), sum]), None);
    }

    #[test]
    fn an_accumulator_touched_otherwise_or_under_two_ops_does_not_tile() {
        // Read by a store: `B` would see the running sum.
        let read = vec![
            reduce(0, ReduceOp::Sum, load(0, 0)),
            put(1, EExpr::ScalarRef(ScalarId(0))),
        ];
        assert_eq!(split(vec![1, 2], read), None);
        // Read by its own reduction's term.
        let own = vec![reduce(
            0,
            ReduceOp::Sum,
            EExpr::Binary(
                BinOp::Mul,
                Box::new(EExpr::ScalarRef(ScalarId(0))),
                Box::new(load(0, 0)),
            ),
        )];
        assert_eq!(split(vec![1, 2], own), None);
        // Folded under two operators: the log keeps one per accumulator.
        let mixed = vec![
            reduce(0, ReduceOp::Sum, load(0, 0)),
            reduce(0, ReduceOp::Max, load(1, 0)),
        ];
        assert_eq!(split(vec![1, 2], mixed), None);
        // A scalar that is read but not reduced is no obstacle.
        let other = vec![
            reduce(0, ReduceOp::Sum, load(0, 0)),
            put(1, EExpr::ScalarRef(ScalarId(1))),
        ];
        assert_eq!(
            split(vec![1, 2], other),
            Some((0, vec![(0, ReduceOp::Sum)]))
        );
    }
}
