//! Superinstruction peephole + lane-vectorized innermost-loop execution.
//!
//! This module implements the second tier of the two-tier ISA (DESIGN.md
//! §17). [`superfuse`] runs post-compile, in two phases:
//!
//! 1. **Bundling** ([`bundle`]): a peephole over straight-line runs that
//!    collapses the load/arith/store chains the fusion passes produce into
//!    superinstructions (`LdLdBin`, `LdBin`, `BinBin`, `BinSt`, `LdSt`)
//!    carrying their operand offsets inline. Every bundle preserves *all*
//!    constituent register writes in order, so fusing is unconditionally
//!    safe — no liveness analysis, and the scalar dispatcher executing a
//!    bundle is observably identical to the unfused sequence. What a
//!    bundle means is defined once, by `Op::parts` (`bytecode.rs`):
//!    [`fuse_at`] builds bundles and `vm::body_op` executes them fused,
//!    and everything else here, the lane analysis included, reads a
//!    body only through its ops' parts.
//!
//! 2. **Vectorization** ([`vectorize`]): each innermost region loop whose
//!    body is straight-line, check-free and free of loop-carried register
//!    dependences other than reduction accumulators is decoded once into
//!    a slot-resolved lane program ([`LaneOp`]) plus a broadcast table and
//!    annotated with an [`Op::SimdBegin`] marker. A cross-iteration alias
//!    analysis bounds the safe strip width: for every same-array access
//!    pair with at least one store, a dependence distance of `m`
//!    iterations caps the width at `m`, because the lane loop executes
//!    op-major (each micro-op across the whole strip before the next
//!    micro-op) and must never reorder a conflicting load/store pair
//!    within a strip.
//!
//! Scalar dispatchers treat `SimdBegin` as a no-op and fall through into
//! the loop, so one bytecode serves every engine. A lane-enabled verified
//! VM instead calls [`run_lanes`], which covers the loop's whole range in
//! strips of up to [`MAX_LANES`] = 128 consecutive positions unless the
//! caller asks for fewer (the last strip shorter when the width does not
//! divide the range). When the loop sits directly
//! inside another one ([`Rows`]) the run covers that loop too: positions
//! are numbered row-major over (outer, inner), which is the scalar order,
//! and strips are cut across row ends, so the unit of dispatch is sized
//! by the machine and not by the array's last dimension. Every op is one
//! tight loop over the strip's slices of the lane file, which LLVM
//! vectorizes (with AVX2 when the CPU has it; both forms are exactly
//! IEEE, so the choice never changes a bit). Each position computes
//! exactly the scalar iteration's values with the same per-element
//! operation order, and a reduction folds its strip into the accumulator
//! in position order, so results stay `f64::to_bits`-identical to the
//! interpreter; loops that would not (carried dependences) are simply
//! never annotated.
//!
//! The lane program moves no value it need not ([`analyze_loop`]): a load
//! read once is read in place, row segment by row segment, from the array
//! slice by the op that reads it; a register copy is propagated into its
//! readers; and an op whose operands do not vary across the run, or
//! across a row of it, is evaluated once there as a scalar, with the
//! scalar definition. The width was re-decided with those in place (PR
//! 25; execution only, min of 80, ms at 32 / 64 / 128): SIMPLE n=256
//! 13.8 / 10.7 / 9.2, Tomcatv n=256 7.8 / 5.6 / 4.6, SP n=24 9.7 / 7.9 /
//! 7.3 (EXPERIMENTS.md), so a run asks for the widest strip unless told
//! otherwise; there is no per-loop width.
//!
//! An observer cannot tell either: after its last op each strip is
//! reported through [`Observer::strip`] - the run's streams as byte
//! addresses plus the body's flop counts, and which positions the strip
//! covered - and the default implementation replays them position by
//! position, the calls the scalar loops would have made in their order.
//! So lanes run under the cache simulator as under no observer at all.

use crate::bytecode::{
    Bcast, Code, Func, LaneOp, NoRows, Op, Reg, Rows, SimdInfo, Src, MAX_CALL_ARGS, MAX_LANES,
    MAX_RANK,
};
use crate::exec::Deadline;
use crate::interp::{binop, ExecError, Observer, RunStats, Strip, StripAccess, StripEvent};
use crate::vm::{unallocated, VmArray};
use zlang::ast::{BinOp, ReduceOp};
use zlang::ir::Intrinsic;

/// Rewrites compiled bytecode in place: bundles superinstructions, then
/// annotates vectorizable innermost loops with [`Op::SimdBegin`].
///
/// Idempotent in effect (bundles don't re-bundle; an already-annotated
/// loop body contains `SimdBegin` only at loop *entry*, never inside a
/// body), but intended to run exactly once, straight after
/// `bytecode::compile`.
pub(crate) fn superfuse(code: &mut Code) {
    let targets = bundle(code);
    vectorize(code, targets);
}

/// Marks every pc that some jump can land on (plus `n`, the
/// one-past-the-end pc a final back edge may test against). A lane run
/// needs no mark: it resumes past an `IdxStep`, where the scalar loop it
/// replaced falls through to.
pub(crate) fn jump_targets(code: &Code) -> Vec<bool> {
    let n = code.ops.len();
    let mut t = vec![false; n + 1];
    let mut mark = |p: u32| {
        let p = p as usize;
        if p <= n {
            t[p] = true;
        }
    };
    for mut op in code.ops.iter().copied() {
        if let Some(&mut target) = op.target_mut() {
            mark(target);
        }
    }
    for p in &code.pars {
        mark(p.entry);
        mark(p.exit);
    }
    t
}

/// Greedy longest-first peephole: fuses consecutive ops at `i` into one
/// superinstruction, returning the replacement and how many input ops it
/// consumed. A pattern may not span a jump target (other than its own
/// first op), so every control transfer still lands on an op boundary.
fn fuse_at(ops: &[Op], targets: &[bool], i: usize) -> (Op, usize) {
    let free = |k: usize| i + k < ops.len() && !targets[i + k];
    // load; load; arith(dst, the two loads)  →  ld.ld.bin
    if free(1) && free(2) {
        if let (Op::Load { dst: da, acc: aa }, Op::Load { dst: db, acc: ab }) =
            (&ops[i], &ops[i + 1])
        {
            if let Some((op, dst, a, b)) = ops[i + 2].arith() {
                if a == *da && b == *db {
                    return (
                        Op::LdLdBin {
                            op,
                            dst,
                            da: *da,
                            aa: *aa,
                            db: *db,
                            ab: *ab,
                        },
                        3,
                    );
                }
            }
        }
    }
    if free(1) {
        match (&ops[i], &ops[i + 1]) {
            // load; arith using the load  →  ld.bin
            (Op::Load { dst: dl, acc }, next) => {
                if let Some((op, dst, a, b)) = next.arith() {
                    if a == *dl || b == *dl {
                        let (other, right) = if a == *dl { (b, false) } else { (a, true) };
                        return (
                            Op::LdBin {
                                op,
                                dst,
                                dl: *dl,
                                acc: *acc,
                                other,
                                right,
                            },
                            2,
                        );
                    }
                }
                // load; store of the load  →  ld.st (copy loops)
                if let Op::Store { acc: sa, src } = next {
                    if src == dl {
                        return (
                            Op::LdSt {
                                dst: *dl,
                                la: *acc,
                                sa: *sa,
                            },
                            2,
                        );
                    }
                }
            }
            // arith; store of the result  →  bin.st
            (first, Op::Store { acc, src }) => {
                if let Some((op, dst, a, b)) = first.arith() {
                    if *src == dst {
                        return (
                            Op::BinSt {
                                op,
                                dst,
                                a,
                                b,
                                acc: *acc,
                            },
                            2,
                        );
                    }
                }
            }
            // arith; arith  →  bin.bin
            (first, second) => {
                if let (Some((op1, d1, a1, b1)), Some((op2, d2, a2, b2))) =
                    (first.arith(), second.arith())
                {
                    return (
                        Op::BinBin {
                            op1,
                            d1,
                            a1,
                            b1,
                            op2,
                            d2,
                            a2,
                            b2,
                        },
                        2,
                    );
                }
            }
        }
    }
    (ops[i], 1)
}

/// Phase 1: collapse fused element-wise chains into superinstructions and
/// remap every jump target onto the shortened op stream. Returns the
/// rewritten program's [`jump_targets`]: a bundle never spans a target
/// other than its first op, so each target maps to the bundle it starts.
fn bundle(code: &mut Code) -> Vec<bool> {
    let targets = jump_targets(code);
    let old = std::mem::take(&mut code.ops);
    let mut new_ops: Vec<Op> = Vec::with_capacity(old.len());
    // remap[old_pc] = new pc of the (bundle containing the) op.
    let mut remap = vec![0u32; old.len() + 1];
    let mut i = 0;
    while i < old.len() {
        let (op, consumed) = fuse_at(&old, &targets, i);
        debug_assert!(
            op.parts().eq(old[i..i + consumed].iter().copied()),
            "{op:?} is not the ops it replaces: {:?}",
            &old[i..i + consumed]
        );
        let here = new_ops.len() as u32;
        for k in 0..consumed {
            remap[i + k] = here;
        }
        new_ops.push(op);
        i += consumed;
    }
    remap[old.len()] = new_ops.len() as u32;
    for target in new_ops.iter_mut().filter_map(Op::target_mut) {
        *target = remap[*target as usize];
    }
    for p in &mut code.pars {
        p.entry = remap[p.entry as usize];
        p.exit = remap[p.exit as usize];
    }
    let mut moved = vec![false; new_ops.len() + 1];
    for (p, _) in targets.iter().enumerate().filter(|(_, &t)| t) {
        moved[remap[p] as usize] = true;
    }
    code.ops = new_ops;
    moved
}

/// Phase 2: find vectorizable innermost loops, decode their bodies into
/// lane programs, and insert an [`Op::SimdBegin`] immediately before each
/// loop's `SetIdx` so loop entry (from straight-line fall-through, an
/// outer loop's back edge, or a `ParInfo::entry`) passes through it.
fn vectorize(code: &mut Code, targets: Vec<bool>) {
    let mut an = Analysis::new(code, targets);
    // (insert position = the SetIdx pc, SimdInfo with *old* pcs)
    let mut found: Vec<(usize, SimdInfo)> = Vec::new();
    for (t, op) in code.ops.iter().enumerate() {
        let Op::IdxStep {
            d,
            step,
            stop,
            head,
        } = *op
        else {
            continue;
        };
        let h = head as usize;
        if h == 0 || h > t {
            continue;
        }
        let Op::SetIdx { d: sd, v: start } = code.ops[h - 1] else {
            continue;
        };
        if sd != d {
            continue;
        }
        // No side entry into the body (the head itself is the back edge's
        // target; anything else jumping inside would bypass SimdBegin).
        if ((h + 1)..=t).any(|p| an.targets[p]) {
            continue;
        }
        let site = LoopSite {
            first: h - 1,
            head: h,
            tail: t,
            dim: d,
            start,
            step,
            stop,
        };
        let Some(cand) = analyze_loop(code, &mut an, &site) else {
            continue;
        };
        found.push((
            h - 1,
            SimdInfo {
                dim: d,
                lanes: cand.lanes,
                start,
                step,
                stop,
                head,
                exit: t as u32 + 1,
                body: cand.body,
                lane_regs: cand.lane_regs,
                finals: cand.finals,
                bcast: cand.bcast,
                rows: cand.rows,
            },
        ));
    }
    if found.is_empty() {
        return;
    }
    let positions: Vec<usize> = found.iter().map(|(q, _)| *q).collect();
    // A control transfer to old pc p lands after insertion at
    // p + |{q : q < p}|: targets pointing AT an insert position land on
    // the new SimdBegin (loop entry passes through it), all others land
    // on the op they pointed at.
    let shift = |p: u32| -> u32 {
        let p = p as usize;
        (p + positions.partition_point(|&q| q < p)) as u32
    };
    let old = std::mem::take(&mut code.ops);
    let mut new_ops: Vec<Op> = Vec::with_capacity(old.len() + found.len());
    let mut fi = 0;
    for (p, op) in old.into_iter().enumerate() {
        if fi < found.len() && found[fi].0 == p {
            new_ops.push(Op::SimdBegin { simd: fi as u32 });
            fi += 1;
        }
        new_ops.push(op);
    }
    for target in new_ops.iter_mut().filter_map(Op::target_mut) {
        *target = shift(*target);
    }
    for p in &mut code.pars {
        p.entry = shift(p.entry);
        p.exit = shift(p.exit);
    }
    code.simds = found
        .into_iter()
        .map(|(_, mut info)| {
            info.head = shift(info.head);
            info.exit = shift(info.exit);
            if let Ok(rows) = &mut info.rows {
                rows.exit = shift(rows.exit);
            }
            info
        })
        .collect();
    code.ops = new_ops;
}

/// Where a candidate loop sits in the op stream, and what it iterates.
pub(crate) struct LoopSite {
    /// pc an enclosing loop's back edge lands on to re-enter this loop:
    /// its `SimdBegin`, or its `SetIdx` before `vectorize` has inserted
    /// one.
    pub first: usize,
    /// pc of the first body op.
    pub head: usize,
    /// pc of the loop's `IdxStep`.
    pub tail: usize,
    pub dim: u8,
    pub start: i64,
    pub step: i64,
    pub stop: i64,
}

/// What [`analyze_loop`] reads about the whole program, derived once per
/// [`vectorize`] or verifier phase 4, and the buffers it reuses from one
/// candidate loop to the next.
pub(crate) struct Analysis {
    /// The program's [`jump_targets`].
    pub targets: Vec<bool>,
    /// `outer_from[p]`: the least `head` of an `IdxStep` at pc `p` or
    /// later (`u32::MAX` if there is none), for [`enclosing_loop`].
    outer_from: Vec<u32>,
    /// The body being decoded, as its ops' parts.
    parts: Vec<Op>,
    /// Per frame register, its lane slot while a loop is decoded; every
    /// entry is back to `INVARIANT` between loops.
    slot_of: Vec<u16>,
    accs: Vec<(u32, bool)>,
    /// The broadcast table of the loop being decoded, and per frame
    /// register its entry there (`NO_BCAST` between loops).
    bcast: Vec<Bcast>,
    bcast_of: Vec<u16>,
    uses: Vec<Use>,
    live: Vec<(u32, Option<bool>)>,
}

impl Analysis {
    pub(crate) fn new(code: &Code, targets: Vec<bool>) -> Analysis {
        let mut outer_from = vec![u32::MAX; code.ops.len() + 1];
        for (p, op) in code.ops.iter().enumerate().rev() {
            outer_from[p] = match *op {
                Op::IdxStep { head, .. } => head.min(outer_from[p + 1]),
                _ => outer_from[p + 1],
            };
        }
        Analysis {
            targets,
            outer_from,
            parts: Vec::new(),
            slot_of: vec![INVARIANT; code.frame as usize],
            accs: Vec::new(),
            bcast: Vec::new(),
            bcast_of: vec![NO_BCAST; code.frame as usize],
            uses: Vec::new(),
            live: Vec::new(),
        }
    }
}

/// A decoded vectorizable loop body plus its proven safe widths.
pub(crate) struct SimdCandidate {
    pub body: Vec<LaneOp>,
    pub lane_regs: Vec<Reg>,
    pub finals: Vec<(u16, u16)>,
    pub bcast: Vec<Bcast>,
    pub lanes: u8,
    /// The enclosing loop, with `exit` in the site's pc numbering.
    pub rows: Result<Rows, NoRows>,
}

/// The register a plain op of a vectorizable body writes: its
/// destination, or a `Reduce`'s accumulator. `None` for a store, a tick,
/// and every op outside the element-wise subset.
fn written(op: Op) -> Option<Reg> {
    match op {
        Op::Load { dst, .. }
        | Op::Neg { dst, .. }
        | Op::Mov { dst, .. }
        | Op::IdxF { dst, .. }
        | Op::Call { dst, .. }
        | Op::Reduce { dst, .. } => Some(dst),
        _ => op.arith().map(|(_, dst, _, _)| dst),
    }
}

/// `slot_of` marks for registers that own no lane slot: one the body never
/// writes (its value is broadcast), and a reduction accumulator.
const INVARIANT: u16 = u16::MAX;
const ACCUMULATOR: u16 = u16::MAX - 1;

/// A register or dimension with no broadcast entry yet ([`Bcasts`]).
const NO_BCAST: u16 = u16::MAX;

/// The broadcast table of the loop being decoded, in order of first use,
/// with each entry's index kept by register and by dimension so that
/// looking one up never scans the table.
struct Bcasts<'a> {
    table: &'a mut Vec<Bcast>,
    of_reg: &'a mut [u16],
    of_idx: [u16; MAX_RANK],
}

impl Bcasts<'_> {
    /// The slot of entry `b`, after the `n_lane` lane slots; a new entry
    /// goes at the end of the table.
    fn slot(&mut self, n_lane: usize, b: Bcast) -> u16 {
        let memo = match b {
            Bcast::Reg(r) => Some(&mut self.of_reg[r as usize]),
            Bcast::Idx(d) => self.of_idx.get_mut(d as usize),
        };
        let i = match memo {
            Some(m) => {
                if *m == NO_BCAST {
                    *m = self.table.len() as u16;
                    self.table.push(b);
                }
                *m as usize
            }
            // A dimension past the VM's rank, which phase 1 rejects.
            None => self.table.iter().position(|&x| x == b).unwrap_or_else(|| {
                self.table.push(b);
                self.table.len() - 1
            }),
        };
        (n_lane + i) as u16
    }
}

/// Decodes the innermost loop body `code.ops[site.head..site.tail]` into
/// a slot-resolved lane program, and proves a safe strip width within one
/// row and, when the loop sits directly inside another, across rows.
///
/// Every register the body writes gets a lane slot, numbered in order of
/// first write; every other register or index the body reads gets an
/// entry in the broadcast table and the slot after the lane slots that
/// goes with it. The one register dependence around the back edge a lane
/// program can carry is a reduction accumulator: `Op::Reduce` is admitted
/// when nothing else in the body reads or writes its accumulator, because
/// then folding a strip's values into it in iteration order, after the
/// ops before it and before the ops after it have run over the strip, is
/// exactly the scalar sequence of updates.
///
/// The decoded program then stops moving what needs no moving, in three
/// passes over it: [`walk`] (which also marks the evaluated-once ops),
/// [`propagate_copies`] and [`fold_loads`]. Each is decided here and
/// nowhere else, so verifier
/// phase 4, which re-runs this function and compares, re-proves every
/// fold, every dropped copy and every evaluated-once op.
///
/// Returns `None` when the body is not vectorizable: it contains an op
/// outside the element-wise subset, a checked access, a read of a
/// body-written register before its write in the same iteration (the
/// value flows around the back edge), an accumulator that is touched
/// twice, a store that does not vary along `dim` (every position would
/// write one cell), a same-array dependence at distance < 2 iterations, or
/// fewer than 2 iterations of a unit step to begin with.
pub(crate) fn analyze_loop(
    code: &Code,
    an: &mut Analysis,
    site: &LoopSite,
) -> Option<SimdCandidate> {
    if site.step.abs() != 1 || (site.stop - site.start) / site.step < 2 {
        return None;
    }
    let mut parts = std::mem::take(&mut an.parts);
    parts.clear();
    // A push per part: `extend` over the parts cost as much as the rest
    // of the decode.
    for op in &code.ops[site.head..site.tail] {
        for part in op.parts() {
            parts.push(part);
        }
    }
    let cand = decode(code, an, &parts, site);
    // Only the registers the body writes were given a slot, and only
    // those in the broadcast table an entry: hand both maps back clean
    // for the next loop.
    for r in parts.iter().filter_map(|&op| written(op)) {
        if let Some(s) = an.slot_of.get_mut(r as usize) {
            *s = INVARIANT;
        }
    }
    for b in &an.bcast {
        if let Bcast::Reg(r) = *b {
            an.bcast_of[r as usize] = NO_BCAST;
        }
    }
    an.parts = parts;
    cand
}

/// [`analyze_loop`] over the loop body's `parts`.
fn decode(code: &Code, an: &mut Analysis, parts: &[Op], site: &LoopSite) -> Option<SimdCandidate> {
    let dim = site.dim as usize;
    let slot_of = &mut an.slot_of;
    let mut lane_regs: Vec<Reg> = Vec::new();
    for &op in parts {
        if matches!(op, Op::Store { .. } | Op::Tick { .. }) {
            continue;
        }
        // Anything else that writes no register is outside the
        // element-wise subset: control flow, allocation, observer
        // markers, nested loops.
        let r = written(op)?;
        let s = slot_of.get_mut(r as usize)?;
        match (*s, op) {
            (INVARIANT, Op::Reduce { .. }) => *s = ACCUMULATOR,
            // Written elsewhere, or reduced into twice.
            (_, Op::Reduce { .. }) | (ACCUMULATOR, _) => return None,
            (INVARIANT, _) => {
                *s = lane_regs.len() as u16;
                lane_regs.push(r);
            }
            _ => {}
        }
    }

    let slot_of: &[u16] = slot_of;
    let n_lane = lane_regs.len();
    an.bcast.clear();
    let mut bcast = Bcasts {
        table: &mut an.bcast,
        of_reg: &mut an.bcast_of,
        of_idx: [NO_BCAST; MAX_RANK],
    };
    let mut body: Vec<LaneOp> = Vec::with_capacity(parts.len());
    // Accesses in program order, for the alias analysis below.
    let accs = &mut an.accs;
    accs.clear();
    // Lane slots are numbered by first write, so the slots this iteration
    // has written so far are exactly those below `defined`.
    let mut defined = 0u16;

    let src = |bcast: &mut Bcasts, defined: u16, r: Reg| -> Option<Src> {
        match *slot_of.get(r as usize)? {
            INVARIANT => Some(Src::lane(bcast.slot(n_lane, Bcast::Reg(r)))),
            ACCUMULATOR => None, // only its own `Reduce` may touch it
            s if s < defined => Some(Src::lane(s)),
            _ => None, // read before this iteration's write
        }
    };
    let def = |defined: &mut u16, r: Reg| -> u16 {
        let s = slot_of[r as usize];
        *defined = (*defined).max(s + 1);
        s
    };
    let check_free = |acc: u32| code.accesses[acc as usize].check.is_none();

    for &op in parts {
        if let Some((op, dst, a, b)) = op.arith() {
            let args = pad(&[src(&mut bcast, defined, a)?, src(&mut bcast, defined, b)?]);
            let dst = def(&mut defined, dst);
            let f = Func::Bin(op);
            body.push(LaneOp::Apply { f, dst, args });
            continue;
        }
        match op {
            Op::Load { dst, acc } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, false));
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Load { dst, acc });
            }
            Op::Store { acc, src: r } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, true));
                let src = src(&mut bcast, defined, r)?;
                body.push(LaneOp::Store { acc, src });
            }
            Op::Neg { dst, src: r } => {
                let args = pad(&[src(&mut bcast, defined, r)?]);
                let dst = def(&mut defined, dst);
                let f = Func::Neg;
                body.push(LaneOp::Apply { f, dst, args });
            }
            Op::Mov { dst, src: r } => {
                let src = src(&mut bcast, defined, r)?;
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Mov { dst, src });
            }
            Op::IdxF { dst, d } => {
                let dst = def(&mut defined, dst);
                body.push(if d as usize == dim {
                    LaneOp::IdxSeq { dst }
                } else {
                    let src = Src::lane(bcast.slot(n_lane, Bcast::Idx(d)));
                    LaneOp::Mov { dst, src }
                });
            }
            Op::Call { intr, dst, base, n } => {
                // The strip kernels read exactly `arity` argument slots
                // (the scalar `Intrinsic::eval` asserts the same count).
                if n as usize != intr.arity() || n as usize > MAX_CALL_ARGS {
                    return None;
                }
                let mut args = pad(&[]);
                for (slot, r) in args.iter_mut().zip(base..base + n as Reg) {
                    *slot = src(&mut bcast, defined, r)?;
                }
                let dst = def(&mut defined, dst);
                let f = Func::Call(intr);
                body.push(LaneOp::Apply { f, dst, args });
            }
            Op::Reduce {
                op,
                dst: acc,
                src: r,
            } => {
                let src = src(&mut bcast, defined, r)?;
                body.push(LaneOp::Reduce { op, acc, src });
            }
            Op::Tick { flops } => body.push(LaneOp::Tick { flops }),
            _ => unreachable!("the slot pass admits no other op"),
        }
    }

    let bcast = &*bcast.table;
    if n_lane + bcast.len() >= Src::LIMIT || accs.len() >= Src::LIMIT {
        return None; // a slot or stream number would not fit a `Src`
    }
    for &(acc, store) in accs.iter() {
        if store && code.accesses[acc as usize].strides[dim] == 0 {
            return None; // every position would write the same cell
        }
    }
    let cols = (site.stop - site.start) / site.step;
    let inner = Axis {
        dim,
        step: site.step,
        extent: cols,
    };
    let lanes = alias_width(code, accs, inner, None, MAX_LANES as i64);
    if lanes < 2 {
        return None;
    }
    let rows = enclosing_loop(code, &an.targets, &an.outer_from, site).and_then(|rows| {
        let outer = Axis {
            dim: rows.dim as usize,
            step: rows.step,
            extent: (rows.stop - rows.start) / rows.step,
        };
        match alias_width(code, accs, inner, Some(outer), lanes) {
            w if w < 2 => Err(NoRows::Dependence(w as u32)),
            w => Ok(Rows {
                lanes: w as u8,
                ..rows
            }),
        }
    });
    // With no copy, no slot written twice (so no load but a slot's last
    // write) and no op over broadcast slots alone, there is nothing to
    // tidy: skip the walk, which costs a small loop as much again.
    let bcast_only = |op: &LaneOp| {
        let over = |s: &Src| s.slot().is_some_and(|l| l as usize >= n_lane);
        matches!(op, LaneOp::Apply { .. }) && op.srcs().iter().all(over)
    };
    let writes = body.iter().filter(|op| op.dst().is_some()).count();
    let mut finals = Vec::new();
    if writes > n_lane
        || body
            .iter()
            .any(|op| matches!(op, LaneOp::Mov { .. }) || bcast_only(op))
    {
        let outer = rows.ok().map(|rows| rows.dim);
        let uses = &mut an.uses;
        walk(&mut body, n_lane, bcast, outer, uses, &mut an.live);
        propagate_copies(&mut body, uses, &mut finals);
        fold_loads(code, &mut body, uses, dim, site.step);
        let mut dropped = uses.iter().map(|u| u.dropped);
        body.retain(|_| !dropped.next().unwrap_or(false));
    }
    Some(SimdCandidate {
        body,
        lane_regs,
        finals,
        bcast: bcast.to_vec(),
        lanes: lanes as u8,
        rows,
    })
}

/// `srcs` as an operand list; the operands past a function's arity are
/// never read.
fn pad(srcs: &[Src]) -> [Src; MAX_CALL_ARGS] {
    let mut args = [Src::lane(0); MAX_CALL_ARGS];
    args[..srcs.len()].copy_from_slice(srcs);
    args
}

/// What one op's write comes to ([`walk`]).
#[derive(Clone, Copy)]
struct Use {
    /// The next op that writes the same slot, or `NONE`: then the value is
    /// what `leave` writes back.
    next: u32,
    /// How many ops read the value (an op that overwrites the slot reads
    /// it first), and the first and the last of them.
    readers: u32,
    first: u32,
    last: u32,
    /// The write the op's first operand reads, or `NONE` for a broadcast
    /// slot.
    reach: u32,
    /// A copy [`propagate_copies`] dropped, or a write some of whose
    /// readers it redirected here.
    dropped: bool,
    moved: bool,
}

const NONE: u32 = u32::MAX;

/// One pass over the decoded body, over its `n_lane` lane slots and its
/// broadcast slots: the evaluated-once ops, and the def-use of every
/// write, one [`Use`] per op in `uses` (`live` is scratch).
///
/// An `Apply` whose operands all hold one value across the run -
/// broadcast slots, and other such ops' results - becomes a `Once` that
/// runs once per run; one that reads the enclosing loop's index (`outer`,
/// refilled per row) or another per-row op runs once per row. A copy of
/// such a value holds it too.
fn walk(
    body: &mut [LaneOp],
    n_lane: usize,
    bcast: &[Bcast],
    outer: Option<u8>,
    uses: &mut Vec<Use>,
    live: &mut Vec<(u32, Option<bool>)>,
) {
    uses.clear();
    uses.reserve(body.len());
    // Per slot: the write it holds at this point of the body, and whether
    // that varies by position (`None`) or is one value per run or, if
    // `Some(true)`, per row.
    live.clear();
    live.reserve(n_lane + bcast.len());
    live.resize(n_lane, (NONE, None));
    live.extend(
        bcast
            .iter()
            .map(|b| (NONE, Some(matches!(*b, Bcast::Idx(d) if Some(d) == outer)))),
    );
    for (j, op) in body.iter_mut().enumerate() {
        let j = j as u32;
        let mut u = Use {
            next: NONE,
            readers: 0,
            first: NONE,
            last: NONE,
            reach: NONE,
            dropped: false,
            moved: false,
        };
        let srcs = op.srcs();
        let mut scope = Some(false);
        for (k, s) in srcs.iter().enumerate() {
            let Some(l) = s.slot() else {
                scope = None;
                continue;
            };
            let (d, same) = live[l as usize];
            scope = scope.zip(same).map(|(a, b)| a || b);
            if k == 0 {
                u.reach = d;
            }
            if d != NONE && !srcs[..k].contains(s) {
                let u = &mut uses[d as usize];
                u.readers += 1;
                u.first = u.first.min(j);
                u.last = j;
            }
        }
        uses.push(u);
        let Some(dst) = op.dst() else { continue };
        let same = match *op {
            LaneOp::Apply { f, dst, args } => {
                if let Some(row) = scope {
                    *op = LaneOp::Once { f, dst, args, row };
                }
                scope
            }
            LaneOp::Mov { .. } => scope,
            _ => None,
        };
        let (prev, _) = std::mem::replace(&mut live[dst as usize], (j, same));
        if prev != NONE {
            uses[prev as usize].next = j;
        }
    }
}

/// Copy propagation: a `Mov x <- s` goes, and its readers read `s`, when
/// `s` still holds the copied value wherever `x` would have been read -
/// at every reader up to `x`'s next write (a reader that overwrites `s`
/// reads it first), and on exit when the copy is `x`'s last write, which
/// `finals` records as `(x, s)`. A copy whose source is overwritten before its
/// last reader stays. Dropped copies are only marked here.
fn propagate_copies(body: &mut [LaneOp], uses: &mut [Use], finals: &mut Vec<(u16, u16)>) {
    for i in 0..body.len() {
        let LaneOp::Mov { dst: x, src } = body[i] else {
            continue;
        };
        let Some(s) = src.slot() else { continue };
        let Use {
            next, last, reach, ..
        } = uses[i];
        let s_next = if reach == NONE {
            NONE
        } else {
            uses[reach as usize].next
        };
        // `s` is overwritten before the exit, or before the last reader.
        if s_next != NONE && (next == NONE || (last != NONE && last > s_next)) {
            continue;
        }
        // Every read of `x` up to the last reader reads this copy.
        let upto = if last == NONE { i } else { last as usize };
        for j in i + 1..=upto {
            let op = &mut body[j];
            let reads = op.srcs().contains(&Src::lane(x));
            for a in op.srcs_mut() {
                if *a == Src::lane(x) {
                    *a = src;
                }
            }
            if reads && matches!(op, LaneOp::Mov { .. }) {
                uses[j].reach = reach;
            }
        }
        if next == NONE {
            finals.push((x, s));
        }
        uses[i].dropped = true;
        if reach != NONE {
            uses[reach as usize].moved = true;
        }
    }
}

/// In-place loads: a unit-stride `Load` becomes a `Fold`, and its reader
/// takes the array's own elements ([`Src::mem`]), when exactly one op reads
/// the loaded value, that op is an `Apply`, a `Reduce` or a `Store`,
/// nothing from the load to the reader (the reader included) stores to
/// the load's array, and the load is not the slot's last write, whose
/// value `leave` writes back (a copy into the slot that was propagated
/// away is a later write: `finals` then points past it).
fn fold_loads(code: &Code, body: &mut [LaneOp], uses: &[Use], dim: usize, step: i64) {
    let mut stream = 0u16;
    for i in 0..body.len() {
        let LaneOp::Load { dst, acc } = body[i] else {
            stream += matches!(body[i], LaneOp::Store { .. }) as u16;
            continue;
        };
        let this = Src::mem(stream);
        stream += 1;
        let Use {
            next,
            mut readers,
            first,
            moved,
            ..
        } = uses[i];
        if next == NONE {
            continue;
        }
        let mut j = first as usize;
        if moved {
            // A dropped copy handed its readers on: count them again.
            let mut read = (i + 1..=next as usize)
                .filter(|&k| !uses[k].dropped && body[k].srcs().contains(&Src::lane(dst)));
            (readers, j) = (read.clone().count() as u32, read.next().unwrap_or(i));
        }
        let a = &code.accesses[acc as usize];
        let stores_arr = |op: &LaneOp| matches!(*op, LaneOp::Store { acc, .. } if code.accesses[acc as usize].arr == a.arr);
        if readers != 1
            || a.strides[dim] * step != 1
            || !matches!(
                body[j],
                LaneOp::Apply { .. } | LaneOp::Reduce { .. } | LaneOp::Store { .. }
            )
            || body[i + 1..=j].iter().any(stores_arr)
        {
            continue;
        }
        for a in body[j].srcs_mut() {
            if *a == Src::lane(dst) {
                *a = this;
            }
        }
        body[i] = LaneOp::Fold { acc };
    }
}

/// One loop of a lane run's iteration space.
#[derive(Clone, Copy)]
struct Axis {
    dim: usize,
    step: i64,
    extent: i64,
}

/// Cross-iteration alias analysis: the widest strip, at most `cap`, in
/// which op-major execution reorders no conflicting pair of accesses.
///
/// The lane loop runs op-major, so within a strip of `L` consecutive
/// positions every micro-op's L instances execute before the next
/// micro-op's. That only reorders accesses between positions at distance
/// 1..=L-1; accesses from different strips keep their scalar order (strips
/// are sequential), and the flat contributions of dimensions the run does
/// not iterate cancel (same array, same strides). Positions are numbered
/// row-major over (`outer`, `inner`), so two positions `m1` rows and `m2`
/// columns apart (`|m1| < e1`, `|m2| < e2`) are `|m1*e2 + m2|` apart in
/// execution order, and accesses P, Q of one array touch the same cell
/// there exactly when `const_flat(P) - const_flat(Q) = m1*k1 + m2*k2`,
/// with `k1`, `k2` the flat advance per outer and per inner iterate. The
/// width is the least such distance over every pair with at least one
/// store - a store against itself included: its own writes `m1` rows
/// apart land on one cell when the array does not vary along the outer
/// dimension (a contracted dimension), which caps the width at one row.
/// Without `outer` the run stays inside a row (`m1 = 0`, the 1-D bound).
///
/// Only the few `m1` that can beat the bound so far are tried, and `m2`
/// is solved for: `|m1*e2 + m2| < width` needs `|m1| <= (width-2)/e2 + 1`.
/// Every store varies along `inner` (the caller checked), so `k2 != 0`
/// for every pair that gets that far. The search is in `i64`
/// ([`least_distance`]); a pair whose products would overflow it caps the
/// width at 1, which no compiled program comes near.
fn alias_width(
    code: &Code,
    accs: &[(u32, bool)],
    inner: Axis,
    outer: Option<Axis>,
    cap: i64,
) -> i64 {
    let e2 = inner.extent;
    let mut width = cap;
    // Each pair once, a store first: a store against every load, and
    // against itself and every later store. The bound is symmetric in the
    // pair.
    for (i, &(pa, pstore)) in accs.iter().enumerate() {
        if !pstore {
            continue;
        }
        let a = &code.accesses[pa as usize];
        for (j, &(qa, qstore)) in accs.iter().enumerate() {
            let b = &code.accesses[qa as usize];
            if (qstore && j < i) || a.arr != b.arr {
                continue;
            }
            if a.strides != b.strides {
                return 1; // no compiled program; they could collide anywhere
            }
            let k2 = a.strides[inner.dim] * inner.step;
            let (k1, reach) = match outer {
                Some(o) => (
                    a.strides[o.dim] * o.step,
                    ((width - 2).max(0) / e2 + 1).min(o.extent - 1),
                ),
                None => (0, 0),
            };
            let d = a
                .const_flat
                .checked_sub(b.const_flat)
                .and_then(|dc| least_distance(dc, k1, k2, e2, reach));
            match d {
                Some(d) => width = width.min(d),
                None => return 1,
            }
        }
    }
    width
}

/// The least nonzero `|m1*e2 + m2|` over `|m1| <= reach` and `|m2| < e2`
/// with `dc = m1*k1 + m2*k2` (`k2 != 0`), or `i64::MAX` if there is none;
/// `None` if the search's values would overflow `i64`. The `m1` are walked
/// in order with `dc - m1*k1` and its residue mod `|k2|` kept up to date,
/// so only a candidate that solves for an integer `m2` costs a division.
fn least_distance(dc: i64, k1: i64, k2: i64, e2: i64, reach: i64) -> Option<i64> {
    let k2_abs = k2.checked_abs()?;
    let span = (e2 - 1).checked_mul(k2_abs)?; // the most `m2*k2` can make up
    let far = reach.checked_mul(k1)?;
    let far_abs = far.checked_abs()?;
    reach.checked_mul(e2)?.checked_add(e2)?;
    // `dc - m1*k1` stays within `dc -+ far_abs`: if no value there is one
    // `m2*k2` can make up, no `m1` solves.
    if dc.checked_add(far_abs)? < -span || dc.checked_sub(far_abs)? > span {
        return Some(i64::MAX);
    }
    let mut rest = dc + far; // `dc - m1*k1` at `m1 = -reach`
    let mut residue = rest.rem_euclid(k2_abs);
    let k1_residue = k1.rem_euclid(k2_abs);
    let mut best = i64::MAX;
    for m1 in -reach..=reach {
        if residue == 0 && rest.unsigned_abs() <= span as u64 {
            let d = (m1 * e2 + rest / k2).abs();
            if d != 0 {
                best = best.min(d);
            }
        }
        rest = rest.wrapping_sub(k1);
        residue -= k1_residue;
        if residue < 0 {
            residue += k2_abs;
        }
    }
    Some(best)
}

/// Finds the loop a lane run of `site` may cover as well: the ops around
/// the site must be exactly `SetIdx outer; [site]; IdxStep outer`, the
/// outer back edge landing on `site.first`, with no other way into the
/// nest than through that pc (the inner loop's own back edge aside) and
/// the two loops iterating different dimensions. The width of the result
/// is still to be proven. `outer_from` is [`Analysis::outer_from`].
fn enclosing_loop(
    code: &Code,
    targets: &[bool],
    outer_from: &[u32],
    site: &LoopSite,
) -> Result<Rows, NoRows> {
    let ops = &code.ops;
    let at = site.tail + 1;
    // The innermost region loop around the site ends at the first back
    // edge after it that jumps to or before it; there is one at all when
    // some back edge from `at` on does. Only one right at `at` can make a
    // perfect nest.
    if outer_from[at] as usize > site.first {
        return Err(NoRows::NoEnclosingLoop);
    }
    let (d, step, stop, head) = match ops[at] {
        Op::IdxStep {
            d,
            step,
            stop,
            head,
        } if head as usize <= site.first => (d, step, stop, head as usize),
        _ => return Err(NoRows::OtherOps),
    };
    let start = match site.first.checked_sub(1).map(|p| ops[p]) {
        Some(Op::SetIdx { d: sd, v }) if sd == d => v,
        _ => return Err(NoRows::OtherOps),
    };
    let side_entry = (site.first + 1..=at).any(|p| targets[p] && p != site.head);
    let perfect = head == site.first && d != site.dim && !side_entry;
    if !perfect || step.abs() != 1 || (stop - start) / step < 1 {
        return Err(NoRows::OtherOps);
    }
    Ok(Rows {
        dim: d,
        start,
        step,
        stop,
        exit: at as u32 + 1,
        lanes: 0,
    })
}

/// Array memory as a fused loop body reaches it. The VM and the parallel
/// tile executor hold array storage differently (owned buffers vs. raw
/// tile views), so the scalar body executor (`vm::body_op`) and
/// [`run_lanes`] both go through this trait.
pub(crate) trait ElemMem {
    /// Resolves array `ai` to its base pointer and element count. A lane
    /// run resolves each access once on entry, to prove its whole run in
    /// bounds, and again for every strip, so no pointer outlives the
    /// strip op that uses it. The vectorizer admits no allocation inside
    /// a loop body, so both resolutions name the same allocation.
    fn resolve(&mut self, ai: usize) -> Result<(*mut f64, usize), ExecError>;

    /// The byte address observers know element 0 of the allocated array
    /// `ai` by.
    fn base(&self, ai: usize) -> u64;

    /// Loads element `flat` of array `ai`, length-checked.
    fn load<O: Observer + ?Sized>(
        &self,
        ai: usize,
        flat: usize,
        obs: &mut O,
    ) -> Result<f64, ExecError>;

    /// Stores `v` to element `flat` of array `ai`, length-checked.
    fn store<O: Observer + ?Sized>(
        &mut self,
        ai: usize,
        flat: usize,
        v: f64,
        obs: &mut O,
    ) -> Result<(), ExecError>;
}

#[cold]
fn lane_oob(code: &Code, ai: usize) -> ExecError {
    ExecError::trap(format!(
        "lane access to `{}` outside its allocation (malformed superinstruction)",
        code.arrays[ai].name
    ))
}

/// [`ElemMem`] over the sequential VM's array table: slice-indexed, and
/// the only memory that reports element addresses to the observer.
pub(crate) struct VmMem<'a> {
    pub code: &'a Code,
    pub arrays: &'a mut [Option<VmArray>],
}

impl ElemMem for VmMem<'_> {
    #[inline]
    fn resolve(&mut self, ai: usize) -> Result<(*mut f64, usize), ExecError> {
        match self.arrays[ai].as_mut() {
            Some(arr) => Ok((arr.data.as_mut_ptr(), arr.data.len())),
            None => Err(unallocated(self.code, ai)),
        }
    }

    fn base(&self, ai: usize) -> u64 {
        self.arrays[ai].as_ref().map_or(0, |arr| arr.base)
    }

    #[inline(always)]
    fn load<O: Observer + ?Sized>(
        &self,
        ai: usize,
        flat: usize,
        obs: &mut O,
    ) -> Result<f64, ExecError> {
        let Some(arr) = self.arrays[ai].as_ref() else {
            return Err(unallocated(self.code, ai));
        };
        obs.load(arr.base + (flat as u64) * 8);
        Ok(arr.data[flat])
    }

    #[inline(always)]
    fn store<O: Observer + ?Sized>(
        &mut self,
        ai: usize,
        flat: usize,
        v: f64,
        obs: &mut O,
    ) -> Result<(), ExecError> {
        let Some(arr) = self.arrays[ai].as_mut() else {
            return Err(unallocated(self.code, ai));
        };
        arr.data[flat] = v;
        obs.store(arr.base + (flat as u64) * 8);
        Ok(())
    }
}

/// What a [`run_lanes`] call executed, for the dispatcher's accounting. A
/// lane run always covers its whole range; scalar dispatch resumes at
/// `resume` with the index vector `idx`.
#[derive(Default)]
pub(crate) struct LaneRun {
    /// The loads, stores, flops and points the run executed.
    pub stats: RunStats,
    /// pc past the `IdxStep` of the outermost loop the run covered.
    pub resume: u32,
    /// The index vector as those loops would have left it.
    pub idx: [i64; MAX_RANK],
}

/// One memory access's address stream for the current run: position
/// `(r, c)` of the run touches element `flat + r*k1 + c*k` of array `arr`.
/// It holds no pointer; each strip op resolves `arr` again.
struct Stream {
    arr: usize,
    flat: i64,
    k1: i64,
    k: i64,
}

/// The state a lane run needs and a `Vm` or a tile worker keeps between
/// runs, so that entering a loop allocates nothing once these have grown
/// to the program's largest loop: the lane file (`slots x W` values,
/// strip `s` at `[s*W, (s+1)*W)`), the stream table, what a position
/// reports to the observer, and each evaluated-once op's last value with
/// the row it was evaluated for.
#[derive(Default)]
pub(crate) struct LaneScratch {
    file: Vec<f64>,
    streams: Vec<Stream>,
    events: Vec<StripEvent>,
    once: Vec<(i64, f64)>,
}

/// The iteration space one lane run covers and the width of its strips:
/// `rows` iterates of the enclosing loop (1, and no `outer`, when the run
/// stays inside the row it was entered in) times `cols` of the lane
/// dimension, numbered row-major.
#[derive(Clone, Copy)]
struct Plan {
    w: usize,
    rows: i64,
    cols: i64,
    /// The lane dimension's first iterate and stop.
    start: i64,
    stop: i64,
    /// The enclosing loop and its stop, when the run spans rows.
    outer: Option<(Rows, i64)>,
}

/// Decides what a run entered at `info`'s `SimdBegin` covers. `clamp` is
/// a parallel tile's `(dim, start, stop)` override of one loop's range.
///
/// The one rule: the run spans the rows left of the enclosing loop
/// exactly when that does not narrow the strip, i.e. when the
/// row-spanning width, capped by the request, is no less than the width
/// a run of this row alone would use.
fn plan(
    info: &SimdInfo,
    want: usize,
    clamp: Option<(usize, i64, i64)>,
    idx: &[i64; MAX_RANK],
) -> Option<Plan> {
    let want = want.min(MAX_LANES);
    // A tile that partitions the lane dimension runs its own piece of
    // every row; the row-spanning width was proven for whole rows.
    let (start, stop, whole) = match clamp {
        Some((d, start, stop)) if d == info.dim as usize => (start, stop, false),
        _ => (info.start, info.stop, true),
    };
    let cols = (stop - start) / info.step;
    let w = want.min(info.lanes as usize).min(cols.max(0) as usize);
    if let (Ok(rows), true) = (info.rows, whole) {
        let stop_o = match clamp {
            Some((d, _, stop)) if d == rows.dim as usize => stop,
            _ => rows.stop,
        };
        // The run starts at the current outer iterate, which the proof
        // needs inside the recorded range.
        let at = idx[rows.dim as usize];
        let (done, left) = ((at - rows.start) / rows.step, (stop_o - at) / rows.step);
        let w_rows = want.min(rows.lanes as usize);
        if done >= 0 && left >= 1 && w_rows >= w.max(2) {
            return Some(Plan {
                w: w_rows.min((left * cols) as usize),
                rows: left,
                cols,
                start,
                stop,
                outer: Some((rows, stop_o)),
            });
        }
    }
    (w >= 2).then_some(Plan {
        w,
        rows: 1,
        cols,
        start,
        stop,
        outer: None,
    })
}

/// Binds access `acc` to a [`Stream`] for a run whose first position is
/// at `idx`, and proves the whole run in bounds: `flat + r*k1 + c*k` is
/// monotonic in `r` and in `c`, so its extremes over the run lie at the
/// four corners. Verified bytecode can never fail this (the run stays
/// inside the ranges the scalar bounds proof covers), but the check keeps
/// the path sound even against malformed `simds` tables.
fn bind<M: ElemMem>(
    mem: &mut M,
    code: &Code,
    info: &SimdInfo,
    acc: u32,
    idx: &[i64; MAX_RANK],
    plan: &Plan,
) -> Result<Stream, ExecError> {
    let a = &code.accesses[acc as usize];
    let mut flat = a.const_flat;
    for (i, s) in idx.iter().zip(&a.strides).take(a.rank as usize) {
        flat += i * s;
    }
    let k = a.strides[info.dim as usize] * info.step;
    let k1 = plan
        .outer
        .map_or(0, |(rows, _)| a.strides[rows.dim as usize] * rows.step);
    let arr = a.arr as usize;
    let (_, len) = mem.resolve(arr)?;
    let (down, across) = ((plan.rows - 1) * k1, (plan.cols - 1) * k);
    let lo = flat + down.min(0) + across.min(0);
    let hi = flat + down.max(0) + across.max(0);
    if lo < 0 || hi as usize >= len {
        return Err(lane_oob(code, arr));
    }
    Ok(Stream { arr, flat, k1, k })
}

/// The pieces of one strip that each lie inside one row, in order, as
/// `(offset into the strip, length, row, column of the first position)`:
/// one piece when the strip does not cross a row end.
#[derive(Clone, Copy)]
struct Segments {
    off: usize,
    wc: usize,
    r: i64,
    c: i64,
    cols: i64,
}

impl Iterator for Segments {
    type Item = (usize, usize, i64, i64);

    #[inline(always)]
    fn next(&mut self) -> Option<Self::Item> {
        if self.off == self.wc {
            return None;
        }
        let len = ((self.cols - self.c) as usize).min(self.wc - self.off);
        let seg = (self.off, len, self.r, self.c);
        self.off += len;
        self.r += 1;
        self.c = 0;
        Some(seg)
    }
}

impl Segments {
    /// The whole strip as one piece, for an op that reads no array (the
    /// piece's row and column then go unread).
    #[inline(always)]
    fn whole(self) -> Segments {
        Segments {
            cols: i64::MAX,
            ..self
        }
    }
}

/// Borrows strip `dst` of the lane file mutably and the `srcs` lane
/// strips shared, each cut to the current strip width `wc` (an operand
/// read in place gets an empty slice here). A source that *is* `dst` (an
/// in-place update such as `t = t * x`) reads a copy of the strip taken
/// first, into `own`.
#[inline(always)]
fn strips<'a, const N: usize>(
    file: &'a mut [f64],
    w: usize,
    wc: usize,
    dst: u16,
    srcs: [Src; N],
    own: &'a mut [f64; MAX_LANES],
) -> (&'a mut [f64], [&'a [f64]; N]) {
    let d = dst as usize;
    let (lo, rest) = file.split_at_mut(d * w);
    let (out, hi) = rest.split_at_mut(w);
    let out = &mut out[..wc];
    if srcs.contains(&Src::lane(dst)) {
        own[..wc].copy_from_slice(out);
    }
    let (lo, hi, own): (&'a [f64], &'a [f64], &'a [f64]) = (lo, hi, own);
    // A loop, not `map`: `[T; N]::map` is not inlined into the strip
    // loop, whose AVX2 copy would then call out for every op.
    let mut ins = [&[][..]; N];
    for (i, s) in ins.iter_mut().zip(srcs) {
        let Some(s) = s.slot() else { continue };
        let s = s as usize;
        *i = match s.cmp(&d) {
            std::cmp::Ordering::Less => &lo[s * w..][..wc],
            std::cmp::Ordering::Greater => &hi[(s - d - 1) * w..][..wc],
            std::cmp::Ordering::Equal => &own[..wc],
        };
    }
    (out, ins)
}

/// The one place a lane run reads array memory: `len` positions of
/// stream `s` from row `r`, column `c` on, in one row, as a view of the
/// array itself. A stream that is not unit-stride is handed out one
/// element at a time (the view is then shorter than asked for when `len`
/// is above 1; the strided load asks for one, and [`fold_loads`] reads
/// no strided stream in place).
#[inline(always)]
fn read<'a>(ptr: *const f64, s: &Stream, r: i64, c: i64, len: usize) -> &'a [f64] {
    let flat = s.flat + r * s.k1 + c * s.k;
    let len = if s.k == 1 { len } else { len.min(1) };
    // SAFETY: runtime check — on entry to this run `bind` proved the
    // stream's four corners, `s.flat + {0, rows-1}*s.k1 + {0, cols-1}*s.k`,
    // inside the allocation `resolve` reported for `ptr`; the address is
    // monotonic in `r` and `c`, every caller passes `r < rows` and
    // `c + len <= cols` (a row segment of the strip, `Segments`), and the
    // view covers positions `c..c + len` of row `r` only when `s.k == 1`.
    // The view lives for one strip op, and no store of that op writes its
    // array: `fold_loads` folds no load into a store of its own array,
    // and lane runs are gated on verified bytecode, whose phase 4
    // re-derived every fold.
    unsafe { std::slice::from_raw_parts(ptr.add(flat as usize), len) }
}

/// Where an op's operands are for one piece of the strip: the lane slices
/// `strips` cut (`lanes`), or the array itself (`ptrs`, resolved for this
/// op).
#[inline(always)]
fn inputs<'a, const N: usize>(
    srcs: [Src; N],
    lanes: &[&'a [f64]; N],
    ptrs: &[*const f64; N],
    streams: &[Stream],
    (off, len, r, c): (usize, usize, i64, i64),
) -> [&'a [f64]; N] {
    let mut ins = [&[][..]; N];
    for k in 0..N {
        ins[k] = match srcs[k].stream() {
            None => &lanes[k][off..off + len],
            Some(i) => read(ptrs[k], &streams[i as usize], r, c, len),
        };
    }
    ins
}

/// Operand `src`'s strip of the lane file, cut to the strip width `wc`
/// (empty for an operand read in place).
#[inline(always)]
fn lane_strip(file: &[f64], w: usize, wc: usize, src: Src) -> &[f64] {
    src.slot().map_or(&[], |l| &file[l as usize * w..][..wc])
}

/// Resolves each in-place operand's array for one strip op.
#[inline(always)]
fn resolve_all<M: ElemMem, const N: usize>(
    mem: &mut M,
    streams: &[Stream],
    srcs: [Src; N],
) -> Result<[*const f64; N], ExecError> {
    let mut ptrs = [std::ptr::null(); N];
    for (p, s) in ptrs.iter_mut().zip(srcs) {
        if let Some(i) = s.stream() {
            *p = mem.resolve(streams[i as usize].arr)?.0.cast_const();
        }
    }
    Ok(ptrs)
}

/// `out[m] = f(a[m])` over one strip; like [`zip`], a loop over
/// equal-length slices and nothing else.
#[inline(always)]
fn map(out: &mut [f64], a: &[f64], f: impl Fn(f64) -> f64) {
    for (o, &x) in out.iter_mut().zip(a) {
        *o = f(x);
    }
}

/// `out[m] = f(a[m], b[m])` over one strip: three equal-length slices and
/// nothing else in the loop, which is the shape LLVM vectorizes.
#[inline(always)]
fn zip(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// `f64::floor` as the scalar engines compute it. The AVX2 copy of the
/// strip loop would compile an inlined `floor` to `vroundpd`, which quiets
/// a signalling NaN that the baseline's libm call returns as it came. No
/// zlang program can produce one, but the contract is `to_bits`, so the
/// kernel calls this per element, compiled once for the baseline.
#[inline(never)]
fn floor(x: f64) -> f64 {
    x.floor()
}

/// The strip kernels of the one-operand functions. The function is
/// resolved here, once per piece: `-`, `sqrt`, `abs` and `sign` are slice
/// loops LLVM vectorizes (exactly IEEE, or bit operations: the same bits
/// as [`Func::eval`]), the others a scalar call per element.
#[inline(always)]
fn kernel1(f: Func, out: &mut [f64], [a]: [&[f64]; 1]) {
    let Func::Call(intr) = f else {
        return map(out, a, |x| -x);
    };
    match intr {
        Intrinsic::Sqrt => map(out, a, f64::sqrt),
        Intrinsic::Abs => map(out, a, f64::abs),
        Intrinsic::Sign => map(out, a, zlang::ir::sign),
        Intrinsic::Sin => map(out, a, f64::sin),
        Intrinsic::Cos => map(out, a, f64::cos),
        Intrinsic::Exp => map(out, a, f64::exp),
        Intrinsic::Ln => map(out, a, f64::ln),
        Intrinsic::Floor => map(out, a, floor),
        Intrinsic::Rnd => map(out, a, zlang::ir::rnd),
        Intrinsic::Min | Intrinsic::Max | Intrinsic::Pow | Intrinsic::Select => {}
    }
}

/// The strip kernels of the two-operand functions: one loop per operator,
/// each `binop` at a constant, and `min`, `max`, `pow`.
#[inline(always)]
fn kernel2(f: Func, out: &mut [f64], [a, b]: [&[f64]; 2]) {
    macro_rules! kernels {
        ($op:expr, $($name:ident)*) => {
            match $op {
                $(BinOp::$name => zip(out, a, b, |x, y| binop(BinOp::$name, x, y)),)*
            }
        };
    }
    match f {
        Func::Bin(op) => kernels!(op, Add Sub Mul Div Lt Le Gt Ge Eq Ne),
        Func::Call(Intrinsic::Min) => zip(out, a, b, f64::min),
        Func::Call(Intrinsic::Max) => zip(out, a, b, f64::max),
        Func::Call(Intrinsic::Pow) => zip(out, a, b, f64::powf),
        Func::Neg | Func::Call(_) => {}
    }
}

/// The strip kernel of `select`, the one three-operand function: a bit
/// selection per element.
#[inline(always)]
fn kernel3(out: &mut [f64], [c, a, b]: [&[f64]; 3]) {
    for (((o, &c), &a), &b) in out.iter_mut().zip(c).zip(a).zip(b) {
        *o = if c != 0.0 { a } else { b };
    }
}

/// Everything the strip loop needs.
struct StripCtx<'a, M> {
    info: &'a SimdInfo,
    /// The lane file, `w` values per slot.
    file: &'a mut [f64],
    streams: &'a [Stream],
    /// What each position reports to the observer, in body order: the
    /// streams as byte addresses, and the body's flop counts.
    events: &'a [StripEvent],
    /// Per evaluated-once op, in body order: the row (0 for an op of the
    /// whole run) it last evaluated for, and the value.
    once: &'a mut [(i64, f64)],
    regs: &'a mut [f64],
    mem: &'a mut M,
    plan: Plan,
    /// When the run spans rows and the body reads the outer index: its
    /// broadcast slot and the outer loop's first iterate and step. The
    /// slot is refilled for every strip, row segment by row segment.
    outer_idx: Option<(usize, i64, i64)>,
    /// The run's deadline, ticked once per strip by its positions.
    deadline: &'a mut Deadline,
    /// A parallel tile's term log: `Reduce` appends its strip here
    /// instead of folding it into its accumulator.
    log: Option<&'a mut TermLog>,
    run: LaneRun,
}

/// The strip loop: the run's `rows * cols` positions in strips of `w`
/// (the last one shorter when `w` does not divide them), each op of the
/// lane program over the whole strip before the next. Memory ops and the
/// two index sources walk the strip's row segments. After its last op a
/// strip is reported to the observer through `report`, which is not a
/// type parameter: there is one strip loop whoever watches.
/// `#[inline(always)]` so the AVX2 wrapper gets its own copy compiled
/// with wider vectors.
#[inline(always)]
fn strip_loop<M: ElemMem>(cx: &mut StripCtx<'_, M>, report: Report<'_>) -> Result<(), ExecError> {
    let Plan {
        w,
        rows,
        cols,
        start,
        ..
    } = cx.plan;
    let step = cx.info.step;
    let total = rows * cols;
    let mut own = [0.0f64; MAX_LANES];
    let mut done = 0i64;
    while done < total {
        let wc = w.min((total - done) as usize);
        cx.deadline.tick(wc as u64)?;
        let segments = Segments {
            off: 0,
            wc,
            r: done / cols,
            c: done % cols,
            cols,
        };
        let file = &mut *cx.file;
        if let Some((slot, first, step)) = cx.outer_idx {
            for (off, len, r, _) in segments {
                file[slot * w + off..][..len].fill((first + r * step) as f64);
            }
        }
        let streams = cx.streams;
        // `dst = kernel(srcs)`: over the whole strip at once when every
        // operand is a lane slot, else row segment by row segment, with
        // the operands read in place cut from the array. A macro and not a
        // function taking the kernel, so that every kernel loop is
        // compiled into this function and into its AVX2 copy; and two
        // paths, because running lane-only ops (nearly all of them)
        // segment by segment too costs whole runs 6-13% (EXPERIMENTS.md
        // "PR 25").
        macro_rules! apply {
            ($dst:expr, $srcs:expr, |$out:ident, $ins:pat_param| $kernel:expr) => {{
                let srcs = $srcs;
                if srcs.iter().all(|s| s.slot().is_some()) {
                    let ($out, $ins) = strips(file, w, wc, $dst, srcs, &mut own);
                    $kernel
                } else {
                    let ptrs = resolve_all(cx.mem, streams, srcs)?;
                    let (out, lanes) = strips(file, w, wc, $dst, srcs, &mut own);
                    for piece in segments {
                        let $ins = inputs(srcs, &lanes, &ptrs, streams, piece);
                        let $out = &mut out[piece.0..piece.0 + piece.1];
                        $kernel
                    }
                }
            }};
        }
        // Memory ops take the stream table in body order, evaluated-once
        // ops the once table.
        let (mut mi, mut oi) = (0, 0);
        for op in &cx.info.body {
            match *op {
                LaneOp::Load { dst, .. } => {
                    let s = &streams[mi];
                    mi += 1;
                    let out = &mut file[dst as usize * w..][..wc];
                    let ptr = cx.mem.resolve(s.arr)?.0;
                    for (off, len, r, c) in segments {
                        let out = &mut out[off..off + len];
                        if s.k == 1 {
                            out.copy_from_slice(read(ptr, s, r, c, len));
                        } else {
                            for (m, o) in out.iter_mut().enumerate() {
                                *o = read(ptr, s, r, c + m as i64, 1)[0];
                            }
                        }
                    }
                    cx.run.stats.loads += wc as u64;
                }
                LaneOp::Fold { .. } => {
                    mi += 1;
                    cx.run.stats.loads += wc as u64;
                }
                LaneOp::Store { src, .. } => {
                    let s = &streams[mi];
                    mi += 1;
                    let [from] = resolve_all(cx.mem, streams, [src])?;
                    let (ptr, _) = cx.mem.resolve(s.arr)?;
                    let lanes = [lane_strip(file, w, wc, src)];
                    for piece @ (_, _, r, c) in segments {
                        let [v] = inputs([src], &lanes, &[from], streams, piece);
                        let flat = s.flat + r * s.k1 + c * s.k;
                        // SAFETY: runtime check — as for `read`, `bind`'s
                        // check of the four corners of this stream's run;
                        // `v` is at most the piece's length, and is
                        // lane-file memory or a view of another array (as
                        // for `read`: no store reads its own array in
                        // place).
                        unsafe {
                            if s.k == 1 {
                                std::ptr::copy_nonoverlapping(
                                    v.as_ptr(),
                                    ptr.add(flat as usize),
                                    v.len(),
                                );
                            } else {
                                for (m, &val) in v.iter().enumerate() {
                                    *ptr.offset((flat + m as i64 * s.k) as isize) = val;
                                }
                            }
                        }
                    }
                    cx.run.stats.stores += wc as u64;
                }
                LaneOp::Apply {
                    f,
                    dst,
                    args: [a, b, c],
                } => match f.arity() {
                    1 => apply!(dst, [a], |out, ins| kernel1(f, out, ins)),
                    2 => apply!(dst, [a, b], |out, ins| kernel2(f, out, ins)),
                    _ => apply!(dst, [a, b, c], |out, ins| kernel3(out, ins)),
                },
                LaneOp::Once { f, dst, args, row } => {
                    let (at, value) = &mut cx.once[oi];
                    oi += 1;
                    let pieces = if row { segments } else { segments.whole() };
                    for (off, len, r, _) in pieces {
                        let key = if row { r } else { 0 };
                        if *at != key {
                            // The scalar definition, at the row's (or the
                            // run's) one value of every operand.
                            let mut x = [0.0; MAX_CALL_ARGS];
                            for (x, a) in x.iter_mut().zip(&args[..f.arity()]) {
                                let Some(a) = a.slot() else {
                                    unreachable!("`walk` makes no op over a stream `Once`")
                                };
                                *x = file[a as usize * w + off];
                            }
                            (*at, *value) = (key, f.eval(&x));
                        }
                        file[dst as usize * w + off..][..len].fill(*value);
                    }
                }
                LaneOp::Mov { dst, src } => apply!(dst, [src], |out, [v]| out.copy_from_slice(v)),
                LaneOp::IdxSeq { dst } => {
                    let out = &mut file[dst as usize * w..][..wc];
                    for (off, len, _, c) in segments {
                        let first = start + c * step;
                        for (m, o) in out[off..off + len].iter_mut().enumerate() {
                            *o = (first + m as i64 * step) as f64;
                        }
                    }
                }
                LaneOp::Reduce { op, acc, src } => {
                    // In position order, so the accumulator takes exactly
                    // the scalar loops' sequence of values - or, in a
                    // parallel tile, the tile's log takes its terms.
                    let ptrs = resolve_all(cx.mem, streams, [src])?;
                    let lanes = [lane_strip(file, w, wc, src)];
                    let pieces = match src.slot() {
                        Some(_) => segments.whole(),
                        None => segments,
                    };
                    if let Some(log) = cx.log.as_deref_mut() {
                        for piece in pieces {
                            let [v] = inputs([src], &lanes, &ptrs, streams, piece);
                            log.push(acc, v)?;
                        }
                    } else {
                        let mut a = cx.regs[acc as usize];
                        for piece in pieces {
                            let [v] = inputs([src], &lanes, &ptrs, streams, piece);
                            a = fold(op, a, v);
                        }
                        cx.regs[acc as usize] = a;
                    }
                }
                LaneOp::Tick { flops } => {
                    cx.run.stats.points += wc as u64;
                    cx.run.stats.flops += flops as u64 * wc as u64;
                }
            }
        }
        report(
            cx.events,
            Strip {
                first: done as u64,
                len: wc,
                cols: cols as u64,
            },
        );
        done += wc as i64;
    }
    Ok(())
}

/// `a` folded with `terms` under `op`, one term at a time in order: the
/// scalar `Op::Reduce`'s arithmetic, so folding consecutive pieces of a
/// sequence of terms one after another gives the bits of folding it whole.
#[inline(always)]
pub(crate) fn fold(op: ReduceOp, a: f64, terms: &[f64]) -> f64 {
    match op {
        ReduceOp::Sum => terms.iter().fold(a, |a, &x| a + x),
        ReduceOp::Prod => terms.iter().fold(a, |a, &x| a * x),
        ReduceOp::Max => terms.iter().fold(a, |a, &x| a.max(x)),
        ReduceOp::Min => terms.iter().fold(a, |a, &x| a.min(x)),
    }
}

/// A parallel tile's reduction terms: per accumulator its ladder folds
/// ([`ParInfo::folds`](crate::bytecode::ParInfo)), every term the tile's
/// `Reduce`s produced, in position order. A tile appends here instead of
/// folding; the ladder folds the logs in tile order (`crate::par`).
#[derive(Default)]
pub(crate) struct TermLog {
    terms: Vec<(Reg, Vec<f64>)>,
}

impl TermLog {
    /// Empties the log for a ladder that folds `folds`, keeping the
    /// buffers it has grown.
    pub(crate) fn reset(&mut self, folds: &[(Reg, ReduceOp)]) {
        self.terms.resize_with(folds.len(), Default::default);
        for ((r, t), &(acc, _)) in self.terms.iter_mut().zip(folds) {
            *r = acc;
            t.clear();
        }
    }

    /// Appends `v` to accumulator `acc`'s terms. A `Reduce` into a
    /// register the ladder does not fold is malformed bytecode. Never
    /// inlined, so that logging adds a call to the strip loop and no code
    /// to its folding path.
    #[inline(never)]
    pub(crate) fn push(&mut self, acc: Reg, v: &[f64]) -> Result<(), ExecError> {
        match self.terms.iter_mut().find(|(r, _)| *r == acc) {
            Some((_, t)) => {
                t.extend_from_slice(v);
                Ok(())
            }
            None => Err(ExecError::trap(format!(
                "reduction into r{acc}, which its parallel ladder does not fold \
                 (malformed bytecode)"
            ))),
        }
    }

    /// The terms logged per accumulator, in the order of the ladder's
    /// `folds`.
    pub(crate) fn terms(&self) -> impl Iterator<Item = &[f64]> {
        self.terms.iter().map(|(_, t)| t.as_slice())
    }
}

/// Where the strip loop hands each finished strip: [`Observer::strip`] of
/// whatever observer the run has.
type Report<'a> = &'a mut dyn FnMut(&[StripEvent], Strip);

/// Runs the strip loop, in its AVX2 copy when `wide` and the CPU has it.
/// Every caller but the kernel test passes `true`.
fn run_strips<M: ElemMem>(
    cx: &mut StripCtx<'_, M>,
    wide: bool,
    report: Report<'_>,
) -> Result<(), ExecError> {
    #[cfg(target_arch = "x86_64")]
    if wide && std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: runtime check — `is_x86_feature_detected!("avx2")` on
        // the line above.
        return unsafe { strips_avx2(cx, report) };
    }
    strip_loop(cx, report)
}

/// [`strip_loop`] compiled with AVX2 enabled.
///
/// # Safety
///
/// The CPU must support AVX2.
// SAFETY: runtime check — `run_strips`, the only caller, tests
// `is_x86_feature_detected!("avx2")` first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn strips_avx2<M: ElemMem>(
    cx: &mut StripCtx<'_, M>,
    report: Report<'_>,
) -> Result<(), ExecError> {
    strip_loop(cx, report)
}

/// Executes `info`'s loop from its `SimdBegin` in strips, and the loop
/// around it too when [`plan`] says so.
///
/// `clamp` overrides one loop's range so a parallel tile can run its
/// slice, and `log` takes the tile's reduction terms in place of its
/// accumulators; the sequential VM passes `None` for both. The strip
/// width is the least of `want`, the proven alias width and the number
/// of positions; below 2 nothing runs and the result is `None` (the
/// caller stays scalar). Otherwise the run covers its whole range: `regs`
/// supplies the broadcast values and the accumulators, and afterwards
/// `regs` and the result's `idx` hold what the scalar loops would have
/// left, every lane register's value at the last position included.
///
/// Entering a loop fills the broadcast slots, binds one [`Stream`] per
/// memory op and proves each in bounds, once per run; the lane program
/// itself was resolved at compile time.
///
/// `obs` hears of the run a strip at a time ([`Observer::strip`]): per
/// position, in scalar order, the loads, stores and flop counts scalar
/// dispatch of the same loops would have reported one by one. So a lane
/// run is as good as the scalar loops under every observer.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lanes<M: ElemMem, O: Observer + ?Sized>(
    code: &Code,
    info: &SimdInfo,
    want: usize,
    clamp: Option<(usize, i64, i64)>,
    regs: &mut [f64],
    idx: &[i64; MAX_RANK],
    mem: &mut M,
    scratch: &mut LaneScratch,
    deadline: &mut Deadline,
    log: Option<&mut TermLog>,
    obs: &mut O,
) -> Result<Option<LaneRun>, ExecError> {
    let Some(plan) = plan(info, want, clamp, idx) else {
        return Ok(None);
    };
    let mut cx = enter(code, info, plan, regs, idx, mem, scratch, deadline)?;
    cx.log = log;
    run_strips(&mut cx, true, &mut |events, at| obs.strip(events, at))?;
    Ok(Some(leave(cx)))
}

/// Sets a planned run up: the lane file with its broadcast slots filled,
/// one bound, bounds-proven stream per memory op, and the events of one
/// position.
#[allow(clippy::too_many_arguments)]
fn enter<'a, M: ElemMem>(
    code: &Code,
    info: &'a SimdInfo,
    plan: Plan,
    regs: &'a mut [f64],
    idx: &[i64; MAX_RANK],
    mem: &'a mut M,
    scratch: &'a mut LaneScratch,
    deadline: &'a mut Deadline,
) -> Result<StripCtx<'a, M>, ExecError> {
    let w = plan.w;
    let n_lane = info.lane_regs.len();
    let LaneScratch {
        file,
        streams,
        events,
        once,
    } = scratch;
    let need = (n_lane + info.bcast.len()) * w;
    if file.len() < need {
        file.resize(need, 0.0);
    }
    let file = &mut file[..need];
    // Body ops never write a broadcast slot (every register the body
    // writes owns a lane slot), so one fill serves every strip - except
    // the outer index of a run that spans rows.
    for (b, slot) in info
        .bcast
        .iter()
        .zip(file[n_lane * w..].chunks_exact_mut(w))
    {
        slot.fill(match *b {
            Bcast::Reg(r) => regs[r as usize],
            Bcast::Idx(d) => idx[d as usize] as f64,
        });
    }
    let outer_idx = plan.outer.and_then(|(rows, _)| {
        let i = info.bcast.iter().position(|&b| b == Bcast::Idx(rows.dim))?;
        Some((n_lane + i, idx[rows.dim as usize], rows.step))
    });
    // What the loop's own `SetIdx` would do: `at` is position 0.
    let mut at = *idx;
    at[info.dim as usize] = plan.start;
    streams.clear();
    events.clear();
    once.clear();
    for op in &info.body {
        match *op {
            LaneOp::Load { acc, .. } | LaneOp::Fold { acc } | LaneOp::Store { acc, .. } => {
                let s = bind(mem, code, info, acc, &at, &plan)?;
                let access = StripAccess {
                    addr: mem.base(s.arr).wrapping_add_signed(s.flat * 8),
                    row: s.k1 * 8,
                    col: s.k * 8,
                };
                events.push(match *op {
                    LaneOp::Store { .. } => StripEvent::Store(access),
                    _ => StripEvent::Load(access),
                });
                streams.push(s);
            }
            LaneOp::Once { .. } => once.push((i64::MIN, 0.0)),
            LaneOp::Tick { flops } => events.push(StripEvent::Flops(flops as u64)),
            _ => {}
        }
    }
    #[cfg(debug_assertions)]
    assert_in_place_reads(code, info, streams);
    Ok(StripCtx {
        info,
        file,
        streams,
        events,
        once,
        regs,
        mem,
        plan,
        outer_idx,
        deadline,
        log: None,
        run: LaneRun {
            idx: at,
            ..LaneRun::default()
        },
    })
}

/// What the strip loop takes on trust about every in-place operand
/// ([`Src::mem`]), checked again on entry in debug builds only: verifier
/// phase 4 proves it, and release builds keep the per-run cost off small
/// loops. Its stream is a [`LaneOp::Fold`]'s and unit-stride, and no store
/// from that `Fold` to the reading op, the reader included, writes its
/// array.
#[cfg(debug_assertions)]
fn assert_in_place_reads(code: &Code, info: &SimdInfo, streams: &[Stream]) {
    let mut at = Vec::with_capacity(streams.len());
    for (q, op) in info.body.iter().enumerate() {
        if matches!(
            op,
            LaneOp::Load { .. } | LaneOp::Fold { .. } | LaneOp::Store { .. }
        ) {
            at.push(q);
        }
        for i in op.srcs().iter().filter_map(|s| s.stream()) {
            let i = i as usize;
            let p = at.get(i).copied().filter(|&p| p < q);
            let p = p.unwrap_or_else(|| panic!("op {q} reads stream {i} before its fold"));
            assert!(
                matches!(info.body[p], LaneOp::Fold { .. }),
                "op {q} reads stream {i} in place, which is no fold"
            );
            let s = &streams[i];
            assert_eq!(s.k, 1, "op {q} reads stream {i} in place at stride {}", s.k);
            let writes = |op: &LaneOp| {
                matches!(*op, LaneOp::Store { acc, .. }
                    if code.accesses[acc as usize].arr as usize == s.arr)
            };
            assert!(
                !info.body[p..=q].iter().any(writes),
                "op {q} reads stream {i} in place across a store to its array"
            );
        }
    }
}

/// Finishes a run: registers and index vector as the scalar loops would
/// have left them.
fn leave<M>(cx: StripCtx<'_, M>) -> LaneRun {
    let StripCtx {
        info,
        file,
        regs,
        plan,
        mut run,
        ..
    } = cx;
    // Post-loop code must see exactly the registers a scalar run would
    // have left: the last position's values, which sit here in the last
    // strip - in the register's own slot, or in the one it last copied.
    let last = (plan.rows * plan.cols - 1) as usize % plan.w;
    for (slot, &r) in info.lane_regs.iter().enumerate() {
        regs[r as usize] = file[slot * plan.w + last];
    }
    for &(slot, from) in &info.finals {
        regs[info.lane_regs[slot as usize] as usize] = file[from as usize * plan.w + last];
    }
    run.idx[info.dim as usize] = plan.stop;
    run.resume = match plan.outer {
        Some((rows, stop)) => {
            run.idx[rows.dim as usize] = stop;
            rows.exit
        }
        None => info.exit,
    };
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode;
    use crate::ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest, ScalarProgram};
    use zlang::ast::ReduceOp;
    use zlang::ir::{ArrayId, ConfigBinding, Offset, RegionId, ScalarId};

    fn prog() -> zlang::ir::Program {
        zlang::compile(
            "program t; config n : int = 16; region R = [1..n]; \
             region S = [3..n]; var A, B, C : [R] float; var s : float; \
             begin end",
        )
        .unwrap()
    }

    fn load(a: u32) -> EExpr {
        EExpr::Load(ArrayId(a), Offset(vec![0]))
    }

    /// `C[i] = A[i] * B[i] + A[i]` over R — the fused element-wise shape
    /// the peephole and the vectorizer both target.
    fn simple_fill() -> ScalarProgram {
        nest(vec![ElemStmt {
            target: ElemRef::Array(ArrayId(2), Offset(vec![0])),
            rhs: EExpr::Binary(
                BinOp::Add,
                Box::new(EExpr::Binary(
                    BinOp::Mul,
                    Box::new(load(0)),
                    Box::new(load(1)),
                )),
                Box::new(load(0)),
            ),
        }])
    }

    /// One nest over R with the given statements.
    fn nest(body: Vec<ElemStmt>) -> ScalarProgram {
        ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1],
                body,
                cluster: 0,
                temps: 0,
            })],
        }
    }

    fn compiled(sp: &ScalarProgram) -> Code {
        bytecode::compile(sp, &ConfigBinding::defaults(&sp.program)).unwrap()
    }

    #[test]
    fn bundling_shrinks_the_op_stream() {
        let mut code = compiled(&simple_fill());
        let before = code.ops.len();
        bundle(&mut code);
        assert!(
            code.ops.len() < before,
            "expected superinstructions to shrink {before} ops, got {}",
            code.ops.len()
        );
        assert!(code
            .ops
            .iter()
            .any(|op| matches!(op, Op::LdLdBin { .. } | Op::LdBin { .. } | Op::BinSt { .. })));
    }

    #[test]
    fn superfuse_annotates_an_elementwise_loop() {
        let mut code = compiled(&simple_fill());
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 1, "one vectorizable innermost loop");
        let info = &code.simds[0];
        assert_eq!(info.lanes as usize, MAX_LANES, "no aliasing: full width");
        assert!(matches!(
            code.ops[info.head as usize - 2],
            Op::SimdBegin { simd: 0 }
        ));
        assert!(matches!(
            code.ops[info.head as usize - 1],
            Op::SetIdx { .. }
        ));
        assert!(matches!(
            code.ops[info.exit as usize - 1],
            Op::IdxStep { .. }
        ));
    }

    #[test]
    fn alias_distance_caps_the_lane_count() {
        // A[i] = A[i-2] + 1 over S=[3..n]: iteration i reads what i-2
        // wrote, so only 2 lanes can run op-major without reading a
        // stale value.
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(1),
                structure: vec![1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(0), Offset(vec![0])),
                    rhs: EExpr::Binary(
                        BinOp::Add,
                        Box::new(EExpr::Load(ArrayId(0), Offset(vec![-2]))),
                        Box::new(EExpr::Const(1.0)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        };
        let mut code = compiled(&sp);
        assert!(
            code.accesses.iter().all(|a| a.check.is_none()),
            "the stencil accesses should be check-free"
        );
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 1);
        assert_eq!(code.simds[0].lanes, 2, "distance-2 dependence");
    }

    /// The flat-index differences the exhaustive alias check tries.
    const DC: i64 = 40;

    /// Plain enumeration: for each `dc` in `-DC..=DC` (at `dc + DC`), the
    /// least nonzero distance `|m1*e2 + m2|` over every `|m1| < e1` and
    /// `|m2| < e2` with `dc = m1*k1 + m2*k2`, or `i64::MAX` if none.
    fn enumerated_distances(k1: i64, k2: i64, e1: i64, e2: i64) -> Vec<i64> {
        let mut best = vec![i64::MAX; 2 * DC as usize + 1];
        for m1 in 1 - e1..e1 {
            for m2 in 1 - e2..e2 {
                let (dc, d) = (m1 * k1 + m2 * k2, (m1 * e2 + m2).abs());
                if dc.abs() <= DC && d != 0 {
                    let b = &mut best[(dc + DC) as usize];
                    *b = (*b).min(d);
                }
            }
        }
        best
    }

    #[test]
    fn alias_width_matches_exhaustive_enumeration() {
        use crate::bytecode::Access;
        // One array; rows along dimension 0, columns along dimension 1.
        // Access 0 is a store `dc` past access 1 in flat index, which is
        // a load or a store, before or after it in body order.
        let shapes: [&[(u32, bool)]; 3] = [
            &[(0, true), (1, false)],
            &[(1, false), (0, true)],
            &[(1, true), (0, true)],
        ];
        let mut code = Code::default();
        let mut cases = 0u64;
        for k1 in -6i64..=6 {
            for k2 in (-6i64..=6).filter(|&k| k != 0) {
                // Both directions of each loop: the strides are what makes
                // the flat advance per iterate `k1` and `k2`.
                let (s1, s2) = if (k1 + k2) % 2 == 0 { (1, 1) } else { (-1, -1) };
                let strides = [k1 * s1, k2 * s2, 0, 0];
                code.accesses = (0..2)
                    .map(|_| Access {
                        arr: 0,
                        const_flat: 0,
                        strides,
                        rank: 2,
                        check: None,
                    })
                    .collect();
                for e2 in 1..=12 {
                    let inner = Axis {
                        dim: 1,
                        step: s2,
                        extent: e2,
                    };
                    let in_row = enumerated_distances(0, k2, 1, e2);
                    for e1 in 1..=12 {
                        let outer = Axis {
                            dim: 0,
                            step: s1,
                            extent: e1,
                        };
                        let across = enumerated_distances(k1, k2, e1, e2);
                        for dc in -DC..=DC {
                            code.accesses[0].const_flat = dc;
                            let accs = shapes[(dc + DC) as usize % shapes.len()];
                            // A store also meets itself (`dc = 0`).
                            let least = |t: &[i64]| t[(dc + DC) as usize].min(t[DC as usize]);
                            for cap in [2, 3, MAX_LANES as i64] {
                                let want = least(&across).min(cap);
                                let got = alias_width(&code, accs, inner, Some(outer), cap);
                                assert_eq!(
                                    got, want,
                                    "rows: dc {dc} k1 {k1} k2 {k2} e1 {e1} e2 {e2} cap {cap} {accs:?}"
                                );
                                if e1 == 1 {
                                    let want = least(&in_row).min(cap);
                                    let got = alias_width(&code, accs, inner, None, cap);
                                    assert_eq!(
                                        got, want,
                                        "one row: dc {dc} k2 {k2} e2 {e2} cap {cap} {accs:?}"
                                    );
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(cases, 81 * 13 * 12 * 12 * 12 * 3);
    }

    fn sum_nest() -> ScalarProgram {
        ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::ReduceNest {
                lhs: ScalarId(0),
                op: ReduceOp::Sum,
                region: RegionId(0),
                structure: vec![1],
                rhs: load(0),
            }],
        }
    }

    fn reduce_into_s(op: ReduceOp, rhs: EExpr) -> ElemStmt {
        ElemStmt {
            target: ElemRef::Reduce(ScalarId(0), op),
            rhs,
        }
    }

    fn reduces(code: &Code) -> Vec<LaneOp> {
        let is_reduce = |op: &&LaneOp| matches!(op, LaneOp::Reduce { .. });
        code.simds
            .iter()
            .flat_map(|s| s.body.iter().filter(is_reduce).copied())
            .collect()
    }

    #[test]
    fn a_lane_op_is_twelve_bytes() {
        // Every cached artifact carries its lane programs: an operand is
        // one `u16` (`Src`), so in-place operands cost no memory.
        assert_eq!(std::mem::size_of::<LaneOp>(), 12);
    }

    #[test]
    fn a_reduce_nest_is_annotated() {
        let mut code = compiled(&sum_nest());
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 1, "the reduction loop vectorizes");
        assert_eq!(code.simds[0].lanes as usize, MAX_LANES, "no stores");
        let folds = reduces(&code);
        assert!(
            matches!(
                folds[..],
                [LaneOp::Reduce {
                    op: ReduceOp::Sum,
                    src,
                    ..
                }] if src == Src::lane(0)
            ),
            "{folds:?}"
        );
        // The accumulator stays a frame register: it owns no lane slot.
        let LaneOp::Reduce { acc, .. } = folds[0] else {
            unreachable!()
        };
        assert!(!code.simds[0].lane_regs.contains(&acc));
    }

    #[test]
    fn a_fused_nest_carrying_a_reduce_is_annotated() {
        // C[i] = A[i] * B[i]; s max<<= C[i]: the Tomcatv shape, a
        // residual reduction fused into the nest that computes its input.
        let product = EExpr::Binary(BinOp::Mul, Box::new(load(0)), Box::new(load(1)));
        let mut code = compiled(&nest(vec![
            ElemStmt {
                target: ElemRef::Array(ArrayId(2), Offset(vec![0])),
                rhs: product,
            },
            reduce_into_s(ReduceOp::Max, load(2)),
        ]));
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 1);
        let folds = reduces(&code);
        assert!(
            matches!(
                folds[..],
                [LaneOp::Reduce {
                    op: ReduceOp::Max,
                    acc: 0,
                    ..
                }]
            ),
            "{folds:?}"
        );
    }

    #[test]
    fn an_accumulator_touched_twice_is_rejected() {
        // Read elsewhere: C[i] = s + A[i] sees the running sum, which a
        // strip-at-a-time fold would hand over a whole strip late.
        let reads = nest(vec![
            reduce_into_s(ReduceOp::Sum, load(0)),
            ElemStmt {
                target: ElemRef::Array(ArrayId(2), Offset(vec![0])),
                rhs: EExpr::Binary(
                    BinOp::Add,
                    Box::new(EExpr::ScalarRef(ScalarId(0))),
                    Box::new(load(0)),
                ),
            },
        ]);
        // Reduced into twice: scalar order interleaves the two folds per
        // iteration, op-major order would run one after the other.
        let twice = nest(vec![
            reduce_into_s(ReduceOp::Sum, load(0)),
            reduce_into_s(ReduceOp::Sum, load(1)),
        ]);
        for (what, sp) in [("read", reads), ("second reduce", twice)] {
            let mut code = compiled(&sp);
            superfuse(&mut code);
            assert!(code.simds.is_empty(), "{what} of the accumulator");
        }

        // Written elsewhere: overwrite the body's `Tick` with a move into
        // the accumulator (the compiler never emits this; the verifier
        // re-runs this analysis over whatever bytecode it is handed).
        let mut code = compiled(&sum_nest());
        let (acc, src) = code
            .ops
            .iter()
            .find_map(|op| match *op {
                Op::Reduce { dst, src, .. } => Some((dst, src)),
                _ => None,
            })
            .unwrap();
        let tick = code
            .ops
            .iter()
            .position(|op| matches!(op, Op::Tick { .. }))
            .unwrap();
        code.ops[tick] = Op::Mov { dst: acc, src };
        superfuse(&mut code);
        assert!(code.simds.is_empty(), "write of the accumulator");
    }

    /// Reductions whose result depends on the order of the fold, over
    /// `[1..67]` (67 is prime: no tested width divides the extent, so the
    /// last strip is partial and the registers are written back from
    /// position `66 % W`).
    fn order_sensitive_reductions() -> ScalarProgram {
        use zlang::ir::ScalarExpr;
        let program = zlang::compile(
            "program t; config n : int = 67; region R = [1..n]; \
             var A, B, C : [R] float; var s0, s1, s2, s3, s4 : float; begin end",
        )
        .unwrap();
        let bin = |op, a: EExpr, b: EExpr| EExpr::Binary(op, Box::new(a), Box::new(b));
        let c = EExpr::Const;
        let i = || EExpr::Index(0);
        let call = EExpr::Call;
        // i mod 3
        let m = || {
            let thirds = call(Intrinsic::Floor, vec![bin(BinOp::Div, i(), c(3.0))]);
            bin(BinOp::Sub, i(), bin(BinOp::Mul, c(3.0), thirds))
        };
        // A = 1.0, 1e16, -1e16, 1.0, ...: summed in order every `1.0` but
        // the last is absorbed, summed in any other grouping more survive.
        let big = call(
            Intrinsic::Select,
            vec![
                bin(BinOp::Eq, m(), c(1.0)),
                c(1.0),
                call(
                    Intrinsic::Select,
                    vec![bin(BinOp::Eq, m(), c(2.0)), c(1e16), c(-1e16)],
                ),
            ],
        );
        // B = a scatter of +0.0 and -0.0 with a NaN at i = 5: `f64::max`
        // and `f64::min` skip the NaN and pick between the zeros by
        // operand position.
        let wave = call(Intrinsic::Sin, vec![bin(BinOp::Mul, c(2.1), i())]);
        let half = bin(BinOp::Sub, bin(BinOp::Gt, wave, c(0.0)), c(0.5));
        let off5 = || bin(BinOp::Sub, i(), c(5.0));
        let zeros = bin(
            BinOp::Mul,
            bin(BinOp::Mul, half, c(0.0)),
            bin(BinOp::Div, off5(), off5()),
        );
        let elem = |a: u32, rhs| ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0])),
            rhs,
        };
        let fold = |s: u32, op, rhs| ElemStmt {
            target: ElemRef::Reduce(ScalarId(s), op),
            rhs,
        };
        let nest = |body| {
            LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1],
                body,
                cluster: 0,
                temps: 0,
            })
        };
        let init = |s: u32, v: f64| LStmt::Scalar {
            lhs: ScalarId(s),
            rhs: ScalarExpr::Const(v),
        };
        ScalarProgram {
            program,
            stmts: vec![
                nest(vec![elem(0, big), elem(1, zeros)]),
                init(0, 0.0),
                init(1, f64::NEG_INFINITY),
                init(2, f64::INFINITY),
                nest(vec![
                    elem(2, bin(BinOp::Add, load(0), c(1.0))),
                    fold(0, ReduceOp::Sum, load(0)),
                    fold(1, ReduceOp::Max, load(1)),
                    fold(2, ReduceOp::Min, load(1)),
                ]),
                LStmt::ReduceNest {
                    lhs: ScalarId(3),
                    op: ReduceOp::Sum,
                    region: RegionId(0),
                    structure: vec![1],
                    rhs: load(0),
                },
                LStmt::ReduceNest {
                    lhs: ScalarId(4),
                    op: ReduceOp::Prod,
                    region: RegionId(0),
                    structure: vec![1],
                    rhs: bin(BinOp::Add, c(1.0), bin(BinOp::Mul, load(2), c(1e-17))),
                },
            ],
        }
    }

    #[test]
    fn reductions_fold_in_scalar_order_at_every_width() {
        use crate::interp::{Interp, NoopObserver};
        use crate::{Executor, Vm};
        let sp = order_sensitive_reductions();
        let binding = ConfigBinding::defaults(&sp.program);
        let mut code = compiled(&sp);
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 4, "every loop of the program vectorizes");
        assert_eq!(reduces(&code).len(), 5);

        let mut interp = Interp::new(&sp, binding.clone());
        let want = interp.execute(&mut NoopObserver).unwrap();
        let a = interp.array(ArrayId(0)).unwrap().to_vec();
        let b = interp.array(ArrayId(1)).unwrap().to_vec();
        assert!(b.iter().any(|v| v.is_nan()));
        assert!(b.iter().any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert!(b.iter().any(|v| v.to_bits() == 0.0f64.to_bits()));
        // What a vectorizer free to reassociate would compute: a partial
        // sum per lane (three here), combined at the end.
        let mut partial = [0.0f64; 3];
        for (i, &v) in a.iter().enumerate() {
            partial[i % 3] += v;
        }
        assert_ne!(
            want.scalars[3].to_bits(),
            partial.iter().sum::<f64>().to_bits(),
            "the sum must depend on its order for this test to mean anything"
        );

        for lanes in [0, 2, 3, 8, 64] {
            let mut vm = Vm::new_superfused(&sp, binding.clone()).unwrap();
            vm.verify().unwrap();
            vm.set_lanes(lanes);
            let got = vm.execute(&mut NoopObserver).unwrap();
            for (i, (w, g)) in want.scalars.iter().zip(&got.scalars).enumerate() {
                assert_eq!(
                    w.to_bits(),
                    g.to_bits(),
                    "s{i} at width {lanes}: {w} vs {g}"
                );
            }
            assert_eq!(want.stats, got.stats, "counters at width {lanes}");
            for arr in 0..3 {
                let (w, g) = (interp.array(ArrayId(arr)), vm.array(ArrayId(arr)));
                let bits = |x: Option<&[f64]>| -> Vec<u64> {
                    x.unwrap().iter().map(|v| v.to_bits()).collect()
                };
                assert_eq!(bits(w), bits(g), "array {arr} at width {lanes}");
            }
        }
    }

    /// Two nests over a 6x6 array `A` (and `B`, `T`): a fill over the
    /// whole region, then `body` over its 4x4 interior, rows outer.
    fn interior_nest(collapse_t: bool, body: Vec<ElemStmt>) -> ScalarProgram {
        let mut program = zlang::compile(
            "program t; config n : int = 6; region R = [1..n, 1..n]; \
             region S = [2..n-1, 2..n-1]; var A, B, T : [R] float; begin end",
        )
        .unwrap();
        if collapse_t {
            program.arrays[2].collapsed = vec![0]; // one row, stride 0 along rows
        }
        let at = |a: u32| ElemRef::Array(ArrayId(a), Offset(vec![0, 0]));
        let index = |d, scale| {
            EExpr::Binary(
                BinOp::Mul,
                Box::new(EExpr::Index(d)),
                Box::new(EExpr::Const(scale)),
            )
        };
        let fill = ElemStmt {
            target: at(0),
            rhs: EExpr::Binary(
                BinOp::Add,
                Box::new(index(0, 10.0)),
                Box::new(index(1, 0.5)),
            ),
        };
        let nest = |region, body| {
            LStmt::Nest(LoopNest {
                region: RegionId(region),
                structure: vec![1, 2],
                body,
                cluster: 0,
                temps: 0,
            })
        };
        ScalarProgram {
            program,
            stmts: vec![nest(0, vec![fill]), nest(1, body)],
        }
    }

    /// Every call an observer gets, in order.
    #[derive(Default, Debug, PartialEq)]
    struct Record(Vec<(&'static str, u64)>);

    impl Observer for Record {
        fn load(&mut self, addr: u64) {
            self.0.push(("load", addr));
        }
        fn store(&mut self, addr: u64) {
            self.0.push(("store", addr));
        }
        fn flops(&mut self, n: u64) {
            self.0.push(("flops", n));
        }
        fn nest_begin(&mut self, nest: u32) {
            self.0.push(("nest", nest.into()));
        }
    }

    /// The interior nest's annotation, and every array of a lane run at
    /// each width against the interpreter's - under an observer, which
    /// must be told at every width what scalar dispatch tells it.
    fn rows_of_interior_nest(sp: &ScalarProgram) -> Result<Rows, NoRows> {
        use crate::interp::{Interp, NoopObserver};
        use crate::{Executor, Vm};
        let binding = ConfigBinding::defaults(&sp.program);
        let mut interp = Interp::new(sp, binding.clone());
        interp.execute(&mut NoopObserver).unwrap();
        let mut scalar = Record::default();
        for lanes in [1, 0, 2, 3, 4, 5, 8, 128] {
            let mut vm = Vm::new_superfused(sp, binding.clone()).unwrap();
            vm.verify().unwrap();
            vm.set_lanes(lanes);
            let mut seen = Record::default();
            vm.execute(&mut seen).unwrap();
            if lanes == 1 {
                scalar = seen;
                for kind in ["load", "store", "flops"] {
                    assert!(scalar.0.iter().any(|call| call.0 == kind), "no {kind}");
                }
            } else {
                assert!(seen == scalar, "the observer's calls at width {lanes}");
            }
            for a in 0..3 {
                assert_eq!(
                    interp.array(ArrayId(a)),
                    vm.array(ArrayId(a)),
                    "array {a} at width {lanes}"
                );
            }
        }
        let mut code = compiled(sp);
        superfuse(&mut code);
        assert_eq!(code.simds.len(), 2);
        assert_eq!(
            code.simds[1].lanes as usize, MAX_LANES,
            "nothing within a row"
        );
        code.simds[1].rows
    }

    #[test]
    fn a_dependence_across_rows_caps_the_row_spanning_width() {
        // A[r,c] = A[r-1,c+1] + 1, rows ascending: position (r,c) reads
        // what (r-1,c+1) stored e2 - 1 = 3 positions earlier. Within a row
        // nothing collides, but a strip of 4 that crosses a row end would
        // load the cell before the position that stores it has run.
        let sp = interior_nest(
            false,
            vec![ElemStmt {
                target: ElemRef::Array(ArrayId(0), Offset(vec![0, 0])),
                rhs: EExpr::Binary(
                    BinOp::Add,
                    Box::new(EExpr::Load(ArrayId(0), Offset(vec![-1, 1]))),
                    Box::new(EExpr::Const(1.0)),
                ),
            }],
        );
        let rows = rows_of_interior_nest(&sp).unwrap();
        assert_eq!((rows.dim, rows.lanes), (0, 3));
    }

    #[test]
    fn a_row_invariant_target_caps_the_row_spanning_width_at_one_row() {
        // T[c] = A[r,c] * 2; B[r,c] = T[c], with T collapsed along the
        // rows (what dimension contraction leaves): every row overwrites
        // the row before, so a strip must not hold (r,c) and (r+1,c) - the
        // store of the second would land before the load of the first.
        let sp = interior_nest(
            true,
            vec![
                ElemStmt {
                    target: ElemRef::Array(ArrayId(2), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(BinOp::Mul, Box::new(load2(0)), Box::new(EExpr::Const(2.0))),
                },
                ElemStmt {
                    target: ElemRef::Array(ArrayId(1), Offset(vec![0, 0])),
                    rhs: load2(2),
                },
            ],
        );
        let rows = rows_of_interior_nest(&sp).unwrap();
        assert_eq!((rows.dim, rows.lanes), (0, 4), "one row of the interior");

        // Stored and never loaded, the target still caps the width: the
        // pair is the store against itself a row later.
        let mut sp = sp;
        let LStmt::Nest(n) = &mut sp.stmts[1] else {
            unreachable!()
        };
        n.body.pop();
        assert_eq!(rows_of_interior_nest(&sp).unwrap().lanes, 4);
    }

    fn load2(a: u32) -> EExpr {
        EExpr::Load(ArrayId(a), Offset(vec![0, 0]))
    }

    #[test]
    fn an_in_place_update_reads_the_strip_it_overwrites() {
        use crate::interp::{Interp, NoopObserver};
        use crate::ir::TempId;
        use crate::{Executor, Vm};
        // t = A[i]; t = t * t; t = B[i] - t; C[i] = t: the second and
        // third ops name their destination slot as a source.
        let t = || EExpr::Temp(TempId(0));
        let temp = |rhs| ElemStmt {
            target: ElemRef::Temp(TempId(0)),
            rhs,
        };
        let mut sp = nest(vec![
            temp(load(0)),
            temp(EExpr::Binary(BinOp::Mul, Box::new(t()), Box::new(t()))),
            temp(EExpr::Binary(BinOp::Sub, Box::new(load(1)), Box::new(t()))),
            ElemStmt {
                target: ElemRef::Array(ArrayId(2), Offset(vec![0])),
                rhs: t(),
            },
        ]);
        let LStmt::Nest(n) = &mut sp.stmts[0] else {
            unreachable!()
        };
        n.temps = 1;
        // Give A and B distinct values first.
        let fill = |a: u32, scale: f64| ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0])),
            rhs: EExpr::Binary(
                BinOp::Mul,
                Box::new(EExpr::Index(0)),
                Box::new(EExpr::Const(scale)),
            ),
        };
        let init = nest(vec![fill(0, 0.3), fill(1, 7.0)]).stmts.remove(0);
        sp.stmts.insert(0, init);

        let mut code = compiled(&sp);
        superfuse(&mut code);
        let in_place = |op: &LaneOp| matches!(*op, LaneOp::Apply { dst, .. } if op.srcs().contains(&Src::lane(dst)));
        assert!(code.simds.iter().any(|s| s.body.iter().any(in_place)));

        let binding = ConfigBinding::defaults(&sp.program);
        let mut interp = Interp::new(&sp, binding.clone());
        interp.execute(&mut NoopObserver).unwrap();
        let mut vm = Vm::new_superfused(&sp, binding).unwrap();
        vm.verify().unwrap();
        vm.execute(&mut NoopObserver).unwrap();
        assert_eq!(interp.array(ArrayId(2)), vm.array(ArrayId(2)));
    }

    /// The operands every strip kernel is checked over, all 20 x 20 pairs.
    fn operand_table() -> [f64; 20] {
        let nan = |bits: u64| f64::from_bits(bits);
        [
            0.0,
            -0.0,
            1.0,
            -1.0,
            2.5,
            -2.5,
            0.5,
            -0.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            nan(0x7ff8_0000_0000_0000),             // quiet NaN
            nan(0xfff8_0000_0000_0000),             // quiet NaN, sign set
            nan(0x7ff8_0000_dead_beef),             // quiet NaN with a payload
            nan(0x7ff0_0000_0000_0001),             // signalling NaN
            f64::from_bits(1),                      // least subnormal
            -f64::from_bits(0x000f_ffff_ffff_ffff), // greatest subnormal, negated
            f64::MAX,
            f64::MIN_POSITIVE,
            1e300,
            4.0,
        ]
    }

    const QUIET_BIT: u64 = 1 << 51;

    /// What the kernel table tests run per position: every operator and
    /// intrinsic once, over operands `x`, `y` (and `z` for `select`).
    fn kernels() -> Vec<Func> {
        use BinOp::*;
        use Intrinsic::*;
        let bins = [Add, Sub, Mul, Div, Lt, Le, Gt, Ge, Eq, Ne];
        let calls = [
            Sqrt, Exp, Ln, Sin, Cos, Abs, Floor, Min, Max, Pow, Select, Rnd, Sign,
        ];
        let mut all: Vec<Func> = bins.into_iter().map(Func::Bin).collect();
        all.push(Func::Neg);
        all.extend(calls.into_iter().map(Func::Call));
        all
    }

    /// `f` at one position, as the scalar engines compute it.
    fn scalar(f: Func, [x, y, z]: [f64; 3]) -> f64 {
        match f {
            Func::Bin(op) => binop(op, x, y),
            Func::Neg => -x,
            Func::Call(intr) => intr.eval(&[x, y, z][..intr.arity()]),
        }
    }

    /// `got` is `f(x, y, z)`'s bits - up to the one freedom: LLVM may
    /// commute `+` and `*`, and x86 hands on the first NaN operand's
    /// payload, so of two NaN operands either may come out (Rust leaves
    /// NaN payloads of arithmetic unspecified). On the operand table the
    /// baseline copy commutes where the AVX2 copy and `binop` do not.
    fn assert_kernel(f: Func, xyz: [f64; 3], got: f64, ctx: &str) {
        let want = scalar(f, xyz);
        let [x, y, _] = xyz;
        let commuted = matches!(f, Func::Bin(BinOp::Add | BinOp::Mul))
            && x.is_nan()
            && y.is_nan()
            && [x, y]
                .iter()
                .any(|v| got.to_bits() == v.to_bits() | QUIET_BIT);
        assert!(
            got.to_bits() == want.to_bits() || commuted,
            "{f:?}({x:?} {:#x}, {y:?} {:#x}, {:?}) {ctx}: {:#x} vs {:#x}",
            x.to_bits(),
            y.to_bits(),
            xyz[2],
            got.to_bits(),
            want.to_bits(),
        );
    }

    /// A lane run of `info` over `arrays` (element `r*stride + c` of array
    /// `a` is access `a`'s position `(r, c)`), through the baseline copy of
    /// the strip loop, which no AVX2 host otherwise runs, or the copy the
    /// host picks.
    #[allow(clippy::too_many_arguments)]
    fn run_table(
        info: &SimdInfo,
        stride: i64,
        arrays: &mut [Option<VmArray>],
        regs: &mut [f64],
        width: usize,
        wide: bool,
    ) -> LaneRun {
        use crate::bytecode::{Access, ArrayInfo};
        let code = Code {
            accesses: (0..arrays.len())
                .map(|a| Access {
                    arr: a as u16,
                    const_flat: 0,
                    strides: [stride, 1, 0, 0],
                    rank: 2,
                    check: None,
                })
                .collect(),
            arrays: arrays
                .iter()
                .enumerate()
                .map(|(a, arr)| ArrayInfo {
                    name: format!("a{a}"),
                    elems: arr.as_ref().unwrap().data.len() as u64,
                    bytes: arr.as_ref().unwrap().data.len() as u64 * 8,
                })
                .collect(),
            ..Code::default()
        };
        let mut mem = VmMem {
            code: &code,
            arrays,
        };
        let idx = [0i64; MAX_RANK];
        let mut scratch = LaneScratch::default();
        let plan = plan(info, width, None, &idx).unwrap();
        let positions = info.stop * info.rows.map_or(1, |r| r.stop);
        assert_eq!(plan.w, width.min(positions as usize));
        let mut deadline = Deadline::start(None).unwrap();
        let mut cx = enter(
            &code,
            info,
            plan,
            regs,
            &idx,
            &mut mem,
            &mut scratch,
            &mut deadline,
        )
        .unwrap();
        let mut reported = 0;
        run_strips(&mut cx, wide, &mut |_, at| reported += at.len).unwrap();
        assert_eq!(
            reported as i64, positions,
            "every position is reported, in strips"
        );
        leave(cx)
    }

    /// Every kernel over all 20 x 20 operand pairs (`z` another spread of
    /// the table), as a lane op over loaded slots, with every operand read
    /// in place, and with the first operand from a slot and the rest in
    /// place; plus a store and a reduction of an in-place operand. The 400
    /// positions are 20 rows of 20 in arrays whose rows are 23 long, so a
    /// strip that crosses a row end reads its in-place operands in pieces.
    #[test]
    fn every_strip_kernel_matches_the_scalar_definition_in_both_instantiations() {
        let table = operand_table();
        let side = table.len();
        let (stride, n) = (side as i64 + 3, side * side);
        let kernels = kernels();
        let forms = ["in slots", "in place", "mixed"];
        // Arrays 0..3 hold x, y, z; then one result array per kernel and
        // form, and the in-place store's copy of x. Streams 0..3 load x,
        // y, z into slots 0..3, streams 3..6 are the same three in place.
        let xyz = |i: usize| [table[i / side], table[i % side], table[i * 7 % side]];
        let input = |k: usize| -> Vec<f64> {
            let mut data = vec![0.0; side * stride as usize];
            for i in 0..n {
                data[i / side * stride as usize + i % side] = xyz(i)[k];
            }
            data
        };
        let results = 3 + forms.len() * kernels.len();
        let copy = results as u16;
        let mut body: Vec<LaneOp> = (0..3)
            .map(|a| LaneOp::Load {
                dst: a,
                acc: a as u32,
            })
            .collect();
        body.extend((0..3).map(|a| LaneOp::Fold { acc: a }));
        let (lane, mem) = (Src::lane, Src::mem);
        let operands = [
            [lane(0), lane(1), lane(2)],
            [mem(3), mem(4), mem(5)],
            [lane(0), mem(4), mem(5)],
        ];
        for (form, args) in operands.iter().enumerate() {
            for (k, &f) in kernels.iter().enumerate() {
                let dst = (3 + form * kernels.len() + k) as u16;
                body.push(LaneOp::Apply {
                    f,
                    dst,
                    args: *args,
                });
                body.push(LaneOp::Store {
                    acc: dst as u32,
                    src: Src::lane(dst),
                });
            }
        }
        let (sum_lane, sum_mem) = (results as Reg, results as Reg + 1);
        body.extend([
            LaneOp::Store {
                acc: copy as u32,
                src: mem(3),
            },
            LaneOp::Reduce {
                op: ReduceOp::Sum,
                acc: sum_lane,
                src: lane(0),
            },
            LaneOp::Reduce {
                op: ReduceOp::Sum,
                acc: sum_mem,
                src: mem(3),
            },
        ]);
        let info = SimdInfo {
            dim: 1,
            lanes: MAX_LANES as u8,
            start: 0,
            step: 1,
            stop: side as i64,
            head: 0,
            exit: 1,
            body,
            lane_regs: (0..results as Reg).collect(),
            finals: Vec::new(),
            bcast: Vec::new(),
            rows: Ok(Rows {
                dim: 0,
                start: 0,
                step: 1,
                stop: side as i64,
                exit: 2,
                lanes: MAX_LANES as u8,
            }),
        };
        let in_order = (0..n).fold(0.0, |s, i| s + xyz(i)[0]);

        // 64 and 128 end in a partial strip of 16, 63 in one of 22: full
        // vectors, and the scalar tail of a vectorized loop; every width
        // cuts strips across row ends. Every kernel stores its strip, so
        // the arrays hold what each copy computed at every position (the
        // lane file only keeps the last strip).
        for width in [64, 63, 128] {
            for wide in [false, true] {
                let mut arrays: Vec<Option<VmArray>> = (0..=results)
                    .map(|a| {
                        Some(VmArray {
                            base: 0,
                            data: if a < 3 {
                                input(a)
                            } else {
                                vec![0.0; side * stride as usize]
                            },
                        })
                    })
                    .collect();
                let mut regs = vec![0.0; results + 2];
                let run = run_table(&info, stride, &mut arrays, &mut regs, width, wide);
                assert_eq!(run.stats.points, 0, "the program has no tick");
                assert_eq!(
                    run.stats.loads,
                    6 * n as u64,
                    "a fold is counted as the load it is"
                );
                let at = |a: usize, i: usize| {
                    arrays[a].as_ref().unwrap().data[i / side * stride as usize + i % side]
                };
                for (form, name) in forms.iter().enumerate() {
                    for (k, &f) in kernels.iter().enumerate() {
                        for i in 0..n {
                            let got = at(3 + form * kernels.len() + k, i);
                            let ctx = format!("{name} at width {width}, wide {wide}");
                            assert_kernel(f, xyz(i), got, &ctx);
                        }
                    }
                }
                for i in 0..n {
                    assert_eq!(at(copy as usize, i).to_bits(), xyz(i)[0].to_bits());
                }
                for acc in [sum_lane, sum_mem] {
                    assert_eq!(regs[acc as usize].to_bits(), in_order.to_bits());
                }
            }
        }
    }

    /// Every kernel as an evaluated-once op, over every operand triple of
    /// the kernel table: once per run, and once per row of a run that
    /// crosses row ends, the result stored at each of the run's 2 x 3
    /// positions. A run is evaluated with the scalar definition itself, so
    /// there is no freedom here at all, NaN payloads included.
    #[test]
    fn every_evaluated_once_op_matches_the_scalar_definition_in_both_instantiations() {
        let table = operand_table();
        let side = table.len();
        let kernels = kernels();
        let k = kernels.len();
        // Slots 0..2k: the once ops' results, per run then per row; the
        // broadcast slots after them: x, y, z from registers 0..3.
        let bcast: Vec<Bcast> = (0..3).map(Bcast::Reg).collect();
        let b = (2 * k) as u16;
        let args = [Src::lane(b), Src::lane(b + 1), Src::lane(b + 2)];
        let mut body = Vec::new();
        for row in [false, true] {
            for (j, &f) in kernels.iter().enumerate() {
                let dst = (row as usize * k + j) as u16;
                body.push(LaneOp::Once { f, dst, args, row });
                body.push(LaneOp::Store {
                    acc: dst as u32,
                    src: Src::lane(dst),
                });
            }
        }
        let info = SimdInfo {
            dim: 1,
            lanes: MAX_LANES as u8,
            start: 0,
            step: 1,
            stop: 3,
            head: 0,
            exit: 1,
            body,
            lane_regs: (3..3 + 2 * k as Reg).collect(),
            finals: Vec::new(),
            bcast,
            rows: Ok(Rows {
                dim: 0,
                start: 0,
                step: 1,
                stop: 2,
                exit: 2,
                lanes: MAX_LANES as u8,
            }),
        };
        for width in [2, 4, 128] {
            for wide in [false, true] {
                for i in 0..side * side {
                    let xyz = [table[i / side], table[i % side], table[i * 7 % side]];
                    let mut arrays: Vec<Option<VmArray>> = (0..2 * k)
                        .map(|_| {
                            Some(VmArray {
                                base: 0,
                                data: vec![0.0; 6],
                            })
                        })
                        .collect();
                    let mut regs = vec![0.0; 3 + 2 * k];
                    regs[..3].copy_from_slice(&xyz);
                    run_table(&info, 3, &mut arrays, &mut regs, width, wide);
                    for (a, arr) in arrays.iter().enumerate() {
                        let f = kernels[a % k];
                        let want = scalar(f, xyz).to_bits();
                        for (p, got) in arr.as_ref().unwrap().data.iter().enumerate() {
                            assert_eq!(
                                got.to_bits(),
                                want,
                                "{f:?}{xyz:?} per {} at position {p}, width {width}, \
                                 wide {wide}",
                                if a < k { "run" } else { "row" }
                            );
                        }
                        // And the register the op's slot backs.
                        assert_eq!(regs[3 + a].to_bits(), want);
                    }
                }
            }
        }
    }

    #[test]
    fn superfused_scalar_run_is_bit_identical() {
        use crate::interp::NoopObserver;
        use crate::{Executor, Vm};
        let sp = simple_fill();
        let binding = ConfigBinding::defaults(&sp.program);
        let mut plain = Vm::new(&sp, binding.clone()).unwrap();
        let op = plain.execute(&mut NoopObserver).unwrap();
        let mut fused = Vm::new_superfused(&sp, binding).unwrap();
        let of = fused.execute(&mut NoopObserver).unwrap();
        assert_eq!(op, of, "scalar dispatch over superinstructions");
        assert_eq!(plain.array(ArrayId(2)), fused.array(ArrayId(2)));
    }

    /// `l0 = a1[p]; fold a0[p]; between; a2[p] = @1`: stream 1, array 0,
    /// read in place two ops after its fold, along dimension `dim` of
    /// [`run_table`]'s arrays (unit-stride along 1, stride 4 along 0).
    fn in_place_copy(dim: u8, between: LaneOp) -> SimdInfo {
        SimdInfo {
            dim,
            lanes: MAX_LANES as u8,
            start: 0,
            step: 1,
            stop: 4,
            head: 0,
            exit: 1,
            body: vec![
                LaneOp::Load { dst: 0, acc: 1 },
                LaneOp::Fold { acc: 0 },
                between,
                LaneOp::Store {
                    acc: 2,
                    src: Src::mem(1),
                },
            ],
            lane_regs: vec![0],
            finals: Vec::new(),
            bcast: Vec::new(),
            rows: Err(NoRows::NoEnclosingLoop),
        }
    }

    /// Runs `info` over three 4 x 4 arrays.
    fn run_small(info: &SimdInfo) {
        let mut arrays: Vec<Option<VmArray>> = (0..3)
            .map(|_| {
                Some(VmArray {
                    base: 0,
                    data: vec![1.0; 16],
                })
            })
            .collect();
        run_table(info, 4, &mut arrays, &mut [0.0], 4, false);
    }

    #[test]
    fn an_in_place_read_across_a_store_to_another_array_runs() {
        let other = LaneOp::Store {
            acc: 1,
            src: Src::lane(0),
        };
        run_small(&in_place_copy(1, other));
    }

    /// What the strip loop takes on trust is checked again on entry in
    /// debug builds, which every differential suite runs under.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "op 3 reads stream 1 in place across a store to its array")]
    fn debug_builds_reject_an_in_place_read_across_a_store_to_its_array() {
        let same = LaneOp::Store {
            acc: 0,
            src: Src::lane(0),
        };
        run_small(&in_place_copy(1, same));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "op 3 reads stream 1 in place at stride 4")]
    fn debug_builds_reject_a_strided_in_place_read() {
        let other = LaneOp::Store {
            acc: 1,
            src: Src::lane(0),
        };
        run_small(&in_place_copy(0, other));
    }
}
