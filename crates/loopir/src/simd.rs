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
//!    bundle is observably identical to the unfused sequence.
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
//! strips of up to 64 consecutive iterations (the last strip shorter when
//! the width does not divide the extent). Every op is one tight loop over
//! the strip's slices of the lane file, which LLVM vectorizes (with AVX2
//! when the CPU has it; both forms are exactly IEEE, so the choice never
//! changes a bit). Each position computes exactly the scalar iteration's
//! values with the same per-element operation order, and a reduction
//! folds its strip into the accumulator in iteration order, so results
//! stay `f64::to_bits`-identical to the interpreter; loops that would not
//! (carried dependences) are simply never annotated.

use crate::bytecode::{Bcast, Code, LaneOp, Op, Reg, SimdInfo, MAX_CALL_ARGS, MAX_LANES, MAX_RANK};
use crate::interp::{binop, ExecError, Observer};
use crate::vm::{unallocated, VmArray};
use std::time::Instant;
use zlang::ast::{BinOp, ReduceOp};
use zlang::ir::Intrinsic;

/// Strip width when the caller does not override it ([`MAX_LANES`] is the
/// cap). A constant, not a knob: past 32 the width buys little (SIMPLE
/// n=256 runs 27.2 / 23.1 / 22.2 ms at 32 / 64 / 128, SP n=24 21.9 / 22.7
/// / 22.2 ms; EXPERIMENTS.md), and 64 keeps most lane files inside L1.
pub(crate) const DEFAULT_LANES: usize = 64;

/// Rewrites compiled bytecode in place: bundles superinstructions, then
/// annotates vectorizable innermost loops with [`Op::SimdBegin`].
///
/// Idempotent in effect (bundles don't re-bundle; an already-annotated
/// loop body contains `SimdBegin` only at loop *entry*, never inside a
/// body), but intended to run exactly once, straight after
/// `bytecode::compile`.
pub(crate) fn superfuse(code: &mut Code) {
    bundle(code);
    vectorize(code);
}

/// Marks every pc that some control transfer can land on (plus `n`, the
/// one-past-the-end pc a final back edge may test against).
fn jump_targets(code: &Code) -> Vec<bool> {
    let n = code.ops.len();
    let mut t = vec![false; n + 1];
    let mut mark = |p: u32| {
        let p = p as usize;
        if p <= n {
            t[p] = true;
        }
    };
    for op in &code.ops {
        match *op {
            Op::Jmp { target } => mark(target),
            Op::JmpIfZero { target, .. } => mark(target),
            Op::IdxStep { head, .. } => mark(head),
            Op::CtrStep { head, .. } => mark(head),
            Op::ForInit { exit, .. } => mark(exit),
            _ => {}
        }
    }
    for p in &code.pars {
        mark(p.entry);
        mark(p.exit);
    }
    for s in &code.simds {
        mark(s.head);
        mark(s.exit);
    }
    t
}

/// Views an op as a register arithmetic instruction `(op, dst, a, b)`.
fn as_arith(op: &Op) -> Option<(BinOp, Reg, Reg, Reg)> {
    match *op {
        Op::Add { dst, a, b } => Some((BinOp::Add, dst, a, b)),
        Op::Sub { dst, a, b } => Some((BinOp::Sub, dst, a, b)),
        Op::Mul { dst, a, b } => Some((BinOp::Mul, dst, a, b)),
        Op::Div { dst, a, b } => Some((BinOp::Div, dst, a, b)),
        Op::Bin { op, dst, a, b } => Some((op, dst, a, b)),
        _ => None,
    }
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
            if let Some((op, dst, a, b)) = as_arith(&ops[i + 2]) {
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
            (Op::Load { dst: dl, acc }, arith) => {
                if let Some((op, dst, a, b)) = as_arith(arith) {
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
                if let Op::Store { acc: sa, src } = &ops[i + 1] {
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
                if let Some((op, dst, a, b)) = as_arith(first) {
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
                    (as_arith(first), as_arith(second))
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
/// remap every jump target onto the shortened op stream.
fn bundle(code: &mut Code) {
    let targets = jump_targets(code);
    let old = std::mem::take(&mut code.ops);
    let mut new_ops: Vec<Op> = Vec::with_capacity(old.len());
    // remap[old_pc] = new pc of the (bundle containing the) op.
    let mut remap = vec![0u32; old.len() + 1];
    let mut i = 0;
    while i < old.len() {
        let (op, consumed) = fuse_at(&old, &targets, i);
        let here = new_ops.len() as u32;
        for k in 0..consumed {
            remap[i + k] = here;
        }
        new_ops.push(op);
        i += consumed;
    }
    remap[old.len()] = new_ops.len() as u32;
    for op in &mut new_ops {
        match op {
            Op::Jmp { target } => *target = remap[*target as usize],
            Op::JmpIfZero { target, .. } => *target = remap[*target as usize],
            Op::IdxStep { head, .. } => *head = remap[*head as usize],
            Op::CtrStep { head, .. } => *head = remap[*head as usize],
            Op::ForInit { exit, .. } => *exit = remap[*exit as usize],
            _ => {}
        }
    }
    for p in &mut code.pars {
        p.entry = remap[p.entry as usize];
        p.exit = remap[p.exit as usize];
    }
    code.ops = new_ops;
}

/// Phase 2: find vectorizable innermost loops, decode their bodies into
/// lane programs, and insert an [`Op::SimdBegin`] immediately before each
/// loop's `SetIdx` so loop entry (from straight-line fall-through, an
/// outer loop's back edge, or a `ParInfo::entry`) passes through it.
fn vectorize(code: &mut Code) {
    let targets = jump_targets(code);
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
        if ((h + 1)..=t).any(|p| targets[p]) {
            continue;
        }
        let extent = (stop - start) / step;
        if extent < 2 {
            continue;
        }
        let Some(cand) = analyze_loop(code, h, t, d as usize, step) else {
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
                bcast: cand.bcast,
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
        (p + positions.iter().filter(|&&q| q < p).count()) as u32
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
    for op in &mut new_ops {
        match op {
            Op::Jmp { target } => *target = shift(*target),
            Op::JmpIfZero { target, .. } => *target = shift(*target),
            Op::IdxStep { head, .. } => *head = shift(*head),
            Op::CtrStep { head, .. } => *head = shift(*head),
            Op::ForInit { exit, .. } => *exit = shift(*exit),
            _ => {}
        }
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
            info
        })
        .collect();
    code.ops = new_ops;
}

/// A decoded vectorizable loop body plus its proven safe width.
pub(crate) struct SimdCandidate {
    pub body: Vec<LaneOp>,
    pub lane_regs: Vec<Reg>,
    pub bcast: Vec<Bcast>,
    pub lanes: u8,
}

/// One constituent micro-op of a (possibly bundled) body instruction.
enum Micro {
    Load {
        dst: Reg,
        acc: u32,
    },
    Store {
        acc: u32,
        src: Reg,
    },
    Bin {
        op: BinOp,
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Neg {
        dst: Reg,
        src: Reg,
    },
    Mov {
        dst: Reg,
        src: Reg,
    },
    IdxF {
        dst: Reg,
        d: u8,
    },
    Call {
        intr: Intrinsic,
        dst: Reg,
        base: Reg,
        n: u8,
    },
    Reduce {
        op: ReduceOp,
        acc: Reg,
        src: Reg,
    },
    Tick {
        flops: u32,
    },
}

/// Expands body ops (including superinstructions) into micro-ops, or
/// `None` if the body contains anything outside the vectorizable subset
/// (control flow, allocation, observer markers, nested loops).
fn expand(ops: &[Op]) -> Option<Vec<Micro>> {
    let mut out = Vec::with_capacity(ops.len() * 2);
    for op in ops {
        match *op {
            Op::Add { dst, a, b } => out.push(Micro::Bin {
                op: BinOp::Add,
                dst,
                a,
                b,
            }),
            Op::Sub { dst, a, b } => out.push(Micro::Bin {
                op: BinOp::Sub,
                dst,
                a,
                b,
            }),
            Op::Mul { dst, a, b } => out.push(Micro::Bin {
                op: BinOp::Mul,
                dst,
                a,
                b,
            }),
            Op::Div { dst, a, b } => out.push(Micro::Bin {
                op: BinOp::Div,
                dst,
                a,
                b,
            }),
            Op::Bin { op, dst, a, b } => out.push(Micro::Bin { op, dst, a, b }),
            Op::Neg { dst, src } => out.push(Micro::Neg { dst, src }),
            Op::Mov { dst, src } => out.push(Micro::Mov { dst, src }),
            Op::Call { intr, dst, base, n } => out.push(Micro::Call { intr, dst, base, n }),
            Op::IdxF { dst, d } => out.push(Micro::IdxF { dst, d }),
            Op::Load { dst, acc } => out.push(Micro::Load { dst, acc }),
            Op::Store { acc, src } => out.push(Micro::Store { acc, src }),
            Op::Reduce { op, dst, src } => out.push(Micro::Reduce { op, acc: dst, src }),
            Op::Tick { flops } => out.push(Micro::Tick { flops }),
            Op::LdLdBin {
                op,
                dst,
                da,
                aa,
                db,
                ab,
            } => {
                out.push(Micro::Load { dst: da, acc: aa });
                out.push(Micro::Load { dst: db, acc: ab });
                out.push(Micro::Bin {
                    op,
                    dst,
                    a: da,
                    b: db,
                });
            }
            Op::LdBin {
                op,
                dst,
                dl,
                acc,
                other,
                right,
            } => {
                out.push(Micro::Load { dst: dl, acc });
                let (a, b) = if right { (other, dl) } else { (dl, other) };
                out.push(Micro::Bin { op, dst, a, b });
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
                out.push(Micro::Bin {
                    op: op1,
                    dst: d1,
                    a: a1,
                    b: b1,
                });
                out.push(Micro::Bin {
                    op: op2,
                    dst: d2,
                    a: a2,
                    b: b2,
                });
            }
            Op::BinSt { op, dst, a, b, acc } => {
                out.push(Micro::Bin { op, dst, a, b });
                out.push(Micro::Store { acc, src: dst });
            }
            Op::LdSt { dst, la, sa } => {
                out.push(Micro::Load { dst, acc: la });
                out.push(Micro::Store { acc: sa, src: dst });
            }
            _ => return None,
        }
    }
    Some(out)
}

/// `slot_of` marks for registers that own no lane slot: one the body never
/// writes (its value is broadcast), and a reduction accumulator.
const INVARIANT: u16 = u16::MAX;
const ACCUMULATOR: u16 = u16::MAX - 1;

/// Decodes the innermost loop body `code.ops[head..tail]` iterating
/// `dim` with `step` into a slot-resolved lane program, and proves a safe
/// strip width.
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
/// Returns `None` when the body is not vectorizable: it contains an op
/// outside the element-wise subset, a checked access, a read of a
/// body-written register before its write in the same iteration (the
/// value flows around the back edge), an accumulator that is touched
/// twice, a store that does not vary along `dim` (every position would
/// write one cell), or a same-array dependence at distance < 2 iterations.
pub(crate) fn analyze_loop(
    code: &Code,
    head: usize,
    tail: usize,
    dim: usize,
    step: i64,
) -> Option<SimdCandidate> {
    let micro = expand(&code.ops[head..tail])?;

    let mut slot_of = vec![INVARIANT; code.frame as usize];
    let mut lane_regs: Vec<Reg> = Vec::new();
    for m in &micro {
        match *m {
            Micro::Load { dst, .. }
            | Micro::Bin { dst, .. }
            | Micro::Neg { dst, .. }
            | Micro::Mov { dst, .. }
            | Micro::IdxF { dst, .. }
            | Micro::Call { dst, .. } => match slot_of.get_mut(dst as usize)? {
                s @ &mut INVARIANT => {
                    *s = lane_regs.len() as u16;
                    lane_regs.push(dst);
                }
                &mut ACCUMULATOR => return None,
                _ => {}
            },
            Micro::Reduce { acc, .. } => match slot_of.get_mut(acc as usize)? {
                s @ &mut INVARIANT => *s = ACCUMULATOR,
                _ => return None, // written elsewhere, or reduced into twice
            },
            Micro::Store { .. } | Micro::Tick { .. } => {}
        }
    }

    let n_lane = lane_regs.len();
    let mut bcast: Vec<Bcast> = Vec::new();
    let mut body: Vec<LaneOp> = Vec::with_capacity(micro.len());
    // Accesses in program order, for the alias analysis below.
    let mut accs: Vec<(u32, bool)> = Vec::new();
    // Lane slots are numbered by first write, so the slots this iteration
    // has written so far are exactly those below `defined`.
    let mut defined = 0u16;

    fn bslot(bcast: &mut Vec<Bcast>, n_lane: usize, b: Bcast) -> u16 {
        let i = bcast.iter().position(|&x| x == b).unwrap_or_else(|| {
            bcast.push(b);
            bcast.len() - 1
        });
        (n_lane + i) as u16
    }
    let src = |bcast: &mut Vec<Bcast>, defined: u16, r: Reg| -> Option<u16> {
        match *slot_of.get(r as usize)? {
            INVARIANT => Some(bslot(bcast, n_lane, Bcast::Reg(r))),
            ACCUMULATOR => None, // only its own `Reduce` may touch it
            s if s < defined => Some(s),
            _ => None, // read before this iteration's write
        }
    };
    let def = |defined: &mut u16, r: Reg| -> u16 {
        let s = slot_of[r as usize];
        *defined = (*defined).max(s + 1);
        s
    };
    let check_free = |acc: u32| code.accesses[acc as usize].check.is_none();

    for m in &micro {
        match *m {
            Micro::Load { dst, acc } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, false));
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Load { dst, acc });
            }
            Micro::Store { acc, src: r } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, true));
                let src = src(&mut bcast, defined, r)?;
                body.push(LaneOp::Store { acc, src });
            }
            Micro::Bin { op, dst, a, b } => {
                let a = src(&mut bcast, defined, a)?;
                let b = src(&mut bcast, defined, b)?;
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Bin { op, dst, a, b });
            }
            Micro::Neg { dst, src: r } => {
                let src = src(&mut bcast, defined, r)?;
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Neg { dst, src });
            }
            Micro::Mov { dst, src: r } => {
                let src = src(&mut bcast, defined, r)?;
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Mov { dst, src });
            }
            Micro::IdxF { dst, d } => {
                let dst = def(&mut defined, dst);
                body.push(if d as usize == dim {
                    LaneOp::IdxSeq { dst }
                } else {
                    let src = bslot(&mut bcast, n_lane, Bcast::Idx(d));
                    LaneOp::Mov { dst, src }
                });
            }
            Micro::Call { intr, dst, base, n } => {
                if n as usize > MAX_CALL_ARGS {
                    return None;
                }
                let mut args = [0u16; MAX_CALL_ARGS];
                for (slot, r) in args.iter_mut().zip(base..base + n as Reg) {
                    *slot = src(&mut bcast, defined, r)?;
                }
                let dst = def(&mut defined, dst);
                body.push(LaneOp::Call { intr, dst, n, args });
            }
            Micro::Reduce { op, acc, src: r } => {
                let src = src(&mut bcast, defined, r)?;
                body.push(LaneOp::Reduce { op, acc, src });
            }
            Micro::Tick { flops } => body.push(LaneOp::Tick { flops }),
        }
    }

    // Cross-iteration alias analysis. The lane loop runs op-major, so
    // within a strip of `L` consecutive iterations every micro-op's L
    // instances execute before the next micro-op's. That only reorders
    // accesses between iterations at distance 1..=L-1; accesses from
    // different strips keep their scalar order (strips are sequential),
    // and other-dimension flat contributions cancel (same array ⇒ same
    // strides). Two accesses P, Q of one array collide at distance m
    // when const_flat(P) - const_flat(Q) = m·K with K = stride[dim]·step
    // (the flat advance per iteration), so the width is capped at |m|.
    let mut lanes = MAX_LANES as i64;
    for (i, &(pa, pstore)) in accs.iter().enumerate() {
        let a = &code.accesses[pa as usize];
        let ka = a.strides[dim] * step;
        if pstore && ka == 0 {
            return None; // every position would write the same cell
        }
        for &(qa, qstore) in &accs[i + 1..] {
            let b = &code.accesses[qa as usize];
            if a.arr != b.arr || !(pstore || qstore) {
                continue;
            }
            let k = ka; // same array ⇒ same strides ⇒ same per-iter advance
            if k == 0 {
                continue; // loads only touch one cell; no cross-lane order
            }
            let dc = a.const_flat - b.const_flat;
            if dc != 0 && dc % k == 0 {
                lanes = lanes.min((dc / k).abs());
            }
        }
    }
    if lanes < 2 {
        return None;
    }
    Some(SimdCandidate {
        body,
        lane_regs,
        bcast,
        lanes: lanes as u8,
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
/// lane run always covers its whole range, so scalar dispatch resumes past
/// the loop with the index at the range's stop.
#[derive(Default)]
pub(crate) struct LaneRun {
    pub loads: u64,
    pub stores: u64,
    pub flops: u64,
    pub points: u64,
    /// Scalar-equivalent dispatched-op count, for fuel accounting.
    pub ops: u64,
}

/// One memory access's address stream for the current run: iteration `i`
/// of the run touches element `flat + i*k` of array `arr`. It holds no
/// pointer; each strip op resolves `arr` again.
struct Stream {
    arr: usize,
    flat: i64,
    k: i64,
}

/// The state a lane run needs and a `Vm` or a tile worker keeps between
/// runs, so that entering a loop allocates nothing once these have grown
/// to the program's largest loop: the lane file (`slots x W` values,
/// strip `s` at `[s*W, (s+1)*W)`) and the stream table.
#[derive(Default)]
pub(crate) struct LaneScratch {
    file: Vec<f64>,
    streams: Vec<Stream>,
}

/// Binds access `acc` to a [`Stream`] and proves the whole run in bounds:
/// `flat + i*k` is monotonic in `i`, so its extremes over the run's
/// `extent` iterations are at the two ends. Verified bytecode can never
/// fail this (the run stays inside the range the scalar bounds proof
/// covers), but the check keeps the path sound even against malformed
/// `simds` tables.
fn bind<M: ElemMem>(
    mem: &mut M,
    code: &Code,
    info: &SimdInfo,
    acc: u32,
    idx: &[i64; MAX_RANK],
    base: i64,
    extent: i64,
) -> Result<Stream, ExecError> {
    let a = &code.accesses[acc as usize];
    let dim = info.dim as usize;
    let mut flat = a.const_flat;
    for (d, &i) in idx.iter().enumerate().take(a.rank as usize) {
        flat += if d == dim { base } else { i } * a.strides[d];
    }
    let k = a.strides[dim] * info.step;
    let arr = a.arr as usize;
    let (_, len) = mem.resolve(arr)?;
    let last = flat + (extent - 1) * k;
    if flat.min(last) < 0 || flat.max(last) as usize >= len {
        return Err(lane_oob(code, arr));
    }
    Ok(Stream { arr, flat, k })
}

/// Borrows strip `dst` of the lane file mutably and the `srcs` strips
/// shared, each cut to the current strip width `wc`. A source that *is*
/// `dst` (an in-place update such as `t = t * x`) reads a copy of the
/// strip taken first, into `own`.
#[inline(always)]
fn strips<'a, const N: usize>(
    file: &'a mut [f64],
    w: usize,
    wc: usize,
    dst: u16,
    srcs: [u16; N],
    own: &'a mut [f64; MAX_LANES],
) -> (&'a mut [f64], [&'a [f64]; N]) {
    let d = dst as usize;
    let (lo, rest) = file.split_at_mut(d * w);
    let (out, hi) = rest.split_at_mut(w);
    let out = &mut out[..wc];
    if srcs.contains(&dst) {
        own[..wc].copy_from_slice(out);
    }
    let (lo, hi, own): (&'a [f64], &'a [f64], &'a [f64]) = (lo, hi, own);
    let srcs = srcs.map(|s| {
        let s = s as usize;
        match s.cmp(&d) {
            std::cmp::Ordering::Less => &lo[s * w..][..wc],
            std::cmp::Ordering::Greater => &hi[(s - d - 1) * w..][..wc],
            std::cmp::Ordering::Equal => &own[..wc],
        }
    });
    (out, srcs)
}

/// `out[m] = f(a[m], b[m])` over one strip: three equal-length slices and
/// nothing else in the loop, which is the shape LLVM vectorizes.
#[inline(always)]
fn zip(out: &mut [f64], a: &[f64], b: &[f64], f: impl Fn(f64, f64) -> f64) {
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = f(x, y);
    }
}

/// Everything the strip loop needs.
struct StripCtx<'a, M> {
    info: &'a SimdInfo,
    /// The lane file, `w` values per slot.
    file: &'a mut [f64],
    streams: &'a [Stream],
    regs: &'a mut [f64],
    mem: &'a mut M,
    w: usize,
    extent: i64,
    /// `idx[dim]` of the run's first iteration.
    base: i64,
    deadline: Option<Instant>,
    run: LaneRun,
}

/// The strip loop: the run's `extent` iterations in strips of `w` (the
/// last one shorter when `w` does not divide `extent`), each op of the
/// lane program over the whole strip before the next. `#[inline(always)]`
/// so the AVX2 wrapper gets its own copy compiled with wider vectors.
#[inline(always)]
fn strip_loop<M: ElemMem>(cx: &mut StripCtx<'_, M>) -> Result<(), ExecError> {
    let w = cx.w;
    let step = cx.info.step;
    let mut own = [0.0f64; MAX_LANES];
    let mut done = 0i64;
    let mut strip = 0u64;
    while done < cx.extent {
        if strip & 0x3F == 0 {
            if let Some(d) = cx.deadline {
                if Instant::now() >= d {
                    return Err(ExecError::deadline());
                }
            }
        }
        strip += 1;
        let wc = w.min((cx.extent - done) as usize);
        let file = &mut *cx.file;
        // Memory ops take the stream table in body order.
        let mut streams = cx.streams.iter();
        for op in &cx.info.body {
            match *op {
                LaneOp::Load { dst, .. } => {
                    let s = streams.next().expect("one stream per memory op");
                    let out = &mut file[dst as usize * w..][..wc];
                    let (ptr, _) = cx.mem.resolve(s.arr)?;
                    let flat = s.flat + done * s.k;
                    // SAFETY: runtime check — on entry to this run `bind`
                    // proved both ends of the stream, `s.flat` and
                    // `s.flat + (extent-1)*s.k`, inside the allocation
                    // `resolve` reports, and every `flat + m*k` read here
                    // lies between them (verifier phases 3 and 4 prove
                    // that check cannot fail on the verified bytecode
                    // lane runs are gated on). `out` is `wc` long.
                    unsafe {
                        if s.k == 1 {
                            std::ptr::copy_nonoverlapping(
                                ptr.add(flat as usize),
                                out.as_mut_ptr(),
                                wc,
                            );
                        } else {
                            for (m, slot) in out.iter_mut().enumerate() {
                                *slot = *ptr.offset((flat + m as i64 * s.k) as isize);
                            }
                        }
                    }
                    cx.run.loads += wc as u64;
                }
                LaneOp::Store { src, .. } => {
                    let s = streams.next().expect("one stream per memory op");
                    let v = &file[src as usize * w..][..wc];
                    let (ptr, _) = cx.mem.resolve(s.arr)?;
                    let flat = s.flat + done * s.k;
                    // SAFETY: runtime check — as for `Load`, `bind`'s
                    // check of both ends of this stream's run; `v` is
                    // `wc` long and is lane-file memory, never the array.
                    unsafe {
                        if s.k == 1 {
                            std::ptr::copy_nonoverlapping(v.as_ptr(), ptr.add(flat as usize), wc);
                        } else {
                            for (m, &val) in v.iter().enumerate() {
                                *ptr.offset((flat + m as i64 * s.k) as isize) = val;
                            }
                        }
                    }
                    cx.run.stores += wc as u64;
                }
                LaneOp::Bin { op, dst, a, b } => {
                    let (out, [a, b]) = strips(file, w, wc, dst, [a, b], &mut own);
                    match op {
                        BinOp::Add => zip(out, a, b, |x, y| x + y),
                        BinOp::Sub => zip(out, a, b, |x, y| x - y),
                        BinOp::Mul => zip(out, a, b, |x, y| x * y),
                        BinOp::Div => zip(out, a, b, |x, y| x / y),
                        // Comparisons (rare in loop bodies) keep the
                        // interpreter's own `binop`.
                        _ => zip(out, a, b, |x, y| binop(op, x, y)),
                    }
                }
                LaneOp::Neg { dst, src } => {
                    let (out, [v]) = strips(file, w, wc, dst, [src], &mut own);
                    for (o, &x) in out.iter_mut().zip(v) {
                        *o = -x;
                    }
                }
                LaneOp::Mov { dst, src } => {
                    let at = src as usize * w;
                    file.copy_within(at..at + wc, dst as usize * w);
                }
                LaneOp::IdxSeq { dst } => {
                    let first = cx.base + done * step;
                    for (m, o) in file[dst as usize * w..][..wc].iter_mut().enumerate() {
                        *o = (first + m as i64 * step) as f64;
                    }
                }
                LaneOp::Call { intr, dst, n, args } => {
                    let n = n as usize;
                    let mut one = [0.0f64; MAX_CALL_ARGS];
                    for m in 0..wc {
                        for (x, &a) in one.iter_mut().zip(&args[..n]) {
                            *x = file[a as usize * w + m];
                        }
                        file[dst as usize * w + m] = intr.eval(&one[..n]);
                    }
                }
                LaneOp::Reduce { op, acc, src } => {
                    // In iteration order, so the accumulator takes exactly
                    // the scalar loop's sequence of values.
                    let v = &file[src as usize * w..][..wc];
                    let a = cx.regs[acc as usize];
                    cx.regs[acc as usize] = match op {
                        ReduceOp::Sum => v.iter().fold(a, |a, &x| a + x),
                        ReduceOp::Prod => v.iter().fold(a, |a, &x| a * x),
                        ReduceOp::Max => v.iter().fold(a, |a, &x| a.max(x)),
                        ReduceOp::Min => v.iter().fold(a, |a, &x| a.min(x)),
                    };
                }
                LaneOp::Tick { flops } => {
                    cx.run.points += wc as u64;
                    cx.run.flops += flops as u64 * wc as u64;
                }
            }
        }
        done += wc as i64;
    }
    Ok(())
}

fn run_strips<M: ElemMem>(cx: &mut StripCtx<'_, M>) -> Result<(), ExecError> {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: runtime check — `is_x86_feature_detected!("avx2")` on
        // the line above.
        return unsafe { strips_avx2(cx) };
    }
    strip_loop(cx)
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
unsafe fn strips_avx2<M: ElemMem>(cx: &mut StripCtx<'_, M>) -> Result<(), ExecError> {
    strip_loop(cx)
}

/// Executes `info`'s loop over `[t_start, t_stop)` in strips.
///
/// `t_start`/`t_stop` override the loop range so a parallel tile can run
/// its slice; the sequential VM passes `info.start`/`info.stop`. The strip
/// width is the least of `want`, the loop's proven alias width and the
/// range's extent; below 2 nothing runs and the result is `None` (the
/// caller stays scalar). Otherwise the run covers the whole range: `regs`
/// supplies the broadcast values and the accumulators, and afterwards
/// holds what the scalar loop would have left, every lane register's
/// value at the last iteration included.
///
/// Entering a loop fills the broadcast slots, binds one [`Stream`] per
/// memory op and proves each in bounds; the lane program itself was
/// resolved at compile time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_lanes<M: ElemMem>(
    code: &Code,
    info: &SimdInfo,
    want: usize,
    t_start: i64,
    t_stop: i64,
    regs: &mut [f64],
    idx: &[i64; MAX_RANK],
    mem: &mut M,
    scratch: &mut LaneScratch,
    deadline: Option<Instant>,
) -> Result<Option<LaneRun>, ExecError> {
    let extent = (t_stop - t_start) / info.step;
    let w = want
        .min(info.lanes as usize)
        .min(MAX_LANES)
        .min(extent.max(0) as usize);
    if w < 2 {
        return Ok(None);
    }
    let n_lane = info.lane_regs.len();
    let LaneScratch { file, streams } = scratch;
    let need = (n_lane + info.bcast.len()) * w;
    if file.len() < need {
        file.resize(need, 0.0);
    }
    let file = &mut file[..need];
    // Body ops never write a broadcast slot (every register the body
    // writes owns a lane slot), so one fill serves every strip.
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
    streams.clear();
    for op in &info.body {
        if let LaneOp::Load { acc, .. } | LaneOp::Store { acc, .. } = *op {
            streams.push(bind(mem, code, info, acc, idx, t_start, extent)?);
        }
    }

    let mut cx = StripCtx {
        info,
        file,
        streams,
        regs,
        mem,
        w,
        extent,
        base: t_start,
        deadline,
        run: LaneRun::default(),
    };
    run_strips(&mut cx)?;
    let StripCtx {
        file,
        regs,
        mut run,
        ..
    } = cx;

    // Post-loop code must see exactly the registers a scalar run would
    // have left: the last iteration's values, which sit at this position
    // of the last strip.
    let last = (extent - 1) as usize % w;
    for (slot, &r) in info.lane_regs.iter().enumerate() {
        regs[r as usize] = file[slot * w + last];
    }
    run.ops = extent as u64 * (info.exit - info.head) as u64;
    Ok(Some(run))
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
                    src: 0,
                    ..
                }]
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
        let in_place =
            |op: &LaneOp| matches!(*op, LaneOp::Bin { dst, a, b, .. } if dst == a || dst == b);
        assert!(code.simds.iter().any(|s| s.body.iter().any(in_place)));

        let binding = ConfigBinding::defaults(&sp.program);
        let mut interp = Interp::new(&sp, binding.clone());
        interp.execute(&mut NoopObserver).unwrap();
        let mut vm = Vm::new_superfused(&sp, binding).unwrap();
        vm.verify().unwrap();
        vm.execute(&mut NoopObserver).unwrap();
        assert_eq!(interp.array(ArrayId(2)), vm.array(ArrayId(2)));
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
}
