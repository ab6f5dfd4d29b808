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
//!    body is straight-line, check-free, reduction-free, and free of
//!    loop-carried register dependences is decoded once into a lane
//!    program ([`LaneOp`]) and annotated with an [`Op::SimdBegin`] marker.
//!    A cross-iteration alias analysis bounds the safe lane count: for
//!    every same-array access pair with at least one store, a dependence
//!    distance of `m` iterations caps the width at `m` lanes, because the
//!    lane loop executes op-major (each micro-op across all lanes before
//!    the next micro-op) and must never reorder a conflicting load/store
//!    pair within a chunk.
//!
//! Scalar dispatchers treat `SimdBegin` as a no-op and fall through into
//! the loop, so one bytecode serves every engine. A lane-enabled verified
//! VM instead calls [`run_lanes`], which executes whole chunks of `lanes`
//! iterations across unrolled f64 lanes (portable unrolled loops by
//! default, `std::arch` SSE2/AVX2 behind runtime detection) and then
//! resumes the scalar loop for the remainder iterations. Because each
//! lane computes exactly the scalar iteration's values with the same
//! per-element operation order, results stay `f64::to_bits`-identical to
//! the interpreter; loops that would not (reductions, carried deps) are
//! simply never annotated.

use crate::bytecode::{Code, LaneOp, LaneSrc, Op, Reg, SimdInfo, MAX_LANES, MAX_RANK};
use crate::interp::{binop, ExecError, Observer};
use crate::vm::{unallocated, VmArray};
use std::collections::HashMap;
use std::time::Instant;
use zlang::ast::BinOp;
use zlang::ir::Intrinsic;

/// Default lane width when the caller does not override it (wide enough
/// to cover one SSE2 register per two lanes; [`MAX_LANES`] is the cap).
pub(crate) const DEFAULT_LANES: usize = 4;

/// Largest intrinsic arity the lane decoder accepts.
const MAX_CALL_ARGS: usize = 4;

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
    Tick {
        flops: u32,
    },
}

/// Expands body ops (including superinstructions) into micro-ops, or
/// `None` if the body contains anything outside the vectorizable subset
/// (control flow, reductions, observer markers, nested loops).
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

/// Decodes the innermost loop body `code.ops[head..tail]` iterating
/// `dim` with `step` into a lane program, and proves a safe lane count.
///
/// Returns `None` when the body is not vectorizable: it contains an op
/// outside the element-wise subset, a checked access, a loop-carried
/// register dependence (a read of a body-written register before its
/// first write in the body — e.g. a running reduction), a store that
/// does not vary along `dim` (every lane would race on one cell), or a
/// same-array dependence at distance < 2 iterations.
pub(crate) fn analyze_loop(
    code: &Code,
    head: usize,
    tail: usize,
    dim: usize,
    step: i64,
) -> Option<SimdCandidate> {
    let micro = expand(&code.ops[head..tail])?;

    // Registers the body writes: a read of one of these *before* its
    // first write means the value flows around the back edge — a
    // loop-carried dependence the lane file cannot represent.
    let mut written: Vec<Reg> = Vec::new();
    for m in &micro {
        match *m {
            Micro::Load { dst, .. }
            | Micro::Bin { dst, .. }
            | Micro::Neg { dst, .. }
            | Micro::Mov { dst, .. }
            | Micro::IdxF { dst, .. }
            | Micro::Call { dst, .. } => written.push(dst),
            Micro::Store { .. } | Micro::Tick { .. } => {}
        }
    }

    let mut lane_of: HashMap<Reg, u16> = HashMap::new();
    let mut lane_regs: Vec<Reg> = Vec::new();
    let mut body: Vec<LaneOp> = Vec::new();
    // Accesses in program order, for the alias analysis below.
    let mut accs: Vec<(u32, bool)> = Vec::new();

    let mut def = |lane_of: &mut HashMap<Reg, u16>, r: Reg| -> u16 {
        *lane_of.entry(r).or_insert_with(|| {
            lane_regs.push(r);
            (lane_regs.len() - 1) as u16
        })
    };
    let src = |lane_of: &HashMap<Reg, u16>, r: Reg| -> Option<LaneSrc> {
        if let Some(&s) = lane_of.get(&r) {
            Some(LaneSrc::Lane(s))
        } else if written.contains(&r) {
            None // read-before-write of a body-written register
        } else {
            Some(LaneSrc::Scalar(r))
        }
    };
    let check_free = |acc: u32| code.accesses[acc as usize].check.is_none();

    for m in &micro {
        match *m {
            Micro::Load { dst, acc } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, false));
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::Load { dst, acc });
            }
            Micro::Store { acc, src: r } => {
                if !check_free(acc) {
                    return None;
                }
                accs.push((acc, true));
                let src = src(&lane_of, r)?;
                body.push(LaneOp::Store { acc, src });
            }
            Micro::Bin { op, dst, a, b } => {
                let a = src(&lane_of, a)?;
                let b = src(&lane_of, b)?;
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::Bin { op, dst, a, b });
            }
            Micro::Neg { dst, src: r } => {
                let src = src(&lane_of, r)?;
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::Neg { dst, src });
            }
            Micro::Mov { dst, src: r } => {
                let src = src(&lane_of, r)?;
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::Mov { dst, src });
            }
            Micro::IdxF { dst, d } => {
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::IdxF { dst, d });
            }
            Micro::Call { intr, dst, base, n } => {
                if n as usize > MAX_CALL_ARGS {
                    return None;
                }
                let mut args = Vec::with_capacity(n as usize);
                for r in base..base + n as Reg {
                    args.push(src(&lane_of, r)?);
                }
                let dst = def(&mut lane_of, dst);
                body.push(LaneOp::Call { intr, dst, args });
            }
            Micro::Tick { flops } => body.push(LaneOp::Tick { flops }),
        }
    }

    // Cross-iteration alias analysis. The lane loop runs op-major, so
    // within a chunk of `L` consecutive iterations every micro-op's L
    // instances execute before the next micro-op's. That only reorders
    // accesses between iterations at distance 1..=L-1; accesses from
    // different chunks keep their scalar order (chunks are sequential),
    // and other-dimension flat contributions cancel (same array ⇒ same
    // strides). Two accesses P, Q of one array collide at distance m
    // when const_flat(P) - const_flat(Q) = m·K with K = stride[dim]·step
    // (the flat advance per iteration), so the width is capped at |m|.
    let mut lanes = MAX_LANES as i64;
    for (i, &(pa, pstore)) in accs.iter().enumerate() {
        let a = &code.accesses[pa as usize];
        let ka = a.strides[dim] * step;
        if pstore && ka == 0 {
            return None; // every lane would write the same cell
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
                let m = (dc / k).abs();
                if m >= 1 {
                    lanes = lanes.min(m);
                }
            }
        }
    }
    if lanes < 2 {
        return None;
    }
    Some(SimdCandidate {
        body,
        lane_regs,
        lanes: lanes.min(MAX_LANES as i64) as u8,
    })
}

/// Array memory as a fused loop body reaches it. The VM and the parallel
/// tile executor hold array storage differently (owned buffers vs. raw
/// tile views), so the scalar body executor (`vm::body_op`) and
/// [`run_lanes`] both go through this trait.
pub(crate) trait ElemMem {
    /// Resolves array `ai` to its base pointer and element count, for one
    /// lane run. Resolution happens once per run, not per access: the
    /// vectorizer only admits loop bodies free of allocation, so a
    /// resolved base pointer stays valid (and its length stays exact) for
    /// the whole run.
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

/// What a [`run_lanes`] call executed, for the dispatcher's accounting.
#[derive(Default)]
pub(crate) struct LaneRun {
    /// Scalar iterations covered (a multiple of the width; the scalar
    /// epilogue owes the remaining `extent - iters`).
    pub iters: i64,
    /// Where scalar dispatch resumes: the vectorized dimension's index
    /// value and the pc — past the loop when the run covered it, else the
    /// loop head for the remainder (compensating the skipped `SetIdx`).
    pub resume_idx: i64,
    pub resume_pc: u32,
    pub loads: u64,
    pub stores: u64,
    pub flops: u64,
    pub points: u64,
    /// Scalar-equivalent dispatched-op count, for fuel accounting.
    pub ops: u64,
}

/// A [`LaneOp`] lowered for the chunk loop: every operand resolved to a
/// lane slot (loop-invariant scalars pre-broadcast into extra slots),
/// every memory access bound to a [`MemStream`], counters and bounds
/// checks hoisted out of the loop entirely.
enum ChunkOp {
    Load {
        dst: u16,
        mem: u16,
    },
    Store {
        src: u16,
        mem: u16,
    },
    Bin {
        op: BinOp,
        dst: u16,
        a: u16,
        b: u16,
    },
    Neg {
        dst: u16,
        src: u16,
    },
    Mov {
        dst: u16,
        src: u16,
    },
    /// `lane[dst][m] = (base + m*step) as f64` — the loop index along the
    /// vectorized dimension, recomputed from integers each chunk.
    IdxSeq {
        dst: u16,
    },
    Call {
        intr: Intrinsic,
        dst: u16,
        n: u8,
        args: [u16; MAX_CALL_ARGS],
    },
}

/// One memory access's address stream. `flat` is lane 0's flat index for
/// the current chunk; it advances by `dk = l*k` per chunk, and lane `m`
/// reads/writes `flat + m*k`. The base pointer is resolved once per lane
/// run (the vectorizer admits no allocation inside loop bodies) and the
/// whole stream is bounds-checked up front, so the loop itself runs
/// check-free.
struct MemStream {
    ptr: *mut f64,
    flat: i64,
    k: i64,
    dk: i64,
}

/// Builds the [`MemStream`] for access `acc` and proves the whole run in
/// bounds: `flat + m*k + c*dk` is separately monotonic in `m` and `c`,
/// so its extremes over `m < l, c < chunks` are at the four corners.
/// Verified bytecode can never fail this (lane indices stay inside the
/// range the scalar bounds proof covers), but the check keeps the path
/// sound even against malformed `simds` tables.
#[allow(clippy::too_many_arguments)]
fn stream<M: ElemMem>(
    streams: &mut Vec<MemStream>,
    mem: &mut M,
    code: &Code,
    acc: u32,
    idx: &[i64; MAX_RANK],
    dim: usize,
    base: i64,
    step: i64,
    l: usize,
    chunks: i64,
) -> Result<u16, ExecError> {
    let a = &code.accesses[acc as usize];
    let mut flat = a.const_flat;
    for (d, &i) in idx.iter().enumerate().take(a.rank as usize) {
        flat += if d == dim { base } else { i } * a.strides[d];
    }
    let k = a.strides[dim] * step;
    let dk = k * l as i64;
    let (ptr, len) = mem.resolve(a.arr as usize)?;
    let last_c = (chunks - 1) * dk;
    let last_m = (l as i64 - 1) * k;
    let corners = [flat, flat + last_m, flat + last_c, flat + last_c + last_m];
    let lo = corners.iter().copied().min().unwrap();
    let hi = corners.iter().copied().max().unwrap();
    if lo < 0 || hi as usize >= len {
        return Err(lane_oob(code, a.arr as usize));
    }
    streams.push(MemStream { ptr, flat, k, dk });
    Ok((streams.len() - 1) as u16)
}

/// Interns a broadcast slot holding the loop-invariant value `v`.
/// Broadcast slots live past the lane-register slots and are never
/// written by body ops (every body-written register is lane-mapped), so
/// one fill before the loop serves every chunk.
fn bslot(
    slots: &mut HashMap<u64, u16>,
    bcast: &mut Vec<f64>,
    n_lane: usize,
    key: u64,
    v: f64,
) -> u16 {
    *slots.entry(key).or_insert_with(|| {
        bcast.push(v);
        (n_lane + bcast.len() - 1) as u16
    })
}

/// Resolves a [`LaneSrc`] to a lane slot. A `Scalar` source is
/// loop-invariant (a register the body wrote would be lane-mapped), so
/// its current value is broadcast once.
fn src_slot(
    slots: &mut HashMap<u64, u16>,
    bcast: &mut Vec<f64>,
    n_lane: usize,
    regs: &[f64],
    s: LaneSrc,
) -> u16 {
    match s {
        LaneSrc::Lane(k) => k,
        LaneSrc::Scalar(r) => bslot(slots, bcast, n_lane, r as u64, regs[r as usize]),
    }
}

/// Everything the monomorphized chunk executors need.
struct ChunkCtx<'a> {
    ops: &'a [ChunkOp],
    streams: &'a mut [MemStream],
    lane: &'a mut [[f64; MAX_LANES]],
    l: usize,
    chunks: i64,
    /// `idx[dim]` of lane 0 of chunk 0.
    base0: i64,
    /// Per-chunk advance of the base: `l * step`.
    lstep: i64,
    step: i64,
    deadline: Option<Instant>,
}

/// The chunk loop itself. `#[inline(always)]` so each kernel wrapper
/// gets its own copy with `kern` a compile-time constant: the match in
/// [`lane_bin`] folds away and the `std::arch` arithmetic inlines
/// straight into the loop.
#[inline(always)]
fn chunk_loop(kern: Kernel, cx: &mut ChunkCtx) -> Result<(), ExecError> {
    let l = cx.l;
    let mut base = cx.base0;
    let mut argv = [[0.0f64; MAX_LANES]; MAX_CALL_ARGS];
    for c in 0..cx.chunks {
        if c & 0x3F == 0 {
            if let Some(d) = cx.deadline {
                if Instant::now() >= d {
                    return Err(ExecError::deadline());
                }
            }
        }
        for op in cx.ops {
            match op {
                ChunkOp::Load { dst, mem } => {
                    let s = &cx.streams[*mem as usize];
                    let out = &mut cx.lane[*dst as usize];
                    // SAFETY: runtime check — before the loop began,
                    // `stream` proved every `flat + m*k` this stream will
                    // touch inside the array's allocation (verifier
                    // phases 3 and 4 prove that check cannot fail on the
                    // verified bytecode lane runs are gated on).
                    unsafe {
                        if s.k == 1 {
                            std::ptr::copy_nonoverlapping(
                                s.ptr.add(s.flat as usize),
                                out.as_mut_ptr(),
                                l,
                            );
                        } else {
                            for (m, slot) in out.iter_mut().enumerate().take(l) {
                                *slot = *s.ptr.offset((s.flat + m as i64 * s.k) as isize);
                            }
                        }
                    }
                }
                ChunkOp::Store { src, mem } => {
                    let v = cx.lane[*src as usize];
                    let s = &cx.streams[*mem as usize];
                    // SAFETY: runtime check — as for `Load`, `stream`'s
                    // whole-run span check over this access.
                    unsafe {
                        if s.k == 1 {
                            std::ptr::copy_nonoverlapping(
                                v.as_ptr(),
                                s.ptr.add(s.flat as usize),
                                l,
                            );
                        } else {
                            for (m, &val) in v.iter().enumerate().take(l) {
                                *s.ptr.offset((s.flat + m as i64 * s.k) as isize) = val;
                            }
                        }
                    }
                }
                ChunkOp::Bin { op, dst, a, b } => {
                    let va = cx.lane[*a as usize];
                    let vb = cx.lane[*b as usize];
                    cx.lane[*dst as usize] = lane_bin(kern, *op, &va, &vb);
                }
                ChunkOp::Neg { dst, src } => {
                    let v = cx.lane[*src as usize];
                    let out = &mut cx.lane[*dst as usize];
                    for m in 0..MAX_LANES {
                        out[m] = -v[m];
                    }
                }
                ChunkOp::Mov { dst, src } => {
                    let v = cx.lane[*src as usize];
                    cx.lane[*dst as usize] = v;
                }
                ChunkOp::IdxSeq { dst } => {
                    let out = &mut cx.lane[*dst as usize];
                    for (m, slot) in out.iter_mut().enumerate() {
                        *slot = (base + m as i64 * cx.step) as f64;
                    }
                }
                ChunkOp::Call { intr, dst, n, args } => {
                    let n = *n as usize;
                    for (i, slot) in argv.iter_mut().enumerate().take(n) {
                        *slot = cx.lane[args[i] as usize];
                    }
                    let out = &mut cx.lane[*dst as usize];
                    let mut one = [0.0f64; MAX_CALL_ARGS];
                    for m in 0..l {
                        for i in 0..n {
                            one[i] = argv[i][m];
                        }
                        out[m] = intr.eval(&one[..n]);
                    }
                }
            }
        }
        for s in cx.streams.iter_mut() {
            s.flat += s.dk;
        }
        base += cx.lstep;
    }
    Ok(())
}

fn run_chunks(kern: Kernel, cx: &mut ChunkCtx) -> Result<(), ExecError> {
    match kern {
        Kernel::Portable => chunk_loop(Kernel::Portable, cx),
        // SAFETY: runtime check — `kernel()` selects `Sse2` only after
        // `is_x86_feature_detected!("sse2")`.
        #[cfg(target_arch = "x86_64")]
        Kernel::Sse2 => unsafe { chunk_sse2(cx) },
        // SAFETY: runtime check — `kernel()` selects `Avx2` only after
        // `is_x86_feature_detected!("avx2")`.
        #[cfg(target_arch = "x86_64")]
        Kernel::Avx2 => unsafe { chunk_avx2(cx) },
    }
}

// SAFETY: runtime check — the caller must hold `kernel()`'s
// `is_x86_feature_detected!("sse2")`; `run_chunks` is the only caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn chunk_sse2(cx: &mut ChunkCtx) -> Result<(), ExecError> {
    chunk_loop(Kernel::Sse2, cx)
}

// SAFETY: runtime check — the caller must hold `kernel()`'s
// `is_x86_feature_detected!("avx2")`; `run_chunks` is the only caller.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_avx2(cx: &mut ChunkCtx) -> Result<(), ExecError> {
    chunk_loop(Kernel::Avx2, cx)
}

/// Executes whole chunks of `info`'s loop across f64 lanes.
///
/// `t_start`/`t_stop` override the loop range so a parallel tile can run
/// its slice; the sequential VM passes `info.start`/`info.stop`. `regs`
/// supplies broadcast scalars and receives the last lane's values of
/// every lane register afterwards, exactly as the scalar loop would have
/// left them. Returns `iters == 0` (and touches nothing) when the
/// effective width is < 2 or the range has fewer iterations than lanes.
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
    lane: &mut Vec<[f64; MAX_LANES]>,
    deadline: Option<Instant>,
) -> Result<LaneRun, ExecError> {
    let l = want.min(info.lanes as usize).min(MAX_LANES);
    let extent = (t_stop - t_start) / info.step;
    let mut run = LaneRun::default();
    if l < 2 || extent < l as i64 {
        return Ok(run);
    }
    let chunks = extent / l as i64;
    let dim = info.dim as usize;
    let step = info.step;
    let n_lane = info.lane_regs.len();

    // Lower the body once per run: resolve operands to lane slots,
    // broadcast loop-invariant scalars, bind memory accesses to raw
    // pointer streams (bounds-checked for the whole run up front), and
    // hoist the counter arithmetic out of the loop entirely.
    let mut ops: Vec<ChunkOp> = Vec::with_capacity(info.body.len());
    let mut streams: Vec<MemStream> = Vec::new();
    let mut bcast: Vec<f64> = Vec::new();
    let mut slots: HashMap<u64, u16> = HashMap::new();
    let (mut n_loads, mut n_stores, mut n_points, mut n_flops) = (0u64, 0u64, 0u64, 0u64);
    const IDX_KEY: u64 = 1 << 32;
    for op in &info.body {
        match op {
            LaneOp::Load { dst, acc } => {
                let mi = stream(
                    &mut streams,
                    mem,
                    code,
                    *acc,
                    idx,
                    dim,
                    t_start,
                    step,
                    l,
                    chunks,
                )?;
                ops.push(ChunkOp::Load { dst: *dst, mem: mi });
                n_loads += 1;
            }
            LaneOp::Store { acc, src } => {
                let s = src_slot(&mut slots, &mut bcast, n_lane, regs, *src);
                let mi = stream(
                    &mut streams,
                    mem,
                    code,
                    *acc,
                    idx,
                    dim,
                    t_start,
                    step,
                    l,
                    chunks,
                )?;
                ops.push(ChunkOp::Store { src: s, mem: mi });
                n_stores += 1;
            }
            LaneOp::Bin { op, dst, a, b } => {
                let a = src_slot(&mut slots, &mut bcast, n_lane, regs, *a);
                let b = src_slot(&mut slots, &mut bcast, n_lane, regs, *b);
                ops.push(ChunkOp::Bin {
                    op: *op,
                    dst: *dst,
                    a,
                    b,
                });
            }
            LaneOp::Neg { dst, src } => {
                let s = src_slot(&mut slots, &mut bcast, n_lane, regs, *src);
                ops.push(ChunkOp::Neg { dst: *dst, src: s });
            }
            LaneOp::Mov { dst, src } => {
                let s = src_slot(&mut slots, &mut bcast, n_lane, regs, *src);
                ops.push(ChunkOp::Mov { dst: *dst, src: s });
            }
            LaneOp::IdxF { dst, d } => {
                if *d as usize == dim {
                    ops.push(ChunkOp::IdxSeq { dst: *dst });
                } else {
                    let s = bslot(
                        &mut slots,
                        &mut bcast,
                        n_lane,
                        IDX_KEY | *d as u64,
                        idx[*d as usize] as f64,
                    );
                    ops.push(ChunkOp::Mov { dst: *dst, src: s });
                }
            }
            LaneOp::Call { intr, dst, args } => {
                let mut av = [0u16; MAX_CALL_ARGS];
                for (i, &a) in args.iter().enumerate() {
                    av[i] = src_slot(&mut slots, &mut bcast, n_lane, regs, a);
                }
                ops.push(ChunkOp::Call {
                    intr: *intr,
                    dst: *dst,
                    n: args.len() as u8,
                    args: av,
                });
            }
            LaneOp::Tick { flops } => {
                n_points += 1;
                n_flops += *flops as u64;
            }
        }
    }

    lane.clear();
    lane.resize(n_lane + bcast.len(), [0.0; MAX_LANES]);
    for (i, &v) in bcast.iter().enumerate() {
        lane[n_lane + i] = [v; MAX_LANES];
    }

    let mut cx = ChunkCtx {
        ops: &ops,
        streams: &mut streams,
        lane: lane.as_mut_slice(),
        l,
        chunks,
        base0: t_start,
        lstep: l as i64 * step,
        step,
        deadline,
    };
    run_chunks(kernel(), &mut cx)?;

    // The scalar epilogue and all post-loop code must see exactly the
    // registers a scalar run of these iterations would have left: the
    // last executed iteration's values, i.e. the last lane of the last
    // chunk.
    for (slot, &r) in info.lane_regs.iter().enumerate() {
        regs[r as usize] = lane[slot][l - 1];
    }
    run.iters = chunks * l as i64;
    (run.resume_idx, run.resume_pc) = if run.iters == extent {
        (t_stop, info.exit)
    } else {
        (t_start + run.iters * step, info.head)
    };
    let per = chunks as u64 * l as u64;
    run.loads = n_loads * per;
    run.stores = n_stores * per;
    run.points = n_points * per;
    run.flops = n_flops * per;
    run.ops = run.iters as u64 * (info.exit - info.head) as u64;
    Ok(run)
}

/// The arithmetic kernel the lane loop dispatches to, chosen once per
/// process. Portable unrolled loops are the default; on x86-64 the
/// SSE2/AVX2 paths are selected by runtime feature detection. All three
/// compute IEEE-754 binary64 add/sub/mul/div, so the choice never
/// changes a bit of the result.
#[derive(Clone, Copy, Debug)]
enum Kernel {
    Portable,
    #[cfg(target_arch = "x86_64")]
    Sse2,
    #[cfg(target_arch = "x86_64")]
    Avx2,
}

fn kernel() -> Kernel {
    static KERN: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
    *KERN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return Kernel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse2") {
                return Kernel::Sse2;
            }
        }
        Kernel::Portable
    })
}

/// One lane-wide binary op. Arithmetic goes through the detected kernel;
/// comparisons (rare in loop bodies) evaluate per lane via the
/// interpreter's own `binop`, so semantics stay shared. Operates on all
/// [`MAX_LANES`] slots — lanes past the active width compute garbage
/// values that are never read, and f64 arithmetic never traps.
#[inline(always)]
fn lane_bin(
    kern: Kernel,
    op: BinOp,
    a: &[f64; MAX_LANES],
    b: &[f64; MAX_LANES],
) -> [f64; MAX_LANES] {
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => match kern {
            Kernel::Portable => arith_portable(op, a, b),
            // SAFETY: runtime check — `kern` is `Sse2` only after
            // `kernel()`'s `is_x86_feature_detected!("sse2")`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Sse2 => unsafe { arith_sse2(op, a, b) },
            // SAFETY: runtime check — `kern` is `Avx2` only after
            // `kernel()`'s `is_x86_feature_detected!("avx2")`.
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => unsafe { arith_avx2(op, a, b) },
        },
        _ => {
            let mut out = [0.0f64; MAX_LANES];
            for m in 0..MAX_LANES {
                out[m] = binop(op, a[m], b[m]);
            }
            out
        }
    }
}

#[inline(always)]
fn arith_portable(op: BinOp, a: &[f64; MAX_LANES], b: &[f64; MAX_LANES]) -> [f64; MAX_LANES] {
    let mut out = [0.0f64; MAX_LANES];
    match op {
        BinOp::Add => {
            for m in 0..MAX_LANES {
                out[m] = a[m] + b[m];
            }
        }
        BinOp::Sub => {
            for m in 0..MAX_LANES {
                out[m] = a[m] - b[m];
            }
        }
        BinOp::Mul => {
            for m in 0..MAX_LANES {
                out[m] = a[m] * b[m];
            }
        }
        BinOp::Div => {
            for m in 0..MAX_LANES {
                out[m] = a[m] / b[m];
            }
        }
        _ => unreachable!("lane_bin routes comparisons through binop"),
    }
    out
}

// SAFETY: runtime check — the caller must hold `kernel()`'s
// `is_x86_feature_detected!("sse2")`; the unaligned loads and stores stay
// inside the `MAX_LANES`-wide arrays because `2 * h + 1 < MAX_LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn arith_sse2(op: BinOp, a: &[f64; MAX_LANES], b: &[f64; MAX_LANES]) -> [f64; MAX_LANES] {
    use std::arch::x86_64::*;
    let mut out = [0.0f64; MAX_LANES];
    for h in 0..MAX_LANES / 2 {
        let x = _mm_loadu_pd(a.as_ptr().add(2 * h));
        let y = _mm_loadu_pd(b.as_ptr().add(2 * h));
        let z = match op {
            BinOp::Add => _mm_add_pd(x, y),
            BinOp::Sub => _mm_sub_pd(x, y),
            BinOp::Mul => _mm_mul_pd(x, y),
            BinOp::Div => _mm_div_pd(x, y),
            _ => unreachable!("lane_bin routes comparisons through binop"),
        };
        _mm_storeu_pd(out.as_mut_ptr().add(2 * h), z);
    }
    out
}

// SAFETY: runtime check — the caller must hold `kernel()`'s
// `is_x86_feature_detected!("avx2")`; the unaligned loads and stores stay
// inside the `MAX_LANES`-wide arrays because `4 * h + 3 < MAX_LANES`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn arith_avx2(op: BinOp, a: &[f64; MAX_LANES], b: &[f64; MAX_LANES]) -> [f64; MAX_LANES] {
    use std::arch::x86_64::*;
    let mut out = [0.0f64; MAX_LANES];
    for h in 0..MAX_LANES / 4 {
        let x = _mm256_loadu_pd(a.as_ptr().add(4 * h));
        let y = _mm256_loadu_pd(b.as_ptr().add(4 * h));
        let z = match op {
            BinOp::Add => _mm256_add_pd(x, y),
            BinOp::Sub => _mm256_sub_pd(x, y),
            BinOp::Mul => _mm256_mul_pd(x, y),
            BinOp::Div => _mm256_div_pd(x, y),
            _ => unreachable!("lane_bin routes comparisons through binop"),
        };
        _mm256_storeu_pd(out.as_mut_ptr().add(4 * h), z);
    }
    out
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
        ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1],
                body: vec![ElemStmt {
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
                }],
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

    #[test]
    fn reductions_are_never_annotated() {
        let sp = ScalarProgram {
            program: prog(),
            stmts: vec![LStmt::ReduceNest {
                lhs: ScalarId(0),
                op: ReduceOp::Sum,
                region: RegionId(0),
                structure: vec![1],
                rhs: load(0),
            }],
        };
        let mut code = compiled(&sp);
        superfuse(&mut code);
        assert!(
            code.simds.is_empty(),
            "reduction bodies carry a register dependence"
        );
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
