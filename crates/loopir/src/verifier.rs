//! Static verification of compiled `bytecode`.
//!
//! The bytecode compiler elides the runtime bounds check on an array
//! access whenever the enclosing loops' index ranges prove it in bounds —
//! and the VM trusts that elision. This module re-proves the claim from
//! the bytecode alone, without consulting the compiler's reasoning, in
//! four phases:
//!
//! 1. **Structural** — every jump target, register, counter, dimension,
//!    access-table entry, and array index is in range, and the program
//!    ends in `Halt`.
//! 2. **Initialization** — a must-initialized forward dataflow (bit sets,
//!    intersection at joins) proves every register, index slot, and
//!    counter is written before it is read, and every array is allocated
//!    before it is accessed. Program scalars and interned constants are
//!    pre-initialized by construction.
//! 3. **Bounds** — an interval analysis over the index vector (counters
//!    have statically known ranges, so only `idx` needs a fixpoint)
//!    proves, for every access *without* a runtime check, that the flat
//!    index stays within the array's allocation for all reachable index
//!    values; accesses *with* a runtime check are verified to actually
//!    dominate the flat index (every contributing dimension is checked
//!    and the checked ranges cover the allocation).
//!
//! Phases 2 and 3 read one control-flow graph, built once per call, and
//! keep a state at the head of each basic block only: inside a block every
//! op falls through to the next, so the head's state decides the rest.
//!
//! 4. **SIMD structure** — every `Op::SimdBegin` annotation is
//!    re-derived from the bytecode: the loop shape must match the recorded
//!    `SimdInfo`, the loop body must decode to exactly the recorded
//!    slot-resolved lane program, lane registers and broadcast table, and
//!    the recorded strip width must not exceed the width the alias
//!    analysis re-proves safe (a lane run covers exactly the scalar
//!    loop's iterations, so every index is already inside the
//!    scalar-proven range and the width is the load-bearing claim). The
//!    same goes for the enclosing loop a run may cover as well (`Rows`):
//!    its shape, bounds and exit pc must be what the bytecode shows, its
//!    row-spanning width at most what the 2-D alias analysis re-proves.
//!
//! Phases 1-3 never see a superinstruction (`LdLdBin` et al.): they read
//! each op through `Op::parts` (`bytecode.rs`), the one definition of
//! what a bundle does, which is its plain ops in execution order. A
//! bundle is therefore checked exactly as those ops would be, at the
//! bundle's pc, and the bounds proof covers every inline operand.
//!
//! A program that passes all phases ([`Vm::verify`](crate::Vm::verify))
//! may fan out over lanes and tiles, the two execution strategies that
//! reach array memory through raw pointers. Scalar dispatch does not rest
//! on the proof: it bounds-checks every element access regardless.
#![deny(missing_docs)]

use crate::bytecode::{Code, Op, Rows, MAX_LANES, MAX_RANK};
use crate::simd;
use std::fmt;

/// A finding from the bytecode verifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyDiagnostic {
    /// The instruction the finding is about, if op-local.
    pub pc: Option<usize>,
    /// What could not be proven, in one sentence.
    pub message: String,
}

impl VerifyDiagnostic {
    fn at(pc: usize, message: impl Into<String>) -> Self {
        VerifyDiagnostic {
            pc: Some(pc),
            message: message.into(),
        }
    }

    fn global(message: impl Into<String>) -> Self {
        VerifyDiagnostic {
            pc: None,
            message: message.into(),
        }
    }

    /// Renders the diagnostic rustc-style, matching the frontend's format.
    pub fn render(&self) -> String {
        let loc = self.pc.map(|pc| format!("bytecode pc {pc}"));
        zlang::error::render_diagnostic(
            "error",
            "verify::bytecode",
            &self.message,
            loc.as_deref(),
            &[],
        )
    }
}

impl fmt::Display for VerifyDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.pc {
            Some(pc) => write!(f, "error[verify::bytecode]: {} (pc {pc})", self.message),
            None => write!(f, "error[verify::bytecode]: {}", self.message),
        }
    }
}

/// An inclusive integer interval. `FULL` is the conservative "unknown"
/// value, kept well away from `i64` limits so transfer arithmetic cannot
/// overflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Interval {
    lo: i64,
    hi: i64,
}

const HUGE: i64 = i64::MAX / 4;

impl Interval {
    const FULL: Interval = Interval {
        lo: -HUGE,
        hi: HUGE,
    };

    fn point(v: i64) -> Self {
        Interval { lo: v, hi: v }
    }

    fn hull(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    fn shift(self, by: i64) -> Interval {
        Interval {
            lo: self.lo.saturating_add(by).clamp(-HUGE, HUGE),
            hi: self.hi.saturating_add(by).clamp(-HUGE, HUGE),
        }
    }
}

/// The kind of a control-flow edge; it selects the transfer variant for
/// ops whose out-state differs per edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EdgeKind {
    /// Plain fallthrough or jump: state passes through the generic
    /// transfer.
    Flow,
    /// The back edge of [`Op::IdxStep`]: the index was stepped and the
    /// loop continues.
    IdxBack,
    /// The fallthrough of [`Op::IdxStep`]: the index equals `stop`.
    IdxExit,
    /// The fallthrough of [`Op::ForInit`]: the counter is initialized.
    ForEnter,
}

/// The successors of an op, as `(target, edge)` pairs.
fn successors(pc: usize, op: &Op) -> [Option<(usize, EdgeKind)>; 2] {
    let flow = |t: u32| Some((t as usize, EdgeKind::Flow));
    let next = |edge| Some((pc + 1, edge));
    match *op {
        Op::Halt => [None, None],
        Op::Jmp { target } => [flow(target), None],
        Op::JmpIfZero { target, .. } => [next(EdgeKind::Flow), flow(target)],
        Op::IdxStep { head, .. } => [
            next(EdgeKind::IdxExit),
            Some((head as usize, EdgeKind::IdxBack)),
        ],
        Op::CtrStep { head, .. } => [next(EdgeKind::Flow), flow(head)],
        Op::ForInit { exit, .. } => [next(EdgeKind::ForEnter), flow(exit)],
        _ => [next(EdgeKind::Flow), None],
    }
}

/// The control-flow graph, built once per [`verify`] call for phases 2
/// and 3, in CSR form: the edges out of `pc` are
/// `succ[succ_at[pc]..succ_at[pc + 1]]` as `(target, kind)` in
/// [`successors`] order.
///
/// It also splits the program into basic blocks, numbered in pc order:
/// block `b` is pcs `heads[b]..heads[b + 1]` (`heads` ends in the program
/// length). A pc starts a block unless its one edge in is the fall-through
/// of the op before it, and that op's only edge out; so every op of a
/// block but the last falls through to the next and nothing else, and
/// every edge into a block lands on its first pc.
struct Cfg {
    succ_at: Vec<u32>,
    succ: Vec<(u32, EdgeKind)>,
    heads: Vec<u32>,
    /// The block each pc belongs to.
    block_of: Vec<u32>,
}

impl Cfg {
    /// Needs a program that passed phase 1: every edge lands inside it.
    fn new(code: &Code) -> Cfg {
        let n = code.ops.len();
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut succ = Vec::with_capacity(2 * n);
        let mut edges_in = vec![0u32; n];
        for (pc, op) in code.ops.iter().enumerate() {
            succ_at.push(succ.len() as u32);
            for (t, edge) in successors(pc, op).into_iter().flatten() {
                succ.push((t as u32, edge));
                edges_in[t] += 1;
            }
        }
        succ_at.push(succ.len() as u32);
        let mut heads = vec![0];
        for pc in 1..n {
            let falls_in = edges_in[pc] == 1
                && succ_at[pc] - succ_at[pc - 1] == 1
                && succ[succ_at[pc - 1] as usize] == (pc as u32, EdgeKind::Flow);
            if !falls_in {
                heads.push(pc as u32);
            }
        }
        heads.push(n as u32);
        let mut block_of = vec![0; n];
        for (b, w) in heads.windows(2).enumerate() {
            block_of[w[0] as usize..w[1] as usize].fill(b as u32);
        }
        Cfg {
            succ_at,
            succ,
            heads,
            block_of,
        }
    }

    fn blocks(&self) -> usize {
        self.heads.len() - 1
    }

    /// The pcs of block `b`.
    fn block(&self, b: usize) -> std::ops::Range<usize> {
        self.heads[b] as usize..self.heads[b + 1] as usize
    }

    fn succs(&self, pc: usize) -> &[(u32, EdgeKind)] {
        &self.succ[self.succ_at[pc] as usize..self.succ_at[pc + 1] as usize]
    }
}

/// Verifies a compiled program. Returns all findings; an empty vector
/// means every phase passed and lane and tile fan-out may start.
pub(crate) fn verify(code: &Code) -> Vec<VerifyDiagnostic> {
    let mut diags = structural(code);
    if !diags.is_empty() {
        return diags; // later phases index by the quantities checked here
    }
    let cfg = Cfg::new(code);
    diags.extend(initialization(code, &cfg));
    if !diags.is_empty() {
        return diags; // bounds analysis assumes defined-before-use
    }
    diags.extend(bounds(code, &cfg));
    if !diags.is_empty() {
        return diags; // the simd re-analysis assumes in-bounds accesses
    }
    diags.extend(simd_structure(code));
    diags
}

// ---- phase 1: structural ---------------------------------------------------

fn structural(code: &Code) -> Vec<VerifyDiagnostic> {
    let mut diags = Vec::new();
    let n = code.ops.len();
    if !matches!(code.ops.last(), Some(Op::Halt)) {
        diags.push(VerifyDiagnostic::global(
            "program does not end in a Halt instruction",
        ));
    }
    let frame = code.frame as usize;
    // A register or access both parts of a bundle name (`LdSt`'s `dst`)
    // is one finding at its pc.
    let bad_reg = |pc: usize, r: u16, diags: &mut Vec<VerifyDiagnostic>| {
        if r as usize >= frame {
            push_once(
                diags,
                VerifyDiagnostic::at(
                    pc,
                    format!("register {r} is outside the frame of {frame} registers"),
                ),
            );
        }
    };
    let bad_target = |pc: usize, t: u32, diags: &mut Vec<VerifyDiagnostic>| {
        if t as usize >= n {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!("jump target {t} is outside the program of {n} instructions"),
            ));
        }
    };
    let bad_dim = |pc: usize, d: u8, diags: &mut Vec<VerifyDiagnostic>| {
        if d as usize >= MAX_RANK {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!("index dimension {d} exceeds the VM maximum rank {MAX_RANK}"),
            ));
        }
    };
    let bad_ctr = |pc: usize, c: u16, diags: &mut Vec<VerifyDiagnostic>| {
        if c >= code.n_ctrs {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "counter {c} is outside the {} allocated counters",
                    code.n_ctrs
                ),
            ));
        }
    };
    let bad_acc = |pc: usize, acc: u32, diags: &mut Vec<VerifyDiagnostic>| {
        if acc as usize >= code.accesses.len() {
            push_once(
                diags,
                VerifyDiagnostic::at(pc, format!("access-table index {acc} is out of range")),
            );
        }
    };
    let parts = code.ops.iter().enumerate();
    for (pc, op) in parts.flat_map(|(pc, op)| op.parts().map(move |part| (pc, part))) {
        match op {
            Op::Add { dst, a, b }
            | Op::Sub { dst, a, b }
            | Op::Mul { dst, a, b }
            | Op::Div { dst, a, b }
            | Op::Bin { dst, a, b, .. } => {
                bad_reg(pc, dst, &mut diags);
                bad_reg(pc, a, &mut diags);
                bad_reg(pc, b, &mut diags);
            }
            Op::Neg { dst, src } | Op::Mov { dst, src } => {
                bad_reg(pc, dst, &mut diags);
                bad_reg(pc, src, &mut diags);
            }
            Op::Call { dst, base, n, .. } => {
                bad_reg(pc, dst, &mut diags);
                if base as usize + n as usize > frame {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!(
                            "call arguments {base}..{} overflow the frame of {frame} registers",
                            base as usize + n as usize
                        ),
                    ));
                }
            }
            Op::IdxF { dst, d } => {
                bad_reg(pc, dst, &mut diags);
                bad_dim(pc, d, &mut diags);
            }
            Op::Load { dst, acc } => {
                bad_reg(pc, dst, &mut diags);
                bad_acc(pc, acc, &mut diags);
            }
            Op::Store { acc, src } => {
                bad_reg(pc, src, &mut diags);
                bad_acc(pc, acc, &mut diags);
            }
            Op::Reduce { dst, src, .. } => {
                bad_reg(pc, dst, &mut diags);
                bad_reg(pc, src, &mut diags);
            }
            Op::Tick { .. } | Op::ReduceBegin | Op::Halt => {}
            Op::ParBegin { par } => {
                if par as usize >= code.pars.len() {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!("parallel-ladder index {par} is out of range"),
                    ));
                } else {
                    let info = &code.pars[par as usize];
                    if info.dim as usize >= MAX_RANK {
                        diags.push(VerifyDiagnostic::at(
                            pc,
                            format!(
                                "parallel ladder partitions dimension {} beyond the VM \
                                 maximum rank {MAX_RANK}",
                                info.dim
                            ),
                        ));
                    }
                    bad_target(pc, info.entry, &mut diags);
                    for &(acc, _) in &info.folds {
                        bad_reg(pc, acc, &mut diags);
                    }
                    if info.exit as usize > n {
                        diags.push(VerifyDiagnostic::at(
                            pc,
                            format!("parallel-ladder exit {} is outside the program", info.exit),
                        ));
                    }
                }
            }
            Op::NestBegin { nest } => {
                if nest >= code.n_nests {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!("nest index {nest} is out of range"),
                    ));
                }
            }
            Op::Alloc { arr } => {
                if arr as usize >= code.arrays.len() {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!("array index {arr} is out of range"),
                    ));
                }
            }
            Op::SetIdx { d, .. } => bad_dim(pc, d, &mut diags),
            Op::IdxStep { d, head, .. } => {
                bad_dim(pc, d, &mut diags);
                bad_target(pc, head, &mut diags);
            }
            Op::CtrInit { ctr, .. } => bad_ctr(pc, ctr, &mut diags),
            Op::CtrToIdx { d, ctr } => {
                bad_dim(pc, d, &mut diags);
                bad_ctr(pc, ctr, &mut diags);
            }
            Op::CtrToScalar { dst, ctr } => {
                bad_reg(pc, dst, &mut diags);
                bad_ctr(pc, ctr, &mut diags);
            }
            Op::ForInit {
                ctr, lo, hi, exit, ..
            } => {
                bad_ctr(pc, ctr, &mut diags);
                bad_reg(pc, lo, &mut diags);
                bad_reg(pc, hi, &mut diags);
                bad_target(pc, exit, &mut diags);
            }
            Op::CtrStep { ctr, head } => {
                bad_ctr(pc, ctr, &mut diags);
                bad_target(pc, head, &mut diags);
            }
            Op::Jmp { target } => bad_target(pc, target, &mut diags),
            Op::JmpIfZero { cond, target } => {
                bad_reg(pc, cond, &mut diags);
                bad_target(pc, target, &mut diags);
            }
            Op::LdLdBin { .. }
            | Op::LdBin { .. }
            | Op::BinBin { .. }
            | Op::BinSt { .. }
            | Op::LdSt { .. } => unreachable!("a bundle's parts are plain ops"),
            Op::SimdBegin { simd } => {
                if simd as usize >= code.simds.len() {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!("simd-loop index {simd} is out of range"),
                    ));
                } else {
                    let info = &code.simds[simd as usize];
                    if info.dim as usize >= MAX_RANK {
                        diags.push(VerifyDiagnostic::at(
                            pc,
                            format!(
                                "simd loop iterates dimension {} beyond the VM maximum \
                                 rank {MAX_RANK}",
                                info.dim
                            ),
                        ));
                    }
                    bad_target(pc, info.head, &mut diags);
                    if info.exit as usize > n {
                        diags.push(VerifyDiagnostic::at(
                            pc,
                            format!("simd-loop exit {} is outside the program", info.exit),
                        ));
                    }
                }
            }
        }
    }
    for (i, a) in code.accesses.iter().enumerate() {
        if a.arr as usize >= code.arrays.len() {
            diags.push(VerifyDiagnostic::global(format!(
                "access {i} names array {} which does not exist",
                a.arr
            )));
        }
        if a.rank as usize > MAX_RANK {
            diags.push(VerifyDiagnostic::global(format!(
                "access {i} has rank {} > {MAX_RANK}",
                a.rank
            )));
        }
        if let Some(chk) = &a.check {
            for &(d, ..) in &chk.dims {
                if d as usize >= a.rank as usize {
                    diags.push(VerifyDiagnostic::global(format!(
                        "access {i} checks dimension {d} beyond its rank {}",
                        a.rank
                    )));
                }
            }
        }
    }
    diags
}

/// Adds `d` unless the findings at its pc already hold it.
fn push_once(diags: &mut Vec<VerifyDiagnostic>, d: VerifyDiagnostic) {
    let mut at_pc = diags.iter().rev().take_while(|e| e.pc == d.pc);
    if !at_pc.any(|e| *e == d) {
        diags.push(d);
    }
}

// ---- phase 2: initialization ----------------------------------------------

/// Where each must-initialized fact sits in a state: a state is one
/// fixed-width row of `u64` words, fact `i` bit `i % 64` of word `i / 64`,
/// laid out as registers, then index dimensions, then counters, then
/// arrays. The states of all program points are one flat vector of rows.
#[derive(Clone, Copy)]
struct InitLayout {
    frame: usize,
    ctrs: usize,
    arrays: usize,
    words: usize,
}

impl InitLayout {
    fn new(code: &Code) -> Self {
        let frame = code.frame as usize;
        let ctrs = frame + MAX_RANK;
        let arrays = ctrs + code.n_ctrs as usize;
        InitLayout {
            frame,
            ctrs,
            arrays,
            words: (arrays + code.arrays.len()).div_ceil(64),
        }
    }

    fn reg(self, r: u16) -> usize {
        r as usize
    }

    fn idx(self, d: usize) -> usize {
        self.frame + d
    }

    fn ctr(self, c: u16) -> usize {
        self.ctrs + c as usize
    }

    fn arr(self, a: u16) -> usize {
        self.arrays + a as usize
    }

    /// The state at entry. Program scalars start at 0.0 by language
    /// definition and interned constants are materialized at VM
    /// construction.
    fn entry(self, code: &Code, row: &mut [u64]) {
        let cb = code.const_base as usize;
        let pre = (0..code.n_scalars as usize).chain(cb..cb + code.consts.len());
        for r in pre.filter(|&r| r < self.frame) {
            set(row, r);
        }
    }
}

fn has(row: &[u64], bit: usize) -> bool {
    row[bit / 64] >> (bit % 64) & 1 != 0
}

fn set(row: &mut [u64], bit: usize) {
    row[bit / 64] |= 1 << (bit % 64);
}

/// The must-analysis join, `row &= st`, with bit `also` of `st` taken as
/// set (the counter a `ForInit` initializes on its enter edge). Reports
/// whether `row` lost a fact.
fn meet(row: &mut [u64], st: &[u64], also: Option<usize>) -> bool {
    let mut lost = 0;
    for (k, (r, &s)) in row.iter_mut().zip(st).enumerate() {
        let s = match also {
            Some(b) if b / 64 == k => s | 1 << (b % 64),
            _ => s,
        };
        lost |= *r & !s;
        *r &= s;
    }
    lost != 0
}

/// The index dimensions an access reads: every dimension that contributes
/// to the flat index, then every other dimension its runtime check
/// inspects.
fn access_dims(code: &Code, acc: u32) -> impl Iterator<Item = usize> + '_ {
    let a = &code.accesses[acc as usize];
    let strided = (0..a.rank as usize).filter(|&d| a.strides[d] != 0);
    let checked = a.check.iter().flat_map(|chk| &chk.dims);
    strided.chain(
        checked
            .map(|&(d, ..)| d as usize)
            .filter(|&d| a.strides[d] == 0),
    )
}

/// Phase 2's findings: at most one per pc, the first check that fails
/// there.
struct InitFindings<'a> {
    code: &'a Code,
    lay: InitLayout,
    reported: Vec<bool>,
    diags: Vec<VerifyDiagnostic>,
}

impl InitFindings<'_> {
    /// Reports `what` at `pc` unless fact `bit` holds in `st`.
    fn need(&mut self, pc: usize, st: &[u64], bit: usize, what: impl FnOnce() -> String) {
        if !has(st, bit) && !self.reported[pc] {
            self.reported[pc] = true;
            self.diags.push(VerifyDiagnostic::at(pc, what()));
        }
    }

    fn reg(&mut self, pc: usize, st: &[u64], r: u16) {
        let bit = self.lay.reg(r);
        self.need(pc, st, bit, || {
            format!("register {r} may be read before it is written")
        });
    }

    fn idx(&mut self, pc: usize, st: &[u64], d: usize, verb: &str) {
        let bit = self.lay.idx(d);
        self.need(pc, st, bit, || {
            format!("index dimension {d} may be {verb} before it is set")
        });
    }

    fn ctr(&mut self, pc: usize, st: &[u64], c: u16, verb: &str) {
        let bit = self.lay.ctr(c);
        self.need(pc, st, bit, || {
            format!("counter {c} may be {verb} before it is initialized")
        });
    }

    /// The array-allocated and index-dimension preconditions of one array
    /// access.
    fn access(&mut self, pc: usize, st: &[u64], acc: u32) {
        let code = self.code;
        let arr = code.accesses[acc as usize].arr;
        self.need(pc, st, self.lay.arr(arr), || {
            format!(
                "array `{}` may be accessed before it is allocated",
                code.arrays[arr as usize].name
            )
        });
        for d in access_dims(code, acc) {
            self.idx(pc, st, d, "read");
        }
    }

    /// Checks the op's preconditions against its in-state `st`, then
    /// turns `st` into its out-state on every edge (`ForInit`'s counter
    /// aside). Every arm reads before it writes, so one row serves as both.
    fn transfer(&mut self, pc: usize, op: Op, st: &mut [u64]) {
        let lay = self.lay;
        match op {
            Op::Add { dst, a, b }
            | Op::Sub { dst, a, b }
            | Op::Mul { dst, a, b }
            | Op::Div { dst, a, b }
            | Op::Bin { dst, a, b, .. } => {
                self.reg(pc, st, a);
                self.reg(pc, st, b);
                set(st, lay.reg(dst));
            }
            Op::Neg { dst, src } | Op::Mov { dst, src } => {
                self.reg(pc, st, src);
                set(st, lay.reg(dst));
            }
            Op::Call { dst, base, n, .. } => {
                for k in 0..n as u16 {
                    self.reg(pc, st, base + k);
                }
                set(st, lay.reg(dst));
            }
            Op::IdxF { dst, d } => {
                self.idx(pc, st, d as usize, "read");
                set(st, lay.reg(dst));
            }
            Op::Load { dst, acc } => {
                self.access(pc, st, acc);
                set(st, lay.reg(dst));
            }
            Op::Store { acc, src } => {
                self.reg(pc, st, src);
                self.access(pc, st, acc);
            }
            Op::Reduce { dst, src, .. } => {
                self.reg(pc, st, dst);
                self.reg(pc, st, src);
            }
            // The lane path executes exactly the iterations the scalar
            // loop body would; the scalar fall-through edge carries the
            // analysis.
            Op::Tick { .. }
            | Op::NestBegin { .. }
            | Op::ParBegin { .. }
            | Op::ReduceBegin
            | Op::Halt
            | Op::Jmp { .. }
            | Op::SimdBegin { .. } => {}
            Op::Alloc { arr } => set(st, lay.arr(arr)),
            Op::SetIdx { d, .. } => set(st, lay.idx(d as usize)),
            Op::IdxStep { d, .. } => {
                self.idx(pc, st, d as usize, "stepped");
                set(st, lay.idx(d as usize));
            }
            Op::CtrInit { ctr, .. } => set(st, lay.ctr(ctr)),
            Op::CtrToIdx { d, ctr } => {
                self.ctr(pc, st, ctr, "read");
                set(st, lay.idx(d as usize));
            }
            Op::CtrToScalar { dst, ctr } => {
                self.ctr(pc, st, ctr, "read");
                set(st, lay.reg(dst));
            }
            Op::ForInit { lo, hi, .. } => {
                self.reg(pc, st, lo);
                self.reg(pc, st, hi);
            }
            Op::CtrStep { ctr, .. } => self.ctr(pc, st, ctr, "stepped"),
            Op::JmpIfZero { cond, .. } => self.reg(pc, st, cond),
            Op::LdLdBin { .. }
            | Op::LdBin { .. }
            | Op::BinBin { .. }
            | Op::BinSt { .. }
            | Op::LdSt { .. } => unreachable!("a bundle's parts are plain ops"),
        }
    }
}

/// The must-initialized dataflow over basic blocks: a state is kept at
/// block heads only, and each visit walks its block from the head state,
/// checking every op on the way. Inside a block the state after an op is
/// its transfer of the state before, so this finds what a per-pc fixpoint
/// finds, in the same order.
fn initialization(code: &Code, cfg: &Cfg) -> Vec<VerifyDiagnostic> {
    let nb = cfg.blocks();
    let lay = InitLayout::new(code);
    let w = lay.words;
    let mut rows = vec![0u64; nb * w];
    let mut have = vec![0u64; nb.div_ceil(64)];
    lay.entry(code, &mut rows[..w]);
    set(&mut have, 0);
    let mut work: Vec<usize> = vec![0];
    let mut st = vec![0u64; w];
    let mut found = InitFindings {
        code,
        lay,
        reported: vec![false; code.ops.len()],
        diags: Vec::new(),
    };
    while let Some(b) = work.pop() {
        st.copy_from_slice(&rows[b * w..][..w]);
        let pcs = cfg.block(b);
        let end = pcs.end - 1;
        for pc in pcs {
            for part in code.ops[pc].parts() {
                found.transfer(pc, part, &mut st);
            }
        }
        let op = code.ops[end];
        for &(t, edge) in cfg.succs(end) {
            let t = cfg.block_of[t as usize] as usize;
            let enter = match (edge, op) {
                (EdgeKind::ForEnter, Op::ForInit { ctr, .. }) => Some(lay.ctr(ctr)),
                _ => None,
            };
            let row = &mut rows[t * w..][..w];
            if !has(&have, t) {
                set(&mut have, t);
                row.copy_from_slice(&st);
                if let Some(b) = enter {
                    set(row, b);
                }
                work.push(t);
            } else if meet(row, &st, enter) {
                work.push(t);
            }
        }
    }
    found.diags
}

// ---- phase 3: bounds -------------------------------------------------------

/// Per-counter static value range: the unique `CtrInit` that feeds a
/// counter has compile-time bounds that its `CtrStep` back edge preserves;
/// `ForInit` counters have runtime bounds and stay unknown.
fn ctr_ranges(code: &Code) -> Vec<Interval> {
    let mut ranges = vec![Interval::FULL; code.n_ctrs as usize];
    let mut from_for = vec![false; code.n_ctrs as usize];
    for op in &code.ops {
        match *op {
            Op::CtrInit { ctr, cur, end, .. } => {
                let r = Interval {
                    lo: cur.min(end),
                    hi: cur.max(end),
                };
                let slot = &mut ranges[ctr as usize];
                *slot = if from_for[ctr as usize] {
                    Interval::FULL
                } else if *slot == Interval::FULL {
                    r
                } else {
                    slot.hull(r)
                };
            }
            Op::ForInit { ctr, .. } => {
                from_for[ctr as usize] = true;
                ranges[ctr as usize] = Interval::FULL;
            }
            _ => {}
        }
    }
    ranges
}

/// How many joins a pc absorbs before its intervals widen. Loop bounds
/// are runtime configuration, so a hull-only fixpoint would need one pass
/// per iteration; widening caps that. One join is enough: the thresholds
/// hold `stop - 1` of every loop over the dimension, and the back-edge
/// trim stops a widened bound there. Widening after 8 joins instead made
/// the same fixpoint, at every pc of 22,410 lowered streams, in twice the
/// worklist pops (EXPERIMENTS.md, "the verifier's bookkeeping").
const WIDEN_AFTER: u32 = 1;

/// Per-dimension widening thresholds: every constant a dimension's value
/// is compared against or set to anywhere in the program. A creeping
/// bound widens to the nearest threshold instead of ±HUGE, so the
/// fixpoint lands exactly on the loop invariant (e.g. `[start, stop-1]`)
/// even for dimensions carried unchanged around an inner loop's cycle —
/// where plain narrowing could never recover an overshoot.
fn dim_thresholds(code: &Code, ctr_range: &[Interval]) -> [Vec<i64>; MAX_RANK] {
    let mut th: [Vec<i64>; MAX_RANK] = Default::default();
    for op in &code.ops {
        match *op {
            Op::SetIdx { d, v } => th[d as usize].push(v),
            Op::IdxStep { d, stop, .. } => {
                th[d as usize].extend([stop - 1, stop, stop + 1]);
            }
            Op::CtrToIdx { d, ctr } => {
                let r = ctr_range[ctr as usize];
                if r != Interval::FULL {
                    th[d as usize].extend([r.lo, r.hi]);
                }
            }
            _ => {}
        }
    }
    for t in th.iter_mut() {
        t.sort_unstable();
        t.dedup();
    }
    th
}

type IdxState = [Interval; MAX_RANK];

/// The abstract transfer of one op along one edge. `None` means the edge
/// is infeasible from this state (an empty stepped-index range).
fn transfer(op: Op, st: &IdxState, edge: EdgeKind, ctr_range: &[Interval]) -> Option<IdxState> {
    let mut out = *st;
    match (op, edge) {
        (Op::IdxStep { d, step, stop, .. }, EdgeKind::IdxBack) => {
            let stepped = st[d as usize].shift(step);
            // The loop continues only while the stepped value has not
            // reached `stop`; for unit steps that walk toward `stop` this
            // trims the boundary exactly.
            let trimmed = if step == 1 && stepped.hi >= stop {
                Interval {
                    lo: stepped.lo,
                    hi: stop - 1,
                }
            } else if step == -1 && stepped.lo <= stop {
                Interval {
                    lo: stop + 1,
                    hi: stepped.hi,
                }
            } else {
                stepped
            };
            if trimmed.lo > trimmed.hi {
                return None; // the back edge is infeasible
            }
            out[d as usize] = trimmed;
        }
        (Op::IdxStep { d, stop, .. }, EdgeKind::IdxExit) => {
            out[d as usize] = Interval::point(stop);
        }
        _ => interior(op, &mut out, ctr_range),
    }
    Some(out)
}

/// The transfer of an op along a fall-through edge, in place: only
/// `SetIdx` and `CtrToIdx` change the index state there.
fn interior(op: Op, st: &mut IdxState, ctr_range: &[Interval]) {
    match op {
        Op::SetIdx { d, v } => st[d as usize] = Interval::point(v),
        Op::CtrToIdx { d, ctr } => st[d as usize] = ctr_range[ctr as usize],
        _ => {}
    }
}

/// A lower bound widened to the largest threshold at or below it, or
/// -HUGE below the smallest.
fn widen_lo(thresholds: &[i64], lo: i64) -> i64 {
    match thresholds.partition_point(|&v| v <= lo) {
        0 => -HUGE,
        i => thresholds[i - 1],
    }
}

/// An upper bound widened to the smallest threshold at or above it, or
/// HUGE above the largest.
fn widen_hi(thresholds: &[i64], hi: i64) -> i64 {
    let i = thresholds.partition_point(|&v| v < hi);
    thresholds.get(i).copied().unwrap_or(HUGE)
}

/// The index intervals at the first pc of every basic block (`None`: the
/// block is unreachable): the fixpoint of the widened increasing phase.
/// There is no decreasing (narrowing) phase: the thresholds and the
/// back-edge trim already land the fixpoint on the loop ranges: four
/// narrowing passes never changed a state on any stream or mutant they
/// were measured on (EXPERIMENTS.md). Inside a block only `SetIdx` and
/// `CtrToIdx` change the state, and only along the one fall-through edge,
/// so a block's head state decides the state at each of its pcs
/// ([`walk_states`]); joins and widening counts are needed at block heads
/// only.
fn idx_states(code: &Code, cfg: &Cfg, ctr_range: &[Interval]) -> Vec<Option<IdxState>> {
    let nb = cfg.blocks();
    let thresholds = dim_thresholds(code, ctr_range);
    let sets = block_sets(code, cfg, ctr_range);
    // The state at block `b`'s last op, from its head state `st`.
    let at_end = |b: usize, mut st: IdxState| {
        for (s, set) in st.iter_mut().zip(&sets[b]) {
            if let Some(v) = set {
                *s = *v;
            }
        }
        st
    };
    let mut heads: Vec<Option<IdxState>> = vec![None; nb];
    heads[0] = Some([Interval::FULL; MAX_RANK]);
    let mut joins = vec![0u32; nb];
    let mut work: Vec<usize> = Vec::with_capacity(nb);
    work.push(0);

    // Increasing phase with threshold widening: a bound that keeps
    // creeping (a loop accumulating its range one iteration per pass)
    // jumps to the next program constant — or ±HUGE past the last one —
    // so the fixpoint is independent of the runtime loop trip counts.
    // Every edge out of a block leaves its last op and lands on a head.
    while let Some(b) = work.pop() {
        let end = cfg.heads[b + 1] as usize - 1;
        let st = at_end(b, heads[b].expect("queued blocks have a state"));
        let op = code.ops[end];
        for &(t, edge) in cfg.succs(end) {
            let Some(out) = transfer(op, &st, edge, ctr_range) else {
                continue;
            };
            let tb = cfg.block_of[t as usize] as usize;
            match &mut heads[tb] {
                None => {
                    heads[tb] = Some(out);
                    work.push(tb);
                }
                Some(existing) => {
                    let widen = joins[tb] >= WIDEN_AFTER;
                    let mut joined = *existing;
                    for (th, (je, oe)) in thresholds.iter().zip(joined.iter_mut().zip(&out)) {
                        if oe.lo < je.lo {
                            je.lo = if widen { widen_lo(th, oe.lo) } else { oe.lo };
                        }
                        if oe.hi > je.hi {
                            je.hi = if widen { widen_hi(th, oe.hi) } else { oe.hi };
                        }
                    }
                    if joined != *existing {
                        joins[tb] += 1;
                        *existing = joined;
                        work.push(tb);
                    }
                }
            }
        }
    }

    heads
}

/// Per block, the interval its ops before the last leave in each
/// dimension they set: the state at the block's last op is its head state
/// with these in place.
fn block_sets(code: &Code, cfg: &Cfg, ctr_range: &[Interval]) -> Vec<[Option<Interval>; MAX_RANK]> {
    (0..cfg.blocks())
        .map(|b| {
            let pcs = cfg.block(b);
            let mut set = [None; MAX_RANK];
            for &op in &code.ops[pcs.start..pcs.end - 1] {
                match op {
                    Op::SetIdx { d, v } => set[d as usize] = Some(Interval::point(v)),
                    Op::CtrToIdx { d, ctr } => set[d as usize] = Some(ctr_range[ctr as usize]),
                    _ => {}
                }
            }
            set
        })
        .collect()
}

/// Visits every reachable pc in order with the index state its op runs
/// in, walking each block from its head state (`heads`, from
/// [`idx_states`]).
fn walk_states(
    code: &Code,
    cfg: &Cfg,
    ctr_range: &[Interval],
    heads: &[Option<IdxState>],
    mut visit: impl FnMut(usize, &IdxState),
) {
    for (b, head) in heads.iter().enumerate() {
        let Some(mut st) = *head else { continue };
        for pc in cfg.block(b) {
            visit(pc, &st);
            interior(code.ops[pc], &mut st, ctr_range);
        }
    }
}

fn bounds(code: &Code, cfg: &Cfg) -> Vec<VerifyDiagnostic> {
    let ctr_range = ctr_ranges(code);
    let heads = idx_states(code, cfg, &ctr_range);

    // With the fixpoint in hand, discharge every reachable access.
    let mut diags = Vec::new();
    let mut checked_ok = vec![None::<bool>; code.accesses.len()];
    walk_states(code, cfg, &ctr_range, &heads, |pc, st| {
        let accs = code.ops[pc].parts().filter_map(|part| match part {
            Op::Load { acc, .. } | Op::Store { acc, .. } => Some(acc),
            _ => None,
        });
        for acc in accs {
            let a = &code.accesses[acc as usize];
            let info = &code.arrays[a.arr as usize];
            if let Some(chk) = &a.check {
                // The runtime check must actually dominate the flat index;
                // this is per-access, not per-site.
                let ok = checked_ok[acc as usize]
                    .get_or_insert_with(|| check_covers(code, acc as usize));
                if !*ok {
                    diags.push(VerifyDiagnostic::at(
                        pc,
                        format!(
                            "runtime check on access {acc} to `{}` does not cover the flat \
                         index it guards",
                            code.arrays[chk.arr.0 as usize].name
                        ),
                    ));
                }
                continue;
            }
            // No runtime check: the interval analysis must prove the flat
            // index in bounds for every reachable index value.
            let mut flat_lo = a.const_flat as i128;
            let mut flat_hi = a.const_flat as i128;
            for (s, r) in a.strides.iter().zip(st.iter()).take(a.rank as usize) {
                let s = *s as i128;
                if s == 0 {
                    continue;
                }
                if s > 0 {
                    flat_lo += s * r.lo as i128;
                    flat_hi += s * r.hi as i128;
                } else {
                    flat_lo += s * r.hi as i128;
                    flat_hi += s * r.lo as i128;
                }
            }
            if flat_lo < 0 || flat_hi >= info.elems as i128 {
                diags.push(VerifyDiagnostic::at(
                    pc,
                    format!(
                        "cannot prove unchecked access {acc} to `{}` in bounds: flat index \
                     ranges over [{flat_lo}, {flat_hi}] but the array has {} elements",
                        info.name, info.elems
                    ),
                ));
            }
        }
    });
    diags
}

// ---- phase 4: simd structure ------------------------------------------------

/// Re-derives every `Op::SimdBegin` annotation from the bytecode alone.
///
/// The annotation claims: the two ops that follow are the `SetIdx` and
/// body of a straight-line innermost loop matching the recorded bounds,
/// the recorded lane program, lane registers and broadcast table are
/// exactly what the body decodes to (so every slot an op names holds what
/// the scalar op's register would, and a `Reduce` folds into an
/// accumulator nothing else in the body touches), and strips of `lanes`
/// iterations may run op-major without reordering any conflicting access
/// pair. The shape is checked syntactically; the lane program and the
/// safe width are re-proven by running the same analysis the rewrite used
/// ([`simd::analyze_loop`]) and comparing. Per-position interval bounds
/// need no separate discharge: a lane run covers exactly the iterations
/// of `[start, stop)` (the last strip is cut to what is left), so every
/// index it forms is one the scalar loop forms, already proven by phase
/// 3. What phase 3 cannot see is a *width* overflowing the
/// aliasing-proven distance, so that is what this phase rejects. A run
/// that spans rows covers exactly the scalar iterations of the two loops
/// from the current outer iterate on, so the same argument holds for it
/// once the recorded enclosing loop is the one the bytecode shows and its
/// width is within the re-proven row-major distance.
fn simd_structure(code: &Code) -> Vec<VerifyDiagnostic> {
    let mut diags = Vec::new();
    let mut an = simd::Analysis::new(code, simd::jump_targets(code));
    for (pc, op) in code.ops.iter().enumerate() {
        let Op::SimdBegin { simd } = *op else {
            continue;
        };
        let info = &code.simds[simd as usize];
        if !(2..=MAX_LANES as u8).contains(&info.lanes) {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "simd loop {simd} records a strip of {} lanes, outside the legal \
                     2..={MAX_LANES}",
                    info.lanes
                ),
            ));
            continue;
        }
        let head = info.head as usize;
        let exit = info.exit as usize;
        if head != pc + 2 || exit < head + 1 || exit > code.ops.len() {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!("simd loop {simd} does not annotate the loop that follows it"),
            ));
            continue;
        }
        match code.ops[pc + 1] {
            Op::SetIdx { d, v } if d == info.dim && v == info.start => {}
            _ => {
                diags.push(VerifyDiagnostic::at(
                    pc,
                    format!(
                        "simd loop {simd} expects `SetIdx i{} = {}` at pc {}",
                        info.dim,
                        info.start,
                        pc + 1
                    ),
                ));
                continue;
            }
        }
        match code.ops[exit - 1] {
            Op::IdxStep {
                d,
                step,
                stop,
                head: h,
            } if d == info.dim && step == info.step && stop == info.stop && h == info.head => {}
            _ => {
                diags.push(VerifyDiagnostic::at(
                    pc,
                    format!(
                        "simd loop {simd} expects its back edge `IdxStep i{}` at pc {}",
                        info.dim,
                        exit - 1
                    ),
                ));
                continue;
            }
        }
        let site = simd::LoopSite {
            first: pc,
            head,
            tail: exit - 1,
            dim: info.dim,
            start: info.start,
            step: info.step,
            stop: info.stop,
        };
        let Some(cand) = simd::analyze_loop(code, &mut an, &site) else {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "simd loop {simd} annotates a body that does not re-verify as vectorizable"
                ),
            ));
            continue;
        };
        if info.lanes > cand.lanes {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "simd loop {simd} records {} lanes but the lane stride widens the \
                     access intervals past the proven safe width of {}",
                    info.lanes, cand.lanes
                ),
            ));
            continue;
        }
        if info.body != cand.body
            || info.lane_regs != cand.lane_regs
            || info.finals != cand.finals
            || info.bcast != cand.bcast
        {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "simd loop {simd} has mismatched superinstruction operands: the lane \
                     program does not decode from the loop body"
                ),
            ));
            continue;
        }
        // The enclosing loop: exactly the one the analysis finds (or the
        // same reason for none), claiming at most its proven width.
        let rows_ok = match (info.rows, cand.rows) {
            (Ok(got), Ok(proven)) => {
                (2..=proven.lanes).contains(&got.lanes)
                    && got
                        == Rows {
                            lanes: got.lanes,
                            ..proven
                        }
            }
            (got, proven) => got == proven,
        };
        if !rows_ok {
            diags.push(VerifyDiagnostic::at(
                pc,
                format!(
                    "simd loop {simd} records the enclosing loop {:?} but the bytecode proves {:?}",
                    info.rows, cand.rows
                ),
            ));
        }
    }
    diags
}

/// Does the access's runtime check imply `0 <= flat < elems`?
///
/// The check asserts `0 <= idx[d] + off_d - lo_d < ext_d` per entry. With
/// `i_d := idx[d] + off_d - lo_d`, the flat index equals
/// `const_flat - Σ s_d·(off_d - lo_d) + Σ s_d·i_d`; when the constant
/// part cancels (`const_flat = Σ s_d·(off_d - lo_d)`) and every stride
/// obeys the row-major bound `Σ s_d·(ext_d - 1) < elems` with `s_d >= 0`,
/// the per-dimension ranges telescope to `0 <= flat < elems`.
fn check_covers(code: &Code, acc: usize) -> bool {
    let a = &code.accesses[acc];
    let chk = a.check.as_ref().expect("caller checked");
    let info = &code.arrays[a.arr as usize];
    // Every contributing dimension must be checked, with a non-negative
    // stride (row-major strides are non-negative by construction).
    let mut entry_of = [None; MAX_RANK];
    for e in &chk.dims {
        entry_of[e.0 as usize] = Some(*e);
    }
    let mut const_part = 0i128;
    let mut max_flat = 0i128;
    for (s, entry) in a.strides.iter().zip(entry_of.iter()).take(a.rank as usize) {
        let s = *s as i128;
        if s == 0 {
            continue;
        }
        if s < 0 {
            return false;
        }
        let Some((_, off, lo, ext)) = *entry else {
            return false;
        };
        if ext <= 0 {
            // The check can never pass, so the access never happens.
            return true;
        }
        const_part += s * (off - lo) as i128;
        max_flat += s * (ext - 1) as i128;
    }
    a.const_flat as i128 == const_part && max_flat < info.elems as i128
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{compile, Access, NoRows, Src};
    use crate::ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest, ScalarProgram};
    use zlang::ir::{ArrayId, ConfigBinding, Offset, RegionId};

    fn nest_program(structure: Vec<i8>, off: Vec<i64>) -> ScalarProgram {
        let program = zlang::compile(
            "program t; config n : int = 6; region R = [1..n, 1..n]; \
             var A, B : [R] float; var s : float; begin end",
        )
        .unwrap();
        ScalarProgram {
            program,
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure,
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Load(ArrayId(1), Offset(off)),
                }],
                cluster: 0,
                temps: 0,
            })],
        }
    }

    fn compiled(sp: &ScalarProgram) -> Code {
        compile(sp, &ConfigBinding::defaults(&sp.program)).unwrap()
    }

    #[test]
    fn clean_program_verifies() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let code = compiled(&sp);
        let diags = verify(&code);
        assert!(diags.is_empty(), "{diags:?}");
        // The aligned access was compiled without a runtime check, so the
        // verifier really proved something.
        assert!(code.accesses.iter().any(|a| a.check.is_none()));
    }

    #[test]
    fn reversed_structure_verifies() {
        let sp = nest_program(vec![-2, -1], vec![0, 0]);
        let diags = verify(&compiled(&sp));
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn checked_halo_access_verifies() {
        // The offset leaves the region, so the compiler emits a runtime
        // check; the verifier accepts it as covering the flat index.
        let sp = nest_program(vec![1, 2], vec![0, -1]);
        let code = compiled(&sp);
        assert!(code.accesses.iter().any(|a| a.check.is_some()));
        let diags = verify(&code);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn bad_jump_target_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        let bad = code.ops.len() as u32 + 7;
        for op in code.ops.iter_mut() {
            if let Op::IdxStep { head, .. } = op {
                *head = bad;
            }
        }
        let diags = verify(&code);
        assert!(
            diags.iter().any(|d| d.message.contains("jump target")),
            "{diags:?}"
        );
    }

    #[test]
    fn uninitialized_register_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        // Redirect a Load's destination to read... rather, inject a read
        // of a scratch register that nothing ever writes.
        let scratch = code.frame - 1;
        let first_store = code
            .ops
            .iter()
            .position(|op| matches!(op, Op::Store { .. }))
            .unwrap();
        if let Op::Store { src, .. } = &mut code.ops[first_store] {
            *src = scratch;
        }
        // Make sure nothing defines it: grow the frame by one and use the
        // fresh register instead.
        code.frame += 1;
        if let Op::Store { src, .. } = &mut code.ops[first_store] {
            *src = code.frame - 1;
        }
        let diags = verify(&code);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("read before it is written")),
            "{diags:?}"
        );
    }

    #[test]
    fn unallocated_array_access_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        let alloc_pcs: Vec<usize> = code
            .ops
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, Op::Alloc { .. }))
            .map(|(pc, _)| pc)
            .collect();
        code.ops.retain(|op| !matches!(op, Op::Alloc { .. }));
        // Dropping ops shifts every later pc; keep the par table honest so
        // the diagnostic under test is the only defect.
        for par in code.pars.iter_mut() {
            par.entry -= alloc_pcs
                .iter()
                .filter(|&&p| p < par.entry as usize)
                .count() as u32;
            par.exit -= alloc_pcs.iter().filter(|&&p| p < par.exit as usize).count() as u32;
        }
        let diags = verify(&code);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("before it is allocated")),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_range_access_entry_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        for op in code.ops.iter_mut() {
            if let Op::Load { acc, .. } = op {
                *acc = 999;
            }
        }
        let diags = verify(&code);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("access-table index")),
            "{diags:?}"
        );
    }

    #[test]
    fn out_of_range_nest_id_is_reported() {
        // A nest id indexes the program's nests, so the first id past
        // their count names no nest an observer could look up.
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let code = compiled(&sp);
        assert_eq!(code.n_nests, 1);
        let at = code
            .ops
            .iter()
            .position(|op| matches!(op, Op::NestBegin { .. }))
            .unwrap();
        for nest in [code.n_nests, u32::MAX] {
            let mut bad = compiled(&sp);
            bad.ops[at] = Op::NestBegin { nest };
            rejects(&bad, &format!("nest index {nest} is out of range"));
        }
    }

    #[test]
    fn unprovable_unchecked_access_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        // Strip the check-free load's alignment: shift its constant so the
        // flat index walks past the end of the allocation.
        let target = code
            .accesses
            .iter()
            .position(|a: &Access| a.check.is_none())
            .unwrap();
        code.accesses[target].const_flat += 1;
        let diags = verify(&code);
        assert!(
            diags
                .iter()
                .any(|d| d.message.contains("cannot prove unchecked access")),
            "{diags:?}"
        );
    }

    #[test]
    fn corrupted_check_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, -1]);
        let mut code = compiled(&sp);
        let target = code
            .accesses
            .iter()
            .position(|a: &Access| a.check.is_some())
            .unwrap();
        // A check that inspects no dimensions guards nothing.
        code.accesses[target].check.as_mut().unwrap().dims.clear();
        let diags = verify(&code);
        assert!(
            diags.iter().any(|d| d.message.contains("does not cover")),
            "{diags:?}"
        );
    }

    #[test]
    fn missing_halt_is_reported() {
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let mut code = compiled(&sp);
        code.ops.pop();
        let diags = verify(&code);
        assert!(
            diags.iter().any(|d| d.message.contains("Halt")),
            "{diags:?}"
        );
    }

    /// `A[i] = A[i-2] + 1` over `[3..n]`: superfuses into a simd loop
    /// whose alias analysis caps the lane width at 2 (the dependence
    /// distance), giving the corruption tests a proven bound to overflow.
    fn stencil_program() -> ScalarProgram {
        let program = zlang::compile(
            "program t; config n : int = 16; region R = [1..n]; \
             region S = [3..n]; var A, B : [R] float; var s : float; \
             begin end",
        )
        .unwrap();
        ScalarProgram {
            program,
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(1),
                structure: vec![1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(0), Offset(vec![0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Load(ArrayId(0), Offset(vec![-2]))),
                        Box::new(EExpr::Const(1.0)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        }
    }

    fn superfused(sp: &ScalarProgram) -> Code {
        let mut code = compiled(sp);
        crate::simd::superfuse(&mut code);
        code
    }

    #[test]
    fn peephole_output_verifies() {
        let code = superfused(&stencil_program());
        assert_eq!(code.simds.len(), 1, "the stencil loop should annotate");
        assert_eq!(code.simds[0].lanes, 2, "distance-2 dependence");
        let diags = verify(&code);
        assert!(diags.is_empty(), "{diags:?}");
    }

    fn rejects(code: &Code, message: &str) {
        let diags = verify(code);
        assert!(
            diags.iter().any(|d| d.message.contains(message)),
            "{diags:?}"
        );
    }

    #[test]
    fn lane_width_past_the_proven_interval_is_rejected() {
        // Hand-corrupt the annotation: claim wider strips than the 2 the
        // alias analysis proved safe, up to the executor's default.
        // Op-major execution at width 4 would already read A[i-2] before
        // the position that writes it runs.
        for lanes in [3, 4, 64, MAX_LANES as u8] {
            let mut code = superfused(&stencil_program());
            code.simds[0].lanes = lanes;
            rejects(&code, "proven safe width");
        }
    }

    #[test]
    fn lane_width_outside_the_legal_range_is_rejected() {
        for lanes in [0, 1, MAX_LANES as u8 + 1, u8::MAX] {
            let mut code = superfused(&stencil_program());
            code.simds[0].lanes = lanes;
            rejects(&code, &format!("outside the legal 2..={MAX_LANES}"));
        }
    }

    #[test]
    fn mismatched_lane_operands_are_rejected() {
        use crate::bytecode::LaneOp;
        // Truncate the lane program: it no longer decodes from the loop
        // body it claims to vectorize.
        let mut code = superfused(&stencil_program());
        assert!(!code.simds[0].body.is_empty());
        code.simds[0].body.pop();
        rejects(&code, "mismatched superinstruction operands");

        // Point one resolved operand at another slot: here the store
        // would write the loaded value instead of the sum.
        let mut code = superfused(&stencil_program());
        let store = code.simds[0]
            .body
            .iter_mut()
            .find_map(|op| match op {
                LaneOp::Store { src, .. } => Some(src),
                _ => None,
            })
            .unwrap();
        *store = if *store == Src::lane(0) {
            Src::lane(1)
        } else {
            Src::lane(0)
        };
        rejects(&code, "mismatched superinstruction operands");
    }

    #[test]
    fn remapped_broadcast_entry_is_rejected() {
        use crate::bytecode::Bcast;
        // The loop adds the constant 1.0 from a broadcast slot; make the
        // slot take another register's value, or an index, instead.
        let code = superfused(&stencil_program());
        let Some(&Bcast::Reg(r)) = code.simds[0].bcast.first() else {
            panic!("expected a broadcast register: {:?}", code.simds[0].bcast);
        };
        for wrong in [Bcast::Reg(r - 1), Bcast::Idx(0)] {
            let mut code = superfused(&stencil_program());
            code.simds[0].bcast[0] = wrong;
            rejects(&code, "mismatched superinstruction operands");
        }
        let mut code = superfused(&stencil_program());
        code.simds[0].bcast.push(Bcast::Reg(r));
        rejects(&code, "mismatched superinstruction operands");
    }

    /// `s := +<< A` over `[1..n]`: superfuses into a simd loop whose body
    /// is a load and an in-order fold.
    fn reduce_program() -> ScalarProgram {
        let mut sp = stencil_program();
        sp.stmts = vec![
            LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(0), Offset(vec![0])),
                    rhs: EExpr::Index(0),
                }],
                cluster: 0,
                temps: 0,
            }),
            LStmt::ReduceNest {
                lhs: zlang::ir::ScalarId(0),
                op: zlang::ast::ReduceOp::Sum,
                region: RegionId(0),
                structure: vec![1],
                rhs: EExpr::Load(ArrayId(0), Offset(vec![0])),
            },
        ];
        sp
    }

    #[test]
    fn mutated_lane_reduce_is_rejected() {
        use crate::bytecode::LaneOp;
        use zlang::ast::ReduceOp;
        let clean = superfused(&reduce_program());
        assert!(verify(&clean).is_empty());
        let (si, oi) = clean
            .simds
            .iter()
            .enumerate()
            .find_map(|(si, s)| {
                let oi = s
                    .body
                    .iter()
                    .position(|op| matches!(op, LaneOp::Reduce { .. }))?;
                Some((si, oi))
            })
            .expect("the reduction loop carries a lane reduce");
        let LaneOp::Reduce { op, acc, src } = clean.simds[si].body[oi] else {
            unreachable!()
        };
        assert_eq!((op, src), (ReduceOp::Sum, Src::lane(0)));
        // A different fold, a different accumulator (the program's result
        // scalar, which the scalar loop never touches), a different strip.
        for wrong in [
            LaneOp::Reduce {
                op: ReduceOp::Max,
                acc,
                src,
            },
            LaneOp::Reduce { op, acc: 0, src },
            LaneOp::Reduce {
                op,
                acc,
                src: Src::lane(1),
            },
        ] {
            let mut code = superfused(&reduce_program());
            code.simds[si].body[oi] = wrong;
            rejects(&code, "mismatched superinstruction operands");
        }
    }

    #[test]
    fn mismatched_lane_registers_are_rejected() {
        let mut code = superfused(&stencil_program());
        assert!(!code.simds[0].lane_regs.is_empty());
        // Redirect a lane's writeback register.
        code.simds[0].lane_regs[0] += 1;
        rejects(&code, "mismatched superinstruction operands");
    }

    #[test]
    fn simd_annotation_on_the_wrong_loop_is_rejected() {
        let mut code = superfused(&stencil_program());
        // Point the annotation's head somewhere other than the loop that
        // follows the SimdBegin marker.
        code.simds[0].head += 1;
        let diags = verify(&code);
        assert!(!diags.is_empty(), "{diags:?}");
    }

    /// `A[r,c] = A[r+1,c-1] + 1` over the interior `[2..n-1, 2..n-1]` of
    /// an 8x8 array, rows outer: nothing collides within a row, but the
    /// store at `(r+1, c-1)` comes `e2 - 1 = 5` positions after the load
    /// of the same cell, so the row-spanning width is 5.
    fn skewed_program() -> ScalarProgram {
        let program = zlang::compile(
            "program t; config n : int = 8; region R = [1..n, 1..n]; \
             region S = [2..n-1, 2..n-1]; var A : [R] float; begin end",
        )
        .unwrap();
        ScalarProgram {
            program,
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(1),
                structure: vec![1, 2],
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(0), Offset(vec![0, 0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Load(ArrayId(0), Offset(vec![1, -1]))),
                        Box::new(EExpr::Const(1.0)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })],
        }
    }

    #[test]
    fn corrupted_enclosing_loop_is_rejected() {
        let clean = superfused(&skewed_program());
        assert!(verify(&clean).is_empty(), "{:?}", verify(&clean));
        let info = &clean.simds[0];
        let rows = info.rows.expect("the nest is two perfect loops");
        assert_eq!(
            (info.lanes, rows.lanes, rows.dim),
            (MAX_LANES as u8, 5, 0),
            "no dependence within a row, one 5 positions apart across rows"
        );
        assert_eq!((rows.start, rows.step, rows.stop), (2, 1, 8));
        assert!(matches!(
            clean.ops[rows.exit as usize - 1],
            Op::IdxStep { d: 0, .. }
        ));

        type Corruption = (&'static str, fn(&mut Rows));
        let corruptions: [Corruption; 8] = [
            ("one lane too wide", |r| r.lanes += 1),
            ("the executor's default width", |r| r.lanes = 64),
            ("a strip of one", |r| r.lanes = 1),
            ("the other dimension", |r| r.dim = 1),
            ("an exit one op on", |r| r.exit += 1),
            ("an earlier start", |r| r.start -= 1),
            ("the opposite direction", |r| r.step = -1),
            ("a later stop", |r| r.stop += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut code = superfused(&skewed_program());
            corrupt(code.simds[0].rows.as_mut().unwrap());
            let diags = verify(&code);
            assert!(
                diags.iter().any(|d| d.message.contains("enclosing loop")),
                "{what}: {diags:?}"
            );
        }
        // Nor may an annotation deny the loop that is there, or give
        // another reason for having none.
        for wrong in [NoRows::NoEnclosingLoop, NoRows::Dependence(1)] {
            let mut code = superfused(&skewed_program());
            code.simds[0].rows = Err(wrong);
            rejects(&code, "enclosing loop");
        }
    }

    #[test]
    fn rows_claimed_over_an_extra_op_are_rejected() {
        // Put one more op between the two back edges before the rewrite
        // runs: the outer body is no longer the simd loop alone.
        let mut code = compiled(&skewed_program());
        let steps: Vec<usize> = (0..code.ops.len())
            .filter(|&pc| matches!(code.ops[pc], Op::IdxStep { .. }))
            .collect();
        let [inner, outer] = steps[..] else {
            panic!("expected two loops: {steps:?}")
        };
        assert_eq!(outer, inner + 1);
        let Op::Store { src, .. } = code.ops[inner - 2] else {
            panic!("expected the body's store before its tick")
        };
        code.ops.insert(outer, Op::Mov { dst: src, src });
        for par in code.pars.iter_mut() {
            par.exit += 1; // the ladder ends past the op that moved up
        }
        crate::simd::superfuse(&mut code);
        assert_eq!(code.simds[0].rows, Err(NoRows::OtherOps));
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));

        let honest = superfused(&skewed_program()).simds[0].rows.unwrap();
        code.simds[0].rows = Ok(Rows {
            exit: honest.exit + 1,
            ..honest
        });
        rejects(&code, "enclosing loop");
    }

    /// One nest over `[1..16]` (backwards when `step` is -1) of `A`, `B`,
    /// `C` (halo 1) with one temp:
    ///
    /// ```text
    /// t = A[i]; A[i] = B[i]; C[i] = t * 2; t = B[i+1]; C[i] = t + C[i] + i
    /// ```
    ///
    /// The lane program keeps the load of `A`, whose one reader comes
    /// after a store to `A`, reads `B[i]` in place into the store of `A`
    /// (a segment copy) when the loop runs forwards, and keeps the last
    /// two loads, the last writes of their slots.
    fn temp_program(step: i8) -> ScalarProgram {
        use crate::ir::TempId;
        use zlang::ast::BinOp;
        let program = zlang::compile(
            "program t; config n : int = 16; region R = [1..n]; region GH = [0..n+1]; \
             var A, B, C : [GH] float; begin end",
        )
        .unwrap();
        let ld = |a: u32, o: i64| EExpr::Load(ArrayId(a), Offset(vec![o]));
        let t = || EExpr::Temp(TempId(0));
        let set = |rhs| ElemStmt {
            target: ElemRef::Temp(TempId(0)),
            rhs,
        };
        let put = |a: u32, rhs| ElemStmt {
            target: ElemRef::Array(ArrayId(a), Offset(vec![0])),
            rhs,
        };
        let bin = |op, a, b| EExpr::Binary(op, Box::new(a), Box::new(b));
        let body = vec![
            set(ld(0, 0)),
            put(0, ld(1, 0)),
            put(2, bin(BinOp::Mul, t(), EExpr::Const(2.0))),
            set(ld(1, 1)),
            put(
                2,
                bin(BinOp::Add, bin(BinOp::Add, t(), ld(2, 0)), EExpr::Index(0)),
            ),
        ];
        ScalarProgram {
            program,
            stmts: vec![LStmt::Nest(LoopNest {
                region: RegionId(0),
                structure: vec![step],
                body,
                cluster: 0,
                temps: 1,
            })],
        }
    }

    /// Rewrites the `Load` at `body[i]` into a fold by hand, legal or not:
    /// its first reader takes it in place.
    fn fold_by_hand(info: &mut crate::bytecode::SimdInfo, i: usize) {
        use crate::bytecode::LaneOp;
        let LaneOp::Load { dst, acc } = info.body[i] else {
            panic!("no load at {i}: {:?}", info.body[i])
        };
        let stream = info.body[..i]
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    LaneOp::Load { .. } | LaneOp::Fold { .. } | LaneOp::Store { .. }
                )
            })
            .count() as u16;
        let reader = info.body[i + 1..]
            .iter_mut()
            .find(|op| op.srcs().contains(&Src::lane(dst)))
            .expect("the load is read");
        for s in reader.srcs_mut() {
            if *s == Src::lane(dst) {
                *s = Src::mem(stream);
            }
        }
        info.body[i] = LaneOp::Fold { acc };
    }

    /// The index of the `n`-th `Load` of simd loop 0.
    fn nth_load(code: &Code, n: usize) -> usize {
        use crate::bytecode::LaneOp;
        let loads = code.simds[0]
            .body
            .iter()
            .enumerate()
            .filter(|(_, op)| matches!(op, LaneOp::Load { .. }));
        loads.map(|(i, _)| i).nth(n).expect("enough loads")
    }

    #[test]
    fn folds_the_analysis_does_not_make_are_rejected() {
        use crate::bytecode::LaneOp;
        let clean = superfused(&temp_program(1));
        assert!(verify(&clean).is_empty(), "{:?}", verify(&clean));
        let body = &clean.simds[0].body;
        assert!(
            body.iter()
                .any(|op| matches!(op, LaneOp::Store { src, .. } if src.stream().is_some())),
            "the copy of B into A reads B in place: {body:?}"
        );
        // A fold across the store to `A` between the load and its reader:
        // the reader would see the new `A`.
        let mut code = superfused(&temp_program(1));
        let across = nth_load(&code, 0);
        fold_by_hand(&mut code.simds[0], across);
        rejects(&code, "mismatched superinstruction operands");
        // A fold of a slot's last write: `leave` would write back a value
        // the lane file never held.
        for last in [1, 2] {
            let mut code = superfused(&temp_program(1));
            let i = nth_load(&code, last);
            fold_by_hand(&mut code.simds[0], i);
            rejects(&code, "mismatched superinstruction operands");
        }
        // A fold of a strided stream: backwards, nothing is read in place,
        // not even the copy into `A`.
        let backwards = superfused(&temp_program(-1));
        assert!(verify(&backwards).is_empty(), "{:?}", verify(&backwards));
        let body = &backwards.simds[0].body;
        assert!(!body
            .iter()
            .any(|op| op.srcs().iter().any(|s| s.stream().is_some())));
        let mut code = superfused(&temp_program(-1));
        let copy = nth_load(&code, 1);
        assert!(matches!(code.simds[0].body[copy + 1], LaneOp::Store { .. }));
        fold_by_hand(&mut code.simds[0], copy);
        rejects(&code, "mismatched superinstruction operands");
    }

    #[test]
    fn evaluated_once_ops_over_varying_slots_are_rejected() {
        use crate::bytecode::LaneOp;
        // `t * 2` reads a loaded slot, `.. + i` the loop's own index: both
        // vary by position, so neither may run once.
        let clean = superfused(&temp_program(1));
        let body = &clean.simds[0].body;
        let idx = body
            .iter()
            .find_map(|op| match *op {
                LaneOp::IdxSeq { dst } => Some(dst),
                _ => None,
            })
            .expect("the body reads its index");
        let n_lane = clean.simds[0].lane_regs.len() as u16;
        let reads = |op: &LaneOp, lane: bool| {
            op.srcs().iter().any(|&s| match s.slot() {
                Some(l) if lane => l < n_lane && l != idx,
                _ => s == Src::lane(idx),
            })
        };
        for lane in [true, false] {
            for row in [false, true] {
                let mut code = superfused(&temp_program(1));
                let op = code.simds[0]
                    .body
                    .iter_mut()
                    .find(|op| matches!(op, LaneOp::Apply { .. }) && reads(op, lane))
                    .unwrap();
                let LaneOp::Apply { f, dst, args } = *op else {
                    unreachable!()
                };
                *op = LaneOp::Once { f, dst, args, row };
                rejects(&code, "mismatched superinstruction operands");
            }
        }
    }

    #[test]
    fn a_dropped_copy_whose_source_moves_on_is_rejected() {
        use crate::bytecode::{LaneOp, Op};
        // Rewrite the body's first five ops (pcs stay put) into
        // `r0 = A[i]; r2 = r0; r0 = B[i+1]; r3 = r2 * 2; C[i] = r3`: the
        // copy's source is loaded again before the copy is read, so the
        // copy must stay.
        let sp = temp_program(1);
        let mut code = compile(&sp, &ConfigBinding::defaults(&sp.program)).unwrap();
        let first = code
            .ops
            .iter()
            .position(|op| matches!(op, Op::Load { .. }))
            .unwrap();
        let (
            Op::Load { dst: s, .. },
            Op::Mul { b: two, .. },
            Op::Store { acc: c, .. },
            Op::Load { acc: b, .. },
        ) = (
            code.ops[first],
            code.ops[first + 3],
            code.ops[first + 4],
            code.ops[first + 5],
        )
        else {
            panic!("{:?}", &code.ops[first..first + 6])
        };
        let (x, y) = (s + 2, s + 3);
        code.ops[first + 1] = Op::Mov { dst: x, src: s };
        code.ops[first + 2] = Op::Load { dst: s, acc: b };
        code.ops[first + 3] = Op::Mul {
            dst: y,
            a: x,
            b: two,
        };
        code.ops[first + 4] = Op::Store { acc: c, src: y };
        crate::simd::superfuse(&mut code);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        let info = &code.simds[0];
        let mov = info
            .body
            .iter()
            .position(|op| matches!(op, LaneOp::Mov { .. }))
            .unwrap_or_else(|| panic!("the copy stays: {:?}", info.body));
        let LaneOp::Mov { dst, src: from } = info.body[mov] else {
            unreachable!()
        };
        // Drop it anyway: its readers read the source, which by then holds
        // the second load.
        let mut bad = info.clone();
        bad.body.remove(mov);
        for op in &mut bad.body[mov..] {
            for s in op.srcs_mut() {
                if *s == Src::lane(dst) {
                    *s = from;
                }
            }
        }
        code.simds[0] = bad;
        rejects(&code, "mismatched superinstruction operands");
    }

    #[test]
    fn uninitialized_reads_at_word_boundaries_are_reported() {
        // A frame of 200 registers: 63 and 64 sit on either side of the
        // first word boundary of a state row, 199 in its last word of
        // registers, with the index, counter and array facts after it.
        let sp = nest_program(vec![1, 2], vec![0, 0]);
        let clean = compiled(&sp);
        assert!(clean.frame < 63, "the registers under test are fresh");
        let load = clean
            .ops
            .iter()
            .position(|op| matches!(op, Op::Load { .. }))
            .unwrap();
        let (Op::Load { dst, .. }, Op::Store { src, .. }) = (clean.ops[load], clean.ops[load + 1])
        else {
            panic!(
                "expected the body's load and store: {:?}",
                &clean.ops[load..]
            )
        };
        assert_eq!(dst, src, "the store writes back what the load read");
        for r in [63, 64, 199] {
            let mut code = compiled(&sp);
            code.frame = 200;
            if let Op::Store { src, .. } = &mut code.ops[load + 1] {
                *src = r;
            }
            rejects(
                &code,
                &format!("register {r} may be read before it is written"),
            );
            // Written first, the same read verifies.
            if let Op::Load { dst, .. } = &mut code.ops[load] {
                *dst = r;
            }
            assert!(verify(&code).is_empty(), "r{r}: {:?}", verify(&code));
        }
    }

    /// A hand-built program over `frame` registers, of which the first two
    /// are program scalars (initialized at entry), one counter, and one
    /// array `A` of 8 elements read through access 0, `A[i0]`.
    fn hand_built(ops: Vec<Op>, frame: u16) -> Code {
        use crate::bytecode::ArrayInfo;
        Code {
            ops,
            accesses: vec![Access {
                arr: 0,
                const_flat: 0,
                strides: [1, 0, 0, 0],
                rank: 1,
                check: None,
            }],
            arrays: vec![ArrayInfo {
                name: "A".into(),
                elems: 8,
                bytes: 64,
            }],
            n_scalars: 2,
            const_base: 2,
            frame,
            n_ctrs: 1,
            ..Code::default()
        }
    }

    #[test]
    fn a_counter_read_on_the_exit_path_of_its_for_loop_is_reported() {
        // `if r0 { r2 = r0 }; for c0 in r0..r1 { r3 = c0 }`, then `after`.
        // Only the enter edge of `ForInit` initializes the counter; the
        // exit edge skips the body. The arms before the loop differ, so
        // `ForInit` runs twice and its enter edge joins into an existing
        // state as well as a fresh one. With 60 registers the counter's
        // fact opens the row's second word.
        let program = |after| {
            let ops = vec![
                Op::JmpIfZero { cond: 0, target: 2 },
                Op::Jmp { target: 3 },
                Op::Mov { dst: 2, src: 0 },
                Op::ForInit {
                    ctr: 0,
                    lo: 0,
                    hi: 1,
                    down: false,
                    exit: 6,
                },
                Op::CtrToScalar { dst: 3, ctr: 0 },
                Op::CtrStep { ctr: 0, head: 4 },
                after,
                Op::Halt,
            ];
            hand_built(ops, 60)
        };
        let inside = program(Op::Jmp { target: 7 });
        assert!(verify(&inside).is_empty(), "{:?}", verify(&inside));
        let after = program(Op::CtrToScalar { dst: 4, ctr: 0 });
        assert_eq!(
            verify(&after),
            [VerifyDiagnostic::at(
                6,
                "counter 0 may be read before it is initialized"
            )]
        );
    }

    #[test]
    fn an_array_allocated_on_one_arm_only_is_reported_after_the_join() {
        // `if r0 { alloc A }; A[0]`: the taken edge of `JmpIfZero` skips
        // the allocation. With 123 registers the array's fact is bit 128.
        let program = |target| {
            let ops = vec![
                Op::JmpIfZero { cond: 0, target },
                Op::Alloc { arr: 0 },
                Op::SetIdx { d: 0, v: 0 },
                Op::Load { dst: 2, acc: 0 },
                Op::Halt,
            ];
            hand_built(ops, 123)
        };
        // Both edges into the allocation: it dominates the access.
        let both = program(1);
        assert!(verify(&both).is_empty(), "{:?}", verify(&both));
        assert_eq!(
            verify(&program(2)),
            [VerifyDiagnostic::at(
                3,
                "array `A` may be accessed before it is allocated"
            )]
        );
    }

    #[test]
    fn an_index_dimension_set_only_inside_a_loop_is_reported_after_it() {
        use crate::bytecode::Check;
        // `i0 = i1 = 3; for c0 in r0..r1 { i2 = 5 }; r2 = A[..]`: the loop
        // may run no iteration, so `i2` is unset after it.
        let ops = vec![
            Op::Alloc { arr: 0 },
            Op::SetIdx { d: 0, v: 3 },
            Op::SetIdx { d: 1, v: 3 },
            Op::ForInit {
                ctr: 0,
                lo: 0,
                hi: 1,
                down: false,
                exit: 6,
            },
            Op::SetIdx { d: 2, v: 5 },
            Op::CtrStep { ctr: 0, head: 4 },
            Op::Load { dst: 2, acc: 0 },
            Op::Halt,
        ];
        // Reading `i0` alone verifies.
        let mut code = hand_built(ops, 8);
        code.accesses[0].rank = 3;
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        let unset = [VerifyDiagnostic::at(
            6,
            "index dimension 2 may be read before it is set",
        )];
        // `i2` reaches the access through its stride, or through its
        // runtime check alone.
        let mut strided = hand_built(code.ops.clone(), 8);
        strided.accesses[0].rank = 3;
        strided.accesses[0].strides = [0, 0, 1, 0];
        assert_eq!(verify(&strided), unset);
        code.accesses[0].check = Some(Box::new(Check {
            dims: vec![(0, 0, 0, 8), (2, 0, 0, 8)],
            off: vec![0, 0, 0],
            arr: ArrayId(0),
        }));
        assert_eq!(verify(&code), unset);
    }

    /// `X := X + 1` over `[1..4]`, then `Y := Y + 1` over `[3..12]`: two
    /// nests over dimension 0 with different extents, each array exactly
    /// its nest's region, so every access is unchecked and reaches its
    /// array's first element at `start` and its last at `stop - 1`.
    fn two_extents_program() -> ScalarProgram {
        let program = zlang::compile(
            "program t; region R = [1..4]; region S = [3..12]; \
             var X : [R] float; var Y : [S] float; begin end",
        )
        .unwrap();
        let bump = |region: u32, a: u32| {
            LStmt::Nest(LoopNest {
                region: RegionId(region),
                structure: vec![1],
                body: vec![ElemStmt {
                    target: ElemRef::Array(ArrayId(a), Offset(vec![0])),
                    rhs: EExpr::Binary(
                        zlang::ast::BinOp::Add,
                        Box::new(EExpr::Load(ArrayId(a), Offset(vec![0]))),
                        Box::new(EExpr::Const(1.0)),
                    ),
                }],
                cluster: 0,
                temps: 0,
            })
        };
        ScalarProgram {
            program,
            stmts: vec![bump(0, 0), bump(1, 1)],
        }
    }

    #[test]
    fn widening_from_the_first_join_lands_on_each_loops_range() {
        let sp = two_extents_program();
        let code = compiled(&sp);
        assert!(code.accesses.iter().all(|a| a.check.is_none()));
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        // Each nest's accesses see exactly its own `[start, stop - 1]`,
        // not a threshold of the other nest's loop.
        let states = states(&code);
        let at_stores: Vec<Interval> = (0..code.ops.len())
            .filter(|&pc| matches!(code.ops[pc], Op::Store { .. }))
            .map(|pc| states[pc].expect("reachable")[0])
            .collect();
        assert_eq!(
            at_stores,
            [Interval { lo: 1, hi: 4 }, Interval { lo: 3, hi: 12 }]
        );
        // One element before `start` or past `stop - 1` is rejected.
        for acc in 0..code.accesses.len() {
            for by in [-1, 1] {
                let mut code = compiled(&sp);
                code.accesses[acc].const_flat += by;
                rejects(&code, &format!("cannot prove unchecked access {acc} to"));
            }
        }
        // So is either loop running one iteration past `stop - 1`.
        let steps: Vec<usize> = (0..code.ops.len())
            .filter(|&pc| matches!(code.ops[pc], Op::IdxStep { .. }))
            .collect();
        assert_eq!(steps.len(), 2);
        for pc in steps {
            let mut code = compiled(&sp);
            if let Op::IdxStep { stop, .. } = &mut code.ops[pc] {
                *stop += 1;
            }
            rejects(&code, "cannot prove unchecked access");
        }
    }

    /// Phase 3's index state at every pc (`None`: unreachable).
    fn states(code: &Code) -> Vec<Option<IdxState>> {
        let (cfg, ctr_range) = (Cfg::new(code), ctr_ranges(code));
        let heads = idx_states(code, &cfg, &ctr_range);
        let mut out = vec![None; code.ops.len()];
        walk_states(code, &cfg, &ctr_range, &heads, |pc, st| out[pc] = Some(*st));
        out
    }

    /// Dimension 0 of the state at each of `pcs`.
    fn dim0_at(code: &Code, pcs: &[usize]) -> Vec<Option<Interval>> {
        let states = states(code);
        pcs.iter().map(|&pc| states[pc].map(|s| s[0])).collect()
    }

    fn iv(lo: i64, hi: i64) -> Option<Interval> {
        Some(Interval { lo, hi })
    }

    /// The diagnostic for unchecked access 0 to `A` (8 elements) when
    /// the flat index ranges over `[lo, hi]`.
    fn a_out_of_bounds(pc: usize, lo: i64, hi: i64) -> Vec<VerifyDiagnostic> {
        vec![VerifyDiagnostic::at(
            pc,
            format!(
                "cannot prove unchecked access 0 to `A` in bounds: flat index ranges over \
                 [{lo}, {hi}] but the array has 8 elements"
            ),
        )]
    }

    #[test]
    fn a_set_index_just_before_a_jump_reaches_the_join() {
        // `if r0 { i0 = 2 } else { i0 = v }; A[i0]`: each arm's last op
        // before its jump (or before the join it falls into) sets the
        // index, and the join sees both.
        let program = |v| {
            let ops = vec![
                Op::Alloc { arr: 0 },
                Op::JmpIfZero { cond: 0, target: 4 },
                Op::SetIdx { d: 0, v: 2 },
                Op::Jmp { target: 5 },
                Op::SetIdx { d: 0, v },
                Op::Load { dst: 2, acc: 0 },
                Op::Halt,
            ];
            hand_built(ops, 4)
        };
        let code = program(6);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        // The taken edge of `JmpIfZero` carries the entry state, in which
        // `i0` is unknown, to pc 4.
        assert_eq!(
            dim0_at(&code, &[3, 4, 5]),
            [iv(2, 2), Some(Interval::FULL), iv(2, 6)]
        );
        assert_eq!(verify(&program(8)), a_out_of_bounds(5, 2, 8));
    }

    #[test]
    fn a_counter_copied_to_the_index_mid_block_takes_effect_there() {
        // `c0 = 1..3 { i0 = 7; A[i0]; i0 = c0; A[i0 + off] }`: one block
        // holds both loads, and only the second sees the counter's range.
        let program = |off| {
            let ops = vec![
                Op::Alloc { arr: 0 },
                Op::CtrInit {
                    ctr: 0,
                    cur: 1,
                    end: 3,
                    step: 1,
                },
                Op::SetIdx { d: 0, v: 7 },
                Op::Load { dst: 2, acc: 0 },
                Op::CtrToIdx { d: 0, ctr: 0 },
                Op::Load { dst: 3, acc: 1 },
                Op::CtrStep { ctr: 0, head: 2 },
                Op::Halt,
            ];
            let mut code = hand_built(ops, 4);
            let shifted = Access {
                const_flat: off,
                ..code.accesses[0].clone()
            };
            code.accesses.push(shifted);
            code
        };
        let code = program(4);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        assert_eq!(
            dim0_at(&code, &[3, 4, 5, 6]),
            [iv(7, 7), iv(7, 7), iv(1, 3), iv(1, 3)]
        );
        assert_eq!(
            verify(&program(5)),
            [VerifyDiagnostic::at(
                5,
                "cannot prove unchecked access 1 to `A` in bounds: flat index ranges over \
                 [6, 8] but the array has 8 elements"
            )]
        );
    }

    #[test]
    fn a_block_entered_only_by_a_back_edge_gets_the_stepped_range() {
        // `i0 = 0; goto 3; 2: A[i0 + off]; 3: i0 += 1; if i0 != 4 goto 2`:
        // the block at 2 has no fall-through in, only the back edge.
        let program = |off| {
            let ops = vec![
                Op::Alloc { arr: 0 },
                Op::SetIdx { d: 0, v: 0 },
                Op::Jmp { target: 4 },
                Op::Load { dst: 2, acc: 0 },
                Op::IdxStep {
                    d: 0,
                    step: 1,
                    stop: 4,
                    head: 3,
                },
                Op::Halt,
            ];
            let mut code = hand_built(ops, 4);
            code.accesses[0].const_flat = off;
            code
        };
        let code = program(4);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        assert_eq!(
            dim0_at(&code, &[2, 3, 4, 5]),
            [iv(0, 0), iv(1, 3), iv(0, 3), iv(4, 4)]
        );
        assert_eq!(verify(&program(5)), a_out_of_bounds(3, 6, 8));
    }

    #[test]
    fn an_unreachable_out_of_bounds_access_is_not_reported() {
        // `goto 4; i0 = 100; A[i0]; 4: halt`: the access never runs.
        let ops = vec![
            Op::Jmp { target: 4 },
            Op::SetIdx { d: 0, v: 100 },
            Op::Alloc { arr: 0 },
            Op::Load { dst: 2, acc: 0 },
            Op::Halt,
        ];
        let code = hand_built(ops, 4);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        assert_eq!(dim0_at(&code, &[1, 2, 3]), [None, None, None]);
        assert_eq!(states(&code)[4], Some([Interval::FULL; MAX_RANK]));
    }

    #[test]
    fn an_index_step_whose_two_edges_land_in_one_block_joins_both() {
        // `i0 = 0; i0 += 1; if i0 != stop goto 3; 3: A[i0]`: the back edge
        // and the exit both land on pc 3, one stepped and one at `stop`.
        let program = |stop| {
            let ops = vec![
                Op::Alloc { arr: 0 },
                Op::SetIdx { d: 0, v: 0 },
                Op::IdxStep {
                    d: 0,
                    step: 1,
                    stop,
                    head: 3,
                },
                Op::Load { dst: 2, acc: 0 },
                Op::Halt,
            ];
            hand_built(ops, 4)
        };
        let code = program(3);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        assert_eq!(dim0_at(&code, &[2, 3, 4]), [iv(0, 0), iv(1, 3), iv(1, 3)]);
        assert_eq!(verify(&program(8)), a_out_of_bounds(3, 1, 8));
    }

    #[test]
    fn a_conditional_jump_into_a_straight_run_splits_it() {
        // `i0 = 1; if r0 == 0 goto 4; i0 = 5; 4: A[i0]; i0 = v; A[i0]`:
        // the taken edge lands between two set-index ops of what would
        // otherwise be one run.
        let program = |v| {
            let ops = vec![
                Op::Alloc { arr: 0 },
                Op::SetIdx { d: 0, v: 1 },
                Op::JmpIfZero { cond: 0, target: 4 },
                Op::SetIdx { d: 0, v: 5 },
                Op::Load { dst: 2, acc: 0 },
                Op::SetIdx { d: 0, v },
                Op::Load { dst: 3, acc: 0 },
                Op::Halt,
            ];
            hand_built(ops, 4)
        };
        let code = program(2);
        assert!(verify(&code).is_empty(), "{:?}", verify(&code));
        assert_eq!(
            dim0_at(&code, &[3, 4, 5, 6]),
            [iv(1, 1), iv(1, 5), iv(1, 5), iv(2, 2)]
        );
        assert_eq!(verify(&program(9)), a_out_of_bounds(6, 9, 9));
    }

    /// `Alloc A; i0 = 0`, then `body`, over `hand_built`'s frame of five
    /// registers and its access 0, `A[i0]`, plus access 1, `A[i1]` (no op
    /// sets dimension 1), and access 2, `A[i0 + 8]` (one past the end).
    fn straight_line(body: &[Op]) -> Code {
        let mut ops = vec![Op::Alloc { arr: 0 }, Op::SetIdx { d: 0, v: 0 }];
        ops.extend_from_slice(body);
        ops.push(Op::Halt);
        let mut code = hand_built(ops, 5);
        let a = code.accesses[0].clone();
        code.accesses.push(Access {
            strides: [0, 1, 0, 0],
            rank: 2,
            ..a.clone()
        });
        code.accesses.push(Access { const_flat: 8, ..a });
        code
    }

    /// Each superinstruction kind beside the plain ops it runs as, in
    /// `ld.ld.bin`, `ld.bin`, `bin.bin`, `bin.st`, `ld.st` order. `t` is
    /// the register the first part writes and the second reads, `d` the
    /// result of the kinds with two arithmetic results' worth of
    /// registers, `s` the register the second part of `ld.bin` and
    /// `bin.bin` reads besides `t`, and `m` the access of the last memory
    /// part (`bin.bin` has none).
    fn bundle_kinds(s: u16, t: u16, d: u16, m: u32) -> [(Op, Vec<Op>); 5] {
        use zlang::ast::BinOp;
        [
            (
                Op::LdLdBin {
                    op: BinOp::Mul,
                    dst: d,
                    da: t,
                    aa: 0,
                    db: 3,
                    ab: m,
                },
                vec![
                    Op::Load { dst: t, acc: 0 },
                    Op::Load { dst: 3, acc: m },
                    Op::Mul { dst: d, a: t, b: 3 },
                ],
            ),
            (
                Op::LdBin {
                    op: BinOp::Sub,
                    dst: d,
                    dl: t,
                    acc: m,
                    other: s,
                    right: true,
                },
                vec![Op::Load { dst: t, acc: m }, Op::Sub { dst: d, a: s, b: t }],
            ),
            (
                Op::BinBin {
                    op1: BinOp::Add,
                    d1: t,
                    a1: 0,
                    b1: 0,
                    op2: BinOp::Lt,
                    d2: d,
                    a2: t,
                    b2: s,
                },
                vec![
                    Op::Add { dst: t, a: 0, b: 0 },
                    Op::Bin {
                        op: BinOp::Lt,
                        dst: d,
                        a: t,
                        b: s,
                    },
                ],
            ),
            (
                Op::BinSt {
                    op: BinOp::Div,
                    dst: t,
                    a: 0,
                    b: 1,
                    acc: m,
                },
                vec![Op::Div { dst: t, a: 0, b: 1 }, Op::Store { acc: m, src: t }],
            ),
            (
                Op::LdSt {
                    dst: t,
                    la: 0,
                    sa: m,
                },
                vec![Op::Load { dst: t, acc: 0 }, Op::Store { acc: m, src: t }],
            ),
        ]
    }

    /// The bundle's program is rejected with `message` alone, once, at
    /// the bundle's pc, and the program of its plain ops with `message`
    /// alone, at every pc whose op names the defect.
    fn rejected_like_its_parts(bundle: Op, plain: &[Op], message: &str) {
        assert_eq!(
            verify(&straight_line(&[bundle])),
            [VerifyDiagnostic::at(2, message)],
            "{bundle:?}"
        );
        let diags = verify(&straight_line(plain));
        assert!(
            !diags.is_empty() && diags.iter().all(|d| d.message == message),
            "{plain:?}: {diags:?}"
        );
    }

    #[test]
    fn every_bundle_kind_verifies_like_its_parts() {
        for (bundle, plain) in bundle_kinds(1, 2, 4, 0) {
            let fused = straight_line(&[bundle]);
            assert!(
                verify(&fused).is_empty(),
                "{bundle:?}: {:?}",
                verify(&fused)
            );
            let parts = straight_line(&plain);
            assert!(verify(&parts).is_empty(), "{plain:?}: {:?}", verify(&parts));
        }
    }

    #[test]
    fn a_bundle_register_outside_the_frame_is_reported_once() {
        // `t` is named by both parts of every kind; `bin.bin` names it
        // twice in its own fields too (`d1`, `a2`), so its result `d2`
        // is the one corrupted there.
        let [ldld, ld, _, binst, ldst] = bundle_kinds(1, 5, 4, 0);
        let [_, _, binbin, _, _] = bundle_kinds(1, 2, 5, 0);
        for (bundle, plain) in [ldld, ld, binbin, binst, ldst] {
            rejected_like_its_parts(
                bundle,
                &plain,
                "register 5 is outside the frame of 5 registers",
            );
        }
    }

    #[test]
    fn a_bundle_access_entry_out_of_range_is_reported() {
        let [ldld, ld, _, binst, ldst] = bundle_kinds(1, 2, 4, 99);
        for (bundle, plain) in [ldld, ld, binst, ldst] {
            rejected_like_its_parts(bundle, &plain, "access-table index 99 is out of range");
        }
    }

    #[test]
    fn an_uninitialized_read_by_a_bundles_second_part_is_reported() {
        // The second part of `ld.bin` and `bin.bin` reads a register
        // nothing wrote; that of the others accesses memory along a
        // dimension nothing set.
        let [_, ld, binbin, _, _] = bundle_kinds(3, 2, 4, 0);
        for (bundle, plain) in [ld, binbin] {
            rejected_like_its_parts(
                bundle,
                &plain,
                "register 3 may be read before it is written",
            );
        }
        let [ldld, _, _, binst, ldst] = bundle_kinds(1, 2, 4, 1);
        for (bundle, plain) in [ldld, binst, ldst] {
            rejected_like_its_parts(
                bundle,
                &plain,
                "index dimension 1 may be read before it is set",
            );
        }
    }

    #[test]
    fn an_unprovable_access_in_a_bundles_second_memory_part_is_reported() {
        let [ldld, ld, _, binst, ldst] = bundle_kinds(1, 2, 4, 2);
        for (bundle, plain) in [ldld, ld, binst, ldst] {
            rejected_like_its_parts(
                bundle,
                &plain,
                "cannot prove unchecked access 2 to `A` in bounds: flat index ranges over \
                 [8, 8] but the array has 8 elements",
            );
        }
    }

    #[test]
    fn diagnostic_renders_with_pc() {
        let d = VerifyDiagnostic::at(12, "register 3 may be read before it is written");
        let r = d.render();
        assert!(r.starts_with("error[verify::bytecode]: register 3"), "{r}");
        assert!(r.contains("--> bytecode pc 12"), "{r}");
        assert!(d.to_string().contains("(pc 12)"));
    }
}
