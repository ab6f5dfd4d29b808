//! The optimizer's passes, and the session they run over.
//!
//! The *schedule* is [`Pipeline::optimize`]: straight-line code that reads
//! the [`LevelSpec`](crate::pipeline::LevelSpec) and calls each pass of
//! this module, in the paper's fixed order, through
//! `CompileSession::pass`. That one helper marks the stage for the
//! supervisor's panic attribution, times the pass, logs its [`PassTrace`]
//! row (surfaced as [`Optimized::passes`]) and captures the `zlc --emit`
//! snapshot. A pass is a plain function `fn(&mut CompileSession) -> bool`
//! ("did it change anything") that reads its parameters from the
//! session's [`Pipeline`].
//!
//! The session keeps one `BlockState` per basic block: the cached ASDG,
//! the fusion options in effect, and the evolving fusion and contraction
//! decisions. The fusion-level passes visit the blocks through
//! `CompileSession::each_block`, which builds each block's
//! [`FusionCtx`] once per visit over borrowed state.
//!
//! The ASDG is the expensive cached analysis: each block's graph is built
//! at most once per *mutation epoch* (the count of builds is reported in
//! [`Optimized::asdg_builds`]). The one pass that rewrites statements —
//! the array-level cleanup [`PassId::Rce2`], off at every paper level and
//! enabled with the `+rce2` level suffix — starts a new epoch itself by
//! calling `CompileSession::invalidate` when it changed something.
//!
//! [`PassId`] is also the shared *stage identity* used by the supervisor's
//! panic attribution and by verifier diagnostics.

use crate::asdg::{self, Asdg, DefId};
use crate::ext::PartialGroup;
use crate::fusion::{FusionCtx, FusionOpts, Partition};
use crate::normal::{self, BStmt, NStmt, NormProgram};
use crate::pipeline::{BlockDetail, Optimized, Pipeline, Report};
use crate::scalarize;
use crate::weights::sort_by_weight;
use loopir::{LStmt, ScalarProgram};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use zlang::ast::ReduceOp;
use zlang::ir::{ArrayId, ConfigBinding, Program};

/// Identity of a compilation stage: every pass [`Pipeline::optimize`] can
/// run ([`PassId::is_optimizer_pass`]), the translation validator's
/// per-definition checkers, and the surrounding stages (`Parse`, the
/// bytecode `VerifyBytecode` re-check, and `Execute`) that the supervisor
/// attributes faults to.
///
/// This is the single source of stage names shared by the optimizer,
/// the supervisor's panic attribution ([`crate::supervisor::Stage`] is a
/// re-export), verifier diagnostics ([`crate::verify::Stage`] likewise),
/// and `zlc --emit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Source text to array-level IR (outside the optimizer).
    Parse,
    /// Normalization into basic blocks of array statements (Section 2.1).
    Normalize,
    /// Stencil-aware redundancy elimination over the offset-lattice
    /// availability analysis (`+rce2` levels only).
    Rce2,
    /// `FUSION-FOR-CONTRACTION` over the contraction candidates.
    FuseContraction,
    /// Fusion for locality over all definitions.
    FuseLocality,
    /// Greedy legal pairwise fusion (`c2+f4`).
    FusePairwise,
    /// Contraction decisions for the fused partition (Definition 6).
    Contract,
    /// Dimension contraction of partially fusable arrays ([`crate::ext`]).
    DimContract,
    /// `FIND-LOOP-STRUCTURE` for every fused cluster (Definition 4).
    FindLoopStructure,
    /// Lowering clusters to loop nests with contracted temps.
    Scalarize,
    /// Verifier: normal-form re-check (Section 2.1).
    VerifyNormalForm,
    /// Verifier: independent ASDG reconstruction (Definitions 2-3).
    VerifyAsdg,
    /// Verifier: fusion-partition legality (Definition 5).
    VerifyPartition,
    /// Verifier: loop-structure legality (Definition 4).
    VerifyStructure,
    /// Verifier: contraction safety (Definition 6).
    VerifyContraction,
    /// Verifier: `+rce2` rewrites are value-preserving (offset algebra,
    /// region containment, no intervening writes).
    VerifyRce2,
    /// Bytecode verification in the VM (outside the optimizer).
    VerifyBytecode,
    /// Program execution (outside the optimizer).
    Execute,
}

impl PassId {
    /// Every stage, in pipeline order.
    pub fn all() -> [PassId; 18] {
        [
            PassId::Parse,
            PassId::Normalize,
            PassId::Rce2,
            PassId::FuseContraction,
            PassId::FuseLocality,
            PassId::FusePairwise,
            PassId::Contract,
            PassId::DimContract,
            PassId::FindLoopStructure,
            PassId::Scalarize,
            PassId::VerifyNormalForm,
            PassId::VerifyAsdg,
            PassId::VerifyPartition,
            PassId::VerifyStructure,
            PassId::VerifyContraction,
            PassId::VerifyRce2,
            PassId::VerifyBytecode,
            PassId::Execute,
        ]
    }

    /// The stable name: accepted by `zlc --emit`, shown in supervisor
    /// fault reports, and used as the diagnostic code of the verifiers.
    pub fn name(self) -> &'static str {
        match self {
            PassId::Parse => "parse",
            PassId::Normalize => "normalize",
            PassId::Rce2 => "rce2",
            PassId::FuseContraction => "fuse-contraction",
            PassId::FuseLocality => "fuse-locality",
            PassId::FusePairwise => "fuse-pairwise",
            PassId::Contract => "contract",
            PassId::DimContract => "dim-contract",
            PassId::FindLoopStructure => "find-loop-structure",
            PassId::Scalarize => "scalarize",
            PassId::VerifyNormalForm => "verify::normal-form",
            PassId::VerifyAsdg => "verify::asdg",
            PassId::VerifyPartition => "verify::partition",
            PassId::VerifyStructure => "verify::structure",
            PassId::VerifyContraction => "verify::contraction",
            PassId::VerifyRce2 => "verify::rce2",
            PassId::VerifyBytecode => "verify",
            PassId::Execute => "execute",
        }
    }

    /// The diagnostic code rendered as `error[<code>]` (same as
    /// [`PassId::name`]).
    pub fn code(self) -> &'static str {
        self.name()
    }

    /// Whether [`Pipeline::optimize`] can run this stage as a pass: the
    /// nine transformations from `normalize` to `scalarize`. Exactly
    /// these leave an IR snapshot behind (`zlc --emit`, listed by
    /// `zlc --list-passes`); the other stages only name where a fault or
    /// a diagnostic came from.
    pub fn is_optimizer_pass(self) -> bool {
        matches!(
            self,
            PassId::Normalize
                | PassId::Rce2
                | PassId::FuseContraction
                | PassId::FuseLocality
                | PassId::FusePairwise
                | PassId::Contract
                | PassId::DimContract
                | PassId::FindLoopStructure
                | PassId::Scalarize
        )
    }

    /// The paper definition a verification stage re-checks, if this is a
    /// verification stage.
    pub fn definition(self) -> Option<&'static str> {
        match self {
            PassId::VerifyNormalForm => Some("Section 2.1 (normalized array statements)"),
            PassId::VerifyAsdg => Some("Definitions 2-3 (UDVs and the ASDG)"),
            PassId::VerifyPartition => Some("Definition 5 (legal fusion partitions)"),
            PassId::VerifyStructure => Some("Definition 4 (loop structure legality)"),
            PassId::VerifyContraction => Some("Definition 6 (contractable arrays)"),
            PassId::VerifyRce2 => {
                Some("rce2 value preservation (offset algebra, region containment, no intervening writes)")
            }
            _ => None,
        }
    }

    /// Parses a stage from its [`PassId::name`].
    pub fn from_name(name: &str) -> Option<PassId> {
        PassId::all().into_iter().find(|p| p.name() == name)
    }
}

impl fmt::Display for PassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One entry of the optimizer's instrumentation log.
#[derive(Debug, Clone)]
pub struct PassTrace {
    /// The pass that ran.
    pub id: PassId,
    /// Wall-clock time the pass took.
    pub duration: Duration,
    /// Whether it reported a change.
    pub changed: bool,
    /// Array-level statements across all basic blocks afterwards.
    pub stmts: usize,
    /// Live fusion clusters across all blocks afterwards (0 before
    /// fusion state exists).
    pub clusters: usize,
}

/// Everything the optimizer knows about one basic block.
#[derive(Default)]
struct BlockState {
    /// The block's dependence graph, once built this mutation epoch
    /// (dropped by [`CompileSession::invalidate`]).
    asdg: Option<Asdg>,
    /// The fusion options in effect: the pipeline's base options plus
    /// this block's forbidden statement pairs.
    opts: FusionOpts,
    /// The evolving decisions. Apart from `asdg` and `opts` so a pass can
    /// mutate them while the block's [`FusionCtx`] borrows those two.
    work: BlockWork,
}

/// The fusion and contraction decisions for one block, valid once
/// [`CompileSession::ensure_fusion_setup`] ran this epoch.
#[derive(Default)]
struct BlockWork {
    /// Contraction-candidate definitions of compiler temporaries.
    compiler_defs: Vec<DefId>,
    /// Contraction-candidate definitions of user arrays.
    user_defs: Vec<DefId>,
    partition: Partition,
    /// The candidates the level lets contract ([`contract`]).
    contract_set: Vec<DefId>,
    /// The ones that do contract under the final partition.
    contracted: Vec<DefId>,
    /// Partial-fusion groups found by [`dim_contract`].
    groups: Vec<PartialGroup>,
    /// Loop structure per cluster lowered as its own nest.
    structures: BTreeMap<usize, Vec<i8>>,
    /// The block's loop nests ([`scalarize`]).
    out: Vec<LStmt>,
}

/// The program under compilation plus all evolving optimizer state.
///
/// Created by [`Pipeline::optimize`], threaded through every pass, and
/// finally packaged into an [`Optimized`]. Cached analyses (per-block
/// ASDGs and the fusion setup derived from them) are built lazily and
/// dropped by [`CompileSession::invalidate`] when a pass mutates the IR.
///
/// A session is `Send + Sync` (asserted in this module's tests): all of
/// its state is owned values plus shared references to the immutable
/// input [`Program`] and the [`Pipeline`] with its thread-safe
/// [`ForbidFn`](crate::pipeline::ForbidFn) policy, so compilation can be
/// handed to — or observed from — another thread. This is part of the
/// thread-safe execution contract documented in `DESIGN.md`.
pub(crate) struct CompileSession<'s> {
    program: &'s Program,
    pipeline: &'s Pipeline<'s>,
    norm: Option<NormProgram>,
    rce2: Option<crate::rce2::Rce2Info>,
    blocks: Vec<BlockState>,
    /// How many per-block ASDG constructions have run. With no mutating
    /// passes scheduled this equals the block count — the cache guarantees
    /// at most one build per block per mutation epoch.
    asdg_builds: usize,
    fusion_ready: bool,
    report: Report,
    scalarized: Option<ScalarProgram>,
    contracted: Vec<ArrayId>,
    traces: Vec<PassTrace>,
    emitted: Option<String>,
}

impl<'s> CompileSession<'s> {
    /// Starts a session compiling `program` as `pipeline` says.
    pub(crate) fn new(pipeline: &'s Pipeline<'s>, program: &'s Program) -> CompileSession<'s> {
        CompileSession {
            program,
            pipeline,
            norm: None,
            rce2: None,
            blocks: Vec::new(),
            asdg_builds: 0,
            fusion_ready: false,
            report: Report::default(),
            scalarized: None,
            contracted: Vec::new(),
            traces: Vec::new(),
            emitted: None,
        }
    }

    /// Runs one pass: marks the stage for the supervisor's panic
    /// attribution, times `f`, logs the [`PassTrace`] row, and captures
    /// the snapshot if this is the pass [`Pipeline::with_emit`] named.
    pub(crate) fn pass(&mut self, id: PassId, f: fn(&mut CompileSession<'_>) -> bool) {
        debug_assert!(id.is_optimizer_pass(), "{id} has no snapshot");
        crate::supervisor::enter_stage(id);
        let start = Instant::now();
        let changed = f(self);
        self.traces.push(PassTrace {
            id,
            duration: start.elapsed(),
            changed,
            stmts: self.stmt_count(),
            clusters: self.cluster_count(),
        });
        if self.pipeline.emit == Some(id) {
            self.emitted = Some(self.snapshot(id));
        }
    }

    /// Drops every cached analysis, starting a new mutation epoch. A pass
    /// that rewrote statements calls this before it returns.
    fn invalidate(&mut self) {
        for b in &mut self.blocks {
            b.asdg = None;
        }
        self.fusion_ready = false;
    }

    /// Builds the block's ASDG if this epoch has not yet built it.
    fn ensure_asdg(&mut self, bi: usize) {
        if self.blocks[bi].asdg.is_some() {
            return;
        }
        let np = self
            .norm
            .as_ref()
            .expect("normalize pass must run before ASDG construction");
        self.blocks[bi].asdg = Some(asdg::build(&np.program, &np.blocks[bi]));
        self.asdg_builds += 1;
    }

    /// Prepares the per-block fusion state: ASDGs, fusion options (with
    /// the forbidden-pairs callback applied), the compiler/user candidate
    /// definition split, and trivial partitions. Idempotent per epoch.
    ///
    /// The forbidden-pairs callback runs here — after any statement-
    /// rewriting cleanup pass — so the pair indices it returns refer to
    /// the statements fusion will actually see.
    fn ensure_fusion_setup(&mut self) {
        if self.fusion_ready {
            return;
        }
        for bi in 0..self.blocks.len() {
            self.ensure_asdg(bi);
        }
        let np = self.norm.as_ref().expect("normalize pass must run");
        let candidates = normal::contraction_candidates(np);
        for (bi, b) in self.blocks.iter_mut().enumerate() {
            let g = b.asdg.as_ref().expect("just ensured");
            b.opts = self.pipeline.base_opts.clone();
            if let Some(f) = &self.pipeline.forbid {
                b.opts.forbidden_pairs = f(np, bi, g);
            }
            b.work = BlockWork {
                partition: Partition::trivial(g.n),
                ..BlockWork::default()
            };
            // One scan over the definitions; the stable sort by array
            // then lists them per candidate array, in creation order.
            let mut defs: Vec<(ArrayId, DefId)> = g
                .defs
                .iter()
                .enumerate()
                .filter(|(_, d)| candidates[d.array.0 as usize] == Some(bi))
                .map(|(i, d)| (d.array, DefId(i as u32)))
                .collect();
            defs.sort_by_key(|&(a, _)| a);
            for (a, d) in defs {
                if np.program.array(a).compiler_temp {
                    b.work.compiler_defs.push(d);
                } else {
                    b.work.user_defs.push(d);
                }
            }
        }
        self.fusion_ready = true;
    }

    /// Visits every block with its [`FusionCtx`] — built once per visit,
    /// borrowing the block's cached ASDG and options — and its mutable
    /// [`BlockWork`]. Returns whether any visit reported a change.
    fn each_block(&mut self, mut f: impl FnMut(&FusionCtx<'_>, &mut BlockWork) -> bool) -> bool {
        self.ensure_fusion_setup();
        let np = self.norm.as_ref().expect("normalize must run first");
        let mut changed = false;
        for (block, b) in np.blocks.iter().zip(&mut self.blocks) {
            let g = b.asdg.as_ref().expect("fusion setup built it");
            let ctx = FusionCtx::with_opts(&np.program, block, g, &b.opts);
            changed |= f(&ctx, &mut b.work);
        }
        changed
    }

    /// Total array-level statements across all basic blocks.
    fn stmt_count(&self) -> usize {
        self.norm
            .as_ref()
            .map_or(0, |np| np.blocks.iter().map(|b| b.stmts.len()).sum())
    }

    /// Total live fusion clusters across all blocks (0 before fusion
    /// state exists).
    fn cluster_count(&self) -> usize {
        if !self.fusion_ready {
            return 0;
        }
        self.blocks.iter().map(|b| b.work.partition.len()).sum()
    }

    /// Renders the IR as it stands after the named pass ran.
    ///
    /// Normalization-level passes print the normalized blocks; fusion-
    /// level passes additionally print cluster assignments and each
    /// block's ASDG in Graphviz `dot` form; scalarization prints the
    /// loop-level program.
    fn snapshot(&self, id: PassId) -> String {
        match id {
            PassId::Normalize => self.snapshot_norm(id),
            PassId::Rce2 => self.snapshot_rce2(),
            PassId::FuseContraction
            | PassId::FuseLocality
            | PassId::FusePairwise
            | PassId::Contract
            | PassId::DimContract
            | PassId::FindLoopStructure => self.snapshot_clusters(id),
            PassId::Scalarize => {
                let sp = self.scalarized.as_ref().expect("scalarize just ran");
                loopir::printer::print_with_header(id.name(), sp)
            }
            _ => unreachable!("{id} is not an optimizer pass"),
        }
    }

    fn snapshot_norm(&self, id: PassId) -> String {
        let np = self.norm.as_ref().expect("normalize must run first");
        let mut out = format!("// after {}\n", id.name());
        for (bi, block) in np.blocks.iter().enumerate() {
            let _ = writeln!(out, "// block {bi}");
            for s in &block.stmts {
                out.push_str(&print_bstmt(&np.program, s));
                out.push('\n');
            }
        }
        out
    }

    /// The `--emit rce2` snapshot: the normalized blocks after the pass,
    /// followed by the rewrite/temp/hoist record every change left for
    /// the `verify::rce2` re-checker.
    fn snapshot_rce2(&self) -> String {
        let mut out = self.snapshot_norm(PassId::Rce2);
        let np = self.norm.as_ref().expect("normalize must run first");
        let Some(info) = &self.rce2 else { return out };
        let _ = writeln!(
            out,
            "// rce2: {} rewrite(s), {} temp(s), {} hoist(s)",
            info.rewrites.len(),
            info.temps.len(),
            info.hoists.len()
        );
        for r in &info.rewrites {
            let _ = writeln!(
                out,
                "// rewrite block {} stmt {} path {:?}: {}@{:?} replaces {}",
                r.block,
                r.stmt,
                r.path,
                np.program.array(r.provider).name,
                r.delta,
                zlang::pretty::array_expr(&np.program, &r.replaced),
            );
        }
        for t in &info.temps {
            let _ = writeln!(
                out,
                "// temp block {} stmt {}: {}",
                t.block,
                t.stmt,
                np.program.array(t.array).name,
            );
        }
        for h in &info.hoists {
            let _ = writeln!(
                out,
                "// hoist {}: block {} stmt {} (was block {} index {})",
                np.program.array(h.array).name,
                h.landing_block,
                h.landing_stmt,
                h.orig_block,
                h.orig_index,
            );
        }
        out
    }

    fn snapshot_clusters(&self, id: PassId) -> String {
        let np = self.norm.as_ref().expect("normalize must run first");
        let mut out = format!("// after {}\n", id.name());
        for (bi, (block, b)) in np.blocks.iter().zip(&self.blocks).enumerate() {
            let _ = writeln!(out, "// block {bi}");
            let part = &b.work.partition;
            for c in part.live_clusters() {
                let _ = writeln!(out, "cluster {c}: stmts {:?}", part.cluster(c));
            }
            if let Some(g) = &b.asdg {
                out.push_str(&asdg::to_dot(&np.program, block, g));
            }
        }
        out
    }

    /// Packages the finished session into an [`Optimized`]. The per-block
    /// records move out for diagnostics and the validator: the ASDGs and
    /// options transfer ownership (no rebuild, no clone).
    pub(crate) fn finish(self) -> Optimized {
        let details = self
            .blocks
            .into_iter()
            .map(|b| BlockDetail {
                asdg: b.asdg.expect("fusion setup built every block's graph"),
                partition: b.work.partition,
                contracted: b.work.contracted,
                opts: b.opts,
            })
            .collect();
        Optimized {
            norm: self.norm.expect("normalize pass must run"),
            scalarized: self.scalarized.expect("scalarize pass must run"),
            rce2: self.rce2,
            contracted: self.contracted,
            report: self.report,
            spec: self.pipeline.spec,
            details,
            diagnostics: Vec::new(),
            passes: self.traces,
            asdg_builds: self.asdg_builds,
            emitted: self.emitted,
        }
    }
}

/// Renders one normalized statement in source-like syntax.
fn print_bstmt(p: &Program, s: &BStmt) -> String {
    match s {
        BStmt::Array(a) => format!(
            "[{}] {} := {}",
            p.region(a.region).name,
            p.array(a.lhs).name,
            zlang::pretty::array_expr(p, &a.rhs)
        ),
        BStmt::Reduce {
            lhs,
            op,
            region,
            arg,
        } => format!(
            "{} := {} [{}] {}",
            p.scalar(*lhs).name,
            reduce_token(*op),
            p.region(*region).name,
            zlang::pretty::array_expr(p, arg)
        ),
        BStmt::Scalar { lhs, rhs } => format!(
            "{} := {}",
            p.scalar(*lhs).name,
            zlang::pretty::scalar_expr(p, rhs)
        ),
    }
}

fn reduce_token(op: ReduceOp) -> &'static str {
    match op {
        ReduceOp::Sum => "+<<",
        ReduceOp::Prod => "*<<",
        ReduceOp::Max => "max<<",
        ReduceOp::Min => "min<<",
    }
}

// ---------------------------------------------------------------------------
// Passes, in schedule order
// ---------------------------------------------------------------------------

/// Normalization: splits the program into basic blocks of normalized
/// array statements.
pub(crate) fn normalize(s: &mut CompileSession<'_>) -> bool {
    let np = normal::normalize(s.program);
    s.blocks.resize_with(np.blocks.len(), BlockState::default);
    s.norm = Some(np);
    true
}

/// Stencil-aware redundancy elimination driven by the offset-lattice
/// availability analysis ([`crate::avail`]): subexpression-level reuse
/// across statements (shifted reads of earlier results or of fresh
/// materialization temporaries) plus loop-invariant hoisting out of
/// counted loops. Every change is recorded for the independent
/// `verify::rce2` re-checker. See [`crate::rce2`].
///
/// Off at every paper level; enabled with the `+rce2` level suffix.
pub(crate) fn rce2(s: &mut CompileSession<'_>) -> bool {
    let np = s.norm.as_mut().expect("normalize must run first");
    let (changed, info) = crate::rce2::run(np, &np.default_binding());
    // Hoisting can add blocks.
    s.blocks.resize_with(np.blocks.len(), BlockState::default);
    s.rce2 = Some(info);
    if changed {
        s.invalidate();
    }
    changed
}

/// `FUSION-FOR-CONTRACTION` over the contraction-candidate definitions
/// (compiler temporaries, plus user arrays at user-fusing levels), in
/// weight order.
pub(crate) fn fuse_contraction(s: &mut CompileSession<'_>) -> bool {
    let include_user = s.pipeline.spec.level.fuses_user();
    s.each_block(|ctx, b| {
        let mut fuse_set = b.compiler_defs.clone();
        if include_user {
            fuse_set.extend(&b.user_defs);
        }
        let before = b.partition.len();
        ctx.fusion_for_contraction(&mut b.partition, &by_weight(ctx, fuse_set));
        b.partition.len() != before
    })
}

/// `defs` in the order the fusion algorithms consider them: decreasing
/// reference weight, sized under the program's default config binding.
fn by_weight(ctx: &FusionCtx<'_>, defs: Vec<DefId>) -> Vec<DefId> {
    let binding = ConfigBinding::defaults(ctx.program);
    sort_by_weight(ctx.program, ctx.block, ctx.asdg, defs, &binding)
}

/// Fusion for locality: merges every legal pair among all definitions,
/// in weight order.
pub(crate) fn fuse_locality(s: &mut CompileSession<'_>) -> bool {
    s.each_block(|ctx, b| {
        let all: Vec<DefId> = (0..ctx.asdg.defs.len() as u32).map(DefId).collect();
        let before = b.partition.len();
        ctx.fusion_for_locality(&mut b.partition, &by_weight(ctx, all));
        b.partition.len() != before
    })
}

/// Greedy legal pairwise fusion (`c2+f4`).
pub(crate) fn fuse_pairwise(s: &mut CompileSession<'_>) -> bool {
    s.each_block(|ctx, b| {
        let before = b.partition.len();
        ctx.pairwise_fusion(&mut b.partition);
        b.partition.len() != before
    })
}

/// Contraction decisions: which candidate definitions contract under the
/// final partition (Definition 6), per the level's compiler/user policy.
pub(crate) fn contract(s: &mut CompileSession<'_>) -> bool {
    let level = s.pipeline.spec.level;
    let mut contracted_defs = 0;
    let changed = s.each_block(|ctx, b| {
        b.contract_set.clear();
        if level.contracts_compiler() {
            b.contract_set.extend(&b.compiler_defs);
        }
        if level.contracts_user() {
            b.contract_set.extend(&b.user_defs);
        }
        b.contracted = ctx.contracted_defs(&b.partition, &b.contract_set);
        contracted_defs += b.contracted.len();
        !b.contracted.is_empty()
    });
    s.report.contracted_defs += contracted_defs;
    changed
}

/// Dimension contraction ([`crate::ext`]): finds partial-fusion groups
/// whose flow-flat arrays collapse to a single slice under a shared outer
/// loop; [`scalarize`] applies the collapses they record.
pub(crate) fn dim_contract(s: &mut CompileSession<'_>) -> bool {
    s.each_block(|ctx, b| {
        let contracted: HashSet<DefId> = b.contracted.iter().copied().collect();
        b.groups = crate::ext::find_groups(ctx, &b.partition, &b.contract_set, &contracted);
        !b.groups.is_empty()
    })
}

/// `FIND-LOOP-STRUCTURE`: selects a legal loop structure vector for every
/// cluster that will be lowered as its own nest (Definition 4). Pure
/// analysis — scalarization consumes the recorded structures.
pub(crate) fn find_loop_structure(s: &mut CompileSession<'_>) -> bool {
    s.each_block(|ctx, b| {
        b.structures = scalarize::cluster_structures(ctx, &b.partition, &b.groups);
        false
    })
}

/// Scalarization: lowers every block's clusters to loop nests using the
/// recorded structures, applies dimension collapses, splices the blocks
/// back into the control-flow skeleton, and computes the Figure 7
/// static-array accounting.
pub(crate) fn scalarize(s: &mut CompileSession<'_>) -> bool {
    s.each_block(|ctx, b| {
        let contracted: HashSet<DefId> = b.contracted.iter().copied().collect();
        b.out =
            scalarize::scalarize_block(ctx, &b.partition, &contracted, &b.groups, &b.structures);
        true
    });

    // Apply dimension collapses to the (owned) normalized program
    // before the scalarized code is packaged with it.
    let np = s.norm.as_mut().expect("normalize must run first");
    let mut collapsed = Vec::new();
    for grp in s.blocks.iter().flat_map(|b| &b.work.groups) {
        for &a in &grp.collapsed {
            let decl = &mut np.program.arrays[a.0 as usize];
            if !decl.collapsed.contains(&grp.dim) {
                decl.collapsed.push(grp.dim);
            }
            collapsed.push(a);
        }
    }
    collapsed.sort();
    collapsed.dedup();
    s.report.dimension_contracted = collapsed.len();

    let scalarized = ScalarProgram {
        program: np.program.clone(),
        stmts: splice(&np.body, &mut s.blocks),
    };

    // Figure 7 accounting: arrays referenced before vs after.
    let referenced_before = referenced_arrays(np);
    let live_after: HashSet<ArrayId> = scalarized.live_arrays().into_iter().collect();
    for &a in &referenced_before {
        let is_temp = np.program.array(a).compiler_temp;
        if is_temp {
            s.report.compiler_before += 1;
        } else {
            s.report.user_before += 1;
        }
        if live_after.contains(&a) {
            if is_temp {
                s.report.compiler_after += 1;
            } else {
                s.report.user_after += 1;
            }
        }
    }
    s.report.nests = scalarized.nest_count();

    // `referenced_arrays` is ascending, so this is too.
    s.contracted = referenced_before
        .into_iter()
        .filter(|a| !live_after.contains(a))
        .collect();
    s.scalarized = Some(scalarized);
    true
}

/// Splices scalarized blocks back into the control-flow skeleton, moving
/// each block's loop nests out of its state (each block index appears
/// once in the skeleton).
fn splice(body: &[NStmt], blocks: &mut [BlockState]) -> Vec<LStmt> {
    let mut out = Vec::new();
    for s in body {
        match s {
            NStmt::Block(i) => out.append(&mut blocks[*i].work.out),
            NStmt::For {
                var,
                lo,
                hi,
                down,
                body,
            } => out.push(LStmt::For {
                var: *var,
                lo: lo.clone(),
                hi: hi.clone(),
                down: *down,
                body: splice(body, blocks),
            }),
            NStmt::If {
                cond,
                then_body,
                else_body,
            } => out.push(LStmt::If {
                cond: cond.clone(),
                then_body: splice(then_body, blocks),
                else_body: splice(else_body, blocks),
            }),
        }
    }
    out
}

/// All arrays referenced anywhere in the normalized program, ascending.
fn referenced_arrays(np: &NormProgram) -> Vec<ArrayId> {
    let mut seen = vec![false; np.program.arrays.len()];
    for block in &np.blocks {
        for s in &block.stmts {
            s.for_each_read(|a, _| seen[a.0 as usize] = true);
            if let Some(a) = s.lhs_array() {
                seen[a.0 as usize] = true;
            }
        }
    }
    seen.iter()
        .enumerate()
        .filter(|(_, &s)| s)
        .map(|(i, _)| ArrayId(i as u32))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_session_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompileSession<'_>>();
    }

    #[test]
    fn optimizer_copies_carry_declarations_only() {
        let program = zlang::compile(
            "program p; config n : int = 6; region R = [1..n]; var A, B : [R] float; \
             var s : float; var k : int; begin for k := 1 to 2 do [R] A := A@[0] + 1.0; \
             [R] B := A; end; s := +<< [R] B; end",
        )
        .unwrap();
        let opt = Pipeline::new(crate::pipeline::Level::C2F3).optimize(&program);
        assert!(opt.norm.program.body.is_empty());
        assert!(opt.scalarized.program.body.is_empty());
        assert_eq!(opt.scalarized.program.arrays, opt.norm.program.arrays);
        // Both blocks were moved into the skeleton: the loop and the
        // reduction after it.
        assert!(matches!(&opt.scalarized.stmts[0], LStmt::For { body, .. } if !body.is_empty()));
        assert!(opt.scalarized.stmts.len() > 1);
    }

    #[test]
    fn pass_id_names_round_trip() {
        for id in PassId::all() {
            assert_eq!(PassId::from_name(id.name()), Some(id), "{id}");
        }
        assert_eq!(PassId::from_name("nonsense"), None);
    }

    #[test]
    fn verify_stages_cite_definitions() {
        for id in PassId::all() {
            let is_pipeline_verifier = matches!(
                id,
                PassId::VerifyNormalForm
                    | PassId::VerifyAsdg
                    | PassId::VerifyPartition
                    | PassId::VerifyStructure
                    | PassId::VerifyContraction
                    | PassId::VerifyRce2
            );
            assert_eq!(id.definition().is_some(), is_pipeline_verifier, "{id}");
        }
    }
}
