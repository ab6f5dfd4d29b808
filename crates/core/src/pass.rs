//! An instrumented pass manager over the optimization pipeline.
//!
//! [`Pipeline::optimize`](crate::pipeline::Pipeline::optimize) used to be
//! one monolithic function interleaving fusion, contraction, and
//! scalarization per block. This module restructures it into:
//!
//! * a [`CompileSession`] — the program being compiled plus every piece of
//!   evolving state (normalized form, cached per-block ASDGs, fusion
//!   partitions, contraction decisions, the scalarized result);
//! * a [`Pass`] trait — one named transformation or verification step with
//!   a declared analysis-preservation contract;
//! * a [`PassManager`] — runs a declarative pass sequence built from the
//!   [`crate::pipeline::Level`] predicates, recording per-pass
//!   wall-clock timing and statement/cluster counters
//!   ([`PassTrace`]), invalidating cached analyses only after passes that
//!   mutate the IR, and optionally capturing an IR snapshot after any pass
//!   (`zlc --emit`).
//!
//! The ASDG is the expensive cached analysis: `CompileSession::ensure_asdg`
//! builds each block's graph at most once per *mutation epoch* (the count
//! of builds is reported in
//! [`Optimized::asdg_builds`](crate::pipeline::Optimized::asdg_builds)).
//! Passes that rewrite statements — the two new array-level cleanups
//! [`PassId::Dse`] and [`PassId::Rce`], off at every paper level and
//! enabled with the `+dse` / `+rce` level suffixes — declare
//! `preserves_analyses() == false`, which starts a new epoch.
//!
//! [`PassId`] is also the shared *stage identity* used by the supervisor's
//! panic attribution and by verifier diagnostics, replacing the three
//! parallel stage enums the crates previously kept in sync by hand.

use crate::asdg::{self, Asdg, DefId};
use crate::avail::{region_contains_shifted, regions_disjoint_shifted};
use crate::ext::PartialGroup;
use crate::fusion::{FusionCtx, FusionOpts, Partition};
use crate::normal::{self, BStmt, NStmt, NormProgram};
use crate::pipeline::{BlockDetail, ForbidFn, Level, LevelSpec, Optimized, Report};
use crate::scalarize;
use crate::verify::{self, Diagnostic, VerifyLevel};
use crate::weights::sort_by_weight;
use loopir::{LStmt, ScalarProgram};
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use zlang::ast::ReduceOp;
use zlang::ir::{ArrayExpr, ArrayId, ConfigBinding, Offset, Program, ScalarId};

/// Identity of a compilation stage: every pass the manager can schedule,
/// plus the surrounding stages (`Parse`, the bytecode `VerifyBytecode`
/// re-check, and `Execute`) that the supervisor attributes faults to.
///
/// This is the single source of stage names shared by the pass manager,
/// the supervisor's panic attribution ([`crate::supervisor::Stage`] is a
/// re-export), verifier diagnostics ([`crate::verify::Stage`] likewise),
/// and `zlc --emit`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassId {
    /// Source text to array-level IR (outside the pass manager).
    Parse,
    /// Normalization into basic blocks of array statements (Section 2.1).
    Normalize,
    /// Dead-statement elimination over the ASDG (`+dse` levels only).
    Dse,
    /// Redundant-computation elimination (`+rce` levels only).
    Rce,
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
    /// Bytecode verification in the VM (outside the pass manager).
    VerifyBytecode,
    /// Program execution (outside the pass manager).
    Execute,
}

impl PassId {
    /// Every stage, in pipeline order.
    pub fn all() -> [PassId; 20] {
        [
            PassId::Parse,
            PassId::Normalize,
            PassId::Dse,
            PassId::Rce,
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
            PassId::Dse => "dse",
            PassId::Rce => "rce",
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

/// What a pass reports back to the manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassResult {
    /// Whether the pass changed the session (IR or optimization state).
    pub changed: bool,
}

impl PassResult {
    fn changed(changed: bool) -> PassResult {
        PassResult { changed }
    }
}

/// One entry of the pass manager's instrumentation log.
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

/// One schedulable step of the pipeline.
pub trait Pass {
    /// The pass's identity (also its stage for fault attribution).
    fn id(&self) -> PassId;

    /// Whether cached analyses (the per-block ASDGs, contraction
    /// candidates, and the derived fusion setup) survive this pass.
    /// Passes that rewrite statements return `false`; the manager then
    /// starts a new mutation epoch after a changing run.
    fn preserves_analyses(&self) -> bool {
        true
    }

    /// Runs the pass over the session.
    fn run(&self, session: &mut CompileSession<'_>) -> PassResult;
}

/// The outcome of a [`PassManager::run`].
#[derive(Debug, Clone)]
pub struct PassRun {
    /// Per-pass instrumentation, in execution order.
    pub traces: Vec<PassTrace>,
    /// The IR snapshot captured after the requested pass, if any.
    pub emitted: Option<String>,
}

/// Runs a pass sequence over a [`CompileSession`] with timing, counters,
/// analysis invalidation, and optional snapshot capture.
pub struct PassManager {
    passes: Vec<Box<dyn Pass>>,
    emit: Option<PassId>,
}

impl PassManager {
    /// Creates a manager over a pass sequence.
    pub fn new(passes: Vec<Box<dyn Pass>>) -> PassManager {
        PassManager { passes, emit: None }
    }

    /// Requests an IR snapshot after the named pass (it must be part of
    /// the sequence to produce one).
    pub fn set_emit(&mut self, pass: PassId) {
        self.emit = Some(pass);
    }

    /// The ids of the scheduled passes, in order.
    pub fn pass_ids(&self) -> Vec<PassId> {
        self.passes.iter().map(|p| p.id()).collect()
    }

    /// Runs every pass in order.
    pub fn run(&self, session: &mut CompileSession<'_>) -> PassRun {
        let mut traces = Vec::with_capacity(self.passes.len());
        let mut emitted = None;
        for p in &self.passes {
            crate::supervisor::enter_stage(p.id());
            let start = Instant::now();
            let r = p.run(session);
            let duration = start.elapsed();
            if r.changed && !p.preserves_analyses() {
                session.invalidate();
            }
            traces.push(PassTrace {
                id: p.id(),
                duration,
                changed: r.changed,
                stmts: session.stmt_count(),
                clusters: session.cluster_count(),
            });
            if self.emit == Some(p.id()) {
                emitted = Some(session.snapshot(p.id()));
            }
        }
        PassRun { traces, emitted }
    }
}

/// Builds the declarative pass sequence for a level (plus the opt-in
/// cleanup and extension passes), mirroring the paper's Section 5.4 level
/// definitions through the [`Level`] predicates.
pub(crate) fn build_sequence(
    spec: LevelSpec,
    dimension_contraction: bool,
    spatial_cap: Option<usize>,
) -> Vec<Box<dyn Pass>> {
    let level = spec.level;
    let mut passes: Vec<Box<dyn Pass>> = vec![Box::new(NormalizePass)];
    if spec.dse {
        passes.push(Box::new(DsePass));
    }
    if spec.rce {
        passes.push(Box::new(RcePass));
    }
    if spec.rce2 {
        passes.push(Box::new(Rce2Pass));
    }
    if level.fuses_compiler() {
        passes.push(Box::new(FuseContractionPass {
            include_user: level.fuses_user(),
        }));
    }
    if level.locality_fusion() {
        passes.push(Box::new(FuseLocalityPass));
    }
    if level.pairwise_fusion() {
        passes.push(Box::new(FusePairwisePass { cap: spatial_cap }));
    }
    passes.push(Box::new(ContractPass {
        compiler: level.contracts_compiler(),
        user: level.contracts_user(),
    }));
    if dimension_contraction {
        passes.push(Box::new(DimContractPass));
    }
    passes.push(Box::new(FindLoopStructurePass));
    passes.push(Box::new(ScalarizePass));
    for which in [
        PassId::VerifyNormalForm,
        PassId::VerifyAsdg,
        PassId::VerifyPartition,
        PassId::VerifyContraction,
        PassId::VerifyStructure,
    ] {
        passes.push(Box::new(VerifyPass { which }));
    }
    if spec.rce2 {
        passes.push(Box::new(VerifyPass {
            which: PassId::VerifyRce2,
        }));
    }
    passes
}

/// The program under compilation plus all evolving pipeline state.
///
/// Created by [`Pipeline::optimize`](crate::pipeline::Pipeline::optimize),
/// threaded through every [`Pass`], and finally packaged into an
/// [`Optimized`]. Cached analyses (per-block ASDGs, contraction
/// candidates, fusion setup) are built lazily and dropped by
/// [`CompileSession::invalidate`] when a pass mutates the IR.
///
/// A session is `Send + Sync` (asserted in this module's tests): all of
/// its state is owned values plus shared references to the immutable
/// input [`Program`] and the thread-safe
/// [`ForbidFn`] policy, so compilation can be
/// handed to — or observed from — another thread. This is part of the
/// thread-safe execution contract documented in `DESIGN.md`.
pub struct CompileSession<'s> {
    program: &'s Program,
    level: Level,
    pub(crate) forbid: Option<&'s ForbidFn<'s>>,
    base_opts: FusionOpts,
    verify: VerifyLevel,

    // Evolving IR.
    norm: Option<NormProgram>,
    binding: Option<ConfigBinding>,
    rce2: Option<crate::rce2::Rce2Info>,

    // Cached analyses (cleared by `invalidate`).
    candidates: Option<Vec<Option<usize>>>,
    asdg: Vec<Option<Asdg>>,
    /// How many per-block ASDG constructions have run. With no mutating
    /// passes scheduled this equals the block count — the cache guarantees
    /// at most one build per block per mutation epoch.
    pub asdg_builds: usize,
    epoch: u64,
    fusion_ready: bool,

    // Fusion / contraction state (valid once `fusion_ready`).
    block_opts: Vec<FusionOpts>,
    compiler_defs: Vec<Vec<DefId>>,
    user_defs: Vec<Vec<DefId>>,
    partitions: Vec<Partition>,
    contract_sets: Vec<Vec<DefId>>,
    contracted_defs: Vec<Vec<DefId>>,
    groups: Vec<Vec<PartialGroup>>,
    structures: Vec<BTreeMap<usize, Vec<i8>>>,
    collapse_list: Vec<(ArrayId, u8)>,

    // Results.
    report: Report,
    cheap_check_failed: bool,
    block_out: Vec<Vec<LStmt>>,
    scalarized: Option<ScalarProgram>,
    contracted: Vec<ArrayId>,
    details: Vec<BlockDetail>,
    diagnostics: Vec<Diagnostic>,
}

impl<'s> CompileSession<'s> {
    /// Starts a session for a program at a level.
    pub fn new(
        program: &'s Program,
        level: Level,
        base_opts: FusionOpts,
        verify: VerifyLevel,
    ) -> CompileSession<'s> {
        CompileSession {
            program,
            level,
            forbid: None,
            base_opts,
            verify,
            norm: None,
            binding: None,
            rce2: None,
            candidates: None,
            asdg: Vec::new(),
            asdg_builds: 0,
            epoch: 0,
            fusion_ready: false,
            block_opts: Vec::new(),
            compiler_defs: Vec::new(),
            user_defs: Vec::new(),
            partitions: Vec::new(),
            contract_sets: Vec::new(),
            contracted_defs: Vec::new(),
            groups: Vec::new(),
            structures: Vec::new(),
            collapse_list: Vec::new(),
            report: Report::default(),
            cheap_check_failed: false,
            block_out: Vec::new(),
            scalarized: None,
            contracted: Vec::new(),
            details: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    /// The source program (pre-normalization).
    pub fn program(&self) -> &Program {
        self.program
    }

    /// The level being applied.
    pub fn level(&self) -> Level {
        self.level
    }

    /// The current mutation epoch: bumped by [`CompileSession::invalidate`].
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The name table of the program being compiled (interned symbols for
    /// every declared name; post-normalize includes compiler temps).
    pub fn names(&self) -> &zlang::ir::NameTable {
        match &self.norm {
            Some(np) => &np.program.names,
            None => &self.program.names,
        }
    }

    /// Drops every cached analysis and starts a new mutation epoch.
    /// Called by the manager after a changing run of a pass that does not
    /// preserve analyses.
    pub fn invalidate(&mut self) {
        for slot in &mut self.asdg {
            *slot = None;
        }
        self.candidates = None;
        self.fusion_ready = false;
        self.epoch += 1;
    }

    /// Builds the block's ASDG if this epoch has not yet built it.
    pub(crate) fn ensure_asdg(&mut self, bi: usize) {
        if self.asdg[bi].is_some() {
            return;
        }
        let np = self
            .norm
            .as_ref()
            .expect("normalize pass must run before ASDG construction");
        let g = asdg::build(&np.program, &np.blocks[bi]);
        self.asdg[bi] = Some(g);
        self.asdg_builds += 1;
    }

    /// Computes the contraction candidates if this epoch has not yet.
    pub(crate) fn ensure_candidates(&mut self) {
        if self.candidates.is_some() {
            return;
        }
        let np = self
            .norm
            .as_ref()
            .expect("normalize pass must run before candidate analysis");
        self.candidates = Some(normal::contraction_candidates(np));
    }

    /// Prepares the per-block fusion state: ASDGs, fusion options (with
    /// the forbidden-pairs callback applied), the compiler/user candidate
    /// definition split, and trivial partitions. Idempotent per epoch.
    ///
    /// The forbidden-pairs callback runs here — after any statement-
    /// rewriting cleanup pass — so the pair indices it returns refer to
    /// the statements fusion will actually see.
    pub(crate) fn ensure_fusion_setup(&mut self) {
        if self.fusion_ready {
            return;
        }
        self.ensure_candidates();
        let nblocks = self.norm.as_ref().map_or(0, |np| np.blocks.len());
        for bi in 0..nblocks {
            self.ensure_asdg(bi);
        }
        let np = self.norm.as_ref().expect("normalize pass must run");
        let candidates = self.candidates.as_ref().expect("just ensured");
        let mut block_opts = Vec::with_capacity(nblocks);
        let mut compiler_defs = vec![Vec::new(); nblocks];
        let mut user_defs = vec![Vec::new(); nblocks];
        let mut partitions = Vec::with_capacity(nblocks);
        for bi in 0..nblocks {
            let g = self.asdg[bi].as_ref().expect("just ensured");
            let mut opts = self.base_opts.clone();
            if let Some(f) = self.forbid {
                opts.forbidden_pairs = f(np, bi, g);
            }
            block_opts.push(opts);
            for (ai, cand) in candidates.iter().enumerate() {
                if *cand != Some(bi) {
                    continue;
                }
                let a = ArrayId(ai as u32);
                let defs = g.defs_of(a);
                if np.program.array(a).compiler_temp {
                    compiler_defs[bi].extend(defs);
                } else {
                    user_defs[bi].extend(defs);
                }
            }
            partitions.push(Partition::trivial(g.n));
        }
        self.block_opts = block_opts;
        self.compiler_defs = compiler_defs;
        self.user_defs = user_defs;
        self.partitions = partitions;
        self.contract_sets = vec![Vec::new(); nblocks];
        self.contracted_defs = vec![Vec::new(); nblocks];
        self.groups = vec![Vec::new(); nblocks];
        self.structures = vec![BTreeMap::new(); nblocks];
        self.fusion_ready = true;
    }

    /// Total array-level statements across all basic blocks.
    pub fn stmt_count(&self) -> usize {
        self.norm
            .as_ref()
            .map_or(0, |np| np.blocks.iter().map(|b| b.stmts.len()).sum())
    }

    /// Total live fusion clusters across all blocks (0 before fusion
    /// state exists).
    pub fn cluster_count(&self) -> usize {
        if !self.details.is_empty() {
            return self
                .details
                .iter()
                .map(|d| d.partition.live_clusters().len())
                .sum();
        }
        if self.fusion_ready {
            self.partitions
                .iter()
                .map(|p| p.live_clusters().len())
                .sum()
        } else {
            0
        }
    }

    /// Renders the IR as it stands after the named pass ran.
    ///
    /// Normalization-level passes print the normalized blocks; fusion-
    /// level passes additionally print cluster assignments and each
    /// block's ASDG in Graphviz `dot` form; scalarization and later print
    /// the loop-level program.
    pub fn snapshot(&self, id: PassId) -> String {
        match id {
            PassId::Normalize | PassId::Dse | PassId::Rce => self.snapshot_norm(id),
            PassId::Rce2 => self.snapshot_rce2(),
            PassId::FuseContraction
            | PassId::FuseLocality
            | PassId::FusePairwise
            | PassId::Contract
            | PassId::DimContract
            | PassId::FindLoopStructure => self.snapshot_clusters(id),
            _ => {
                let sp = self
                    .scalarized
                    .as_ref()
                    .expect("loop-level snapshot requested before scalarize ran");
                loopir::printer::print_with_header(id.name(), sp)
            }
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
        for (bi, block) in np.blocks.iter().enumerate() {
            let _ = writeln!(out, "// block {bi}");
            if let Some(part) = self.partitions.get(bi) {
                for c in part.live_clusters() {
                    let _ = writeln!(out, "cluster {c}: stmts {:?}", part.cluster(c));
                }
            }
            if let Some(g) = self.asdg.get(bi).and_then(|g| g.as_ref()) {
                out.push_str(&asdg::to_dot(&np.program, block, g));
            }
        }
        out
    }

    /// Packages the finished session into an [`Optimized`].
    pub(crate) fn finish(self, run: PassRun) -> Optimized {
        Optimized {
            norm: self.norm.expect("normalize pass must run"),
            scalarized: self.scalarized.expect("scalarize pass must run"),
            rce2: self.rce2,
            contracted: self.contracted,
            report: self.report,
            level: self.level,
            details: self.details,
            diagnostics: self.diagnostics,
            passes: run.traces,
            asdg_builds: self.asdg_builds,
            emitted: run.emitted,
        }
    }
}

/// Renders one normalized statement in source-like syntax.
pub(crate) fn print_bstmt(p: &Program, s: &BStmt) -> String {
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
// Passes
// ---------------------------------------------------------------------------

/// Normalization: splits the program into basic blocks of normalized
/// array statements and fixes the default config binding.
struct NormalizePass;

impl Pass for NormalizePass {
    fn id(&self) -> PassId {
        PassId::Normalize
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        let np = normal::normalize(s.program);
        s.binding = Some(np.default_binding());
        s.asdg = vec![None; np.blocks.len()];
        s.norm = Some(np);
        s.ensure_candidates();
        PassResult::changed(true)
    }
}

/// Dead-statement elimination: removes an array statement whose
/// definition is never read and whose every element is overwritten by a
/// later statement in the same block writing the same array over the same
/// (symbolic) region. The full-region overwrite makes this safe even when
/// the array is live across blocks.
///
/// Off at every paper level; enabled with the `+dse` level suffix.
struct DsePass;

impl Pass for DsePass {
    fn id(&self) -> PassId {
        PassId::Dse
    }

    fn preserves_analyses(&self) -> bool {
        false
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        let nblocks = s.norm.as_ref().map_or(0, |np| np.blocks.len());
        for bi in 0..nblocks {
            s.ensure_asdg(bi);
        }
        // Decide against one consistent ASDG snapshot, then rewrite.
        let mut dead_per_block: Vec<Vec<usize>> = Vec::with_capacity(nblocks);
        {
            let np = s.norm.as_ref().expect("normalize must run first");
            for (bi, block) in np.blocks.iter().enumerate() {
                let g = s.asdg[bi].as_ref().expect("just ensured");
                let mut dead = Vec::new();
                for (i, st) in block.stmts.iter().enumerate() {
                    let BStmt::Array(a) = st else { continue };
                    let Some(d) = g.write_def[i] else { continue };
                    if !g.def(d).reads.is_empty() {
                        continue;
                    }
                    let shadowed = block.stmts[i + 1..].iter().any(
                        |t| matches!(t, BStmt::Array(b) if b.lhs == a.lhs && b.region == a.region),
                    );
                    if shadowed {
                        dead.push(i);
                    }
                }
                dead_per_block.push(dead);
            }
        }
        let mut changed = false;
        let np = s.norm.as_mut().expect("normalize must run first");
        for (bi, dead) in dead_per_block.iter().enumerate() {
            if dead.is_empty() {
                continue;
            }
            let dead_set: HashSet<usize> = dead.iter().copied().collect();
            let mut i = 0;
            np.blocks[bi].stmts.retain(|_| {
                let keep = !dead_set.contains(&i);
                i += 1;
                keep
            });
            changed = true;
        }
        PassResult::changed(changed)
    }
}

/// Redundant-computation elimination: when a later statement recomputes
/// an earlier statement's right-hand side (element-wise, modulo one
/// uniform offset shift δ), the recomputation is replaced by a shifted
/// read of the earlier result.
///
/// For a pair `[Ri] B := rhs;  ...  [Rj] C := rhs@δ`, the merge is legal
/// when no array read by `rhs` (and not `B` itself) is redefined between
/// the two statements, no scalar read by `rhs` is rewritten between them,
/// `rhs` contains no `index` term if δ ≠ 0, and `Rj + δ ⊆ Ri` holds
/// symbolically — every element the shifted read touches was actually
/// written (not stale halo) by the earlier statement.
///
/// Off at every paper level; enabled with the `+rce` level suffix.
struct RcePass;

impl Pass for RcePass {
    fn id(&self) -> PassId {
        PassId::Rce
    }

    fn preserves_analyses(&self) -> bool {
        false
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        let mut changed = false;
        let np = s.norm.as_mut().expect("normalize must run first");
        for block in &mut np.blocks {
            for j in 1..block.stmts.len() {
                let replacement = find_rce_source(&np.program, &block.stmts, j);
                if let Some((src, delta)) = replacement {
                    let BStmt::Array(a) = &mut block.stmts[j] else {
                        unreachable!("find_rce_source only matches array statements");
                    };
                    a.rhs = ArrayExpr::Read(src, Offset(delta));
                    changed = true;
                }
            }
        }
        PassResult::changed(changed)
    }
}

/// Stencil-aware redundancy elimination driven by the offset-lattice
/// availability analysis ([`crate::avail`]): subexpression-level reuse
/// across statements (shifted reads of earlier results or of fresh
/// materialization temporaries) plus loop-invariant hoisting out of
/// counted loops. Every change is recorded for the independent
/// `verify::rce2` re-checker. See [`crate::rce2`].
///
/// Off at every paper level; enabled with the `+rce2` level suffix.
struct Rce2Pass;

impl Pass for Rce2Pass {
    fn id(&self) -> PassId {
        PassId::Rce2
    }

    fn preserves_analyses(&self) -> bool {
        false
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        let binding = s.binding.clone().expect("set by normalize");
        let np = s.norm.as_mut().expect("normalize must run first");
        let (changed, info) = crate::rce2::run(np, &binding);
        // Hoisting can add blocks: the ASDG cache must track the new
        // block count before the epoch invalidation clears it.
        let nblocks = np.blocks.len();
        s.asdg.resize_with(nblocks, || None);
        s.rce2 = Some(info);
        PassResult::changed(changed)
    }
}

/// Finds the earliest statement `i < j` whose RHS statement `j`
/// redundantly recomputes, returning the array to read instead and the
/// offset shift. See [`RcePass`] for the legality conditions.
fn find_rce_source(program: &Program, stmts: &[BStmt], j: usize) -> Option<(ArrayId, Vec<i64>)> {
    let BStmt::Array(sj) = &stmts[j] else {
        return None;
    };
    // A bare shifted read is already the form RCE produces; rewriting it
    // to read another array would gain nothing.
    if matches!(sj.rhs, ArrayExpr::Read(..)) {
        return None;
    }
    let rank = program.region(sj.region).rank();
    for i in 0..j {
        let BStmt::Array(si) = &stmts[i] else {
            continue;
        };
        if si.lhs == sj.lhs {
            continue;
        }
        let mut delta: Option<Vec<i64>> = None;
        let mut has_index = false;
        if !rhs_equal_shifted(&si.rhs, &sj.rhs, &mut delta, &mut has_index) {
            continue;
        }
        let delta = delta.unwrap_or_else(|| vec![0; rank]);
        if delta.len() != rank {
            continue;
        }
        if has_index && delta.iter().any(|&d| d != 0) {
            // `index` evaluates to the iteration point: shifting the read
            // would shift it too, which a plain read cannot express.
            continue;
        }
        // Every element read, `Rj + δ`, must have been written by
        // statement i — i.e. lie inside `Ri` — or the read sees stale
        // halo values.
        if !region_contains_shifted(program, si.region, sj.region, &delta) {
            continue;
        }
        // Nothing the RHS depends on may change between i and j, and the
        // source array must still hold statement i's values. A write to a
        // dependency is harmless when its region is provably disjoint
        // from every element the rewritten statement will touch — e.g. a
        // boundary-row update between two interior-region statements.
        let reads: Vec<(ArrayId, Offset)> = stmts[j].reads();
        let scalar_reads: HashSet<ScalarId> = stmts[j].scalar_reads().into_iter().collect();
        let clobbered = stmts[i + 1..j].iter().any(|st| {
            if let BStmt::Array(w) = st {
                if w.lhs == si.lhs
                    && !regions_disjoint_shifted(program, w.region, sj.region, &delta)
                {
                    return true;
                }
                for (ra, off) in &reads {
                    if *ra == w.lhs
                        && !regions_disjoint_shifted(program, w.region, sj.region, &off.0)
                    {
                        return true;
                    }
                }
            }
            if let Some(sc) = st.lhs_scalar() {
                if scalar_reads.contains(&sc) {
                    return true;
                }
            }
            false
        });
        if clobbered {
            continue;
        }
        return Some((si.lhs, delta));
    }
    None
}

/// Structural equality of two array expressions modulo one uniform offset
/// shift on every `Read`: accumulates the shift into `delta` and flags
/// whether the expressions contain an `index` term.
fn rhs_equal_shifted(
    a: &ArrayExpr,
    b: &ArrayExpr,
    delta: &mut Option<Vec<i64>>,
    has_index: &mut bool,
) -> bool {
    match (a, b) {
        (ArrayExpr::Read(a1, o1), ArrayExpr::Read(a2, o2)) => {
            if a1 != a2 || o1.0.len() != o2.0.len() {
                return false;
            }
            let d: Vec<i64> = o2.0.iter().zip(&o1.0).map(|(x, y)| x - y).collect();
            match delta {
                Some(prev) => *prev == d,
                None => {
                    *delta = Some(d);
                    true
                }
            }
        }
        (ArrayExpr::ScalarRef(s1), ArrayExpr::ScalarRef(s2)) => s1 == s2,
        (ArrayExpr::ConfigRef(c1), ArrayExpr::ConfigRef(c2)) => c1 == c2,
        (ArrayExpr::Const(v1), ArrayExpr::Const(v2)) => v1 == v2,
        (ArrayExpr::Index(d1), ArrayExpr::Index(d2)) => {
            *has_index = true;
            d1 == d2
        }
        (ArrayExpr::Unary(op1, x1), ArrayExpr::Unary(op2, x2)) => {
            op1 == op2 && rhs_equal_shifted(x1, x2, delta, has_index)
        }
        (ArrayExpr::Binary(op1, l1, r1), ArrayExpr::Binary(op2, l2, r2)) => {
            op1 == op2
                && rhs_equal_shifted(l1, l2, delta, has_index)
                && rhs_equal_shifted(r1, r2, delta, has_index)
        }
        (ArrayExpr::Call(i1, args1), ArrayExpr::Call(i2, args2)) => {
            i1 == i2
                && args1.len() == args2.len()
                && args1
                    .iter()
                    .zip(args2)
                    .all(|(x, y)| rhs_equal_shifted(x, y, delta, has_index))
        }
        _ => false,
    }
}

/// `FUSION-FOR-CONTRACTION` over the contraction-candidate definitions
/// (compiler temporaries, plus user arrays at user-fusing levels), in
/// weight order.
struct FuseContractionPass {
    include_user: bool,
}

impl Pass for FuseContractionPass {
    fn id(&self) -> PassId {
        PassId::FuseContraction
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let CompileSession {
            norm,
            binding,
            asdg,
            block_opts,
            compiler_defs,
            user_defs,
            partitions,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        let binding = binding.as_ref().expect("set by normalize");
        let mut changed = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            let mut fuse_set = compiler_defs[bi].clone();
            if self.include_user {
                fuse_set.extend(user_defs[bi].iter().copied());
            }
            let fuse_set = sort_by_weight(&np.program, block, g, fuse_set, binding);
            let part = &mut partitions[bi];
            let before = part.live_clusters().len();
            ctx.fusion_for_contraction(part, &fuse_set);
            changed |= part.live_clusters().len() != before;
        }
        PassResult::changed(changed)
    }
}

/// Fusion for locality: merges every legal pair among all definitions,
/// in weight order.
struct FuseLocalityPass;

impl Pass for FuseLocalityPass {
    fn id(&self) -> PassId {
        PassId::FuseLocality
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let CompileSession {
            norm,
            binding,
            asdg,
            block_opts,
            partitions,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        let binding = binding.as_ref().expect("set by normalize");
        let mut changed = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            let all: Vec<DefId> = (0..g.defs.len() as u32).map(DefId).collect();
            let all = sort_by_weight(&np.program, block, g, all, binding);
            let part = &mut partitions[bi];
            let before = part.live_clusters().len();
            ctx.fusion_for_locality(part, &all);
            changed |= part.live_clusters().len() != before;
        }
        PassResult::changed(changed)
    }
}

/// Greedy legal pairwise fusion (`c2+f4`), optionally bounded by the
/// spatial-locality cap on distinct arrays per cluster.
struct FusePairwisePass {
    cap: Option<usize>,
}

impl Pass for FusePairwisePass {
    fn id(&self) -> PassId {
        PassId::FusePairwise
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let CompileSession {
            norm,
            asdg,
            block_opts,
            partitions,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        let mut changed = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            let part = &mut partitions[bi];
            let before = part.live_clusters().len();
            match self.cap {
                Some(cap) => ctx.pairwise_fusion_bounded(part, cap),
                None => ctx.pairwise_fusion(part),
            }
            changed |= part.live_clusters().len() != before;
        }
        PassResult::changed(changed)
    }
}

/// Contraction decisions: which candidate definitions contract under the
/// final partition (Definition 6), per the level's compiler/user policy.
/// Also runs the cheap legality self-check that arms the `on-failure`
/// verifier mode.
struct ContractPass {
    compiler: bool,
    user: bool,
}

impl Pass for ContractPass {
    fn id(&self) -> PassId {
        PassId::Contract
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let verify_level = s.verify;
        let CompileSession {
            norm,
            asdg,
            block_opts,
            compiler_defs,
            user_defs,
            partitions,
            contract_sets,
            contracted_defs,
            report,
            cheap_check_failed,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        let mut changed = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            let mut contract_set = Vec::new();
            if self.compiler {
                contract_set.extend(compiler_defs[bi].iter().copied());
            }
            if self.user {
                contract_set.extend(user_defs[bi].iter().copied());
            }
            let cd = ctx.contracted_defs(&partitions[bi], &contract_set);
            report.contracted_defs += cd.len();
            if verify_level == VerifyLevel::OnFailure && ctx.validate(&partitions[bi]).is_err() {
                *cheap_check_failed = true;
            }
            changed |= !cd.is_empty();
            contract_sets[bi] = contract_set;
            contracted_defs[bi] = cd;
        }
        PassResult::changed(changed)
    }
}

/// Dimension contraction ([`crate::ext`]): finds partial-fusion groups
/// whose flow-flat arrays collapse to a single slice under a shared outer
/// loop, and records the dimensions to collapse.
struct DimContractPass;

impl Pass for DimContractPass {
    fn id(&self) -> PassId {
        PassId::DimContract
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let CompileSession {
            norm,
            asdg,
            block_opts,
            partitions,
            contract_sets,
            contracted_defs,
            groups,
            collapse_list,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        let mut changed = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            let contracted_def_set: HashSet<DefId> = contracted_defs[bi].iter().copied().collect();
            let found = crate::ext::find_groups(
                &ctx,
                &partitions[bi],
                &contract_sets[bi],
                &contracted_def_set,
            );
            for grp in &found {
                for &a in &grp.collapsed {
                    collapse_list.push((a, grp.dim));
                }
            }
            changed |= !found.is_empty();
            groups[bi] = found;
        }
        PassResult::changed(changed)
    }
}

/// `FIND-LOOP-STRUCTURE`: selects a legal loop structure vector for every
/// cluster that will be lowered as its own nest (Definition 4). Pure
/// analysis — scalarization consumes the recorded structures.
struct FindLoopStructurePass;

impl Pass for FindLoopStructurePass {
    fn id(&self) -> PassId {
        PassId::FindLoopStructure
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        let CompileSession {
            norm,
            asdg,
            block_opts,
            partitions,
            groups,
            structures,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        for (bi, block) in np.blocks.iter().enumerate() {
            let g = asdg[bi].as_ref().expect("fusion setup built it");
            let mut ctx = FusionCtx::new(&np.program, block, g);
            ctx.opts = block_opts[bi].clone();
            structures[bi] = scalarize::cluster_structures(&ctx, &partitions[bi], &groups[bi]);
        }
        PassResult::changed(false)
    }
}

/// Scalarization: lowers every block's clusters to loop nests using the
/// recorded structures, applies dimension collapses, splices the blocks
/// back into the control-flow skeleton, and computes the Figure 7
/// static-array accounting. Moves the per-block records into
/// [`BlockDetail`]s for diagnostics and the verifier.
struct ScalarizePass;

impl Pass for ScalarizePass {
    fn id(&self) -> PassId {
        PassId::Scalarize
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        s.ensure_fusion_setup();
        {
            let CompileSession {
                norm,
                asdg,
                block_opts,
                partitions,
                contracted_defs,
                groups,
                structures,
                block_out,
                ..
            } = s;
            let np = norm.as_ref().expect("normalize must run first");
            for (bi, block) in np.blocks.iter().enumerate() {
                let g = asdg[bi].as_ref().expect("fusion setup built it");
                let mut ctx = FusionCtx::new(&np.program, block, g);
                ctx.opts = block_opts[bi].clone();
                let contracted_set: HashSet<DefId> = contracted_defs[bi].iter().copied().collect();
                block_out.push(scalarize::scalarize_block_with_structures(
                    &ctx,
                    &partitions[bi],
                    &contracted_set,
                    &groups[bi],
                    Some(&structures[bi]),
                ));
            }
        }

        // Apply dimension collapses to the (owned) normalized program
        // before the scalarized code is packaged with it.
        {
            let CompileSession {
                norm,
                collapse_list,
                report,
                ..
            } = s;
            let np = norm.as_mut().expect("normalize must run first");
            for &(a, dim) in collapse_list.iter() {
                let decl = &mut np.program.arrays[a.0 as usize];
                if !decl.collapsed.contains(&dim) {
                    decl.collapsed.push(dim);
                }
            }
            report.dimension_contracted = {
                let mut v: Vec<ArrayId> = collapse_list.iter().map(|&(a, _)| a).collect();
                v.sort();
                v.dedup();
                v.len()
            };
        }

        let np = s.norm.as_ref().expect("normalize must run first");
        let stmts = splice(&np.body, &mut s.block_out.iter().cloned());
        let scalarized = ScalarProgram {
            program: np.program.clone(),
            stmts,
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

        let mut contracted: Vec<ArrayId> = referenced_before
            .iter()
            .copied()
            .filter(|a| !live_after.contains(a))
            .collect();
        contracted.sort();
        s.contracted = contracted;
        s.scalarized = Some(scalarized);

        // Move the per-block records out for diagnostics / verification;
        // the ASDGs transfer ownership (no rebuild, no clone).
        let nblocks = s.asdg.len();
        for bi in 0..nblocks {
            let g = s.asdg[bi]
                .take()
                .expect("fusion setup built every block's graph");
            let partition = std::mem::replace(&mut s.partitions[bi], Partition::trivial(0));
            s.details.push(BlockDetail {
                asdg: g,
                partition,
                contracted: std::mem::take(&mut s.contracted_defs[bi]),
                opts: s.block_opts[bi].clone(),
            });
        }
        PassResult::changed(true)
    }
}

/// One scheduled verifier: re-checks a paper definition against the
/// finished [`BlockDetail`]s and scalarized program, honoring the
/// session's [`VerifyLevel`] gate (`off` skips, `on-failure` runs only
/// when the pipeline's cheap self-check tripped, `always` runs).
struct VerifyPass {
    which: PassId,
}

impl Pass for VerifyPass {
    fn id(&self) -> PassId {
        self.which
    }

    fn run(&self, s: &mut CompileSession<'_>) -> PassResult {
        let enabled = match s.verify {
            VerifyLevel::Off => false,
            VerifyLevel::OnFailure => s.cheap_check_failed,
            VerifyLevel::Always => true,
        };
        if !enabled {
            return PassResult::changed(false);
        }
        s.ensure_candidates();
        let CompileSession {
            norm,
            rce2,
            candidates,
            scalarized,
            details,
            diagnostics,
            ..
        } = s;
        let np = norm.as_ref().expect("normalize must run first");
        match self.which {
            PassId::VerifyNormalForm => diagnostics.extend(verify::check_normal_form(np)),
            PassId::VerifyAsdg => {
                for (bi, d) in details.iter().enumerate() {
                    diagnostics.extend(verify::check_asdg(
                        &np.program,
                        &np.blocks[bi],
                        bi,
                        &d.asdg,
                    ));
                }
            }
            PassId::VerifyPartition => {
                for (bi, d) in details.iter().enumerate() {
                    diagnostics.extend(verify::check_partition(
                        &np.program,
                        &np.blocks[bi],
                        bi,
                        &d.asdg,
                        &d.partition,
                    ));
                }
            }
            PassId::VerifyContraction => {
                let cand = candidates.as_ref().expect("just ensured");
                for (bi, d) in details.iter().enumerate() {
                    diagnostics.extend(verify::check_contraction(
                        &np.program,
                        bi,
                        &d.asdg,
                        &d.partition,
                        &d.contracted,
                        cand,
                    ));
                }
            }
            PassId::VerifyStructure => {
                let sp = scalarized.as_ref().expect("scalarize must run first");
                diagnostics.extend(verify::check_structure(np, sp, details));
            }
            PassId::VerifyRce2 => {
                if let Some(info) = rce2 {
                    diagnostics.extend(verify::check_rce2(np, info));
                }
            }
            other => unreachable!("{other} is not a verification pass"),
        }
        PassResult::changed(false)
    }
}

// ---------------------------------------------------------------------------
// Control-flow splicing (shared with the old pipeline shape)
// ---------------------------------------------------------------------------

/// Splices scalarized blocks back into the control-flow skeleton.
/// Blocks are numbered in discovery order, which is a pre-order walk —
/// this reproduces the same walk.
pub(crate) fn splice(body: &[NStmt], blocks: &mut impl Iterator<Item = Vec<LStmt>>) -> Vec<LStmt> {
    fn walk(body: &[NStmt], blocks: &[Vec<LStmt>], out: &mut Vec<LStmt>) {
        for s in body {
            match s {
                NStmt::Block(i) => out.extend(blocks[*i].iter().cloned()),
                NStmt::For {
                    var,
                    lo,
                    hi,
                    down,
                    body,
                } => {
                    let mut inner = Vec::new();
                    walk(body, blocks, &mut inner);
                    out.push(LStmt::For {
                        var: *var,
                        lo: lo.clone(),
                        hi: hi.clone(),
                        down: *down,
                        body: inner,
                    });
                }
                NStmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let mut t = Vec::new();
                    let mut e = Vec::new();
                    walk(then_body, blocks, &mut t);
                    walk(else_body, blocks, &mut e);
                    out.push(LStmt::If {
                        cond: cond.clone(),
                        then_body: t,
                        else_body: e,
                    });
                }
            }
        }
    }
    let collected: Vec<Vec<LStmt>> = blocks.collect();
    let mut out = Vec::new();
    walk(body, &collected, &mut out);
    out
}

/// All arrays referenced anywhere in the normalized program.
pub(crate) fn referenced_arrays(np: &NormProgram) -> Vec<ArrayId> {
    let mut seen = vec![false; np.program.arrays.len()];
    for block in &np.blocks {
        for s in &block.stmts {
            for (a, _) in s.reads() {
                seen[a.0 as usize] = true;
            }
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

    #[test]
    fn lin_le_requires_identical_terms() {
        use crate::avail::lin_le;
        use zlang::ir::LinExpr;
        let a = LinExpr::constant(3);
        let b = LinExpr::constant(5);
        assert!(lin_le(&a, &b));
        assert!(!lin_le(&b, &a));
    }

    #[test]
    fn rhs_shift_detects_uniform_offsets() {
        use zlang::ast::BinOp;
        let a = ArrayExpr::Binary(
            BinOp::Add,
            Box::new(ArrayExpr::Read(ArrayId(0), Offset(vec![0, 0]))),
            Box::new(ArrayExpr::Read(ArrayId(1), Offset(vec![1, 0]))),
        );
        let b = ArrayExpr::Binary(
            BinOp::Add,
            Box::new(ArrayExpr::Read(ArrayId(0), Offset(vec![0, 1]))),
            Box::new(ArrayExpr::Read(ArrayId(1), Offset(vec![1, 1]))),
        );
        let mut delta = None;
        let mut has_index = false;
        assert!(rhs_equal_shifted(&a, &b, &mut delta, &mut has_index));
        assert_eq!(delta, Some(vec![0, 1]));
        // Mismatched per-read shifts are rejected.
        let c = ArrayExpr::Binary(
            BinOp::Add,
            Box::new(ArrayExpr::Read(ArrayId(0), Offset(vec![0, 1]))),
            Box::new(ArrayExpr::Read(ArrayId(1), Offset(vec![1, 2]))),
        );
        let mut delta = None;
        assert!(!rhs_equal_shifted(&a, &c, &mut delta, &mut has_index));
    }
}
