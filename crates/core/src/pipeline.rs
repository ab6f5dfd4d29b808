//! The paper's optimization levels (Section 5.4) and the optimizer
//! driver: [`Pipeline::optimize`] *is* the schedule, the passes it calls
//! live in [`crate::pass`].
//!
//! | Level       | Fusion                                   | Contraction        |
//! |-------------|------------------------------------------|--------------------|
//! | `Baseline`  | none                                     | none               |
//! | `F1`        | for contraction of compiler arrays      | none               |
//! | `C1`        | for contraction of compiler arrays      | compiler arrays    |
//! | `F2`        | + for contraction of user arrays         | compiler arrays    |
//! | `F3`        | C1 + fusion for locality                 | compiler arrays    |
//! | `C2`        | for contraction of compiler+user arrays | compiler + user    |
//! | `C2F3`      | C2 + fusion for locality                 | compiler + user    |
//! | `C2F4`      | C2F3 + all legal (greedy pairwise)       | compiler + user    |

use crate::asdg::{Asdg, DefId};
use crate::fusion::{FusionOpts, Partition};
use crate::normal::NormProgram;
use crate::pass::{self, CompileSession, PassId, PassTrace};
use crate::verify::{self, Diagnostic, VerifyLevel};
use loopir::ScalarProgram;
use std::fmt;
use std::str::FromStr;
use std::time::Instant;
use zlang::ir::{ArrayId, Program};

/// An optimization level from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Level {
    /// No fusion, no contraction.
    Baseline,
    /// Fusion enabling compiler-array contraction; no contraction.
    F1,
    /// F1 + contraction of compiler arrays.
    C1,
    /// C1 + fusion enabling user-array contraction; user arrays kept.
    F2,
    /// C1 + fusion for locality.
    F3,
    /// C1 + fusion and contraction of user arrays.
    C2,
    /// C2 + fusion for locality.
    C2F3,
    /// C2F3 + all legal fusion (greedy pairwise).
    C2F4,
}

impl Level {
    /// All levels, in the paper's presentation order.
    pub fn all() -> [Level; 8] {
        [
            Level::Baseline,
            Level::F1,
            Level::C1,
            Level::F2,
            Level::F3,
            Level::C2,
            Level::C2F3,
            Level::C2F4,
        ]
    }

    /// The paper's name for the level.
    pub fn name(self) -> &'static str {
        match self {
            Level::Baseline => "baseline",
            Level::F1 => "f1",
            Level::C1 => "c1",
            Level::F2 => "f2",
            Level::F3 => "f3",
            Level::C2 => "c2",
            Level::C2F3 => "c2+f3",
            Level::C2F4 => "c2+f4",
        }
    }

    /// Whether the level fuses for contraction of *user* arrays (in
    /// addition to compiler temporaries).
    pub fn fuses_user(self) -> bool {
        matches!(self, Level::F2 | Level::C2 | Level::C2F3 | Level::C2F4)
    }

    /// Whether the level runs `FUSION-FOR-CONTRACTION` at all (every
    /// level except the baseline).
    pub fn fuses_compiler(self) -> bool {
        self != Level::Baseline
    }

    /// Whether the level additionally fuses for locality (`f3` family).
    pub fn locality_fusion(self) -> bool {
        matches!(self, Level::F3 | Level::C2F3 | Level::C2F4)
    }

    /// Whether the level runs greedy legal pairwise fusion (`c2+f4`).
    pub fn pairwise_fusion(self) -> bool {
        self == Level::C2F4
    }

    /// Whether the level contracts compiler temporaries.
    pub fn contracts_compiler(self) -> bool {
        !matches!(self, Level::Baseline | Level::F1)
    }

    /// Whether the level contracts user arrays too (`c2` family).
    pub fn contracts_user(self) -> bool {
        matches!(self, Level::C2 | Level::C2F3 | Level::C2F4)
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A level plus the two opt-in extensions: everything about *what to
/// optimize* that a request, a pipeline, a cache key and a report have
/// to agree on, as one value. Its `FromStr`/`Display` are the one
/// implementation of the `zlc --level` grammar, `L[+rce2][+dim]`: a paper
/// level name, optionally followed by `+rce2`, then optionally by `+dim`
/// (each at most once, in that order). A bare [`Level`] converts to the
/// spec with both extensions off.
///
/// ```
/// use fusion_core::{Level, LevelSpec};
/// let spec: LevelSpec = "c2+f3+rce2".parse().unwrap();
/// assert_eq!(spec.level, Level::C2F3);
/// assert!(spec.rce2 && !spec.dim);
/// assert_eq!(spec.to_string(), "c2+f3+rce2");
/// let twice = "c2+rce2+rce2".parse::<LevelSpec>().unwrap_err();
/// assert!(twice.contains("`+rce2` is given twice"), "{twice}");
/// let twice = "c2+f3+dim+dim".parse::<LevelSpec>().unwrap_err();
/// assert!(twice.contains("`+dim` is given twice"), "{twice}");
/// assert_eq!(LevelSpec::from(Level::C2).to_string(), "c2");
/// // 8 levels x 2 x 2 specs, each with one spelling.
/// for level in Level::all() {
///     for rce2 in [false, true] {
///         for dim in [false, true] {
///             let spec = LevelSpec { level, rce2, dim };
///             assert_eq!(spec.to_string().parse::<LevelSpec>(), Ok(spec));
///         }
///     }
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LevelSpec {
    /// The paper level.
    pub level: Level,
    /// Stencil-aware redundancy elimination ([`PassId::Rce2`]): an
    /// offset-lattice availability analysis finds subexpressions whose
    /// value is already materialized at a constant shift, rewrites them
    /// into shifted reuses (materializing shared stencil subexpressions
    /// once where profitable), and hoists loop-invariant statements out of
    /// counted time loops. Every rewrite is independently re-checked by
    /// the translation validator ([`PassId::VerifyRce2`]).
    pub rce2: bool,
    /// Dimension contraction ([`PassId::DimContract`], the extension
    /// addressing the paper's Section 5.2 SP deficiency): arrays whose
    /// full contraction fails but whose flow dependences are flat in some
    /// dimension are collapsed to a single slice under a shared outer
    /// loop. See [`crate::ext`].
    pub dim: bool,
}

impl From<Level> for LevelSpec {
    fn from(level: Level) -> Self {
        LevelSpec {
            level,
            rce2: false,
            dim: false,
        }
    }
}

impl FromStr for LevelSpec {
    type Err = String;

    /// # Errors
    ///
    /// A rustc-style message naming the valid levels when the base level
    /// is unknown, or the suffix when it is given twice.
    fn from_str(text: &str) -> Result<Self, String> {
        fn strip<'a>(text: &str, spec: &'a str, suffix: &str) -> Result<(&'a str, bool), String> {
            match spec.strip_suffix(suffix) {
                Some(rest) if rest.ends_with(suffix) => {
                    Err(format!("level `{text}`: `{suffix}` is given twice"))
                }
                Some(rest) => Ok((rest, true)),
                None => Ok((spec, false)),
            }
        }
        let (rest, dim) = strip(text, text, "+dim")?;
        let (base, rce2) = strip(text, rest, "+rce2")?;
        let level = Level::all()
            .into_iter()
            .find(|l| l.name() == base)
            .ok_or_else(|| {
                format!(
                    "unknown level `{text}` (expected one of: {}; append `+rce2` for the \
                     cleanup pass, then `+dim` for dimension contraction)",
                    Level::all().map(|l| l.name()).join(", ")
                )
            })?;
        Ok(LevelSpec { level, rce2, dim })
    }
}

impl fmt::Display for LevelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.level.name())?;
        if self.rce2 {
            f.write_str("+rce2")?;
        }
        if self.dim {
            f.write_str("+dim")?;
        }
        Ok(())
    }
}

/// A callback computing statement pairs that must not fuse in a block
/// (used by the runtime's favor-communication policy, Section 5.5).
///
/// `Send + Sync` so a compile session
/// holding one can be handed to another thread (the parallel engine's
/// thread-safety contract; see `DESIGN.md`). The installed policies are
/// pure functions of their arguments, so this costs them nothing.
pub type ForbidFn<'f> =
    dyn Fn(&NormProgram, usize, &Asdg) -> Vec<(usize, usize)> + Send + Sync + 'f;

/// Static array accounting for the paper's Figure 7.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Report {
    /// Arrays referenced before contraction (compiler temporaries).
    pub compiler_before: usize,
    /// Arrays referenced before contraction (user arrays).
    pub user_before: usize,
    /// Arrays still referenced after contraction (compiler temporaries).
    pub compiler_after: usize,
    /// Arrays still referenced after contraction (user arrays).
    pub user_after: usize,
    /// Loop nests in the scalarized program.
    pub nests: usize,
    /// Contracted definitions (live ranges), across all blocks.
    pub contracted_defs: usize,
    /// Arrays contracted to a lower dimension (the [`crate::ext`]
    /// extension; 0 unless the spec asks for `+dim`).
    pub dimension_contracted: usize,
}

impl Report {
    /// Total arrays before contraction.
    pub fn before(&self) -> usize {
        self.compiler_before + self.user_before
    }

    /// Total arrays after contraction.
    pub fn after(&self) -> usize {
        self.compiler_after + self.user_after
    }

    /// Percent change in static array count (negative = reduction),
    /// the paper's Figure 7 "% change" column.
    pub fn percent_change(&self) -> f64 {
        if self.before() == 0 {
            0.0
        } else {
            100.0 * (self.after() as f64 - self.before() as f64) / self.before() as f64
        }
    }
}

/// Per-block optimization record, retained for diagnostics
/// ([`crate::explain`]).
#[derive(Debug, Clone)]
pub struct BlockDetail {
    /// The block's dependence graph.
    pub asdg: Asdg,
    /// The final fusion partition.
    pub partition: Partition,
    /// Definitions contracted in this block.
    pub contracted: Vec<DefId>,
    /// The fusion options that were in effect.
    pub opts: FusionOpts,
}

/// The result of optimizing a program.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The normalized program (compiler temporaries included).
    pub norm: NormProgram,
    /// The scalarized program, ready to interpret.
    pub scalarized: ScalarProgram,
    /// Arrays fully eliminated by contraction.
    pub contracted: Vec<ArrayId>,
    /// Static array accounting.
    pub report: Report,
    /// The level and extensions that were applied.
    pub spec: LevelSpec,
    /// Per-block records (ASDG, partition, contracted definitions).
    pub details: Vec<BlockDetail>,
    /// Findings of the translation validator ([`crate::verify`]); empty
    /// when verification is off or everything checked out.
    pub diagnostics: Vec<Diagnostic>,
    /// Per-pass instrumentation: wall-clock timing and statement/cluster
    /// counters, one row per pass [`Pipeline::optimize`] ran, in execution
    /// order. When the translation validator ran, its whole wall-clock
    /// follows as one row under its first stage, `verify::normal-form`;
    /// otherwise there is no `verify::*` row.
    pub passes: Vec<PassTrace>,
    /// Per-block ASDG constructions that actually ran — at most one per
    /// block per mutation epoch thanks to the session's analysis cache.
    pub asdg_builds: usize,
    /// IR snapshot captured after the pass requested with
    /// [`Pipeline::with_emit`], if that pass ran.
    pub emitted: Option<String>,
    /// Rewrites, temporaries, and hoists recorded by the `+rce2`
    /// stencil-aware redundancy pass ([`crate::rce2`]); `None` when the
    /// pass did not run.
    pub rce2: Option<crate::rce2::Rce2Info>,
}

impl Optimized {
    /// Names of fully contracted arrays, sorted.
    pub fn contracted_names(&self) -> Vec<String> {
        let mut v: Vec<String> = self
            .contracted
            .iter()
            .map(|&a| self.norm.program.array(a).name.clone())
            .collect();
        v.sort();
        v
    }
}

/// The optimization pipeline: normalization, per-block ASDG construction,
/// fusion, contraction, and scalarization at a chosen [`Level`].
pub struct Pipeline<'f> {
    pub(crate) spec: LevelSpec,
    pub(crate) forbid: Option<Box<ForbidFn<'f>>>,
    pub(crate) base_opts: FusionOpts,
    pub(crate) verify: VerifyLevel,
    pub(crate) emit: Option<PassId>,
}

impl fmt::Debug for Pipeline<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Pipeline")
            .field("spec", &self.spec)
            .field("forbid", &self.forbid.is_some())
            .finish()
    }
}

impl<'f> Pipeline<'f> {
    /// Creates a pipeline at a level, or at a [`LevelSpec`] with its
    /// extensions: the spec alone chooses which passes run.
    pub fn new(spec: impl Into<LevelSpec>) -> Self {
        Pipeline {
            spec: spec.into(),
            forbid: None,
            base_opts: FusionOpts::default(),
            verify: VerifyLevel::default(),
            emit: None,
        }
    }

    /// Captures an IR snapshot after the named pass runs; the text lands
    /// in [`Optimized::emitted`] (it stays `None` if the pass is not part
    /// of this level's sequence). Drives `zlc --emit`.
    pub fn with_emit(mut self, pass: PassId) -> Self {
        self.emit = Some(pass);
        self
    }

    /// Sets when the translation validator ([`crate::verify`]) runs over
    /// the optimization result; findings land in
    /// [`Optimized::diagnostics`].
    pub fn with_verify(mut self, level: VerifyLevel) -> Self {
        self.verify = level;
        self
    }

    /// Sets base fusion options applied to every block (e.g.
    /// [`FusionOpts::forbid_loop_carried_anti`] when modelling commercial
    /// compilers).
    pub fn with_opts(mut self, opts: FusionOpts) -> Self {
        self.base_opts = opts;
        self
    }

    /// Installs a favor-communication filter: per block, statement pairs
    /// that must not share a cluster.
    pub fn with_forbidden(
        mut self,
        f: impl Fn(&NormProgram, usize, &Asdg) -> Vec<(usize, usize)> + Send + Sync + 'f,
    ) -> Self {
        self.forbid = Some(Box::new(f));
        self
    }

    /// Runs the optimizer on a program. This function is the schedule:
    /// the paper's one fixed sequence, each step gated by what the
    /// [`LevelSpec`] (Section 5.4 and the two extensions) asks for.
    /// Afterwards the translation validator runs once over the result
    /// when the [`VerifyLevel`] says so.
    pub fn optimize(&self, program: &Program) -> Optimized {
        let LevelSpec { level, rce2, dim } = self.spec;
        let mut s = CompileSession::new(self, program);
        s.pass(PassId::Normalize, pass::normalize);
        if rce2 {
            s.pass(PassId::Rce2, pass::rce2);
        }
        if level.fuses_compiler() {
            s.pass(PassId::FuseContraction, pass::fuse_contraction);
        }
        if level.locality_fusion() {
            s.pass(PassId::FuseLocality, pass::fuse_locality);
        }
        if level.pairwise_fusion() {
            s.pass(PassId::FusePairwise, pass::fuse_pairwise);
        }
        s.pass(PassId::Contract, pass::contract);
        if dim {
            s.pass(PassId::DimContract, pass::dim_contract);
        }
        s.pass(PassId::FindLoopStructure, pass::find_loop_structure);
        s.pass(PassId::Scalarize, pass::scalarize);

        let mut opt = s.finish();
        if self.verify == VerifyLevel::Always {
            crate::supervisor::enter_stage(PassId::VerifyNormalForm);
            let start = Instant::now();
            opt.diagnostics = verify::validate(&opt);
            let &PassTrace {
                stmts, clusters, ..
            } = opt.passes.last().expect("scalarize ran");
            opt.passes.push(PassTrace {
                id: PassId::VerifyNormalForm,
                duration: start.elapsed(),
                changed: false,
                stmts,
                clusters,
            });
        }
        opt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::{Engine, Executor, NoopObserver};
    use zlang::ir::ConfigBinding;

    const P: &str = "program p; config n : int = 6; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; var A, B, C, D : [R] float; \
                     var s : float; var k : int; ";

    fn opt(src: &str, level: Level) -> Optimized {
        Pipeline::new(level).optimize(&zlang::compile(src).unwrap())
    }

    fn checksum(o: &Optimized) -> f64 {
        let binding = ConfigBinding::defaults(&o.scalarized.program);
        let mut vm = loopir::Vm::new(&o.scalarized, binding).unwrap();
        vm.execute(&mut NoopObserver).unwrap().checksum()
    }

    #[test]
    fn all_levels_agree_semantically() {
        let src = "program p; config n : int = 6; region RH = [0..n, 0..n]; \
             region R = [1..n, 1..n]; direction w = [0, -1]; \
             var A : [RH] float; var B, C : [R] float; var s : float; var k : int; \
             begin \
             [RH] A := index1 * 3.0 + index2; \
             for k := 1 to 3 do \
               [R] B := A@w + 1.0; \
               [R] C := B * B; \
               [R] A := A + C; \
             end; \
             s := +<< [R] A; end"
            .to_string();
        let base = opt(&src, Level::Baseline);
        let expect = checksum(&base);
        assert!(expect != 0.0);
        for level in Level::all() {
            let o = opt(&src, level);
            let got = checksum(&o);
            assert_eq!(got, expect, "level {level} must preserve semantics");
        }
    }

    #[test]
    fn c1_contracts_only_compiler_arrays() {
        // A := A + A (aligned) needs a compiler temp; B is a user temp.
        let src = format!("{P} begin [R] A := A + A; [R] B := A; [R] C := B; s := +<< [R] C; end");
        let c1 = opt(&src, Level::C1);
        assert_eq!(c1.contracted_names(), vec!["_t0"]);
        let c2 = opt(&src, Level::C2);
        assert!(c2.contracted_names().contains(&"B".to_string()));
        assert!(c2.contracted_names().contains(&"_t0".to_string()));
    }

    #[test]
    fn f1_fuses_but_keeps_arrays() {
        let src = format!("{P} begin [R] A := A + A; s := +<< [R] A; end");
        let f1 = opt(&src, Level::F1);
        assert!(f1.contracted.is_empty());
        // Fusion happened: the temp statement and copy share a nest.
        assert!(f1.report.nests < opt(&src, Level::Baseline).report.nests);
    }

    #[test]
    fn report_counts_compiler_and_user_separately() {
        let src = format!("{P} begin [R] A := A + A; [R] B := A; [R] C := B; s := +<< [R] C; end");
        let o = opt(&src, Level::C2);
        assert_eq!(o.report.compiler_before, 1);
        assert_eq!(o.report.user_before, 3); // A, B, C
        assert_eq!(o.report.compiler_after, 0);
        assert!(o.report.percent_change() < 0.0);
    }

    #[test]
    fn baseline_keeps_everything() {
        let src = format!("{P} begin [R] B := A + A; [R] C := B; s := +<< [R] C; end");
        let o = opt(&src, Level::Baseline);
        assert!(o.contracted.is_empty());
        assert_eq!(o.report.before(), o.report.after());
        assert_eq!(o.report.nests, 3);
    }

    #[test]
    fn forbidden_filter_reaches_fusion() {
        let src = format!("{P} begin [R] B := A + A; [R] C := B; s := +<< [R] C; end");
        let o = Pipeline::new(Level::C2)
            .with_forbidden(|_, _, _| vec![(0, 1)])
            .optimize(&zlang::compile(&src).unwrap());
        // B cannot contract because its statements cannot fuse.
        assert!(!o.contracted_names().contains(&"B".to_string()));
    }

    #[test]
    fn levels_are_monotone_in_contraction() {
        let src = format!(
            "{P} begin [R] A := A@w + A@w; [R] B := A; [R] C := B * 2.0; \
             [R] D := C + B; s := +<< [R] D; end"
        );
        let counts: Vec<usize> = [Level::Baseline, Level::F1, Level::C1, Level::C2]
            .iter()
            .map(|&l| opt(&src, l).contracted.len())
            .collect();
        assert!(counts[0] == 0);
        assert!(counts[1] == 0);
        assert!(counts[2] >= 1, "c1 contracts the compiler temp: {counts:?}");
        assert!(counts[3] > counts[2], "c2 adds user arrays: {counts:?}");
    }

    #[test]
    fn contraction_reduces_peak_memory() {
        let src = format!(
            "{P} begin [R] B := A + 1.0; [R] C := B * B; [R] D := C + B; s := +<< [R] D; end"
        );
        let mem = |level| {
            let o = opt(&src, level);
            let binding = ConfigBinding::defaults(&o.scalarized.program);
            let mut exec = Engine::default().executor(&o.scalarized, binding).unwrap();
            exec.execute(&mut NoopObserver).unwrap().stats.peak_bytes
        };
        assert!(mem(Level::C2) < mem(Level::Baseline));
    }
}
