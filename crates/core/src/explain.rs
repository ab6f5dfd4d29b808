//! Contraction diagnostics: *why* each array did or did not contract.
//!
//! A production optimizer needs to tell its user which temporaries it could
//! not remove and what in the program blocked them — especially for the
//! paper's algorithm, where a heavier candidate's fusion can legitimately
//! sacrifice a lighter one ("a more favorable contraction is performed that
//! prevents it", Section 5.1).

use crate::asdg::DefId;
use crate::depvec::{DepKind, Udv};
use crate::fusion::FusionCtx;
use crate::normal::contraction_candidates;
use crate::pipeline::Optimized;
use std::collections::BTreeSet;
use std::fmt;
use zlang::ir::ArrayId;

/// Why an array (or one of its definitions) was not contracted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Blocker {
    /// References span more than one basic block, or the array's first
    /// reference in its block is a read (a live-in value), so it is not a
    /// candidate at all.
    NotBlockLocal,
    /// The array is written but never read: treated as a program output.
    NeverRead,
    /// The level in effect does not contract this class of array (e.g.
    /// user arrays at `c1`).
    LevelExcludes,
    /// A flow dependence due to the definition has a non-null
    /// unconstrained distance vector: consumers need neighboring elements,
    /// which a scalar cannot provide.
    CarriedFlow(Udv),
    /// The definition's references sit under different regions, so its
    /// statements can never share a loop nest.
    CrossRegion,
    /// Fusing the referencing statements is illegal (no legal loop
    /// structure, an unfusable statement in the way, or a forbidden pair
    /// from the favor-communication policy).
    FusionIllegal,
    /// Fusion of the references would have been legal, but the weighted
    /// greedy committed the statements to other clusters first — the
    /// paper's "more favorable contraction" case.
    SacrificedByWeight,
}

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Blocker::NotBlockLocal => write!(f, "live across basic blocks"),
            Blocker::NeverRead => write!(f, "written but never read (program output)"),
            Blocker::LevelExcludes => write!(f, "array class not contracted at this level"),
            Blocker::CarriedFlow(u) => write!(f, "flow dependence carried at distance {u}"),
            Blocker::CrossRegion => write!(f, "references span different regions"),
            Blocker::FusionIllegal => write!(f, "references cannot legally share a loop nest"),
            Blocker::SacrificedByWeight => {
                write!(
                    f,
                    "a heavier candidate's fusion claimed these statements first"
                )
            }
        }
    }
}

/// The outcome for one array.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// Every definition contracted; the array is gone.
    Contracted,
    /// The array was contracted to a lower dimension (extent 1 in the
    /// listed dimensions) by the [`crate::ext`] extension.
    DimensionContracted(Vec<u8>),
    /// Some definitions contracted, some did not.
    Partial(Vec<Blocker>),
    /// Nothing contracted.
    Kept(Vec<Blocker>),
    /// The array is never referenced.
    Unreferenced,
}

/// Diagnosis for one array.
#[derive(Debug, Clone)]
pub struct ArrayDiagnosis {
    /// The array.
    pub array: ArrayId,
    /// Its source name.
    pub name: String,
    /// Whether it is a compiler temporary.
    pub compiler_temp: bool,
    /// What happened and why.
    pub outcome: Outcome,
}

fn diagnose_def(ctx: &FusionCtx<'_>, detail: &crate::pipeline::BlockDetail, def: DefId) -> Blocker {
    // Examine the definition's flow labels first: they are hard blockers.
    for (_, _, l) in detail.asdg.labels_of_def(def) {
        if l.kind != DepKind::Flow {
            continue;
        }
        match &l.udv {
            None => return Blocker::CrossRegion,
            Some(u) if !u.is_null() => return Blocker::CarriedFlow(u.clone()),
            _ => {}
        }
    }
    // Null flow deps everywhere: fusion is what failed. Would it have been
    // legal in isolation?
    let part = &detail.partition;
    let mut c: BTreeSet<usize> = detail
        .asdg
        .stmts_of_def(def)
        .iter()
        .map(|&s| part.cluster_of(s))
        .collect();
    c.extend(ctx.grow(part, &c));
    if ctx.merged_ok(part, &c).is_some() {
        Blocker::SacrificedByWeight
    } else {
        Blocker::FusionIllegal
    }
}

/// Diagnoses every user and compiler array of an optimized program.
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use fusion_core::explain::{diagnose, Outcome};
/// use fusion_core::pipeline::{Level, Pipeline};
/// let p = zlang::compile(
///     "program p; config n : int = 8; region R = [1..n]; \
///      var A, B, C : [R] float; var s : float; begin \
///      [R] B := A; [R] C := B@[1]; s := +<< [R] C; end")?;
/// let opt = Pipeline::new(Level::C2).optimize(&p);
/// let d = diagnose(&opt);
/// let b = d.iter().find(|d| d.name == "B").unwrap();
/// // B is read at an offset: a scalar cannot hold a neighbor's value.
/// assert!(matches!(
///     &b.outcome,
///     Outcome::Kept(blockers)
///         if matches!(blockers[0], fusion_core::explain::Blocker::CarriedFlow(_))
/// ));
/// # Ok(())
/// # }
/// ```
pub fn diagnose(opt: &Optimized) -> Vec<ArrayDiagnosis> {
    let np = &opt.norm;
    let candidates = contraction_candidates(np);
    let contracted: BTreeSet<ArrayId> = opt.contracted.iter().copied().collect();
    let mut out = Vec::new();

    for (ai, decl) in np.program.arrays.iter().enumerate() {
        let array = ArrayId(ai as u32);
        // Gather reference info across blocks.
        let mut ref_blocks = BTreeSet::new();
        let mut read_anywhere = false;
        for (bi, block) in np.blocks.iter().enumerate() {
            for s in &block.stmts {
                if s.reads().iter().any(|(a, _)| *a == array) {
                    ref_blocks.insert(bi);
                    read_anywhere = true;
                }
                if s.lhs_array() == Some(array) {
                    ref_blocks.insert(bi);
                }
            }
        }
        let outcome = if ref_blocks.is_empty() {
            Outcome::Unreferenced
        } else if contracted.contains(&array) {
            Outcome::Contracted
        } else if !decl.collapsed.is_empty() {
            Outcome::DimensionContracted(decl.collapsed.clone())
        } else {
            match candidates[ai] {
                None => {
                    let blocker = if !read_anywhere {
                        Blocker::NeverRead
                    } else {
                        Blocker::NotBlockLocal
                    };
                    Outcome::Kept(vec![blocker])
                }
                Some(bi) => {
                    let detail = &opt.details[bi];
                    let block = &np.blocks[bi];
                    let ctx = FusionCtx::with_opts(&np.program, block, &detail.asdg, &detail.opts);
                    let class_contracted = if decl.compiler_temp {
                        opt.spec.level.contracts_compiler()
                    } else {
                        opt.spec.level.contracts_user()
                    };
                    if !class_contracted {
                        Outcome::Kept(vec![Blocker::LevelExcludes])
                    } else {
                        let contracted_defs: BTreeSet<DefId> =
                            detail.contracted.iter().copied().collect();
                        let mut blockers = Vec::new();
                        let mut any_contracted = false;
                        for def in detail.asdg.defs_of(array) {
                            if contracted_defs.contains(&def) {
                                any_contracted = true;
                            } else {
                                blockers.push(diagnose_def(&ctx, detail, def));
                            }
                        }
                        if blockers.is_empty() {
                            Outcome::Contracted
                        } else if any_contracted {
                            Outcome::Partial(blockers)
                        } else {
                            Outcome::Kept(blockers)
                        }
                    }
                }
            }
        };
        out.push(ArrayDiagnosis {
            array,
            name: decl.name.clone(),
            compiler_temp: decl.compiler_temp,
            outcome,
        });
    }
    out
}

/// Renders diagnoses as a human-readable report.
pub fn report(opt: &Optimized) -> String {
    let mut out = format!("contraction report at {}:\n", opt.spec);
    for d in diagnose(opt) {
        let class = if d.compiler_temp {
            "compiler temp"
        } else {
            "user array"
        };
        match &d.outcome {
            Outcome::Unreferenced => {}
            Outcome::Contracted => {
                out.push_str(&format!("  {:<12} {class:<14} contracted\n", d.name));
            }
            Outcome::DimensionContracted(dims) => {
                let dims: Vec<String> = dims.iter().map(|d| (d + 1).to_string()).collect();
                out.push_str(&format!(
                    "  {:<12} {class:<14} contracted to a slice (dimension {})\n",
                    d.name,
                    dims.join(", ")
                ));
            }
            Outcome::Partial(blockers) => {
                out.push_str(&format!(
                    "  {:<12} {class:<14} partially contracted; kept ranges: {}\n",
                    d.name,
                    blockers
                        .iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ));
            }
            Outcome::Kept(blockers) => {
                out.push_str(&format!(
                    "  {:<12} {class:<14} kept: {}\n",
                    d.name,
                    blockers
                        .iter()
                        .map(|b| b.to_string())
                        .collect::<Vec<_>>()
                        .join("; ")
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Level, LevelSpec, Pipeline};

    const P: &str = "program p; config n : int = 8; region R = [1..n, 1..n]; \
                     direction w = [0, -1]; var A, B, C, D : [R] float; var s : float; ";

    fn diag(src: &str, level: Level) -> Vec<ArrayDiagnosis> {
        diagnose(&Pipeline::new(level).optimize(&zlang::compile(src).unwrap()))
    }

    fn outcome_of<'a>(d: &'a [ArrayDiagnosis], name: &str) -> &'a Outcome {
        &d.iter().find(|x| x.name == name).unwrap().outcome
    }

    #[test]
    fn contracted_and_live_in_and_output() {
        let d = diag(
            &format!("{P} begin [R] B := A; [R] C := B; s := +<< [R] C; end"),
            Level::C2,
        );
        assert_eq!(outcome_of(&d, "B"), &Outcome::Contracted);
        assert_eq!(outcome_of(&d, "C"), &Outcome::Contracted);
        assert!(matches!(outcome_of(&d, "A"), Outcome::Kept(b) if b == &[Blocker::NotBlockLocal]));
        assert_eq!(outcome_of(&d, "D"), &Outcome::Unreferenced);
    }

    #[test]
    fn never_read_is_an_output() {
        let d = diag(&format!("{P} begin [R] B := A; end"), Level::C2);
        assert!(matches!(outcome_of(&d, "B"), Outcome::Kept(b) if b == &[Blocker::NeverRead]));
    }

    #[test]
    fn carried_flow_blocks_with_distance() {
        let d = diag(
            &format!("{P} begin [R] B := A; [R] C := B@w; s := +<< [R] C; end"),
            Level::C2,
        );
        let Outcome::Kept(blockers) = outcome_of(&d, "B") else {
            panic!()
        };
        assert_eq!(blockers, &[Blocker::CarriedFlow(Udv(vec![0, 1]))]);
    }

    #[test]
    fn level_exclusion_reported_for_user_arrays_at_c1() {
        let d = diag(
            &format!("{P} begin [R] B := A; [R] C := B; s := +<< [R] C; end"),
            Level::C1,
        );
        assert!(matches!(outcome_of(&d, "B"), Outcome::Kept(b) if b == &[Blocker::LevelExcludes]));
    }

    #[test]
    fn cross_region_blocks() {
        let d = diag(
            "program p; config n : int = 8; region R = [1..n]; region RI = [2..n]; \
             var A, B, C : [R] float; var s : float; begin \
             [R] B := A; [RI] C := B; s := +<< [RI] C; end",
            Level::C2,
        );
        assert!(matches!(outcome_of(&d, "B"), Outcome::Kept(b) if b == &[Blocker::CrossRegion]));
    }

    #[test]
    fn weight_sacrifice_reported_on_tomcatv_update_temps() {
        // The known case from the tomcatv benchmark shape: the update temp
        // loses its statements to a heavier cluster.
        let src = "program p; config n : int = 8; region RH = [0..n+1, 0..n+1]; \
             region R = [1..n, 1..n]; var X : [RH] float; var PXX, RX : [R] float; \
             var s : float; begin \
             [RH] X := 1.0; \
             [R] PXX := X@[0,1] - 2.0 * X + X@[0,-1]; \
             [R] RX := PXX * 2.0; \
             s := max<< [R] abs(RX); \
             [R] X := X + RX; \
             end";
        let d = diag(src, Level::C2);
        let t = d
            .iter()
            .find(|x| x.compiler_temp)
            .expect("X's self-update temp");
        match &t.outcome {
            Outcome::Contracted => {} // acceptable: greedy found it first
            Outcome::Kept(b) | Outcome::Partial(b) => {
                assert!(
                    b.iter()
                        .all(|x| matches!(x, Blocker::SacrificedByWeight | Blocker::FusionIllegal)),
                    "{b:?}"
                );
            }
            o => panic!("{o:?}"),
        }
    }

    #[test]
    fn dimension_contracted_arrays_reported_as_slices() {
        let src = "program p; config n : int = 8; \
             region GH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
             var A, T : [GH] float; var OUT : [R] float; var s : float; \
             begin [R] T := A@[0,-1] + A@[0,1]; \
             [R] OUT := T@[0,-1] + T@[0,1]; s := +<< [R] OUT; end";
        let spec = LevelSpec {
            dim: true,
            ..Level::C2.into()
        };
        let opt = Pipeline::new(spec).optimize(&zlang::compile(src).unwrap());
        let d = diagnose(&opt);
        let t = &d.iter().find(|x| x.name == "T").unwrap().outcome;
        assert_eq!(t, &Outcome::DimensionContracted(vec![0]));
        let r = report(&opt);
        assert!(r.contains("slice (dimension 1)"), "{r}");
    }

    #[test]
    fn report_renders_names_and_reasons() {
        let opt = Pipeline::new(Level::C2).optimize(
            &zlang::compile(&format!(
                "{P} begin [R] B := A; [R] C := B@w; s := +<< [R] C; end"
            ))
            .unwrap(),
        );
        let r = report(&opt);
        assert!(r.contains("B"), "{r}");
        assert!(r.contains("carried at distance"), "{r}");
    }
}
