//! Translation validation for the optimization pipeline.
//!
//! Every pass in [`crate::pipeline`] *relies* on the paper's legality
//! conditions but, before this module existed, nothing *re-checked* them:
//! a bug in [`crate::fusion`] or [`crate::loopstruct`] would silently
//! produce wrong answers. In the translation-validation tradition, this
//! module re-derives each stage's claim from scratch with an independent
//! (and deliberately simpler, brute-force where possible) algorithm and
//! diffs the result against what the pipeline produced:
//!
//! * `normal_form` — the normalized program is well formed (no statement
//!   reads and writes the same array; offset ranks match region ranks),
//!   per Section 2.1 of the paper.
//! * `asdg_check` — the array statement dependence graph is sound and
//!   complete: dependences are recomputed with a naive quadratic
//!   pair-scan (Definitions 2–3) and the edge sets diffed.
//! * `partition` — the fusion partition is legal per Definition 5:
//!   clusters are fusable, share one region, contain no fusion-preventing
//!   edges, admit *some* legal loop structure (found by exhaustive search
//!   over signed permutations, independent of the greedy search the
//!   pipeline uses), and the cluster graph is acyclic.
//! * `structure` — the loop structure chosen for every emitted nest
//!   makes each intra-cluster UDV lexicographically non-negative, per
//!   Definition 4.
//! * `contraction` — every contracted array satisfies Definition 6
//!   against the *final* partition.
//! * `rce2` — every rewrite recorded by the `+rce2` redundancy pass is
//!   value-preserving: offset algebra, region containment, and
//!   intervening-write freedom are re-derived from the final program.
//!
//! Checkers return structured [`Diagnostic`]s instead of panicking, so a
//! driver can render all of them (`zlc --verify`) and an embedder can
//! decide what to do with warnings. [`validate`] is the one entry point
//! and [`crate::pipeline::Pipeline::optimize`] its one caller in this
//! crate: once, over the finished result, when the [`VerifyLevel`] says
//! so.
#![deny(missing_docs)]

use crate::normal::NormProgram;
use crate::pipeline::Optimized;
use std::fmt;

mod asdg_check;
mod contraction;
mod normal_form;
mod partition;
mod rce2;
mod structure;

/// Which pipeline stage a diagnostic is about — the shared pass identity
/// from [`crate::pass::PassId`]. The verification stages
/// (`PassId::Verify*`) carry the paper definition they re-check via
/// [`crate::pass::PassId::definition`].
pub use crate::pass::PassId as Stage;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not known-unsound (e.g. a conservative extra edge).
    Warning,
    /// The checked property is violated; the output cannot be trusted.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => f.write_str("warning"),
            Severity::Error => f.write_str("error"),
        }
    }
}

/// A structured finding from one of the checkers.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Which checker produced this.
    pub stage: Stage,
    /// Error or warning.
    pub severity: Severity,
    /// The normalized-program block the finding is in, if block-local.
    pub block: Option<usize>,
    /// A free-form location inside the block (statement, edge, cluster…).
    pub location: Option<String>,
    /// What is wrong, in one sentence.
    pub message: String,
    /// Extra context lines (the violated definition is always appended
    /// when rendering).
    pub notes: Vec<String>,
}

impl Diagnostic {
    /// Creates an error-severity diagnostic.
    pub fn error(stage: Stage, message: impl Into<String>) -> Self {
        Diagnostic {
            stage,
            severity: Severity::Error,
            block: None,
            location: None,
            message: message.into(),
            notes: Vec::new(),
        }
    }

    /// Creates a warning-severity diagnostic.
    pub fn warning(stage: Stage, message: impl Into<String>) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(stage, message)
        }
    }

    /// Tags the diagnostic with the block it is about.
    pub fn in_block(mut self, block: usize) -> Self {
        self.block = Some(block);
        self
    }

    /// Tags the diagnostic with a location inside the block.
    pub fn at(mut self, location: impl Into<String>) -> Self {
        self.location = Some(location.into());
        self
    }

    /// Appends a note line.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the diagnostic rustc-style (multi-line, trailing newline),
    /// in the same format the `zlang` frontend uses for its errors.
    pub fn render(&self) -> String {
        let loc = match (self.block, &self.location) {
            (Some(b), Some(l)) => Some(format!("block {b}, {l}")),
            (Some(b), None) => Some(format!("block {b}")),
            (None, Some(l)) => Some(l.clone()),
            (None, None) => None,
        };
        let mut notes = self.notes.clone();
        if let Some(definition) = self.stage.definition() {
            notes.push(definition.to_string());
        }
        zlang::error::render_diagnostic(
            &self.severity.to_string(),
            self.stage.code(),
            &self.message,
            loc.as_deref(),
            &notes,
        )
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.stage, self.message)?;
        match (self.block, &self.location) {
            (Some(b), Some(l)) => write!(f, " (block {b}, {l})"),
            (Some(b), None) => write!(f, " (block {b})"),
            (None, Some(l)) => write!(f, " ({l})"),
            (None, None) => Ok(()),
        }
    }
}

/// When the pipeline runs the translation validator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum VerifyLevel {
    /// Never (the default; zero overhead).
    #[default]
    Off,
    /// After every optimization run.
    Always,
}

/// Runs every checker over an optimization result and returns all findings.
///
/// An empty vector means the pipeline's output passed translation
/// validation: the normal form is well formed, the recorded ASDGs match an
/// independent recomputation, the partitions and emitted loop structures
/// are legal, and every contraction is safe.
pub fn validate(opt: &Optimized) -> Vec<Diagnostic> {
    let mut diags = normal_form::check(&opt.norm);
    let candidates = crate::normal::contraction_candidates(&opt.norm);
    for (bi, (block, detail)) in opt.norm.blocks.iter().zip(&opt.details).enumerate() {
        let program = &opt.norm.program;
        diags.extend(asdg_check::check(program, block, bi, &detail.asdg));
        diags.extend(partition::check(
            program,
            block,
            bi,
            &detail.asdg,
            &detail.partition,
        ));
        diags.extend(contraction::check(
            program,
            bi,
            &detail.asdg,
            &detail.partition,
            &detail.contracted,
            &candidates,
        ));
    }
    diags.extend(structure::check(opt));
    if let Some(info) = &opt.rce2 {
        diags.extend(rce2::check(&opt.norm, info));
    }
    diags
}

/// Re-checks every `+rce2` rewrite, temporary, and hoist against the
/// final normalized program: the shifted read at each recorded site must
/// provably compute the expression it replaced (offset algebra + region
/// containment + no intervening writes). Public so harnesses can feed it
/// tampered records and prove the checker rejects them.
pub fn check_rce2(np: &NormProgram, info: &crate::rce2::Rce2Info) -> Vec<Diagnostic> {
    rce2::check(np, info)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_renders_rustc_style() {
        let d = Diagnostic::error(Stage::VerifyPartition, "cluster 1 spans two regions")
            .in_block(0)
            .at("cluster 1 (statements 0, 2)")
            .note("regions `R` and `S` have different shapes");
        let r = d.render();
        assert!(r.starts_with("error[verify::partition]: cluster 1 spans two regions\n"));
        assert!(r.contains("  --> block 0, cluster 1 (statements 0, 2)\n"));
        assert!(r.contains("  = note: regions `R` and `S` have different shapes\n"));
        assert!(r.contains("Definition 5"));
        assert!(d.to_string().contains("(block 0, cluster 1"));
    }
}
