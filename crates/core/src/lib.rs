//! The paper's primary contribution: array-level statement fusion and array
//! contraction.
//!
//! This crate implements, faithfully to *Lewis, Lin & Snyder (PLDI 1998)*:
//!
//! * **Normalized array statements** (`[R] f(A1@d1, ..., As@ds)`) and the
//!   normalization pass that inserts compiler temporaries when a statement
//!   reads and writes the same array ([`normal`]).
//! * **Unconstrained distance vectors** (Definition 2) and loop structure
//!   vectors (Definition 4) ([`depvec`]).
//! * The **array statement dependence graph** (Definition 3) with
//!   per-definition live ranges (the paper's footnote 2) ([`asdg`]).
//! * **Reference weights** and the contraction benefit ([`weights`]).
//! * **`FIND-LOOP-STRUCTURE`** (Figure 4) ([`loopstruct`]).
//! * **Fusion partitions** (Definition 5), **contractibility**
//!   (Definition 6), `GROW`, and **`FUSION-FOR-CONTRACTION`** (Figure 3),
//!   plus the fusion-for-locality variant and greedy pairwise fusion
//!   ([`fusion`]).
//! * **Scalarization** of a fusion partition into the `loopir` loop-nest IR
//!   with contracted arrays demoted to loop-local scalars ([`scalarize`]).
//! * The paper's **optimization levels** (`baseline`, `f1`, `c1`, `f2`,
//!   `f3`, `c2`, `c2+f3`, `c2+f4`; Section 5.4) ([`pipeline`]).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fusion_core::pipeline::{Level, Pipeline};
//!
//! // Figure 5, fragment (6): B is a user temporary.
//! let p = zlang::compile(r#"
//!     program frag6;
//!     config n : int = 16;
//!     region R = [1..n, 1..n];
//!     var A, B, C : [R] float;
//!     begin
//!       [R] B := A + A;
//!       [R] C := B;
//!     end
//! "#)?;
//! let out = Pipeline::new(Level::C2).optimize(&p);
//! assert_eq!(out.contracted_names(), vec!["B"]);
//! assert_eq!(out.scalarized.nest_count(), 1); // both statements fused
//! # Ok(())
//! # }
//! ```

pub mod asdg;
pub mod avail;
pub mod cache;
pub mod depvec;
pub mod explain;
pub mod ext;
pub mod fusion;
pub mod hash;
pub mod loopstruct;
pub mod normal;
pub mod pass;
pub mod pipeline;
pub mod rce2;
pub mod request;
pub mod scalarize;
pub mod serve;
pub mod supervisor;
pub mod verify;
pub mod weights;

pub use cache::{CacheKey, CacheStats, CachedProgram, CompileCache, Depth, Parsed};
pub use depvec::Udv;
pub use pass::{PassId, PassTrace};
pub use pipeline::{Level, LevelSpec, Optimized, Pipeline};
pub use request::RunRequest;
pub use serve::{
    serve, serve_with, Disposition, RequestRecord, ServeOptions, ServeReport, ServeRequest,
    ShedCause, ShedPolicy,
};
pub use supervisor::{Budgets, Supervised, Supervisor, SupervisorError, SupervisorReport};
pub use verify::{Diagnostic, VerifyLevel};
