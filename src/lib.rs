//! # zpl-fusion
//!
//! A reproduction of *"The Implementation and Evaluation of Fusion and
//! Contraction in Array Languages"* (E. C. Lewis, C. Lin, L. Snyder;
//! PLDI 1998) as a Rust workspace.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`lang`] — the ZPL-like array language frontend (`zlang`).
//! * [`fusion`] — the paper's contribution: array-statement normalization,
//!   unconstrained distance vectors, the array statement dependence graph,
//!   statement fusion, array contraction, loop-structure search, and
//!   scalarization (`fusion-core`).
//! * [`loops`] — the scalarized loop-nest IR, printer, and the execution
//!   engines behind the [`Executor`](prelude::Executor) API: the
//!   tree-walking interpreter, the bytecode VM (scalar, lane-vectorized,
//!   and parallel tiled) (`loopir`).
//! * [`sim`] — the simulated machine: cache simulator and machine cost
//!   models (`machine`).
//! * [`par`] — the simulated parallel runtime: block distribution, ghost
//!   communication, communication optimizations (`runtime`).
//! * [`models`] — commercial-compiler behavior models and the paper's
//!   Figure 5 fragments (`compilers`).
//! * [`workloads`] — the paper's six benchmarks in `zlang` (`benchmarks`).
//!
//! # Quick start
//!
//! Compile a program, optimize it at the `C2` level (fuse + contract
//! compiler *and* user arrays — the paper's headline configuration), and
//! run it. Execution goes through an [`Engine`](prelude::Engine): the
//! default bytecode [`Vm`](loops::Vm), its verified lane (`vm-simd`) and
//! parallel tiled (`vm-par`) variants, or the reference tree-walking
//! [`Interp`](loops::Interp) — all produce bit-identical results (at any
//! thread count and lane width) and hand an observer, the cache simulator
//! included, identical memory-access streams.
//!
//! ```
//! # fn main() -> Result<(), zpl_fusion::Error> {
//! use zpl_fusion::prelude::*;
//!
//! let src = r#"
//!     program demo;
//!     config n : int = 32;
//!     region R = [1..n, 1..n];
//!     var A, B, C : [R] float;
//!     begin
//!       [R] B := A + A;     -- B is a user temporary...
//!       [R] C := B * B;     -- ...consumed only here
//!     end
//! "#;
//! let program = zpl_fusion::lang::compile(src)?;
//! let opt = Pipeline::new(Level::C2).optimize(&program);
//! // B was contracted: the scalarized code allocates fewer arrays.
//! assert!(opt.contracted.len() == 1);
//! let binding = ConfigBinding::defaults(&opt.scalarized.program);
//! let mut exec = Engine::default().executor(&opt.scalarized, binding)?;
//! let outcome = exec.execute(&mut NoopObserver)?;
//! assert_eq!(outcome.stats.arrays_allocated, 2); // A and C only
//! println!("checksum = {}", outcome.checksum());
//! # Ok(())
//! # }
//! ```

pub use benchmarks as workloads;
pub use compilers as models;
pub use fusion_core as fusion;
pub use loopir as loops;
pub use machine as sim;
pub use runtime as par;
pub use zlang as lang;

mod error;
pub use error::Error;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::Error;
    pub use fusion_core::pipeline::{Level, LevelSpec, Pipeline};
    pub use fusion_core::{Diagnostic, VerifyLevel};
    pub use loopir::{
        Engine, ExecOpts, Executor, Interp, NoopObserver, RunOutcome, SharedProgram, TileStats,
        VerifyDiagnostic, Vm,
    };
    pub use zlang::ir::ConfigBinding;
}
