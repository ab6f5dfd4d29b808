//! Scalarized loop-nest IR.
//!
//! After the array-level optimizer (`fusion-core`) chooses a fusion
//! partition and a loop structure vector for each fusible cluster, the
//! program is *scalarized*: each cluster becomes one [`LoopNest`] and each
//! contracted array becomes a loop-local scalar ([`TempId`]). This crate
//! defines that representation, a pseudo-C pretty printer, and two
//! execution engines behind the [`Executor`] API — a tree-walking
//! interpreter ([`Interp`]) and a bytecode compiler + virtual machine
//! ([`Vm`]) — whose memory accesses stream through an [`Observer`]
//! (implemented by the `machine` crate's cache simulator).
//!
//! The IR corresponds to the Fortran 77 output of the paper's ZPL compiler
//! (Figure 2(c) of the paper).

mod bytecode;
pub mod exec;
pub mod interp;
pub mod ir;
mod par;
pub mod printer;
mod simd;
pub mod verifier;
pub mod vm;

pub use exec::{Deadline, Engine, ExecOpts, Executor, RunOutcome, TileStats};
pub use interp::{
    ErrorKind, ExecError, Interp, NoopObserver, Observer, RunStats, Strip, StripAccess, StripEvent,
};
pub use ir::{EExpr, ElemRef, ElemStmt, LStmt, LoopNest, ScalarProgram, TempId};
pub use verifier::VerifyDiagnostic;
pub use vm::{SharedProgram, Vm};
