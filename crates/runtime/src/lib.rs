//! Simulated parallel runtime.
//!
//! The paper's evaluation runs ZPL programs on up to 64 processors of
//! three message-passing machines. This crate reproduces that setting with
//! an SPMD-symmetric simulation:
//!
//! * Arrays are block-distributed over a processor [`grid`]; every
//!   dimension is distributed (as the paper assumes in Section 3).
//! * The simulator interprets **one representative interior processor's**
//!   block (the paper scales problem size with the processor count, so per-
//!   processor work is constant and processors are symmetric), measuring
//!   compute time through the `machine` crate's cache simulator.
//! * `@`-offset reads of distributed arrays induce **ghost-region
//!   communication**, accounted per loop nest by the [`comm`] module with
//!   the paper's communication optimizations: message vectorization,
//!   redundancy elimination, message combining, and pipelining (overlap).
//! * Reductions cost a log-tree combine.
//!
//! The [`exec`] module glues these into one observer,
//! [`exec::Simulation`]: a simulated run is an observed run of whatever
//! executor the caller already holds ([`exec::simulate_executor`] — the
//! supervisor's rung, a cached artifact), and [`exec::simulate`] is the
//! convenience that builds one from a scalarized program first.
//! [`comm::favor_comm_pairs`] implements the *favor communication
//! over fusion* policy of Section 5.5 as a fusion filter for
//! `fusion_core::Pipeline::with_forbidden`.

pub mod comm;
pub mod exec;
pub mod grid;

pub use comm::{CommPolicy, CommStats};
pub use exec::{simulate, simulate_executor, simulate_outcome, ExecConfig, SimResult, Simulation};
pub use grid::Grid;
