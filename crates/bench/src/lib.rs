//! Reproduction harness: drivers that regenerate every table and figure of
//! the paper's evaluation (Section 5).
//!
//! | Module   | Regenerates |
//! |----------|-------------|
//! | [`fig6`] | Figure 6 — commercial compiler behavior matrix |
//! | [`fig7`] | Figure 7 — static arrays contracted per benchmark |
//! | [`fig8`] | Figure 8 — memory usage and maximum problem size |
//! | [`perf`] | Figures 9/10/11 — runtime improvement per level, machine, and processor count |
//! | [`sec55`]| Section 5.5 — fusion vs. communication-optimization tradeoff |
//!
//! The `reproduce` binary prints any or all of these as text tables:
//!
//! ```text
//! reproduce fig6|fig7|fig8|fig9|fig10|fig11|sec55|ablation|all [--quick]
//!           [--engine interp|vm|vm-simd|vm-par]
//! ```
//!
//! Every number above is simulated and repeatable, and `reproduce` is the
//! only binary this crate builds. Wall-clock measurement lives in the
//! layered harness under `benchmark/` and nowhere else.

pub mod ablation;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod perf;
pub mod sec55;
pub mod table;
