//! NAS SP: a scalar-pentadiagonal CFD solver (scaled down).
//!
//! The structure mirrors NAS SP's phases per time step:
//!
//! 1. **auxiliaries** — pointwise fields (`RHOI`, `US`, `VS`, `WS`, `QS`,
//!    `SQUARE`, `SPEED`, `P`) computed over the halo so the flux stencils
//!    can read them at offsets (they survive contraction, like SP's `us`,
//!    `vs`, `square` arrays);
//! 2. **compute_rhs** — convective flux divergences and second-difference
//!    dissipation per direction and equation (30 temporaries, all
//!    contractible), assembled with the persistent forcing into the five
//!    right-hand sides;
//! 3. **txinvr** — the block-diagonal premultiply, a chain of pointwise
//!    temporaries (contractible);
//! 4. **x/y/z solves** — directional sweeps whose stage arrays are read at
//!    offsets (they survive as full arrays under plain `c2`, and are
//!    exactly the class the dimension-contraction extension collapses);
//! 5. **add** — the state update (five compiler temporaries appear and
//!    contract).
//!
//! SP is the paper's one benchmark where contraction to *scalars* is
//! insufficient (Section 5.2); the `+dim` level suffix (dimension
//! contraction) targets its sweep stages.

use crate::{Benchmark, PaperData};

/// `zlang` source of SP.
pub const SOURCE: &str = r#"
program sp;

config n     : int = 12;     -- interior grid points per dimension
config steps : int = 2;      -- time steps
config dt    : float = 0.004;
config eps   : float = 0.05; -- artificial dissipation
config c1    : float = 1.4;  -- gamma
config c2    : float = 0.4;  -- gamma - 1

region GH = [0..n+1, 0..n+1, 0..n+1];
region G  = [1..n, 1..n, 1..n];

direction xm = [-1, 0, 0];
direction xp = [ 1, 0, 0];
direction ym = [ 0,-1, 0];
direction yp = [ 0, 1, 0];
direction zm = [ 0, 0,-1];
direction zp = [ 0, 0, 1];

-- Conserved state (persistent).
var RHO, UX, UY, UZ, EN : [GH] float;
-- Forcing terms (persistent; computed once like SP's exact_rhs).
var FR1, FR2, FR3, FR4, FR5 : [GH] float;
-- Pointwise auxiliaries (read at offsets by the fluxes: survive).
var RHOI, US, VS, WS, QS, SQUARE, SPEED, P : [GH] float;
-- Convective flux divergences per equation and direction (contract).
var F1X, F1Y, F1Z : [G] float;
var F2X, F2Y, F2Z : [G] float;
var F3X, F3Y, F3Z : [G] float;
var F4X, F4Y, F4Z : [G] float;
var F5X, F5Y, F5Z : [G] float;
-- Second-difference dissipation per equation and direction (contract).
var D1X, D1Y, D1Z : [G] float;
var D2X, D2Y, D2Z : [G] float;
var D3X, D3Y, D3Z : [G] float;
var D4X, D4Y, D4Z : [G] float;
var D5X, D5Y, D5Z : [G] float;
-- Right-hand sides (survive: consumed at offsets by the sweeps).
var R1, R2, R3, R4, R5 : [GH] float;
-- txinvr-style premultiplied rhs (chains of pointwise temps).
var AC2, RUV : [G] float;                  -- contract
var T1, T2, T3, T4, T5 : [GH] float;       -- survive (read at offsets below)
-- Sweep stages standing in for the x/y/z pentadiagonal solves.
var S1, S2, S3, S4, S5      : [GH] float;  -- after x sweep (survive)
var S1b, S2b, S3b, S4b, S5b : [GH] float;  -- after y sweep (survive)
var S1c, S2c, S3c, S4c, S5c : [G]  float;  -- after z sweep (contract)

var mass, energy, momx, momy, momz : float;
var k : int;

begin
  [GH] RHO := 1.0 + 0.02 * sin(index1 * 0.5) * sin(index2 * 0.5) * sin(index3 * 0.5);
  [GH] UX  := 0.05 * sin(index2 * 0.4);
  [GH] UY  := 0.05 * sin(index3 * 0.4);
  [GH] UZ  := 0.05 * sin(index1 * 0.4);
  [GH] EN  := 2.5;

  -- Steady forcing, like SP's exact_rhs (computed once, used every step).
  [GH] FR1 := 0.001 * sin(index1 * 0.3);
  [GH] FR2 := 0.001 * cos(index2 * 0.3);
  [GH] FR3 := 0.001 * sin(index3 * 0.3);
  [GH] FR4 := 0.001 * cos(index1 * 0.3 + index2 * 0.3);
  [GH] FR5 := 0.001 * sin(index2 * 0.3 + index3 * 0.3);

  for k := 1 to steps do
    -- Pointwise auxiliaries over the halo ring (SP's compute_rhs prologue).
    [GH] RHOI   := 1.0 / max(RHO, 1e-6);
    [GH] US     := UX * RHOI * RHO;     -- = UX, kept in SP's style
    [GH] VS     := UY * RHOI * RHO;
    [GH] WS     := UZ * RHOI * RHO;
    [GH] QS     := (US * US + VS * VS + WS * WS) * 0.5;
    [GH] SQUARE := QS * RHO;
    [GH] P      := c2 * (EN - SQUARE);
    [GH] SPEED  := sqrt(c1 * P * RHOI);

    -- Convective fluxes: mass.
    [G] F1X := (RHO@xp * US@xp - RHO@xm * US@xm) * 0.5;
    [G] F1Y := (RHO@yp * VS@yp - RHO@ym * VS@ym) * 0.5;
    [G] F1Z := (RHO@zp * WS@zp - RHO@zm * WS@zm) * 0.5;

    -- Momentum (with pressure on the diagonal direction).
    [G] F2X := (RHO@xp * US@xp * US@xp + P@xp - RHO@xm * US@xm * US@xm - P@xm) * 0.5;
    [G] F2Y := (RHO@yp * US@yp * VS@yp - RHO@ym * US@ym * VS@ym) * 0.5;
    [G] F2Z := (RHO@zp * US@zp * WS@zp - RHO@zm * US@zm * WS@zm) * 0.5;

    [G] F3X := (RHO@xp * VS@xp * US@xp - RHO@xm * VS@xm * US@xm) * 0.5;
    [G] F3Y := (RHO@yp * VS@yp * VS@yp + P@yp - RHO@ym * VS@ym * VS@ym - P@ym) * 0.5;
    [G] F3Z := (RHO@zp * VS@zp * WS@zp - RHO@zm * VS@zm * WS@zm) * 0.5;

    [G] F4X := (RHO@xp * WS@xp * US@xp - RHO@xm * WS@xm * US@xm) * 0.5;
    [G] F4Y := (RHO@yp * WS@yp * VS@yp - RHO@ym * WS@ym * VS@ym) * 0.5;
    [G] F4Z := (RHO@zp * WS@zp * WS@zp + P@zp - RHO@zm * WS@zm * WS@zm - P@zm) * 0.5;

    -- Energy.
    [G] F5X := ((EN@xp + P@xp) * US@xp - (EN@xm + P@xm) * US@xm) * 0.5;
    [G] F5Y := ((EN@yp + P@yp) * VS@yp - (EN@ym + P@ym) * VS@ym) * 0.5;
    [G] F5Z := ((EN@zp + P@zp) * WS@zp - (EN@zm + P@zm) * WS@zm) * 0.5;

    -- Per-direction second-difference dissipation.
    [G] D1X := RHO@xp - 2.0 * RHO + RHO@xm;
    [G] D1Y := RHO@yp - 2.0 * RHO + RHO@ym;
    [G] D1Z := RHO@zp - 2.0 * RHO + RHO@zm;
    [G] D2X := UX@xp - 2.0 * UX + UX@xm;
    [G] D2Y := UX@yp - 2.0 * UX + UX@ym;
    [G] D2Z := UX@zp - 2.0 * UX + UX@zm;
    [G] D3X := UY@xp - 2.0 * UY + UY@xm;
    [G] D3Y := UY@yp - 2.0 * UY + UY@ym;
    [G] D3Z := UY@zp - 2.0 * UY + UY@zm;
    [G] D4X := UZ@xp - 2.0 * UZ + UZ@xm;
    [G] D4Y := UZ@yp - 2.0 * UZ + UZ@ym;
    [G] D4Z := UZ@zp - 2.0 * UZ + UZ@zm;
    [G] D5X := EN@xp - 2.0 * EN + EN@xm;
    [G] D5Y := EN@yp - 2.0 * EN + EN@ym;
    [G] D5Z := EN@zp - 2.0 * EN + EN@zm;

    -- Assemble right-hand sides with forcing.
    [G] R1 := F1X + F1Y + F1Z - eps * (D1X + D1Y + D1Z) - FR1;
    [G] R2 := F2X + F2Y + F2Z - eps * (D2X + D2Y + D2Z) - FR2;
    [G] R3 := F3X + F3Y + F3Z - eps * (D3X + D3Y + D3Z) - FR3;
    [G] R4 := F4X + F4Y + F4Z - eps * (D4X + D4Y + D4Z) - FR4;
    [G] R5 := F5X + F5Y + F5Z - eps * (D5X + D5Y + D5Z) - FR5;

    -- txinvr: block-diagonal premultiply (pointwise chains).
    [G] AC2 := max(SPEED * SPEED, 1e-6);
    [G] RUV := RHOI * (US * R2 + VS * R3 + WS * R4);
    [G] T1 := R1 - (QS * R1 - RUV * RHO + 0.0) * c2 / AC2 * 0.5;
    [G] T2 := RHOI * R2 - US * RHOI * R1;
    [G] T3 := RHOI * R3 - VS * RHOI * R1;
    [G] T4 := RHOI * R4 - WS * RHOI * R1;
    [G] T5 := c2 / AC2 * (QS * R1 - RUV * RHO + R5);

    -- Directional implicit-solve surrogates: x, then y, then z sweeps.
    [G] S1 := (T1@xm + 2.0 * T1 + T1@xp) * 0.25;
    [G] S2 := (T2@xm + 2.0 * T2 + T2@xp) * 0.25;
    [G] S3 := (T3@xm + 2.0 * T3 + T3@xp) * 0.25;
    [G] S4 := (T4@xm + 2.0 * T4 + T4@xp) * 0.25;
    [G] S5 := (T5@xm + 2.0 * T5 + T5@xp) * 0.25;

    [G] S1b := (S1@ym + 2.0 * S1 + S1@yp) * 0.25;
    [G] S2b := (S2@ym + 2.0 * S2 + S2@yp) * 0.25;
    [G] S3b := (S3@ym + 2.0 * S3 + S3@yp) * 0.25;
    [G] S4b := (S4@ym + 2.0 * S4 + S4@yp) * 0.25;
    [G] S5b := (S5@ym + 2.0 * S5 + S5@yp) * 0.25;

    [G] S1c := (S1b@zm + 2.0 * S1b + S1b@zp) * 0.25;
    [G] S2c := (S2b@zm + 2.0 * S2b + S2b@zp) * 0.25;
    [G] S3c := (S3b@zm + 2.0 * S3b + S3b@zp) * 0.25;
    [G] S4c := (S4b@zm + 2.0 * S4b + S4b@zp) * 0.25;
    [G] S5c := (S5b@zm + 2.0 * S5b + S5b@zp) * 0.25;

    -- add: state update (compiler temporaries appear here).
    [G] RHO := max(RHO - dt * S1c, 1e-6);
    [G] UX  := UX - dt * S2c;
    [G] UY  := UY - dt * S3c;
    [G] UZ  := UZ - dt * S4c;
    [G] EN  := max(EN - dt * S5c, 1e-6);
  end;

  mass   := +<< [G] RHO;
  energy := +<< [G] EN;
  momx   := +<< [G] RHO * UX;
  momy   := +<< [G] RHO * UY;
  momz   := +<< [G] RHO * UZ;
end
"#;

/// The SP benchmark descriptor.
pub fn benchmark() -> Benchmark {
    Benchmark {
        name: "sp",
        description: "NAS SP: scalar pentadiagonal CFD solver (scaled down)",
        source: SOURCE,
        size_config: "n",
        iters_config: Some("steps"),
        rank: 3,
        paper: PaperData {
            static_compiler: 18,
            static_user: 163,
            static_after: 56,
            scalar_equivalent: Some(48),
            live_before: 23,
            live_after: 17,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::pipeline::{Level, LevelSpec, Pipeline};
    use loopir::{Engine, NoopObserver};
    use zlang::ir::ConfigBinding;

    fn run_level(level: Level, n: i64) -> (f64, f64, f64, usize) {
        let p = zlang::compile(SOURCE).unwrap();
        let opt = Pipeline::new(level).optimize(&p);
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, "n", n);
        let mut exec = Engine::default()
            .executor(&opt.scalarized, binding)
            .unwrap();
        let out = exec.execute(&mut NoopObserver).unwrap();
        let prog = &opt.scalarized.program;
        (
            out.scalar(prog.scalar_by_name("mass").unwrap()),
            out.scalar(prog.scalar_by_name("energy").unwrap()),
            out.scalar(prog.scalar_by_name("momx").unwrap()),
            opt.scalarized.live_arrays().len(),
        )
    }

    #[test]
    fn all_levels_agree() {
        let expect = run_level(Level::Baseline, 6);
        assert!(expect.0.is_finite() && expect.0 > 0.0);
        for level in Level::all() {
            let got = run_level(level, 6);
            assert_eq!(
                (got.0, got.1, got.2),
                (expect.0, expect.1, expect.2),
                "level {level}"
            );
        }
    }

    #[test]
    fn five_compiler_temps_from_state_updates() {
        let p = zlang::compile(SOURCE).unwrap();
        let base = Pipeline::new(Level::Baseline).optimize(&p);
        assert_eq!(base.report.compiler_before, 5);
        let c1 = Pipeline::new(Level::C1).optimize(&p);
        assert_eq!(c1.report.compiler_after, 0);
    }

    #[test]
    fn fluxes_and_final_sweep_contract_stages_survive() {
        let p = zlang::compile(SOURCE).unwrap();
        let c2 = Pipeline::new(Level::C2).optimize(&p);
        let names = c2.contracted_names();
        // The rhs assembly chains into the pointwise txinvr phase, so the
        // R arrays contract as well — only the offset-read arrays survive.
        for expect in [
            "F1X", "F3Y", "F5Z", "D1X", "D5Z", "S1c", "S5c", "AC2", "RUV", "R1", "R5", "SQUARE",
        ] {
            assert!(
                names.iter().any(|n| n == expect),
                "{expect} should contract: {names:?}"
            );
        }
        let live: Vec<String> = c2
            .scalarized
            .live_arrays()
            .iter()
            .map(|&a| c2.norm.program.array(a).name.clone())
            .collect();
        for expect in ["RHO", "EN", "P", "US", "QS", "T1", "S1", "S1b", "FR1"] {
            assert!(
                live.iter().any(|n| n == expect),
                "{expect} must survive: {live:?}"
            );
        }
    }

    #[test]
    fn contraction_ratio_matches_paper_shape() {
        // The paper: 181 -> 56 static arrays (-69%). We are smaller but the
        // reduction should be of the same order (half or more).
        let (_, _, _, base) = run_level(Level::Baseline, 6);
        let (_, _, _, c2) = run_level(Level::C2, 6);
        let drop = 100.0 * (base - c2) as f64 / base as f64;
        assert!(drop >= 45.0, "drop {drop}% ({base} -> {c2})");
    }

    #[test]
    fn dimension_contraction_collapses_sweep_stages() {
        let p = zlang::compile(SOURCE).unwrap();
        let dimc = Pipeline::new(LevelSpec {
            dim: true,
            ..Level::C2.into()
        })
        .optimize(&p);
        assert!(dimc.report.dimension_contracted >= 5, "{:?}", dimc.report);
        // Semantics unchanged.
        let plain = Pipeline::new(Level::C2).optimize(&p);
        let run = |opt: &fusion_core::pipeline::Optimized| {
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, "n", 6);
            let mut exec = Engine::default()
                .executor(&opt.scalarized, binding)
                .unwrap();
            let out = exec.execute(&mut NoopObserver).unwrap();
            (
                out.scalar(opt.scalarized.program.scalar_by_name("mass").unwrap()),
                out.stats.peak_bytes,
            )
        };
        let (m1, b1) = run(&plain);
        let (m2, b2) = run(&dimc);
        assert_eq!(m1, m2);
        assert!(b2 < b1, "{b2} vs {b1}");
    }
}
