//! Section 5.5: the interaction of fusion with communication optimization.
//!
//! Compares two policies at the `c2+f3` level: *favor fusion* (the paper's
//! default — fusion is never blocked by communication concerns) and *favor
//! communication* (fusion is rejected when it would consume a
//! communication's overlap window). The paper reports slowdowns of up to
//! 66% when communication is favored, because the lost contraction is
//! worth more than the preserved overlap.

use crate::table::{pct, Table};
use benchmarks::Benchmark;
use fusion_core::pipeline::{Level, Pipeline};
use loopir::Engine;
use machine::presets::{Machine, MachineKind};
use runtime::comm::favor_comm_pairs;
use runtime::{simulate, CommPolicy, ExecConfig};
use zlang::ir::ConfigBinding;

/// One benchmark's comparison on one machine.
#[derive(Debug, Clone)]
pub struct TradeoffRow {
    /// The benchmark.
    pub bench: Benchmark,
    /// Simulated time with fusion favored, nanoseconds.
    pub favor_fusion_ns: f64,
    /// Simulated time with communication favored, nanoseconds.
    pub favor_comm_ns: f64,
    /// Arrays contracted under each policy.
    pub contracted_fusion: usize,
    /// Arrays contracted when communication is favored.
    pub contracted_comm: usize,
}

impl TradeoffRow {
    /// Percent slowdown of favoring communication (positive = slower, the
    /// paper's presentation).
    pub fn slowdown(&self) -> f64 {
        100.0 * (self.favor_comm_ns - self.favor_fusion_ns) / self.favor_fusion_ns
    }
}

/// Runs the comparison for every benchmark on one machine at `procs`,
/// executing on `engine` (the numbers are the same under every engine).
pub fn rows(machine: &Machine, procs: u64, engine: Engine) -> Vec<TradeoffRow> {
    benchmarks::all()
        .into_iter()
        .map(|bench| {
            let block = crate::perf::block_size(&bench);
            let program = bench.program();
            let run = |favor_comm: bool| {
                let pipeline = if favor_comm {
                    Pipeline::new(Level::C2F3).with_forbidden(favor_comm_pairs)
                } else {
                    Pipeline::new(Level::C2F3)
                };
                let opt = pipeline.optimize(&program);
                let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
                binding.set_by_name(&opt.scalarized.program, bench.size_config, block);
                let cfg = ExecConfig {
                    machine: machine.clone(),
                    procs,
                    policy: CommPolicy::default(),
                    engine,
                    threads: 0,
                    limits: loopir::ExecLimits::none(),
                };
                let r = simulate(&opt.scalarized, binding, &cfg)
                    .unwrap_or_else(|e| panic!("{}: {e}", bench.name));
                (r, opt.contracted.len())
            };
            let (ff, contracted_fusion) = run(false);
            let (fc, contracted_comm) = run(true);
            TradeoffRow {
                bench,
                favor_fusion_ns: ff.total_ns,
                favor_comm_ns: fc.total_ns,
                contracted_fusion,
                contracted_comm,
            }
        })
        .collect()
}

/// Renders the Section 5.5 comparison across all three machines.
pub fn report(procs: u64, engine: Engine) -> String {
    let mut out = format!(
        "Section 5.5 — slowdown when favoring communication optimization over fusion\n\
         (c2+f3, p = {procs}; positive = favoring communication is slower)\n\n"
    );
    let mut t = Table::new(&[
        "application",
        "T3E slowdown",
        "SP-2 slowdown",
        "Paragon slowdown",
        "contracted (fusion)",
        "contracted (comm)",
    ]);
    let per_machine: Vec<Vec<TradeoffRow>> = MachineKind::all()
        .iter()
        .map(|k| rows(&k.machine(), procs, engine))
        .collect();
    for (i, bench) in benchmarks::all().iter().enumerate() {
        t.row(vec![
            bench.name.to_string(),
            pct(per_machine[0][i].slowdown()),
            pct(per_machine[1][i].slowdown()),
            pct(per_machine[2][i].slowdown()),
            per_machine[0][i].contracted_fusion.to_string(),
            per_machine[0][i].contracted_comm.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::presets::t3e;

    #[test]
    fn favoring_comm_never_contracts_more() {
        for r in rows(&t3e(), 16, Engine::default()) {
            assert!(
                r.contracted_comm <= r.contracted_fusion,
                "{}: {} > {}",
                r.bench.name,
                r.contracted_comm,
                r.contracted_fusion
            );
        }
    }

    #[test]
    fn stencil_benchmarks_slow_down_when_comm_is_favored() {
        let rs = rows(&t3e(), 16, Engine::default());
        let by = |name: &str| rs.iter().find(|r| r.bench.name == name).unwrap();
        // The codes that lose many contractions slow down clearly.
        for name in ["tomcatv", "sp"] {
            assert!(
                by(name).slowdown() > 5.0,
                "{name}: slowdown {}",
                by(name).slowdown()
            );
        }
        // Simple loses only one contraction on the T3E; like the paper's
        // Fibro, it may even speed up slightly — but never by much.
        assert!(
            by("simple").slowdown() > -5.0,
            "simple: {}",
            by("simple").slowdown()
        );
        // EP has no communication to speak of.
        assert!(
            by("ep").slowdown().abs() < 1.0,
            "ep: {}",
            by("ep").slowdown()
        );
        // Net across the stencil codes, favoring fusion wins (the paper's
        // conclusion: "fusion for contraction should be favored").
        let net: f64 = ["simple", "tomcatv", "sp"]
            .iter()
            .map(|n| by(n).slowdown())
            .sum();
        assert!(net > 0.0, "net {net}");
    }
}
