//! Section 5.5: the interaction of fusion with communication optimization.
//!
//! Compares two policies at the `c2+f3` level: *favor fusion* (the paper's
//! default — fusion is never blocked by communication concerns) and *favor
//! communication* (fusion is rejected when it would consume a
//! communication's overlap window). The paper reports slowdowns of up to
//! 66% when communication is favored, because the lost contraction is
//! worth more than the preserved overlap.

use crate::perf::{block_size, Compiled};
use crate::table::{pct, Table};
use benchmarks::Benchmark;
use fusion_core::pipeline::{Level, Pipeline};
use loopir::Engine;
use machine::presets::{Machine, MachineKind};
use runtime::comm::favor_comm_pairs;

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

/// Runs the comparison for every benchmark (outer) on each of `machines`
/// (inner) at `procs`. Each benchmark is compiled once per policy — on
/// `engine`; the numbers are the same under every engine — and replayed
/// under every machine model.
pub fn rows(machines: &[Machine], procs: u64, engine: Engine) -> Vec<Vec<TradeoffRow>> {
    benchmarks::all()
        .into_iter()
        .map(|bench| {
            let compile = |p: Pipeline<'_>| Compiled::new(&bench, &p, block_size(&bench), engine);
            let favor_fusion = compile(Pipeline::new(Level::C2F3));
            let favor_comm = compile(Pipeline::new(Level::C2F3).with_forbidden(favor_comm_pairs));
            machines
                .iter()
                .map(|machine| TradeoffRow {
                    bench,
                    favor_fusion_ns: favor_fusion.run(machine, procs).total_ns,
                    favor_comm_ns: favor_comm.run(machine, procs).total_ns,
                    contracted_fusion: favor_fusion.contracted,
                    contracted_comm: favor_comm.contracted,
                })
                .collect()
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
    let machines = MachineKind::all().map(MachineKind::machine);
    for per_machine in rows(&machines, procs, engine) {
        let mut row = vec![per_machine[0].bench.name.to_string()];
        row.extend(per_machine.iter().map(|r| pct(r.slowdown())));
        row.push(per_machine[0].contracted_fusion.to_string());
        row.push(per_machine[0].contracted_comm.to_string());
        t.row(row);
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
        for r in rows(&[t3e()], 16, Engine::default()).into_iter().flatten() {
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
        let rs = rows(&[t3e()], 16, Engine::default());
        let by = |name: &str| rs.iter().flatten().find(|r| r.bench.name == name).unwrap();
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
