//! Figure 8: effect of contraction on memory usage and the maximum problem
//! size that fits one node's memory.
//!
//! The paper's methodology: count simultaneously-live arrays before (`l_b`)
//! and after (`l_a`) contraction; predict the problem-size change
//! `C(l_b, l_a) = 100 (l_b - l_a) / l_a`; then *measure* the largest
//! problem that allocates successfully under the node's memory limit. We
//! measure through the optimizer's allocation footprint (exactly what the
//! interpreter would allocate), searched with [`machine::memory`].

use crate::table::{pct, Table};
use benchmarks::Benchmark;
use fusion_core::pipeline::{Level, Optimized, Pipeline};
use loopir::ScalarProgram;
use machine::memory::{max_problem_size, predicted_percent_change};
use machine::presets::{sp2, t3e};
use zlang::ir::ConfigBinding;

/// Bytes of array storage the scalarized program allocates at problem size
/// `n` ([`fusion_core::supervisor::estimate_alloc_bytes`]: its live arrays, a collapsed dimension
/// counted once; `u64::MAX`, which fits no node, past 64 bits).
pub fn footprint_bytes(sp: &ScalarProgram, size_config: &str, n: i64) -> u64 {
    let mut binding = ConfigBinding::defaults(&sp.program);
    binding.set_by_name(&sp.program, size_config, n);
    fusion_core::supervisor::estimate_alloc_bytes(sp, &binding)
}

/// One benchmark's Figure 8 measurements on one machine.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// The benchmark.
    pub bench: Benchmark,
    /// Simultaneously-live arrays before contraction.
    pub live_before: usize,
    /// Simultaneously-live arrays after contraction.
    pub live_after: usize,
    /// Predicted problem-size change `C(l_b, l_a)` (percent;
    /// infinite when everything contracts).
    pub predicted: f64,
    /// Largest problem size (per dimension) without contraction.
    pub max_n_before: Option<u64>,
    /// Largest problem size (per dimension) with contraction
    /// (`None` = nothing fits, `Some(hi)` saturates when memory use is
    /// constant).
    pub max_n_after: Option<u64>,
    /// Measured per-dimension change, percent.
    pub measured_dim: f64,
    /// Measured total-volume change, percent.
    pub measured_vol: f64,
}

const SEARCH_HI: u64 = 1 << 20;

fn optimize(bench: &Benchmark, level: Level) -> Optimized {
    Pipeline::new(level).optimize(&bench.program())
}

/// Computes the Figure 8 data on a machine with `node_memory` bytes.
pub fn rows(node_memory: u64) -> Vec<Fig8Row> {
    benchmarks::all()
        .into_iter()
        .map(|bench| {
            let base = optimize(&bench, Level::Baseline);
            let c2 = optimize(&bench, Level::C2);
            let live_before = base.scalarized.live_arrays().len();
            let live_after = c2.scalarized.live_arrays().len();
            let search = |sp: &ScalarProgram| {
                max_problem_size(2, SEARCH_HI, node_memory, |n| {
                    footprint_bytes(sp, bench.size_config, n as i64)
                })
            };
            let max_n_before = search(&base.scalarized);
            let max_n_after = search(&c2.scalarized);
            let (measured_dim, measured_vol) = match (max_n_before, max_n_after) {
                (Some(b), Some(a)) if b > 0 => {
                    let dim = 100.0 * (a as f64 - b as f64) / b as f64;
                    let ratio = a as f64 / b as f64;
                    let vol = 100.0 * (ratio.powi(bench.rank as i32) - 1.0);
                    (dim, vol)
                }
                _ => (0.0, 0.0),
            };
            Fig8Row {
                live_before,
                live_after,
                predicted: predicted_percent_change(live_before, live_after),
                max_n_before,
                max_n_after,
                measured_dim,
                measured_vol,
                bench,
            }
        })
        .collect()
}

fn fmt_n(n: Option<u64>) -> String {
    match n {
        None => "0".to_string(),
        Some(v) if v >= SEARCH_HI => "unbounded".to_string(),
        Some(v) => v.to_string(),
    }
}

/// Renders the Figure 8 table for the T3E and SP-2 memory budgets.
pub fn report() -> String {
    let mut out = String::from(
        "Figure 8 — maximum problem size in fixed node memory (measured via allocation footprint)\n",
    );
    for m in [t3e(), sp2()] {
        out.push_str(&format!(
            "\n{} ({} MB/node):\n",
            m.name,
            m.node_memory >> 20
        ));
        let mut t = Table::new(&[
            "application",
            "l_b",
            "l_a",
            "C (predicted)",
            "max n w/o",
            "max n w/",
            "dim change",
            "vol change",
            "paper dim%",
        ]);
        for r in rows(m.node_memory) {
            let paper_pred =
                predicted_percent_change(r.bench.paper.live_before, r.bench.paper.live_after);
            t.row(vec![
                r.bench.name.to_string(),
                r.live_before.to_string(),
                r.live_after.to_string(),
                pct(r.predicted),
                fmt_n(r.max_n_before),
                fmt_n(r.max_n_after),
                pct(r.measured_dim),
                pct(r.measured_vol),
                pct(paper_pred),
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_becomes_constant_memory() {
        let rows = rows(t3e().node_memory);
        let ep = rows.iter().find(|r| r.bench.name == "ep").unwrap();
        assert_eq!(ep.live_after, 0);
        assert_eq!(ep.predicted, f64::INFINITY);
        assert_eq!(
            ep.max_n_after,
            Some(SEARCH_HI),
            "search saturates: memory is constant"
        );
    }

    #[test]
    fn contraction_always_allows_larger_problems() {
        for r in rows(32 * 1024 * 1024) {
            let (Some(b), Some(a)) = (r.max_n_before, r.max_n_after) else {
                panic!("{}: nothing fits", r.bench.name)
            };
            assert!(a > b, "{}: {b} -> {a}", r.bench.name);
        }
    }

    #[test]
    fn prediction_tracks_measurement() {
        // The paper: the C value accurately predicts the change in problem
        // volume. Allow slack for integer truncation.
        for r in rows(t3e().node_memory) {
            if r.predicted.is_finite() && r.bench.rank > 1 {
                let rel = (r.measured_vol - r.predicted).abs() / r.predicted.max(1.0);
                assert!(
                    rel < 0.15,
                    "{}: predicted {:.1}% measured {:.1}%",
                    r.bench.name,
                    r.predicted,
                    r.measured_vol
                );
            }
        }
    }

    /// Under `+dim` the footprint is what a run allocates, a collapsed
    /// dimension counted once; the region-size rule it replaced counted
    /// every dimension in full and overstated the collapsed arrays.
    #[test]
    fn dim_footprint_counts_a_collapsed_dimension_once() {
        use fusion_core::pipeline::LevelSpec;
        use loopir::{Engine, NoopObserver};
        let spec: LevelSpec = "c2+dim".parse().unwrap();
        let mut collapsing = 0;
        for b in benchmarks::all() {
            let opt = Pipeline::new(spec).optimize(&b.program());
            let sp = &opt.scalarized;
            let mut binding = ConfigBinding::defaults(&sp.program);
            binding.set_by_name(&sp.program, b.size_config, 10);
            let mut exec = Engine::Interp.executor(sp, binding.clone()).unwrap();
            let peak = exec.execute(&mut NoopObserver).unwrap().stats.peak_bytes;
            let footprint = footprint_bytes(sp, b.size_config, 10);
            assert_eq!(footprint, peak, "{}", b.name);
            let live = sp.live_arrays();
            let regions: u64 = live
                .iter()
                .map(|&a| sp.program.region(sp.program.array(a).region).size(&binding) * 8)
                .sum();
            if live
                .iter()
                .any(|&a| !sp.program.array(a).collapsed.is_empty())
            {
                collapsing += 1;
                assert!(footprint < regions, "{}: {footprint} vs {regions}", b.name);
            } else {
                assert_eq!(footprint, regions, "{}", b.name);
            }
        }
        assert!(collapsing > 0, "some benchmark collapses a dimension");
    }

    #[test]
    fn footprint_is_monotone_in_n() {
        let b = benchmarks::by_name("tomcatv").unwrap();
        let opt = Pipeline::new(Level::Baseline).optimize(&b.program());
        let f16 = footprint_bytes(&opt.scalarized, "n", 16);
        let f32 = footprint_bytes(&opt.scalarized, "n", 32);
        assert!(f32 > f16);
    }
}
