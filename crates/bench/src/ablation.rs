//! Ablation: dimension contraction (the paper's Section 5.2 SP
//! deficiency, implemented as the `+dim` level suffix).
//!
//! The spatial-locality stream cap on `c2+f4` that this module also
//! measured is retired: it had no resolved gain on the lane tier, and its
//! simulated T3E numbers stay in EXPERIMENTS.md ("Ablations").

use crate::perf::block_size;
use crate::table::Table;
use fusion_core::pipeline::{LevelSpec, Pipeline};
use loopir::Engine;
use zlang::ir::ConfigBinding;

/// Dimension-contraction ablation: memory footprint at `c2` and at
/// `c2+dim`, per benchmark.
pub fn dimension_report(engine: Engine) -> String {
    use loopir::NoopObserver;
    let mut t = Table::new(&[
        "application",
        "peak bytes (c2)",
        "peak bytes (c2+dim)",
        "collapsed arrays",
        "memory saved",
    ]);
    for b in benchmarks::all() {
        let mem = |opt: &fusion_core::pipeline::Optimized| {
            let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
            binding.set_by_name(&opt.scalarized.program, b.size_config, block_size(&b));
            let mut exec = engine.executor(&opt.scalarized, binding).unwrap();
            exec.execute(&mut NoopObserver).unwrap().stats.peak_bytes
        };
        let [plain, dimc] = ["c2", "c2+dim"].map(|spec| {
            let spec: LevelSpec = spec.parse().expect("a valid level spec");
            Pipeline::new(spec).optimize(&b.program())
        });
        let (mp, md) = (mem(&plain), mem(&dimc));
        let saved = if mp == 0 {
            0.0
        } else {
            100.0 * (mp - md) as f64 / mp as f64
        };
        t.row(vec![
            b.name.to_string(),
            mp.to_string(),
            md.to_string(),
            dimc.report.dimension_contracted.to_string(),
            format!("{saved:.1}%"),
        ]);
    }
    format!(
        "Ablation — dimension contraction (the paper's §5.2 SP deficiency, implemented)\n\n{}",
        t.render()
    )
}
