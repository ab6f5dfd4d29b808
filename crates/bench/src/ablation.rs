//! Ablation: spatial-locality-sensitive fusion (the paper's future work).
//!
//! Section 5.4's lesson — "fusion should not be performed arbitrarily in an
//! array language" — comes from `c2+f4` *hurting* cache-sensitive codes
//! (3% vs 16% improvement on Fibro). The paper leaves "the extension of
//! our algorithm for spatial locality sensitivity" to future work; we
//! implement it as a cap on the number of distinct arrays a fused loop may
//! stream (`Pipeline::with_spatial_cap`) and measure how much of the `f4`
//! regression it recovers.

use crate::perf::{block_size, Compiled};
use crate::table::{pct, Table};
use fusion_core::pipeline::{Level, Pipeline};
use loopir::Engine;
use machine::presets::Machine;
use zlang::ir::ConfigBinding;

/// Derives a stream cap from a machine's L1 geometry: enough room for each
/// stream to keep a handful of lines resident.
pub fn stream_cap(machine: &Machine) -> usize {
    let lines = machine.l1.bytes / machine.l1.line as u64;
    ((lines / 64) as usize).clamp(3, 24)
}

/// Result of the three-way comparison on one benchmark.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Benchmark name.
    pub name: &'static str,
    /// `c2+f3` time (the reference the paper recommends).
    pub c2f3_ns: f64,
    /// Unbounded `c2+f4` time.
    pub f4_ns: f64,
    /// Capped `c2+f4` time.
    pub f4_capped_ns: f64,
}

impl AblationRow {
    /// How much of the f4 regression the cap recovers (1.0 = all of it;
    /// negative = the cap made things worse; meaningless when f4 did not
    /// regress).
    pub fn recovery(&self) -> f64 {
        let regression = self.f4_ns - self.c2f3_ns;
        if regression <= 0.0 {
            return 1.0;
        }
        (self.f4_ns - self.f4_capped_ns) / regression
    }
}

/// Runs the ablation for every benchmark on one machine (16 processors).
pub fn rows(machine: &Machine, engine: Engine) -> Vec<AblationRow> {
    let cap = stream_cap(machine);
    benchmarks::all()
        .iter()
        .map(|b| {
            let run = |pipeline: Pipeline<'_>| {
                let compiled = Compiled::new(b, &pipeline, block_size(b), engine);
                compiled.run(machine, 16).total_ns
            };
            AblationRow {
                name: b.name,
                c2f3_ns: run(Pipeline::new(Level::C2F3)),
                f4_ns: run(Pipeline::new(Level::C2F4)),
                f4_capped_ns: run(Pipeline::new(Level::C2F4).with_spatial_cap(cap)),
            }
        })
        .collect()
}

/// Renders the ablation table.
pub fn report(machine: &Machine, engine: Engine) -> String {
    let cap = stream_cap(machine);
    let mut t = Table::new(&[
        "application",
        "c2+f3 (ms)",
        "c2+f4 (ms)",
        "c2+f4 capped (ms)",
        "f4 regression",
        "recovered",
    ]);
    for r in rows(machine, engine) {
        let reg = 100.0 * (r.f4_ns - r.c2f3_ns) / r.c2f3_ns;
        t.row(vec![
            r.name.to_string(),
            format!("{:.3}", r.c2f3_ns / 1e6),
            format!("{:.3}", r.f4_ns / 1e6),
            format!("{:.3}", r.f4_capped_ns / 1e6),
            pct(reg),
            if reg > 0.5 {
                format!("{:.0}%", 100.0 * r.recovery())
            } else {
                "-".into()
            },
        ]);
    }
    format!(
        "Ablation — spatial-locality-sensitive fusion on the {} (stream cap {})\n\n{}",
        machine.name,
        cap,
        t.render()
    )
}

/// Dimension-contraction ablation: memory footprint of `c2` with and
/// without the lower-dimensional contraction extension, per benchmark.
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
        let plain = Pipeline::new(Level::C2).optimize(&b.program());
        let dimc = Pipeline::new(Level::C2)
            .with_dimension_contraction()
            .optimize(&b.program());
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

#[cfg(test)]
mod tests {
    use super::*;
    use machine::presets::t3e;

    #[test]
    fn cap_mitigates_whatever_f4_regression_exists() {
        // The paper: arbitrary fusion (f4) frequently regresses on
        // cache-sensitive codes. On the small-cache T3E model at least one
        // benchmark must regress, and the cap must claw back a meaningful
        // part of that loss.
        let m = t3e();
        let rs = rows(&m, Engine::default());
        let worst = rs
            .iter()
            .max_by(|a, b| {
                (a.f4_ns - a.c2f3_ns)
                    .partial_cmp(&(b.f4_ns - b.c2f3_ns))
                    .expect("finite times")
            })
            .expect("six benchmarks");
        assert!(
            worst.f4_ns > worst.c2f3_ns * 1.03,
            "some benchmark must show an f4 regression; worst was {} at {:+.1}%",
            worst.name,
            100.0 * (worst.f4_ns - worst.c2f3_ns) / worst.c2f3_ns
        );
        assert!(
            worst.recovery() > 0.4,
            "{}: the cap should recover a meaningful part: {:.2}",
            worst.name,
            worst.recovery()
        );
    }

    #[test]
    fn cap_never_hurts_much() {
        // Wherever arbitrary fusion HELPS, the cap must not destroy the
        // benefit relative to c2+f3.
        let m = t3e();
        for r in rows(&m, Engine::default()) {
            assert!(
                r.f4_capped_ns < r.c2f3_ns * 1.06,
                "{}: capped f4 must stay close to or better than c2+f3: {} vs {}",
                r.name,
                r.f4_capped_ns,
                r.c2f3_ns
            );
        }
    }

    #[test]
    fn stream_cap_scales_with_cache() {
        use machine::presets::{paragon, sp2};
        assert!(stream_cap(&sp2()) >= stream_cap(&t3e()));
        assert!(stream_cap(&paragon()) <= stream_cap(&sp2()));
    }
}
