//! Figures 9, 10, 11: runtime improvement of each transformation level
//! over baseline, per benchmark, machine, and processor count.
//!
//! As in the paper, problem sizes scale with the processor count (the
//! per-processor block is constant), so the simulation interprets one
//! processor's block and varies only the communication structure with `p`.

use crate::table::{pct, Table};
use benchmarks::Benchmark;
use fusion_core::pipeline::{Level, Pipeline};
use fusion_core::CachedProgram;
use loopir::{Engine, ExecOpts, SharedProgram};
use machine::presets::{Machine, MachineKind};
use runtime::{simulate_executor, ExecConfig, SimResult};
use std::sync::Arc;
use zlang::ir::ConfigBinding;

/// The transformation levels plotted in the figures (baseline excluded —
/// it is the reference).
pub const PLOT_LEVELS: [Level; 7] = [
    Level::F1,
    Level::C1,
    Level::F2,
    Level::F3,
    Level::C2,
    Level::C2F3,
    Level::C2F4,
];

/// Processor counts used in the figures.
pub const PROCS: [u64; 4] = [1, 4, 16, 64];

/// The per-processor block size (points per distributed dimension) used
/// for a benchmark.
pub fn block_size(bench: &Benchmark) -> i64 {
    match bench.rank {
        1 => 8192,
        2 => 40,
        _ => 10,
    }
}

/// A benchmark optimized and lowered once, under its per-processor block.
/// Neither step reads the machine or the processor count, so every point
/// of a sweep replays this one artifact ([`Compiled::run`]).
#[derive(Debug)]
pub struct Compiled {
    artifact: CachedProgram,
    /// The knobs `engine` runs the lowered program at.
    knobs: ExecOpts,
    /// How many arrays the optimizer contracted away.
    pub contracted: usize,
}

impl Compiled {
    /// Optimizes `bench` with `pipeline` and — under a VM `engine` —
    /// lowers the result with `block` points per distributed dimension.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to lower (a bug in the embedded
    /// sources, covered by the `benchmarks` tests).
    pub fn new(bench: &Benchmark, pipeline: &Pipeline<'_>, block: i64, engine: Engine) -> Self {
        let opt = pipeline.optimize(&bench.program());
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, bench.size_config, block);
        let knobs = engine.knobs(ExecOpts::default());
        let shared = knobs.map(|_| {
            SharedProgram::lower(&opt.scalarized, binding.clone(), None)
                .unwrap_or_else(|e| panic!("{} at {}: {e}", bench.name, opt.spec))
        });
        Compiled {
            contracted: opt.contracted.len(),
            artifact: CachedProgram {
                scalarized: Arc::new(opt.scalarized),
                shared,
                binding,
            },
            knobs: knobs.unwrap_or_default(),
        }
    }

    /// `bench` at a paper level.
    pub fn at_level(bench: &Benchmark, level: Level, block: i64, engine: Engine) -> Self {
        Compiled::new(bench, &Pipeline::new(level), block, engine)
    }

    /// Runs the artifact on `procs` processors of `machine`.
    ///
    /// # Panics
    ///
    /// Panics if the benchmark fails to execute (as [`Compiled::new`]).
    pub fn run(&self, machine: &Machine, procs: u64) -> SimResult {
        let sp = &self.artifact.scalarized;
        let cfg = ExecConfig::new(machine.clone(), procs);
        let mut exec = self.artifact.executor(self.knobs);
        match simulate_executor(&mut *exec, sp, &self.artifact.binding, &cfg) {
            Ok((_, sim)) => sim,
            Err(e) => panic!("{} on {}: {e}", sp.program.name, machine.name),
        }
    }
}

/// One measured point.
#[derive(Debug, Clone)]
pub struct PerfPoint {
    /// Transformation level.
    pub level: Level,
    /// Processor count.
    pub procs: u64,
    /// Percent improvement over baseline (positive = faster).
    pub improvement: f64,
    /// Absolute simulated time, nanoseconds.
    pub total_ns: f64,
}

/// All points for one benchmark on one machine.
#[derive(Debug, Clone)]
pub struct PerfSeries {
    /// The benchmark.
    pub bench: Benchmark,
    /// Points, ordered by (procs, level).
    pub points: Vec<PerfPoint>,
}

impl PerfSeries {
    /// The improvement for a given level/procs, if measured.
    pub fn improvement(&self, level: Level, procs: u64) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.level == level && p.procs == procs)
            .map(|p| p.improvement)
    }
}

/// One benchmark at `baseline` and at each of a set of levels, every one
/// compiled once: what Figures 9, 10 and 11 all measure.
#[derive(Debug)]
pub struct Levels {
    bench: Benchmark,
    baseline: Compiled,
    levels: Vec<(Level, Compiled)>,
}

impl Levels {
    /// Compiles `bench` at `baseline` and at every level of `levels`.
    pub fn new(bench: &Benchmark, levels: &[Level], block: i64, engine: Engine) -> Self {
        let at = |level| Compiled::at_level(bench, level, block, engine);
        Levels {
            bench: *bench,
            baseline: at(Level::Baseline),
            levels: levels.iter().map(|&level| (level, at(level))).collect(),
        }
    }

    /// Measures every level × procs on one machine.
    pub fn series(&self, machine: &Machine, procs: &[u64]) -> PerfSeries {
        let mut points = Vec::new();
        for &p in procs {
            let base = self.baseline.run(machine, p);
            for (level, compiled) in &self.levels {
                let r = compiled.run(machine, p);
                points.push(PerfPoint {
                    level: *level,
                    procs: p,
                    improvement: r.improvement_over(&base),
                    total_ns: r.total_ns,
                });
            }
        }
        PerfSeries {
            bench: self.bench,
            points,
        }
    }
}

/// Every paper benchmark at its [`block_size`], compiled at `levels`:
/// the input the three figures share.
pub fn sweep(levels: &[Level], engine: Engine) -> Vec<Levels> {
    benchmarks::all()
        .iter()
        .map(|bench| Levels::new(bench, levels, block_size(bench), engine))
        .collect()
}

/// Renders one machine's figure (Figure 9 = T3E, 10 = SP-2, 11 = Paragon)
/// from a compiled [`sweep`].
pub fn report(kind: MachineKind, sweep: &[Levels], procs: &[u64]) -> String {
    let machine = kind.machine();
    let fig = match kind {
        MachineKind::T3e => "Figure 9",
        MachineKind::Sp2 => "Figure 10",
        MachineKind::Paragon => "Figure 11",
    };
    let mut out = format!(
        "{fig} — % improvement over baseline on the {} (scaled problem size)\n\n",
        machine.name
    );
    for compiled in sweep {
        let s = compiled.series(&machine, procs);
        let mut header: Vec<String> = vec![format!("{} (p=)", s.bench.name)];
        header.extend(procs.iter().map(|p| p.to_string()));
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let mut t = Table::new(&header_refs);
        for (level, _) in &compiled.levels {
            let mut row = vec![level.name().to_string()];
            for &p in procs {
                row.push(s.improvement(*level, p).map_or("-".into(), pct));
            }
            t.row(row);
        }
        out.push_str(&t.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::presets::t3e;

    #[test]
    fn c2_beats_baseline_on_every_benchmark() {
        let m = t3e();
        for bench in benchmarks::all() {
            // Small blocks keep the test fast.
            let block = if bench.rank == 1 {
                2048
            } else if bench.rank == 2 {
                24
            } else {
                8
            };
            let run =
                |level| Compiled::at_level(&bench, level, block, Engine::default()).run(&m, 1);
            let (base, c2) = (run(Level::Baseline), run(Level::C2));
            assert!(
                c2.total_ns < base.total_ns,
                "{}: c2 {} >= baseline {}",
                bench.name,
                c2.total_ns,
                base.total_ns
            );
        }
    }

    #[test]
    fn ep_improvement_is_processor_independent() {
        // The paper: EP scales perfectly, so its improvement is flat in p.
        let bench = benchmarks::by_name("ep").unwrap();
        let s = Levels::new(&bench, &[Level::C2], block_size(&bench), Engine::default())
            .series(&t3e(), &[1, 4, 16, 64]);
        let imps: Vec<f64> = [1u64, 4, 16, 64]
            .iter()
            .map(|&p| s.improvement(Level::C2, p).unwrap())
            .collect();
        let spread = imps.iter().cloned().fold(f64::MIN, f64::max)
            - imps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 2.0, "EP improvement must be ~flat in p: {imps:?}");
    }

    #[test]
    fn series_collects_all_points() {
        let bench = benchmarks::by_name("frac").unwrap();
        let s = Levels::new(&bench, &[Level::C1, Level::C2], 16, Engine::default())
            .series(&t3e(), &[1, 4]);
        assert_eq!(s.points.len(), 4);
        assert!(s.improvement(Level::C2, 4).is_some());
        assert!(s.improvement(Level::C2F4, 4).is_none());
    }
}
