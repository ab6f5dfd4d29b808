//! Tomcatv end to end: run the paper's mesh-generation benchmark through
//! every optimization level, reporting static arrays, memory, cache
//! misses, and simulated time — a miniature of the paper's Figures 7–9 for
//! one application.
//!
//! ```text
//! cargo run --release --example tomcatv_pipeline
//! ```

use zpl_fusion::par::{simulate, ExecConfig};
use zpl_fusion::prelude::*;
use zpl_fusion::sim::presets::t3e;
use zpl_fusion::workloads;

fn main() -> Result<(), zpl_fusion::Error> {
    let bench = workloads::by_name("tomcatv").expect("tomcatv is built in");
    let program = bench.program();
    println!("{}: {}\n", bench.name, bench.description);
    println!(
        "{:<10} {:>7} {:>8} {:>12} {:>10} {:>12} {:>10}",
        "level", "nests", "arrays", "contracted", "l1 misses", "peak bytes", "time (ms)"
    );

    let machine = t3e();
    let mut baseline = None;
    for level in Level::all() {
        let opt = Pipeline::new(level).optimize(&program);
        let mut binding = ConfigBinding::defaults(&opt.scalarized.program);
        binding.set_by_name(&opt.scalarized.program, "n", 40);
        let cfg = ExecConfig::new(machine.clone(), 16);
        let r = simulate(&opt.scalarized, binding, &cfg)?;
        let imp = match &baseline {
            None => {
                baseline = Some(r.clone());
                String::new()
            }
            Some(b) => format!("  ({:+.1}% vs baseline)", r.improvement_over(b)),
        };
        println!(
            "{:<10} {:>7} {:>8} {:>12} {:>10} {:>12} {:>10.3}{imp}",
            level.name(),
            opt.scalarized.nest_count(),
            opt.scalarized.live_arrays().len(),
            opt.contracted.len(),
            r.mem.l1_misses,
            r.run.peak_bytes,
            r.total_ms(),
        );
    }

    println!("\npaper reference (Figure 7): 19 arrays (4 compiler/15 user) -> 7 after contraction");
    Ok(())
}
