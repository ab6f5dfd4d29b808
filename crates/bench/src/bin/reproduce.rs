//! Regenerates the paper's tables and figures as text reports.
//!
//! Usage:
//!
//! ```text
//! reproduce fig6|fig7|fig8|fig9|fig10|fig11|sec55|ablation|all [--quick]
//!           [--engine interp|vm|vm-simd|vm-par]
//! ```
//!
//! `--quick` reduces the processor sweep (figures 9–11) to p ∈ {1, 16}.
//! `--engine` selects the scalarized-program execution engine (default:
//! `vm-simd`, the bytecode VM's lane tier, which runs under the cache
//! simulator too). The reports are identical to the byte under every
//! engine, the reference tree-walking interpreter included; only
//! wall-clock reproduction time differs.

use bench::{fig6, fig7, fig8, perf, sec55};
use fusion_core::pipeline::Level;
use loopir::Engine;
use machine::presets::MachineKind;

fn usage() -> ! {
    let engines = Engine::all().map(Engine::name).join("|");
    eprintln!(
        "usage: reproduce <fig6|fig7|fig8|fig9|fig10|fig11|sec55|ablation|all> \
         [--quick] [--engine {engines}]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let quick = args.iter().any(|a| a == "--quick");
    let engine = match args.iter().position(|a| a == "--engine") {
        None => Engine::VmSimd,
        Some(i) => match args.get(i + 1).map(|v| v.parse()) {
            Some(Ok(e)) => e,
            Some(Err(e)) => {
                eprintln!("reproduce: {e}");
                usage()
            }
            None => usage(),
        },
    };
    let procs: Vec<u64> = if quick {
        vec![1, 16]
    } else {
        perf::PROCS.to_vec()
    };
    let levels: Vec<Level> = perf::PLOT_LEVELS.to_vec();

    let run_fig = |kind: MachineKind| {
        println!("{}", perf::report(kind, &levels, &procs, engine));
    };
    match args[0].as_str() {
        "fig6" => println!("{}", fig6::report()),
        "fig7" => println!("{}", fig7::report()),
        "fig8" => println!("{}", fig8::report()),
        "fig9" => run_fig(MachineKind::T3e),
        "fig10" => run_fig(MachineKind::Sp2),
        "fig11" => run_fig(MachineKind::Paragon),
        "sec55" => println!("{}", sec55::report(16)),
        "ablation" => {
            for kind in MachineKind::all() {
                println!("{}", bench::ablation::report(&kind.machine(), engine));
            }
            println!("{}", bench::ablation::dimension_report(engine));
        }
        "all" => {
            println!("{}", fig6::report());
            println!("{}", fig7::report());
            println!("{}", fig8::report());
            run_fig(MachineKind::T3e);
            run_fig(MachineKind::Sp2);
            run_fig(MachineKind::Paragon);
            println!("{}", sec55::report(16));
            for kind in MachineKind::all() {
                println!("{}", bench::ablation::report(&kind.machine(), engine));
            }
            println!("{}", bench::ablation::dimension_report(engine));
        }
        _ => usage(),
    }
}
