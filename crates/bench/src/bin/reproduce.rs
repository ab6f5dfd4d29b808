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
    let Some((report, flags)) = args.split_first() else {
        usage()
    };
    let mut quick = false;
    let mut engine = Engine::VmSimd;
    let mut flags = flags.iter();
    while let Some(flag) = flags.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--engine" => match flags.next().map(|v| v.parse()) {
                Some(Ok(e)) => engine = e,
                Some(Err(e)) => {
                    eprintln!("reproduce: {e}");
                    usage()
                }
                None => usage(),
            },
            other => {
                eprintln!("reproduce: unknown argument `{other}`");
                usage()
            }
        }
    }
    let procs: Vec<u64> = if quick {
        vec![1, 16]
    } else {
        perf::PROCS.to_vec()
    };
    let levels: Vec<Level> = perf::PLOT_LEVELS.to_vec();

    // Figures 9-11 are one compiled sweep under three machine models.
    let run_figs = |kinds: &[MachineKind]| {
        let sweep = perf::sweep(&levels, engine);
        for &kind in kinds {
            println!("{}", perf::report(kind, &sweep, &procs));
        }
    };
    match report.as_str() {
        "fig6" => println!("{}", fig6::report()),
        "fig7" => println!("{}", fig7::report()),
        "fig8" => println!("{}", fig8::report()),
        "fig9" => run_figs(&[MachineKind::T3e]),
        "fig10" => run_figs(&[MachineKind::Sp2]),
        "fig11" => run_figs(&[MachineKind::Paragon]),
        "sec55" => println!("{}", sec55::report(16, engine)),
        "ablation" => println!("{}", bench::ablation::dimension_report(engine)),
        "all" => {
            println!("{}", fig6::report());
            println!("{}", fig7::report());
            println!("{}", fig8::report());
            run_figs(&MachineKind::all());
            println!("{}", sec55::report(16, engine));
            println!("{}", bench::ablation::dimension_report(engine));
        }
        _ => usage(),
    }
}
