//! Golden `--emit` snapshots: the scalarized IR for every paper benchmark
//! at `c2+f3` is pinned under `tests/golden/`. Any change to fusion,
//! contraction, loop-structure selection, or the printers shows up as a
//! readable diff here instead of a silent behavior change. Below the
//! readable snapshots, `optimizer.digests.txt` pins one digest of the
//! optimizer's decisions per (program, spec) over a wider corpus.
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test emit_golden`. A change
//! that only makes the optimizer faster must not re-bless the digests.

use std::path::PathBuf;
use std::process::Command;
use zpl_fusion::fusion::pipeline::Optimized;
use zpl_fusion::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

fn emit(name: &str, source: &str, level: &str, pass: &str) -> String {
    let dir = std::env::temp_dir().join("zlc-emit-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!("{name}.zl"));
    std::fs::write(&src, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args([src.to_str().unwrap(), "--level", level, "--emit", pass])
        .output()
        .expect("zlc runs");
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 snapshot")
}

fn emit_scalarize(name: &str, source: &str) -> String {
    emit(name, source, "c2+f3", "scalarize")
}

#[test]
fn benchmark_snapshots_match_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for bench in zpl_fusion::workloads::all() {
        let got = emit_scalarize(bench.name, bench.source);
        let path = golden_dir().join(format!("{}.c2f3.scalarize.txt", bench.name));
        if bless {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{}: missing golden file {path:?}: {e}", bench.name));
        assert_eq!(
            got, want,
            "{}: snapshot drifted from {path:?}; run with ZLC_BLESS=1 to re-bless",
            bench.name
        );
    }
}

/// FNV-1a over the rendered record, so a pinned line stays one hex word.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Everything the optimizer decides for one (program, spec), rendered as
/// text: per block the ASDG (edges with their labels in order, each
/// statement's read definitions and write definition, every definition),
/// the final partition and the contracted definitions; then the report,
/// the eliminated arrays, the ASDG build count, the declarations and the
/// printed `ScalarProgram`.
fn optimizer_record(opt: &Optimized) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (bi, d) in opt.details.iter().enumerate() {
        let g = &d.asdg;
        let _ = writeln!(out, "block {bi} n {}", g.n);
        for e in &g.edges {
            let _ = writeln!(out, "edge {} -> {}: {:?}", e.src, e.dst, e.labels);
        }
        let _ = writeln!(out, "read_defs {:?}", g.read_defs);
        let _ = writeln!(out, "write_def {:?}", g.write_def);
        let _ = writeln!(out, "defs {:?}", g.defs);
        for c in d.partition.live_clusters() {
            let _ = writeln!(out, "cluster {c}: {:?}", d.partition.cluster(c));
        }
        let _ = writeln!(out, "contracted {:?}", d.contracted);
    }
    let _ = writeln!(out, "report {:?}", opt.report);
    let _ = writeln!(out, "eliminated {:?}", opt.contracted);
    let _ = writeln!(out, "asdg_builds {}", opt.asdg_builds);
    let _ = writeln!(out, "arrays {:?}", opt.scalarized.program.arrays);
    out.push_str(&zpl_fusion::loops::printer::print(&opt.scalarized));
    out
}

/// The corpus the optimizer digests cover: the six paper benchmarks, the
/// example programs, and sixteen seeds of each `genprog` generator.
fn digest_corpus() -> Vec<(String, zpl_fusion::lang::ir::Program)> {
    use testkit::{genprog, Rng};
    let mut out: Vec<_> = zpl_fusion::workloads::all()
        .iter()
        .map(|b| (b.name.to_string(), b.program()))
        .collect();
    let examples = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/programs");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&examples)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "zl"))
        .collect();
    files.sort();
    for f in files {
        let name = f.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&f).unwrap();
        out.push((name, zpl_fusion::lang::compile(&text).unwrap()));
    }
    for seed in 0..16 {
        for (kind, source) in [
            ("random", genprog::generate(&mut Rng::new(seed))),
            ("stencil", genprog::generate_stencil(&mut Rng::new(seed))),
        ] {
            let program = zpl_fusion::lang::compile(&source).unwrap();
            out.push((format!("{kind}-{seed}"), program));
        }
    }
    out
}

/// The specs the optimizer digests cover: every paper level, plus the
/// two extensions that change what fusion and scalarization see.
fn digest_specs() -> Vec<LevelSpec> {
    let mut out: Vec<LevelSpec> = Level::all().map(LevelSpec::from).into();
    out.extend(["c2+f3+dim", "c2+f3+rce2"].map(|s| s.parse::<LevelSpec>().unwrap()));
    out
}

/// The optimizer's outputs, pinned: one digest per (program, spec) over
/// the ASDG, the partition, the contracted definitions and the printed
/// `ScalarProgram` (see [`optimizer_record`]). A change that is meant to
/// leave the optimizer's decisions alone must leave every line alone.
#[test]
fn optimizer_outputs_match_pinned_digests() {
    let path = golden_dir().join("optimizer.digests.txt");
    let mut got = String::new();
    for (name, program) in digest_corpus() {
        for spec in digest_specs() {
            let record = optimizer_record(&Pipeline::new(spec).optimize(&program));
            got.push_str(&format!("{name} {spec} {:016x}\n", fnv(&record)));
        }
    }
    if std::env::var_os("ZLC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing digest file {path:?}: {e}"));
    let drifted: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  want {w}\n  got  {g}"))
        .collect();
    assert!(
        drifted.is_empty() && got.lines().count() == want.lines().count(),
        "optimizer outputs drifted from {path:?} ({} line(s)):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// The `+rce2` rewrite records for the stencil benchmarks: which
/// subexpressions the offset-lattice analysis proved redundant, where the
/// shared temporaries were materialized, and what was hoisted. Pinned so a
/// change to the analysis (facts found, widening, scoring) surfaces as a
/// readable diff.
#[test]
fn rce2_snapshots_match_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for name in ["tomcatv", "simple", "sp"] {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let got = emit(bench.name, bench.source, "c2+f3+rce2", "rce2");
        let path = golden_dir().join(format!("{}.c2f3rce2.rce2.txt", bench.name));
        if bless {
            std::fs::write(&path, &got).unwrap();
            continue;
        }
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden file {path:?}: {e}"));
        assert_eq!(
            got, want,
            "{name}: snapshot drifted from {path:?}; run with ZLC_BLESS=1 to re-bless"
        );
    }
}
