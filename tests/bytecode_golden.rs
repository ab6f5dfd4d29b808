//! Golden `--print bytecode` snapshots: the lowered bytecode (the one
//! superinstruction/lane stream every VM engine name runs) of selected
//! paper benchmarks at `c2+f3` is pinned under `tests/golden/`. Any change
//! to the bytecode compiler, the superinstruction peephole, the lane
//! vectorizer, or the disassembler shows up as a readable diff here
//! instead of a silent ISA change.
//!
//! Beside the readable listings, `lowering.digests.txt` pins one line per
//! (program, spec) over a wider corpus: see
//! [`lowered_streams_match_pinned_digests`].
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test bytecode_golden`. A
//! change that only makes lowering faster must not re-bless the digests.

use std::path::PathBuf;
use std::process::Command;
use zpl_fusion::prelude::*;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// `test` names the calling test: the two tests below run on parallel
/// threads, so each call writes a source file no other call shares.
fn disasm(test: &str, name: &str, source: &str, engine: &str) -> String {
    let dir = std::env::temp_dir().join("zlc-bytecode-golden");
    std::fs::create_dir_all(&dir).unwrap();
    let src = dir.join(format!("{test}-{name}-{engine}.zl"));
    std::fs::write(&src, source).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args([
            src.to_str().unwrap(),
            "--level",
            "c2+f3",
            "--engine",
            engine,
            "--print",
            "bytecode",
        ])
        .output()
        .expect("zlc runs");
    assert!(
        out.status.success(),
        "{name}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 snapshot")
}

/// The benchmarks pinned: `simple` (the headline element-wise kernel the
/// ≥8x bar is measured on), `tomcatv` (stencils, reductions, and a
/// time loop — exercises alias caps and the in-order lane reduce) and
/// `sp` (rank 3, rows of 12: where a lane run that spans the rows of the
/// enclosing loop matters most).
const PINNED: [&str; 3] = ["simple", "tomcatv", "sp"];

#[test]
fn superfused_bytecode_matches_golden_files() {
    let bless = std::env::var_os("ZLC_BLESS").is_some();
    for name in PINNED {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let got = disasm("golden", bench.name, bench.source, "vm-simd");
        let path = golden_dir().join(format!("{name}.c2f3.bytecode.txt"));
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

#[test]
fn scalar_and_superfused_streams_differ_only_in_encoding() {
    // There is one lowered stream: `vm` (lanes 1 / threads 1), `vm-simd`
    // and `vm-par` differ only in how the dispatcher walks it, so every
    // VM name prints the pinned listing byte for byte — superinstructions,
    // simd annotations and all.
    for name in PINNED {
        let bench = zpl_fusion::workloads::by_name(name).unwrap();
        let path = golden_dir().join(format!("{name}.c2f3.bytecode.txt"));
        let want = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{name}: missing golden file {path:?}: {e}"));
        for engine in ["vm", "vm-verified", "vm-simd", "vm-par"] {
            let got = disasm("encoding", bench.name, bench.source, engine);
            assert_eq!(got, want, "{name}: `{engine}` prints another listing");
        }
    }
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let scalar = disasm("encoding", bench.name, bench.source, "vm");
    assert!(
        scalar.contains("simd s0:"),
        "the `vm` listing has no simd annotation:\n{scalar}"
    );
    assert!(
        ["ld.ld.bin", "ld.bin", "bin.bin", "bin.st", "ld.st"]
            .iter()
            .any(|m| scalar.contains(m)),
        "the `vm` listing has no superinstructions:\n{scalar}"
    );
}

/// FNV-1a over a rendered record, so a pinned digest stays one hex word.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The corpus the lowering digests cover, with the config each program's
/// size binds: the six paper benchmarks, the example programs, and
/// sixteen seeds of each `genprog` generator.
fn lowering_corpus() -> Vec<(String, zpl_fusion::lang::ir::Program, &'static str)> {
    use testkit::{genprog, Rng};
    let mut out: Vec<_> = zpl_fusion::workloads::all()
        .iter()
        .map(|b| (b.name.to_string(), b.program(), b.size_config))
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
        out.push((name, zpl_fusion::lang::compile(&text).unwrap(), "n"));
    }
    for seed in 0..16 {
        for (kind, source) in [
            ("random", genprog::generate(&mut Rng::new(seed))),
            ("stencil", genprog::generate_stencil(&mut Rng::new(seed))),
        ] {
            let program = zpl_fusion::lang::compile(&source).unwrap();
            out.push((format!("{kind}-{seed}"), program, "n"));
        }
    }
    out
}

/// Everything one lowering produces at one size, rendered as text: for
/// the plain stream (`Vm::new`) and the superfused one
/// (`Vm::new_superfused`), the disassembly, `code_len`, and the bytecode
/// verifier's verdict with every diagnostic, or the lowering error.
fn lowering_record(sp: &zpl_fusion::loops::ScalarProgram, binding: &ConfigBinding) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for superfused in [false, true] {
        let vm = if superfused {
            Vm::new_superfused(sp, binding.clone())
        } else {
            Vm::new(sp, binding.clone())
        };
        let _ = writeln!(out, "superfused {superfused}");
        let mut vm = match vm {
            Ok(vm) => vm,
            Err(e) => {
                let _ = writeln!(out, "error {e}");
                continue;
            }
        };
        let _ = writeln!(out, "code_len {}", vm.code_len());
        out.push_str(&vm.disasm());
        match vm.verify() {
            Ok(()) => out.push_str("verified\n"),
            Err(diags) => {
                for d in diags {
                    let _ = writeln!(out, "{d}");
                }
            }
        }
    }
    out
}

/// The sizes every lowering digest is taken at.
const SIZES: [i64; 3] = [4, 5, 13];

/// The lowering's outputs, pinned: one line per (program, spec) at the
/// sixteen specs (every level, with and without `+rce2`), holding one
/// digest per size in [`SIZES`] of [`lowering_record`]. A change that is
/// meant to leave the lowered artifact alone - every op, table and
/// verifier finding - must leave every line alone.
#[test]
fn lowered_streams_match_pinned_digests() {
    let path = golden_dir().join("lowering.digests.txt");
    let mut got = String::new();
    for (name, program, size_config) in lowering_corpus() {
        for level in Level::all() {
            for rce2 in [false, true] {
                let spec = LevelSpec {
                    rce2,
                    ..level.into()
                };
                let sp = Pipeline::new(spec).optimize(&program).scalarized;
                got.push_str(&format!("{name} {spec}"));
                for n in SIZES {
                    let mut binding = ConfigBinding::defaults(&sp.program);
                    assert!(binding.set_by_name(&sp.program, size_config, n));
                    let record = lowering_record(&sp, &binding);
                    got.push_str(&format!(" {:016x}", fnv(&record)));
                }
                got.push('\n');
            }
        }
    }
    if std::env::var_os("ZLC_BLESS").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing digest file {path:?}: {e}"));
    let mut drifted = Vec::new();
    for (g, w) in got.lines().zip(want.lines()) {
        let (gw, ww): (Vec<&str>, Vec<&str>) = (g.split(' ').collect(), w.split(' ').collect());
        if gw[..2] != ww[..2] {
            drifted.push(format!("  want {w}\n  got  {g}"));
            continue;
        }
        for (k, n) in SIZES.iter().enumerate() {
            if gw.get(2 + k) != ww.get(2 + k) {
                drifted.push(format!("  {} {} at n={n}", gw[0], gw[1]));
            }
        }
    }
    assert!(
        drifted.is_empty() && got.lines().count() == want.lines().count(),
        "lowered streams drifted from {path:?} ({} finding(s)):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}

/// The ops of a `Vm::disasm` listing, as `(mnemonic, detail)`.
fn listed_ops(listing: &str) -> Vec<(&str, &str)> {
    listing
        .lines()
        .filter(|l| !l.starts_with(";;"))
        .map(|l| {
            let (_pc, rest) = l.trim_start().split_once(' ').unwrap();
            let (mnemonic, detail) = rest.trim_start().split_once(' ').unwrap_or((rest, ""));
            (mnemonic, detail.trim_start())
        })
        .collect()
}

/// Every superinstruction the peephole forms is exactly the plain ops it
/// took the place of. A bundle's line in the superfused listing shows
/// its `Op::parts`, one detail each, joined by "; "; read against the
/// plain listing, each must be the lines of the ops it replaced, over the
/// lowering corpus at all sixteen specs. (Debug builds also assert this
/// of every bundle as `simd::bundle` forms it, encodings included.)
#[test]
fn every_bundle_is_the_ops_it_replaced() {
    const BUNDLES: [&str; 5] = ["ld.ld.bin", "ld.bin", "bin.bin", "bin.st", "ld.st"];
    // Ops whose detail names a pc, which the rewrite renumbers.
    const MOVED: [&str; 6] = ["jmp", "jz", "idxstep", "ctrstep", "forinit", "par"];
    let mut formed = [0usize; 5];
    for (name, program, size_config) in lowering_corpus() {
        for level in Level::all() {
            for rce2 in [false, true] {
                let spec = LevelSpec {
                    rce2,
                    ..level.into()
                };
                let sp = Pipeline::new(spec).optimize(&program).scalarized;
                let mut binding = ConfigBinding::defaults(&sp.program);
                assert!(binding.set_by_name(&sp.program, size_config, 5));
                let (Ok(plain), Ok(fused)) = (
                    Vm::new(&sp, binding.clone()),
                    Vm::new_superfused(&sp, binding),
                ) else {
                    continue;
                };
                let (plain, fused) = (plain.disasm(), fused.disasm());
                let mut replaced = listed_ops(&plain).into_iter();
                for (mnemonic, detail) in listed_ops(&fused) {
                    let at = format!("{name} {spec}: `{mnemonic} {detail}`");
                    if mnemonic == "simd" {
                        continue;
                    }
                    if let Some(k) = BUNDLES.iter().position(|b| *b == mnemonic) {
                        formed[k] += 1;
                        let parts = detail.split("; ").count();
                        let ops: Vec<&str> = replaced.by_ref().take(parts).map(|op| op.1).collect();
                        assert_eq!(detail, ops.join("; "), "{at}");
                        continue;
                    }
                    let (m, d) = replaced
                        .next()
                        .unwrap_or_else(|| panic!("{at}: past the end"));
                    assert_eq!(mnemonic, m, "{at}");
                    if !MOVED.contains(&mnemonic) {
                        assert_eq!(detail, d, "{at}");
                    }
                }
                assert_eq!(replaced.next(), None, "{name} {spec}");
            }
        }
    }
    for (b, n) in BUNDLES.iter().zip(formed) {
        assert!(n > 0, "the corpus forms no `{b}`");
    }
}
