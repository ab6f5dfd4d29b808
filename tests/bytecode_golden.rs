//! Golden `--print bytecode` snapshots: the superinstruction/lane form of
//! the compiled bytecode for selected paper benchmarks at `c2+f3` is
//! pinned under `tests/golden/`. Any change to the bytecode compiler, the
//! superinstruction peephole, the lane vectorizer, or the disassembler
//! shows up as a readable diff here instead of a silent ISA change.
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test bytecode_golden`.

use std::path::PathBuf;
use std::process::Command;

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
    // The plain `vm` disassembly of `simple` must contain no
    // superinstructions, and the `vm-simd` one must contain at least one
    // superinstruction and one simd annotation — the two tiers really are
    // two encodings of the same program.
    let bench = zpl_fusion::workloads::by_name("simple").unwrap();
    let plain = disasm("encoding", bench.name, bench.source, "vm");
    let fused = disasm("encoding", bench.name, bench.source, "vm-simd");
    for mnemonic in ["ld.ld.bin", "ld.bin", "bin.bin", "bin.st", "ld.st"] {
        assert!(
            !plain.contains(mnemonic),
            "plain bytecode contains superinstruction `{mnemonic}`:\n{plain}"
        );
    }
    assert!(
        plain.contains("0 simd loops"),
        "plain bytecode carries simd annotations:\n{plain}"
    );
    assert!(
        fused.contains("simd s0:"),
        "superfused bytecode has no simd annotation:\n{fused}"
    );
    assert!(
        ["ld.ld.bin", "ld.bin", "bin.bin", "bin.st", "ld.st"]
            .iter()
            .any(|m| fused.contains(m)),
        "superfused bytecode has no superinstructions:\n{fused}"
    );
}
