//! Golden `--print bytecode` snapshots: the lowered bytecode (the one
//! superinstruction/lane stream every VM engine name runs) of selected
//! paper benchmarks at `c2+f3` is pinned under `tests/golden/`. Any change
//! to the bytecode compiler, the superinstruction peephole, the lane
//! vectorizer, or the disassembler shows up as a readable diff here
//! instead of a silent ISA change.
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
