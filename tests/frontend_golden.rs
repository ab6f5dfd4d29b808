//! The front end's outputs, pinned: `frontend.digests.txt` holds one line
//! per source program (its token count, `program_hash` and a digest of
//! every field of the `ir::Program` that lexing, parsing and semantic
//! analysis produce, the name table included), then one line per error
//! case (the exact `Error` text a truncated or mutated source gets).
//!
//! Regenerate with `ZLC_BLESS=1 cargo test --test frontend_golden`. A
//! change that only makes the front end faster must not re-bless it: run
//! the test on the parent first, and if it fails after the change, the
//! change is wrong.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use testkit::{genprog, Rng};
use zpl_fusion::fusion::hash::program_hash;
use zpl_fusion::lang::intern::Symbol;
use zpl_fusion::lang::ir::Program;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/frontend.digests.txt")
}

/// FNV-1a over the rendered record, so a pinned line stays one hex word.
fn fnv(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The six paper benchmarks and the example programs: the sources the
/// error cases are cut from.
fn handwritten() -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = zpl_fusion::workloads::all()
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
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
        out.push((name, std::fs::read_to_string(&f).unwrap()));
    }
    out
}

/// Every source the digests cover: the handwritten programs, the 18
/// generated programs of the benchmark's `compile_cold` workload (seeds
/// `0x5EED_0000 + i`, stencil-shaped below 9), and 120 seeds of each
/// `genprog` generator.
fn corpus() -> Vec<(String, String)> {
    let mut out = handwritten();
    for i in 0..18u64 {
        let mut rng = Rng::new(0x5EED_0000 + i);
        let source = if i < 9 {
            genprog::generate_stencil(&mut rng)
        } else {
            genprog::generate(&mut rng)
        };
        out.push((format!("cold{i:02}"), source));
    }
    for seed in 0..120 {
        out.push((
            format!("random-{seed}"),
            genprog::generate(&mut Rng::new(seed)),
        ));
        out.push((
            format!("stencil-{seed}"),
            genprog::generate_stencil(&mut Rng::new(seed)),
        ));
    }
    out
}

/// The name table in symbol order. The table has no iterator, so every
/// word of the source is probed; sema interns only declared names, and
/// each declaration spells its name as a whole word, so the probe must
/// find symbols `0..k` with no gap.
fn name_table(p: &Program, source: &str) -> String {
    let mut found: BTreeMap<u32, &str> = BTreeMap::new();
    let words = source
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'));
    for w in words {
        if let Some(sym) = p.names.symbol(w) {
            found.insert(sym.0, w);
        }
    }
    let mut out = String::new();
    for (k, (&i, name)) in found.iter().enumerate() {
        assert_eq!(i as usize, k, "{}: symbol {k} is not a source word", p.name);
        let s = Symbol(i);
        let _ = writeln!(
            out,
            "sym {i} {name} array {:?} scalar {:?} region {:?} config {:?}",
            p.names.array(s),
            p.names.scalar(s),
            p.names.region(s),
            p.names.config(s)
        );
    }
    out
}

/// Every field of the program. `{:?}` of the declarations and the
/// statement tree is exact (floats print round-trip); the name table's
/// own `{:?}` is a hash map's, so it is rendered in symbol order instead.
fn ir_record(p: &Program, source: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "name {:?}", p.name);
    let _ = writeln!(out, "configs {:?}", p.configs);
    let _ = writeln!(out, "regions {:?}", p.regions);
    let _ = writeln!(out, "arrays {:?}", p.arrays);
    let _ = writeln!(out, "scalars {:?}", p.scalars);
    let _ = writeln!(out, "body {:?}", p.body);
    out.push_str(&name_table(p, source));
    out
}

/// What the front end makes of one source: the exact error text, or the
/// program's hash.
fn outcome(source: &str) -> String {
    match zpl_fusion::lang::compile(source) {
        Ok(p) => format!("ok {:016x}", program_hash(&p)),
        Err(e) => e.to_string(),
    }
}

/// Byte offset of each token's first character (positions are 1-based
/// line and byte column).
fn token_offsets(source: &str) -> Vec<usize> {
    let mut line_starts = vec![0];
    line_starts.extend(source.match_indices('\n').map(|(i, _)| i + 1));
    zpl_fusion::lang::lexer::lex(source)
        .unwrap()
        .iter()
        .map(|t| line_starts[t.pos.line as usize - 1] + t.pos.col as usize - 1)
        .collect()
}

/// Byte ranges of `--` comments (to the end of the line).
fn comment_ranges(source: &str) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(i) = source[from..].find("--") {
        let start = from + i;
        let end = source[start..]
            .find('\n')
            .map_or(source.len(), |j| start + j);
        out.push((start + 2, end));
        from = end;
    }
    out
}

/// Single-byte mutations at fixed-seed positions: `#` and `(` over any
/// byte, a tab over a space, `\r\n` for a newline, and non-ASCII
/// characters inside a comment and outside one.
fn mutations(name: &str, source: &str) -> Vec<(String, String)> {
    let bytes = source.as_bytes();
    let at = |pred: &dyn Fn(usize) -> bool| -> Vec<usize> {
        (0..bytes.len())
            .filter(|&i| bytes[i].is_ascii() && pred(i))
            .collect()
    };
    let comments = comment_ranges(source);
    let in_comment = |i: usize| comments.iter().any(|&(s, e)| s <= i && i < e);
    let any = at(&|_| true);
    let spaces = at(&|i| bytes[i] == b' ');
    let newlines = at(&|i| bytes[i] == b'\n');
    let commented = at(&|i| in_comment(i));
    let code = at(&|i| !in_comment(i));
    let kinds: [(&str, &[usize], &[&str]); 6] = [
        ("hash", &any, &["#"]),
        ("paren", &any, &["("]),
        ("tab", &spaces, &["\t"]),
        ("crlf", &newlines, &["\r\n"]),
        ("utf8-comment", &commented, &["é", "λ", "€", "😀"]),
        ("utf8-code", &code, &["é", "λ", "€", "😀"]),
    ];
    let seed = fnv(name);
    let mut out = Vec::new();
    for (k, (kind, sites, with)) in kinds.iter().enumerate() {
        if sites.is_empty() {
            continue;
        }
        let mut rng = Rng::new(seed ^ k as u64);
        for m in 0..8 {
            let i = sites[rng.below(sites.len())];
            let w = with[m % with.len()];
            let mutated = format!("{}{w}{}", &source[..i], &source[i + 1..]);
            out.push((format!("{kind}@{i}"), mutated));
        }
    }
    out
}

#[test]
fn frontend_outputs_match_pinned_digests() {
    let path = golden_path();
    let mut got = String::new();
    for (name, source) in corpus() {
        let tokens = zpl_fusion::lang::lexer::lex(&source).unwrap().len();
        let p = zpl_fusion::lang::compile(&source)
            .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
        let _ = writeln!(
            got,
            "{name} tokens {tokens} hash {:016x} ir {:016x}",
            program_hash(&p),
            fnv(&ir_record(&p, &source))
        );
    }
    for (name, source) in handwritten() {
        for cut in token_offsets(&source) {
            let _ = writeln!(got, "{name} cut@{cut} {}", outcome(&source[..cut]));
        }
        for (case, mutated) in mutations(&name, &source) {
            let _ = writeln!(got, "{name} {case} {}", outcome(&mutated));
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
        "front-end outputs drifted from {path:?} ({} line(s)):\n{}",
        drifted.len(),
        drifted.join("\n")
    );
}
