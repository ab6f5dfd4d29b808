//! Source audit of `loopir`'s `unsafe` code (ROADMAP item 5).
//!
//! The engines' memory safety rests on a short list of raw-pointer and
//! `target_feature` sites. This scan keeps the list short and keeps every
//! entry explained: each line of code that says `unsafe` must sit directly
//! under a `// SAFETY:` comment (attribute lines may come between) that
//! names what discharges it — a verifier phase or a runtime check — and
//! the scalar dispatch loop in `vm.rs` must need none at all.

use std::path::PathBuf;

/// The `unsafe` sites of the lane and tile code: `par` 4 (`Batch: Send +
/// Sync`, tile load, tile store), `simd` 4 (strip load, strip store, the
/// AVX2 `target_feature` wrapper of the strip loop and its call site).
const MAX_SITES: usize = 8;

fn code_part(line: &str) -> &str {
    line.split("//").next().unwrap_or("")
}

fn says_unsafe(line: &str) -> bool {
    code_part(line)
        .split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == "unsafe")
}

/// The comment block directly above line `i`, skipping attribute lines.
fn comment_above(lines: &[&str], i: usize) -> String {
    let mut j = i;
    while j > 0 && lines[j - 1].trim_start().starts_with("#[") {
        j -= 1;
    }
    let mut block = Vec::new();
    while j > 0 && lines[j - 1].trim_start().starts_with("//") {
        j -= 1;
        block.push(lines[j].trim_start());
    }
    block.reverse();
    block.join("\n")
}

#[test]
fn every_unsafe_site_names_what_discharges_it() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/loopir/src");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    files.sort();
    assert!(files.len() >= 8, "scan found {files:?}");

    let mut sites = 0;
    for path in &files {
        let text = std::fs::read_to_string(path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let name = path.file_name().unwrap().to_str().unwrap();
        for (i, line) in lines.iter().enumerate() {
            if !says_unsafe(line) {
                continue;
            }
            sites += 1;
            let at = format!("{name}:{}: `{}`", i + 1, line.trim());
            assert_ne!(name, "vm.rs", "{at}: scalar dispatch must stay safe code");
            let why = comment_above(&lines, i);
            assert!(why.contains("SAFETY:"), "{at} has no `// SAFETY:` comment");
            assert!(
                why.contains("phase") || why.contains("runtime check"),
                "{at}: the SAFETY comment names neither a verifier phase nor a \
                 runtime check:\n{why}"
            );
        }
    }
    assert!(
        (1..=MAX_SITES).contains(&sites),
        "{sites} unsafe sites in crates/loopir/src (at most {MAX_SITES})"
    );
}
