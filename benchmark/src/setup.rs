//! Workload set-up: inputs, reference results, the one-time compile, the
//! exact counts, and the composite (untraced) request of each workload.

use crate::workloads::{Class, Kind, Workload};
use fusion_core::supervisor::estimate_alloc_bytes;
use fusion_core::{CachedProgram, CompileCache, RunRequest};
use loopir::{NoopObserver, Vm};
use runtime::ExecConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use zlang::ir::Program;

/// Processors of the simulated machine (the paper's Figure 9 midpoint).
const SIM_PROCS: u64 = 16;

pub fn bits(scalars: &[f64]) -> Vec<u64> {
    scalars.iter().map(|s| s.to_bits()).collect()
}

fn hex(words: &[u64]) -> String {
    let parts: Vec<String> = words.iter().map(|w| format!("{w:016x}")).collect();
    parts.join(" ")
}

fn unhex(field: &str) -> Result<Vec<u64>, String> {
    field
        .split_whitespace()
        .map(|w| u64::from_str_radix(w, 16).map_err(|e| format!("bad hex word `{w}`: {e}")))
        .collect()
}

fn expected_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{workload}.bits"))
}

/// The simulation config of a request: T3E preset, 16 processors.
pub fn sim_config(req: &RunRequest) -> ExecConfig {
    ExecConfig::from_request(req, machine::presets::t3e(), SIM_PROCS)
}

/// The reference result of a key: the unfused program (`baseline`) on the
/// tree-walker (`interp`) - independent of fusion, bytecode, lanes and
/// tiles.
fn reference(class: &Class) -> Result<Vec<u64>, String> {
    let mut req = RunRequest::new()
        .with_level_spec("baseline")?
        .with_engine_name("interp")?;
    req.sets = class.req.sets.clone();
    cold_request(&class.source, &req)
}

/// Source text to result bits on an empty cache.
fn cold_request(source: &str, req: &RunRequest) -> Result<Vec<u64>, String> {
    let program = zlang::compile(source).map_err(|e| e.to_string())?;
    let (cached, _) = CompileCache::new()
        .get_or_compile(&program, req)
        .map_err(|e| e.to_string())?;
    execute(&cached, req)
}

/// A fresh executor over a compiled program, run to its result bits.
fn execute(cached: &CachedProgram, req: &RunRequest) -> Result<Vec<u64>, String> {
    let out = cached
        .executor(req.exec_opts())
        .execute(&mut NoopObserver)
        .map_err(|e| e.to_string())?;
    Ok(bits(&out.scalars))
}

/// `reference` sub-command: prints `ref_key<TAB>bits` for the workload's
/// reference keys. Run as a child so the tree-walker's unfused arrays
/// never count towards the measuring process's `VmHWM`.
pub fn print_references(workload: &Workload, seed: u64) -> Result<(), String> {
    let mut done: Vec<&str> = Vec::new();
    for i in workload.reference_classes(seed) {
        let class = &workload.classes[i];
        if done.contains(&class.ref_key.as_str()) {
            continue;
        }
        done.push(&class.ref_key);
        println!("{}\t{}", class.ref_key, hex(&reference(class)?));
    }
    Ok(())
}

fn child_references(workload: &Workload, seed: u64) -> Result<HashMap<String, Vec<u64>>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["reference", "--workload", workload.name, "--seed"])
        .arg(seed.to_string())
        .output()
        .map_err(|e| format!("cannot start the reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "reference child failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let mut refs = HashMap::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let (key, words) = line.split_once('\t').ok_or("malformed reference line")?;
        refs.insert(key.to_string(), unhex(words)?);
    }
    Ok(refs)
}

/// One committed expected result: the scalar bits, then (for
/// `sim_observed`) the simulated counters.
#[derive(Clone)]
struct Expected {
    scalars: Vec<u64>,
    extras: Vec<u64>,
}

fn load_expected(workload: &Workload) -> Result<Vec<Expected>, String> {
    let path = expected_path(workload.name);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `bless`)", path.display()))?;
    let mut by_name = HashMap::new();
    for line in text.lines() {
        let mut fields = line.split('\t');
        let (Some(name), Some(scalars), Some(extras)) =
            (fields.next(), fields.next(), fields.next())
        else {
            return Err(format!("malformed line in {}", path.display()));
        };
        by_name.insert(
            name,
            Expected {
                scalars: unhex(scalars)?,
                extras: unhex(extras)?,
            },
        );
    }
    workload
        .classes
        .iter()
        .map(|c| {
            by_name
                .get(c.name.as_str())
                .cloned()
                .ok_or_else(|| format!("{} has no entry for {}", path.display(), c.name))
        })
        .collect()
}

fn write_expected(workload: &Workload, expected: &[Expected]) -> Result<(), String> {
    let mut text = String::new();
    for (c, e) in workload.classes.iter().zip(expected) {
        text += &format!("{}\t{}\t{}\n", c.name, hex(&e.scalars), hex(&e.extras));
    }
    let path = expected_path(workload.name);
    std::fs::create_dir_all(path.parent().expect("expected/ directory"))
        .map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A workload ready to serve requests.
pub struct Prepared<'w> {
    pub workload: &'w Workload,
    /// The committed expected result of every key.
    expected: Vec<Expected>,
    /// The setup-time compile, for the count keys (all keys except on
    /// `serve_sizes`).
    pub compiled: Vec<Option<Arc<CachedProgram>>>,
    /// The cache `serve_sizes` serves from (default 256 entries).
    pub serve_cache: Arc<CompileCache>,
    /// Sum of `Vm::code_len()` over the count keys.
    pub code_ops: u64,
    /// Sum of `estimate_alloc_bytes` over the count keys (Figure 8).
    pub array_bytes: u64,
    /// Keys whose interp/baseline reference disagreed with the committed
    /// expected bits.
    pub stale_expected: Vec<String>,
}

impl<'w> Prepared<'w> {
    /// Builds inputs, checks the committed expected bits against a fresh
    /// interp/baseline reference, compiles what the workload compiles
    /// once, and takes the exact counts.
    pub fn new(workload: &'w Workload, seed: u64) -> Result<Self, String> {
        let expected = load_expected(workload)?;
        let refs = child_references(workload, seed)?;
        let mut stale_expected = Vec::new();
        for i in workload.reference_classes(seed) {
            let class = &workload.classes[i];
            if refs.get(&class.ref_key) != Some(&expected[i].scalars) {
                stale_expected.push(class.name.clone());
            }
        }
        let mut prepared = Prepared::compile(workload)?;
        prepared.expected = expected;
        prepared.stale_expected = stale_expected;
        Ok(prepared)
    }

    /// Parses and compiles without any expected results (`bless` starts
    /// here).
    pub fn compile(workload: &'w Workload) -> Result<Self, String> {
        // Keys of one program share its source text, parsed once.
        let mut parsed: Vec<(*const u8, Program)> = Vec::new();
        let cache = CompileCache::with_shards(8, workload.classes.len().max(32));
        let mut compiled = vec![None; workload.classes.len()];
        let (mut code_ops, mut array_bytes) = (0u64, 0u64);
        for i in workload.count_classes() {
            let class = &workload.classes[i];
            let err = |e: &dyn std::fmt::Display| format!("{}: {e}", class.name);
            let at = class.source.as_ptr();
            let slot = match parsed.iter().position(|(p, _)| *p == at) {
                Some(slot) => slot,
                None => {
                    parsed.push((at, zlang::compile(&class.source).map_err(|e| err(&e))?));
                    parsed.len() - 1
                }
            };
            let (cached, _) = cache
                .get_or_compile(&parsed[slot].1, &class.req)
                .map_err(|e| err(&e))?;
            if let Some(shared) = &cached.shared {
                code_ops += Vm::from_shared(shared).code_len() as u64;
            }
            array_bytes += estimate_alloc_bytes(&cached.scalarized, &cached.binding);
            compiled[i] = Some(cached);
        }
        Ok(Prepared {
            workload,
            expected: Vec::new(),
            compiled,
            serve_cache: Arc::new(CompileCache::new()),
            code_ops,
            array_bytes,
            stale_expected: Vec::new(),
        })
    }

    /// The workload's composite request for key `i`, through public entry
    /// points only; returns the result words (scalar bits, then for
    /// `sim_observed` the simulated counters).
    pub fn request(&self, i: usize) -> Result<Vec<u64>, String> {
        let class = &self.workload.classes[i];
        let req = &class.req;
        match self.workload.kind {
            Kind::Exec => {
                let cached = self.compiled[i]
                    .as_ref()
                    .expect("exec keys compile in setup");
                execute(cached, req)
            }
            Kind::Cold => cold_request(&class.source, req),
            Kind::Serve => {
                let run = req
                    .supervisor()
                    .with_cache(self.serve_cache.clone())
                    .run_source(&class.source)
                    .map_err(|e| e.to_string())?;
                if run.report.degraded() {
                    return Err(format!("{} degraded", class.name));
                }
                Ok(bits(&run.outcome.scalars))
            }
            Kind::Sim => {
                let cached = self.compiled[i]
                    .as_ref()
                    .expect("sim keys scalarize in setup");
                let (out, sim) = runtime::simulate_outcome(
                    &cached.scalarized,
                    cached.binding.clone(),
                    &sim_config(req),
                )
                .map_err(|e| e.to_string())?;
                let mut words = bits(&out.scalars);
                words.extend(sim_words(&sim));
                Ok(words)
            }
        }
    }

    /// Whether `words` (what [`Prepared::request`] returns) are the
    /// expected result of key `i`.
    pub fn correct(&self, i: usize, words: &[u64]) -> bool {
        let e = &self.expected[i];
        words.len() == e.scalars.len() + e.extras.len()
            && words[..e.scalars.len()] == e.scalars[..]
            && words[e.scalars.len()..] == e.extras[..]
    }

    /// Whether `scalars` are the expected scalar bits of key `i`.
    pub fn correct_scalars(&self, i: usize, scalars: &[u64]) -> bool {
        self.expected[i].scalars == scalars
    }
}

/// The exact simulated outputs pinned for `sim_observed`.
pub fn sim_words(sim: &runtime::SimResult) -> [u64; 5] {
    [
        sim.mem.l1_misses,
        sim.mem.l2_misses,
        sim.total_ns.to_bits(),
        sim.comm.messages,
        sim.comm.bytes,
    ]
}

/// `bless`: recomputes every key's interp/baseline reference, checks the
/// workload's own composite request against it, and rewrites the
/// committed expected file.
pub fn bless(workload: &Workload) -> Result<(), String> {
    let prepared = Prepared::compile(workload)?;
    let mut refs: HashMap<&str, Vec<u64>> = HashMap::new();
    let mut expected = Vec::new();
    for (i, class) in workload.classes.iter().enumerate() {
        if !refs.contains_key(class.ref_key.as_str()) {
            refs.insert(&class.ref_key, reference(class)?);
        }
        let scalars = refs[class.ref_key.as_str()].clone();
        // `serve_sizes` only compiles its count keys in setup; its
        // composite request compiles the rest through the serve cache.
        let words = prepared
            .request(i)
            .map_err(|e| format!("{}: {e}", class.name))?;
        if words[..scalars.len()] != scalars[..] {
            return Err(format!(
                "{}: the composite request disagrees with interp/baseline",
                class.name
            ));
        }
        let extras = words[scalars.len()..].to_vec();
        expected.push(Expected { scalars, extras });
    }
    write_expected(workload, &expected)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
