//! The five workloads: their request tables, the seeded traffic over
//! them, and the digests that pin both.
//!
//! Engines and levels are named by their CLI strings only
//! (`with_engine_name("vm-simd")`, `with_level_spec("c2+f3")`), never by
//! `Engine::`/`Level::` variants, so a later collapse of those enums
//! cannot break the harness.

use crate::stats::Fnv;
use fusion_core::RunRequest;
use std::sync::Arc;
use testkit::genprog;
use testkit::Rng;

pub const DEFAULT_SEED: u64 = 1998;

/// Name and one-line reason of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "exec_lanes",
        "SIMPLE/Tomcatv n=256 and SP n=24 at c2+f3 on vm-simd, compiled once: arrays exceed L2, so loopir dispatch and lane kernels are >99% of the time",
    ),
    (
        "exec_tiles",
        "the same bytecode on vm-par with min(nproc,4) threads: pool, tile scheduling and stats merge sit on the blocking path (tiling tax, lanes x tiles)",
    ),
    (
        "compile_cold",
        "96 tiny programs (6 paper + 18 generated, 4 levels) from source text on an empty cache: zlang, passes, bytecode, superfuse, verifier dominate; the VM does little",
    ),
    (
        "serve_sizes",
        "closed loop through serve_with, Zipf sizes over 492 keys > 256 cache entries: cache lookup, supervisor, queue and Vm::from_shared dominate p50, cold misses p90",
    ),
    (
        "sim_observed",
        "the paper's Figure 9 path: 6 benchmarks x baseline/c2+f3 under runtime::simulate (T3E, 16 procs) on vm; lanes and tiles stand down, every access is observed",
    ),
];

/// Requests per `serve_sizes` batch and Zipf ranks per program.
pub const BATCH: usize = 300;
const ZIPF_RANKS: usize = 96;
/// Interp/baseline reference keys recomputed per program in every
/// `serve_sizes` setup (the rest are covered by the committed expected
/// bits, which `bless` derives from the same reference).
const SERVE_SPOT_KEYS: usize = 8;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Compiled once in setup; a request is executor construction + run.
    Exec,
    /// A request is source text to result on an empty cache.
    Cold,
    /// Requests go through `serve_with` in seeded batches.
    Serve,
    /// A request is one `runtime::simulate_outcome` call.
    Sim,
}

/// One key of a workload: a program source under a complete run request.
pub struct Class {
    /// Unique within the workload, e.g. `simple/c2+f3/n=256`.
    pub name: String,
    /// Row of the request table this key reports under (for
    /// `serve_sizes` the program; otherwise the key itself).
    pub row: usize,
    pub source: Arc<str>,
    pub req: RunRequest,
    /// Identifies the interp/baseline reference result: keys that differ
    /// only in level or engine share one.
    pub ref_key: String,
}

pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// How many threads serve the workload, as a rule ("1",
    /// "min(nproc,4)"). The pinned table digest hashes the rule, never
    /// the count it resolves to on the host at hand.
    pub thread_rule: &'static str,
    /// What the rule resolves to here; printed beside the digest.
    pub threads: usize,
    pub rows: Vec<String>,
    pub classes: Vec<Class>,
    /// `serve_sizes` only: `[program][zipf rank] -> class index`.
    serve_index: Vec<Vec<usize>>,
}

/// Thread rule and count of a workload served by one thread.
const SERIAL: (&str, usize) = ("1", 1);

/// Worker/tile thread count: `min(nproc, 4)`.
pub fn threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(4)
}

fn request(level: &str, engine: &str, sets: &[(&str, i64)]) -> RunRequest {
    let mut req = RunRequest::new()
        .with_level_spec(level)
        .expect("harness level spec")
        .with_engine_name(engine)
        .expect("harness engine name");
    for (name, value) in sets {
        req = req.with_set(name, *value);
    }
    req
}

fn sets_label(sets: &[(&str, i64)]) -> String {
    let parts: Vec<String> = sets.iter().map(|(k, v)| format!("{k}={v}")).collect();
    parts.join(",")
}

fn class(
    program: &str,
    source: &Arc<str>,
    level: &str,
    engine: &str,
    sets: &[(&str, i64)],
    row: usize,
) -> Class {
    let label = sets_label(sets);
    Class {
        name: format!("{program}/{level}/{label}"),
        row,
        source: source.clone(),
        req: request(level, engine, sets),
        ref_key: format!("{program}/{label}"),
    }
}

/// Size and one-outer-iteration overrides for a paper benchmark.
fn sized(b: &benchmarks::Benchmark, n: i64, one_iteration: bool) -> Vec<(&'static str, i64)> {
    let mut sets = vec![(b.size_config, n)];
    if let (true, Some(iters)) = (one_iteration, b.iters_config) {
        sets.push((iters, 1));
    }
    sets
}

fn exec(name: &'static str, engine: &str, tiled: bool) -> Workload {
    let (thread_rule, threads) = if tiled {
        ("min(nproc,4)", threads())
    } else {
        SERIAL
    };
    let mut classes = Vec::new();
    for (bench, n) in [("simple", 256), ("tomcatv", 256), ("sp", 24)] {
        let b = benchmarks::by_name(bench).expect("paper benchmark");
        let source: Arc<str> = b.source.into();
        let mut c = class(
            b.name,
            &source,
            "c2+f3",
            engine,
            &sized(&b, n, false),
            classes.len(),
        );
        c.req = c.req.with_threads(threads);
        classes.push(c);
    }
    Workload {
        thread_rule,
        threads,
        ..table(name, Kind::Exec, classes)
    }
}

fn compile_cold() -> Workload {
    let mut classes = Vec::new();
    let mut at_every_level = |program: &str, source: Arc<str>, sets: &[(&str, i64)]| {
        for level in ["baseline", "c2", "c2+f3", "c2+f3+rce2"] {
            let row = classes.len();
            classes.push(class(program, &source, level, "vm-simd", sets, row));
        }
    };
    for b in benchmarks::all() {
        let n = match b.rank {
            1 => 64,
            2 => 8,
            _ => 4,
        };
        at_every_level(b.name, b.source.into(), &sized(&b, n, true));
    }
    // The generated programs are a fixed set (their own constant seeds);
    // `--seed` only reorders requests, so code_ops and array_bytes stay
    // comparable across seeds.
    for i in 0..18u64 {
        let mut rng = Rng::new(0x5EED_0000 + i);
        let source = if i < 9 {
            genprog::generate_stencil(&mut rng)
        } else {
            genprog::generate(&mut rng)
        };
        at_every_level(&format!("gen{i:02}"), source.into(), &[("n", 8)]);
    }
    table("compile_cold", Kind::Cold, classes)
}

/// Problem size of Zipf rank `k` (0 = most popular = smallest). Rank 3
/// grows as n^3, so SP gets 12 distinct sizes, each shared by 8 ranks.
fn serve_size(rank: usize, k: usize) -> i64 {
    match rank {
        1 => 64 + 16 * k as i64,
        2 => 8 + k as i64,
        _ => 4 + (k / 8) as i64,
    }
}

fn serve_sizes() -> Workload {
    let mut classes: Vec<Class> = Vec::new();
    let mut rows = Vec::new();
    let mut serve_index = Vec::new();
    for (row, b) in benchmarks::all().iter().enumerate() {
        rows.push(b.name.to_string());
        let source: Arc<str> = b.source.into();
        let mut by_rank = Vec::new();
        for k in 0..ZIPF_RANKS {
            let n = serve_size(b.rank, k);
            let c = class(b.name, &source, "c2+f3", "vm-simd", &sized(b, n, true), row);
            match classes.iter().position(|have| have.name == c.name) {
                Some(i) => by_rank.push(i),
                None => {
                    by_rank.push(classes.len());
                    classes.push(c);
                }
            }
        }
        serve_index.push(by_rank);
    }
    Workload {
        name: "serve_sizes",
        kind: Kind::Serve,
        thread_rule: "workers=min(nproc,4)",
        threads: threads(),
        rows,
        classes,
        serve_index,
    }
}

fn sim_observed() -> Workload {
    let mut classes = Vec::new();
    for b in benchmarks::all() {
        let block = match b.rank {
            1 => 8192,
            2 => 40,
            _ => 10,
        };
        let source: Arc<str> = b.source.into();
        for level in ["baseline", "c2+f3"] {
            classes.push(class(
                b.name,
                &source,
                level,
                "vm",
                &sized(&b, block, false),
                classes.len(),
            ));
        }
    }
    table("sim_observed", Kind::Sim, classes)
}

/// A workload whose request table has one row per key.
fn table(name: &'static str, kind: Kind, classes: Vec<Class>) -> Workload {
    Workload {
        name,
        kind,
        thread_rule: SERIAL.0,
        threads: SERIAL.1,
        rows: classes.iter().map(|c| c.name.clone()).collect(),
        classes,
        serve_index: Vec::new(),
    }
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        Some(match name {
            "exec_lanes" => exec("exec_lanes", "vm-simd", false),
            "exec_tiles" => exec("exec_tiles", "vm-par", true),
            "compile_cold" => compile_cold(),
            "serve_sizes" => serve_sizes(),
            "sim_observed" => sim_observed(),
            _ => return None,
        })
    }

    /// Threads one request keeps busy; calibrations run on as many.
    /// (`serve_sizes` runs `min(nproc, 4)` workers, but each request is
    /// served by one of them.)
    pub fn request_threads(&self) -> usize {
        self.classes
            .iter()
            .map(|c| c.req.threads)
            .max()
            .unwrap_or(1)
            .max(1)
    }

    /// The keys whose compiled form defines `code_ops` and `array_bytes`
    /// (seed-independent): every key, or for `serve_sizes` each
    /// program's most popular size.
    pub fn count_classes(&self) -> Vec<usize> {
        match self.kind {
            Kind::Serve => self.serve_index.iter().map(|ranks| ranks[0]).collect(),
            _ => (0..self.classes.len()).collect(),
        }
    }

    /// The keys whose interp/baseline reference is recomputed in setup:
    /// every key, or for `serve_sizes` a seeded spot check per program
    /// (the most popular size plus one key from each further stratum of
    /// ranks).
    pub fn reference_classes(&self, seed: u64) -> Vec<usize> {
        if self.kind != Kind::Serve {
            return (0..self.classes.len()).collect();
        }
        // One key per stratum of ranks, so every seed pays about the
        // same for its references and `setup_s` stays comparable.
        let mut rng = Rng::new(seed ^ 0x5107);
        let stratum = ZIPF_RANKS / SERVE_SPOT_KEYS;
        let mut keys = Vec::new();
        for ranks in &self.serve_index {
            keys.push(ranks[0]);
            for s in 1..SERVE_SPOT_KEYS {
                keys.push(ranks[s * stratum + rng.below(stratum)]);
            }
        }
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// The keys the traced replay walks: every key, or for `serve_sizes`
    /// the distinct keys of the first seeded batch, most popular first,
    /// capped so one replay round stays short.
    pub fn trace_classes(&self, seed: u64) -> Vec<usize> {
        let mut keys = Traffic::new(self, seed).next_round();
        if self.kind == Kind::Serve {
            keys.sort_unstable();
            keys.dedup();
            keys.truncate(48);
        }
        keys
    }

    /// Digest of the request table: the thread rule and every key's name,
    /// source text, level spec, engine, lanes and overrides. Independent
    /// of `--seed` and of the host: the resolved thread count is not
    /// hashed, so a baseline blessed on 2 cores pins the same digest on 64.
    pub fn table_digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.str(self.name);
        h.str(self.thread_rule);
        for c in &self.classes {
            h.str(&c.name);
            h.str(&c.source);
            h.str(&c.req.level_spec());
            h.str(&c.req.engine.to_string());
            h.u64(c.req.lanes as u64);
            for (name, value) in &c.req.sets {
                h.str(name);
                h.u64(*value as u64);
            }
            h.u64(c.row as u64);
        }
        h.finish()
    }

    /// Digest of the seeded traffic: the first four rounds (request
    /// orders or batches) the seed produces.
    pub fn traffic_digest(&self, seed: u64) -> u64 {
        let mut traffic = Traffic::new(self, seed);
        let mut h = Fnv::new();
        for _ in 0..4 {
            for i in traffic.next_round() {
                h.u64(i as u64);
            }
        }
        h.finish()
    }
}

/// The seeded request stream over a workload's table.
pub struct Traffic<'w> {
    workload: &'w Workload,
    rng: Rng,
    /// Cumulative Zipf(1) weights over the ranks.
    zipf: Vec<f64>,
}

impl<'w> Traffic<'w> {
    pub fn new(workload: &'w Workload, seed: u64) -> Self {
        let mut total = 0.0;
        let zipf = (1..=ZIPF_RANKS)
            .map(|r| {
                total += 1.0 / r as f64;
                total
            })
            .collect();
        Traffic {
            workload,
            rng: Rng::new(seed),
            zipf,
        }
    }

    /// The next round as class indices: a fresh permutation of the table,
    /// or for `serve_sizes` a batch (program uniform, size rank Zipf(1)).
    pub fn next_round(&mut self) -> Vec<usize> {
        if self.workload.kind == Kind::Serve {
            let total = *self.zipf.last().expect("zipf weights");
            return (0..BATCH)
                .map(|_| {
                    let program = self.rng.below(self.workload.serve_index.len());
                    let u = self.rng.f64(0.0, total);
                    let rank = self.zipf.partition_point(|&w| w <= u);
                    self.workload.serve_index[program][rank.min(ZIPF_RANKS - 1)]
                })
                .collect();
        }
        let mut order: Vec<usize> = (0..self.workload.classes.len()).collect();
        shuffle(&mut self.rng, &mut order);
        order
    }
}

/// Fisher-Yates over the seeded stream.
pub fn shuffle(rng: &mut Rng, xs: &mut [usize]) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i + 1));
    }
}
