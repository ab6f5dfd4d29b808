//! The traced run: replays a workload's keys layer by layer, one span per
//! call into a public function, and aggregates the per-layer metrics.
//!
//! Every round, for every key: the untraced composite request (the
//! baseline for `trace.overhead`), then a `request` root span holding the
//! layered equivalent of that request, then a `probe` root span holding
//! every other layer call and the eight engine configurations. All steps
//! read their inputs from per-key state built once at start-up, so any
//! subset can run in any order.

use crate::calib::Clock;
use crate::measure::{self, Measured};
use crate::metrics::{EXEC_CONFIGS, PER_LAYER};
use crate::setup::{bits, sim_config, sim_words, Prepared};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, Class, Kind};
use fusion_core::{CacheKey, CachedProgram, CompileCache};
use lazy::Batch;
use loopir::{ExecOpts, NoopObserver, ScalarProgram, Vm};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};
use testkit::Rng;
use zlang::ir::{ConfigBinding, Program};

/// Replay rounds are capped so `trace-*.jsonl` stays a few MB.
const MAX_ROUNDS: usize = 10;
const MIN_ROUNDS: usize = 2;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Step {
    Lex,
    Parse,
    Sema,
    Key,
    Optimize,
    Bytecode,
    Superfused,
    Verify,
    Share,
    /// `loopir.vm_construct` + `loopir.execute`.
    Run,
    CacheMiss,
    CacheHit,
    Supervisor,
    Simulate,
}

const ALL_STEPS: [Step; 14] = [
    Step::Lex,
    Step::Parse,
    Step::Sema,
    Step::Key,
    Step::Optimize,
    Step::Bytecode,
    Step::Superfused,
    Step::Verify,
    Step::Share,
    Step::Run,
    Step::CacheMiss,
    Step::CacheHit,
    Step::Supervisor,
    Step::Simulate,
];

/// What the harness must know about an engine to call its compile layers
/// one by one, keyed by the engine's CLI name.
struct EngineShape {
    has_vm: bool,
    superfused: bool,
    verified: bool,
}

impl EngineShape {
    fn of(engine: &str) -> Self {
        let superfused = matches!(engine, "vm-simd" | "vm-par");
        EngineShape {
            has_vm: engine != "interp",
            superfused,
            verified: superfused || engine == "vm-verified",
        }
    }
}

/// The layered equivalent of a workload's composite request.
fn request_steps(kind: Kind, shape: &EngineShape) -> Vec<Step> {
    match kind {
        Kind::Exec => vec![Step::Run],
        Kind::Serve => vec![
            Step::Lex,
            Step::Parse,
            Step::Sema,
            Step::Key,
            Step::CacheHit,
            Step::Run,
        ],
        Kind::Sim => vec![Step::Simulate],
        Kind::Cold => {
            let mut steps = vec![
                Step::Lex,
                Step::Parse,
                Step::Sema,
                Step::Key,
                Step::Optimize,
            ];
            if shape.has_vm {
                steps.push(if shape.superfused {
                    Step::Superfused
                } else {
                    Step::Bytecode
                });
            }
            if shape.verified {
                steps.push(Step::Verify);
            }
            steps.extend([Step::Share, Step::Run]);
            steps
        }
    }
}

/// Exact counts of one key; recomputed every round and required to
/// repeat (the determinism gate).
#[derive(Clone, PartialEq, Debug, Default)]
struct Counts {
    tokens: u64,
    ir_stmts: u64,
    stmts: u64,
    clusters: u64,
    nests: u64,
    contracted_arrays: u64,
    arrays_after: u64,
    asdg_builds: u64,
    rce2_rewrites: u64,
    rce2_temps: u64,
    code_ops: u64,
    points: u64,
    loads: u64,
    stores: u64,
    flops: u64,
    peak_bytes: u64,
    sim: [u64; 5],
    supervisor_attempts: u64,
    supervisor_degraded: u64,
}

/// Per-key replay state: the output of every layer, built once.
struct Replay {
    key: usize,
    shape: EngineShape,
    tokens: Vec<zlang::token::Token>,
    ast: zlang::ast::Program,
    program: Arc<Program>,
    binding: ConfigBinding,
    scalarized: Arc<ScalarProgram>,
    vm_plain: Vm,
    vm_super: Vm,
    cached: Arc<CachedProgram>,
    /// The key compiled under each of [`EXEC_CONFIGS`], with the
    /// configuration's execution options.
    configs: Vec<(Arc<CachedProgram>, ExecOpts)>,
    /// Simulated time of the key's program at level `baseline`.
    baseline_sim_ns: f64,
    counts: Counts,
    first_counts: Option<Counts>,
    composite_s: Vec<f64>,
}

struct Ctx<'a> {
    prepared: &'a Prepared<'a>,
    warm: Arc<CompileCache>,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
}

impl Ctx<'_> {
    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }
}

fn config_request(
    class: &Class,
    engine: &str,
    threads: usize,
    lanes: usize,
) -> fusion_core::RunRequest {
    let threads = if threads == usize::MAX {
        workloads::threads()
    } else {
        threads
    };
    class
        .req
        .clone()
        .with_engine_name(engine)
        .expect("harness engine name")
        .with_threads(threads)
        .with_lanes(lanes)
}

impl Replay {
    fn new(key: usize, ctx: &Ctx) -> Result<Self, String> {
        let class = &ctx.prepared.workload.classes[key];
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", class.name);
        let shape = EngineShape::of(&class.req.engine.to_string());
        let tokens = zlang::lexer::lex(&class.source).map_err(|e| err(&e))?;
        let ast = zlang::parser::parse(&tokens).map_err(|e| err(&e))?;
        let program = Arc::new(zlang::sema::analyze(&ast).map_err(|e| err(&e))?);
        let (cached, _) = ctx
            .warm
            .get_or_compile(&program, &class.req)
            .map_err(|e| err(&e))?;
        let binding = cached.binding.clone();
        let scalarized = cached.scalarized.clone();
        let vm_plain = Vm::new(&scalarized, binding.clone()).map_err(|e| err(&e))?;
        let vm_super = Vm::new_superfused(&scalarized, binding.clone()).map_err(|e| err(&e))?;
        let mut configs = Vec::new();
        for (_, engine, threads, lanes) in EXEC_CONFIGS {
            let req = config_request(class, engine, threads, lanes);
            let (cached, _) = ctx
                .warm
                .get_or_compile(&program, &req)
                .map_err(|e| err(&e))?;
            configs.push((cached, req.exec_opts()));
        }
        let baseline_req = class.req.clone().with_level_spec("baseline")?;
        let (baseline, _) = ctx
            .warm
            .get_or_compile(&program, &baseline_req)
            .map_err(|e| err(&e))?;
        let baseline_sim_ns = runtime::simulate(
            &baseline.scalarized,
            baseline.binding.clone(),
            &sim_config(&baseline_req),
        )
        .map_err(|e| err(&e))?
        .total_ns;
        Ok(Replay {
            key,
            shape,
            tokens,
            ast,
            program,
            binding,
            scalarized,
            vm_plain,
            vm_super,
            cached,
            configs,
            baseline_sim_ns,
            counts: Counts::default(),
            first_counts: None,
            composite_s: Vec::new(),
        })
    }

    fn engine_vm(&mut self) -> &mut Vm {
        if self.shape.superfused {
            &mut self.vm_super
        } else {
            &mut self.vm_plain
        }
    }

    /// Tiles the parallel configuration fans out into (exact; the last
    /// of [`EXEC_CONFIGS`] is the full `vm-par`).
    fn tiles(&self) -> Result<u64, String> {
        let (par, opts) = self.configs.last().expect("exec configs");
        let shared = par.shared.as_ref().ok_or("vm-par has no bytecode")?;
        let mut vm = Vm::from_shared(shared);
        vm.set_lanes(opts.lanes);
        vm.set_threads(opts.threads);
        vm.run(&mut NoopObserver).map_err(|e| e.to_string())?;
        Ok(vm.tile_stats().len() as u64)
    }

    fn step(&mut self, step: Step, ctx: &mut Ctx, parent: u32) -> Result<(), String> {
        let prepared = ctx.prepared;
        let class = &prepared.workload.classes[self.key];
        let req = &class.req;
        let tr = &mut ctx.tracer;
        match step {
            Step::Lex => {
                self.tokens = tr
                    .child("zlang.lex", parent, || zlang::lexer::lex(&class.source))
                    .map_err(|e| e.to_string())?;
                self.counts.tokens = self.tokens.len() as u64;
            }
            Step::Parse => {
                self.ast = tr
                    .child("zlang.parse", parent, || zlang::parser::parse(&self.tokens))
                    .map_err(|e| e.to_string())?;
            }
            Step::Sema => {
                let program = tr
                    .child("zlang.sema", parent, || zlang::sema::analyze(&self.ast))
                    .map_err(|e| e.to_string())?;
                self.counts.ir_stmts = program.body.len() as u64;
                self.program = Arc::new(program);
            }
            Step::Key => {
                let program = &self.program;
                self.binding = tr.child("cache.key", parent, || {
                    let binding = req.binding_for(program)?;
                    black_box(CacheKey::for_request(program, &binding, req));
                    Ok::<_, String>(binding)
                })?;
            }
            Step::Optimize => {
                let id = tr.open("core.optimize", parent);
                let opt = req.pipeline().optimize(&self.program);
                tr.close(id);
                // The per-pass times are part of the public return value;
                // lay them out as child spans from the call's start.
                let mut at = tr.spans[id as usize].start_ns;
                for pass in &opt.passes {
                    let ns = pass.duration.as_nanos() as u64;
                    tr.reported(&format!("core.pass.{}", pass.id.name()), id, at, ns);
                    at += ns;
                }
                let last = opt.passes.last();
                let c = &mut self.counts;
                c.stmts = last.map_or(0, |p| p.stmts as u64);
                c.clusters = last.map_or(0, |p| p.clusters as u64);
                c.nests = opt.report.nests as u64;
                c.contracted_arrays = opt.contracted.len() as u64;
                c.arrays_after = opt.report.after() as u64;
                c.asdg_builds = opt.asdg_builds as u64;
                c.rce2_rewrites = opt.rce2.as_ref().map_or(0, |r| r.rewrites.len() as u64);
                c.rce2_temps = opt.rce2.as_ref().map_or(0, |r| r.temps.len() as u64);
                self.scalarized = Arc::new(opt.scalarized);
            }
            Step::Bytecode => {
                self.vm_plain = tr
                    .child("loopir.bytecode", parent, || {
                        Vm::new(&self.scalarized, self.binding.clone())
                    })
                    .map_err(|e| e.to_string())?;
            }
            Step::Superfused => {
                self.vm_super = tr
                    .child("loopir.superfused", parent, || {
                        Vm::new_superfused(&self.scalarized, self.binding.clone())
                    })
                    .map_err(|e| e.to_string())?;
            }
            Step::Verify => {
                // Engines that do not verify are probed on a scratch VM
                // so their own run stays on the checked path.
                let mut scratch;
                let vm = if self.shape.verified {
                    self.engine_vm()
                } else {
                    scratch = Vm::from_shared(&self.engine_vm().share());
                    &mut scratch
                };
                tr.child("loopir.verify", parent, || vm.verify())
                    .map_err(|d| {
                        format!(
                            "{}: verifier rejected ({} diagnostics)",
                            class.name,
                            d.len()
                        )
                    })?;
            }
            Step::Share => {
                let has_vm = self.shape.has_vm;
                let vm = if self.shape.superfused {
                    &self.vm_super
                } else {
                    &self.vm_plain
                };
                self.counts.code_ops = if has_vm { vm.code_len() as u64 } else { 0 };
                // `Vm::share` alone is timed. The executor of the `Run`
                // step comes from `self.cached`, which `get_or_compile`
                // built from the same bytecode, so the harness never
                // writes a `CachedProgram` literal and a field added to
                // it cannot stop this file compiling.
                black_box(tr.child("loopir.share", parent, || has_vm.then(|| vm.share())));
            }
            Step::Run => {
                let cached = self.cached.clone();
                let mut exec = tr.child("loopir.vm_construct", parent, || {
                    cached.executor(req.exec_opts())
                });
                let out = tr
                    .child("loopir.execute", parent, || exec.execute(&mut NoopObserver))
                    .map_err(|e| e.to_string())?;
                let c = &mut self.counts;
                c.points = out.stats.points;
                c.loads = out.stats.loads;
                c.stores = out.stats.stores;
                c.flops = out.stats.flops;
                c.peak_bytes = out.stats.peak_bytes;
                let ok = prepared.correct_scalars(self.key, &bits(&out.scalars));
                ctx.check(ok);
            }
            Step::CacheMiss => {
                let fresh = CompileCache::new();
                let (_, hit) = tr
                    .child("cache.miss", parent, || {
                        fresh.get_or_compile(&self.program, req)
                    })
                    .map_err(|e| e.to_string())?;
                if hit {
                    return Err(format!("{}: a fresh cache reported a hit", class.name));
                }
            }
            Step::CacheHit => {
                let warm = ctx.warm.clone();
                let (_, hit) = tr
                    .child("cache.hit", parent, || {
                        warm.get_or_compile(&self.program, req)
                    })
                    .map_err(|e| e.to_string())?;
                if !hit {
                    return Err(format!("{}: the warm cache missed", class.name));
                }
            }
            Step::Supervisor => {
                let sup = req.supervisor().with_cache(ctx.warm.clone());
                let run = tr
                    .child("supervisor.run", parent, || sup.run_program(&self.program))
                    .map_err(|e| e.to_string())?;
                self.counts.supervisor_attempts = run.report.attempts.len() as u64;
                self.counts.supervisor_degraded = run.report.degraded() as u64;
                let ok = prepared.correct_scalars(self.key, &bits(&run.outcome.scalars));
                ctx.check(ok);
            }
            Step::Simulate => {
                let cfg = sim_config(req);
                let (out, sim) = tr
                    .child("runtime.simulate", parent, || {
                        runtime::simulate_outcome(&self.scalarized, self.binding.clone(), &cfg)
                    })
                    .map_err(|e| e.to_string())?;
                self.counts.sim = sim_words(&sim);
                let ok = prepared.correct_scalars(self.key, &bits(&out.scalars));
                ctx.check(ok);
            }
        }
        Ok(())
    }

    /// One round of this key: composite, layered request, probes.
    fn round(&mut self, ctx: &mut Ctx, request: u32) -> Result<(), String> {
        let t0 = Instant::now();
        let result = ctx.prepared.request(self.key);
        self.composite_s.push(t0.elapsed().as_secs_f64());
        let ok = result.is_ok_and(|words| ctx.prepared.correct(self.key, &words));
        ctx.check(ok);

        let in_path = request_steps(ctx.prepared.workload.kind, &self.shape);
        let key = self.key as u32;
        let root = ctx.tracer.open_root("request", request, key);
        for &step in &in_path {
            self.step(step, ctx, root)?;
        }
        ctx.tracer.close(root);

        let probe = ctx.tracer.open_root("probe", request, key);
        for step in ALL_STEPS {
            if !in_path.contains(&step) {
                self.step(step, ctx, probe)?;
            }
        }
        for (i, (suffix, ..)) in EXEC_CONFIGS.iter().enumerate() {
            let (cached, opts) = self.configs[i].clone();
            let out = ctx
                .tracer
                .child(&format!("loopir.exec.{suffix}"), probe, || {
                    cached.executor(opts).execute(&mut NoopObserver)
                })
                .map_err(|e| format!("{suffix}: {e}"))?;
            let ok = ctx.prepared.correct_scalars(self.key, &bits(&out.scalars));
            ctx.check(ok);
        }
        ctx.tracer.close(probe);

        match &self.first_counts {
            None => self.first_counts = Some(self.counts.clone()),
            Some(first) => {
                let repeats = *first == self.counts;
                ctx.check(repeats);
            }
        }
        Ok(())
    }
}

/// Records the heat stencil through the lazy frontend and flushes it;
/// the recorded program must hash like its static source.
fn lazy_heat(ctx: &mut Ctx, request: u32) -> Result<(), String> {
    let req = fusion_core::RunRequest::new().with_level_spec("c2+f3")?;
    let warm = ctx.warm.clone();
    let root = ctx.tracer.open_root("lazy.record", request, 0);
    let mut b = Batch::new("heat");
    let grid = b.region(&[(0, 33), (0, 33)]);
    let interior = b.region(&[(1, 32), (1, 32)]);
    let t = b.store(grid, b.index(0) * 0.5 + b.index(1));
    let new = b.store(
        interior,
        (t.at(&[-1, 0]) + t.at(&[1, 0]) + t.at(&[0, -1]) + t.at(&[0, 1])) * 0.25,
    );
    let delta = b.store(interior, new - t);
    let err = b.sum(interior, delta * delta);
    let (out, _) = b.flush(&req, &warm).map_err(|e| e.to_string())?;
    ctx.tracer.close(root);
    black_box(out.value(err));
    let from_source = zlang::compile(&b.source()).map_err(|e| e.to_string())?;
    let same = fusion_core::hash::program_hash(b.program())
        == fusion_core::hash::program_hash(&from_source);
    ctx.check(same);
    Ok(())
}

/// What a traced run reports.
pub struct LayerReport {
    /// Value and sample count of every [`PER_LAYER`] metric.
    pub values: BTreeMap<&'static str, (f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Tracer,
    /// Names of the replayed keys, indexed as the spans' `key`.
    pub key_names: Vec<String>,
}

/// Runs the traced replay for about `seconds` and aggregates the spans.
pub fn traced(prepared: &Prepared, seed: u64, seconds: f64) -> Result<LayerReport, String> {
    let workload = prepared.workload;
    let mut ctx = Ctx {
        prepared,
        warm: Arc::new(CompileCache::with_shards(8, 4096)),
        tracer: Tracer::new(),
        attempted: 0,
        failed: 0,
    };
    // `serve_sizes` takes its serve-layer numbers from real batches first
    // (which also warms the serving cache its composite request uses).
    let mut served =
        (workload.kind == Kind::Serve).then(|| measure::measure(prepared, seed, seconds / 4.0));

    let keys = workload.trace_classes(seed);
    let mut replays = Vec::new();
    for &key in &keys {
        replays.push(Replay::new(key, &ctx)?);
    }
    let tiles: Vec<u64> = replays
        .iter()
        .map(Replay::tiles)
        .collect::<Result<_, _>>()?;
    // One discarded pass of composite requests faults pages in and warms
    // the caches, as the untraced run's first rounds do.
    for &key in &keys {
        prepared.request(key)?;
    }

    let mut clock = Clock::new(1);
    // Calibration tag of every replayed request, indexed by request id.
    let mut request_tag: Vec<usize> = Vec::new();
    let mut rng = Rng::new(seed ^ 0x7ACE);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (rounds < MAX_ROUNDS && started.elapsed() < budget) {
        let mut slots: Vec<usize> = (0..replays.len()).collect();
        workloads::shuffle(&mut rng, &mut slots);
        for slot in slots {
            request_tag.push(clock.before_request());
            let t0 = Instant::now();
            replays[slot].round(&mut ctx, request_tag.len() as u32 - 1)?;
            clock.after_request(t0.elapsed().as_secs_f64());
        }
        request_tag.push(clock.before_request());
        lazy_heat(&mut ctx, request_tag.len() as u32 - 1)?;
        rounds += 1;
    }
    clock.calibrate();
    for (replay, before) in replays.iter().zip(&tiles) {
        let again = replay.tiles()?;
        ctx.check(again == *before);
    }
    if served.is_none() {
        served = Some(measure::serve_probe(prepared, &keys));
    }
    let served = served.expect("serve numbers");
    ctx.attempted += served.attempted;
    ctx.failed += served.failed;

    let values = aggregate(&ctx, &replays, &tiles, &request_tag, &clock, &served);
    Ok(LayerReport {
        values,
        attempted: ctx.attempted,
        failed: ctx.failed,
        tracer: ctx.tracer,
        key_names: workload.classes.iter().map(|c| c.name.clone()).collect(),
    })
}

/// Mean over keys of the per-key median, and the sample count.
fn mean_of_medians(by_key: &[Vec<f64>]) -> (f64, usize) {
    let medians: Vec<f64> = by_key
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| stats::median(s))
        .collect();
    (stats::mean(&medians), by_key.iter().map(Vec::len).sum())
}

fn aggregate(
    ctx: &Ctx,
    replays: &[Replay],
    tiles: &[u64],
    request_tag: &[usize],
    clock: &Clock,
    served: &Measured,
) -> BTreeMap<&'static str, (f64, usize)> {
    let tracer = &ctx.tracer;
    let own = tracer.self_times_ns();
    let mut slot_of_key = vec![0; ctx.prepared.workload.classes.len()];
    for (slot, replay) in replays.iter().enumerate() {
        slot_of_key[replay.key] = slot;
    }
    // Per replayed key, `value` of every span called `name` (`lazy.record`
    // spans carry key 0 and land in its slot).
    let samples = |name: &str, value: &dyn Fn(usize) -> f64| -> Vec<Vec<f64>> {
        let mut by_key = vec![Vec::new(); replays.len()];
        for (id, span) in tracer.spans.iter().enumerate() {
            if tracer.name(span) == name {
                by_key[slot_of_key[span.key as usize]].push(value(id));
            }
        }
        by_key
    };
    let own_us = |name: &str| mean_of_medians(&samples(name, &|id| own[id] as f64 / 1e3));
    let whole_us = |name: &str| {
        mean_of_medians(&samples(name, &|id| {
            tracer.spans[id].duration_ns() as f64 / 1e3
        }))
    };
    let sum_counts = |f: &dyn Fn(&Counts) -> u64| -> (f64, usize) {
        let total: u64 = replays.iter().map(|r| f(&r.counts)).sum();
        (total as f64, replays.len())
    };

    let composite: Vec<f64> = replays
        .iter()
        .map(|r| stats::median(&r.composite_s) * 1e6)
        .collect();
    let composite_us = stats::mean(&composite);
    let (request_us, request_n) = whole_us("request");
    let (request_self_us, _) = own_us("request");
    let (execute_us, _) = own_us("loopir.execute");
    let (simulate_us, simulate_n) = own_us("runtime.simulate");
    let verify_passes: f64 = tracer
        .names()
        .iter()
        .filter(|name| name.starts_with("core.pass.verify::"))
        .map(|name| own_us(name).0)
        .sum();
    let improvement: Vec<f64> = replays
        .iter()
        .filter(|r| ctx.prepared.workload.classes[r.key].req.level_spec() != "baseline")
        .map(|r| {
            let total_ns = f64::from_bits(r.counts.sim[2]);
            100.0 * (r.baseline_sim_ns - total_ns) / r.baseline_sim_ns
        })
        .collect();
    let points: u64 = replays.iter().map(|r| r.counts.points).sum();
    let execute_s = execute_us * replays.len() as f64 / 1e6;
    let cache = if ctx.prepared.workload.kind == Kind::Serve {
        ctx.prepared.serve_cache.clone()
    } else {
        ctx.warm.clone()
    };
    let cache_stats = cache.stats();
    let service_cu: Vec<f64> = served.cu.iter().flatten().copied().collect();
    let calib_ms: Vec<f64> = clock.samples.iter().map(|s| s * 1e3).collect();

    let mut values = BTreeMap::new();
    for layer in &PER_LAYER {
        let name = layer.name;
        let value: (f64, usize) = match name {
            "zlang.lex_us" => own_us("zlang.lex"),
            "zlang.parse_us" => own_us("zlang.parse"),
            "zlang.sema_us" => own_us("zlang.sema"),
            "zlang.tokens" => sum_counts(&|c| c.tokens),
            "zlang.ir_stmts" => sum_counts(&|c| c.ir_stmts),
            "core.optimize_us" => whole_us("core.optimize"),
            "core.pass.verify_us" => (verify_passes, whole_us("core.optimize").1),
            "core.stmts" => sum_counts(&|c| c.stmts),
            "core.clusters" => sum_counts(&|c| c.clusters),
            "core.nests" => sum_counts(&|c| c.nests),
            "core.contracted_arrays" => sum_counts(&|c| c.contracted_arrays),
            "core.arrays_after" => sum_counts(&|c| c.arrays_after),
            "core.asdg_builds" => sum_counts(&|c| c.asdg_builds),
            "core.rce2_rewrites" => sum_counts(&|c| c.rce2_rewrites),
            "core.rce2_temps" => sum_counts(&|c| c.rce2_temps),
            "loopir.bytecode_us" => own_us("loopir.bytecode"),
            "loopir.superfuse_us" => {
                let (superfused, n) = own_us("loopir.superfused");
                ((superfused - own_us("loopir.bytecode").0).max(0.0), n)
            }
            "loopir.verify_us" => own_us("loopir.verify"),
            "loopir.vm_construct_us" => own_us("loopir.vm_construct"),
            "loopir.code_ops" => sum_counts(&|c| c.code_ops),
            "loopir.points" => sum_counts(&|c| c.points),
            "loopir.loads" => sum_counts(&|c| c.loads),
            "loopir.stores" => sum_counts(&|c| c.stores),
            "loopir.flops" => sum_counts(&|c| c.flops),
            "loopir.peak_bytes" => sum_counts(&|c| c.peak_bytes),
            "loopir.tiles" => (tiles.iter().sum::<u64>() as f64, tiles.len()),
            "loopir.mpoints_per_s" => (points as f64 / execute_s / 1e6, replays.len()),
            "cache.key_us" => own_us("cache.key"),
            "cache.hit_us" => own_us("cache.hit"),
            "cache.miss_us" => own_us("cache.miss"),
            "cache.hit_rate" => (
                cache_stats.hit_rate(),
                (cache_stats.hits + cache_stats.misses) as usize,
            ),
            "cache.misses" => (cache_stats.misses as f64, 1),
            "cache.evictions" => (cache_stats.evictions as f64, 1),
            "cache.len" => (cache.len() as f64, 1),
            "supervisor.hit_overhead_us" => {
                let (run, n) = own_us("supervisor.run");
                (run - execute_us, n)
            }
            "supervisor.attempts" => sum_counts(&|c| c.supervisor_attempts),
            "supervisor.degraded" => sum_counts(&|c| c.supervisor_degraded),
            "serve.queue_wait_us_p50" => (
                stats::median(&served.queue_wait_us),
                served.queue_wait_us.len(),
            ),
            "serve.service_cu_p99" => (stats::percentile(&service_cu, 99.0), service_cu.len()),
            "serve.wall_s" => (served.wall_s, served.rounds),
            "serve.shed" => (served.shed as f64, service_cu.len()),
            "serve.retried" => (served.retried as f64, service_cu.len()),
            "serve.breaker_routed" => (served.breaker_routed as f64, service_cu.len()),
            "machine.observe_ratio" => (simulate_us / execute_us, simulate_n),
            "machine.l1_misses" => sum_counts(&|c| c.sim[0]),
            "machine.l2_misses" => sum_counts(&|c| c.sim[1]),
            "machine.sim_total_ns" => {
                let total: f64 = replays
                    .iter()
                    .map(|r| f64::from_bits(r.counts.sim[2]))
                    .sum();
                (total, replays.len())
            }
            "runtime.comm_messages" => sum_counts(&|c| c.sim[3]),
            "runtime.comm_bytes" => sum_counts(&|c| c.sim[4]),
            "runtime.improvement_pct" => (stats::mean(&improvement), improvement.len()),
            "lazy.record_us" => whole_us("lazy.record"),
            "host.calib_ms_p50" => (stats::median(&calib_ms), calib_ms.len()),
            "host.calib_ms_min" => (stats::min(&calib_ms), calib_ms.len()),
            "host.calib_spread" => (stats::iqr_share(&calib_ms), calib_ms.len()),
            "trace.coverage" => ((request_us - request_self_us) / composite_us, request_n),
            "trace.overhead" => (request_us / composite_us - 1.0, request_n),
            "trace.failed_share" => (
                ctx.failed as f64 / ctx.attempted.max(1) as f64,
                ctx.attempted as usize,
            ),
            _ => {
                if let Some(pass) = name.strip_prefix("core.pass.") {
                    own_us(&format!("core.pass.{}", pass.trim_end_matches("_us")))
                } else if let Some(config) = name.strip_prefix("loopir.exec.") {
                    let span_name = format!("loopir.exec.{}", config.trim_end_matches("_cu"));
                    let by_key = samples(&span_name, &|id| {
                        let span = &tracer.spans[id];
                        span.duration_ns() as f64
                            / 1e9
                            / clock.unit(request_tag[span.request as usize])
                    });
                    let medians: Vec<f64> = by_key.iter().map(|k| stats::median(k)).collect();
                    (stats::geomean(&medians), by_key.iter().map(Vec::len).sum())
                } else {
                    unreachable!("per-layer metric `{name}` has no definition")
                }
            }
        };
        values.insert(name, value);
    }
    values
}
