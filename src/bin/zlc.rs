//! `zlc` — the zpl-fusion compiler driver.
//!
//! Compile a `zlang` program, optimize it at a chosen level, inspect every
//! intermediate representation, and execute it on a simulated machine.
//!
//! ```text
//! zlc <file.zl> [options]
//! zlc serve <file.zl>... [--requests N] [--workers N] [run options]
//!
//! options:
//!   --level <baseline|f1|c1|f2|f3|c2|c2+f3|c2+f4>[+rce2][+dim]
//!                                 (default c2); append `+rce2` to also
//!                                 run the array-level cleanup pass and
//!                                 then `+dim` for lower-dimensional
//!                                 contraction, each at most once, e.g.
//!                                 `--level c2+f3+rce2+dim`
//!   --favor-comm                  Section 5.5 favor-communication policy:
//!                                 the one optimizer choice outside
//!                                 --level, because it only means
//!                                 something under --machine
//!   --print <ir|loops|bytecode|asdg|report|source|hash>   what to print
//!                                 (repeatable); `bytecode` disassembles
//!                                 the lowered VM program (one listing:
//!                                 every VM engine name runs the same
//!                                 verified stream)
//!   --emit <pass>                 dump the IR snapshot taken right after
//!                                 the named pass (e.g. `normalize`, `rce2`,
//!                                 `fuse-contraction`, `contract`,
//!                                 `scalarize`)
//!   --list-passes                 list every pass `--emit` accepts (the
//!                                 ones the optimizer can run) and exit
//!   --verify                      re-check every pipeline stage and the
//!                                 compiled bytecode; report diagnostics
//!   --run                         execute and print scalars + statistics
//!   --engine <interp|vm|vm-simd|vm-par>   execution engine (default vm):
//!                                 the tree-walker, or the one lowered
//!                                 program at lanes 1 / threads 1 (`vm`),
//!                                 at --lanes (`vm-simd`), or at --lanes
//!                                 and --threads (`vm-par`)
//!   --list-engines                list the execution engines and exit
//!   --threads <n>                 worker threads (default 0 = auto); read
//!                                 by --engine vm-par alone, a usage error
//!                                 under any other engine
//!   --lanes <n>                   strip width (default 0 = the widest, 128;
//!                                 1 = scalar dispatch); read by --engine
//!                                 vm-simd and vm-par, a usage error under
//!                                 interp and vm
//!   --machine <t3e|sp2|paragon>   simulate on a machine model (with --run
//!                                 or --supervise): the same executor, at
//!                                 the same --engine / --lanes / --threads,
//!                                 observed by the machine model
//!   --procs <p>                   simulated processors (default 1)
//!   --set <name=value>            override an integer config (repeatable)
//!   --supervise                   run under the fault-tolerant supervisor
//!                                 (degrades engine/level on faults)
//!   --deadline-ms <n>             wall-clock budget for the whole request:
//!                                 one instant, measured from the start
//!                                 (under serve: from admission, queue
//!                                 wait included), that the compile and
//!                                 every run and --supervise attempt share;
//!                                 the first deadline fault fails the
//!                                 request, exit 1 (0 always runs out)
//!   --inject <plan>               install a deterministic fault plan, e.g.
//!                                 `seed=42,vm-trap` or `seed=1,comm-drop:0.5`
//!
//! serve mode:
//!   --requests <n>                total requests, round-robin over the
//!                                 input files (default: one per file)
//!   --workers <n>                 worker threads serving the batch
//!                                 (default 4)
//!   --queue-cap <n>               bound the admission queue (default 0 =
//!                                 unbounded)
//!   --shed <policy>               what to do when the queue is full:
//!                                 reject-newest or block (default block);
//!                                 a request whose --deadline-ms passes
//!                                 while queued is shed too
//!   --inject <plan>               in serve mode the plan is installed on
//!                                 every worker, re-seeded per worker
//! ```
//!
//! A mode reads a flag or rejects it. `--supervise` and `serve` compile
//! through the cache at the request's `--level`, `--engine` and `--set`
//! coordinates alone, so the pipeline-only flags (`--favor-comm`,
//! `--emit`, `--print`, `--verify`) are usage errors there, as are the
//! one-shot flags (`--machine`, `--procs`, `--supervise`, `--run`) under
//! `serve` and the serve-only flags (`--requests`, `--workers`,
//! `--queue-cap`, `--shed`) outside it. In
//! every mode, so are the knobs the engine name pins: `--threads` under
//! `interp`, `vm` and `vm-simd`, `--lanes` under `interp` and `vm` — with
//! or without `--machine`. The removed `--retries`, `--shed
//! drop-oldest`, `--dimension-contraction`, `--spatial-cap` and the
//! step budget are usage errors that name what replaced them: a key
//! whose artifact faults at execution is quarantined, not retried;
//! dimension contraction is the `+dim` level suffix; the stream cap had
//! no gain to keep; `--deadline-ms` is the one execution budget.
//!
//! The plain mode lowers at most once: `--verify`, `--print bytecode` and
//! `--run` share one `SharedProgram::lower`, and `--machine` only chooses
//! what observes the run.
//!
//! Everything `zlc` prints as a result goes through one writer, [`out`]:
//! a reader that closes the pipe early (`zlc f.zl --print loops | head -1`)
//! ends the process quietly, with success.

use fusion_core::pass::PassId;
use fusion_core::serve::{serve_with, ServeOptions, ServeRequest, ShedPolicy};
use fusion_core::verify::Severity;
use fusion_core::{CompileCache, RunRequest};
use loopir::{Engine, ExecOpts, Executor, Interp, RunOutcome, SharedProgram, Vm};
use machine::presets::MachineKind;
use runtime::{simulate_executor, ExecConfig};
use std::fmt;
use std::io::{self, Write as _};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;
use testkit::faults::{self, FaultPlan};
use zlang::error::render_diagnostic;
use zlang::ir::{ArrayId, ConfigBinding, Program};

/// Writes a result to standard output: the one writer of everything `zlc`
/// prints there. A closed pipe means the reader has what it asked for, so
/// the process ends quietly with success; any other write error is one
/// line on standard error and a failure. Never a panic.
fn out(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() == io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("zlc: cannot write to standard output: {e}");
        std::process::exit(1);
    }
}

/// `print!` through [`out`].
macro_rules! out {
    ($($arg:tt)*) => { out(format_args!($($arg)*)) };
}

/// `println!` through [`out`].
macro_rules! outln {
    ($($arg:tt)*) => { out(format_args!("{}\n", format_args!($($arg)*))) };
}

struct Options {
    serve: bool,
    file: String,
    files: Vec<String>,
    requests: usize,
    workers: usize,
    queue_cap: usize,
    shed: ShedPolicy,
    request: RunRequest,
    favor_comm: bool,
    prints: Vec<String>,
    emit: Option<PassId>,
    run: bool,
    machine: Option<MachineKind>,
    procs: u64,
    supervise: bool,
    inject: Option<String>,
}

fn usage(msg: &str) -> ExitCode {
    eprint!("{}", render_diagnostic("error", "cli", msg, None, &[]));
    eprintln!(
        "usage: zlc <file.zl> [--level L[+rce2][+dim]] [--favor-comm]\n\
         \x20          [--print {}]... [--emit PASS]\n\
         \x20          [--verify] [--run] [--engine interp|vm|vm-simd|vm-par]\n\
         \x20          [--threads N (vm-par)] [--lanes 0..128 (vm-simd|vm-par)]\n\
         \x20          [--machine t3e|sp2|paragon] [--procs P] [--set name=value]...\n\
         \x20          [--supervise] [--deadline-ms N] [--inject PLAN]\n\
         \x20      zlc serve <file.zl>... [--requests N] [--workers N] [--queue-cap N]\n\
         \x20          [--shed reject-newest|block] [run options]\n\
         \x20      zlc --list-engines | --list-passes",
        PRINT_TARGETS.join("|")
    );
    ExitCode::from(2)
}

/// The passes `--emit` can snapshot and `--list-passes` prints: the ones
/// the optimizer runs. The other stage identities only name where a
/// fault or a diagnostic came from.
fn emittable_passes() -> impl Iterator<Item = PassId> {
    PassId::all().into_iter().filter(|p| p.is_optimizer_pass())
}

/// What `--print` accepts: the one list the usage line is written from
/// and `parse_args` validates against, before any work is done.
const PRINT_TARGETS: &[&str] = &[
    "ir", "loops", "bytecode", "asdg", "report", "source", "hash",
];

/// Flags only the plain (unsupervised, one-shot) path reads: they extend
/// or inspect a pipeline the supervisor and the serve path never build.
const PIPELINE_ONLY: &[&str] = &["--favor-comm", "--emit", "--print", "--verify"];

/// Flags that describe one run of one file; `serve` replays a batch.
const ONE_SHOT_ONLY: &[&str] = &["--machine", "--procs", "--supervise", "--run"];

/// Flags that shape a batch; only `serve` replays one.
const SERVE_ONLY: &[&str] = &["--requests", "--workers", "--queue-cap", "--shed"];

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        serve: false,
        file: String::new(),
        files: Vec::new(),
        requests: 0,
        workers: 4,
        queue_cap: 0,
        shed: ShedPolicy::Block,
        request: RunRequest::new(),
        favor_comm: false,
        prints: Vec::new(),
        emit: None,
        run: false,
        machine: None,
        procs: 1,
        supervise: false,
        inject: None,
    };
    let mut saw_positional = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match a.as_str() {
            "--level" => {
                let v = value("--level")?;
                opts.request = std::mem::take(&mut opts.request).with_level_spec(&v)?;
            }
            "--favor-comm" => opts.favor_comm = true,
            "--print" => {
                let v = value("--print")?;
                if !PRINT_TARGETS.contains(&v.as_str()) {
                    return Err(format!(
                        "unknown --print target `{v}` (expected one of: {})",
                        PRINT_TARGETS.join(", ")
                    ));
                }
                opts.prints.push(v);
            }
            "--emit" => {
                let v = value("--emit")?;
                let pass = PassId::from_name(&v).filter(|p| p.is_optimizer_pass());
                opts.emit = Some(pass.ok_or_else(|| {
                    format!(
                        "unknown pass `{v}` (expected one of: {})",
                        emittable_passes()
                            .map(PassId::name)
                            .collect::<Vec<_>>()
                            .join(", ")
                    )
                })?);
            }
            "--verify" => opts.request.verify = true,
            "--run" => opts.run = true,
            "--engine" => {
                let v = value("--engine")?;
                opts.request = std::mem::take(&mut opts.request).with_engine_name(&v)?;
            }
            "--threads" => {
                opts.request.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "bad threads".to_string())?;
            }
            "--lanes" => {
                opts.request.lanes = value("--lanes")?
                    .parse()
                    .map_err(|_| "bad lanes".to_string())?;
            }
            "--machine" => {
                opts.machine = Some(match value("--machine")?.as_str() {
                    "t3e" => MachineKind::T3e,
                    "sp2" => MachineKind::Sp2,
                    "paragon" => MachineKind::Paragon,
                    m => return Err(format!("unknown machine `{m}`")),
                });
            }
            "--procs" => {
                opts.procs = value("--procs")?
                    .parse()
                    .map_err(|_| "bad procs".to_string())?;
            }
            "--set" => {
                let v = value("--set")?;
                let (name, val) = v
                    .split_once('=')
                    .ok_or_else(|| format!("--set wants name=value, got `{v}`"))?;
                let val = val.parse().map_err(|_| format!("bad value in `{v}`"))?;
                opts.request = std::mem::take(&mut opts.request).with_set(name, val);
            }
            "--supervise" => opts.supervise = true,
            "--deadline-ms" => {
                let ms: u64 = value("--deadline-ms")?
                    .parse()
                    .map_err(|_| "bad deadline".to_string())?;
                opts.request =
                    std::mem::take(&mut opts.request).with_deadline(Duration::from_millis(ms));
            }
            "--inject" => opts.inject = Some(value("--inject")?),
            "--requests" => {
                opts.requests = value("--requests")?
                    .parse()
                    .map_err(|_| "bad request count".to_string())?;
            }
            "--workers" => {
                opts.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "bad worker count".to_string())?;
            }
            "--queue-cap" => {
                opts.queue_cap = value("--queue-cap")?
                    .parse()
                    .map_err(|_| "bad queue cap".to_string())?;
            }
            "--shed" => {
                opts.shed = value("--shed")?.parse()?;
            }
            "--retries" => {
                return Err(
                    "`--retries` was removed: execution is deterministic, so a key \
                     whose artifact faults at execution is quarantined on its first fault, \
                     not retried (DESIGN.md §16); remove the flag"
                        .to_string(),
                )
            }
            "--dimension-contraction" => {
                return Err(
                    "`--dimension-contraction` was removed: dimension contraction \
                            is a level suffix; use `--level <L>+dim`"
                        .to_string(),
                )
            }
            "--spatial-cap" => {
                return Err(
                    "`--spatial-cap` was removed: the stream cap on pairwise fusion \
                            had no resolved gain on the lane tier (EXPERIMENTS.md, \
                            \"Ablations\"); remove the flag"
                        .to_string(),
                )
            }
            "--fuel" => {
                return Err(
                    "`--fuel` was removed: the wall-clock deadline is the one execution \
                            budget; use `--deadline-ms <n>` (0 always runs out)"
                        .to_string(),
                )
            }
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            "serve" if !saw_positional => {
                saw_positional = true;
                opts.serve = true;
            }
            file => {
                saw_positional = true;
                if opts.serve {
                    opts.files.push(file.to_string());
                } else {
                    if !opts.file.is_empty() {
                        return Err("more than one input file".to_string());
                    }
                    opts.file = file.to_string();
                }
            }
        }
    }
    if opts.serve {
        if opts.files.is_empty() {
            return Err("serve needs at least one input file".to_string());
        }
    } else if opts.file.is_empty() {
        return Err("no input file".to_string());
    }
    let (mode, unread): (&str, &[&str]) = if opts.serve {
        ("serve", &[PIPELINE_ONLY, ONE_SHOT_ONLY].concat())
    } else if opts.supervise {
        ("--supervise", &[PIPELINE_ONLY, SERVE_ONLY].concat())
    } else {
        ("zlc <file.zl>", SERVE_ONLY)
    };
    if let Some(flag) = args.iter().find(|a| unread.contains(&a.as_str())) {
        let instead = if SERVE_ONLY.contains(&flag.as_str()) {
            "run `zlc serve`".to_string()
        } else {
            format!("run without `{mode}`")
        };
        return Err(format!(
            "`{flag}` is not read by `{mode}`; remove it, or {instead}"
        ));
    }
    // A knob is read by an engine name exactly when the name passes it
    // through to the VM.
    let engine = opts.request.engine;
    let probe = ExecOpts {
        threads: usize::MAX,
        lanes: usize::MAX,
    };
    let read = engine.knobs(probe).unwrap_or_default();
    for (flag, passed) in [
        ("--threads", read.threads == probe.threads),
        ("--lanes", read.lanes == probe.lanes),
    ] {
        if !passed && args.iter().any(|a| a == flag) {
            return Err(format!(
                "`{flag}` is not read by `--engine {engine}`; remove it, or pick an \
                 engine that reads it"
            ));
        }
    }
    Ok(opts)
}

/// Builds the request's config binding for `program`
/// ([`RunRequest::binding_for`]), then checks that every declared array
/// fits a 1 TiB [footprint](zlang::ir::Program::footprint) under it: a
/// config like `--set n=9999999999` is a diagnostic, not an allocation
/// the run would have to refuse.
fn checked_binding(program: &Program, request: &RunRequest) -> Result<ConfigBinding, String> {
    let binding = request.binding_for(program)?;
    let arrays = (0..program.arrays.len()).map(|i| ArrayId(i as u32));
    program.footprint(arrays, &binding, 1 << 40).map_err(|id| {
        let array = program.array(id);
        format!(
            "config binding allocates over 1 TiB (array `{}` on region `{}`); \
             reduce the bound set with --set",
            array.name,
            program.region(array.region).name
        )
    })?;
    Ok(binding)
}

fn fail(code: &str, message: &str, location: Option<&str>) -> ExitCode {
    eprint!(
        "{}",
        render_diagnostic("error", code, message, location, &[])
    );
    ExitCode::FAILURE
}

/// Prints a run's scalars and its `-- N points, ...` statistics line.
fn print_outcome(program: &Program, outcome: &RunOutcome) {
    for (i, s) in program.scalars.iter().enumerate() {
        outln!(
            "{} = {}",
            s.name,
            outcome.scalar(zlang::ir::ScalarId(i as u32))
        );
    }
    let stats = &outcome.stats;
    outln!(
        "-- {} points, {} loads, {} stores, {} flops, peak {} bytes",
        stats.points,
        stats.loads,
        stats.stores,
        stats.flops,
        stats.peak_bytes
    );
}

/// The `--supervise` path: run the program under the fault-tolerant
/// supervisor — every rung's executor observed by the machine simulation
/// when one is requested — and print the outcome plus the attempt trail.
fn run_supervised(opts: &Options, program: &Program) -> ExitCode {
    let sup = opts.request.supervisor();
    let mut last_sim = None;
    let result = match opts.machine {
        None => sup.run_program(program),
        Some(kind) => {
            let cfg = ExecConfig::new(kind.machine(), opts.procs);
            sup.run_program_simulated(program, &mut |exec, sp, binding| {
                let (outcome, sim) = simulate_executor(exec, sp, binding, &cfg)?;
                last_sim = Some(sim);
                Ok(outcome)
            })
        }
    };
    match result {
        Ok(run) => {
            print_outcome(program, &run.outcome);
            if let Some(sim) = last_sim {
                outln!(
                    "-- simulated x{}: {:.3} ms ({} msgs, {} bytes, {} retries)",
                    opts.procs,
                    sim.total_ms(),
                    sim.comm.messages,
                    sim.comm.bytes,
                    sim.comm.retries,
                );
            }
            out!("{}", run.report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprint!(
                "{}",
                render_diagnostic("error", "supervisor", &e.to_string(), None, &[])
            );
            eprint!("{}", e.report.render());
            ExitCode::FAILURE
        }
    }
}

/// The `serve` subcommand: compile-check the input files, expand them to
/// `--requests` round-robin serve requests, run the batch across
/// `--workers` threads over one shared compile cache with admission
/// control, deadlines and quarantine, and print the latency/cache
/// report.
fn run_serve(opts: &Options) -> ExitCode {
    let cache = Arc::new(CompileCache::new());
    let mut programs = Vec::new();
    for file in &opts.files {
        let source = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => return fail("io", &format!("cannot read {file}: {e}"), None),
        };
        // Surface parse errors and bad `--set` overrides with the file
        // name up front; the serving path itself only reports a one-line
        // failure per request. Checking through the batch's own cache
        // means the front end runs once per file, here.
        let parsed = match cache.parse(&source) {
            Ok((parsed, _)) => parsed,
            Err(e) => {
                eprint!("{}", e.render(file));
                return ExitCode::FAILURE;
            }
        };
        if let Err(msg) = checked_binding(&parsed.program, &opts.request) {
            return fail("config", &msg, Some(file));
        }
        programs.push((file.clone(), source));
    }
    let total = if opts.requests == 0 {
        programs.len()
    } else {
        opts.requests
    };
    // The request carries `--deadline-ms`; the serve path measures it from
    // each request's admission.
    let batch: Vec<ServeRequest> = (0..total)
        .map(|i| {
            let (name, source) = &programs[i % programs.len()];
            ServeRequest::new(name, source, opts.request.clone())
        })
        .collect();
    let mut serve_opts = ServeOptions::new()
        .with_workers(opts.workers)
        .with_queue_cap(opts.queue_cap)
        .with_shed(opts.shed);
    if let Some(spec) = &opts.inject {
        match FaultPlan::parse(spec) {
            Ok(plan) => serve_opts = serve_opts.with_faults(plan),
            Err(e) => return usage(&format!("bad --inject plan: {e}")),
        }
    }
    let report = serve_with(&batch, &serve_opts, &cache);
    out!("{}", report.render());
    if report.failed() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list-engines") {
        for engine in Engine::all() {
            outln!("{engine}");
        }
        return ExitCode::SUCCESS;
    }
    if args.iter().any(|a| a == "--list-passes") {
        for pass in emittable_passes() {
            outln!("{pass}");
        }
        return ExitCode::SUCCESS;
    }
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => return usage(&e),
    };

    if opts.serve {
        return run_serve(&opts);
    }

    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            return fail("io", &format!("cannot read {}: {e}", opts.file), None);
        }
    };
    let program = match zlang::compile(&source) {
        Ok(p) => p,
        Err(e) => {
            eprint!("{}", e.render(&opts.file));
            return ExitCode::FAILURE;
        }
    };

    // Validate config overrides against the source program up front, so
    // every later stage works with a known-sane binding.
    let binding = match checked_binding(&program, &opts.request) {
        Ok(b) => b,
        Err(msg) => return fail("config", &msg, Some(&opts.file)),
    };

    let _fault_guard = match &opts.inject {
        None => None,
        Some(spec) => match FaultPlan::parse(spec) {
            Ok(plan) => Some(faults::install(plan)),
            Err(e) => return usage(&format!("bad --inject plan: {e}")),
        },
    };

    if opts.supervise {
        return run_supervised(&opts, &program);
    }

    // The request's one deadline instant: the optimizer, the lowering and
    // the run all stop at it.
    let deadline = opts.request.deadline_from_now();
    let mut pipeline = opts.request.pipeline();
    if let Some(pass) = opts.emit {
        pipeline = pipeline.with_emit(pass);
    }
    if opts.favor_comm {
        pipeline = pipeline.with_forbidden(runtime::comm::favor_comm_pairs);
    }
    let opt = match pipeline.optimize_by(&program, deadline) {
        Ok(opt) => opt,
        Err(e) => return fail("exec", &e.to_string(), Some(&opts.file)),
    };

    if let Some(pass) = opts.emit {
        match &opt.emitted {
            Some(snapshot) => out!("{snapshot}"),
            None => {
                return fail(
                    "emit",
                    &format!(
                        "pass `{pass}` did not run at level {}",
                        opts.request.level_spec(),
                    ),
                    Some(&opts.file),
                );
            }
        }
    }

    // The one lowering `--verify`, `--print bytecode` and a VM `--run`
    // share, under the one binding all three (and an `interp` run) use:
    // the optimizer keeps the source program's configs.
    let vm_run = opts.run && opts.request.engine != Engine::Interp;
    let print_bytecode = opts.prints.iter().any(|p| p == "bytecode");
    let lowered = (opts.request.verify || print_bytecode || vm_run)
        .then(|| SharedProgram::lower(&opt.scalarized, binding.clone(), deadline));

    if opts.request.verify {
        let mut errors = 0usize;
        let mut warnings = 0usize;
        for d in &opt.diagnostics {
            eprint!("{}", d.render());
            match d.severity {
                Severity::Error => errors += 1,
                Severity::Warning => warnings += 1,
            }
        }
        if let Some(Err(e)) = &lowered {
            eprintln!("zlc: {e}");
            errors += 1;
        }
        if errors > 0 {
            eprintln!(
                "zlc: verify: {errors} error(s), {warnings} warning(s) at level {}",
                opts.request.level_spec()
            );
            return ExitCode::FAILURE;
        }
        outln!(
            "verify: ok (pipeline stages and bytecode at level {}{})",
            opts.request.level_spec(),
            if warnings > 0 {
                format!("; {warnings} warning(s)")
            } else {
                String::new()
            }
        );
    }

    for what in &opts.prints {
        match what.as_str() {
            "ir" => out!("{}", zlang::pretty::program(&program)),
            "source" => out!("{}", zlang::pretty::source(&program)),
            // The compile cache's content digest of the source program
            // (binding-independent; see fusion_core::hash).
            "hash" => outln!("{:016x}", fusion_core::hash::program_hash(&program)),
            "loops" => out!("{}", loopir::printer::print(&opt.scalarized)),
            // The one lowered program every VM engine name runs.
            "bytecode" => match lowered.as_ref().expect("lowered for --print bytecode") {
                Ok(shared) => out!("{}", Vm::from_shared(shared).disasm()),
                Err(e) => return fail("compile", &e.to_string(), Some(&opts.file)),
            },
            "asdg" => {
                // The pipeline's cached per-block analyses, not a rebuild:
                // what is printed is exactly what fusion consumed.
                for (bi, (block, detail)) in opt.norm.blocks.iter().zip(&opt.details).enumerate() {
                    outln!("// block {bi}");
                    out!(
                        "{}",
                        fusion_core::asdg::to_dot(&opt.norm.program, block, &detail.asdg)
                    );
                }
            }
            "report" => {
                out!("{}", fusion_core::explain::report(&opt));
                outln!(
                    "arrays: {} -> {} ({} nests; {} defs contracted{})",
                    opt.report.before(),
                    opt.report.after(),
                    opt.report.nests,
                    opt.report.contracted_defs,
                    if opt.report.dimension_contracted > 0 {
                        format!("; {} dimension-contracted", opt.report.dimension_contracted)
                    } else {
                        String::new()
                    }
                );
            }
            other => unreachable!("`parse_args` admitted --print {other}"),
        }
    }

    if opts.run {
        // One executor, whatever observes it: the lowered program at the
        // request's knobs, or the tree-walker.
        let mut exec: Box<dyn Executor + '_> = match lowered.filter(|_| vm_run) {
            Some(Ok(shared)) => Box::new(shared.executor(opts.request.exec_opts())),
            Some(Err(e)) => return fail("exec", &e.to_string(), Some(&opts.file)),
            None => Box::new(Interp::new(&opt.scalarized, binding.clone())),
        };
        exec.set_deadline(deadline);
        let program = &opt.scalarized.program;
        match opts.machine {
            None => match exec.execute(&mut loopir::NoopObserver) {
                Ok(out) => print_outcome(program, &out),
                Err(e) => return fail("exec", &e.to_string(), Some(&opts.file)),
            },
            Some(kind) => {
                let cfg = ExecConfig::new(kind.machine(), opts.procs);
                match simulate_executor(&mut *exec, &opt.scalarized, &binding, &cfg) {
                    Ok((_, r)) => {
                        outln!(
                            "{} x{}: {:.3} ms simulated ({:.3} ms compute, {:.3} ms comm, \
                             {} msgs, {} bytes, {} l1 misses, peak {} bytes)",
                            kind.name(),
                            opts.procs,
                            r.total_ms(),
                            r.compute_ns / 1e6,
                            r.comm.effective_ns() / 1e6,
                            r.comm.messages,
                            r.comm.bytes,
                            r.mem.l1_misses,
                            r.run.peak_bytes,
                        );
                    }
                    Err(e) => return fail("exec", &e.to_string(), Some(&opts.file)),
                }
            }
        }
    }

    ExitCode::SUCCESS
}
