//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! compare A.json B.json
//! bless        rewrite expected/*.bits and digests.txt from a fresh reference
//! manifest     print BENCHMARK.json from the metric and workload tables
//! reference --workload W [--seed N]
//!              print the interp/baseline reference bits (every set-up
//!              runs this in a child process)
//! ```
//!
//! `run --workload W` measures one workload in this process and prints
//! every metric by name, then one JSON object as the last line. Without
//! `--workload` it runs every workload (untraced, then traced) in a child
//! process each and writes `<out>/result.json`.

mod calib;
mod compare;
mod json;
mod layers;
mod measure;
mod metrics;
mod setup;
mod stats;
mod trace;
mod workloads;

use json::{num, quote};
use metrics::{END_TO_END, PER_LAYER};
use setup::Prepared;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, DEFAULT_SEED, WORKLOADS};

/// Measured seconds per run, also written to `BENCHMARK.json`.
const RUN_SECONDS: u64 = 15;
/// Timed set-ups per untraced run, `setup_s` being their median.
const SETUP_REPS: usize = 5;
const USAGE: &str = "usage: run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
     | compare A.json B.json | bless | manifest | reference --workload W [--seed N]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out" => parsed.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

fn digests_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("digests.txt")
}

/// The pinned `(table, default-seed traffic)` digests of a workload.
fn pinned_digests(workload: &str) -> Result<(u64, u64), String> {
    let path = digests_path();
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e} (run `bless`)", path.display()))?;
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if let [name, table, traffic] = fields[..] {
            if name == workload {
                let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| e.to_string());
                return Ok((hex(table)?, hex(traffic)?));
            }
        }
    }
    Err(format!("{} pins no digest for {workload}", path.display()))
}

/// The last stdout line of a single-workload run.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                num(*value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The timed set-ups of an untraced run.
struct Setups {
    /// Seconds of the reference host (see `calib::NOMINAL_UNIT_S`).
    calibrated_s: Vec<f64>,
    raw_s: Vec<f64>,
    /// Whether `code_ops` and `array_bytes` came out the same every time.
    counts_repeat: bool,
}

/// Sets the workload up [`SETUP_REPS`] more times, with a calibration
/// before each and after the last. Each set-up replaces the one before
/// it (dropped first, so two never coexist); returns the last.
fn timed_setups<'w>(
    mut prepared: Prepared<'w>,
    seed: u64,
) -> Result<(Setups, Prepared<'w>), String> {
    let workload = prepared.workload;
    let mut clock = calib::Clock::new(1);
    let mut raw_s = Vec::new();
    let mut counts_repeat = true;
    for _ in 0..SETUP_REPS {
        let counts = (prepared.code_ops, prepared.array_bytes);
        drop(prepared);
        clock.calibrate();
        let started = Instant::now();
        prepared = Prepared::new(workload, seed)?;
        raw_s.push(started.elapsed().as_secs_f64());
        counts_repeat &= counts == (prepared.code_ops, prepared.array_bytes);
    }
    clock.calibrate();
    let calibrated_s = raw_s
        .iter()
        .enumerate()
        .map(|(k, t)| t / clock.unit(k) * calib::NOMINAL_UNIT_S)
        .collect();
    let setups = Setups {
        calibrated_s,
        raw_s,
        counts_repeat,
    };
    Ok((setups, prepared))
}

/// Runs the traced replay, writes `trace-<workload>.jsonl`, prints every
/// per-layer metric and returns whether the run was correct and the
/// result line.
fn traced_result(prepared: &Prepared, args: &Args, gate: bool) -> Result<(bool, String), String> {
    let name = prepared.workload.name;
    let report = layers::traced(prepared, args.seed, args.seconds)?;
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join(format!("trace-{name}.jsonl"));
    let key_names: Vec<&str> = report.key_names.iter().map(String::as_str).collect();
    report
        .tracer
        .write_jsonl(&path, &key_names)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!(
        "  {} spans -> {}",
        report.tracer.spans.len(),
        path.display()
    );
    let mut metrics = Vec::new();
    for layer in &PER_LAYER {
        let (value, samples) = report.values[layer.name];
        println!(
            "  {:<34} {:>16.4} {:<7} n={samples}",
            layer.name, value, layer.unit
        );
        metrics.push((layer.name, value, layer.unit));
    }
    println!("  failed_share {} / {}", report.failed, report.attempted);
    let correct = gate && report.failed == 0;
    let line = result_line(correct, report.attempted.max(1), report.failed, &metrics);
    Ok((correct, line))
}

/// Runs the untraced measurement, prints every end-to-end metric and
/// returns whether the run was correct and the result line.
fn measured_result(
    prepared: &Prepared,
    args: &Args,
    gate: bool,
    setups: &Setups,
    peak_rss_mb: f64,
) -> (bool, String) {
    let workload = prepared.workload;
    let m = measure::measure(prepared, args.seed, args.seconds);
    let failed = m.failed + prepared.stale_expected.len() as u64;
    let values = [
        stats::median(&setups.calibrated_s),
        m.request_cu(50.0),
        m.request_cu(90.0),
        m.requests_per_cu(),
        m.attempted.saturating_sub(failed) as f64 / m.attempted as f64,
        prepared.code_ops as f64,
        prepared.array_bytes as f64,
        peak_rss_mb,
    ];
    let samples = format!("n={}x{}", workload.rows.len(), m.samples_per_row());
    let notes = [
        format!(
            "median of {} set-ups, raw {:.4} s",
            setups.raw_s.len(),
            stats::median(&setups.raw_s)
        ),
        format!("{:.4} ms, {samples}", m.request_ms(50.0)),
        format!("{:.4} ms, {samples}", m.request_ms(90.0)),
        format!("{} requests in {:.3} s", m.attempted - m.failed, m.wall_s),
        format!("1 - failed_share, {failed} failed of {}", m.attempted),
        format!("{} compiled keys", workload.count_classes().len()),
        "Figure 8 quantity".to_string(),
        "VmHWM after the first set-up and every key once, before any calibration".to_string(),
    ];
    let mut metrics = Vec::new();
    for ((def, value), note) in END_TO_END.iter().zip(values).zip(notes) {
        println!(
            "  {:<34} {:>16.4} {:<7} ({note})",
            def.name, value, def.unit
        );
        metrics.push((def.name, value, def.unit));
    }
    let calib_ms: Vec<f64> = m.calib.iter().map(|s| s * 1e3).collect();
    println!(
        "  host.calib_ms p50 {:.4} min {:.4} spread {:.4} over {} calibrations",
        stats::median(&calib_ms),
        stats::min(&calib_ms),
        stats::iqr_share(&calib_ms),
        calib_ms.len()
    );
    let [p50, p90, rate] = m.spreads();
    println!(
        "  spread {{\"setup_s\": {}, \"request_cu_p50\": {}, \"request_cu_p90\": {}, \"requests_per_cu\": {}}}",
        num(stats::iqr_share(&setups.calibrated_s)),
        num(p50),
        num(p90),
        num(rate)
    );
    println!("  failed_share {failed} / {}", m.attempted);
    let correct = gate && failed == 0;
    let line = result_line(correct, m.attempted.max(1), failed, &metrics);
    (correct, line)
}

fn run_one(name: &str, args: &Args) -> Result<bool, String> {
    let workload = Workload::by_name(name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        format!(
            "unknown workload `{name}` (expected one of: {})",
            names.join(", ")
        )
    })?;
    let (table, traffic) = (workload.table_digest(), workload.traffic_digest(args.seed));
    let (pinned_table, pinned_traffic) = pinned_digests(name)?;
    let pinned = table == pinned_table && (args.seed != DEFAULT_SEED || traffic == pinned_traffic);
    println!(
        "workload {name}  seed {}  threads {} = {}  table_digest {table:016x}  traffic_digest {traffic:016x}  {}",
        args.seed,
        workload.thread_rule,
        workload.threads,
        if pinned {
            "(pinned digests match)"
        } else {
            "(PINNED DIGEST MISMATCH)"
        }
    );

    // One untimed set-up first: it pays for the page cache and the child
    // binary's first load.
    let prepared = Prepared::new(&workload, args.seed)?;
    let (correct, line) = if args.trace {
        let gate = pinned && report_stale(&prepared);
        traced_result(&prepared, args, gate)?
    } else {
        // The peak is read after every key has been served once and
        // before the first calibration, so it holds the program's arrays
        // and one set-up but none of the harness's 17 MB of kernel arrays.
        measure::warm_up(&prepared);
        let peak_rss_mb = setup::peak_rss_mb();
        let (setups, prepared) = timed_setups(prepared, args.seed)?;
        if !setups.counts_repeat {
            println!("  code_ops/array_bytes did NOT repeat between set-ups");
        }
        let gate = pinned && setups.counts_repeat && report_stale(&prepared);
        measured_result(&prepared, args, gate, &setups, peak_rss_mb)
    };
    println!("{line}");
    Ok(correct)
}

/// Prints the keys whose committed expected bits disagree with the fresh
/// interp/baseline reference; true when there are none.
fn report_stale(prepared: &Prepared) -> bool {
    for key in &prepared.stale_expected {
        println!("  STALE expected bits: {key} disagrees with interp/baseline");
    }
    prepared.stale_expected.is_empty()
}

/// CPU model and core count, recorded with every result file.
fn host_json() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map_or("unknown", |rest| rest.trim_start_matches([' ', '\t', ':']));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut clock = calib::Clock::new(1);
    for _ in 0..5 {
        clock.calibrate();
    }
    let calib_ms_min = stats::min(&clock.samples) * 1e3;
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"host.calib_ms_min\": {}}}",
        quote(model),
        num(calib_ms_min)
    )
}

/// Runs every workload in a child process each, untraced then traced,
/// and writes `<out>/result.json`.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let mut entries = Vec::new();
    for (name, _) in WORKLOADS {
        let mut parts = Vec::new();
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["run", "--workload", name, "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .arg("--out")
                .arg(&args.out)
                .output()
                .map_err(|e| format!("cannot start the {name} child: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            print!("{stdout}");
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            all_ok &= out.status.success();
            let result = stdout.lines().last().unwrap_or("null").to_string();
            let key = if trace == "0" {
                "end_to_end"
            } else {
                "per_layer"
            };
            parts.push(format!("{}: {result}", quote(key)));
            if let Some(spread) = stdout
                .lines()
                .find_map(|l| l.trim().strip_prefix("spread "))
            {
                parts.push(format!("\"spread\": {spread}"));
            }
        }
        entries.push(format!("    {}: {{{}}}", quote(name), parts.join(", ")));
    }
    let text = format!(
        "{{\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host_json(),
        args.seed,
        num(args.seconds),
        entries.join(",\n")
    );
    let path = args.out.join("result.json");
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(all_ok)
}

/// `BENCHMARK.json`, generated from the tables the harness itself uses.
fn manifest() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let better = |higher: bool| if higher { "higher" } else { "lower" };
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                better(m.higher_is_better),
                num(m.bound)
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"}}",
                quote(m.name),
                quote(m.unit),
                better(m.higher_is_better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\", \"run\"],\n  \
         \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

fn bless() -> Result<(), String> {
    let mut digests = String::new();
    for (name, _) in WORKLOADS {
        let workload = Workload::by_name(name).expect("listed workload");
        setup::bless(&workload)?;
        digests += &format!(
            "{name} {:016x} {:016x}\n",
            workload.table_digest(),
            workload.traffic_digest(DEFAULT_SEED)
        );
        println!("blessed {name}: {} keys", workload.classes.len());
    }
    std::fs::write(digests_path(), digests).map_err(|e| e.to_string())
}

fn dispatch(args: &[String]) -> Result<u8, String> {
    let (command, rest) = args.split_first().ok_or(USAGE)?;
    let exit = |ok: bool| if ok { 0 } else { 1 };
    match command.as_str() {
        "run" => {
            let args = parse_args(rest)?;
            match &args.workload {
                Some(name) => run_one(name, &args).map(exit),
                None => run_all(&args).map(exit),
            }
        }
        "reference" => {
            let args = parse_args(rest)?;
            let name = args.workload.ok_or("reference needs --workload")?;
            let workload = Workload::by_name(&name).ok_or("unknown workload")?;
            setup::print_references(&workload, args.seed)?;
            Ok(0)
        }
        "compare" => match rest {
            [a, b] => compare::compare(Path::new(a), Path::new(b)),
            _ => Err("usage: compare A.json B.json".to_string()),
        },
        "bless" => bless().map(|()| 0),
        "manifest" => {
            print!("{}", manifest());
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(code) => ExitCode::from(code),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
