//! Integration tests for the `zlc` compiler driver.

use std::process::Command;

fn zlc(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args(args)
        .output()
        .expect("zlc runs");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

fn program_path(name: &str) -> String {
    format!("{}/examples/programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn compiles_and_runs_heat() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--print",
        "report",
        "--run",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("contraction report"), "{stdout}");
    assert!(stdout.contains("NEW"), "{stdout}");
    assert!(stdout.contains("err = "), "{stdout}");
    assert!(stdout.contains("peak"), "{stdout}");
}

#[test]
fn dimension_contraction_flag_collapses_sweep() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("sweep.zl"),
        "--level",
        "c2+dim",
        "--print",
        "report",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("contracted to a slice"), "{stdout}");
}

#[test]
fn machine_simulation_reports_comm() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--run",
        "--machine",
        "t3e",
        "--procs",
        "16",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("Cray T3E x16"), "{stdout}");
    assert!(stdout.contains("msgs"), "{stdout}");
}

/// `--machine` only chooses what observes the run: the engine's knobs
/// reach the simulated run (`--lanes` used to be dropped there), every
/// engine prints the tree-walker's line at every width, plain and
/// supervised, and a knob the engine name pins is the usage error it is
/// without `--machine`.
#[test]
fn machine_runs_read_the_engine_knobs() {
    let heat = program_path("heat.zl");
    let common = ["--level", "c2+f3", "--machine", "t3e", "--procs", "16"];
    let line = |mode: &str, knobs: &[&str]| {
        let mut args = vec![heat.as_str(), mode];
        args.extend_from_slice(&common);
        args.extend_from_slice(knobs);
        let (stdout, stderr, ok) = zlc(&args);
        assert!(ok, "{args:?}: {stderr}");
        let marker = if mode == "--run" {
            "Cray T3E x16"
        } else {
            "simulated x16"
        };
        let line = stdout.lines().find(|l| l.contains(marker));
        line.unwrap_or_else(|| panic!("{args:?}: {stdout}"))
            .to_string()
    };
    let knobs: [&[&str]; 4] = [
        &["--engine", "vm"],
        &["--engine", "vm-simd"],
        &["--engine", "vm-simd", "--lanes", "8"],
        &["--engine", "vm-par", "--threads", "2", "--lanes", "8"],
    ];
    for mode in ["--run", "--supervise"] {
        let want = line(mode, &["--engine", "interp"]);
        for k in knobs {
            assert_eq!(line(mode, k), want, "{mode} {k:?}");
        }
        let mut args = vec![heat.as_str(), mode];
        args.extend_from_slice(&common);
        args.extend_from_slice(&["--engine", "vm", "--lanes", "8"]);
        let stderr = usage_error(&args);
        assert!(
            stderr.contains("`--lanes` is not read by `--engine vm`"),
            "{stderr}"
        );
    }
}

#[test]
fn print_loops_shows_fused_nests() {
    let (stdout, _, ok) = zlc(&[
        &program_path("fragment5.zl"),
        "--level",
        "c1",
        "--print",
        "loops",
    ]);
    assert!(ok);
    assert!(stdout.contains("for i"), "{stdout}");
    // The offset self-update fuses via loop reversal at c1.
    assert!(stdout.contains("downto"), "{stdout}");
}

#[test]
fn asdg_dot_output() {
    let (stdout, _, ok) = zlc(&[&program_path("sweep.zl"), "--print", "asdg"]);
    assert!(ok);
    assert!(stdout.contains("digraph asdg"), "{stdout}");
    assert!(stdout.contains("flow"), "{stdout}");
}

#[test]
fn verify_flag_reports_clean_examples() {
    for example in ["heat.zl", "sweep.zl", "fragment5.zl"] {
        let (stdout, stderr, ok) = zlc(&[&program_path(example), "--verify"]);
        assert!(ok, "{example}: {stderr}");
        assert!(stdout.contains("verify: ok"), "{example}: {stdout}");
        assert!(stderr.is_empty(), "{example}: {stderr}");
    }
}

#[test]
fn verify_composes_with_run_and_verified_engine() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--verify",
        "--run",
        "--engine",
        "vm-simd",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("verify: ok"), "{stdout}");
    assert!(stdout.contains("err = "), "{stdout}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let (_, stderr, ok) = zlc(&["/nonexistent.zl"]);
    assert!(!ok);
    assert!(stderr.contains("cannot read"), "{stderr}");

    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--level", "bogus"]);
    assert!(!ok);
    assert!(stderr.contains("unknown level"), "{stderr}");

    // One spec, one spelling: a suffix given twice is rejected by name.
    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--level", "c2+rce2+rce2"]);
    assert!(!ok);
    assert!(stderr.contains("`+rce2` is given twice"), "{stderr}");

    // One engine, one documented spelling (plus the harness's `vm-verified`).
    let stderr = usage_error(&[&program_path("heat.zl"), "--run", "--engine", "simd"]);
    assert!(
        stderr.contains("unknown engine `simd` (expected `interp`, `vm`, `vm-simd`, or `vm-par`)"),
        "{stderr}"
    );

    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--run", "--set", "nonesuch=3"]);
    assert!(!ok);
    assert!(stderr.contains("no config named"), "{stderr}");

    let (_, stderr, ok) = zlc(&[]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn malformed_source_gets_rustc_style_diagnostic() {
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.zl");
    std::fs::write(&path, "program broken\nregion R = [1..n];\n").unwrap();
    let (_, stderr, ok) = zlc(&[path.to_str().unwrap()]);
    assert!(!ok);
    // A rendered diagnostic with a clickable span — no panic, no backtrace.
    assert!(stderr.starts_with("error["), "{stderr}");
    assert!(stderr.contains("--> "), "{stderr}");
    assert!(stderr.contains("broken.zl:"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(!stderr.contains("RUST_BACKTRACE"), "{stderr}");
}

#[test]
fn unknown_engine_is_a_clean_usage_error() {
    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--run", "--engine", "jit"]);
    assert!(!ok);
    assert!(stderr.contains("unknown engine `jit`"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn out_of_range_config_is_a_diagnostic_not_a_panic() {
    let (_, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--run",
        "--set",
        "n=9999999999999",
    ]);
    assert!(!ok);
    assert!(stderr.contains("error[config]"), "{stderr}");
    assert!(stderr.contains("1 TiB"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// `n+1` at the largest `i64` wraps: the binding every path builds
/// refuses it, naming the region, where `--run` used to print `s = 0`
/// over "0 points" (and the debug build to panic). One less is the
/// footprint diagnostic, as before.
#[test]
fn a_region_bound_that_overflows_is_a_config_error_on_every_path() {
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wrap.zl");
    std::fs::write(
        &path,
        "program w; config n : int = 4; region R = [0..n+1]; var A : [R] float; \
         var s : float; begin [R] A := 1.0; s := +<< [R] A; end\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for mode in [
        &[file, "--run"][..],
        &[file, "--supervise"],
        &["serve", file],
    ] {
        let (stdout, stderr, ok) = zlc(&[mode, &["--set", "n=9223372036854775807"]].concat());
        assert!(!ok, "{mode:?}: {stdout}");
        assert!(stderr.contains("error[config]"), "{mode:?}: {stderr}");
        assert!(stderr.contains("region `R`"), "{mode:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{mode:?}: {stderr}");
        assert!(stdout.is_empty(), "{mode:?}: {stdout}");
        let (_, stderr, ok) = zlc(&[mode, &["--set", "n=9223372036854775806"]].concat());
        assert!(!ok, "{mode:?}");
        assert!(stderr.contains("error[config]"), "{mode:?}: {stderr}");
        assert!(stderr.contains("1 TiB"), "{mode:?}: {stderr}");
    }
}

/// A reader that closes the pipe before `zlc` writes (`zlc ... | head
/// -1` after its line) ends the output quietly: success, and no panic
/// or backtrace on stderr.
#[test]
fn a_closed_stdout_ends_the_output_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args([&program_path("heat.zl"), "--run", "--print", "loops"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("zlc runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("zlc exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(stderr.is_empty(), "{stderr}");
}

#[test]
fn supervised_clean_run_reports_no_degradation() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--supervise",
        "--engine",
        "vm",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("err = "), "{stdout}");
    assert!(stdout.contains("supervised run"), "{stdout}");
    assert!(stdout.contains("attempt 1"), "{stdout}");
    assert!(!stdout.contains("degraded"), "{stdout}");
}

#[test]
fn supervised_run_with_injected_trap_degrades_and_succeeds() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--supervise",
        "--engine",
        "vm",
        "--inject",
        "seed=42,vm-trap",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("err = "), "{stdout}");
    assert!(stdout.contains("vm-trap"), "{stdout}");
    assert!(stdout.contains("degraded"), "{stdout}");
}

/// A zero deadline has passed before the compile starts: the first rung
/// fails at the compile's entry check, and the deadline fault ends the
/// ladder, so no slower rung runs after it.
#[test]
fn supervised_zero_deadline_fails_once_before_compiling() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--supervise",
        "--deadline-ms",
        "0",
        "--set",
        "n=8",
    ]);
    assert!(!ok, "{stdout}");
    assert!(!stdout.contains("err = "), "{stdout}");
    assert!(stderr.starts_with("error[supervisor]"), "{stderr}");
    let attempts: Vec<&str> = stderr.lines().filter(|l| l.contains("attempt")).collect();
    assert_eq!(attempts.len(), 1, "{stderr}");
    assert!(
        attempts[0].contains("c2 on vm — deadline exceeded in normalize stage"),
        "{stderr}"
    );
}

/// A `for` loop of scalar statements stops at the deadline on the
/// `interp` rung like any other run, and the request fails there: no
/// rung may start after the deadline, the reference rung included. (The
/// loop runs seconds in the debug profile and half a second in release,
/// so the 100 ms budget passes mid-loop, after compiling.)
#[test]
fn supervised_interp_run_stops_at_the_deadline_in_a_scalar_for_loop() {
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("spin.zl");
    std::fs::write(
        &path,
        "program spin; config iters : int = 1; var s : float; var k : int;\n\
         begin for k := 1 to iters do s := s + 1.0; end; end\n",
    )
    .unwrap();
    let started = std::time::Instant::now();
    let (stdout, stderr, ok) = zlc(&[
        path.to_str().unwrap(),
        "--supervise",
        "--engine",
        "interp",
        "--deadline-ms",
        "100",
        "--set",
        "iters=20000000",
    ]);
    let elapsed = started.elapsed();
    assert!(!ok, "{stdout}");
    let attempts: Vec<&str> = stderr.lines().filter(|l| l.contains("attempt")).collect();
    assert_eq!(attempts.len(), 1, "{stderr}");
    assert!(
        attempts[0].contains("c2 on interp — deadline exceeded in execute stage"),
        "{stderr}"
    );
    assert!(!stdout.contains("s = "), "{stdout}");
    assert!(elapsed < std::time::Duration::from_secs(2), "{elapsed:?}");
}

#[test]
fn supervised_machine_run_prints_sim_line() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--supervise",
        "--machine",
        "t3e",
        "--procs",
        "16",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("simulated x16"), "{stdout}");
}

#[test]
fn bad_inject_plan_is_a_usage_error() {
    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--inject", "seed=1,warp-core"]);
    assert!(!ok);
    assert!(stderr.contains("bad --inject plan"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn emit_dumps_snapshot_after_named_pass() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--level",
        "c2+f3",
        "--emit",
        "scalarize",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("// after scalarize\n"), "{stdout}");
    assert!(stdout.contains("for "), "{stdout}");
}

#[test]
fn emit_unknown_pass_is_a_usage_error() {
    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--emit", "no-such-pass"]);
    assert!(!ok);
    assert!(stderr.contains("unknown pass `no-such-pass`"), "{stderr}");
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn emit_unscheduled_pass_fails_with_level() {
    let (_, stderr, ok) = zlc(&[&program_path("heat.zl"), "--level", "c2", "--emit", "rce2"]);
    assert!(!ok);
    assert!(
        stderr.contains("pass `rce2` did not run at level c2"),
        "{stderr}"
    );
}

/// `--list-passes` prints exactly the passes the optimizer can run, and
/// every one of them snapshots under the one spec that schedules all
/// nine.
#[test]
fn list_passes_lists_exactly_what_emit_can_snapshot() {
    let (stdout, _, ok) = zlc(&["--list-passes"]);
    assert!(ok);
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(
        listed,
        [
            "normalize",
            "rce2",
            "fuse-contraction",
            "fuse-locality",
            "fuse-pairwise",
            "contract",
            "dim-contract",
            "find-loop-structure",
            "scalarize"
        ]
    );
    for pass in listed {
        let (stdout, stderr, ok) = zlc(&[
            &program_path("sweep.zl"),
            "--level",
            "c2+f4+rce2+dim",
            "--emit",
            pass,
        ]);
        assert!(ok, "--emit {pass}: {stderr}");
        assert!(
            stdout.starts_with(&format!("// after {pass}\n")),
            "--emit {pass}: {stdout}"
        );
    }
}

/// The other stage identities name where a fault or a diagnostic came
/// from; none leaves a snapshot, so `--emit` rejects them up front
/// (`--emit verify::asdg` used to print the scalarized loops, and
/// `--emit parse` failed after compiling with "did not run").
#[test]
fn emit_of_a_stage_that_is_not_a_pass_is_a_usage_error() {
    for stage in ["parse", "verify::asdg", "verify", "execute"] {
        let stderr = usage_error(&[&program_path("heat.zl"), "--emit", stage]);
        assert!(
            stderr.contains(&format!("unknown pass `{stage}`")),
            "{stderr}"
        );
        assert!(stderr.contains("normalize, rce2, "), "{stderr}");
        assert!(stderr.contains(", scalarize)"), "{stderr}");
    }
}

/// The report is headed by the full level spec, cleanup suffix included
/// (it used to drop it and say `c2+f3`).
#[test]
fn print_report_names_the_cleanup_suffixes() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--level",
        "c2+f3+rce2",
        "--print",
        "report",
    ]);
    assert!(ok, "{stderr}");
    assert!(
        stdout.starts_with("contraction report at c2+f3+rce2:\n"),
        "{stdout}"
    );
}

#[test]
fn level_cleanup_suffixes_schedule_the_passes() {
    let (stdout, stderr, ok) = zlc(&[
        &program_path("heat.zl"),
        "--level",
        "c2+f3+rce2",
        "--emit",
        "rce2",
        "--run",
        "--set",
        "n=16",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("// after rce2\n"), "{stdout}");
    assert!(stdout.contains("err = "), "{stdout}");
}

/// Exit 2 with nothing on stdout: the usage error is raised while the
/// arguments are parsed, before anything is compiled or printed.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
        .args(args)
        .output()
        .expect("zlc runs");
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed before failing");
    stderr
}

/// `--print loops --print bogus` used to optimize, print the loops and
/// only then exit 2: the target was matched inside the print loop.
#[test]
fn print_target_is_checked_before_any_work() {
    let heat = program_path("heat.zl");
    let stderr = usage_error(&[&heat, "--print", "loops", "--print", "bogus"]);
    assert!(
        stderr.contains("unknown --print target `bogus`"),
        "{stderr}"
    );
    assert!(
        stderr.contains("(expected one of: ir, loops, bytecode, asdg, report, source, hash)"),
        "{stderr}"
    );
    // The usage line is written from the same list.
    assert!(
        stderr.contains("[--print ir|loops|bytecode|asdg|report|source|hash]..."),
        "{stderr}"
    );
}

/// The `+rce` and `+dse` suffixes, their passes and the `avail` print
/// target are gone: each name is the usage error any unknown one is
/// (`c2+dse` reads like `c2+f5`), and the message lists what is accepted.
#[test]
fn retired_rce_and_avail_names_are_usage_errors() {
    let heat = program_path("heat.zl");
    let stderr = usage_error(&[&heat, "--level", "c2+rce"]);
    assert!(stderr.contains("unknown level `c2+rce`"), "{stderr}");
    assert!(stderr.contains("c2+f3, c2+f4; append `+rce2`"), "{stderr}");
    for level in ["c2+dse", "c2+f3+dse+rce2", "c2+rce2+dse", "c2+f5"] {
        let stderr = usage_error(&[&heat, "--level", level, "--run"]);
        assert!(
            stderr.contains(&format!("unknown level `{level}`")),
            "{stderr}"
        );
    }
    for pass in ["rce", "dse"] {
        let stderr = usage_error(&[&heat, "--emit", pass]);
        assert!(
            stderr.contains(&format!("unknown pass `{pass}`")),
            "{stderr}"
        );
        assert!(stderr.contains("normalize, rce2, "), "{stderr}");
    }
    let stderr = usage_error(&[&heat, "--print", "avail"]);
    assert!(
        stderr.contains("unknown --print target `avail`"),
        "{stderr}"
    );
    assert!(stderr.contains("asdg, report, source, hash)"), "{stderr}");
}

#[test]
fn print_hash_is_stable_across_print_reparse() {
    let (h1, stderr, ok) = zlc(&[&program_path("heat.zl"), "--print", "hash"]);
    assert!(ok, "{stderr}");
    let h1 = h1.trim().to_string();
    assert_eq!(h1.len(), 16, "16 hex digits: {h1}");
    assert!(h1.chars().all(|c| c.is_ascii_hexdigit()), "{h1}");

    // Pretty-print the program, re-parse the printed source: the
    // structural hash must survive the round trip (interned-name
    // invariant), and must differ for a different program.
    let (src, _, ok) = zlc(&[&program_path("heat.zl"), "--print", "source"]);
    assert!(ok);
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("heat_roundtrip.zl");
    std::fs::write(&path, &src).unwrap();
    let (h2, _, ok) = zlc(&[path.to_str().unwrap(), "--print", "hash"]);
    assert!(ok);
    assert_eq!(h1, h2.trim(), "round trip changed the hash");

    let (h3, _, ok) = zlc(&[&program_path("sweep.zl"), "--print", "hash"]);
    assert!(ok);
    assert_ne!(h1, h3.trim());
}

#[test]
fn list_engines_names_every_engine() {
    let (stdout, _, ok) = zlc(&["--list-engines"]);
    assert!(ok);
    for engine in ["interp", "vm", "vm-simd", "vm-par"] {
        assert!(
            stdout.lines().any(|l| l == engine),
            "missing {engine}: {stdout}"
        );
    }
    assert_eq!(stdout.lines().count(), 4, "{stdout}");
}

/// The benchmark harness passes `--engine vm-verified`-style names: the
/// name must keep parsing, run exactly as `vm`, and report itself as `vm`.
#[test]
fn vm_verified_is_a_spelling_of_vm() {
    let run = |engine: &str| {
        zlc(&[
            &program_path("heat.zl"),
            "--supervise",
            "--engine",
            engine,
            "--set",
            "n=16",
        ])
    };
    let (alias, stderr, ok) = run("vm-verified");
    assert!(ok, "{stderr}");
    assert!(alias.contains("err = "), "{alias}");
    assert!(alias.contains("requested c2 on vm\n"), "{alias}");
    assert!(!alias.contains("vm-verified"), "{alias}");
    let strip_times = |out: &str| -> Vec<String> {
        out.lines()
            .map(|l| l.split(" — ").next().unwrap().to_string())
            .collect()
    };
    assert_eq!(strip_times(&alias), strip_times(&run("vm").0));
}

#[test]
fn serve_replays_files_and_reports_cache_hits() {
    let (stdout, stderr, ok) = zlc(&[
        "serve",
        &program_path("heat.zl"),
        &program_path("sweep.zl"),
        "--requests",
        "40",
        "--workers",
        "4",
        "--set",
        "n=12",
        "--engine",
        "vm-simd",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("served 40 requests"), "{stdout}");
    assert!(stdout.contains("0 failed"), "{stdout}");
    // 2 distinct programs -> 2 misses, 38 hits (95%).
    assert!(stdout.contains("38 hits, 2 misses"), "{stdout}");
    assert!(stdout.contains("95.0% hit rate"), "{stdout}");
    // Each file is parsed once (by the up-front check) and optimized once.
    assert!(
        stdout.contains("stages: parsed 2, optimized 2, lowered 2"),
        "{stdout}"
    );
    assert!(stdout.contains("vm-simd"), "{stdout}");
}

#[test]
fn serve_without_files_is_a_usage_error() {
    let (_, stderr, ok) = zlc(&["serve"]);
    assert!(!ok);
    assert!(
        stderr.contains("serve needs at least one input file"),
        "{stderr}"
    );
}

#[test]
fn serve_surfaces_parse_errors_with_the_file_name() {
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("serve_broken.zl");
    std::fs::write(&path, "program nope\n").unwrap();
    let (_, stderr, ok) = zlc(&["serve", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("serve_broken.zl"), "{stderr}");
}

/// `--supervise` runs the configuration `--run` runs: with a cleanup
/// suffix in the level the stats line is the same on both paths (Tomcatv
/// executes fewer flops under `+rce2`) and the report names the full spec.
#[test]
fn supervised_run_honours_cleanup_suffixes() {
    let dir = std::env::temp_dir().join("zlc-cli-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("tomcatv_supervised.zl");
    let tomcatv = zpl_fusion::workloads::by_name("tomcatv").unwrap();
    std::fs::write(&path, tomcatv.source).unwrap();
    let stats_line = |level: &str, mode: &str| {
        let (stdout, stderr, ok) = zlc(&[path.to_str().unwrap(), "--level", level, mode]);
        assert!(ok, "{stderr}");
        let line = stdout.lines().find(|l| l.starts_with("-- ")).unwrap();
        (line.to_string(), stdout)
    };
    let (run, _) = stats_line("c2+f3+rce2", "--run");
    let (supervised, report) = stats_line("c2+f3+rce2", "--supervise");
    assert_eq!(supervised, run);
    assert!(run.contains(" 409664 flops"), "{run}");
    assert!(report.contains("requested c2+f3+rce2 on vm"), "{report}");
    assert!(
        report.contains("final: c2+f3+rce2 on vm\n"),
        "not degraded: {report}"
    );
    let (plain, _) = stats_line("c2+f3", "--supervise");
    assert_ne!(plain, run, "`+rce2` changes the executed work");
}

/// A `--set` name the program does not declare is an error on every
/// path, never a silently ignored override.
#[test]
fn unknown_set_name_fails_on_every_path() {
    let heat = program_path("heat.zl");
    for args in [
        vec!["serve", &heat, "--set", "bogus=3", "--requests", "2"],
        vec![&heat, "--supervise", "--set", "bogus=3"],
        vec![&heat, "--run", "--set", "bogus=3"],
    ] {
        let (stdout, stderr, ok) = zlc(&args);
        assert!(!ok, "{args:?}: {stdout}");
        assert!(
            stderr.contains("error[config]: no config named `bogus`"),
            "{args:?}: {stderr}"
        );
    }
}

/// A mode reads a flag or rejects it: `--supervise` and `serve` compile
/// through the cache at the request's coordinates alone, so every flag
/// that only the plain path's pipeline reads is a usage error there (it
/// used to be dropped silently), `serve` rejects the one-shot flags, and
/// the one-shot modes reject the flags that shape a serve batch (they
/// used to be ignored).
#[test]
fn modes_reject_flags_they_do_not_read() {
    let sweep = program_path("sweep.zl");
    let pipeline_only: [&[&str]; 4] = [
        &["--favor-comm"],
        &["--emit", "scalarize"],
        &["--print", "loops"],
        &["--verify"],
    ];
    let one_shot_only: [&[&str]; 4] = [
        &["--machine", "t3e"],
        &["--procs", "4"],
        &["--supervise"],
        &["--run"],
    ];
    let mut table: Vec<(&str, Vec<&str>, &[&str])> = Vec::new();
    for flag in pipeline_only {
        table.push(("--supervise", vec![&sweep, "--supervise"], flag));
        table.push(("serve", vec!["serve", &sweep], flag));
    }
    for flag in one_shot_only {
        table.push(("serve", vec!["serve", &sweep], flag));
    }
    let serve_only: [&[&str]; 4] = [
        &["--requests", "4"],
        &["--workers", "4"],
        &["--queue-cap", "3"],
        &["--shed", "reject-newest"],
    ];
    for flag in serve_only {
        table.push(("zlc <file.zl>", vec![&sweep, "--run"], flag));
        table.push(("--supervise", vec![&sweep, "--supervise"], flag));
    }
    for (mode, mut args, flag) in table {
        args.extend_from_slice(flag);
        let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
            .args(&args)
            .output()
            .expect("zlc runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("`{}` is not read by `{mode}`", flag[0])),
            "{args:?}: {stderr}"
        );
        if serve_only.contains(&flag) {
            assert!(stderr.contains("or run `zlc serve`"), "{args:?}: {stderr}");
        }
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }

    // Positive control: `--supervise` prints what its accepted flags
    // imply, `+dim` included (it used to be a plain-only flag).
    let stats = |out: &str| out.lines().find(|l| l.starts_with("-- ")).map(String::from);
    let scalars = |out: &str| {
        let lines = out.lines().filter(|l| l.contains(" = "));
        lines.map(String::from).collect::<Vec<_>>()
    };
    for (level, peak) in [("c2", "peak 16224 bytes"), ("c2+f3+dim", "peak 5824 bytes")] {
        let (plain, stderr, ok) = zlc(&[&sweep, "--level", level, "--run"]);
        assert!(ok, "{stderr}");
        let (supervised, stderr, ok) = zlc(&[&sweep, "--level", level, "--supervise"]);
        assert!(ok, "{stderr}");
        assert!(stats(&plain).unwrap().contains(peak), "{level}: {plain}");
        assert_eq!(stats(&supervised), stats(&plain), "{level}");
        assert_eq!(scalars(&supervised), scalars(&plain), "{level}");
    }
}

/// Retries, the drop-oldest shed policy and the two optimizer switches
/// outside `--level` are gone: each removed spelling is a usage error
/// that names what replaced it, the switches in every mode.
#[test]
fn removed_serve_spellings_name_their_replacement() {
    let heat = program_path("heat.zl");
    for mode in [&[][..], &["--run"], &["--supervise"], &["serve"]] {
        for (flag, says) in [
            (&["--dimension-contraction"][..], "use `--level <L>+dim`"),
            (
                &["--spatial-cap", "4"],
                "no resolved gain on the lane tier (EXPERIMENTS.md, \"Ablations\")",
            ),
            (&["--fuel", "10"], "use `--deadline-ms <n>`"),
        ] {
            let args = [mode, &[heat.as_str()], flag].concat();
            let stderr = usage_error(&args);
            assert!(
                stderr.contains(&format!("`{}` was removed", flag[0])),
                "{args:?}: {stderr}"
            );
            assert!(stderr.contains(says), "{args:?}: {stderr}");
            assert!(
                stderr.contains("usage: zlc <file.zl> [--level L[+rce2][+dim]] [--favor-comm]"),
                "{stderr}"
            );
        }
    }
    let stderr = usage_error(&["serve", &heat, "--retries", "1"]);
    assert!(stderr.contains("`--retries` was removed"), "{stderr}");
    assert!(
        stderr.contains("quarantined on its first fault, not retried (DESIGN.md §16)"),
        "{stderr}"
    );
    for policy in ["drop", "drop-oldest"] {
        let stderr = usage_error(&["serve", &heat, "--shed", policy]);
        assert!(
            stderr.contains(&format!("shed policy `{policy}` was removed")),
            "{stderr}"
        );
        assert!(
            stderr.contains("use reject-newest to shed the incoming request, or block"),
            "{stderr}"
        );
    }
    // The usage line lists only what is accepted.
    assert!(
        stderr.contains("[--shed reject-newest|block] [run options]"),
        "{stderr}"
    );
}

/// Plain `--run` applies the request's deadline to its executor, like the
/// simulated and supervised paths: a zero deadline is the same
/// `error[exec]` with or without `--machine`, on every engine, because a
/// run checks the deadline before its first op.
#[test]
fn plain_run_honours_a_deadline_like_the_machine_path() {
    let sweep = program_path("sweep.zl");
    for engine in ["interp", "vm", "vm-simd", "vm-par"] {
        let run = [&sweep[..], "--run", "--engine", engine, "--deadline-ms"];
        let (stdout, plain, ok) = zlc(&[&run[..], &["0"]].concat());
        assert!(!ok, "{engine}: {stdout}");
        assert!(
            plain.starts_with("error[exec]: execution error: execution deadline exceeded"),
            "{engine}: {plain}"
        );
        let (_, simulated, ok) = zlc(&[&run[..], &["0", "--machine", "t3e"]].concat());
        assert!(!ok, "{engine}");
        assert_eq!(plain, simulated, "{engine}");
        let (stdout, stderr, ok) = zlc(&[&run[..], &["600000"]].concat());
        assert!(ok, "{engine}: {stderr}");
        assert!(stdout.contains("peak 16224 bytes"), "{engine}: {stdout}");
    }
}

/// An engine name reads a knob or rejects it: `--threads` is read by
/// `vm-par` alone and `--lanes` by `vm-simd` and `vm-par` (the other names
/// pin them), in `--run`, `--supervise` and `serve` alike. They used to be
/// dropped silently.
#[test]
fn engines_reject_knobs_their_name_pins() {
    let heat = program_path("heat.zl");
    let pinned = [
        ("interp", "--threads"),
        ("vm", "--threads"),
        ("vm-simd", "--threads"),
        ("interp", "--lanes"),
        ("vm", "--lanes"),
    ];
    let modes: [&[&str]; 3] = [
        &[&heat, "--run"],
        &[&heat, "--supervise"],
        &["serve", &heat],
    ];
    for (engine, flag) in pinned {
        for mode in modes {
            let mut args = mode.to_vec();
            args.extend_from_slice(&["--engine", engine, flag, "4"]);
            let out = Command::new(env!("CARGO_BIN_EXE_zlc"))
                .args(&args)
                .output()
                .expect("zlc runs");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
            assert!(
                stderr.contains(&format!("`{flag}` is not read by `--engine {engine}`")),
                "{args:?}: {stderr}"
            );
            assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        }
    }
    // `vm` is the default engine: the flag is rejected without `--engine`.
    let (_, stderr, ok) = zlc(&[&heat, "--run", "--lanes", "8"]);
    assert!(!ok);
    assert!(
        stderr.contains("`--lanes` is not read by `--engine vm`"),
        "{stderr}"
    );
    // The usage text says which name reads which knob.
    assert!(stderr.contains("[--threads N (vm-par)]"), "{stderr}");
    assert!(
        stderr.contains("[--lanes 0..128 (vm-simd|vm-par)]"),
        "{stderr}"
    );

    // Positive control: the names that read a knob take it, in every
    // mode, and print what `vm` prints.
    let (want, stderr, ok) = zlc(&[&heat, "--run"]);
    assert!(ok, "{stderr}");
    let reads: [&[&str]; 2] = [
        &["--engine", "vm-simd", "--lanes", "8"],
        &["--engine", "vm-par", "--threads", "2", "--lanes", "8"],
    ];
    for knobs in reads {
        let mut args = vec![heat.as_str(), "--run"];
        args.extend_from_slice(knobs);
        let (stdout, stderr, ok) = zlc(&args);
        assert!(ok, "{args:?}: {stderr}");
        assert_eq!(stdout, want, "{args:?}");
        for mode in &modes[1..] {
            let mut args = mode.to_vec();
            args.extend_from_slice(knobs);
            let (_, stderr, ok) = zlc(&args);
            assert!(ok, "{args:?}: {stderr}");
        }
    }
    let (stdout, _, _) = zlc(&[&heat, "--supervise", "--engine", "vm-par", "--threads", "2"]);
    assert!(stdout.contains("requested c2 on vm-par"), "{stdout}");
}
