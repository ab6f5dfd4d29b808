//! The one table of metric definitions: `BENCHMARK.json` is generated
//! from it (`manifest`), `run` prints by it, `compare` bounds by it.

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's value by which the metric may worsen.
    pub bound: f64,
}

/// The end-to-end metrics, the same definition on every workload.
///
/// `correct_share` is the issue's `failed_share` read the other way round
/// (1 - failed / attempted), because the driver wants metrics that are
/// never 0; any failure also makes the command exit nonzero.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("request_cu_p50", "cu", false, 0.25),
    e2e("request_cu_p90", "cu", false, 0.25),
    e2e("requests_per_cu", "1/cu", true, 0.25),
    e2e("correct_share", "ratio", true, 0.001),
    e2e("code_ops", "count", false, 0.05),
    e2e("array_bytes", "bytes", false, 0.001),
    e2e("peak_rss_mb", "MB", false, 0.15),
];

const fn e2e(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    bound: f64,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better,
        bound,
    }
}

pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn lower(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Layer {
    Layer {
        name,
        unit,
        higher_is_better: true,
    }
}

/// The engine configurations of `loopir.exec.*_cu`: metric suffix, engine
/// CLI name, threads (`usize::MAX` = `min(nproc, 4)`), lanes (0 = engine
/// default).
pub const EXEC_CONFIGS: [(&str, &str, usize, usize); 8] = [
    ("interp", "interp", 0, 0),
    ("vm", "vm", 0, 0),
    ("vm-verified", "vm-verified", 0, 0),
    ("vm-simd-l1", "vm-simd", 0, 1),
    ("vm-simd", "vm-simd", 0, 0),
    ("vm-par-t1-l1", "vm-par", 1, 1),
    ("vm-par-t1", "vm-par", 1, 0),
    ("vm-par", "vm-par", usize::MAX, 0),
];

/// Per-layer metrics (`core.pass.<PassId::name>_us` for the passes
/// reported one by one; every `verify::*` stage is summed into
/// `core.pass.verify_us`): `_us` raw microseconds (mean over keys of the
/// per-key median self time), `_cu` calibrated (geometric mean over keys
/// of the per-key median), bare names exact counts (summed over keys).
pub const PER_LAYER: [Layer; 72] = [
    lower("zlang.lex_us", "us"),
    lower("zlang.parse_us", "us"),
    lower("zlang.sema_us", "us"),
    lower("zlang.tokens", "count"),
    lower("zlang.ir_stmts", "count"),
    lower("core.optimize_us", "us"),
    lower("core.pass.normalize_us", "us"),
    lower("core.pass.rce2_us", "us"),
    lower("core.pass.fuse-contraction_us", "us"),
    lower("core.pass.fuse-locality_us", "us"),
    lower("core.pass.contract_us", "us"),
    lower("core.pass.find-loop-structure_us", "us"),
    lower("core.pass.scalarize_us", "us"),
    lower("core.pass.verify_us", "us"),
    lower("core.stmts", "count"),
    lower("core.clusters", "count"),
    lower("core.nests", "count"),
    higher("core.contracted_arrays", "count"),
    lower("core.arrays_after", "count"),
    lower("core.asdg_builds", "count"),
    higher("core.rce2_rewrites", "count"),
    lower("core.rce2_temps", "count"),
    lower("loopir.bytecode_us", "us"),
    lower("loopir.superfuse_us", "us"),
    lower("loopir.verify_us", "us"),
    lower("loopir.vm_construct_us", "us"),
    lower("loopir.code_ops", "count"),
    lower("loopir.exec.interp_cu", "cu"),
    lower("loopir.exec.vm_cu", "cu"),
    lower("loopir.exec.vm-verified_cu", "cu"),
    lower("loopir.exec.vm-simd-l1_cu", "cu"),
    lower("loopir.exec.vm-simd_cu", "cu"),
    lower("loopir.exec.vm-par-t1-l1_cu", "cu"),
    lower("loopir.exec.vm-par-t1_cu", "cu"),
    lower("loopir.exec.vm-par_cu", "cu"),
    lower("loopir.points", "count"),
    lower("loopir.loads", "count"),
    lower("loopir.stores", "count"),
    lower("loopir.flops", "count"),
    lower("loopir.peak_bytes", "bytes"),
    higher("loopir.tiles", "count"),
    higher("loopir.mpoints_per_s", "Mpts/s"),
    lower("cache.key_us", "us"),
    lower("cache.hit_us", "us"),
    lower("cache.miss_us", "us"),
    higher("cache.hit_rate", "ratio"),
    lower("cache.misses", "count"),
    lower("cache.evictions", "count"),
    higher("cache.len", "count"),
    lower("supervisor.hit_overhead_us", "us"),
    lower("supervisor.attempts", "count"),
    lower("supervisor.degraded", "count"),
    lower("serve.queue_wait_us_p50", "us"),
    lower("serve.service_cu_p99", "cu"),
    lower("serve.wall_s", "s"),
    lower("serve.shed", "count"),
    lower("serve.retried", "count"),
    lower("serve.breaker_routed", "count"),
    lower("machine.observe_ratio", "ratio"),
    lower("machine.l1_misses", "count"),
    lower("machine.l2_misses", "count"),
    lower("machine.sim_total_ns", "ns"),
    lower("runtime.comm_messages", "count"),
    lower("runtime.comm_bytes", "bytes"),
    higher("runtime.improvement_pct", "%"),
    lower("lazy.record_us", "us"),
    lower("host.calib_ms_p50", "ms"),
    lower("host.calib_ms_min", "ms"),
    lower("host.calib_spread", "ratio"),
    higher("trace.coverage", "ratio"),
    lower("trace.overhead", "ratio"),
    lower("trace.failed_share", "ratio"),
];
