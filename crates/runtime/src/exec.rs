//! The simulated parallel executor.
//!
//! Interprets the scalarized program for one representative processor's
//! block through the cache simulator, while the communication tracker
//! accounts ghost fetches and overlap per nest. Total simulated time is
//! per-node compute plus unhidden communication plus reductions — the SPMD
//! symmetric model described in the crate docs.

use crate::comm::{CommPolicy, CommStats, CommTracker};
use loopir::{
    Engine, ExecError, ExecLimits, ExecOpts, LoopNest, Observer, RunStats, ScalarProgram,
};
use machine::presets::Machine;
use machine::sim::{MemSim, MemStats};
use zlang::ir::ConfigBinding;

/// Configuration of one simulated run.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Which machine to model.
    pub machine: Machine,
    /// Number of processors. The config binding should describe the
    /// *per-processor* block (the paper scales problem size with `procs`).
    pub procs: u64,
    /// Communication optimizations in effect.
    pub policy: CommPolicy,
    /// Which execution engine runs the scalarized program: the
    /// tree-walker, or — under every VM name alike — the one lowered,
    /// verified stream ([`Engine::executor_with`]).
    pub engine: Engine,
    /// Worker-thread count for [`Engine::VmPar`] (`0` = auto); pinned to 1
    /// by the other names. Under the simulation it changes nothing: the
    /// cache and communication models consume the ordered address stream,
    /// so ladders never fan out as tiles and run on the calling thread.
    /// Lanes do run (at the default width, under `vm-simd` and `vm-par`):
    /// a lane run reports each strip in scalar order
    /// (`loopir::Observer::strip`), so every simulated number is the
    /// same to the bit under every engine.
    pub threads: usize,
    /// Resource budgets applied to the engine (fuel, deadline).
    pub limits: ExecLimits,
}

impl ExecConfig {
    /// Single-node run on a machine (no communication at all).
    pub fn serial(machine: Machine) -> Self {
        ExecConfig {
            machine,
            procs: 1,
            policy: CommPolicy::default(),
            engine: Engine::default(),
            threads: 0,
            limits: ExecLimits::none(),
        }
    }

    /// The same configuration with a different execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// The same configuration with a worker-thread count for
    /// [`Engine::VmPar`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The same configuration with resource budgets.
    pub fn with_limits(mut self, limits: ExecLimits) -> Self {
        self.limits = limits;
        self
    }

    /// The simulation config a [`RunRequest`](fusion_core::RunRequest)
    /// describes, on `machine` with `procs` processors: engine, threads,
    /// and limits come from the request (the limits' deadline clock
    /// starts at this call), the communication policy stays default.
    pub fn from_request(req: &fusion_core::RunRequest, machine: Machine, procs: u64) -> Self {
        ExecConfig {
            machine,
            procs,
            policy: CommPolicy::default(),
            engine: req.engine,
            threads: req.threads,
            limits: req.limits(),
        }
    }
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Interpreter counters (loads, stores, flops, points, peak bytes).
    pub run: RunStats,
    /// Cache counters.
    pub mem: MemStats,
    /// Communication counters.
    pub comm: CommStats,
    /// Per-node compute time, nanoseconds.
    pub compute_ns: f64,
    /// Total simulated time, nanoseconds.
    pub total_ns: f64,
}

impl SimResult {
    /// Total time in milliseconds.
    pub fn total_ms(&self) -> f64 {
        self.total_ns / 1e6
    }

    /// Percent improvement of `self` over a baseline run
    /// (positive = faster than baseline), as plotted in Figures 9–11.
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        100.0 * (baseline.total_ns - self.total_ns) / baseline.total_ns
    }
}

/// Observer gluing the cache simulator and the communication tracker.
struct SimObserver<'a> {
    mem: MemSim,
    comm: CommTracker,
    machine: &'a Machine,
    program: &'a zlang::ir::Program,
    binding: &'a ConfigBinding,
    /// MemStats snapshot at the last nest boundary.
    last: MemStats,
}

impl SimObserver<'_> {
    fn compute_ns(&self, s: MemStats) -> f64 {
        self.machine
            .cost
            .compute_ns(s.flops, s.accesses, s.l1_misses, s.l2_misses)
    }

    fn flush_compute(&mut self) {
        let cur = self.mem.stats();
        let delta = MemStats {
            accesses: cur.accesses - self.last.accesses,
            l1_misses: cur.l1_misses - self.last.l1_misses,
            l2_misses: cur.l2_misses - self.last.l2_misses,
            flops: cur.flops - self.last.flops,
        };
        self.last = cur;
        let ns = self.compute_ns(delta);
        self.comm.add_compute(ns);
    }
}

impl Observer for SimObserver<'_> {
    fn load(&mut self, addr: u64) {
        self.mem.load(addr);
    }

    fn store(&mut self, addr: u64) {
        self.mem.store(addr);
    }

    fn flops(&mut self, n: u64) {
        self.mem.flops(n);
    }

    fn nest_begin(&mut self, nest: &LoopNest) {
        self.flush_compute();
        self.comm.nest(self.program, self.binding, nest);
    }

    fn reduce_begin(&mut self) {
        self.flush_compute();
        self.comm.reductions(1);
    }
}

/// Runs a scalarized program under a machine model.
///
/// # Errors
///
/// Propagates engine errors (out-of-region accesses, exhausted fuel or
/// deadline budgets), and reports an unrecoverable injected
/// communication failure as an error of kind
/// [`Comm`](loopir::ErrorKind::Comm).
pub fn simulate(
    sp: &ScalarProgram,
    binding: ConfigBinding,
    cfg: &ExecConfig,
) -> Result<SimResult, ExecError> {
    simulate_outcome(sp, binding, cfg).map(|(_, sim)| sim)
}

/// Like [`simulate`], but also returns the program's [`loopir::RunOutcome`]
/// (final scalar values) alongside the timing result — for callers such
/// as the supervisor that need the computed answer, not just the model.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn simulate_outcome(
    sp: &ScalarProgram,
    binding: ConfigBinding,
    cfg: &ExecConfig,
) -> Result<(loopir::RunOutcome, SimResult), ExecError> {
    simulate_at(sp, binding, cfg, ExecOpts::with_threads(cfg.threads))
}

/// [`simulate_outcome`] at explicit knobs (`cfg.threads` is not read):
/// how the tests reach a lane width.
fn simulate_at(
    sp: &ScalarProgram,
    binding: ConfigBinding,
    cfg: &ExecConfig,
    knobs: ExecOpts,
) -> Result<(loopir::RunOutcome, SimResult), ExecError> {
    let mut obs = SimObserver {
        mem: MemSim::new(cfg.machine.l1, cfg.machine.l2),
        comm: CommTracker::new(cfg.procs, cfg.machine.cost, cfg.policy),
        machine: &cfg.machine,
        program: &sp.program,
        binding: &binding,
        last: MemStats::default(),
    };
    let mut exec = cfg.engine.executor_with(sp, binding.clone(), knobs)?;
    exec.set_limits(cfg.limits);
    let outcome = exec.execute(&mut obs)?;
    let run = outcome.stats;
    obs.flush_compute();
    if let Some(msg) = obs.comm.failure() {
        return Err(ExecError::comm(msg));
    }
    let mem = obs.mem.stats();
    let comm = obs.comm.stats();
    let compute_ns =
        cfg.machine
            .cost
            .compute_ns(mem.flops, mem.accesses, mem.l1_misses, mem.l2_misses);
    let total_ns = compute_ns + comm.effective_ns();
    Ok((
        outcome,
        SimResult {
            run,
            mem,
            comm,
            compute_ns,
            total_ns,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::pipeline::{Level, Pipeline};
    use machine::presets::{paragon, sp2, t3e};

    fn program(src: &str, level: Level) -> ScalarProgram {
        Pipeline::new(level)
            .optimize(&zlang::compile(src).unwrap())
            .scalarized
    }

    const SRC: &str = "program t; config n : int = 32; \
        region RH = [0..n+1, 0..n+1]; region R = [1..n, 1..n]; \
        var A : [RH] float; var B, C, D : [R] float; var s : float; var k : int; \
        begin \
          [RH] A := index1 + index2 * 0.5; \
          for k := 1 to 3 do \
            [R] B := (A@[-1,0] + A@[1,0] + A@[0,-1] + A@[0,1]) * 0.25; \
            [R] C := B * B; \
            [R] D := C + B; \
            [R] A := A + D * 0.01; \
          end; \
          s := +<< [R] A; end";

    #[test]
    fn serial_run_has_no_comm() {
        let sp = program(SRC, Level::Baseline);
        let r = simulate(
            &sp,
            ConfigBinding::defaults(&sp.program),
            &ExecConfig::serial(t3e()),
        )
        .unwrap();
        assert_eq!(r.comm.messages, 0);
        assert_eq!(r.comm.reductions, 0);
        assert!(r.compute_ns > 0.0);
        assert_eq!(r.total_ns, r.compute_ns);
    }

    #[test]
    fn parallel_run_communicates_and_reduces() {
        let sp = program(SRC, Level::Baseline);
        let cfg = ExecConfig {
            machine: t3e(),
            procs: 16,
            policy: CommPolicy::default(),
            engine: Engine::default(),
            threads: 0,
            limits: ExecLimits::none(),
        };
        let r = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap();
        assert!(r.comm.messages > 0);
        assert_eq!(r.comm.reductions, 1);
        assert!(r.total_ns > r.compute_ns);
        assert!(r.comm.hidden_ns > 0.0, "pipelining hides some latency");
    }

    #[test]
    fn contraction_improves_simulated_time() {
        let base = program(SRC, Level::Baseline);
        let c2 = program(SRC, Level::C2);
        let cfg = ExecConfig::serial(paragon());
        let rb = simulate(&base, ConfigBinding::defaults(&base.program), &cfg).unwrap();
        let rc = simulate(&c2, ConfigBinding::defaults(&c2.program), &cfg).unwrap();
        assert!(
            rc.total_ns < rb.total_ns,
            "c2 ({}) must beat baseline ({})",
            rc.total_ns,
            rb.total_ns
        );
        assert!(rc.improvement_over(&rb) > 0.0);
        assert!(rc.run.peak_bytes < rb.run.peak_bytes);
    }

    #[test]
    fn results_identical_across_machines_and_engines() {
        // Machine models change time, never values — and neither does the
        // engine choice.
        let sp = program(SRC, Level::C2F3);
        let checksum = |m: Machine, engine: Engine| {
            let cfg = ExecConfig::serial(m).with_engine(engine);
            let r = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap();
            let mut exec = engine
                .executor(&sp, ConfigBinding::defaults(&sp.program))
                .unwrap();
            let outcome = exec.execute(&mut loopir::NoopObserver).unwrap();
            (outcome.checksum(), r.mem)
        };
        let (a, mem_a) = checksum(t3e(), Engine::Interp);
        let (b, mem_b) = checksum(sp2(), Engine::Vm);
        assert_eq!(a, b);
        // Different machines: cache stats differ. Same machine, different
        // engine: identical access stream, identical cache stats.
        let (_, mem_c) = checksum(t3e(), Engine::Vm);
        assert_eq!(mem_a, mem_c);
        let _ = mem_b;
    }

    #[test]
    fn vm_par_simulates_identically_at_every_thread_count() {
        // The simulation consumes the ordered address stream: tiles stand
        // down under it and lane runs report their strips in scalar order,
        // so the whole `SimResult` - counters, cache statistics,
        // communication, simulated time to the bit - and the values are
        // the interpreter's under every engine at every knob.
        let sp = program(SRC, Level::C2F3);
        let cfg = |engine| ExecConfig {
            procs: 16,
            ..ExecConfig::serial(t3e()).with_engine(engine)
        };
        let run = |engine, knobs| {
            let (outcome, sim) = simulate_at(
                &sp,
                ConfigBinding::defaults(&sp.program),
                &cfg(engine),
                knobs,
            )
            .expect("clean run");
            let bits: Vec<u64> = outcome.scalars.iter().map(|v| v.to_bits()).collect();
            (bits, sim.total_ns.to_bits(), sim)
        };
        let want = run(Engine::Interp, ExecOpts::default());
        assert!(want.2.comm.messages > 0 && want.2.mem.l1_misses > 0);
        for engine in [Engine::Vm, Engine::VmSimd, Engine::VmPar] {
            for lanes in [1, 8, 128] {
                for threads in [1, 2, 4] {
                    let got = run(engine, ExecOpts { threads, lanes });
                    assert!(got == want, "{engine} lanes={lanes} threads={threads}");
                }
            }
        }
    }

    #[test]
    fn unrecoverable_comm_failure_surfaces_as_error() {
        use testkit::faults::{self, FaultPlan, FaultSite};
        let _g = faults::install(FaultPlan::new(3).with(FaultSite::CommDrop, 1.0));
        let sp = program(SRC, Level::Baseline);
        let cfg = ExecConfig {
            machine: t3e(),
            procs: 16,
            policy: CommPolicy::default(),
            engine: Engine::default(),
            threads: 0,
            limits: ExecLimits::none(),
        };
        let err = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap_err();
        assert_eq!(err.kind, loopir::ErrorKind::Comm);
        assert!(err.message.contains("comm-drop"), "{}", err.message);
    }

    #[test]
    fn fuel_budget_applies_to_simulated_runs() {
        let sp = program(SRC, Level::Baseline);
        let cfg = ExecConfig::serial(t3e()).with_limits(ExecLimits::none().with_fuel(10));
        let err = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap_err();
        assert_eq!(err.kind, loopir::ErrorKind::Fuel);
    }

    #[test]
    fn favor_comm_policy_loses_contraction() {
        // A is produced, then an independent statement computes B (the
        // overlap material for A's ghost fetch), then D consumes A@offset
        // and B. Favoring communication forbids fusing the B statement
        // into D's cluster, so B cannot contract.
        let src = "program t; config n : int = 16; \
            region RH = [0..n, 0..n]; region R = [1..n, 1..n]; \
            var A : [RH] float; var B, C, D : [R] float; var s : float; \
            begin \
              [RH] A := A + 0.01; \
              [R] B := C * 2.0; \
              [R] D := A@[-1,0] + B; \
              s := +<< [R] D; end";
        let p = zlang::compile(src).unwrap();
        let favor_fusion = Pipeline::new(Level::C2F3).optimize(&p);
        let favor_comm = Pipeline::new(Level::C2F3)
            .with_forbidden(crate::comm::favor_comm_pairs)
            .optimize(&p);
        assert!(
            favor_comm.contracted.len() < favor_fusion.contracted.len(),
            "favoring communication forbids fusions and loses contraction: {} vs {}",
            favor_comm.contracted.len(),
            favor_fusion.contracted.len()
        );
    }
}
