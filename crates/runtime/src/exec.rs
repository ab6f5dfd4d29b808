//! The simulated parallel executor.
//!
//! A simulated run is an *observed* run: [`Simulation`] is a
//! [`loopir::Observer`] that feeds one representative processor's access
//! stream through the cache simulator while the communication tracker
//! accounts ghost fetches and overlap per nest, and [`simulate_executor`]
//! runs any executor under it — the supervisor's rung, `zlc`'s lowered
//! program, a cached artifact replayed across machines. Total simulated
//! time is per-node compute plus unhidden communication plus reductions —
//! the SPMD symmetric model described in the crate docs.
//!
//! [`simulate`] and [`simulate_outcome`] are the convenience for callers
//! that hold only a scalarized program: they build the executor an
//! [`ExecConfig`] names, then do the same.

use crate::comm::{CommPolicy, CommStats, CommTracker};
use loopir::{
    Engine, ExecError, ExecOpts, Executor, LoopNest, Observer, RunOutcome, RunStats, ScalarProgram,
};
use machine::presets::Machine;
use machine::sim::{MemSim, MemStats};
use std::time::Instant;
use zlang::ir::{ConfigBinding, Program};

/// Configuration of one simulated run: the machine model
/// ([`Simulation`] reads `machine`, `procs` and `policy`), plus — read by
/// [`simulate`] / [`simulate_outcome`] alone, which have to build the
/// executor themselves — how to execute.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Which machine to model.
    pub machine: Machine,
    /// Number of processors. The config binding should describe the
    /// *per-processor* block (the paper scales problem size with `procs`).
    pub procs: u64,
    /// Communication optimizations in effect.
    pub policy: CommPolicy,
    /// Which execution engine the convenience wrappers build: the
    /// tree-walker, or — under every VM name alike — the one lowered,
    /// verified stream.
    pub engine: Engine,
    /// The knobs the wrappers run a VM engine at (`engine` pins the ones
    /// its name does not read). Under the simulation they change nothing
    /// but wall-clock time: the cache and communication models consume the
    /// ordered address stream, so ladders never fan out as tiles, and a
    /// lane run reports each strip in scalar order
    /// (`loopir::Observer::strip`) — every simulated number is the same to
    /// the bit under every engine at every width.
    pub opts: ExecOpts,
    /// The deadline the wrappers set on the engine, or `None`.
    pub deadline: Option<Instant>,
}

impl ExecConfig {
    /// `procs` processors of `machine` under the default communication
    /// policy; the wrappers run the default engine at its default knobs,
    /// unbudgeted.
    pub fn new(machine: Machine, procs: u64) -> Self {
        ExecConfig {
            machine,
            procs,
            policy: CommPolicy::default(),
            engine: Engine::default(),
            opts: ExecOpts::default(),
            deadline: None,
        }
    }

    /// The simulation config a [`RunRequest`](fusion_core::RunRequest)
    /// describes, on `machine` with `procs` processors: the engine, its
    /// knobs ([`exec_opts`](fusion_core::RunRequest::exec_opts), whole)
    /// and the deadline come from the request (the deadline's clock
    /// starts at this call), the communication policy stays default.
    pub fn from_request(req: &fusion_core::RunRequest, machine: Machine, procs: u64) -> Self {
        ExecConfig {
            engine: req.engine,
            opts: req.exec_opts(),
            deadline: req.deadline_from_now(),
            ..ExecConfig::new(machine, procs)
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

/// The machine simulation: the observer gluing the cache simulator and
/// the communication tracker. Hand it to [`Executor::execute`], then
/// [`finish`](Simulation::finish) it with the run's counters —
/// [`simulate_executor`] is exactly that.
pub struct Simulation<'a> {
    mem: MemSim,
    comm: CommTracker,
    machine: &'a Machine,
    program: &'a Program,
    /// The run's [`ScalarProgram::nests`], which each
    /// [`Observer::nest_begin`] id indexes.
    nests: Vec<&'a LoopNest>,
    binding: &'a ConfigBinding,
    /// MemStats snapshot at the last nest boundary.
    last: MemStats,
}

impl<'a> Simulation<'a> {
    /// A fresh simulation of `cfg`'s machine, processor count and policy
    /// for a run of `sp` under `binding`. The id each
    /// [`nest_begin`](Observer::nest_begin) names is an index into
    /// `sp`'s [`ScalarProgram::nests`]: the executor observed must have
    /// been built over this same program.
    pub fn new(cfg: &'a ExecConfig, sp: &'a ScalarProgram, binding: &'a ConfigBinding) -> Self {
        Simulation {
            mem: MemSim::new(cfg.machine.l1, cfg.machine.l2),
            comm: CommTracker::new(cfg.procs, cfg.machine.cost, cfg.policy),
            machine: &cfg.machine,
            program: &sp.program,
            nests: sp.nests(),
            binding,
            last: MemStats::default(),
        }
    }

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

    /// Closes the simulation of a run that reported `run`.
    ///
    /// # Errors
    ///
    /// An unrecoverable injected communication failure, as an error of
    /// kind [`Comm`](loopir::ErrorKind::Comm).
    pub fn finish(mut self, run: RunStats) -> Result<SimResult, ExecError> {
        self.flush_compute();
        if let Some(msg) = self.comm.failure() {
            return Err(ExecError::comm(msg));
        }
        let mem = self.mem.stats();
        let comm = self.comm.stats();
        let compute_ns = self.compute_ns(mem);
        let total_ns = compute_ns + comm.effective_ns();
        Ok(SimResult {
            run,
            mem,
            comm,
            compute_ns,
            total_ns,
        })
    }
}

impl Observer for Simulation<'_> {
    fn load(&mut self, addr: u64) {
        self.mem.load(addr);
    }

    fn store(&mut self, addr: u64) {
        self.mem.store(addr);
    }

    fn flops(&mut self, n: u64) {
        self.mem.flops(n);
    }

    fn nest_begin(&mut self, nest: u32) {
        self.flush_compute();
        let nest = self.nests[nest as usize];
        self.comm.nest(self.program, self.binding, nest);
    }

    fn reduce_begin(&mut self) {
        self.flush_compute();
        self.comm.reductions(1);
    }
}

/// Runs `exec` — whatever built it, at whatever knobs and deadline it
/// carries — under the machine model of `cfg` (`machine`, `procs` and
/// `policy`; nothing else of `cfg` is read). `sp` and `binding` are the
/// scalarized program and the binding `exec` was built over: each nest id
/// the run reports indexes `sp`'s [`ScalarProgram::nests`].
///
/// # Errors
///
/// Propagates engine errors (out-of-region accesses, a passed
/// deadline), and reports an unrecoverable injected
/// communication failure as an error of kind
/// [`Comm`](loopir::ErrorKind::Comm).
pub fn simulate_executor(
    exec: &mut dyn Executor,
    sp: &ScalarProgram,
    binding: &ConfigBinding,
    cfg: &ExecConfig,
) -> Result<(RunOutcome, SimResult), ExecError> {
    let mut sim = Simulation::new(cfg, sp, binding);
    let outcome = exec.execute(&mut sim)?;
    let result = sim.finish(outcome.stats)?;
    Ok((outcome, result))
}

/// Runs a scalarized program under a machine model.
///
/// # Errors
///
/// As [`simulate_outcome`].
pub fn simulate(
    sp: &ScalarProgram,
    binding: ConfigBinding,
    cfg: &ExecConfig,
) -> Result<SimResult, ExecError> {
    simulate_outcome(sp, binding, cfg).map(|(_, sim)| sim)
}

/// Like [`simulate`], but also returns the program's [`RunOutcome`]
/// (final scalar values) alongside the timing result. Lowers `sp` on
/// every call (under a VM engine name); a caller that holds the lowered
/// artifact runs it with [`simulate_executor`] instead.
///
/// # Errors
///
/// As [`simulate_executor`], plus the lowering failures and verifier
/// rejections of [`Engine::executor_with`].
pub fn simulate_outcome(
    sp: &ScalarProgram,
    binding: ConfigBinding,
    cfg: &ExecConfig,
) -> Result<(RunOutcome, SimResult), ExecError> {
    let mut exec = cfg.engine.executor_with(sp, binding.clone(), cfg.opts)?;
    exec.set_deadline(cfg.deadline);
    simulate_executor(&mut *exec, sp, &binding, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_core::pipeline::{Level, Pipeline};
    use machine::presets::{paragon, sp2, t3e};
    use std::time::Duration;

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
            &ExecConfig::new(t3e(), 1),
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
        let cfg = ExecConfig::new(t3e(), 16);
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
        let cfg = ExecConfig::new(paragon(), 1);
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
            let cfg = ExecConfig {
                engine,
                ..ExecConfig::new(m, 1)
            };
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

    /// Forwards everything to the simulation and remembers the longest
    /// lane strip it was handed.
    struct Widest<'a> {
        sim: Simulation<'a>,
        widest: usize,
    }

    impl Observer for Widest<'_> {
        fn load(&mut self, addr: u64) {
            self.sim.load(addr);
        }
        fn store(&mut self, addr: u64) {
            self.sim.store(addr);
        }
        fn flops(&mut self, n: u64) {
            self.sim.flops(n);
        }
        fn nest_begin(&mut self, nest: u32) {
            self.sim.nest_begin(nest);
        }
        fn reduce_begin(&mut self) {
            self.sim.reduce_begin();
        }
        fn strip(&mut self, events: &[loopir::StripEvent], at: loopir::Strip) {
            self.widest = self.widest.max(at.len);
            self.sim.strip(events, at);
        }
    }

    /// Runs `exec` under a [`Widest`]-wrapped simulation: the outcome's
    /// scalar bits, the `SimResult`, and the longest strip.
    fn observed(
        exec: &mut dyn Executor,
        sp: &ScalarProgram,
        binding: &ConfigBinding,
        cfg: &ExecConfig,
    ) -> Result<(RunOutcome, SimResult, usize), ExecError> {
        let mut obs = Widest {
            sim: Simulation::new(cfg, sp, binding),
            widest: 0,
        };
        let outcome = exec.execute(&mut obs)?;
        let sim = obs.sim.finish(outcome.stats)?;
        Ok((outcome, sim, obs.widest))
    }

    #[test]
    fn vm_par_simulates_identically_at_every_thread_count() {
        // The simulation consumes the ordered address stream: tiles stand
        // down under it and lane runs report their strips in scalar order,
        // so the whole `SimResult` - counters, cache statistics,
        // communication, simulated time to the bit - and the values are
        // the interpreter's under every engine at every knob.
        let sp = program(SRC, Level::C2F3);
        let request = |engine| fusion_core::RunRequest::new().with_engine(engine);
        let run = |req: &fusion_core::RunRequest| {
            let cfg = ExecConfig::from_request(req, t3e(), 16);
            let (outcome, sim) = simulate_outcome(&sp, ConfigBinding::defaults(&sp.program), &cfg)
                .expect("clean run");
            let bits: Vec<u64> = outcome.scalars.iter().map(|v| v.to_bits()).collect();
            (bits, sim.total_ns.to_bits(), sim)
        };
        let want = run(&request(Engine::Interp));
        assert!(want.2.comm.messages > 0 && want.2.mem.l1_misses > 0);
        for engine in [Engine::Vm, Engine::VmSimd, Engine::VmPar] {
            for lanes in [1, 8, 128] {
                for threads in [1, 2, 4] {
                    let req = request(engine).with_lanes(lanes).with_threads(threads);
                    assert!(run(&req) == want, "{req} lanes={lanes}");
                }
            }
        }
    }

    #[test]
    fn the_requested_lane_width_reaches_the_simulated_run() {
        // `--lanes 8` under the machine model runs strips of 8: through
        // the request's `ExecConfig` and through a supervised rung alike,
        // with the interpreter's `SimResult` to the bit either way.
        let source = zlang::compile(SRC).unwrap();
        let sp = program(SRC, Level::C2F3);
        let binding = ConfigBinding::defaults(&sp.program);
        let req = fusion_core::RunRequest::new()
            .with_level(Level::C2F3)
            .with_engine(Engine::VmSimd)
            .with_lanes(8);
        let interp = ExecConfig {
            engine: Engine::Interp,
            ..ExecConfig::new(t3e(), 16)
        };
        let want = simulate(&sp, binding.clone(), &interp).unwrap();

        let cfg = ExecConfig::from_request(&req, t3e(), 16);
        let lowered = loopir::SharedProgram::lower(&sp, binding.clone(), None).unwrap();
        let mut exec = lowered.executor(cfg.opts);
        let (_, sim, widest) = observed(&mut exec, &sp, &binding, &cfg).unwrap();
        assert_eq!((sim, widest), (want.clone(), 8));
        assert_eq!(simulate(&sp, binding, &cfg).unwrap(), want);

        let mut seen = None;
        let run = req
            .supervisor()
            .run_program_simulated(&source, &mut |exec, sp, binding| {
                let (outcome, sim, widest) = observed(exec, sp, binding, &cfg)?;
                seen = Some((sim, widest));
                Ok(outcome)
            })
            .unwrap();
        assert!(!run.report.degraded(), "{}", run.report.render());
        assert_eq!(seen, Some((want, 8)));
    }

    #[test]
    fn unrecoverable_comm_failure_surfaces_as_error() {
        use testkit::faults::{self, FaultPlan, FaultSite};
        let _g = faults::install(FaultPlan::new(3).with(FaultSite::CommDrop, 1.0));
        let sp = program(SRC, Level::Baseline);
        let cfg = ExecConfig::new(t3e(), 16);
        let err = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap_err();
        assert_eq!(err.kind, loopir::ErrorKind::Comm);
        assert!(err.message.contains("comm-drop"), "{}", err.message);
    }

    #[test]
    fn deadline_applies_to_simulated_runs() {
        let sp = program(SRC, Level::Baseline);
        for engine in [Engine::Interp, Engine::Vm] {
            let cfg = ExecConfig {
                engine,
                deadline: Some(Instant::now()),
                ..ExecConfig::new(t3e(), 1)
            };
            let err = simulate(&sp, ConfigBinding::defaults(&sp.program), &cfg).unwrap_err();
            assert_eq!(err.kind, loopir::ErrorKind::Deadline, "{engine}");
        }
    }

    /// A deadline that falls inside a simulated run stops it, on the
    /// tree-walker, in scalar dispatch and in lane runs, each feeding the
    /// cache simulator through a `dyn Observer`. At n = 512 the run takes
    /// far longer than 50 ms in either profile.
    #[test]
    fn deadline_stops_a_simulated_run_mid_way() {
        let sp = program(SRC, Level::C2F3);
        let mut binding = ConfigBinding::defaults(&sp.program);
        assert!(binding.set_by_name(&sp.program, "n", 512));
        let cfg = ExecConfig::new(t3e(), 1);
        for engine in [Engine::Interp, Engine::Vm, Engine::VmSimd] {
            let mut exec = engine
                .executor_with(&sp, binding.clone(), ExecOpts::default())
                .unwrap();
            exec.set_deadline(Some(Instant::now() + Duration::from_millis(1)));
            let err = simulate_executor(&mut *exec, &sp, &binding, &cfg).unwrap_err();
            assert_eq!(err.kind, loopir::ErrorKind::Deadline, "{engine}");
        }
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
