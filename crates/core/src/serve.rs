//! The serving path: replay a stream of mixed compile-and-run requests
//! across worker threads, sharing one [`CompileCache`].
//!
//! This is the driver behind `zlc serve` and the harness's `serve_sizes`
//! workload. Each request is a `(source, RunRequest)` pair, optionally
//! carrying a total deadline. The calling thread *admits* requests into a
//! bounded queue while workers drain it; each admitted request runs under
//! a fault-isolating [`Supervisor`](crate::supervisor::Supervisor)
//! attached to the shared cache, so a panicking or budget-violating
//! request degrades or fails *alone* without taking down the batch, while
//! a repeated source text skips the front end, a repeated program the
//! optimizer, and a repeated `(program, size)` the whole pipeline (the
//! cache's three stages, [`crate::cache`]).
//!
//! Each defence here answers a condition that occurs without injection
//! (DESIGN.md §16):
//!
//! * **Admission control** ([`ShedPolicy`]): when the queue is at
//!   capacity, either the incoming request is rejected or the producer
//!   blocks. Shed requests never compile; they are accounted with a typed
//!   [`ShedCause`].
//! * **Deadline propagation**: a request's deadline is measured from
//!   *admission*. Queue wait is charged against it — a request that
//!   expires while queued is shed without compiling, and one that reaches
//!   a worker hands the supervisor only the time it has left
//!   ([`Supervisor::with_remaining`](crate::supervisor::Supervisor::with_remaining)).
//! * **The worker-panic boundary**: a panic outside the supervisor
//!   becomes an attributed failure and the worker lives on.
//! * **Quarantine**, inside the supervisor: the first execution fault of
//!   a requested artifact quarantines its key in the cache, and later
//!   requests for the key run on the reference rung with the cache
//!   bypassed ([`CompileCache::quarantine`]).
//!
//! Every request in the batch comes back accounted as completed, shed,
//! or failed ([`Disposition`]) with a typed cause — including requests
//! whose worker died, which become attributed failures rather than
//! panics in report assembly.
//!
//! The report records per-request queue wait, service latency and result
//! bits (for bit-identical differential checks), and rolls up
//! service-time and end-to-end p50/p99, per-engine throughput, shed and
//! failure cause breakdowns, and the cache counters.

use crate::cache::{CacheStats, CompileCache, Depth};
use crate::pipeline::LevelSpec;
use crate::request::RunRequest;
use crate::supervisor::{quiet_catch, Cause, CauseKind, Stage};
use loopir::Engine;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use testkit::faults::{self, FaultPlan, FaultSite};

/// How long an injected [`FaultSite::ServeStall`] wedges a worker. Long
/// against the microseconds admission takes, so overload tests shed
/// deterministically; short against test budgets.
const STALL: Duration = Duration::from_millis(30);

/// One unit of serving work: a named program source plus the complete
/// run configuration to execute it under, and optionally a total
/// deadline measured from the moment the request is admitted.
#[derive(Debug, Clone)]
pub struct ServeRequest {
    /// Display name (for per-program roll-ups; not required unique).
    pub name: String,
    /// zlang source text of the program to compile and run.
    pub source: String,
    /// How to compile and execute it.
    pub request: RunRequest,
    /// Total admission-to-completion deadline. Queue wait counts against
    /// it: a request that expires while queued is shed without
    /// compiling, and one that reaches a worker gives the supervisor
    /// only the remainder, one deadline for every budgeted rung.
    pub deadline: Option<Duration>,
}

impl ServeRequest {
    /// A serve request for `source` under `request`, with no deadline.
    pub fn new(name: &str, source: &str, request: RunRequest) -> Self {
        ServeRequest {
            name: name.to_string(),
            source: source.to_string(),
            request,
            deadline: None,
        }
    }

    /// Sets the total (admission-to-completion) deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

/// What to do with an incoming request when the admission queue is at
/// capacity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Shed the incoming request ([`ShedCause::QueueFull`]).
    RejectNewest,
    /// Block admission until a worker frees a slot. Nothing is shed for
    /// capacity; the default, and the pre-overload-control behavior.
    #[default]
    Block,
}

impl ShedPolicy {
    /// The policy's spelling on the `zlc serve --shed` flag.
    pub fn name(self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::Block => "block",
        }
    }
}

impl fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for ShedPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "reject" | "reject-newest" => Ok(ShedPolicy::RejectNewest),
            "block" => Ok(ShedPolicy::Block),
            "drop" | "drop-oldest" => Err(format!(
                "shed policy `{s}` was removed; use reject-newest to shed the incoming \
                 request, or block (DESIGN.md §16)"
            )),
            _ => Err(format!(
                "unknown shed policy `{s}` (expected reject-newest or block)"
            )),
        }
    }
}

/// Why a request was shed without being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedCause {
    /// The queue was at capacity under [`ShedPolicy::RejectNewest`].
    QueueFull,
    /// The request's deadline passed while it waited in the queue.
    DeadlineExpired,
}

impl ShedCause {
    /// A stable label for reports.
    pub fn name(self) -> &'static str {
        match self {
            ShedCause::QueueFull => "queue-full",
            ShedCause::DeadlineExpired => "deadline-expired",
        }
    }
}

impl fmt::Display for ShedCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The accounted outcome of one request. Every submitted request ends in
/// exactly one of these.
#[derive(Debug, Clone, PartialEq)]
pub enum Disposition {
    /// The request produced a result (possibly degraded).
    Completed,
    /// The request was never served; the cause says why.
    Shed(ShedCause),
    /// Every ladder rung faulted; the structured cause of the last fault
    /// (stage = faulting [`crate::pass::PassId`], kind = [`CauseKind`]).
    Failed(Cause),
}

/// What happened to one request: identity, timing and the result bits.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Index of the request in the submitted batch.
    pub index: usize,
    /// The request's display name.
    pub name: String,
    /// Engine the request asked for.
    pub engine: Engine,
    /// Level spec the request asked for.
    pub spec: LevelSpec,
    /// Time from admission until a worker started serving the request
    /// (for shed requests: until the shed decision).
    pub queue_wait: Duration,
    /// Service latency: supervised run start to outcome. Excludes queue
    /// wait; zero for shed requests.
    pub latency: Duration,
    /// `f64::to_bits` of the checksum scalar, for exact comparison.
    pub checksum_bits: u64,
    /// Bit patterns of every final scalar, for exact comparison.
    pub scalars_bits: Vec<u64>,
    /// Whether the supervisor degraded below the requested rung.
    pub degraded: bool,
    /// Whether the request's key was quarantined, so that it was routed to
    /// the reference rung with the cache bypassed. (The name predates
    /// quarantine; the benchmark harness reads it.)
    pub breaker_routed: bool,
    /// The deepest cache stage any rung of the request had to run.
    pub depth: Depth,
    /// How the request was accounted.
    pub disposition: Disposition,
}

impl RequestRecord {
    fn base(index: usize, req: &ServeRequest) -> Self {
        RequestRecord {
            index,
            name: req.name.clone(),
            engine: req.request.engine,
            spec: req.request.spec,
            queue_wait: Duration::ZERO,
            latency: Duration::ZERO,
            checksum_bits: 0,
            scalars_bits: Vec::new(),
            degraded: false,
            breaker_routed: false,
            depth: Depth::Hit,
            disposition: Disposition::Completed,
        }
    }

    fn shed(index: usize, req: &ServeRequest, queue_wait: Duration, cause: ShedCause) -> Self {
        RequestRecord {
            queue_wait,
            disposition: Disposition::Shed(cause),
            ..RequestRecord::base(index, req)
        }
    }

    fn dead_worker(
        index: usize,
        req: &ServeRequest,
        queue_wait: Duration,
        message: String,
    ) -> Self {
        RequestRecord {
            queue_wait,
            disposition: Disposition::Failed(Cause {
                stage: Stage::Execute,
                kind: CauseKind::Panic,
                message,
            }),
            ..RequestRecord::base(index, req)
        }
    }

    /// Did the request produce a result (possibly degraded)?
    pub fn completed(&self) -> bool {
        self.disposition == Disposition::Completed
    }

    /// Was the request shed without being served?
    pub fn is_shed(&self) -> bool {
        matches!(self.disposition, Disposition::Shed(_))
    }

    /// The structured failure cause, if the request failed.
    pub fn cause(&self) -> Option<&Cause> {
        match &self.disposition {
            Disposition::Failed(cause) => Some(cause),
            _ => None,
        }
    }

    /// End-to-end time from admission to outcome.
    pub fn end_to_end(&self) -> Duration {
        self.queue_wait + self.latency
    }
}

/// Configuration for one [`serve_with`] batch.
#[derive(Debug, Clone, Default)]
pub struct ServeOptions {
    /// Worker threads (clamped to at least 1, at most the batch size).
    pub workers: usize,
    /// Admission-queue capacity; 0 means unbounded (nothing sheds for
    /// capacity).
    pub queue_cap: usize,
    /// What to do when the queue is full.
    pub shed: ShedPolicy,
    /// Fault plan for chaos testing. Plans are thread-local, so each
    /// worker installs a copy re-seeded from the plan's seed and its
    /// worker index; the schedule is deterministic per (plan, worker).
    pub faults: Option<FaultPlan>,
}

impl ServeOptions {
    /// Defaults: 1 worker, unbounded queue, block on full, no faults.
    pub fn new() -> Self {
        ServeOptions::default()
    }

    /// Sets the worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the admission queue (0 = unbounded).
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Sets the shed policy for a full queue.
    pub fn with_shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    /// Installs a fault plan on every worker (re-seeded per worker).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }
}

/// Per-engine latency roll-up.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineSummary {
    /// Completed requests on this engine.
    pub completed: usize,
    /// Failed requests on this engine.
    pub failed: usize,
    /// Shed requests on this engine.
    pub shed: usize,
    /// Sum of completed-request service latencies.
    pub total_latency: Duration,
}

impl EngineSummary {
    /// Completed requests per second of cumulative engine time.
    pub fn throughput(&self) -> f64 {
        let secs = self.total_latency.as_secs_f64();
        if secs > 0.0 {
            self.completed as f64 / secs
        } else {
            0.0
        }
    }
}

/// The outcome of one [`serve_with`] batch.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// One record per submitted request, in submission order.
    pub records: Vec<RequestRecord>,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Cache counters at the end of the batch.
    pub cache: CacheStats,
}

impl ServeReport {
    /// Requests that produced a result.
    pub fn completed(&self) -> usize {
        self.records.iter().filter(|r| r.completed()).count()
    }

    /// Requests where every rung faulted.
    pub fn failed(&self) -> usize {
        self.records.iter().filter(|r| r.cause().is_some()).count()
    }

    /// Requests shed without being served.
    pub fn shed(&self) -> usize {
        self.records.iter().filter(|r| r.is_shed()).count()
    }

    /// Requests that completed below their requested rung.
    pub fn degraded(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.completed() && r.degraded)
            .count()
    }

    /// Always 0: nothing is retried, since execution is deterministic and
    /// a faulting key is quarantined instead (DESIGN.md §16). Kept only
    /// because the frozen benchmark harness reads it; ROADMAP item 8
    /// deletes it.
    pub fn retried(&self) -> usize {
        0
    }

    /// The `p`-th *service-time* latency percentile over completed
    /// requests, in microseconds (nearest-rank; 0 when nothing
    /// completed). Excludes queue wait.
    pub fn percentile_us(&self, p: f64) -> u128 {
        Self::nearest_rank(
            self.records
                .iter()
                .filter(|r| r.completed())
                .map(|r| r.latency.as_micros())
                .collect(),
            p,
        )
    }

    /// The `p`-th *end-to-end* (admission → completion) latency
    /// percentile over completed requests, in microseconds.
    pub fn e2e_percentile_us(&self, p: f64) -> u128 {
        Self::nearest_rank(
            self.records
                .iter()
                .filter(|r| r.completed())
                .map(|r| r.end_to_end().as_micros())
                .collect(),
            p,
        )
    }

    fn nearest_rank(mut lat: Vec<u128>, p: f64) -> u128 {
        if lat.is_empty() {
            return 0;
        }
        lat.sort_unstable();
        let rank = ((p / 100.0) * lat.len() as f64).ceil() as usize;
        lat[rank.clamp(1, lat.len()) - 1]
    }

    /// Latency and throughput rolled up per engine (sorted by flag name).
    pub fn per_engine(&self) -> BTreeMap<String, EngineSummary> {
        let mut map: BTreeMap<String, EngineSummary> = BTreeMap::new();
        for r in &self.records {
            let e = map.entry(r.engine.to_string()).or_default();
            match &r.disposition {
                Disposition::Completed => {
                    e.completed += 1;
                    e.total_latency += r.latency;
                }
                Disposition::Shed(_) => e.shed += 1,
                Disposition::Failed(_) => e.failed += 1,
            }
        }
        map
    }

    /// Failed requests bucketed by cause class (kind label, sorted).
    pub fn failures_by_cause(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            if let Some(cause) = r.cause() {
                *map.entry(cause.kind.name()).or_insert(0) += 1;
            }
        }
        map
    }

    /// Shed requests bucketed by shed cause (sorted).
    pub fn sheds_by_cause(&self) -> BTreeMap<&'static str, usize> {
        let mut map = BTreeMap::new();
        for r in &self.records {
            if let Disposition::Shed(cause) = r.disposition {
                *map.entry(cause.name()).or_insert(0) += 1;
            }
        }
        map
    }

    /// A human-readable summary table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "served {} requests on {} workers in {:.1?} ({} ok, {} degraded, {} shed, {} failed)",
            self.records.len(),
            self.workers,
            self.wall,
            self.completed(),
            self.degraded(),
            self.shed(),
            self.failed(),
        );
        let _ = writeln!(
            out,
            "latency service p50 {} us, p99 {} us; end-to-end p50 {} us, p99 {} us",
            self.percentile_us(50.0),
            self.percentile_us(99.0),
            self.e2e_percentile_us(50.0),
            self.e2e_percentile_us(99.0),
        );
        let _ = writeln!(
            out,
            "cache: {} hits, {} misses, {} insertions, {} evictions, {} quarantined ({:.1}% hit rate)",
            self.cache.hits,
            self.cache.misses,
            self.cache.insertions,
            self.cache.evictions,
            self.cache.quarantines,
            self.cache.hit_rate() * 100.0,
        );
        let _ = writeln!(
            out,
            "stages: parsed {}, optimized {}, lowered {}",
            self.cache.parse_misses, self.cache.optimize_misses, self.cache.misses,
        );
        for (cause, n) in self.sheds_by_cause() {
            let _ = writeln!(out, "  shed/{cause:<18} {n:>6}");
        }
        for (cause, n) in self.failures_by_cause() {
            let _ = writeln!(out, "  failed/{cause:<16} {n:>6}");
        }
        for (engine, s) in self.per_engine() {
            let _ = writeln!(
                out,
                "  {engine:<12} {:>6} ok {:>4} shed {:>4} failed  {:>10.0} req/s",
                s.completed,
                s.shed,
                s.failed,
                s.throughput(),
            );
        }
        out
    }
}

struct QueueItem {
    index: usize,
    admitted: Instant,
}

struct QueueState {
    items: VecDeque<QueueItem>,
    closed: bool,
}

/// The bounded admission queue: producer pushes under a shed policy,
/// workers pop until the queue is closed *and* drained.
struct Queue {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    cap: usize,
}

impl Queue {
    fn new(cap: usize) -> Self {
        Queue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
        }
    }

    /// Admits request `index`, blocking for a slot or refusing under
    /// `shed`; `false` if it was refused.
    fn push(&self, index: usize, shed: ShedPolicy) -> bool {
        let mut st = self.state.lock().expect("serve queue lock poisoned");
        while self.cap > 0 && st.items.len() >= self.cap {
            if shed == ShedPolicy::RejectNewest {
                return false;
            }
            st = self.not_full.wait(st).expect("serve queue lock poisoned");
        }
        st.items.push_back(QueueItem {
            index,
            admitted: Instant::now(),
        });
        drop(st);
        self.not_empty.notify_one();
        true
    }

    fn pop(&self) -> Option<QueueItem> {
        let mut st = self.state.lock().expect("serve queue lock poisoned");
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).expect("serve queue lock poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("serve queue lock poisoned").closed = true;
        self.not_empty.notify_all();
    }
}

/// Replays `requests` across `workers` threads with the default options:
/// unbounded queue, no deadlines enforced beyond each request's own, no
/// faults. Kept as the simple entry point for tests; [`serve_with`] is
/// the full-featured one.
pub fn serve(requests: &[ServeRequest], workers: usize, cache: &Arc<CompileCache>) -> ServeReport {
    serve_with(requests, &ServeOptions::new().with_workers(workers), cache)
}

/// Replays `requests` under `opts`: the calling thread admits requests
/// into the bounded queue (shedding per policy) while workers drain it,
/// each request running under a supervisor attached to `cache`. Blocks
/// until the whole batch has drained; records come back in submission
/// order regardless of which worker served them, and every submitted
/// request is accounted exactly once.
pub fn serve_with(
    requests: &[ServeRequest],
    opts: &ServeOptions,
    cache: &Arc<CompileCache>,
) -> ServeReport {
    let workers = opts.workers.max(1).min(requests.len().max(1));
    let records: Mutex<Vec<Option<RequestRecord>>> = Mutex::new(vec![None; requests.len()]);
    let queue = Queue::new(opts.queue_cap);
    let started = Instant::now();

    std::thread::scope(|scope| {
        for wi in 0..workers {
            let queue = &queue;
            let records = &records;
            scope.spawn(move || {
                // Fault plans are thread-local: each worker gets its own
                // deterministic schedule derived from the batch plan.
                let _guard = opts.faults.as_ref().map(|plan| {
                    let seed = plan
                        .seed()
                        .wrapping_add((wi as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                    faults::install(plan.clone().with_seed(seed))
                });
                while let Some(item) = queue.pop() {
                    let req = &requests[item.index];
                    // The boundary around everything per-request that
                    // runs outside the supervisor (injection, deadline
                    // math): an injected worker panic becomes an
                    // attributed failure and the worker lives on.
                    let record = quiet_catch(|| serve_one(item.index, req, item.admitted, cache))
                        .unwrap_or_else(|msg| {
                            RequestRecord::dead_worker(
                                item.index,
                                req,
                                item.admitted.elapsed(),
                                msg,
                            )
                        });
                    records.lock().expect("serve records lock poisoned")[item.index] = Some(record);
                }
            });
        }

        // Admission runs on the calling thread while workers drain.
        for (index, req) in requests.iter().enumerate() {
            if !queue.push(index, opts.shed) {
                records.lock().expect("serve records lock poisoned")[index] = Some(
                    RequestRecord::shed(index, req, Duration::ZERO, ShedCause::QueueFull),
                );
            }
        }
        queue.close();
    });

    ServeReport {
        records: records
            .into_inner()
            .expect("serve records lock poisoned")
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                // A worker that died outside every boundary (e.g. the OS
                // killed the thread) leaves its slot empty; account it as
                // an attributed failure rather than panicking assembly.
                r.unwrap_or_else(|| {
                    RequestRecord::dead_worker(
                        i,
                        &requests[i],
                        Duration::ZERO,
                        "worker died before completing this request".to_string(),
                    )
                })
            })
            .collect(),
        wall: started.elapsed(),
        workers,
        cache: cache.stats(),
    }
}

/// Serves one admitted request: injected stall/panic sites, the
/// queued-deadline check, then one supervised run, handed only the
/// deadline time remaining.
fn serve_one(
    index: usize,
    req: &ServeRequest,
    admitted: Instant,
    cache: &Arc<CompileCache>,
) -> RequestRecord {
    // An injected stall wedges the worker *before* it looks at the
    // clock, so the stall is charged as queue wait — exactly how a
    // wedged worker looks from outside.
    if faults::fire(FaultSite::ServeStall) {
        std::thread::sleep(STALL);
    }
    let queue_wait = admitted.elapsed();
    faults::maybe_panic(FaultSite::WorkerPanic);

    let mut record = RequestRecord {
        queue_wait,
        ..RequestRecord::base(index, req)
    };
    if let Some(deadline) = req.deadline {
        if queue_wait >= deadline {
            record.disposition = Disposition::Shed(ShedCause::DeadlineExpired);
            return record;
        }
    }

    let service_started = Instant::now();
    let mut sup = req.request.supervisor().with_cache(cache.clone());
    if let Some(deadline) = req.deadline {
        sup = sup.with_remaining(deadline.saturating_sub(admitted.elapsed()));
    }
    let report = match sup.run_source(&req.source) {
        Ok(done) => {
            record.checksum_bits = done.outcome.checksum().to_bits();
            record.scalars_bits = done.outcome.scalars.iter().map(|s| s.to_bits()).collect();
            record.degraded = done.report.degraded();
            done.report
        }
        Err(e) => {
            record.disposition = Disposition::Failed(e.cause);
            e.report
        }
    };
    record.depth = report.depth();
    record.breaker_routed = report.quarantined;
    record.latency = service_started.elapsed();
    record
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = "program t; config n : int = 8; region R = [1..n]; \
        var A, B : [R] float; var s : float; \
        begin [R] A := 2.0; [R] B := A * A + 1.5; s := +<< [R] B; end";

    fn batch(copies: usize) -> Vec<ServeRequest> {
        let engines = [Engine::Interp, Engine::Vm, Engine::VmSimd, Engine::VmPar];
        (0..copies)
            .map(|i| {
                ServeRequest::new(
                    "t",
                    SRC,
                    RunRequest::new().with_engine(engines[i % engines.len()]),
                )
            })
            .collect()
    }

    #[test]
    fn serves_a_batch_with_cache_hits() {
        let cache = Arc::new(CompileCache::new());
        let report = serve(&batch(32), 4, &cache);
        assert_eq!(report.completed(), 32);
        assert_eq!(report.failed(), 0);
        assert_eq!(report.shed(), 0);
        // 2 distinct keys (tree-only for `interp`, lowered for the three
        // VM names); everything after the first misses hits.
        assert_eq!(
            (report.cache.misses, report.cache.hits),
            (2, 30),
            "{:?}",
            report.cache
        );
        assert!(report.cache.hit_rate() > 0.5, "{:?}", report.cache);
    }

    #[test]
    fn results_are_bit_identical_across_workers_and_engines() {
        let cache = Arc::new(CompileCache::new());
        let report = serve(&batch(24), 6, &cache);
        let first = report.records[0].scalars_bits.clone();
        assert!(!first.is_empty());
        for r in &report.records {
            assert_eq!(r.scalars_bits, first, "request {} diverged", r.index);
        }
    }

    #[test]
    fn bad_source_fails_alone_with_a_typed_cause() {
        let cache = Arc::new(CompileCache::new());
        let mut reqs = batch(3);
        reqs.push(ServeRequest::new("bad", "program ???", RunRequest::new()));
        let report = serve(&reqs, 2, &cache);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 1);
        let bad = report.records.last().unwrap();
        let cause = bad.cause().expect("parse failure carries its cause");
        assert_eq!(cause.kind, CauseKind::Parse);
        assert_eq!(cause.stage, Stage::Parse);
        assert_eq!(report.failures_by_cause().get("parse error"), Some(&1));
        assert!(report.render().contains("1 failed"), "{}", report.render());
    }

    #[test]
    fn unknown_override_fails_once_and_quarantines_nothing() {
        let cache = Arc::new(CompileCache::new());
        let opts = ServeOptions::new().with_workers(2);
        let mut reqs = batch(3);
        reqs.push(ServeRequest::new(
            "bogus",
            SRC,
            RunRequest::new().with_set("bogus", 3),
        ));
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.completed(), 3);
        assert_eq!(report.failed(), 1);
        let bad = report.records.last().unwrap();
        let cause = bad.cause().expect("config failure carries its cause");
        assert_eq!(cause.kind, CauseKind::Config);
        assert!(cause.message.contains("bogus"), "{cause}");
        assert_eq!(report.cache.quarantines, 0);
        assert!(report.records.iter().all(|r| !r.breaker_routed));
        assert_eq!(report.failures_by_cause().get("config error"), Some(&1));
    }

    #[test]
    fn percentiles_and_rollups_are_sane() {
        let cache = Arc::new(CompileCache::new());
        let report = serve(&batch(16), 1, &cache);
        assert!(report.percentile_us(50.0) <= report.percentile_us(99.0));
        assert!(report.e2e_percentile_us(50.0) >= report.percentile_us(50.0));
        let per = report.per_engine();
        assert_eq!(per.len(), 4);
        assert!(per.values().all(|s| s.completed == 4 && s.failed == 0));
    }

    #[test]
    fn reject_newest_sheds_under_stalled_workers() {
        let cache = Arc::new(CompileCache::new());
        let opts = ServeOptions::new()
            .with_workers(1)
            .with_queue_cap(1)
            .with_shed(ShedPolicy::RejectNewest)
            .with_faults(FaultPlan::new(11).with(FaultSite::ServeStall, 1.0));
        let reqs = batch(8);
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.completed() + report.shed(), 8);
        assert!(report.shed() >= 1, "{}", report.render());
        for r in &report.records {
            match &r.disposition {
                Disposition::Shed(cause) => assert_eq!(*cause, ShedCause::QueueFull),
                Disposition::Completed => {}
                Disposition::Failed(c) => panic!("unexpected failure: {c}"),
            }
        }
        assert!(report.render().contains("shed/queue-full"));
    }

    #[test]
    fn queued_deadline_expiry_sheds_without_compiling() {
        let cache = Arc::new(CompileCache::new());
        // Every request stalls 30 ms before the clock check, with a 5 ms
        // total deadline: all expire in (effective) queue wait.
        let opts = ServeOptions::new()
            .with_workers(2)
            .with_faults(FaultPlan::new(13).with(FaultSite::ServeStall, 1.0));
        let reqs: Vec<ServeRequest> = batch(6)
            .into_iter()
            .map(|r| r.with_deadline(Duration::from_millis(5)))
            .collect();
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.completed(), 0);
        assert_eq!(report.shed(), 6);
        for r in &report.records {
            assert_eq!(r.disposition, Disposition::Shed(ShedCause::DeadlineExpired));
            assert!(r.queue_wait >= Duration::from_millis(5));
        }
        assert_eq!(cache.stats().misses, 0, "expired requests never compile");
    }

    #[test]
    fn worker_panic_is_an_attributed_failure_not_a_crash() {
        let cache = Arc::new(CompileCache::new());
        let opts = ServeOptions::new()
            .with_workers(2)
            .with_faults(FaultPlan::new(14).with(FaultSite::WorkerPanic, 1.0));
        let reqs = batch(6);
        let report = serve_with(&reqs, &opts, &cache);
        assert_eq!(report.failed(), 6);
        for r in &report.records {
            let cause = r.cause().expect("worker panic is accounted");
            assert_eq!(cause.kind, CauseKind::Panic);
            assert!(cause.message.contains("worker-panic"), "{}", cause.message);
        }
    }

    #[test]
    fn shed_policy_parses_its_flag_spellings() {
        assert_eq!("reject".parse(), Ok(ShedPolicy::RejectNewest));
        assert_eq!("reject-newest".parse(), Ok(ShedPolicy::RejectNewest));
        assert_eq!("block".parse(), Ok(ShedPolicy::Block));
        assert!("newest".parse::<ShedPolicy>().is_err());
        // The removed policy's spellings name what replaced it.
        for removed in ["drop", "drop-oldest"] {
            let err = removed.parse::<ShedPolicy>().unwrap_err();
            assert!(
                err.contains("reject-newest") && err.contains("block"),
                "{err}"
            );
        }
    }
}
