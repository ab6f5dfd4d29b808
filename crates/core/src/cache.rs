//! The sharded, content-addressed compile cache behind the serving path.
//!
//! Every request that reaches the server is "compile this program at
//! this level for this engine under this binding, then run it". The
//! compile half is deterministic and expensive (normalize → ASDG →
//! FUSION-FOR-CONTRACTION → scalarize → bytecode → verify); the run half
//! is cheap per-request state. [`CompileCache`] memoizes the compile
//! half: keys are [`CacheKey`] — the structural digest of the program
//! *and* its concrete config binding ([`crate::hash::key_hash`]) plus
//! the explicit `(spec, engine)` coordinates — and values are
//! [`CachedProgram`] — the `Arc`-shared scalarized program plus, for the
//! VM engines, the compiled-and-verified
//! [`SharedProgram`] handle. A hit skips the
//! `PassManager`, the bytecode compiler, and the verifier entirely: it
//! is one lookup plus one `Arc` bump plus run-state allocation.
//!
//! There is one way to compile a request, [`compile`], and one
//! claim → compile → publish wrapper around it,
//! [`CompileCache::get_or_insert_with`]. [`CompileCache::get_or_compile`]
//! is the two composed for a caller that starts from a program and a
//! request; every rung of the [`Supervisor`](crate::Supervisor)'s ladder
//! goes through the same two functions inside its fault boundary, a rung
//! being the request at relaxed `(spec, engine)` coordinates.
//!
//! Concurrency model: the map is split into shards, each behind its own
//! `Mutex`, selected by key hash — worker threads hitting different
//! programs rarely contend. Compilation is *single-flight*: the first
//! thread to miss a key claims it ([`CompileCache::claim`] returns a
//! [`ClaimGuard`]); threads missing the same key meanwhile block on the
//! shard's condvar until the claimant publishes (they then count as
//! hits) or abandons — the guard abandons on drop, so a panicking or
//! erroring compile wakes the waiters and the next one claims. No lock
//! is held across compilation, each distinct key compiles exactly once,
//! and the hit/miss counters are deterministic even under concurrency.
//! Eviction is per-shard LRU; hits, misses, insertions, and evictions
//! are counted with atomics ([`CacheStats`]).

use crate::hash;
use crate::pipeline::LevelSpec;
use crate::request::RunRequest;
use crate::supervisor::{enter_stage, Stage};
use loopir::{Engine, ExecError, ExecOpts, Executor, Interp, ScalarProgram, SharedProgram};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use zlang::ir::{ConfigBinding, Program};

/// The content address of one compiled artifact.
///
/// The `content` digest covers the program structure and the concrete
/// config binding (see [`crate::hash`]); the remaining fields are
/// carried explicitly so that two compilations that *must* differ —
/// different level, cleanup passes, or engine — can never collide even
/// if the 64-bit digest did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`crate::hash::key_hash`] of (program, binding).
    pub content: u64,
    /// Level and cleanup passes the artifact was compiled at.
    pub spec: LevelSpec,
    /// The engine the artifact was compiled for (decides whether a
    /// [`SharedProgram`] exists, and whether it is the plain bytecode or
    /// the verified superinstruction stream).
    pub engine: Engine,
}

impl CacheKey {
    /// Computes the key for a program under a binding at explicit
    /// coordinates.
    pub fn compute(
        program: &Program,
        binding: &ConfigBinding,
        spec: LevelSpec,
        engine: Engine,
    ) -> Self {
        CacheKey {
            content: hash::key_hash(program, binding),
            spec,
            engine,
        }
    }

    /// Computes the key a [`RunRequest`] addresses for a program under a
    /// binding.
    pub fn for_request(program: &Program, binding: &ConfigBinding, req: &RunRequest) -> Self {
        CacheKey::compute(program, binding, req.spec, req.engine)
    }
}

/// One compiled artifact: everything needed to build an executor
/// without touching the pipeline again.
#[derive(Debug, Clone)]
pub struct CachedProgram {
    /// The scalarized program, shared — the [`Interp`] engine and the
    /// simulated runtime execute this directly.
    pub scalarized: Arc<ScalarProgram>,
    /// The compiled (and, for `vm-simd`/`vm-par`, verified) bytecode
    /// handle; `None` for [`Engine::Interp`].
    pub shared: Option<SharedProgram>,
    /// The binding the artifact was compiled under.
    pub binding: ConfigBinding,
    /// The engine the artifact serves.
    pub engine: Engine,
}

impl CachedProgram {
    /// Builds a fresh executor from the cached artifact: `Vm`
    /// re-instantiation from the shared bytecode for the VM engines
    /// (no recompile, no re-verify), or a new [`Interp`] over the shared
    /// scalarized program.
    pub fn executor(&self, opts: ExecOpts) -> Box<dyn Executor + '_> {
        match &self.shared {
            Some(shared) => self.engine.shared_executor(shared, opts),
            None => Box::new(Interp::new(&self.scalarized, self.binding.clone())),
        }
    }
}

/// The one compile step: optimize `program` under the request's pipeline
/// and lower the result for the request's engine under `binding`
/// (bytecode for the VM engines, verified for `vm-simd`/`vm-par`).
/// Nothing else in this crate pairs the optimizer with an engine, so
/// what a [`CacheKey`] addresses is what this function returns.
///
/// `optimized` carries the scalarized program between calls that share a
/// spec: `None` runs the optimizer and fills it, `Some` skips straight to
/// lowering (the supervisor's rungs at one spec differ only in engine,
/// and re-running a deterministic optimizer would only repeat its work
/// and its faults).
///
/// # Errors
///
/// Lowering failures and verifier rejections from
/// [`Engine::compile_shared`]. Optimizer panics propagate; the pass
/// manager has marked the pass that raised them ([`enter_stage`]).
pub fn compile(
    program: &Program,
    binding: &ConfigBinding,
    req: &RunRequest,
    optimized: &mut Option<Arc<ScalarProgram>>,
) -> Result<CachedProgram, ExecError> {
    // The optimizer's other outputs (normal form, ASDGs, traces) stay
    // alive until lowering is done: freeing them first hands their pages
    // back to the allocator and lowering faults them in again (+5% on the
    // `compile_cold` median).
    let fresh;
    let scalarized = match optimized {
        Some(sp) => sp.clone(),
        None => {
            fresh = req.pipeline().optimize(program);
            optimized.insert(Arc::new(fresh.scalarized)).clone()
        }
    };
    enter_stage(if req.engine.superfused() {
        Stage::VerifyBytecode
    } else {
        Stage::Execute
    });
    let shared = req.engine.compile_shared(&scalarized, binding.clone())?;
    Ok(CachedProgram {
        scalarized,
        shared,
        binding: binding.clone(),
        engine: req.engine,
    })
}

/// Monotonic cache counters, snapshotted by [`CompileCache::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries published (including re-publications after a race).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Entries evicted because their circuit breaker tripped
    /// ([`CompileCache::quarantine`]); not counted in `evictions`.
    pub quarantines: u64,
}

impl CacheStats {
    /// Hits over lookups, in `[0, 1]`; `0` before the first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    value: Arc<CachedProgram>,
    last_used: u64,
    /// Execution-time faults attributed to this artifact since it was
    /// published (see [`CompileCache::note_fault`]). Republishing the key
    /// resets the count: a fresh compile is a fresh artifact.
    faults: u64,
}

struct Shard {
    map: HashMap<CacheKey, Entry>,
    /// Keys some thread is currently compiling; misses on these block on
    /// the shard condvar instead of compiling a duplicate.
    in_flight: HashSet<CacheKey>,
    clock: u64,
}

struct ShardCell {
    state: Mutex<Shard>,
    ready: Condvar,
}

/// The result of [`CompileCache::claim`]: either the cached artifact, or
/// an exclusive license to compile the key.
pub enum Lookup<'a> {
    /// The artifact was cached (possibly after waiting out another
    /// thread's in-flight compile).
    Hit(Arc<CachedProgram>),
    /// Nothing cached and nobody compiling: the caller holds the claim
    /// and must [`ClaimGuard::publish`] or drop it (abandon).
    Miss(ClaimGuard<'a>),
}

/// An exclusive in-flight claim on one [`CacheKey`]. While the guard
/// lives, other threads missing the same key wait instead of compiling.
/// [`publish`](ClaimGuard::publish) fulfils the claim; dropping the
/// guard without publishing (compile error, panic unwind) abandons it,
/// waking the waiters so the next one can claim.
pub struct ClaimGuard<'a> {
    cache: &'a CompileCache,
    key: CacheKey,
    done: bool,
}

impl ClaimGuard<'_> {
    /// The key this claim covers.
    pub fn key(&self) -> CacheKey {
        self.key
    }

    /// Publishes the compiled artifact under the claimed key and wakes
    /// every thread waiting on it.
    pub fn publish(mut self, value: Arc<CachedProgram>) {
        self.done = true;
        self.cache.insert(self.key, value);
    }
}

impl Drop for ClaimGuard<'_> {
    fn drop(&mut self) {
        if !self.done {
            self.cache.abandon(&self.key);
        }
    }
}

/// The sharded in-memory compile cache. See the module docs for the
/// concurrency model; construction knobs exist mainly so tests can force
/// eviction deterministically.
pub struct CompileCache {
    shards: Vec<ShardCell>,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    quarantines: AtomicU64,
}

impl Default for CompileCache {
    fn default() -> Self {
        CompileCache::with_shards(8, 32)
    }
}

impl CompileCache {
    /// A cache with the default geometry (8 shards × 32 entries).
    pub fn new() -> Self {
        CompileCache::default()
    }

    /// A cache with explicit geometry. `shards` and `per_shard_capacity`
    /// are clamped to at least 1; total capacity is their product.
    pub fn with_shards(shards: usize, per_shard_capacity: usize) -> Self {
        let shards = shards.max(1);
        CompileCache {
            shards: (0..shards)
                .map(|_| ShardCell {
                    state: Mutex::new(Shard {
                        map: HashMap::new(),
                        in_flight: HashSet::new(),
                        clock: 0,
                    }),
                    ready: Condvar::new(),
                })
                .collect(),
            per_shard_capacity: per_shard_capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            quarantines: AtomicU64::new(0),
        }
    }

    /// Total entries the cache can hold.
    pub fn capacity(&self) -> usize {
        self.shards.len() * self.per_shard_capacity
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("cache shard lock poisoned").map.len())
            .sum()
    }

    /// True if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard(&self, key: &CacheKey) -> &ShardCell {
        // The content digest is already well-mixed; fold the high half in
        // so shard choice is not the digest's low bits alone.
        let h = key.content ^ (key.content >> 32);
        &self.shards[(h as usize) % self.shards.len()]
    }

    /// Looks a key up without claiming, counting a hit or a miss and
    /// refreshing LRU recency on hit. Does not wait for an in-flight
    /// compile — serving paths should prefer [`claim`](Self::claim).
    pub fn lookup(&self, key: &CacheKey) -> Option<Arc<CachedProgram>> {
        let mut shard = self
            .shard(key)
            .state
            .lock()
            .expect("cache shard lock poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.value.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Looks a key up, claiming it exclusively on a miss. If another
    /// thread already holds the claim, blocks until that thread
    /// publishes (returning the published artifact as a hit) or abandons
    /// (taking over the claim). Exactly one [`Lookup::Miss`] is handed
    /// out per published entry, so each distinct key compiles once no
    /// matter how many threads race for it.
    pub fn claim(&self, key: CacheKey) -> Lookup<'_> {
        let cell = self.shard(&key);
        let mut shard = cell.state.lock().expect("cache shard lock poisoned");
        loop {
            shard.clock += 1;
            let clock = shard.clock;
            if let Some(entry) = shard.map.get_mut(&key) {
                entry.last_used = clock;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Lookup::Hit(entry.value.clone());
            }
            if shard.in_flight.insert(key) {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return Lookup::Miss(ClaimGuard {
                    cache: self,
                    key,
                    done: false,
                });
            }
            shard = cell.ready.wait(shard).expect("cache shard lock poisoned");
        }
    }

    /// Releases an unfulfilled claim and wakes its waiters.
    fn abandon(&self, key: &CacheKey) {
        let cell = self.shard(key);
        let mut shard = cell.state.lock().expect("cache shard lock poisoned");
        shard.in_flight.remove(key);
        drop(shard);
        cell.ready.notify_all();
    }

    /// Publishes an artifact, evicting the shard's least-recently-used
    /// entry if the shard is full, releasing any in-flight claim on the
    /// key, and waking threads waiting on it.
    pub fn insert(&self, key: CacheKey, value: Arc<CachedProgram>) {
        let cell = self.shard(&key);
        let mut shard = cell.state.lock().expect("cache shard lock poisoned");
        shard.clock += 1;
        let clock = shard.clock;
        if !shard.map.contains_key(&key) && shard.map.len() >= self.per_shard_capacity {
            if let Some(victim) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                shard.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.map.insert(
            key,
            Entry {
                value,
                last_used: clock,
                faults: 0,
            },
        );
        shard.in_flight.remove(&key);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        drop(shard);
        cell.ready.notify_all();
    }

    /// Claim → compile → publish: returns the artifact cached under
    /// `key` (`true`: a hit, possibly after waiting out another thread's
    /// compile), or runs `compile` holding the key's exclusive claim and
    /// publishes what it returns (`false`). An error or a panic from
    /// `compile` abandons the claim, so waiters never hang and nothing
    /// is published.
    ///
    /// # Errors
    ///
    /// Whatever `compile` returns.
    pub fn get_or_insert_with<E>(
        &self,
        key: CacheKey,
        compile: impl FnOnce() -> Result<CachedProgram, E>,
    ) -> Result<(Arc<CachedProgram>, bool), E> {
        let guard = match self.claim(key) {
            Lookup::Hit(hit) => return Ok((hit, true)),
            Lookup::Miss(guard) => guard,
        };
        let value = Arc::new(compile()?);
        guard.publish(value.clone());
        Ok((value, false))
    }

    /// The one-call serving primitive: bind the request's `--set`
    /// overrides, address its key, and
    /// [`get_or_insert_with`](Self::get_or_insert_with) the result of
    /// [`compile`]. The boolean is `true` on a hit.
    ///
    /// # Errors
    ///
    /// As [`compile`], plus a [`Lower`](loopir::ErrorKind::Lower)-kind
    /// error for a `--set` name that matches no config variable.
    /// Optimizer panics propagate — serving callers run under the
    /// [`Supervisor`](crate::Supervisor)'s fault boundary, which catches
    /// them.
    pub fn get_or_compile(
        &self,
        program: &Program,
        req: &RunRequest,
    ) -> Result<(Arc<CachedProgram>, bool), ExecError> {
        let binding = req.binding_for(program).map_err(ExecError::lower)?;
        let key = CacheKey::for_request(program, &binding, req);
        self.get_or_insert_with(key, || compile(program, &binding, req, &mut None))
    }

    /// Records one execution-time fault against the cached artifact for
    /// `key`, returning the artifact's total fault count (`0` if the key
    /// is not cached — a fault in a freshly compiled artifact is the
    /// compile's problem, not the cache's).
    pub fn note_fault(&self, key: &CacheKey) -> u64 {
        let mut shard = self
            .shard(key)
            .state
            .lock()
            .expect("cache shard lock poisoned");
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.faults += 1;
                entry.faults
            }
            None => 0,
        }
    }

    /// Execution-time faults recorded against the cached artifact for
    /// `key` (`0` if not cached).
    pub fn fault_count(&self, key: &CacheKey) -> u64 {
        let shard = self
            .shard(key)
            .state
            .lock()
            .expect("cache shard lock poisoned");
        shard.map.get(key).map(|e| e.faults).unwrap_or(0)
    }

    /// Evicts the entry for `key` because its circuit breaker tripped:
    /// the artifact is suspected poisoned and must never be re-served.
    /// Returns `true` if an entry was actually removed. The next compile
    /// of the key republishes a fresh artifact with a zero fault count.
    pub fn quarantine(&self, key: &CacheKey) -> bool {
        let cell = self.shard(key);
        let mut shard = cell.state.lock().expect("cache shard lock poisoned");
        let removed = shard.map.remove(key).is_some();
        if removed {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is read without a global lock).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            quarantines: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use loopir::NoopObserver;

    fn src(k: usize) -> String {
        format!(
            "program p{k}; config n : int = 6; region R = [1..n]; \
             var A, B : [R] float; var s : float; \
             begin [R] A := {k}.0; [R] B := A + 1.0; s := +<< [R] B; end"
        )
    }

    #[test]
    fn hit_miss_and_insert_accounting_is_exact() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new();
        let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_coordinates_are_distinct_entries() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        for req in [
            RunRequest::new(),
            RunRequest::new().with_level(crate::Level::Baseline),
            RunRequest::new().with_engine(Engine::Interp),
            RunRequest::new().with_set("n", 4),
        ] {
            let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
            assert!(!hit, "{req}");
        }
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn lru_eviction_is_counted_and_bounded() {
        let cache = CompileCache::with_shards(1, 2);
        let req = RunRequest::new();
        let programs: Vec<_> = (0..4).map(|k| zlang::compile(&src(k)).unwrap()).collect();
        for p in &programs {
            cache.get_or_compile(p, &req).unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
        // The most recent two survive; the oldest were evicted.
        let (_, hit) = cache.get_or_compile(&programs[3], &req).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_compile(&programs[0], &req).unwrap();
        assert!(!hit, "oldest entry was evicted");
    }

    #[test]
    fn lru_refreshes_on_hit() {
        let cache = CompileCache::with_shards(1, 2);
        let req = RunRequest::new();
        let a = zlang::compile(&src(0)).unwrap();
        let b = zlang::compile(&src(1)).unwrap();
        let c = zlang::compile(&src(2)).unwrap();
        cache.get_or_compile(&a, &req).unwrap();
        cache.get_or_compile(&b, &req).unwrap();
        cache.get_or_compile(&a, &req).unwrap(); // refresh a
        cache.get_or_compile(&c, &req).unwrap(); // evicts b, not a
        let (_, hit) = cache.get_or_compile(&a, &req).unwrap();
        assert!(hit, "refreshed entry must survive eviction");
    }

    #[test]
    fn cached_executors_reproduce_the_cold_result() {
        let p = zlang::compile(&src(3)).unwrap();
        for engine in Engine::all() {
            let cache = CompileCache::new();
            let req = RunRequest::new().with_engine(engine);
            let (cold, _) = cache.get_or_compile(&p, &req).unwrap();
            let a = cold
                .executor(req.exec_opts())
                .execute(&mut NoopObserver)
                .unwrap();
            let (hot, hit) = cache.get_or_compile(&p, &req).unwrap();
            assert!(hit);
            let b = hot
                .executor(req.exec_opts())
                .execute(&mut NoopObserver)
                .unwrap();
            assert_eq!(a, b, "{engine}");
            assert_eq!(
                a.checksum().to_bits(),
                b.checksum().to_bits(),
                "{engine}: hit must be bit-identical"
            );
            assert_eq!(engine != Engine::Interp, hot.shared.is_some());
            if let Some(shared) = &hot.shared {
                assert_eq!(shared.is_verified(), engine != Engine::Vm);
            }
        }
    }

    #[test]
    fn publish_wakes_waiters_as_hits() {
        let cache = Arc::new(CompileCache::new());
        let p = zlang::compile(&src(2)).unwrap();
        let req = RunRequest::new();
        let binding = req.binding_for(&p).unwrap();
        let key = CacheKey::for_request(&p, &binding, &req);
        let guard = match cache.claim(key) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => panic!("cache is empty"),
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || matches!(cache.claim(key), Lookup::Hit(_)))
            })
            .collect();
        let (value, _) = CompileCache::new().get_or_compile(&p, &req).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(10));
        guard.publish(value);
        for w in waiters {
            assert!(
                w.join().unwrap(),
                "waiter sees the published artifact as a hit"
            );
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (4, 1, 1));
    }

    #[test]
    fn abandoned_claims_hand_over_to_waiters() {
        let cache = Arc::new(CompileCache::new());
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new();
        let binding = req.binding_for(&p).unwrap();
        let key = CacheKey::for_request(&p, &binding, &req);
        let guard = match cache.claim(key) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => panic!("cache is empty"),
        };
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || match cache.claim(key) {
                Lookup::Miss(g) => {
                    drop(g);
                    false
                }
                Lookup::Hit(_) => true,
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(guard); // abandon without publishing
        assert!(
            !waiter.join().unwrap(),
            "waiter takes over the abandoned claim as a fresh miss"
        );
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.insertions), (0, 2, 0));
        assert!(cache.is_empty());
    }

    #[test]
    fn quarantine_evicts_and_recompile_resets_fault_count() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new();
        let binding = req.binding_for(&p).unwrap();
        let key = CacheKey::for_request(&p, &binding, &req);
        assert_eq!(
            cache.note_fault(&key),
            0,
            "uncached keys have no artifact to blame"
        );
        cache.get_or_compile(&p, &req).unwrap();
        assert_eq!(cache.note_fault(&key), 1);
        assert_eq!(cache.note_fault(&key), 2);
        assert_eq!(cache.fault_count(&key), 2);
        assert!(cache.quarantine(&key));
        assert!(!cache.quarantine(&key), "already gone");
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.evictions, s.quarantines), (0, 1));
        // Recompiling publishes a fresh artifact with a clean record.
        let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
        assert!(!hit);
        assert_eq!(cache.fault_count(&key), 0);
    }

    #[test]
    fn unknown_set_name_is_a_lower_error() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let err = cache
            .get_or_compile(&p, &RunRequest::new().with_set("zz", 1))
            .unwrap_err();
        assert!(err.message.contains("zz"), "{}", err.message);
    }
}
