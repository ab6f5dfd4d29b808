//! The staged, sharded, content-addressed compile cache behind the
//! serving path.
//!
//! Every request that reaches the server is "compile this source at this
//! level under this binding, then run it at these knobs". The compile
//! half is deterministic and expensive; the run half is cheap per-request
//! state. [`CompileCache`] memoizes the compile half in the three stages
//! it really has, each keyed by exactly what the stage reads:
//!
//! | stage | reads | key | value |
//! |---|---|---|---|
//! | **parse** (lex → parse → sema) | source text | [`hash::text_hash`], text compared on hit | [`Parsed`]: the program and its [`hash::program_hash`], computed once |
//! | **optimize** (normalize → ASDG → FUSION-FOR-CONTRACTION → scalarize) | program, [`LevelSpec`] | `(program digest, spec)` | `Arc<ScalarProgram>` |
//! | **lower** (bytecode → superfuse → verify) | scalarized program, binding | [`CacheKey`]: program + binding + spec | [`CachedProgram`] |
//!
//! The paper's optimizer works on array statements over *symbolic*
//! regions, so one optimized program serves every problem size; only the
//! lower stage — which bakes region bounds into the bytecode and proves
//! every access in bounds for those numbers — is per size. A request for
//! a new size of a known program therefore costs one lowering, and a
//! repeated request costs three lookups, an `Arc` bump and run-state
//! allocation. The artifact is engine-independent: `vm`, `vm-simd` and
//! `vm-par` are settings of the two [`ExecOpts`] integers a request runs
//! the one lowered stream at ([`loopir::Engine::knobs`]), so they share
//! one entry. The key's only trace of the engine is whether the request
//! lowers at all: `interp`, the rung that must survive a lowering
//! failure, addresses a tree-only artifact. *Who watches the run* is not
//! a coordinate either: a run under the simulated runtime's observer
//! executes the entry a plain run of the same request does.
//!
//! **The invariant this rests on:** [`Pipeline::optimize`] is a function
//! of the program and the [`LevelSpec`] only. It takes no binding (passes
//! that need numbers read the program's own config *defaults*, which
//! [`hash::program_hash`] covers, so two programs differing only in a
//! default never share an entry). [`RunRequest::verify`] only adds
//! diagnostics without changing generated code and nothing on this path
//! reads them, so the cache neither keys on the flag nor runs the
//! translation validator for it: the optimize stage's pipeline is built
//! from the spec alone. Every artifact is still lowered, superfused and
//! verified under its own binding.
//!
//! [`Pipeline::optimize`]: crate::Pipeline::optimize
//!
//! There is one way to compile a request, [`CompileCache::compile`]:
//! claim the artifact's key, read the optimize stage (running the
//! optimizer on a miss), lower, publish. [`CompileCache::get_or_compile`]
//! is that for a caller that starts from a program and a request; every
//! rung of the [`Supervisor`](crate::Supervisor)'s ladder goes through it
//! inside its fault boundary, a rung being the request as asked, on the
//! tree-walker, or (last) on the tree-walker at `baseline`, and
//! [`CompileCache::parse`] is the same supervisor's front end.
//!
//! Concurrency model: all three stages are instances of one sharded
//! single-flight LRU. A stage's map is split into shards, each behind its
//! own `Mutex`, selected by key digest — worker threads hitting different
//! programs rarely contend. Filling a key is *single-flight*: the first
//! thread to miss claims it; threads missing the same key meanwhile block
//! on the shard's condvar until the claimant publishes (they then count
//! as hits) or abandons — the claim abandons on drop, so a panicking or
//! erroring stage wakes the waiters and the next one claims. Two workers
//! missing different sizes of one program thus wait on *one* optimizer
//! run. Claims nest in one order only (lower, then optimize; the parse
//! claim is released before either), no lock is held while a stage runs,
//! each distinct key is filled exactly once, and the hit/miss counters
//! are deterministic even under concurrency. Failures are never memoized:
//! a parse error, an optimizer panic and a verifier rejection all leave
//! their stage empty. Eviction is per-shard LRU under the one geometry
//! ([`CompileCache::with_shards`]) all three stages share; the counters
//! are atomics ([`CacheStats`]).
//!
//! The cache also owns the set of *quarantined* keys
//! ([`CompileCache::quarantine`]): artifacts that faulted at execution.
//! Execution is deterministic in (program, binding, knobs), so a
//! key joins the set on its first fault and never leaves it; the
//! supervisor routes its requests to the reference rung without
//! consulting the cache.

use crate::hash;
use crate::pipeline::{LevelSpec, Pipeline};
use crate::request::RunRequest;
use crate::supervisor::{enter_stage, Stage};
use loopir::{Engine, ExecError, ExecOpts, Executor, Interp, ScalarProgram, SharedProgram};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use zlang::ir::{ConfigBinding, Program};

/// The content address of one compiled artifact (the lower stage's key).
///
/// `program` and `content` are digests (see [`crate::hash`]); the
/// remaining fields are carried explicitly so that two compilations that
/// *must* differ — different level or extension, tree-only or
/// lowered — can never collide even if a 64-bit digest did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// [`hash::program_hash`] of the program: with `spec`, the address of
    /// the optimize-stage entry this artifact was lowered from.
    pub program: u64,
    /// [`hash::key_hash`] of (program, binding).
    pub content: u64,
    /// Level and extensions the artifact was compiled at.
    pub spec: LevelSpec,
    /// Whether the artifact holds the lowered [`SharedProgram`]:
    /// `engine != Engine::Interp` and nothing else — true for every VM
    /// engine name, simulated or not, false for `interp`, which never
    /// lowers.
    pub bytecode: bool,
}

impl CacheKey {
    /// Computes the key for a program under a binding at explicit
    /// coordinates (`engine` only decides [`bytecode`](Self::bytecode)),
    /// hashing the program.
    pub fn compute(
        program: &Program,
        binding: &ConfigBinding,
        spec: LevelSpec,
        engine: Engine,
    ) -> Self {
        CacheKey::at(hash::program_hash(program), program, binding, spec, engine)
    }

    /// The key for a program whose [`hash::program_hash`] the caller
    /// already holds (from [`Parsed::digest`], or computed once for the
    /// request): only the binding is hashed.
    pub fn at(
        program_digest: u64,
        program: &Program,
        binding: &ConfigBinding,
        spec: LevelSpec,
        engine: Engine,
    ) -> Self {
        CacheKey {
            program: program_digest,
            content: hash::key_hash(program_digest, program, binding),
            spec,
            bytecode: engine != Engine::Interp,
        }
    }

    /// Computes the key a [`RunRequest`] addresses for a program under a
    /// binding.
    pub fn for_request(program: &Program, binding: &ConfigBinding, req: &RunRequest) -> Self {
        CacheKey::compute(program, binding, req.spec, req.engine)
    }

    fn optimize_key(&self) -> OptimizeKey {
        OptimizeKey {
            program: self.program,
            spec: self.spec,
        }
    }
}

/// The optimize stage's key: everything [`crate::Pipeline::optimize`]
/// reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OptimizeKey {
    program: u64,
    spec: LevelSpec,
}

/// The parse stage's value: a checked program, the digest every later
/// stage keys on, and the text it was parsed from.
#[derive(Debug)]
pub struct Parsed {
    /// The array-level IR of the source.
    pub program: Program,
    /// [`hash::program_hash`] of `program`.
    pub digest: u64,
    /// Compared on every parse-stage hit: [`hash::text_hash`] is 64 bits
    /// of a fast fold, and a collision must never serve another program.
    source: Box<str>,
}

/// One compiled artifact: everything needed to build an executor
/// without touching the pipeline again.
#[derive(Debug, Clone)]
pub struct CachedProgram {
    /// The scalarized program, shared with the optimize stage and with
    /// the artifacts of every other size — the [`Interp`] engine executes
    /// this directly, and a machine model reads its declarations.
    pub scalarized: Arc<ScalarProgram>,
    /// The lowered, verified bytecode every VM engine name runs
    /// ([`SharedProgram::lower`]); `None` in the tree-only artifact
    /// [`Engine::Interp`] addresses.
    pub shared: Option<SharedProgram>,
    /// The binding the artifact was compiled under.
    pub binding: ConfigBinding,
}

impl CachedProgram {
    /// Builds a fresh executor from the cached artifact: a `Vm` over the
    /// shared bytecode at `opts` (no recompile, no re-verify; both knobs
    /// apply as given — [`RunRequest::exec_opts`] has already pinned the
    /// ones the request's engine name does not read), or a new [`Interp`]
    /// over the shared scalarized program.
    pub fn executor(&self, opts: ExecOpts) -> Box<dyn Executor + '_> {
        match &self.shared {
            Some(shared) => Box::new(shared.executor(opts)),
            None => Box::new(Interp::new(&self.scalarized, self.binding.clone())),
        }
    }
}

/// The deepest stage a compile had to run: how much of the pipeline a
/// request paid for. Ordered, so the deepest of several is their `max`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum Depth {
    /// Nothing ran: every stage consulted was a hit.
    #[default]
    Hit,
    /// The artifact was lowered from an optimize-stage hit.
    Lowered,
    /// The optimizer ran.
    Optimized,
    /// The front end ran.
    Parsed,
}

impl fmt::Display for Depth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Depth::Hit => "hit",
            Depth::Lowered => "lowered",
            Depth::Optimized => "optimized",
            Depth::Parsed => "parsed",
        })
    }
}

/// Monotonic cache counters, snapshotted by [`CompileCache::stats`].
/// `hits` through `quarantines` count *artifacts* (the lower stage); the
/// `parse_*` and `optimize_*` fields count the two stages in front of it.
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
    /// Entries evicted because their key was quarantined after an
    /// execution fault ([`CompileCache::quarantine`]); not counted in
    /// `evictions`.
    pub quarantines: u64,
    /// Source texts served from the parse stage (a text-digest collision,
    /// which re-parses uncached, is also counted here).
    pub parse_hits: u64,
    /// Source texts that ran the front end (failed parses included).
    pub parse_misses: u64,
    /// Artifact misses that found their program already optimized.
    pub optimize_hits: u64,
    /// Artifact misses that ran the optimizer.
    pub optimize_misses: u64,
}

impl CacheStats {
    /// Artifact hits over artifact lookups, in `[0, 1]`; `0` before the
    /// first lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry<V> {
    value: V,
    last_used: u64,
}

struct Shard<K, V> {
    map: HashMap<K, Entry<V>>,
    /// Keys some thread is currently filling; misses on these block on
    /// the shard condvar instead of running the stage a second time.
    in_flight: HashSet<K>,
    clock: u64,
}

struct ShardCell<K, V> {
    state: Mutex<Shard<K, V>>,
    ready: Condvar,
}

/// The result of [`Memo::claim`]: either the cached value, or an
/// exclusive license to produce it.
enum Lookup<'a, K: Copy + Eq + Hash, V: Clone> {
    /// The value was cached (possibly after waiting out another thread's
    /// in-flight claim).
    Hit(V),
    /// Nothing cached and nobody producing it: the caller holds the claim
    /// and must [`ClaimGuard::publish`] or drop it (abandon).
    Miss(ClaimGuard<'a, K, V>),
}

/// An exclusive in-flight claim on one key of a [`Memo`]. While the guard
/// lives, other threads missing the same key wait instead of running the
/// stage. [`publish`](ClaimGuard::publish) fulfils the claim; dropping
/// the guard without publishing (stage error, panic unwind) abandons it,
/// waking the waiters so the next one can claim.
struct ClaimGuard<'a, K: Copy + Eq + Hash, V: Clone> {
    memo: &'a Memo<K, V>,
    key: K,
    done: bool,
}

impl<K: Copy + Eq + Hash, V: Clone> ClaimGuard<'_, K, V> {
    /// Publishes the value under the claimed key and wakes every thread
    /// waiting on it.
    fn publish(mut self, value: V) {
        self.done = true;
        self.memo.insert(self.key, value);
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Drop for ClaimGuard<'_, K, V> {
    fn drop(&mut self) {
        if !self.done {
            self.memo.abandon(&self.key);
        }
    }
}

/// One cache stage: a sharded single-flight LRU from `K` to a cheaply
/// cloned `V` (an `Arc`). See the module docs for the concurrency model.
struct Memo<K, V> {
    shards: Vec<ShardCell<K, V>>,
    per_shard_capacity: usize,
    /// The well-mixed 64 bits of a key that choose its shard.
    digest: fn(&K) -> u64,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Copy + Eq + Hash, V: Clone> Memo<K, V> {
    fn new(shards: usize, per_shard_capacity: usize, digest: fn(&K) -> u64) -> Self {
        Memo {
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
            per_shard_capacity,
            digest,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().expect("cache shard lock poisoned").map.len())
            .sum()
    }

    fn shard(&self, key: &K) -> &ShardCell<K, V> {
        // The digest is already well-mixed; fold the high half in so
        // shard choice is not its low bits alone.
        let h = (self.digest)(key);
        &self.shards[((h ^ (h >> 32)) as usize) % self.shards.len()]
    }

    /// Looks a key up, claiming it exclusively on a miss. If another
    /// thread already holds the claim, blocks until that thread
    /// publishes (returning the published value as a hit) or abandons
    /// (taking over the claim). Exactly one [`Lookup::Miss`] is handed
    /// out per published entry, so each distinct key is produced once no
    /// matter how many threads race for it.
    fn claim(&self, key: K) -> Lookup<'_, K, V> {
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
                    memo: self,
                    key,
                    done: false,
                });
            }
            shard = cell.ready.wait(shard).expect("cache shard lock poisoned");
        }
    }

    /// Releases an unfulfilled claim and wakes its waiters.
    fn abandon(&self, key: &K) {
        let cell = self.shard(key);
        let mut shard = cell.state.lock().expect("cache shard lock poisoned");
        shard.in_flight.remove(key);
        drop(shard);
        cell.ready.notify_all();
    }

    /// Publishes a value, evicting the shard's least-recently-used entry
    /// if the shard is full, releasing any in-flight claim on the key,
    /// and waking threads waiting on it.
    fn insert(&self, key: K, value: V) {
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
            },
        );
        shard.in_flight.remove(&key);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        drop(shard);
        cell.ready.notify_all();
    }

    /// Drops the entry for `key`; `true` if there was one.
    fn remove(&self, key: &K) -> bool {
        let mut shard = self
            .shard(key)
            .state
            .lock()
            .expect("cache shard lock poisoned");
        shard.map.remove(key).is_some()
    }

    /// Claim → produce → publish: returns the value cached under `key`
    /// (`true`: a hit, possibly after waiting out another thread's
    /// claim), or runs `produce` holding the key's exclusive claim and
    /// publishes what it returns (`false`). An error or a panic from
    /// `produce` abandons the claim, so waiters never hang and nothing is
    /// published.
    fn get_or_insert_with<E>(
        &self,
        key: K,
        produce: impl FnOnce() -> Result<V, E>,
    ) -> Result<(V, bool), E> {
        let guard = match self.claim(key) {
            Lookup::Hit(hit) => return Ok((hit, true)),
            Lookup::Miss(guard) => guard,
        };
        let value = produce()?;
        guard.publish(value.clone());
        Ok((value, false))
    }
}

/// The staged in-memory compile cache. See the module docs for the
/// stages and the concurrency model; construction knobs exist mainly so
/// tests can force eviction deterministically.
pub struct CompileCache {
    parsed: Memo<u64, Arc<Parsed>>,
    optimized: Memo<OptimizeKey, Arc<ScalarProgram>>,
    lowered: Memo<CacheKey, Arc<CachedProgram>>,
    quarantines: AtomicU64,
    /// Keys whose artifact faulted at execution. Nothing leaves the set.
    quarantined: Mutex<HashSet<CacheKey>>,
    /// False until the first key is quarantined, so the check every
    /// supervised run makes is one atomic load while the set is empty.
    any_quarantined: AtomicBool,
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

    /// A cache with explicit geometry, which every stage shares. `shards`
    /// and `per_shard_capacity` are clamped to at least 1; a stage's
    /// capacity is their product.
    pub fn with_shards(shards: usize, per_shard_capacity: usize) -> Self {
        let (shards, cap) = (shards.max(1), per_shard_capacity.max(1));
        CompileCache {
            parsed: Memo::new(shards, cap, |text| *text),
            optimized: Memo::new(shards, cap, |key| key.program),
            lowered: Memo::new(shards, cap, |key| key.content),
            quarantines: AtomicU64::new(0),
            quarantined: Mutex::new(HashSet::new()),
            any_quarantined: AtomicBool::new(false),
        }
    }

    /// Total artifacts the cache can hold.
    pub fn capacity(&self) -> usize {
        self.lowered.shards.len() * self.lowered.per_shard_capacity
    }

    /// Artifacts currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.lowered.len()
    }

    /// True if no artifacts are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The parse stage: the checked program of `source` and its digest,
    /// running the front end (`zlang::compile`, then one
    /// [`hash::program_hash`]) only for a text this cache has not seen.
    /// The depth is [`Depth::Parsed`] when it ran.
    ///
    /// # Errors
    ///
    /// The front end's error; a failed parse is not memoized.
    pub fn parse(&self, source: &str) -> Result<(Arc<Parsed>, Depth), zlang::Error> {
        self.parse_at(hash::text_hash(source), source)
    }

    /// [`parse`](Self::parse) under an explicit text digest (a seam for
    /// the collision test).
    fn parse_at(&self, key: u64, source: &str) -> Result<(Arc<Parsed>, Depth), zlang::Error> {
        let front_end = || -> Result<Arc<Parsed>, zlang::Error> {
            let program = zlang::compile(source)?;
            Ok(Arc::new(Parsed {
                digest: hash::program_hash(&program),
                program,
                source: source.into(),
            }))
        };
        let (parsed, hit) = self.parsed.get_or_insert_with(key, front_end)?;
        if !hit {
            Ok((parsed, Depth::Parsed))
        } else if *parsed.source == *source {
            Ok((parsed, Depth::Hit))
        } else {
            // Another text owns this digest's slot: serve this one
            // uncached rather than evict the owner on every alternation.
            Ok((front_end()?, Depth::Parsed))
        }
    }

    /// The one compile step. Claims `key` in the lower stage (a hit
    /// returns the artifact at [`Depth::Hit`]); on a miss reads the
    /// optimize stage at `(key.program, key.spec)` — running the
    /// pipeline `key.spec` names over `program` under that stage's own
    /// claim if it misses too (the spec and nothing else of the request:
    /// the key is everything a compile reads) — lowers the scalarized
    /// program under `binding` if `key.bytecode` asks
    /// ([`SharedProgram::lower`]: superfused and verified, whatever VM
    /// name the request spells) and publishes the artifact. Nothing else
    /// in this crate pairs the optimizer with a lowering, so what a
    /// [`CacheKey`] addresses is what this function returns.
    ///
    /// `key` must be `program`'s key under `binding`; callers build it
    /// once per request with [`CacheKey::at`] and relax its `spec` and
    /// `bytecode` coordinates per rung.
    ///
    /// # Errors
    ///
    /// Lowering failures and verifier rejections from
    /// [`SharedProgram::lower`]. Optimizer panics propagate; the
    /// optimizer has marked the pass that raised them ([`enter_stage`]).
    /// Either way the claims are abandoned and nothing is memoized.
    pub fn compile(
        &self,
        program: &Program,
        binding: &ConfigBinding,
        key: CacheKey,
    ) -> Result<(Arc<CachedProgram>, Depth), ExecError> {
        let lowering = match self.lowered.claim(key) {
            Lookup::Hit(artifact) => return Ok((artifact, Depth::Hit)),
            Lookup::Miss(claim) => claim,
        };
        // The optimizer's other outputs (normal form, ASDGs, traces) stay
        // alive until lowering is done: freeing them first hands their pages
        // back to the allocator and lowering faults them in again (+4% on the
        // `compile_cold` median, re-measured after the optimizer stopped
        // copying the program).
        let fresh;
        let (scalarized, depth) = match self.optimized.claim(key.optimize_key()) {
            Lookup::Hit(scalarized) => (scalarized, Depth::Lowered),
            Lookup::Miss(optimizing) => {
                fresh = Pipeline::new(key.spec).optimize(program);
                let scalarized = Arc::new(fresh.scalarized);
                optimizing.publish(scalarized.clone());
                (scalarized, Depth::Optimized)
            }
        };
        enter_stage(Stage::VerifyBytecode);
        let shared = key
            .bytecode
            .then(|| SharedProgram::lower(&scalarized, binding.clone()))
            .transpose()?;
        let artifact = Arc::new(CachedProgram {
            shared,
            scalarized,
            binding: binding.clone(),
        });
        lowering.publish(artifact.clone());
        Ok((artifact, depth))
    }

    /// The one-call serving primitive for a caller that starts from a
    /// program: bind the request's `--set` overrides, hash the program
    /// once, and [`compile`](Self::compile). The boolean is `true` on an
    /// artifact hit.
    ///
    /// # Errors
    ///
    /// As [`compile`](Self::compile), plus a
    /// [`Lower`](loopir::ErrorKind::Lower)-kind error for a `--set` name
    /// that matches no config variable. Optimizer panics propagate —
    /// serving callers run under the [`Supervisor`](crate::Supervisor)'s
    /// fault boundary, which catches them.
    pub fn get_or_compile(
        &self,
        program: &Program,
        req: &RunRequest,
    ) -> Result<(Arc<CachedProgram>, bool), ExecError> {
        let binding = req.binding_for(program).map_err(ExecError::lower)?;
        let key = CacheKey::for_request(program, &binding, req);
        let (artifact, depth) = self.compile(program, &binding, key)?;
        Ok((artifact, depth == Depth::Hit))
    }

    /// Quarantines `key` because its artifact faulted at execution: it is
    /// suspected poisoned and must never be re-served. The key joins the
    /// quarantined set ([`is_quarantined`](Self::is_quarantined)) for the
    /// life of the cache, and its artifact is evicted together with the
    /// optimize-stage entry it was lowered from, since the suspicion
    /// covers everything the artifact was built from. (Artifacts of other
    /// sizes keep their own reference to the old scalarized program until
    /// their own keys fault.) Returns `true` if an artifact was actually
    /// removed.
    pub fn quarantine(&self, key: &CacheKey) -> bool {
        self.quarantined
            .lock()
            .expect("quarantine lock poisoned")
            .insert(*key);
        self.any_quarantined.store(true, Ordering::Release);
        self.optimized.remove(&key.optimize_key());
        let removed = self.lowered.remove(key);
        if removed {
            self.quarantines.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// True if `key` was [quarantined](Self::quarantine).
    pub fn is_quarantined(&self, key: &CacheKey) -> bool {
        self.any_quarantined.load(Ordering::Acquire)
            && self
                .quarantined
                .lock()
                .expect("quarantine lock poisoned")
                .contains(key)
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is read without a global lock).
    pub fn stats(&self) -> CacheStats {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        CacheStats {
            hits: load(&self.lowered.hits),
            misses: load(&self.lowered.misses),
            insertions: load(&self.lowered.insertions),
            evictions: load(&self.lowered.evictions),
            quarantines: load(&self.quarantines),
            parse_hits: load(&self.parsed.hits),
            parse_misses: load(&self.parsed.misses),
            optimize_hits: load(&self.optimized.hits),
            optimize_misses: load(&self.optimized.misses),
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
        // The VM engine names and their knobs are not coordinates.
        for req in [
            RunRequest::new().with_engine(Engine::VmSimd).with_lanes(8),
            RunRequest::new().with_engine(Engine::VmPar).with_threads(2),
        ] {
            let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
            assert!(hit, "{req}");
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
                assert!(shared.is_verified(), "{engine}");
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
        let guard = match cache.lowered.claim(key) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => panic!("cache is empty"),
        };
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || matches!(cache.lowered.claim(key), Lookup::Hit(_)))
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
        let guard = match cache.lowered.claim(key) {
            Lookup::Miss(g) => g,
            Lookup::Hit(_) => panic!("cache is empty"),
        };
        let waiter = {
            let cache = cache.clone();
            std::thread::spawn(move || match cache.lowered.claim(key) {
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
    fn quarantine_evicts_and_recompile_republishes() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new();
        let binding = req.binding_for(&p).unwrap();
        let key = CacheKey::for_request(&p, &binding, &req);
        assert!(!cache.quarantine(&key), "nothing cached yet");
        cache.get_or_compile(&p, &req).unwrap();
        assert!(cache.quarantine(&key));
        assert!(!cache.quarantine(&key), "already gone");
        assert!(cache.is_empty());
        let s = cache.stats();
        assert_eq!((s.evictions, s.quarantines), (0, 1));
        // Recompiling publishes a fresh artifact.
        let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
        assert!(!hit);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn quarantined_keys_are_independent() {
        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new();
        let binding = req.binding_for(&p).unwrap();
        let key = CacheKey::for_request(&p, &binding, &req);
        let resized = req.clone().with_set("n", 4);
        let other = CacheKey::for_request(&p, &resized.binding_for(&p).unwrap(), &resized);
        assert!(!cache.is_quarantined(&key), "nothing quarantined yet");
        cache.quarantine(&key);
        assert!(cache.is_quarantined(&key));
        assert!(!cache.is_quarantined(&other), "another size of the program");
        // Recompiling the key does not lift the quarantine.
        cache.get_or_compile(&p, &req).unwrap();
        assert!(cache.is_quarantined(&key));
    }

    #[test]
    fn failed_parses_are_not_memoized() {
        let cache = CompileCache::new();
        for _ in 0..2 {
            assert!(cache.parse("program ???").is_err());
        }
        let s = cache.stats();
        assert_eq!((s.parse_hits, s.parse_misses), (0, 2));
        let (first, depth) = cache.parse(&src(1)).unwrap();
        assert_eq!(depth, Depth::Parsed);
        assert_eq!(first.digest, hash::program_hash(&first.program));
        let (again, depth) = cache.parse(&src(1)).unwrap();
        assert_eq!(depth, Depth::Hit);
        assert!(Arc::ptr_eq(&first, &again));
    }

    #[test]
    fn text_digest_collisions_never_serve_another_program() {
        let cache = CompileCache::new();
        let (owner, _) = cache.parse_at(7, &src(1)).unwrap();
        let (other, depth) = cache.parse_at(7, &src(2)).unwrap();
        assert_eq!(
            depth,
            Depth::Parsed,
            "a colliding text is parsed, not served"
        );
        assert_eq!((&*owner.program.name, &*other.program.name), ("p1", "p2"));
        assert_ne!(owner.digest, other.digest);
        let (again, depth) = cache.parse_at(7, &src(1)).unwrap();
        assert_eq!(depth, Depth::Hit, "the owner keeps its slot");
        assert!(Arc::ptr_eq(&owner, &again));
    }

    #[test]
    fn optimizer_panics_abandon_their_claims_and_memoize_nothing() {
        use testkit::faults::{self, FaultPlan, FaultSite};

        let cache = CompileCache::new();
        let p = zlang::compile(&src(1)).unwrap();
        let req = RunRequest::new().with_level(crate::Level::C2F3);
        {
            let _g = faults::install(FaultPlan::new(3).with(FaultSite::FuseGrow, 1.0));
            let panicked = crate::supervisor::quiet_catch(|| cache.get_or_compile(&p, &req));
            assert!(panicked.unwrap_err().contains("grow-panic"));
        }
        let s = cache.stats();
        assert_eq!((s.misses, s.optimize_misses, s.insertions), (1, 1, 0));
        assert_eq!(cache.optimized.len(), 0);
        // Both claims were released on unwind: the next request neither
        // hangs nor finds a half-made entry, and runs the optimizer itself.
        let (_, hit) = cache.get_or_compile(&p, &req).unwrap();
        assert!(!hit);
        let s = cache.stats();
        assert_eq!((s.misses, s.optimize_misses, s.insertions), (2, 2, 1));
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
