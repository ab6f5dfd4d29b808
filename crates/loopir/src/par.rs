//! Parallel tiled execution of partitionable loop ladders.
//!
//! The bytecode compiler marks a nest's ladder with
//! [`Op::ParBegin`](crate::bytecode::Op) when it can prove the iteration
//! points independent along one dimension (see
//! [`ParInfo`](crate::bytecode::ParInfo) for the exact obligations). When
//! the [`Vm`](crate::Vm) runs verified bytecode with
//! [`Vm::set_threads`](crate::Vm) enabled
//! and a passive observer, [`run_ladder`] splits that dimension's range
//! into contiguous tiles and executes each tile as an independent task on
//! a persistent `std::thread` pool.
//!
//! Three things keep the fan-out cheap next to the ladders it speeds up:
//!
//! * *Pools are process-wide.* A `Vm` borrows a pool of its width from a
//!   spare list ([`Lease`]) and hands it back when it drops, so a request
//!   pays a mutex and a scan, not a spawn and a join per thread. A borrow
//!   is exclusive: the pool's one job slot serves one `Vm`, and
//!   concurrent `Vm`s (`zlc serve`'s workers) each hold their own. The
//!   list never holds more pools of a width than were ever borrowed at
//!   once, and their idle workers park after [`SPIN`] like any idle
//!   worker, so nothing polls while no ladder is published.
//! * *Threads keep their lane files.* Each worker, and the pool for its
//!   coordinator, keeps its [`LaneScratch`] from one batch to the next,
//!   as the pool keeps its reducing ladders' term logs while one `Vm`
//!   holds it; the borrowing `Vm` runs its own lane runs in the
//!   coordinator's.
//! * *Small ladders stand down.* A ladder whose static work
//!   ([`ParInfo::work`](crate::bytecode::ParInfo)) is below [`GRAIN`]
//!   runs on the coordinator as if no pool were there; its `ParBegin`
//!   and its proof stay in the stream. The decision is the compiler's,
//!   the same at every thread count, and `--print bytecode` shows it.
//!
//! Everything about the fan-out is deterministic except which worker runs
//! which tile — and nothing observable depends on that:
//!
//! * the tile decomposition is a pure function of the static bounds and
//!   the configured thread count;
//! * each tile executes the *same shared bytecode* over its sub-range
//!   (only the partitioned dimension's `SetIdx` start and `IdxStep` stop
//!   are overridden), with a private register frame and index vector;
//! * writes land in disjoint slices of the shared arrays (the compiler's
//!   proof), so the array contents equal the sequential run's bit for bit;
//! * per-tile counters return as [`TileStats`] keyed by tile index, in
//!   that order; they are `u64` sums, so
//!   [`RunOutcome::merge`](crate::RunOutcome::merge) totals them the same
//!   in any order;
//! * errors resolve to the lowest-indexed failing tile.
//!
//! Reductions tile too, without giving up a bit. IEEE-754 addition is not
//! associative, so a tile must not fold its own partial accumulator: the
//! combine would change result bits. A reducing ladder splits only along
//! its outermost loop, so tile order is position order, and each tile
//! appends the terms of its `Reduce`s to a [`TermLog`] instead of folding
//! them. Whichever thread finishes a tile then folds every finished tile
//! from the first unfolded one on, in tile order, with the lane
//! executor's own fold ([`simd::fold`]): the accumulators take exactly the
//! sequential run's sequence of values, the fold stays off the tail of
//! the batch, and only the tiles running or waiting for an earlier one
//! hold a log. [`run_ladder`] writes the accumulators into the
//! coordinator's frame.
//!
//! A tile that panics (only hand-built bytecode can make one) is caught
//! where it ran and becomes a trap naming the tile. It counts as done like
//! any other, so the coordinator always waits for the whole batch before
//! it returns, and the thread lives on for the pool's next borrower.

use crate::bytecode::{Code, Op, ParInfo, MAX_RANK};
use crate::exec::{Deadline, TileStats};
use crate::interp::{ExecError, NoopObserver, Observer, RunStats};
use crate::simd::{self, ElemMem, LaneScratch, TermLog};
use crate::vm::{body_op, VmArray};
use std::any::Any;
use std::ops::{Deref, DerefMut};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// The least static work ([`ParInfo::work`]) for which a ladder fans out
/// into tiles; a smaller ladder runs on the coordinator. Measured at two
/// threads on a 2-core Xeon guest over every ladder of SIMPLE and
/// Tomcatv at n = 32-128 and SP at n = 8-16 (the table is in
/// EXPERIMENTS.md): the median ladder under 10k loses 9 us to the fan-out, the median
/// ladder loses up to 65k and gains above it, and every ladder above 85k
/// gains. Every ladder of the `exec_tiles` keys that gains from tiles has
/// 105k or more.
pub(crate) const GRAIN: u64 = 65_536;

/// The body ops a reducing ladder's fold costs per accumulator and
/// iteration point ([`ParInfo::work_of`]). The sequential run folds each
/// term as its strip ends; tiles log every term and one thread at a time
/// folds the logs, so a tiled ladder pays per term a store, a load and a
/// step of the serial chain - about 3 ops, a count, not a measurement.
/// The value 4 is tuned on the three `exec_tiles` keys (SIMPLE, Tomcatv
/// n = 256 and SP n = 24 at `c2+f3`): at 4, SIMPLE's last sum and SP's
/// two sums, which lost 30-71 us a run when they tiled, stand down, and
/// Tomcatv's relaxation nest and SIMPLE's two-way sum, which gain, keep
/// tiling. Tomcatv's small residual sum still tiles and loses 7-9 us.
pub(crate) const FOLD_WEIGHT: u64 = 4;

/// How long an idle thread of the pool watches for its next event before
/// it parks. A parked thread leaves its core idle, and waking an idle
/// core costs the waker a system call and the sleeper a scheduling
/// latency the host decides (on the 2-core guest 15 us and 50-80 us,
/// several times that when the host is busy) - per ladder, on the
/// blocking path, of ladders that run 30-400 us. Consecutive ladders of
/// one nest sequence are 1-150 us apart (an array allocation at most),
/// so a worker that watches this long meets the next ladder awake and
/// parks only across the program's sequential stretches; the coordinator
/// waits the same way for a batch's last tile, an eighth of a ladder.
const SPIN: Duration = Duration::from_micros(200);

/// Blocks until `ready`: polls it for at most [`SPIN`], yielding between
/// rounds of polls so that a pool wider than the machine gives its cores
/// to the threads that hold tiles, then parks. Whoever makes `ready`
/// true unparks this thread afterwards; an unpark that comes first makes
/// the next `park` return at once, so no wake-up is lost, and a stale one
/// only costs a re-check.
fn wait_until(ready: impl Fn() -> bool) {
    let since = Instant::now();
    while since.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        thread::yield_now();
    }
    while !ready() {
        thread::park();
    }
}

/// A persistent pool of `threads - 1` workers plus the coordinating
/// thread, borrowed whole by one `Vm` at a time ([`Lease`]). Submitting
/// a batch bumps an epoch the idle workers watch
/// ([`wait_until`]: briefly awake, then parked). Work *within* a batch is
/// stolen tile-by-tile from a shared atomic cursor, so an uneven tile
/// (or a descheduled worker) never idles the rest of the pool.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
    /// Term logs the last reducing ladder left, emptied, for the next.
    logs: Vec<TermLog>,
    /// The coordinator's lane file, kept from one batch to the next as
    /// each worker keeps its own; the borrowing `Vm`'s own lane runs use
    /// it too.
    pub(crate) scratch: LaneScratch,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    /// Counts what the slot was given (a batch, the shutdown flag), and
    /// changes only under its lock; idle workers read it without the lock
    /// to learn that there is something new. (Release on the bump,
    /// Acquire on those reads; the slot's contents travel through the
    /// mutex.) A worker that slept through a whole batch simply skips it:
    /// `run_ladder` empties the slot, without a bump, once its batch is
    /// over.
    epoch: AtomicU64,
}

#[derive(Default)]
struct JobSlot {
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot::default()),
            epoch: AtomicU64::new(0),
        });
        let workers = (1..threads)
            .map(|_| {
                let sh = Arc::clone(&shared);
                thread::spawn(move || worker(sh))
            })
            .collect();
        Pool {
            shared,
            workers,
            threads,
            logs: Vec::new(),
            scratch: LaneScratch::default(),
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Changes the job slot and tells every worker.
    fn publish(&self, change: impl FnOnce(&mut JobSlot)) {
        {
            // Every update leaves the slot valid at every step, so a
            // poisoned lock is as good as any - and `Drop` must not panic.
            let mut slot = self.shared.slot.lock().unwrap_or_else(|e| e.into_inner());
            change(&mut slot);
            self.shared.epoch.fetch_add(1, Ordering::Release);
        }
        for w in &self.workers {
            w.thread().unpark();
        }
    }

    fn submit(&self, batch: &Arc<Batch>) {
        if self.workers.is_empty() {
            return; // the coordinator runs every tile itself
        }
        self.publish(|slot| slot.batch = Some(Arc::clone(batch)));
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.publish(|slot| slot.shutdown = true);
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(sh: Arc<PoolShared>) {
    let mut seen = 0u64;
    let mut scratch = LaneScratch::default();
    loop {
        wait_until(|| sh.epoch.load(Ordering::Acquire) != seen);
        let batch = {
            let slot = sh.slot.lock().unwrap_or_else(|e| e.into_inner());
            seen = sh.epoch.load(Ordering::Acquire);
            if slot.shutdown {
                return;
            }
            slot.batch.clone()
        };
        // No batch: the one published was over before this worker looked.
        if let Some(batch) = batch {
            batch.run_tiles(&mut scratch);
        }
    }
}

/// Idle pools, each waiting for the next [`Lease::take`] of its width.
/// A pool joins the list only when its lease drops, so the list never
/// holds more pools of a width than were ever borrowed at once. Its
/// workers live as long as the process; they are parked whenever no
/// `Vm` holds their pool. Every update is one push or one removal, so a
/// poisoned lock is as good as any.
static SPARES: Mutex<Vec<Pool>> = Mutex::new(Vec::new());

/// A [`Pool`] borrowed from the process's spare list for as long as one
/// `Vm` lives: the borrower has its job slot to itself, and the pool goes
/// back to the list, its workers idle, when the lease drops.
pub(crate) struct Lease(Option<Pool>);

impl Lease {
    /// A spare pool of `threads` threads, or a new one when none is idle.
    pub(crate) fn take(threads: usize) -> Lease {
        let threads = threads.max(1);
        let spare = {
            let mut spares = SPARES.lock().unwrap_or_else(PoisonError::into_inner);
            let at = spares.iter().position(|p| p.threads == threads);
            at.map(|i| spares.swap_remove(i))
        };
        Lease(Some(spare.unwrap_or_else(|| Pool::new(threads))))
    }
}

impl Deref for Lease {
    type Target = Pool;
    fn deref(&self) -> &Pool {
        self.0
            .as_ref()
            .expect("a lease holds its pool until it drops")
    }
}

impl DerefMut for Lease {
    fn deref_mut(&mut self) -> &mut Pool {
        self.0
            .as_mut()
            .expect("a lease holds its pool until it drops")
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        if let Some(mut pool) = self.0.take() {
            // A term log can hold hundreds of KB of one program's terms
            // (Tomcatv n=256: 130 KB a log), which the next borrower may
            // never need; the lane files stay.
            pool.logs = Vec::new();
            SPARES
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(pool);
        }
    }
}

/// How many idle pools of `threads` threads the process keeps.
pub(crate) fn spares(threads: usize) -> usize {
    let spares = SPARES.lock().unwrap_or_else(PoisonError::into_inner);
    spares.iter().filter(|p| p.threads == threads).count()
}

/// A borrowed view of one allocated array's buffer, shared by every tile
/// of a batch through raw pointers.
struct ArrayView {
    ptr: *mut f64,
    len: usize,
}

struct TileRun {
    stats: TileStats,
    /// The index vector as the tile's ladder left it; the last tile's copy
    /// equals the sequential run's post-ladder state.
    final_idx: [i64; MAX_RANK],
}

/// The in-order fold of a reducing ladder's tiles (see the module doc).
struct Commit {
    /// The first tile not folded yet.
    next: usize,
    /// The accumulators, in the order of the ladder's `folds`, as the
    /// tiles before `next` leave them.
    accs: Vec<f64>,
    /// Per tile, its log from when it finishes until it is folded.
    waiting: Vec<Option<TermLog>>,
    /// Folded logs, emptied, for the next tiles to fill.
    spare: Vec<TermLog>,
}

/// One published fan-out: the shared program, the frozen pre-ladder run
/// state, and the tile work list.
struct Batch {
    code: Arc<Code>,
    /// The ladder, an index into `code.pars`.
    par: usize,
    /// Per tile, the partitioned dimension's `(start, stop)` override, in
    /// iteration order (`stop` is one `step` past the tile's last
    /// iterate), concatenating to exactly the sequential range.
    tiles: Vec<(i64, i64)>,
    /// Snapshot of the register frame at the `ParBegin`.
    frame: Vec<f64>,
    /// Snapshot of the index vector at the `ParBegin`.
    idx: [i64; MAX_RANK],
    views: Vec<ArrayView>,
    deadline: Option<Instant>,
    batch_id: u32,
    /// Lane width for `Op::SimdBegin` loops inside the ladder (`< 2`
    /// keeps tiles scalar).
    lanes: usize,
    /// The work-stealing cursor: each claim takes the next unstarted tile.
    next: AtomicUsize,
    slots: Mutex<Vec<Option<Result<TileRun, ExecError>>>>,
    /// The fold of the ladder's reductions; untouched when it has none.
    commit: Mutex<Commit>,
    /// Tiles finished. A tile's bump is a Release after its last array
    /// access and its slot write, and every bump is a read-modify-write,
    /// so the coordinator's Acquire load that reads `tiles.len()` has all
    /// of them before it.
    done: AtomicUsize,
    /// Who waits for `done` to reach `tiles.len()`.
    coordinator: thread::Thread,
}

// SAFETY: `Batch` is shared across threads only through `run_tiles`, whose
// element accesses go through the raw `ArrayView` pointers. The compiler's
// `ParInfo` obligations make those accesses race-free: every written array
// varies along the partitioned dimension and is touched at a single
// constant offset along it, so each tile reads and writes only its own
// disjoint slice of each written array; arrays that are only read are
// shared read-only. A ladder fans out only on bytecode `Vm::verify`
// accepted (verifier phase 1 checks the ladder's shape; the disjointness
// itself is the bytecode compiler's `par_dim` proof). The pointers stay
// valid for the whole fan-out by a runtime check: the coordinator borrows
// the arrays mutably for the duration of `run_ladder`, which waits on
// `done == tiles.len()` before it returns (a tile bumps `done` after its
// last access, Release against the coordinator's Acquire, even when it
// panicked, since `run_tiles` catches the panic; and workers touch no
// view after their last tile). All remaining fields are either
// immutable after publication or synchronized (`Mutex`, atomics).
unsafe impl Send for Batch {}
// SAFETY: as for `Send` above — verifier phase 1 plus `par_dim` for
// race-freedom, `run_ladder`'s completion wait for pointer validity.
unsafe impl Sync for Batch {}

impl Batch {
    fn info(&self) -> &ParInfo {
        &self.code.pars[self.par]
    }

    fn commit(&self) -> std::sync::MutexGuard<'_, Commit> {
        self.commit
            .lock()
            .expect("no thread panics while it holds the fold")
    }

    /// Claims tiles until none is left. A tile that panics counts as
    /// done like any other, with a trap naming it, so the batch always
    /// completes and the thread lives on for the next.
    fn run_tiles(&self, scratch: &mut LaneScratch) {
        let folds = &self.info().folds;
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.tiles.len() {
                return;
            }
            let mut log = (!folds.is_empty()).then(|| {
                let mut log = self.commit().spare.pop().unwrap_or_default();
                log.reset(folds);
                log
            });
            let r = panic::catch_unwind(AssertUnwindSafe(|| {
                run_tile(self, t, scratch, log.as_mut())
            }))
            .unwrap_or_else(|payload| Err(panicked(t, &*payload)));
            if let (Ok(_), Some(log)) = (&r, log) {
                self.fold(t, log);
            }
            self.slots.lock().unwrap()[t] = Some(r);
            if self.done.fetch_add(1, Ordering::Release) + 1 == self.tiles.len() {
                self.coordinator.unpark();
            }
        }
    }

    /// Hands in finished tile `t`'s log and folds every finished tile
    /// from the first unfolded one on, in tile order. Runs before the
    /// tile counts as done, so a batch whose tiles all succeeded is
    /// folded whole once `done` reaches `tiles.len()`.
    fn fold(&self, t: usize, log: TermLog) {
        let mut c = self.commit();
        c.waiting[t] = Some(log);
        let Commit {
            next,
            accs,
            waiting,
            spare,
        } = &mut *c;
        while let Some(log) = waiting.get_mut(*next).and_then(Option::take) {
            for ((a, &(_, op)), terms) in accs.iter_mut().zip(&self.info().folds).zip(log.terms()) {
                *a = simd::fold(op, *a, terms);
            }
            spare.push(log);
            *next += 1;
        }
    }
}

/// Splits the partitioned dimension's `extent` iterates into at most
/// `threads * 4` contiguous tiles (never smaller than one iterate). The
/// 4x over-decomposition lets the stealing cursor rebalance when tiles
/// run unevenly; the decomposition itself depends only on static bounds
/// and the configured thread count, never on scheduling.
fn make_tiles(info: &ParInfo, threads: usize) -> Vec<(i64, i64)> {
    let extent = info.extent as usize;
    let want = (threads * 4).clamp(1, extent);
    let base = extent / want;
    let rem = extent % want;
    let mut tiles = Vec::with_capacity(want);
    let mut off = 0i64;
    for k in 0..want {
        let size = (base + usize::from(k < rem)) as i64;
        let start = info.start + info.step * off;
        tiles.push((start, start + info.step * size));
        off += size;
    }
    tiles
}

/// Executes one marked ladder, `code.pars[par]`, as parallel tiles and
/// waits for all of them.
///
/// Appends each tile's counters to `out` in tile order, leaves the
/// ladder's accumulators in `frame` as the sequential run would, and
/// returns the sequential run's post-ladder index vector. On failure
/// returns the error of the lowest-indexed failing tile (which, when the
/// partitioned dimension is outermost, is also the first error the
/// sequential run would have hit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ladder(
    pool: &mut Pool,
    code: &Arc<Code>,
    par: usize,
    frame: &mut [f64],
    idx: &[i64; MAX_RANK],
    arrays: &mut [Option<VmArray>],
    deadline: Option<Instant>,
    batch_id: u32,
    lanes: usize,
    out: &mut Vec<TileStats>,
) -> Result<[i64; MAX_RANK], ExecError> {
    let info = &code.pars[par];
    let tiles = make_tiles(info, pool.threads());
    let n = tiles.len();
    let views = arrays
        .iter_mut()
        .map(|a| match a {
            Some(arr) => ArrayView {
                ptr: arr.data.as_mut_ptr(),
                len: arr.data.len(),
            },
            None => ArrayView {
                ptr: std::ptr::NonNull::dangling().as_ptr(),
                len: 0,
            },
        })
        .collect();
    let commit = Commit {
        next: 0,
        accs: info.folds.iter().map(|&(r, _)| frame[r as usize]).collect(),
        waiting: (0..n).map(|_| None).collect(),
        spare: std::mem::take(&mut pool.logs),
    };
    let batch = Arc::new(Batch {
        code: Arc::clone(code),
        par,
        tiles,
        frame: frame.to_vec(),
        idx: *idx,
        views,
        deadline,
        batch_id,
        lanes,
        next: AtomicUsize::new(0),
        slots: Mutex::new((0..n).map(|_| None).collect()),
        commit: Mutex::new(commit),
        done: AtomicUsize::new(0),
        coordinator: thread::current(),
    });
    pool.submit(&batch);
    batch.run_tiles(&mut pool.scratch); // the coordinator is a worker too
    wait_until(|| batch.done.load(Ordering::Acquire) == n);
    // The batch is over: the idle pool keeps no pointer into these arrays.
    // A worker that has yet to look finds the slot empty; no one needs
    // telling, so the epoch stays.
    pool.shared
        .slot
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .batch = None;
    let mut commit = batch.commit();
    pool.logs = std::mem::take(&mut commit.spare);
    let mut slots = batch.slots.lock().unwrap();
    let mut final_idx = *idx;
    for slot in slots.iter_mut() {
        match slot.take().expect("completed batch has every slot filled") {
            Ok(run) => {
                final_idx = run.final_idx;
                out.push(run.stats);
            }
            Err(e) => return Err(e),
        }
    }
    for (&(r, _), &a) in info.folds.iter().zip(&commit.accs) {
        frame[r as usize] = a;
    }
    Ok(final_idx)
}

/// The tile task: re-executes the shared ladder bytecode `[entry, exit)`
/// over one tile's sub-range, with a private frame and index vector.
///
/// A tile is the same loop body the sequential VM runs ([`body_op`]) over
/// a sub-range and a raw view ([`TileMem`]): only the partitioned
/// dimension's loop bounds and the lane hand-off are tile-specific. The
/// compiler puts allocs, counters, and nest bookkeeping before the
/// `ParBegin`, so anything else inside a ladder is a malformed-bytecode
/// trap. A reducing ladder's tile appends its terms to `log` in place of
/// folding them ([`TermLog`]).
fn run_tile(
    b: &Batch,
    ti: usize,
    lane_scratch: &mut LaneScratch,
    mut log: Option<&mut TermLog>,
) -> Result<TileRun, ExecError> {
    let code = &*b.code;
    let ops = &code.ops[..];
    let info = b.info();
    let pdim = info.dim as usize;
    let (t_start, t_stop) = b.tiles[ti];
    let mut regs = b.frame.clone();
    let mut idx = b.idx;
    let mut pc = info.entry as usize;
    let exit = info.exit as usize;
    let mut mem = TileMem {
        code,
        views: &b.views,
    };
    let mut n = RunStats::default();
    let mut deadline = Deadline::start(b.deadline)?;
    while pc != exit {
        let op = ops[pc];
        pc += 1;
        if body_op(
            op,
            code,
            &mut regs,
            &idx,
            &mut mem,
            &mut n,
            &mut NoopObserver,
        )? {
            continue;
        }
        match op {
            Op::Reduce { dst, src, .. } => match log.as_deref_mut() {
                Some(log) => log.push(dst, std::slice::from_ref(&regs[src as usize]))?,
                None => return Err(malformed(op)),
            },
            Op::SetIdx { d, v } => {
                idx[d as usize] = if d as usize == pdim { t_start } else { v };
            }
            Op::IdxStep {
                d,
                step,
                stop,
                head,
            } => {
                let stop = if d as usize == pdim { t_stop } else { stop };
                let v = idx[d as usize] + step;
                idx[d as usize] = v;
                if v != stop {
                    deadline.tick(1)?;
                    pc = head as usize;
                }
            }
            Op::SimdBegin { simd } => {
                // The simd × tiling composition: the lane run honours the
                // tile's range of the partitioned dimension. When that is
                // the vectorized loop itself (1-D ladders), the run covers
                // this tile's piece of it; when it is the loop around it,
                // the run spans the tile's rows and ends at the tile's
                // stop; further out, the run is the sequential VM's.
                if b.lanes >= 2 {
                    let run = simd::run_lanes(
                        code,
                        &code.simds[simd as usize],
                        b.lanes,
                        Some((pdim, t_start, t_stop)),
                        &mut regs,
                        &idx,
                        &mut mem,
                        lane_scratch,
                        &mut deadline,
                        log.as_deref_mut(),
                        &mut NoopObserver,
                    )?;
                    if let Some(run) = run {
                        n += run.stats;
                        idx = run.idx;
                        pc = run.resume as usize;
                    }
                }
            }
            _ => return Err(malformed(op)),
        }
    }
    Ok(TileRun {
        stats: TileStats {
            batch: b.batch_id,
            tile: ti as u32,
            stats: n,
        },
        final_idx: idx,
    })
}

#[cold]
fn panicked(tile: usize, payload: &(dyn Any + Send)) -> ExecError {
    let what = (payload.downcast_ref::<&str>().copied())
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    ExecError::trap(format!("parallel tile {tile} panicked: {what}"))
}

#[cold]
fn malformed(op: Op) -> ExecError {
    ExecError::trap(format!(
        "{op:?} inside a parallel ladder (malformed bytecode)"
    ))
}

/// [`ElemMem`] over a batch's raw array views. Tiles run only under
/// passive observers (the VM's fan-out gate, the one reader of
/// [`Observer::wants_addresses`]), so element accesses report no
/// addresses and a tile's lane runs report their strips to a
/// [`NoopObserver`]; each access is length-checked against the view,
/// which keeps the raw-pointer path sound even for hand-built bytecode,
/// and the lane executor's whole-run span check covers lane runs.
struct TileMem<'a> {
    code: &'a Code,
    views: &'a [ArrayView],
}

impl ElemMem for TileMem<'_> {
    fn resolve(&mut self, ai: usize) -> Result<(*mut f64, usize), ExecError> {
        let v = &self.views[ai];
        Ok((v.ptr, v.len))
    }

    /// Tiles report to no observer; a view does not know the address.
    fn base(&self, _ai: usize) -> u64 {
        0
    }

    #[inline(always)]
    fn load<O: Observer + ?Sized>(
        &self,
        ai: usize,
        flat: usize,
        _obs: &mut O,
    ) -> Result<f64, ExecError> {
        let v = &self.views[ai];
        if flat >= v.len {
            return Err(tile_oob(self.code, ai));
        }
        // SAFETY: runtime check — `flat < len` was just checked against
        // the view; concurrent tiles only write disjoint slices (see the
        // Send/Sync note on `Batch`), and a read of a written array stays
        // at the tile's own offset along the partitioned dimension.
        Ok(unsafe { *v.ptr.add(flat) })
    }

    #[inline(always)]
    fn store<O: Observer + ?Sized>(
        &mut self,
        ai: usize,
        flat: usize,
        val: f64,
        _obs: &mut O,
    ) -> Result<(), ExecError> {
        let v = &self.views[ai];
        if flat >= v.len {
            return Err(tile_oob(self.code, ai));
        }
        // SAFETY: runtime check — `flat < len` as for `load`; additionally
        // this tile is the only one whose index range maps onto this slice
        // of the array (`ParInfo`'s disjoint-write obligation).
        unsafe { *v.ptr.add(flat) = val };
        Ok(())
    }
}

#[cold]
fn tile_oob(code: &Code, ai: usize) -> ExecError {
    ExecError::trap(format!(
        "array `{}` accessed outside its allocation in a parallel tile \
         (malformed bytecode)",
        code.arrays[ai].name
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(start: i64, step: i64, extent: i64) -> ParInfo {
        ParInfo {
            dim: 0,
            start,
            step,
            extent,
            entry: 0,
            exit: 0,
            folds: Vec::new(),
            work: 0,
        }
    }

    #[test]
    fn tiles_cover_the_range_exactly() {
        for threads in [1, 2, 3, 4, 7] {
            for extent in [1i64, 2, 5, 16, 257] {
                let up = make_tiles(&info(1, 1, extent), threads);
                assert!(up.len() <= (threads * 4).max(1));
                let mut at = 1i64;
                for &(start, stop) in &up {
                    assert_eq!(start, at, "threads={threads} extent={extent}");
                    assert!(stop > start);
                    at = stop;
                }
                assert_eq!(at, 1 + extent);

                let down = make_tiles(&info(extent, -1, extent), threads);
                let mut at = extent;
                for &(start, stop) in &down {
                    assert_eq!(start, at);
                    assert!(stop < start);
                    at = stop;
                }
                assert_eq!(at, 0);
            }
        }
    }

    /// A one-dimensional ladder over `0..extent` whose body is `body`,
    /// over arrays `A` and `B` of `extent` elements each, with one
    /// access per array at the ladder's index.
    fn ladder_code(extent: i64, body: &[Op]) -> Arc<Code> {
        use crate::bytecode::{Access, ArrayInfo};
        let access = |arr| Access {
            arr,
            const_flat: 0,
            strides: [1, 0, 0, 0],
            rank: 1,
            check: None,
        };
        let mut ops = vec![Op::SetIdx { d: 0, v: 0 }];
        ops.extend_from_slice(body);
        ops.push(Op::IdxStep {
            d: 0,
            step: 1,
            stop: extent,
            head: 1,
        });
        let exit = ops.len() as u32;
        Arc::new(Code {
            ops,
            accesses: vec![access(0), access(1)],
            arrays: ["A", "B"]
                .map(|name| ArrayInfo {
                    name: name.into(),
                    elems: extent as u64,
                    bytes: 8 * extent as u64,
                })
                .into(),
            pars: vec![ParInfo {
                exit,
                work: u64::MAX,
                ..info(0, 1, extent)
            }],
            frame: 2,
            ..Code::default()
        })
    }

    /// What [`run_bounded`] hands back: the pool, the arrays, and the
    /// ladder's tiles or its error.
    type Ran = (
        Pool,
        Vec<Option<VmArray>>,
        Result<Vec<TileStats>, ExecError>,
    );

    /// Runs `code`'s one ladder on `pool` over `arrays`, on its own
    /// thread: the ladder's result, or `None` when it has not returned
    /// within ten seconds.
    fn run_bounded(
        mut pool: Pool,
        code: Arc<Code>,
        mut arrays: Vec<Option<VmArray>>,
    ) -> Option<Ran> {
        let (tx, rx) = std::sync::mpsc::channel();
        let ran = thread::spawn(move || {
            let mut frame = vec![0.0; code.frame as usize];
            let mut out = Vec::new();
            let r = run_ladder(
                &mut pool,
                &code,
                0,
                &mut frame,
                &[0; MAX_RANK],
                &mut arrays,
                None,
                0,
                1,
                &mut out,
            );
            let _ = tx.send((pool, arrays, r.map(|_| out)));
        });
        let got = rx.recv_timeout(Duration::from_secs(10)).ok();
        if got.is_some() {
            ran.join()
                .expect("the ladder's thread ends once it has sent");
        }
        got
    }

    /// A tile that panics is a trap naming a tile, on whichever thread it
    /// ran: the batch completes, `run_ladder` returns only once every
    /// tile is done, and the pool keeps all its workers for the next.
    #[test]
    fn a_panicking_tile_is_a_trap_and_the_pool_lives_on() {
        const N: i64 = 24;
        // `arrays` below holds `A` alone, so the batch has one view and
        // loading `B` indexes past it.
        let bad = ladder_code(N, &[Op::Load { dst: 0, acc: 1 }]);
        let arrays = || {
            vec![Some(VmArray {
                base: 4096,
                data: vec![0.0; N as usize],
            })]
        };
        let (pool, _, r) =
            run_bounded(Pool::new(3), bad, arrays()).expect("a panicking batch completes");
        let err = r.expect_err("a panicking tile fails the ladder");
        assert_eq!(err.kind, crate::ErrorKind::Trap, "{err}");
        assert!(err.message.contains("parallel tile"), "{err}");
        assert!(pool.workers.iter().all(|w| !w.is_finished()));

        // `A[i] = i`, as the sequential run leaves it.
        let good = ladder_code(
            N,
            &[
                Op::IdxF { dst: 0, d: 0 },
                Op::Store { acc: 0, src: 0 },
                Op::Tick { flops: 0 },
            ],
        );
        let (pool, arrays, r) = run_bounded(pool, good, arrays()).expect("a clean batch completes");
        let tiles = r.expect("a clean batch succeeds");
        assert_eq!(tiles.len(), 12);
        assert_eq!(tiles.iter().map(|t| t.stats.points).sum::<u64>(), N as u64);
        let want: Vec<u64> = (0..N).map(|i| (i as f64).to_bits()).collect();
        let got: Vec<u64> = arrays[0]
            .as_ref()
            .unwrap()
            .data
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(got, want);
        assert!(pool.workers.iter().all(|w| !w.is_finished()));
    }

    /// A lease hands its pool back when it drops, and the next lease of
    /// that width takes the same pool instead of spawning threads. (Width
    /// 5 is this test's alone among the crate's tests.)
    #[test]
    fn a_dropped_lease_is_the_next_leases_pool() {
        let first = Lease::take(5);
        let shared = Arc::as_ptr(&first.shared);
        let idle = spares(5);
        drop(first);
        assert_eq!(spares(5), idle + 1);
        let second = Lease::take(5);
        assert_eq!(Arc::as_ptr(&second.shared), shared);
        assert_eq!(second.threads(), 5);
        assert_eq!(spares(5), idle);
    }

    /// Neither assertion depends on the sleep: it only lets the workers
    /// reach `park`, so that the drop's join returns only if its unpark
    /// reaches them there too (and not just while they still spin).
    #[test]
    fn parked_workers_hear_the_shutdown() {
        let pool = Pool::new(3);
        assert_eq!(pool.threads(), 3);
        thread::sleep(10 * SPIN);
        drop(pool);
    }

    #[test]
    fn tile_decomposition_is_deterministic() {
        let a = make_tiles(&info(0, 1, 100), 4);
        let b = make_tiles(&info(0, 1, 100), 4);
        assert_eq!(a, b);
        // and balanced: sizes differ by at most one iterate
        let sizes: Vec<i64> = a.iter().map(|&(s, e)| e - s).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }
}
