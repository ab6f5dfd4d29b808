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
//! * per-tile counters return as [`TileStats`] keyed by tile index and
//!   merge in that order ([`RunOutcome::merge`](crate::RunOutcome::merge));
//!   errors resolve to the lowest-indexed failing tile.
//!
//! Reduction nests never reach this module: IEEE-754 addition is not
//! associative, so any split of a `+<<` fold would change result bits. The
//! engines contract bit-identity across thread counts, and that contract
//! wins — reductions stay sequential on the coordinator.

use crate::bytecode::{Code, Op, ParInfo, MAX_RANK};
use crate::exec::TileStats;
use crate::interp::{ExecError, NoopObserver, Observer, RunStats};
use crate::simd::{self, ElemMem, LaneScratch};
use crate::vm::{body_op, book_lane_run, VmArray};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::Instant;

/// A persistent pool of `threads - 1` workers plus the coordinating
/// thread. Workers park on a condvar between batches; submitting a batch
/// bumps a generation counter and wakes them. Work *within* a batch is
/// stolen tile-by-tile from a shared atomic cursor, so an uneven tile
/// (or a descheduled worker) never idles the rest of the pool.
pub(crate) struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

struct PoolShared {
    slot: Mutex<JobSlot>,
    cv: Condvar,
}

#[derive(Default)]
struct JobSlot {
    /// Bumped once per published batch; workers compare against the last
    /// generation they saw, so a worker that slept through a whole batch
    /// simply skips it.
    gen: u64,
    batch: Option<Arc<Batch>>,
    shutdown: bool,
}

impl Pool {
    pub(crate) fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(PoolShared {
            slot: Mutex::new(JobSlot::default()),
            cv: Condvar::new(),
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
        }
    }

    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    fn submit(&self, batch: &Arc<Batch>) {
        if self.workers.is_empty() {
            return; // the coordinator runs every tile itself
        }
        let mut slot = self.shared.slot.lock().unwrap();
        slot.gen += 1;
        slot.batch = Some(Arc::clone(batch));
        drop(slot);
        self.shared.cv.notify_all();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.shutdown = true;
        }
        self.shared.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker(sh: Arc<PoolShared>) {
    let mut seen = 0u64;
    loop {
        let batch = {
            let mut slot = sh.slot.lock().unwrap();
            loop {
                if slot.shutdown {
                    return;
                }
                if slot.gen != seen {
                    seen = slot.gen;
                    break slot
                        .batch
                        .clone()
                        .expect("published generation has a batch");
                }
                slot = sh.cv.wait(slot).unwrap();
            }
        };
        batch.run_tiles();
    }
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

/// One published fan-out: the shared program, the frozen pre-ladder run
/// state, and the tile work list.
struct Batch {
    code: Arc<Code>,
    info: ParInfo,
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
    state: Mutex<BatchState>,
    done_cv: Condvar,
}

struct BatchState {
    slots: Vec<Option<Result<TileRun, ExecError>>>,
    done: usize,
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
// `done == tiles.len()` before it returns (and workers touch no view after
// their last tile). All remaining fields are either immutable after
// publication or synchronized (`Mutex`, atomics).
unsafe impl Send for Batch {}
// SAFETY: as for `Send` above — verifier phase 1 plus `par_dim` for
// race-freedom, `run_ladder`'s completion wait for pointer validity.
unsafe impl Sync for Batch {}

impl Batch {
    fn run_tiles(&self) {
        // One lane file per worker per batch, reused across its tiles.
        let mut lane_scratch = LaneScratch::default();
        loop {
            let t = self.next.fetch_add(1, Ordering::Relaxed);
            if t >= self.tiles.len() {
                return;
            }
            let r = run_tile(self, t, &mut lane_scratch);
            let mut st = self.state.lock().unwrap();
            st.slots[t] = Some(r);
            st.done += 1;
            if st.done == self.tiles.len() {
                self.done_cv.notify_all();
            }
        }
    }
}

/// Splits the partitioned dimension's `extent` iterates into at most
/// `threads * 4` contiguous tiles (never smaller than one iterate). The
/// 4x over-decomposition lets the stealing cursor rebalance when tiles
/// run unevenly; the decomposition itself depends only on static bounds
/// and the configured thread count, never on scheduling.
fn make_tiles(info: ParInfo, threads: usize) -> Vec<(i64, i64)> {
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

/// Executes one marked ladder as parallel tiles and waits for all of them.
///
/// Appends each tile's counters to `out` in tile order and returns the
/// sequential run's post-ladder index vector. On failure returns the
/// error of the lowest-indexed failing tile (which, when the partitioned
/// dimension is outermost, is also the first error the sequential run
/// would have hit).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_ladder(
    pool: &Pool,
    code: &Arc<Code>,
    info: ParInfo,
    frame: &[f64],
    idx: &[i64; MAX_RANK],
    arrays: &mut [Option<VmArray>],
    deadline: Option<Instant>,
    batch_id: u32,
    lanes: usize,
    out: &mut Vec<TileStats>,
) -> Result<[i64; MAX_RANK], ExecError> {
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
    let batch = Arc::new(Batch {
        code: Arc::clone(code),
        info,
        tiles,
        frame: frame.to_vec(),
        idx: *idx,
        views,
        deadline,
        batch_id,
        lanes,
        next: AtomicUsize::new(0),
        state: Mutex::new(BatchState {
            slots: (0..n).map(|_| None).collect(),
            done: 0,
        }),
        done_cv: Condvar::new(),
    });
    pool.submit(&batch);
    batch.run_tiles(); // the coordinator is a worker too
    let mut st = batch.state.lock().unwrap();
    while st.done < n {
        st = batch.done_cv.wait(st).unwrap();
    }
    let mut final_idx = *idx;
    for slot in st.slots.iter_mut() {
        match slot.take().expect("completed batch has every slot filled") {
            Ok(run) => {
                final_idx = run.final_idx;
                out.push(run.stats);
            }
            Err(e) => return Err(e),
        }
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
/// trap.
fn run_tile(b: &Batch, ti: usize, lane_scratch: &mut LaneScratch) -> Result<TileRun, ExecError> {
    let code = &*b.code;
    let ops = &code.ops[..];
    let pdim = b.info.dim as usize;
    let (t_start, t_stop) = b.tiles[ti];
    let mut regs = b.frame.clone();
    let mut idx = b.idx;
    let mut pc = b.info.entry as usize;
    let exit = b.info.exit as usize;
    let mut mem = TileMem {
        code,
        views: &b.views,
    };
    let mut n = RunStats::default();
    let mut ops_done = 0u64;
    while pc != exit {
        let op = ops[pc];
        pc += 1;
        ops_done += 1;
        if ops_done & 0x1FFF == 0 {
            if let Some(d) = b.deadline {
                if Instant::now() >= d {
                    return Err(ExecError::deadline());
                }
            }
        }
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
                    pc = head as usize;
                }
            }
            Op::SimdBegin { simd } => {
                // The simd × tiling composition: when the vectorized loop
                // is the partitioned dimension itself (1-D ladders), the
                // lane run covers this tile's sub-range; for inner loops
                // of a 2-D ladder it covers the full inner range at the
                // tile's fixed outer index.
                if b.lanes >= 2 {
                    let info = &code.simds[simd as usize];
                    let (s_start, s_stop) = if info.dim as usize == pdim {
                        (t_start, t_stop)
                    } else {
                        (info.start, info.stop)
                    };
                    let run = simd::run_lanes(
                        code,
                        info,
                        b.lanes,
                        s_start,
                        s_stop,
                        &mut regs,
                        &idx,
                        &mut mem,
                        lane_scratch,
                        b.deadline,
                    )?;
                    if let Some(run) = run {
                        ops_done += run.ops;
                        book_lane_run(&run, &mut n);
                        idx[info.dim as usize] = s_stop;
                        pc = info.exit as usize;
                    }
                }
            }
            _ => {
                return Err(ExecError::trap(format!(
                    "{op:?} inside a parallel ladder (malformed bytecode)"
                )));
            }
        }
    }
    Ok(TileRun {
        stats: TileStats {
            batch: b.batch_id,
            tile: ti as u32,
            loads: n.loads,
            stores: n.stores,
            flops: n.flops,
            points: n.points,
            ops: ops_done,
        },
        final_idx: idx,
    })
}

/// [`ElemMem`] over a batch's raw array views. Tiles run only under
/// passive observers (the VM's fan-out gate), so element accesses report
/// no addresses; each is length-checked against the view, which keeps the
/// raw-pointer path sound even for hand-built bytecode, and the lane
/// executor's whole-run span check covers lane runs.
struct TileMem<'a> {
    code: &'a Code,
    views: &'a [ArrayView],
}

impl ElemMem for TileMem<'_> {
    fn resolve(&mut self, ai: usize) -> Result<(*mut f64, usize), ExecError> {
        let v = &self.views[ai];
        Ok((v.ptr, v.len))
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
        }
    }

    #[test]
    fn tiles_cover_the_range_exactly() {
        for threads in [1, 2, 3, 4, 7] {
            for extent in [1i64, 2, 5, 16, 257] {
                let up = make_tiles(info(1, 1, extent), threads);
                assert!(up.len() <= (threads * 4).max(1));
                let mut at = 1i64;
                for &(start, stop) in &up {
                    assert_eq!(start, at, "threads={threads} extent={extent}");
                    assert!(stop > start);
                    at = stop;
                }
                assert_eq!(at, 1 + extent);

                let down = make_tiles(info(extent, -1, extent), threads);
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

    #[test]
    fn tile_decomposition_is_deterministic() {
        let a = make_tiles(info(0, 1, 100), 4);
        let b = make_tiles(info(0, 1, 100), 4);
        assert_eq!(a, b);
        // and balanced: sizes differ by at most one iterate
        let sizes: Vec<i64> = a.iter().map(|&(s, e)| e - s).collect();
        let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        assert!(max - min <= 1);
    }
}
