//! The harness-owned time unit.
//!
//! One calibration unit (`cu`) is the geometric mean of three kernel
//! times: a 5-point f64 Jacobi stencil over `(n+2)^2` arrays, four
//! double sweeps, once at `n = 1024` (16 MB, memory bandwidth, about
//! 8 ms) and as the minimum of three runs at `n = 256` (1 MB, in-cache
//! arithmetic, about 0.3 ms), and the minimum of three 60 000-step
//! dependent-load walks through a 4 MB random cycle with a
//! data-dependent branch per step (memory latency and branches, about
//! 2 ms). The shared host this runs on switches between quiet and
//! contended modes for seconds at a time, and the modes slow
//! compute-bound, bandwidth-bound and latency-bound code by different
//! factors (measured: 1.4x, 1.2x, 1.25x); the mean of the three tracked
//! every workload better than any one kernel. Every latency the
//! benchmark reports is divided by the calibrations taken right before
//! and after it, so drift of the host cancels to first order.
//!
//! FROZEN: changing this file changes the meaning of every `_cu` number
//! in every committed baseline.

use std::hint::black_box;
use std::time::Instant;

const LARGE: usize = 1024;
const SMALL: usize = 256;
const SMALL_REPS: usize = 3;
const DOUBLE_SWEEPS: usize = 4;

const CHASE_SLOTS: usize = 1 << 20;
const CHASE_STEPS: usize = 60_000;
const CHASE_REPS: usize = 3;

/// One calibration unit on the host class the first baseline was taken
/// on (2-core Xeon @ 2.1 GHz), seconds. `setup_s` must carry the unit
/// `s`, so it is reported in seconds *of that host*: wall time in
/// calibration units times this constant.
pub const NOMINAL_UNIT_S: f64 = 0.0015;

/// Request time after which the next request is preceded by a fresh
/// calibration (about 15 ms), bounding calibration to ~15% of a run.
const CADENCE_S: f64 = 0.100;

struct Jacobi {
    n: usize,
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Jacobi {
    /// Arrays are allocated once per process so the kernel times
    /// arithmetic and memory traffic, not `malloc`.
    fn new(n: usize) -> Self {
        let w = n + 2;
        Jacobi {
            n,
            a: vec![0.0; w * w],
            b: vec![0.0; w * w],
        }
    }

    /// Runs the kernel once; returns its wall time in seconds.
    fn once(&mut self) -> f64 {
        let w = self.n + 2;
        for (i, v) in self.a.iter_mut().enumerate() {
            *v = (i % 17) as f64 * 0.25;
        }
        let started = Instant::now();
        for _ in 0..DOUBLE_SWEEPS {
            sweep(&self.a, &mut self.b, w);
            sweep(&self.b, &mut self.a, w);
        }
        let t = started.elapsed().as_secs_f64();
        black_box(self.a[w + 1]);
        t
    }
}

fn sweep(src: &[f64], dst: &mut [f64], w: usize) {
    for i in 1..w - 1 {
        let up = &src[(i - 1) * w..i * w];
        let mid = &src[i * w..(i + 1) * w];
        let down = &src[(i + 1) * w..(i + 2) * w];
        let out = &mut dst[i * w..(i + 1) * w];
        for j in 1..w - 1 {
            out[j] = 0.2 * (mid[j] + mid[j - 1] + mid[j + 1] + up[j] + down[j]);
        }
    }
}

/// A random single-cycle permutation walked by dependent loads.
struct Chase {
    next: Vec<u32>,
}

impl Chase {
    fn new() -> Self {
        let mut next: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        // Sattolo's shuffle over a fixed xorshift stream: one cycle
        // through every slot, the same on every run.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..CHASE_SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Chase { next }
    }

    fn once(&self) -> f64 {
        let started = Instant::now();
        let (mut at, mut acc) = (0u32, 0u64);
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
            if at & 1 == 1 {
                acc = acc.wrapping_mul(31).wrapping_add(at as u64);
            } else {
                acc ^= (at >> 3) as u64;
            }
        }
        let t = started.elapsed().as_secs_f64();
        black_box(acc);
        t
    }
}

/// One thread's private kernel arrays (the chase table is shared).
struct Lane {
    large: Jacobi,
    small: Jacobi,
}

impl Lane {
    /// Runs the three kernels; returns the geometric mean of their times.
    fn run(&mut self, chase: &Chase) -> f64 {
        let large = self.large.once();
        let small = (0..SMALL_REPS)
            .map(|_| self.small.once())
            .fold(f64::INFINITY, f64::min);
        let chase = (0..CHASE_REPS)
            .map(|_| chase.once())
            .fold(f64::INFINITY, f64::min);
        (large * small * chase).cbrt()
    }
}

/// The run's calibration log. A request is tagged with the index of the
/// calibration before it; its unit is the geometric mean of that
/// calibration and the next one.
///
/// A calibration runs the kernels on as many threads at once as the
/// workload's requests use and takes the slowest thread, as a parallel
/// request waits for its slowest tile or worker: on a shared host the
/// second core comes and goes, and a one-thread kernel cannot see that.
pub struct Clock {
    lanes: Vec<Lane>,
    chase: Chase,
    /// Every calibration of the run, seconds.
    pub samples: Vec<f64>,
    since_last_s: f64,
}

impl Clock {
    pub fn new(threads: usize) -> Self {
        Clock {
            lanes: (0..threads.max(1))
                .map(|_| Lane {
                    large: Jacobi::new(LARGE),
                    small: Jacobi::new(SMALL),
                })
                .collect(),
            chase: Chase::new(),
            samples: Vec::new(),
            since_last_s: 0.0,
        }
    }

    /// Takes a calibration now.
    pub fn calibrate(&mut self) {
        let chase = &self.chase;
        let (first, rest) = self.lanes.split_first_mut().expect("at least one lane");
        let slowest = std::thread::scope(|scope| {
            let helpers: Vec<_> = rest
                .iter_mut()
                .map(|lane| scope.spawn(move || lane.run(chase)))
                .collect();
            let own = first.run(chase);
            helpers
                .into_iter()
                .map(|h| h.join().expect("calibration thread panicked"))
                .fold(own, f64::max)
        });
        self.samples.push(slowest);
        self.since_last_s = 0.0;
    }

    /// Index of the latest calibration, taking a fresh one first if none
    /// exists yet or [`CADENCE_S`] of request time has passed.
    pub fn before_request(&mut self) -> usize {
        if self.samples.is_empty() || self.since_last_s >= CADENCE_S {
            self.calibrate();
        }
        self.samples.len() - 1
    }

    pub fn after_request(&mut self, seconds: f64) {
        self.since_last_s += seconds;
    }

    /// The unit of a request tagged `k`. The log must have been closed
    /// with a final [`Clock::calibrate`].
    pub fn unit(&self, k: usize) -> f64 {
        (self.samples[k] * self.samples[k + 1]).sqrt()
    }
}
