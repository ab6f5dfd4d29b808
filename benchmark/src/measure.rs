//! The untraced, end-to-end measurement: seeded rounds of composite
//! requests, each sample divided by the calibrations around it.

use crate::calib::Clock;
use crate::setup::Prepared;
use crate::stats;
use crate::workloads::{self, Kind, Traffic};
use fusion_core::serve::{serve_with, ServeOptions, ServeRequest, ShedPolicy};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Rounds every run completes even when `--seconds` is already spent, so
/// a percentile always has a few samples behind it.
const MIN_ROUNDS: usize = 3;

/// One stretch of request wall time between two calibrations: a serial
/// request, or a whole `serve_with` batch.
struct Interval {
    /// Seconds while measuring; calibration units once settled.
    wall: f64,
    /// Requests that completed correctly in it.
    done: u64,
    /// Index of the calibration before it.
    tag: usize,
}

/// One request latency.
struct Sample {
    row: usize,
    seconds: f64,
    tag: usize,
}

/// Everything one measured run produced.
pub struct Measured {
    samples: Vec<Sample>,
    intervals: Vec<Interval>,
    /// Per table row: request time in calibration units, in run order
    /// (filled by `settle`).
    pub cu: Vec<Vec<f64>>,
    /// Per table row: raw request time, milliseconds.
    pub ms: Vec<Vec<f64>>,
    /// Every calibration of the run, seconds.
    pub calib: Vec<f64>,
    pub attempted: u64,
    /// Failed, shed, degraded, or result bits != expected.
    pub failed: u64,
    pub rounds: usize,
    /// Seconds spent inside requests (serve: sum of batch walls).
    pub wall_s: f64,
    /// `serve_with` only.
    pub queue_wait_us: Vec<f64>,
    pub shed: u64,
    pub retried: u64,
    pub breaker_routed: u64,
}

impl Measured {
    fn new(rows: usize) -> Self {
        Measured {
            samples: Vec::new(),
            intervals: Vec::new(),
            cu: vec![Vec::new(); rows],
            ms: vec![Vec::new(); rows],
            calib: Vec::new(),
            attempted: 0,
            failed: 0,
            rounds: 0,
            wall_s: 0.0,
            queue_wait_us: Vec::new(),
            shed: 0,
            retried: 0,
            breaker_routed: 0,
        }
    }

    fn record(&mut self, row: usize, seconds: f64, tag: usize, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        self.samples.push(Sample { row, seconds, tag });
    }

    fn interval(&mut self, wall_s: f64, done: u64, tag: usize) {
        self.wall_s += wall_s;
        self.intervals.push(Interval {
            wall: wall_s,
            done,
            tag,
        });
    }

    /// Closes the calibration log and converts every sample to
    /// calibration units: its time over the geometric mean of the
    /// calibrations before and after it.
    fn settle(&mut self, mut clock: Clock) {
        clock.calibrate();
        for s in &self.samples {
            self.cu[s.row].push(s.seconds / clock.unit(s.tag));
            self.ms[s.row].push(s.seconds * 1e3);
        }
        for i in &mut self.intervals {
            i.wall /= clock.unit(i.tag);
        }
        self.calib = clock.samples;
    }

    /// Geometric mean over rows of the per-row `p`-th percentile of the
    /// samples in the `part`-th of `parts` equal slices of the run.
    fn rows_percentile(rows: &[Vec<f64>], p: f64, part: usize, parts: usize) -> f64 {
        let per_row: Vec<f64> = rows
            .iter()
            .map(|s| stats::percentile(slice(s, part, parts), p))
            .collect();
        stats::geomean(&per_row)
    }

    /// Geometric mean over rows of the per-row `p`-th percentile, cu.
    pub fn request_cu(&self, p: f64) -> f64 {
        Self::rows_percentile(&self.cu, p, 0, 1)
    }

    /// The same in raw milliseconds, printed beside the calibrated value.
    pub fn request_ms(&self, p: f64) -> f64 {
        Self::rows_percentile(&self.ms, p, 0, 1)
    }

    fn throughput(&self, part: usize, parts: usize) -> f64 {
        let intervals = slice(&self.intervals, part, parts);
        let done: u64 = intervals.iter().map(|i| i.done).sum();
        done as f64 / intervals.iter().map(|i| i.wall).sum::<f64>()
    }

    /// Completed requests per calibration unit of request wall time.
    pub fn requests_per_cu(&self) -> f64 {
        self.throughput(0, 1)
    }

    /// Within-run spread of the three timing metrics: each recomputed on
    /// the thirds of the run, (max - min) / median. `compare` reports a
    /// difference smaller than this as unresolved.
    pub fn spreads(&self) -> [f64; 3] {
        let spread = |f: &dyn Fn(usize) -> f64| {
            let thirds = [f(0), f(1), f(2)];
            let (lo, hi) = (stats::min(&thirds), stats::percentile(&thirds, 100.0));
            (hi - lo) / stats::median(&thirds)
        };
        [
            spread(&|t| Self::rows_percentile(&self.cu, 50.0, t, 3)),
            spread(&|t| Self::rows_percentile(&self.cu, 90.0, t, 3)),
            spread(&|t| self.throughput(t, 3)),
        ]
    }

    pub fn samples_per_row(&self) -> usize {
        self.cu.iter().map(Vec::len).min().unwrap_or(0)
    }
}

/// The `part`-th of `parts` equal contiguous slices.
fn slice<T>(xs: &[T], part: usize, parts: usize) -> &[T] {
    &xs[xs.len() * part / parts..xs.len() * (part + 1) / parts]
}

/// The `serve_with` options of `serve_sizes`: a closed loop of
/// `min(nproc, 4)` workers behind a blocking queue twice that deep, no
/// retries.
fn serve_options() -> ServeOptions {
    let workers = workloads::threads();
    ServeOptions::new()
        .with_workers(workers)
        .with_queue_cap(2 * workers)
        .with_shed(ShedPolicy::Block)
}

/// Serves one batch of keys through `serve_with`; records it unless it
/// is the warm-up batch (`tag` is `None`). Returns the batch wall time.
fn serve_batch(prepared: &Prepared, keys: &[usize], tag: Option<usize>, m: &mut Measured) -> f64 {
    let requests: Vec<ServeRequest> = keys
        .iter()
        .map(|&i| {
            let class = &prepared.workload.classes[i];
            ServeRequest::new(&class.name, &class.source, class.req.clone())
        })
        .collect();
    let report = serve_with(&requests, &serve_options(), &prepared.serve_cache);
    let wall_s = report.wall.as_secs_f64();
    let Some(tag) = tag else { return wall_s };
    let mut done = 0;
    for (record, &i) in report.records.iter().zip(keys) {
        let ok = record.completed()
            && !record.degraded
            && prepared.correct_scalars(i, &record.scalars_bits);
        done += ok as u64;
        let row = prepared.workload.classes[i].row;
        m.record(row, record.latency.as_secs_f64(), tag, ok);
        m.queue_wait_us.push(stats::us(record.queue_wait));
    }
    m.interval(wall_s, done, tag);
    m.shed += report.shed() as u64;
    m.retried += report.retried() as u64;
    m.breaker_routed += report.records.iter().filter(|r| r.breaker_routed).count() as u64;
    wall_s
}

/// Every key of the workload once, untimed and in table order (so the
/// same on every seed; `serve_sizes`: all 492 through `serve_with`), so
/// that the largest arrays have been allocated and the serving cache has
/// filled when the peak resident set is read. Failures are left to the
/// measured rounds.
pub fn warm_up(prepared: &Prepared) {
    let workload = prepared.workload;
    let keys: Vec<usize> = (0..workload.classes.len()).collect();
    if workload.kind == Kind::Serve {
        serve_batch(prepared, &keys, None, &mut Measured::new(0));
    } else {
        for i in keys {
            black_box(prepared.request(i).ok());
        }
    }
}

/// Runs seeded rounds for `seconds`. `serve_sizes` goes through
/// `serve_with` in batches (first batch discarded as warm-up); every
/// other workload issues its composite request serially.
pub fn measure(prepared: &Prepared, seed: u64, seconds: f64) -> Measured {
    let workload = prepared.workload;
    let mut m = Measured::new(workload.rows.len());
    let mut clock = Clock::new(workload.request_threads());
    let mut traffic = Traffic::new(workload, seed);
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    if workload.kind == Kind::Serve {
        serve_batch(prepared, &traffic.next_round(), None, &mut m);
    }
    while m.rounds < MIN_ROUNDS || started.elapsed() < budget {
        let keys = traffic.next_round();
        if workload.kind == Kind::Serve {
            let tag = clock.before_request();
            let wall_s = serve_batch(prepared, &keys, Some(tag), &mut m);
            clock.after_request(wall_s);
        } else {
            for i in keys {
                let tag = clock.before_request();
                let t0 = Instant::now();
                let result = prepared.request(i);
                let dt = t0.elapsed().as_secs_f64();
                clock.after_request(dt);
                let ok = result.is_ok_and(|words| prepared.correct(i, &words));
                m.record(workload.classes[i].row, dt, tag, ok);
                m.interval(dt, ok as u64, tag);
            }
        }
        m.rounds += 1;
    }
    m.settle(clock);
    m
}

/// Serves the keys twice over (first pass misses, second hits) through
/// `serve_with`: the serve-layer probe of the workloads that do not
/// serve.
pub fn serve_probe(prepared: &Prepared, keys: &[usize]) -> Measured {
    let mut m = Measured::new(prepared.workload.rows.len());
    let mut clock = Clock::new(1);
    let twice: Vec<usize> = keys.iter().chain(keys).copied().collect();
    let tag = clock.before_request();
    serve_batch(prepared, &twice, Some(tag), &mut m);
    m.rounds = 1;
    m.settle(clock);
    m
}
