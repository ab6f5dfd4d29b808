//! Property tests: the cache simulator agrees with a naive reference model
//! (per-set LRU by explicit timestamps) on arbitrary address streams, at
//! arbitrary geometries and at the three presets', one level and two.

use machine::cache::{Cache, CacheConfig};
use machine::{MachineKind, MemSim, MemStats};
use std::collections::HashMap;
use testkit::{cases, Rng};

/// Reference model: per set, a map line-tag → last-use time; evict the
/// minimum on overflow.
struct RefCache {
    sets: Vec<HashMap<u64, u64>>,
    line: u64,
    assoc: usize,
    clock: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        RefCache {
            sets: vec![HashMap::new(); cfg.sets() as usize],
            line: cfg.line as u64,
            assoc: cfg.assoc as usize,
            clock: 0,
        }
    }

    fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let tag = addr / self.line;
        let nsets = self.sets.len() as u64;
        let set = &mut self.sets[(tag % nsets) as usize];
        if let Some(t) = set.get_mut(&tag) {
            *t = self.clock;
            true
        } else {
            if set.len() == self.assoc {
                let (&victim, _) = set
                    .iter()
                    .min_by_key(|(_, &t)| t)
                    .expect("nonempty full set");
                set.remove(&victim);
            }
            set.insert(tag, self.clock);
            false
        }
    }
}

/// Geometries around the ones the paper's machines have: the T3E's L2 is
/// 3-way, and the simulator indexes power-of-two set counts by mask and
/// the others by remainder.
fn config(rng: &mut Rng) -> CacheConfig {
    let line = *rng.choose(&[16u32, 32, 64, 128]);
    let assoc = *rng.choose(&[1u32, 2, 3, 4, 8]);
    let sets = if rng.bool() {
        1 << rng.range(0, 6)
    } else {
        rng.range(1, 8) as u64 * 2 - 1
    };
    CacheConfig {
        bytes: line as u64 * assoc as u64 * sets,
        line,
        assoc,
    }
}

/// Every cache level of the three presets.
fn preset_levels() -> Vec<CacheConfig> {
    MachineKind::all()
        .into_iter()
        .flat_map(|k| {
            let m = k.machine();
            std::iter::once(m.l1).chain(m.l2)
        })
        .collect()
}

/// Addresses clustered so that hits actually occur.
fn uniform(rng: &mut Rng, len: usize, span: i64) -> Vec<u64> {
    (0..len).map(|_| rng.range(0, span) as u64).collect()
}

/// What a fused nest emits: `k` strided walkers over their own arrays,
/// one element each per position, restarting when they leave the array.
fn walkers(rng: &mut Rng, len: usize) -> Vec<u64> {
    let k = rng.range(1, 6) as usize;
    let extent = *rng.choose(&[2_048u64, 16_384, 131_072]);
    let walks: Vec<(u64, u64)> = (0..k)
        .map(|i| {
            let base = 4096 + i as u64 * (extent + 64 * rng.range(0, 9) as u64);
            let stride = 8 * *rng.choose(&[1u64, 1, 1, 2, 33, 130]);
            (base, stride)
        })
        .collect();
    (0..len)
        .map(|i| {
            let (base, stride) = walks[i % k];
            base + (i / k) as u64 * stride % extent
        })
        .collect()
}

fn assert_matches_reference(cfg: CacheConfig, stream: &[u64]) {
    let mut sim = Cache::new(cfg);
    let mut reference = RefCache::new(cfg);
    for (i, &addr) in stream.iter().enumerate() {
        let a = sim.access(addr);
        let b = reference.access(addr);
        assert_eq!(a, b, "divergence at access {i} (addr {addr}, cfg {cfg:?})");
    }
    assert_eq!(sim.hits() + sim.misses(), stream.len() as u64);
}

#[test]
fn simulator_matches_reference() {
    cases(128, 0xcac4e, |rng| {
        let cfg = config(rng);
        let len = rng.range(1, 399) as usize;
        assert_matches_reference(cfg, &uniform(rng, len, 4095));
    });
}

#[test]
fn simulator_matches_reference_on_long_interleaved_streams() {
    let presets = preset_levels();
    assert_eq!(presets.len(), 4, "T3E L1 + L2, SP-2, Paragon");
    cases(24, 0x57ea7, |rng| {
        let stream = if rng.bool() {
            let len = 20_000 + rng.below(5_000);
            walkers(rng, len)
        } else {
            uniform(rng, 20_000, 262_143)
        };
        assert_matches_reference(config(rng), &stream);
        assert_matches_reference(*rng.choose(&presets), &stream);
    });
}

#[test]
fn two_levels_probe_l2_only_on_l1_misses() {
    use loopir::Observer;
    let machines = MachineKind::all().map(|k| k.machine());
    cases(24, 0x2_1e7e1, |rng| {
        let (l1, l2) = if rng.bool() {
            let m = rng.choose(&machines);
            (m.l1, m.l2)
        } else {
            (config(rng), rng.bool().then(|| config(rng)))
        };
        let stream = walkers(rng, 20_000);
        let reset_at = rng.below(stream.len());
        let mut sim = MemSim::new(l1, l2);
        let fresh = || (RefCache::new(l1), l2.map(RefCache::new));
        let (mut r1, mut r2) = fresh();
        let mut want = MemStats::default();
        for (i, &addr) in stream.iter().enumerate() {
            if i == reset_at {
                sim.reset();
                (r1, r2) = fresh();
                want = MemStats::default();
            }
            if rng.bool() {
                sim.load(addr);
            } else {
                sim.store(addr);
            }
            want.accesses += 1;
            if !r1.access(addr) {
                want.l1_misses += 1;
                if let Some(r2) = &mut r2 {
                    want.l2_misses += u64::from(!r2.access(addr));
                }
            }
            assert_eq!(
                sim.stats(),
                want,
                "access {i} (addr {addr}, {l1:?} / {l2:?})"
            );
        }
    });
}

#[test]
fn bigger_caches_never_miss_more() {
    cases(128, 0xb16, |rng| {
        let len = rng.range(1, 299) as usize;
        let stream: Vec<u64> = (0..len).map(|_| rng.range(0, 8191) as u64).collect();
        // LRU has the inclusion property: doubling associativity at equal
        // set count cannot increase misses on the same trace.
        let small = CacheConfig {
            bytes: 1024,
            line: 32,
            assoc: 1,
        };
        let large = CacheConfig {
            bytes: 2048,
            line: 32,
            assoc: 2,
        };
        let mut s = Cache::new(small);
        let mut l = Cache::new(large);
        for &a in &stream {
            s.access(a);
            l.access(a);
        }
        assert!(l.misses() <= s.misses());
    });
}

#[test]
fn single_location_hits_after_first() {
    cases(128, 0x0417, |rng| {
        let addr = rng.range(0, 999_999) as u64;
        let cfg = config(rng);
        let mut c = Cache::new(cfg);
        assert!(!c.access(addr));
        for _ in 0..8 {
            assert!(c.access(addr));
        }
    });
}
