//! The memory-system simulator: an [`loopir::Observer`] implementation
//! feeding every element access through a one- or two-level cache.

use crate::cache::{Cache, CacheConfig};
use loopir::Observer;

/// Counters accumulated by [`MemSim`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Total element accesses (loads + stores).
    pub accesses: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 misses (0 when no L2 is configured).
    pub l2_misses: u64,
    /// Floating-point operations.
    pub flops: u64,
}

/// A one- or two-level cache simulator implementing [`loopir::Observer`].
///
/// ```
/// use machine::{MemSim, CacheConfig};
/// use loopir::Observer;
/// let mut m = MemSim::new(CacheConfig { bytes: 512, line: 32, assoc: 1 }, None);
/// m.load(0);
/// m.load(8);
/// m.store(512); // conflicts with line 0 in a direct-mapped 512B cache
/// m.load(0);
/// assert_eq!(m.stats().l1_misses, 3);
/// assert_eq!(m.stats().accesses, 4);
/// ```
#[derive(Debug, Clone)]
pub struct MemSim {
    l1: Cache,
    l2: Option<Cache>,
    stats: MemStats,
}

impl MemSim {
    /// Creates a cold memory system.
    pub fn new(l1: CacheConfig, l2: Option<CacheConfig>) -> Self {
        MemSim {
            l1: Cache::new(l1),
            l2: l2.map(Cache::new),
            stats: MemStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets caches and counters.
    pub fn reset(&mut self) {
        self.l1.reset();
        if let Some(l2) = &mut self.l2 {
            l2.reset();
        }
        self.stats = MemStats::default();
    }

    #[inline]
    fn touch(&mut self, addr: u64) {
        self.stats.accesses += 1;
        if !self.l1.access(addr) {
            self.stats.l1_misses += 1;
            if let Some(l2) = &mut self.l2 {
                if !l2.access(addr) {
                    self.stats.l2_misses += 1;
                }
            }
        }
    }
}

impl Observer for MemSim {
    #[inline]
    fn load(&mut self, addr: u64) {
        self.touch(addr);
    }

    #[inline]
    fn store(&mut self, addr: u64) {
        self.touch(addr);
    }

    #[inline]
    fn flops(&mut self, n: u64) {
        self.stats.flops += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> MemSim {
        MemSim::new(
            CacheConfig {
                bytes: 256,
                line: 32,
                assoc: 1,
            },
            Some(CacheConfig {
                bytes: 1024,
                line: 32,
                assoc: 2,
            }),
        )
    }

    #[test]
    fn l2_absorbs_l1_conflicts() {
        let mut m = small();
        // 256 and 0 conflict in L1 (8 sets * 32B) but coexist in L2.
        m.load(0);
        m.load(256);
        m.load(0);
        m.load(256);
        assert_eq!(m.stats().l1_misses, 4);
        assert_eq!(m.stats().l2_misses, 2, "L2 hits on the revisits");
    }

    #[test]
    fn flops_accumulate() {
        let mut m = small();
        m.flops(5);
        m.flops(2);
        assert_eq!(m.stats().flops, 7);
    }

    #[test]
    fn reset_clears_everything() {
        let mut m = small();
        m.load(0);
        m.reset();
        assert_eq!(m.stats(), MemStats::default());
        m.load(0);
        assert_eq!(m.stats().l1_misses, 1, "cold after reset");
    }
}
