//! A set-associative, LRU, write-allocate cache simulator.

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Line size in bytes (a power of two).
    pub line: u32,
    /// Associativity (1 = direct mapped).
    pub assoc: u32,
}

impl CacheConfig {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent: any parameter is zero, the
    /// line size is not a power of two, or the capacity is not divisible
    /// by `line * assoc`.
    pub fn sets(&self) -> u64 {
        assert!(
            self.bytes > 0 && self.line > 0 && self.assoc > 0,
            "cache parameters must be nonzero"
        );
        assert!(
            self.line.is_power_of_two(),
            "line size must be a power of two"
        );
        let per_set = self.line as u64 * self.assoc as u64;
        assert_eq!(
            self.bytes % per_set,
            0,
            "capacity must be a multiple of line*assoc"
        );
        self.bytes / per_set
    }
}

/// The line number of a way nothing has been brought into yet. Lines are
/// `addr >> log2(line size)`, so with lines of two bytes or more no
/// address has it.
const EMPTY: u64 = u64::MAX;

/// One cache level with LRU replacement.
///
/// Both loads and stores allocate (write-allocate, write-back is not
/// modelled separately — a store miss costs like a load miss, which is the
/// behavior the paper's locality arguments rely on).
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets x assoc` line numbers, set after set; within a set the ways
    /// are in recency order, most recently used FIRST, [`EMPTY`] ones last.
    lines: Vec<u64>,
    assoc: usize,
    /// `log2` of the line size.
    shift: u32,
    sets: u64,
    /// `sets - 1` when the set count is a power of two (every preset):
    /// the set index is then a mask, otherwise a remainder.
    mask: Option<u64>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates an empty (cold) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (see [`CacheConfig::sets`]:
    /// a zero parameter, a line size that is not a power of two, a
    /// capacity that is not a multiple of `line * assoc`).
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.assoc as usize;
        Cache {
            config,
            lines: vec![EMPTY; sets as usize * assoc],
            assoc,
            shift: config.line.trailing_zeros(),
            sets,
            mask: sets.is_power_of_two().then(|| sets - 1),
            hits: 0,
            misses: 0,
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Accesses a byte address; returns `true` on hit. Misses allocate the
    /// line, evicting the least recently used line of the set if full.
    ///
    /// A hit on the set's most recently used line - what consecutive
    /// elements of one stream are - changes no state but the counter. Any
    /// other access makes one walk down the set that carries each line one
    /// way towards the LRU end until it meets the accessed line (a hit:
    /// the lines below stay) or drops the last one (a miss: the LRU line,
    /// or an empty way).
    #[inline]
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.shift;
        let set = match self.mask {
            Some(mask) => line & mask,
            None => line % self.sets,
        } as usize;
        let ways = &mut self.lines[set * self.assoc..][..self.assoc];
        let mut carry = ways[0];
        if carry == line {
            self.hits += 1;
            return true;
        }
        ways[0] = line;
        for way in &mut ways[1..] {
            carry = std::mem::replace(way, carry);
            if carry == line {
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resets counters and contents.
    pub fn reset(&mut self) {
        self.lines.fill(EMPTY);
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: u64, line: u32, assoc: u32) -> Cache {
        Cache::new(CacheConfig { bytes, line, assoc })
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut c = cache(1024, 64, 2);
        assert!(!c.access(128));
        for off in 1..64 {
            assert!(c.access(128 + off), "offset {off} shares the line");
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 63);
    }

    #[test]
    fn direct_mapped_conflict() {
        // 512 B direct mapped, 32 B lines -> 16 sets. Addresses 0 and 512
        // conflict.
        let mut c = cache(512, 32, 1);
        assert!(!c.access(0));
        assert!(!c.access(512));
        assert!(!c.access(0), "0 was evicted by 512");
    }

    #[test]
    fn two_way_avoids_simple_conflict() {
        let mut c = cache(1024, 32, 2);
        assert!(!c.access(0));
        assert!(!c.access(1024)); // different tag, same set — fills way 2
        assert!(c.access(0), "both fit in a 2-way set");
        assert!(c.access(1024));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(64, 32, 2); // one set, two ways
        c.access(0); // A
        c.access(32); // B
        c.access(0); // A again (B is now LRU)
        c.access(64); // C evicts B
        assert!(c.access(0), "A survived");
        assert!(!c.access(32), "B was evicted");
    }

    #[test]
    fn capacity_miss_when_working_set_exceeds_cache() {
        let mut c = cache(1024, 64, 2);
        // Stream 4 KB: every revisit misses.
        for addr in (0..4096u64).step_by(64) {
            c.access(addr);
        }
        let misses_first = c.misses();
        for addr in (0..4096u64).step_by(64) {
            c.access(addr);
        }
        assert_eq!(
            c.misses(),
            misses_first * 2,
            "no reuse survives a 4x working set"
        );
    }

    #[test]
    fn reset_clears_state() {
        let mut c = cache(512, 32, 1);
        c.access(0);
        c.reset();
        assert_eq!(c.misses(), 0);
        assert!(!c.access(0), "cold again after reset");
    }

    #[test]
    #[should_panic(expected = "multiple")]
    fn bad_geometry_panics() {
        cache(1000, 64, 3);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn a_line_size_no_shift_expresses_panics() {
        // 960 = 48 * 2 * 10: consistent but for the line size.
        cache(960, 48, 2);
    }

    #[test]
    fn a_hit_moves_the_line_to_the_front_and_keeps_the_rest_in_order() {
        let mut c = cache(128, 32, 4); // one set, four ways
        for a in [0, 32, 64, 96] {
            c.access(a); // recency, most recent first: 96 64 32 0
        }
        assert!(c.access(32)); // 32 96 64 0
        assert!(!c.access(128), "0 is the LRU line and leaves"); // 128 32 96 64
        assert!(!c.access(0), "64 leaves"); // 0 128 32 96
        for (a, hit) in [(96, true), (64, false), (128, true), (32, false)] {
            assert_eq!(c.access(a), hit, "address {a}");
        }
    }
}
