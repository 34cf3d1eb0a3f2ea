//! Set-associative cache with true LRU replacement.

use crate::check::CheckError;

/// Outcome of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Tag matched.
    Hit,
    /// Tag missed; the line has been filled (write-allocate).
    Miss,
}

/// A set-associative, write-allocate cache modelling tags only.
///
/// Data values are irrelevant to timing/energy, so only the tag array is
/// kept. Replacement is true LRU: each set keeps its tags in
/// most-recently-used-first order, so a hit moves its way to the front
/// and a miss evicts the last way (associativities in this design space
/// are ≤ 8, so linear scans and shifts are fastest).
///
/// # Examples
///
/// ```
/// use dse_sim::cache::{Cache, CacheOutcome};
/// let mut c = Cache::new(8 * 1024, 32, 2);
/// assert_eq!(c.access(0x1000), CacheOutcome::Miss);
/// assert_eq!(c.access(0x1000), CacheOutcome::Hit);
/// assert_eq!(c.access(0x1004), CacheOutcome::Hit); // same line
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    line_shift: u32,
    set_mask: u64,
    assoc: usize,
    /// `tags[set * assoc + way]`, storing `line + 1` so that `0` marks an
    /// invalid way and the array starts life on zero pages instead of
    /// paying a `u64::MAX` memset per construction. Each set is in
    /// recency order, way 0 most recent; invalid ways collect at the tail,
    /// so evicting the last way fills an invalid one first.
    tags: Vec<u64>,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `size_bytes` with `line_bytes` lines and
    /// associativity `assoc`.
    ///
    /// # Panics
    ///
    /// Panics if any argument is zero, `line_bytes` or the set count is not
    /// a power of two, or the geometry is inconsistent (size not divisible
    /// by `line_bytes * assoc`).
    pub fn new(size_bytes: u64, line_bytes: u32, assoc: u32) -> Self {
        assert!(size_bytes > 0 && line_bytes > 0 && assoc > 0);
        assert!(line_bytes.is_power_of_two(), "line size must be 2^k");
        let lines = size_bytes / line_bytes as u64;
        assert_eq!(
            lines * line_bytes as u64,
            size_bytes,
            "size must be a multiple of the line size"
        );
        let sets = lines / assoc as u64;
        assert!(
            sets > 0 && sets.is_power_of_two(),
            "set count {sets} must be a positive power of two"
        );
        let total = (sets * assoc as u64) as usize;
        Self {
            line_shift: line_bytes.trailing_zeros(),
            set_mask: sets - 1,
            assoc: assoc as usize,
            tags: vec![0; total],
            accesses: 0,
            misses: 0,
        }
    }

    /// Accesses `addr`, updating LRU order and filling on a miss.
    pub fn access(&mut self, addr: u64) -> CacheOutcome {
        self.accesses += 1;
        let line = addr >> self.line_shift;
        let stored = line + 1;
        let base = (line & self.set_mask) as usize * self.assoc;
        let ways = &mut self.tags[base..base + self.assoc];
        // Move-to-front: the hit way (or, on a miss, the evicted last
        // way's slot) takes way 0 and the more recent ways shift down one.
        let (hit, w) = match ways.iter().position(|&t| t == stored) {
            Some(w) => (true, w),
            None => (false, ways.len() - 1),
        };
        ways.copy_within(..w, 1);
        ways[0] = stored;
        if hit {
            CacheOutcome::Hit
        } else {
            self.misses += 1;
            CacheOutcome::Miss
        }
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Sanitizer hook: statistics and tag-array self-consistency.
    ///
    /// Checks that hits + misses equals accesses (i.e. misses never exceed
    /// accesses) and that every valid tag is stored in the set its line
    /// index maps to — a misplaced tag would silently convert misses into
    /// hits. `level` names the cache in the error (e.g. `"l1d"`).
    pub fn check_invariants(&self, level: &'static str) -> Result<(), CheckError> {
        if self.misses > self.accesses {
            return Err(CheckError::new(
                0,
                "cache-accounting",
                format!(
                    "{level}: misses {} exceed accesses {}",
                    self.misses, self.accesses
                ),
            ));
        }
        for (i, &stored) in self.tags.iter().enumerate() {
            if stored == 0 {
                continue;
            }
            let tag = stored - 1;
            let set = (i / self.assoc) as u64;
            if tag & self.set_mask != set {
                return Err(CheckError::new(
                    0,
                    "cache-tag-placement",
                    format!(
                        "{level}: line {tag:#x} stored in set {set}, maps to {}",
                        tag & self.set_mask
                    ),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new(1024, 32, 2);
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(31), CacheOutcome::Hit);
        assert_eq!(c.access(32), CacheOutcome::Miss);
    }

    #[test]
    fn geometry_is_computed_correctly() {
        let c = Cache::new(8 * 1024, 32, 4);
        assert_eq!(c.set_mask + 1, 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_panics() {
        Cache::new(3 * 1024, 32, 2); // 48 sets
    }

    #[test]
    fn lru_evicts_least_recent() {
        // Direct associativity-2, one set exercised with 3 conflicting lines.
        let mut c = Cache::new(64, 32, 2); // 1 set, 2 ways
        c.access(0); // line 0
        c.access(32); // line 1
        c.access(0); // touch line 0 (line 1 now LRU)
        assert_eq!(c.access(64), CacheOutcome::Miss); // evicts line 1
        assert_eq!(c.access(0), CacheOutcome::Hit); // line 0 survived
        assert_eq!(c.access(32), CacheOutcome::Miss); // line 1 was evicted
    }

    #[test]
    fn working_set_within_capacity_stops_missing() {
        let mut c = Cache::new(4096, 32, 4);
        // Touch 64 lines (2 KB), twice. Second pass must be all hits.
        for round in 0..2 {
            let mut misses = 0;
            for i in 0..64u64 {
                if c.access(i * 32) == CacheOutcome::Miss {
                    misses += 1;
                }
            }
            if round == 1 {
                assert_eq!(misses, 0);
            }
        }
    }

    #[test]
    fn working_set_beyond_capacity_thrashes() {
        let mut c = Cache::new(1024, 32, 2);
        // 128 lines (4 KB) streamed repeatedly through a 1 KB cache: LRU
        // guarantees zero hits on a cyclic scan larger than capacity.
        for _ in 0..3 {
            for i in 0..128u64 {
                c.access(i * 32);
            }
        }
        assert!(
            c.misses() * 100 > c.accesses() * 99,
            "{} misses",
            c.misses()
        );
    }

    #[test]
    fn bigger_cache_lower_miss_rate() {
        let run = |kb: u64| {
            let mut c = Cache::new(kb * 1024, 32, 4);
            let mut rng = dse_rng::Xoshiro256::seed_from(1);
            for _ in 0..20_000 {
                c.access(rng.next_range(64 * 1024));
            }
            c.misses()
        };
        assert!(run(8) > run(32));
        assert!(run(32) > run(128));
    }

    #[test]
    fn hits_complement_misses_and_invariants_hold() {
        let mut c = Cache::new(1024, 32, 2);
        for i in 0..100u64 {
            c.access((i % 8) * 32);
        }
        c.check_invariants("test").unwrap();
    }

    /// Reference LRU by timestamps: a unique stamp per access, an invalid
    /// way filled first, else the way with the oldest stamp evicted.
    struct StampLru {
        line_shift: u32,
        set_mask: u64,
        assoc: usize,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
    }

    impl StampLru {
        fn new(size_bytes: u64, line_bytes: u32, assoc: u32) -> Self {
            let sets = size_bytes / line_bytes as u64 / assoc as u64;
            let total = (sets * assoc as u64) as usize;
            Self {
                line_shift: line_bytes.trailing_zeros(),
                set_mask: sets - 1,
                assoc: assoc as usize,
                tags: vec![0; total],
                stamps: vec![0; total],
                tick: 0,
            }
        }

        fn access(&mut self, addr: u64) -> CacheOutcome {
            self.tick += 1;
            let line = addr >> self.line_shift;
            let base = (line & self.set_mask) as usize * self.assoc;
            let ways = base..base + self.assoc;
            if let Some(w) = ways.clone().find(|&w| self.tags[w] == line + 1) {
                self.stamps[w] = self.tick;
                return CacheOutcome::Hit;
            }
            let victim = ways
                .clone()
                .find(|&w| self.tags[w] == 0)
                .unwrap_or_else(|| ways.min_by_key(|&w| self.stamps[w]).unwrap());
            self.tags[victim] = line + 1;
            self.stamps[victim] = self.tick;
            CacheOutcome::Miss
        }
    }

    #[test]
    fn move_to_front_matches_timestamp_lru() {
        for assoc in [1u32, 2, 4, 8] {
            // 16 sets of 32-byte lines, so the streams below both fill
            // cold sets and keep evicting from full ones.
            let size = 16 * 32 * assoc as u64;
            let mut rng = dse_rng::Xoshiro256::seed_from(assoc as u64);
            let random: Vec<u64> = (0..20_000).map(|_| rng.next_range(64 * size)).collect();
            // Blocks of 1,500 accesses cycle k = assoc, assoc + 1, assoc + 2
            // conflicting lines through one set (hits, then LRU's
            // cyclic-scan thrash), moving to a cold set every block.
            let a = assoc as u64;
            let strided: Vec<u64> = (0..20_000u64)
                .map(|i| ((i % (a + i / 500 % 3)) * 16 + i / 1_500 % 16) * 32 + i % 8 * 4)
                .collect();
            for (name, stream) in [("random", &random), ("strided", &strided)] {
                let mut mtf = Cache::new(size, 32, assoc);
                let mut lru = StampLru::new(size, 32, assoc);
                for (i, &a) in stream.iter().enumerate() {
                    assert_eq!(
                        mtf.access(a),
                        lru.access(a),
                        "assoc {assoc}, {name} access {i} to {a:#x}"
                    );
                }
                mtf.check_invariants("mtf").unwrap();
                assert!(mtf.misses() > 0 && mtf.misses() < mtf.accesses());
            }
        }
    }

    #[test]
    fn misplaced_tag_is_caught() {
        let mut c = Cache::new(1024, 32, 2); // 16 sets
        c.access(0);
        // Corrupt the tag array: plant a line that belongs to set 5 in
        // set 0.
        c.tags[0] = 5;
        let e = c.check_invariants("l1d").unwrap_err();
        assert_eq!(e.invariant, "cache-tag-placement");
        assert!(e.message.contains("l1d"));
    }
}
