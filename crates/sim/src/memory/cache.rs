//! Set-associative cache tag array with LRU replacement.

use serde::{Deserialize, Serialize};

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The line was present.
    Hit,
    /// The line was absent and has been filled (allocate-on-miss).
    Miss,
}

/// Cumulative statistics of one cache instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of lookups that hit.
    pub hits: u64,
    /// Number of lookups that missed.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero if the cache was never accessed.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A simple set-associative tag array with true-LRU replacement.
///
/// Only tags are modelled: the simulator cares about hit/miss timing, not
/// data. Writes allocate like reads (write-allocate); dirty-line write-back
/// traffic is not modelled because the experiments never measure DRAM write
/// bandwidth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_bytes: u64,
    /// Tag storage, `sets × ways`: a valid way holds its tag plus one, and
    /// 0 marks an invalid way. Lines are at least two bytes, so a tag is at
    /// most `u64::MAX / 2` and `tag + 1` never overflows.
    tags: Vec<u64>,
    /// LRU counters parallel to `tags` (larger = more recently used).
    lru: Vec<u64>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` ways and
    /// `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly, is zero-sized, or has
    /// lines shorter than two bytes.
    #[must_use]
    pub fn new(capacity_bytes: u64, ways: usize, line_bytes: u64) -> Self {
        assert!(capacity_bytes > 0 && ways > 0 && line_bytes > 1);
        let lines = capacity_bytes / line_bytes;
        assert!(
            (lines as usize).is_multiple_of(ways),
            "capacity must divide into sets"
        );
        let sets = lines as usize / ways;
        assert!(sets > 0, "cache must have at least one set");
        Cache {
            sets,
            ways,
            line_bytes,
            tags: vec![0; sets * ways],
            lru: vec![0; sets * ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Accesses `address`; returns whether it hit and updates LRU state.
    pub fn access(&mut self, address: u64) -> CacheOutcome {
        self.tick += 1;
        let line = address / self.line_bytes;
        let set = (line % self.sets as u64) as usize;
        let stored = line / self.sets as u64 + 1;
        let base = set * self.ways;
        // Hit?
        for way in 0..self.ways {
            if self.tags[base + way] == stored {
                self.lru[base + way] = self.tick;
                self.stats.hits += 1;
                return CacheOutcome::Hit;
            }
        }
        // Miss: fill the LRU way.
        self.stats.misses += 1;
        let mut victim = base;
        for way in 0..self.ways {
            if self.tags[base + way] == 0 {
                victim = base + way;
                break;
            }
            if self.lru[base + way] < self.lru[victim] {
                victim = base + way;
            }
        }
        self.tags[victim] = stored;
        self.lru[victim] = self.tick;
        CacheOutcome::Miss
    }

    /// Cumulative statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(1024, 4, 128);
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(64), CacheOutcome::Hit, "same 128-byte line");
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_evictions_follow_lru() {
        // 2 sets x 2 ways of 128-byte lines = 512 bytes.
        let mut c = Cache::new(512, 2, 128);
        // Three lines mapping to the same set (stride = sets*line = 256).
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(256), CacheOutcome::Miss);
        assert_eq!(c.access(512), CacheOutcome::Miss); // evicts line 0 (LRU)
        assert_eq!(c.access(256), CacheOutcome::Hit);
        assert_eq!(c.access(0), CacheOutcome::Miss, "line 0 was evicted");
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = Cache::new(512, 2, 128);
        assert_eq!(c.access(0), CacheOutcome::Miss);
        assert_eq!(c.access(128), CacheOutcome::Miss);
        assert_eq!(c.access(0), CacheOutcome::Hit);
        assert_eq!(c.access(128), CacheOutcome::Hit);
        assert_eq!(c.sets(), 2);
    }

    #[test]
    #[should_panic(expected = "divide into sets")]
    fn bad_geometry_panics() {
        let _ = Cache::new(384, 4, 128);
    }

    #[test]
    fn empty_cache_stats() {
        let c = Cache::new(1024, 4, 128);
        assert_eq!(c.stats().hit_rate(), 0.0);
    }
}
