//! Set-associative cache timing model with LRU replacement.
//!
//! The cache is a *timing* model only: data always lives in the functional
//! [`crate::MainMemory`]; the cache tracks which lines would be resident to
//! decide hit/miss latencies and to count dirty write-backs. Write-backs are
//! only counted, in [`CacheStats::writebacks`]: the hierarchy charges DRAM
//! time, `dram_bytes` and energy for misses alone, so an evicted dirty line
//! costs nothing (whether to charge it is open item 6 of `ROADMAP.md`).

use crate::stats::CacheStats;

/// Static configuration of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Line size in bytes (the paper uses 512-bit = 64 B lines).
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in cycles for a hit.
    pub hit_latency: u64,
}

impl CacheConfig {
    /// The paper's 32 KB L1 data cache: 64 B lines, 8-way, 4-cycle latency.
    #[must_use]
    pub fn l1d() -> Self {
        Self {
            size_bytes: 32 * 1024,
            line_bytes: 64,
            ways: 8,
            hit_latency: 4,
        }
    }

    /// The paper's 1 MB L2 cache: 64 B lines, 16-way, 12-cycle latency.
    #[must_use]
    pub fn l2() -> Self {
        Self {
            size_bytes: 1024 * 1024,
            line_bytes: 64,
            ways: 16,
            hit_latency: 12,
        }
    }

    /// Number of sets implied by the configuration.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.line_bytes * self.ways)
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of the last access, for LRU.
    last_use: u64,
}

/// Outcome of a single line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Whether a dirty victim line had to be written back to the next level.
    pub writeback: bool,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// ```
/// use ava_memory::{Cache, CacheConfig};
/// let mut c = Cache::new(CacheConfig::l1d());
/// assert!(!c.access(0x1000, false).hit); // cold miss
/// assert!(c.access(0x1000, false).hit);  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Vec<Line>>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not describe at least one set
    /// (size must be at least `line_bytes * ways`).
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets >= 1, "cache must have at least one set");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        Self {
            config,
            sets: vec![vec![Line::default(); config.ways]; sets],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Hit latency of this level in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.config.hit_latency
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.config.line_bytes as u64;
        let set = (line % self.sets.len() as u64) as usize;
        let tag = line / self.sets.len() as u64;
        (set, tag)
    }

    /// Accesses the line containing `addr`, allocating it on a miss.
    /// Returns whether it hit and whether a dirty victim was evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let clock = self.clock;
        let set = &mut self.sets[set_idx];

        if let Some(line) = set.iter_mut().find(|l| l.valid && l.tag == tag) {
            line.last_use = clock;
            line.dirty |= is_write;
            if is_write {
                self.stats.write_hits += 1;
            } else {
                self.stats.read_hits += 1;
            }
            return AccessOutcome {
                hit: true,
                writeback: false,
            };
        }

        // Miss: pick an invalid way or the LRU way.
        let victim_idx = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.last_use + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("cache set has at least one way");
        let victim = &mut set[victim_idx];
        let writeback = victim.valid && victim.dirty;
        if writeback {
            self.stats.writebacks += 1;
        }
        *victim = Line {
            tag,
            valid: true,
            dirty: is_write,
            last_use: clock,
        };
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// True if the line containing `addr` is currently resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        self.sets[set_idx].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Clears the hit/miss counters without touching cache contents (used
    /// after a warm-up pass so measurements start from zero).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line and clears dirty state (statistics are kept).
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            for line in set {
                *line = Line::default();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64 B lines = 512 B.
        Cache::new(CacheConfig {
            size_bytes: 512,
            line_bytes: 64,
            ways: 2,
            hit_latency: 3,
        })
    }

    #[test]
    fn paper_configurations_have_expected_geometry() {
        assert_eq!(CacheConfig::l1d().sets(), 64);
        assert_eq!(CacheConfig::l2().sets(), 1024);
        assert_eq!(CacheConfig::l2().hit_latency, 12);
        assert_eq!(CacheConfig::l1d().hit_latency, 4);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3f, false).hit, "same line");
        assert!(!c.access(0x40, false).hit, "next line");
        assert_eq!(c.stats().read_misses, 2);
        assert_eq!(c.stats().read_hits, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used_way() {
        let mut c = tiny();
        // Three lines mapping to set 0 (set = line % 4): line numbers 0, 4, 8.
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a most recently used
        c.access(d, false); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        let a = 0u64;
        let b = 4 * 64;
        let d = 8 * 64;
        c.access(a, true); // dirty
        c.access(b, false);
        let out = c.access(d, false); // evicts a (LRU), which is dirty
        assert!(out.writeback);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn write_hit_marks_line_dirty() {
        let mut c = tiny();
        c.access(0x0, false);
        c.access(0x0, true);
        // Force eviction of line 0 by touching two more lines of set 0.
        c.access(4 * 64, false);
        let out = c.access(8 * 64, false);
        assert!(out.writeback);
    }

    #[test]
    fn flush_empties_the_cache() {
        let mut c = tiny();
        c.access(0x0, true);
        c.flush();
        assert!(!c.contains(0x0));
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    #[should_panic(expected = "at least one set")]
    fn zero_set_configuration_is_rejected() {
        let _ = Cache::new(CacheConfig {
            size_bytes: 64,
            line_bytes: 64,
            ways: 2,
            hit_latency: 1,
        });
    }

    #[test]
    fn working_set_larger_than_capacity_misses() {
        let mut c = tiny();
        // 16 distinct lines > 8-line capacity: a second pass still misses.
        for i in 0..16u64 {
            c.access(i * 64, false);
        }
        let misses_before = c.stats().read_misses;
        for i in 0..16u64 {
            c.access(i * 64, false);
        }
        assert!(c.stats().read_misses > misses_before);
    }
}
