//! Set-associative cache timing model with LRU replacement.
//!
//! The cache is a *timing* model only: it holds no data, only which lines
//! would be resident (one recency-ordered tag array, see [`Cache`]), to
//! decide hit/miss latencies and to count dirty write-backs. Write-backs are
//! only counted, in [`CacheStats::writebacks`]: the hierarchy charges DRAM
//! time, `dram_bytes` and energy for misses alone, so an evicted dirty line
//! costs nothing (whether to charge it is open item 2 of `ROADMAP.md`).

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

/// Outcome of a single line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was already resident.
    pub hit: bool,
    /// Whether a dirty victim line had to be written back to the next level.
    pub writeback: bool,
}

/// The dirty flag of a tag entry.
const DIRTY: u64 = 1 << 63;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Tags live in one flat array of `sets × ways` entries, each set's ways in
/// recency order (most recently used first): `tag + 1` with the dirty flag
/// in bit 63, 0 for an empty way (empty ways sit behind valid ones). A hit
/// moves its entry to the front; a miss fills the first empty way or else
/// evicts the tail. LRU with invalid-first fill depends only on the order
/// within each set, never on which way holds a line, so this equals
/// timestamp LRU without a clock or per-way stamps.
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
    sets: u64,
    line_shift: u32,
    tags: Vec<u64>,
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
            sets: sets as u64,
            line_shift: config.line_bytes.trailing_zeros(),
            tags: vec![0; sets * config.ways],
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

    /// Where `addr`'s set starts in the tag array, and the line's tag
    /// entry (tag plus one, clean).
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        (set * self.config.ways, line / self.sets + 1)
    }

    /// Accesses the line containing `addr`, allocating it on a miss.
    /// Returns whether it hit and whether a dirty victim was evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (first, key) = self.locate(addr);
        self.access_line(first, key, is_write)
    }

    /// Accesses the `lines` consecutive lines starting with the one
    /// containing `addr`, in order, exactly as that many [`Cache::access`]
    /// calls would, but with one division for the whole run. Returns how
    /// many of them hit.
    pub fn access_run(&mut self, addr: u64, lines: u64, is_write: bool) -> u64 {
        let (mut first, mut key) = self.locate(addr);
        let mut hits = 0;
        for _ in 0..lines {
            hits += u64::from(self.access_line(first, key, is_write).hit);
            first += self.config.ways;
            if first == self.tags.len() {
                first = 0;
                key += 1;
            }
        }
        hits
    }

    fn access_line(&mut self, first: usize, key: u64, is_write: bool) -> AccessOutcome {
        debug_assert!(key < DIRTY, "tag overflows into the dirty flag");
        let ways = &mut self.tags[first..][..self.config.ways];
        // A hit moves its entry to the front; a miss takes the first empty
        // way, or else evicts the tail, and inserts at the front.
        let pos = ways
            .iter()
            .position(|&e| e & !DIRTY == key || e == 0)
            .unwrap_or(ways.len() - 1);
        let hit = ways[pos] & !DIRTY == key;
        let writeback = !hit && ways[pos] & DIRTY != 0;
        let mut entry = if hit { ways[pos] } else { key } | if is_write { DIRTY } else { 0 };
        for way in &mut ways[..=pos] {
            entry = std::mem::replace(way, entry);
        }
        let stats = &mut self.stats;
        match (hit, is_write) {
            (true, false) => stats.read_hits += 1,
            (true, true) => stats.write_hits += 1,
            (false, false) => stats.read_misses += 1,
            (false, true) => stats.write_misses += 1,
        }
        stats.writebacks += u64::from(writeback);
        AccessOutcome { hit, writeback }
    }

    /// True if the line containing `addr` is currently resident (no state change).
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        let (first, key) = self.locate(addr);
        self.tags[first..][..self.config.ways]
            .iter()
            .any(|&e| e & !DIRTY == key)
    }

    /// Clears the hit/miss counters without touching cache contents (used
    /// after a warm-up pass so measurements start from zero).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidates every line and clears dirty state (statistics are kept).
    pub fn flush(&mut self) {
        self.tags.fill(0);
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
