//! Set-associative cache timing model with LRU replacement.
//!
//! The cache is a *timing* model only: it holds no data, only which lines
//! would be resident (one recency-ordered tag array, see [`Cache`]), to
//! decide hit/miss latencies and to count dirty write-backs. Write-backs are
//! only counted, in [`CacheStats::writebacks`]: the hierarchy charges DRAM
//! time, `dram_bytes` and energy for misses alone, so an evicted dirty line
//! costs nothing (whether to charge it is open item 2 of `ROADMAP.md`).
//!
//! Beside the tag array a presence bitmap holds one bit per line number
//! below [`TRACKED_LINES`]. Its invariant: a bit is set exactly when a
//! valid tag entry holds that line. A fill sets the bit, an eviction clears
//! the victim's, [`Cache::flush`] clears them all and `Clone` copies them.
//! So a miss on a tracked line is known from one bit, without a scan of
//! its set; only a hit (or a line above the tracked range) scans the set
//! for its tag.

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

/// Line numbers below this one have a presence bit (a bitmap of at most
/// 2 MiB, grown to the highest line filled); a line at or above it is
/// looked up by scanning its set.
pub const TRACKED_LINES: u64 = 1 << 24;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Tags live in one flat array of `sets × ways` entries, each set's ways in
/// recency order (most recently used first): `tag + 1` with the dirty flag
/// in bit 63, 0 for an empty way (empty ways sit behind valid ones). A hit
/// moves its entry to the front; a miss fills the first empty way or else
/// evicts the tail. LRU with invalid-first fill depends only on the order
/// within each set, never on which way holds a line, so this equals
/// timestamp LRU without a clock or per-way stamps. An access first
/// compares the most recently used way, then asks the presence bitmap (see
/// the module documentation): a miss inserts at the front and shifts the
/// set down, evicting the tail of a full set, without looking for its tag.
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
    /// One bit per line number below [`TRACKED_LINES`], set while the line
    /// is resident; words past the end read as all clear.
    present: Vec<u64>,
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
            present: Vec::new(),
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

    /// `addr`'s line number, where its set starts in the tag array, and
    /// the line's tag entry (tag plus one, clean).
    fn locate(&self, addr: u64) -> (u64, usize, u64) {
        let line = addr >> self.line_shift;
        let set = (line % self.sets) as usize;
        (line, set * self.config.ways, line / self.sets + 1)
    }

    /// Accesses the line containing `addr`, allocating it on a miss.
    /// Returns whether it hit and whether a dirty victim was evicted.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        let (line, first, key) = self.locate(addr);
        self.access_line(line, first, key, is_write)
    }

    /// Accesses the `lines` consecutive lines starting with the one
    /// containing `addr`, in order, exactly as that many [`Cache::access`]
    /// calls would, but with one division for the whole run. Returns how
    /// many of them hit.
    pub fn access_run(&mut self, addr: u64, lines: u64, is_write: bool) -> u64 {
        let (mut line, mut first, mut key) = self.locate(addr);
        let mut hits = 0;
        for _ in 0..lines {
            hits += u64::from(self.access_line(line, first, key, is_write).hit);
            line += 1;
            first += self.config.ways;
            if first == self.tags.len() {
                first = 0;
                key += 1;
            }
        }
        hits
    }

    fn access_line(&mut self, line: u64, first: usize, key: u64, is_write: bool) -> AccessOutcome {
        debug_assert!(key < DIRTY, "tag overflows into the dirty flag");
        let ways = &mut self.tags[first..][..self.config.ways];
        let dirty = if is_write { DIRTY } else { 0 };
        // Most hits are on the most recently used way. Past it, a clear
        // presence bit is a miss without a scan; a set one (or an
        // untracked line) scans for the tag.
        let pos = if ways[0] & !DIRTY == key {
            Some(0)
        } else if line < TRACKED_LINES && !bit(&self.present, line) {
            None
        } else {
            ways.iter().position(|&e| e & !DIRTY == key)
        };
        let hit = pos.is_some();
        let mut writeback = false;
        if let Some(pos) = pos {
            // A hit moves its entry to the front.
            let entry = ways[pos] | dirty;
            if pos > 0 {
                ways.copy_within(..pos, 1);
            }
            ways[0] = entry;
        } else {
            // A miss inserts at the front and shifts the set down: in a full
            // set through the tail, which it evicts, else only until it
            // displaces an empty way.
            let victim = ways[ways.len() - 1];
            if victim == 0 {
                let mut entry = key | dirty;
                for way in ways.iter_mut() {
                    entry = std::mem::replace(way, entry);
                    if entry == 0 {
                        break;
                    }
                }
            } else {
                ways.copy_within(..ways.len() - 1, 1);
                ways[0] = key | dirty;
                writeback = victim & DIRTY != 0;
                // The victim shares the set: its line differs from this
                // one by a whole number of set strides.
                let victim_line = line
                    .wrapping_add(((victim & !DIRTY).wrapping_sub(key)).wrapping_mul(self.sets));
                if victim_line < TRACKED_LINES {
                    clear_bit(&mut self.present, victim_line);
                }
            }
            if line < TRACKED_LINES {
                set_bit(&mut self.present, line);
            }
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
        let (line, first, key) = self.locate(addr);
        if line < TRACKED_LINES {
            return bit(&self.present, line);
        }
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
        self.present.clear();
    }
}

/// Whether `line`'s presence bit is set.
fn bit(present: &[u64], line: u64) -> bool {
    present
        .get((line >> 6) as usize)
        .is_some_and(|&w| w >> (line & 63) & 1 != 0)
}

/// Sets `line`'s presence bit, growing the bitmap to reach it.
fn set_bit(present: &mut Vec<u64>, line: u64) {
    let word = (line >> 6) as usize;
    if word >= present.len() {
        present.resize(word + 1, 0);
    }
    present[word] |= 1 << (line & 63);
}

/// Clears `line`'s presence bit, which a resident line always has.
fn clear_bit(present: &mut [u64], line: u64) {
    present[(line >> 6) as usize] &= !(1 << (line & 63));
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
        assert_bitmap_matches_tags(&c, "after the eviction");
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

    /// Asserts the presence bitmap's invariant: a bit is set exactly for
    /// the tracked lines some valid tag entry holds.
    fn assert_bitmap_matches_tags(c: &Cache, what: &str) {
        let mut expected = vec![0u64; c.present.len()];
        for (i, &e) in c.tags.iter().enumerate() {
            if e == 0 {
                continue;
            }
            let set = (i / c.config.ways) as u64;
            let line = ((e & !DIRTY) - 1) * c.sets + set;
            if line < TRACKED_LINES {
                assert!(
                    bit(&c.present, line),
                    "{what}: resident line {line} has no bit"
                );
                expected[(line >> 6) as usize] |= 1 << (line & 63);
            }
        }
        assert_eq!(expected, c.present, "{what}: bits without a resident line");
    }

    /// SplitMix64, for reproducible random streams.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    #[test]
    fn the_presence_bitmap_matches_the_tags_through_streams_flush_and_clone() {
        // 3 sets x 4 ways: every line number, tracked or not, maps to a
        // set; lines just below and above the tracked range share sets.
        let config = CacheConfig {
            size_bytes: 3 * 4 * 64,
            line_bytes: 64,
            ways: 4,
            hit_latency: 1,
        };
        let mut state = 7;
        for round in 0..4 {
            let mut c = Cache::new(config);
            let mut touched = Vec::new();
            for k in 0..3000 {
                // Half the lines near 0, a quarter straddling the tracked
                // limit, a quarter far above it.
                let r = next(&mut state);
                let line = match r % 4 {
                    0 | 1 => r >> 8 & 63,
                    2 => TRACKED_LINES - 16 + (r >> 8 & 31),
                    _ => (1 << 40) + (r >> 8 & 31),
                };
                let _ = c.access(line * 64, r >> 4 & 1 == 1);
                touched.push(line);
                if k % 500 == 0 {
                    assert_bitmap_matches_tags(&c, &format!("round {round}, access {k}"));
                }
            }
            assert_bitmap_matches_tags(&c, &format!("round {round}, after the stream"));
            let copy = c.clone();
            assert_bitmap_matches_tags(&copy, &format!("round {round}, the clone"));
            for &line in &touched {
                let resident = c.tags.iter().enumerate().any(|(i, &e)| {
                    e != 0 && ((e & !DIRTY) - 1) * c.sets + (i / config.ways) as u64 == line
                });
                assert_eq!(
                    c.contains(line * 64),
                    resident,
                    "round {round}: line {line}"
                );
                assert_eq!(
                    copy.contains(line * 64),
                    resident,
                    "round {round}: clone, line {line}"
                );
            }
            c.flush();
            assert_bitmap_matches_tags(&c, &format!("round {round}, flushed"));
            assert!(touched.iter().all(|&l| !c.contains(l * 64)));
            assert!(
                touched.iter().any(|&l| copy.contains(l * 64)),
                "the clone keeps its lines"
            );
        }
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
