//! The composed memory hierarchy: functional memory + L1D + L2 + DRAM plus
//! the vector memory unit's 512-bit L2 port.
//!
//! Two kinds of clients use the hierarchy:
//!
//! * the scalar core, whose loads/stores go through the L1 data cache;
//! * the vector memory unit (VMU), which — as in the paper's platform —
//!   bypasses the L1 and talks to the L2 directly over a 512-bit bus.
//!
//! Caches and DRAM produce only timing and statistics. A timing-only run's
//! [`MainMemory`] holds no data either, only the allocation cursor.

use crate::cache::{Cache, CacheConfig};
use crate::dram::{Dram, DramConfig};
use crate::mem::MainMemory;
use crate::port::BusPort;
use crate::stats::MemoryStats;

/// Static configuration of the whole hierarchy (Table II defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// L1 data cache configuration (scalar side).
    pub l1d: CacheConfig,
    /// Shared L2 configuration.
    pub l2: CacheConfig,
    /// DRAM timing.
    pub dram: DramConfig,
    /// Width in bytes of the VMU-to-L2 interface (512 bits = 64 B).
    pub vmu_bus_bytes: u64,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        Self {
            l1d: CacheConfig::l1d(),
            l2: CacheConfig::l2(),
            dram: DramConfig::default(),
            vmu_bus_bytes: 64,
        }
    }
}

/// Timing outcome of one vector memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessTiming {
    /// Cycles from issue until the request fully completes.
    pub total_cycles: u64,
    /// Cycles the VMU bus / L2 port is occupied (limits back-to-back throughput).
    pub occupancy_cycles: u64,
    /// Distinct cache lines touched.
    pub lines_touched: u64,
    /// Lines that hit in the L2.
    pub l2_hits: u64,
    /// Lines that missed in the L2 and were fetched from DRAM.
    pub l2_misses: u64,
}

/// The composed functional + timing memory system.
///
/// See the crate-level documentation for an example.
#[derive(Debug, Clone)]
pub struct MemoryHierarchy {
    config: HierarchyConfig,
    memory: MainMemory,
    l1d: Cache,
    l2: Cache,
    dram: Dram,
    vmu_port: BusPort,
    stats: MemoryStats,
    /// Scratch for the sorted, deduplicated lines of an element request.
    line_buf: Vec<u64>,
}

impl MemoryHierarchy {
    /// Creates a hierarchy with the given configuration and empty caches.
    #[must_use]
    pub fn new(config: HierarchyConfig) -> Self {
        Self::with_l2(config, Cache::new(config.l2))
    }

    /// Creates a hierarchy around `l2` as it stands, contents and counters:
    /// say, a copy of an L2 warmed earlier over the same working set. Every
    /// other part is fresh, as [`MemoryHierarchy::new`] makes it.
    ///
    /// # Panics
    ///
    /// Panics if `l2` was built for another configuration than `config.l2`.
    #[must_use]
    pub fn with_l2(config: HierarchyConfig, l2: Cache) -> Self {
        assert_eq!(
            *l2.config(),
            config.l2,
            "the L2 must have the hierarchy's geometry"
        );
        Self {
            config,
            memory: MainMemory::new(),
            l1d: Cache::new(config.l1d),
            l2,
            dram: Dram::new(config.dram),
            vmu_port: BusPort::new(config.vmu_bus_bytes),
            stats: MemoryStats::default(),
            line_buf: Vec::new(),
        }
    }

    /// The static configuration.
    #[must_use]
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    /// Allocates a buffer in the simulated address space.
    pub fn allocate(&mut self, bytes: u64) -> u64 {
        self.memory.alloc(bytes)
    }

    /// Shared read access to the functional memory.
    #[must_use]
    pub fn memory(&self) -> &MainMemory {
        &self.memory
    }

    /// Mutable access to the functional memory (used by workload set-up code
    /// to initialise input arrays without perturbing cache state).
    pub fn memory_mut(&mut self) -> &mut MainMemory {
        &mut self.memory
    }

    // ------------------------------------------------------------------
    // Functional accessors (no timing side effects)
    // ------------------------------------------------------------------

    /// Reads an `f64` from the functional memory.
    #[must_use]
    pub fn read_f64(&self, addr: u64) -> f64 {
        self.memory.read_f64(addr)
    }

    /// Writes an `f64` to the functional memory.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.memory.write_f64(addr, value);
    }

    /// Reads a `u64` from the functional memory.
    #[must_use]
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.memory.read_u64(addr)
    }

    /// Writes a `u64` to the functional memory.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.memory.write_u64(addr, value);
    }

    // ------------------------------------------------------------------
    // Timing accessors
    // ------------------------------------------------------------------

    /// Timing of a scalar load/store through L1 → L2 → DRAM.
    pub fn scalar_access(&mut self, addr: u64, is_write: bool) -> u64 {
        let l1 = self.l1d.access(addr, is_write);
        let mut latency = self.l1d.hit_latency();
        if !l1.hit {
            let l2 = self.l2.access(addr, is_write);
            latency += self.l2.hit_latency();
            if !l2.hit {
                latency += self.dram.access(addr, self.config.l2.line_bytes as u64);
                self.stats.dram_accesses += 1;
                self.stats.dram_bytes += self.config.l2.line_bytes as u64;
            }
        }
        latency
    }

    /// Timing of a vector memory request covering the explicit set of
    /// element addresses `element_addrs` (8 bytes per element). Used for
    /// strided and indexed accesses where elements may touch scattered lines.
    pub fn vector_access_elements(
        &mut self,
        element_addrs: &[u64],
        is_write: bool,
    ) -> AccessTiming {
        let shift = self.config.l2.line_bytes.trailing_zeros();
        let mut lines = std::mem::take(&mut self.line_buf);
        lines.clear();
        lines.extend(element_addrs.iter().map(|a| a >> shift));
        lines.sort_unstable();
        lines.dedup();
        let mut hits = 0;
        for &l in &lines {
            hits += u64::from(self.l2.access(l << shift, is_write).hit);
        }
        let (first, n) = (lines.first().copied(), lines.len() as u64);
        self.line_buf = lines;
        self.timing(first, n, hits, element_addrs.len() as u64 * 8)
    }

    /// Timing of a unit-stride vector request of `bytes` bytes at `base`.
    pub fn vector_access(&mut self, base: u64, bytes: u64, is_write: bool) -> AccessTiming {
        if bytes == 0 {
            return AccessTiming::default();
        }
        let shift = self.config.l2.line_bytes.trailing_zeros();
        let first = base >> shift;
        let lines = ((base + bytes - 1) >> shift) - first + 1;
        let hits = self.l2.access_run(base, lines, is_write);
        self.timing(Some(first), lines, hits, bytes)
    }

    /// The timing and traffic counters of a request of `bytes` bytes that
    /// touched `lines` L2 lines from line number `first`, `hits` of which hit.
    fn timing(&mut self, first: Option<u64>, lines: u64, hits: u64, bytes: u64) -> AccessTiming {
        let Some(first) = first else {
            return AccessTiming::default();
        };
        let line_bytes = self.config.l2.line_bytes as u64;
        let misses = lines - hits;
        // DRAM latency: one row activation for the request plus
        // bandwidth-limited streaming of the missed bytes.
        let dram_cycles = if misses > 0 {
            let missed_bytes = misses * line_bytes;
            self.stats.dram_accesses += misses;
            self.stats.dram_bytes += missed_bytes;
            self.dram.access(first * line_bytes, missed_bytes)
        } else {
            0
        };
        // The VMU port moves whole lines and is occupied for however many
        // cycles the configured bus width needs for them (one cycle per
        // 64 B line on the paper's 512-bit interface).
        let occupancy = self.vmu_port.occupancy_cycles_for(lines * line_bytes);
        let total = self.l2.hit_latency() + dram_cycles + occupancy;

        self.stats.vmu_bytes += bytes;
        self.stats.vector_requests += 1;

        AccessTiming {
            total_cycles: total,
            occupancy_cycles: occupancy,
            lines_touched: lines,
            l2_hits: hits,
            l2_misses: misses,
        }
    }

    /// The L2 cache.
    #[must_use]
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Aggregate statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> MemoryStats {
        let mut s = self.stats;
        s.l1d = *self.l1d.stats();
        s.l2 = *self.l2.stats();
        s
    }

    /// Invalidates both caches (used between benchmark iterations).
    pub fn flush_caches(&mut self) {
        self.l1d.flush();
        self.l2.flush();
    }

    /// Warms every `[start, end)` range of `ranges`, in order, then clears
    /// all statistics once. This models measuring a region of interest with
    /// warm caches, as the paper's gem5 runs do; data sets larger than the
    /// L2 naturally still miss during the measured run. The simulator
    /// derives the ranges from the workload's planned data layout (every
    /// buffer the run touches), so auxiliary regions stay cold. The spill
    /// arena is one: it is MVL-wide per slot, and warming it would
    /// evict the application's working set from small L2 configurations
    /// before the run starts. Dead placeholder buffers of pipelined
    /// composites are another.
    pub fn warm_caches_ranges(&mut self, ranges: &[(u64, u64)]) {
        let line = self.config.l2.line_bytes as u64;
        for &(start, end) in ranges {
            self.l2
                .access_run(start, end.saturating_sub(start).div_ceil(line), false);
        }
        self.reset_stats();
    }

    /// Clears every statistics counter (caches, DRAM, VMU traffic) without
    /// changing cache contents or functional memory.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
        self.stats = MemoryStats::default();
    }
}

impl Default for MemoryHierarchy {
    fn default() -> Self {
        Self::new(HierarchyConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functional_reads_and_writes_roundtrip() {
        let mut h = MemoryHierarchy::default();
        let a = h.allocate(128);
        h.write_f64(a, 2.25);
        h.write_u64(a + 8, 99);
        assert_eq!(h.read_f64(a), 2.25);
        assert_eq!(h.read_u64(a + 8), 99);
    }

    #[test]
    fn vector_access_counts_lines_correctly() {
        let mut h = MemoryHierarchy::default();
        // 16 elements * 8 bytes = 128 bytes = 2 lines when aligned.
        let t = h.vector_access(0x1_0000, 128, false);
        assert_eq!(t.lines_touched, 2);
        assert_eq!(t.occupancy_cycles, 2);
        // Unaligned base straddles one extra line.
        let t2 = h.vector_access(0x1_0000 + 8, 128, false);
        assert_eq!(t2.lines_touched, 3);
    }

    #[test]
    fn second_access_hits_in_l2_and_is_faster() {
        let mut h = MemoryHierarchy::default();
        let cold = h.vector_access(0x2_0000, 1024, false);
        let warm = h.vector_access(0x2_0000, 1024, false);
        assert!(cold.l2_misses > 0);
        assert_eq!(warm.l2_misses, 0);
        assert!(warm.total_cycles < cold.total_cycles);
        assert!(warm.total_cycles >= 12, "at least the L2 latency");
    }

    #[test]
    fn strided_elements_touch_more_lines_than_unit_stride() {
        let mut h = MemoryHierarchy::default();
        let unit: Vec<u64> = (0..16u64).map(|i| 0x4_0000 + 8 * i).collect();
        let strided: Vec<u64> = (0..16u64).map(|i| 0x8_0000 + 512 * i).collect();
        let a = h.vector_access_elements(&unit, false);
        let b = h.vector_access_elements(&strided, false);
        assert_eq!(a.lines_touched, 2);
        assert_eq!(b.lines_touched, 16);
        assert!(b.total_cycles > a.total_cycles);
    }

    #[test]
    fn scalar_accesses_use_the_l1() {
        let mut h = MemoryHierarchy::default();
        let cold = h.scalar_access(0x3_0000, false);
        let warm = h.scalar_access(0x3_0000, false);
        assert!(cold > warm);
        assert_eq!(warm, 4, "L1 hit latency");
        assert_eq!(h.stats().l1d.read_hits, 1);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut h = MemoryHierarchy::default();
        let t = h.vector_access(0x100, 0, false);
        assert_eq!(t.total_cycles, 0);
        assert_eq!(t.lines_touched, 0);
    }

    #[test]
    fn stats_track_vmu_traffic() {
        let mut h = MemoryHierarchy::default();
        h.vector_access(0x5_0000, 256, true);
        h.vector_access(0x5_0000, 256, false);
        let s = h.stats();
        assert_eq!(s.vector_requests, 2);
        assert_eq!(s.vmu_bytes, 512);
        assert!(s.dram_bytes > 0);
    }

    /// Warms `ranges` into a 3-set, 2-way L2 of 64 B lines, checks that it
    /// then holds exactly the lines a walk of one `access` per line-sized
    /// step from each range's start would leave, and returns it.
    fn warmed_like_a_walk(ranges: &[(u64, u64)]) -> MemoryHierarchy {
        let l2 = CacheConfig {
            size_bytes: 3 * 2 * 64,
            line_bytes: 64,
            ways: 2,
            hit_latency: 12,
        };
        let config = HierarchyConfig {
            l2,
            ..HierarchyConfig::default()
        };
        let mut h = MemoryHierarchy::new(config);
        h.warm_caches_ranges(ranges);
        let mut walked = Cache::new(l2);
        for &(start, end) in ranges {
            let mut addr = start;
            while addr < end {
                let _ = walked.access(addr, false);
                addr += 64;
            }
        }
        for line in 0..64 {
            assert_eq!(
                h.l2.contains(line * 64),
                walked.contains(line * 64),
                "{ranges:?}: line {line}"
            );
        }
        assert_eq!(h.stats(), MemoryStats::default(), "{ranges:?}: counters");
        h
    }

    #[test]
    fn warming_a_range_that_starts_mid_line_touches_the_walks_lines() {
        // [32, 90) steps once: line 0 only, though bytes 64..90 lie in line 1.
        let h = warmed_like_a_walk(&[(32, 90)]);
        assert!(h.l2.contains(0) && !h.l2.contains(64));
        // Several ranges, one wrapping the sets many times and evicting.
        let _ = warmed_like_a_walk(&[(32, 90), (100, 1000), (1500, 3000)]);
    }

    #[test]
    fn warming_an_empty_range_touches_nothing() {
        let h = warmed_like_a_walk(&[(640, 640), (900, 100)]);
        assert!((0..64).all(|line| !h.l2.contains(line * 64)));
    }

    #[test]
    #[should_panic(expected = "geometry")]
    fn a_hierarchy_refuses_an_l2_of_another_geometry() {
        let _ =
            MemoryHierarchy::with_l2(HierarchyConfig::default(), Cache::new(CacheConfig::l1d()));
    }

    #[test]
    fn flush_caches_forces_misses_again() {
        let mut h = MemoryHierarchy::default();
        h.vector_access(0x6_0000, 64, false);
        h.flush_caches();
        let t = h.vector_access(0x6_0000, 64, false);
        assert_eq!(t.l2_misses, 1);
    }
}
