//! Fixed-latency, bandwidth-limited DRAM timing model.
//!
//! The paper's platform uses 2 GB of DDR3 behind the L2. For the relative
//! comparisons in the evaluation what matters is that misses in the L2 pay a
//! substantially larger latency than L2 hits and that sustained bandwidth is
//! finite; this model captures both with a row-buffer-friendly open-page
//! approximation: accesses that stay within the currently open row are
//! cheaper than accesses that open a new row.

/// DRAM timing configuration (in VPU cycles at 1 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DramConfig {
    /// Latency of an access that hits the open row.
    pub row_hit_latency: u64,
    /// Latency of an access that must open a new row.
    pub row_miss_latency: u64,
    /// Row (page) size in bytes.
    pub row_bytes: u64,
    /// Bytes transferred per cycle once streaming (peak bandwidth).
    pub bytes_per_cycle: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // DDR3-1600 behind a 1 GHz VPU clock: ~60 cycles to open a row,
        // ~30 cycles for an open-row access, 2 KB rows, 12.8 GB/s ≈ 12 B/cycle.
        Self {
            row_hit_latency: 30,
            row_miss_latency: 60,
            row_bytes: 2048,
            bytes_per_cycle: 12,
        }
    }
}

/// DRAM timing model.
///
/// ```
/// use ava_memory::{Dram, DramConfig};
/// let mut d = Dram::new(DramConfig::default());
/// let first = d.access(0, 64);
/// let second = d.access(64, 64);
/// assert!(second <= first, "open-row access is not slower");
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    config: DramConfig,
    open_row: Option<u64>,
    accesses: u64,
    row_misses: u64,
}

impl Dram {
    /// Creates a DRAM model with the given timing parameters.
    #[must_use]
    pub fn new(config: DramConfig) -> Self {
        assert!(
            config.bytes_per_cycle > 0,
            "DRAM bandwidth must be non-zero"
        );
        Self {
            config,
            open_row: None,
            accesses: 0,
            row_misses: 0,
        }
    }

    /// The timing configuration.
    #[must_use]
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Latency in cycles to fetch `bytes` bytes starting at `addr`.
    pub fn access(&mut self, addr: u64, bytes: u64) -> u64 {
        self.accesses += 1;
        let row = addr / self.config.row_bytes;
        let latency = if self.open_row == Some(row) {
            self.config.row_hit_latency
        } else {
            self.row_misses += 1;
            self.open_row = Some(row);
            self.config.row_miss_latency
        };
        latency + bytes.div_ceil(self.config.bytes_per_cycle)
    }

    /// Total accesses served.
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Accesses that had to open a new row.
    #[must_use]
    pub fn row_misses(&self) -> u64 {
        self.row_misses
    }
}

impl Default for Dram {
    fn default() -> Self {
        Self::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_opens_a_row() {
        let mut d = Dram::default();
        let lat = d.access(0x100, 64);
        assert!(lat >= DramConfig::default().row_miss_latency);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn same_row_accesses_are_cheaper() {
        let mut d = Dram::default();
        let a = d.access(0, 64);
        let b = d.access(128, 64);
        assert!(b < a);
        assert_eq!(d.row_misses(), 1);
    }

    #[test]
    fn crossing_rows_reopens() {
        let mut d = Dram::default();
        d.access(0, 64);
        d.access(4096, 64); // different 2 KB row
        assert_eq!(d.row_misses(), 2);
    }

    #[test]
    fn larger_transfers_take_longer() {
        let mut d = Dram::default();
        d.access(0, 64);
        let small = d.access(64, 64);
        let large = d.access(128, 640);
        assert!(large > small);
    }

    #[test]
    fn statistics_accumulate() {
        let mut d = Dram::default();
        d.access(0, 64);
        d.access(64, 64);
        assert_eq!(d.accesses(), 2);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_is_rejected() {
        let _ = Dram::new(DramConfig {
            bytes_per_cycle: 0,
            ..DramConfig::default()
        });
    }
}
