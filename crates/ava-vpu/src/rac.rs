//! Register Access Counters (RAC).
//!
//! The RAC is a 3-bit × 64-entry structure holding, for each Virtual Vector
//! Register, how many outstanding accesses reference it (paper §III.C). The
//! counters are incremented at rename time for the new destination and the
//! sources, decremented for the old destination at rename time and for the
//! sources at commit time. A count of zero means the value can never be
//! read again, enabling aggressive register reclamation; the lowest non-zero
//! count identifies the best swap victim.

/// Saturating limit of each 3-bit counter.
const RAC_MAX: u8 = 7;

/// The Register Access Counter array.
///
/// ```
/// use ava_vpu::rac::Rac;
/// let mut rac = Rac::new(64);
/// rac.increment(3);
/// rac.increment(3);
/// assert_eq!(rac.count(3), 2);
/// rac.decrement(3);
/// assert_eq!(rac.count(3), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rac {
    counts: Vec<u8>,
}

impl Rac {
    /// Creates `entries` counters, all zero.
    #[must_use]
    pub fn new(entries: usize) -> Self {
        Self {
            counts: vec![0; entries],
        }
    }

    /// Number of counters.
    #[must_use]
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True if the structure has no counters.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Current count for a VVR.
    #[must_use]
    pub fn count(&self, vvr: u16) -> u8 {
        self.counts[vvr as usize]
    }

    /// Increments the counter for `vvr`, saturating at the 3-bit maximum.
    pub fn increment(&mut self, vvr: u16) {
        let c = &mut self.counts[vvr as usize];
        *c = (*c + 1).min(RAC_MAX);
    }

    /// Decrements the counter for `vvr`, saturating at zero.
    pub fn decrement(&mut self, vvr: u16) {
        let c = &mut self.counts[vvr as usize];
        *c = c.saturating_sub(1);
    }

    /// Forces the counter to zero (done when the VVR is returned to the FRL,
    /// which is why the counters never need to be checkpointed — §III.D).
    pub fn clear(&mut self, vvr: u16) {
        self.counts[vvr as usize] = 0;
    }

    /// True if the counter is zero, meaning the value can never be read
    /// again and its physical register may be reclaimed.
    #[must_use]
    pub fn is_reclaimable(&self, vvr: u16) -> bool {
        self.counts[vvr as usize] == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_start_at_zero_and_track_increments() {
        let mut rac = Rac::new(64);
        assert_eq!(rac.len(), 64);
        assert!(!rac.is_empty());
        assert!(rac.is_reclaimable(10));
        rac.increment(10);
        assert_eq!(rac.count(10), 1);
        assert!(!rac.is_reclaimable(10));
    }

    #[test]
    fn counters_saturate_at_three_bits() {
        let mut rac = Rac::new(8);
        for _ in 0..20 {
            rac.increment(0);
        }
        assert_eq!(rac.count(0), 7);
    }

    #[test]
    fn decrement_saturates_at_zero() {
        let mut rac = Rac::new(8);
        rac.decrement(1);
        assert_eq!(rac.count(1), 0);
        rac.increment(1);
        rac.decrement(1);
        rac.decrement(1);
        assert_eq!(rac.count(1), 0);
    }

    #[test]
    fn clear_resets_the_counter() {
        let mut rac = Rac::new(8);
        rac.increment(2);
        rac.increment(2);
        rac.clear(2);
        assert!(rac.is_reclaimable(2));
    }
}
