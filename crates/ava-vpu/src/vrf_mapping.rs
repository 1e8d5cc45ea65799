//! Second-level renaming: the VRF-Mapping engine.
//!
//! Three simple structures track where each Virtual Vector Register lives
//! (paper §III.A):
//!
//! * **PRMT** — Physical Register Mapping Table, VVR → physical register;
//! * **VRLT** — Vector Register Location Table, one bit per VVR saying
//!   whether the VVR currently lives in the P-VRF or in the M-VRF;
//! * **PFRL** — Physical Free Register List, the free physical registers.
//!
//! The model also keeps the reverse of the PRMT, physical register → VVR,
//! so the Swap Logic walks the few physical registers, not every VVR.

use std::collections::VecDeque;

use crate::rename::RenamedReg;

/// Where a VVR's value currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// Mapped to a physical register in the P-VRF.
    Physical(usize),
    /// Held in the memory vector register file (M-VRF).
    Memory,
    /// Never produced (no mapping at all).
    Unmapped,
}

/// The VRF-Mapping engine (PRMT + VRLT + PFRL).
///
/// ```
/// use ava_vpu::vrf_mapping::{Location, VrfMapping};
/// let mut m = VrfMapping::new(64, 8);
/// let p = m.allocate_physical(5).unwrap();
/// assert_eq!(m.location(5), Location::Physical(p));
/// m.move_to_memory(5);
/// assert_eq!(m.location(5), Location::Memory);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VrfMapping {
    /// PRMT: VVR → physical register (meaningful only when the VRLT bit says
    /// the VVR is physical).
    prmt: Vec<Option<usize>>,
    /// VRLT: true = in P-VRF, false = in M-VRF (or unmapped).
    vrlt: Vec<bool>,
    /// PFRL: free physical registers.
    pfrl: VecDeque<usize>,
    /// Reverse PRMT: the VVR each physical register holds, if any.
    owner: Vec<Option<RenamedReg>>,
    /// Whether the VVR has ever been given a home (distinguishes `Memory`
    /// from `Unmapped` when the VRLT bit is clear).
    mapped: Vec<bool>,
    num_physical: usize,
}

impl VrfMapping {
    /// Creates a mapping engine for `num_vvrs` VVRs backed by
    /// `num_physical` physical registers, all free.
    #[must_use]
    pub fn new(num_vvrs: usize, num_physical: usize) -> Self {
        assert!(
            num_physical >= 1,
            "at least one physical register is required"
        );
        Self {
            prmt: vec![None; num_vvrs],
            vrlt: vec![false; num_vvrs],
            pfrl: (0..num_physical).collect(),
            owner: vec![None; num_physical],
            mapped: vec![false; num_vvrs],
            num_physical,
        }
    }

    /// Total number of physical registers.
    #[must_use]
    pub fn num_physical(&self) -> usize {
        self.num_physical
    }

    /// Number of free physical registers.
    #[must_use]
    pub fn free_physical(&self) -> usize {
        self.pfrl.len()
    }

    /// True if at least one physical register is free.
    #[must_use]
    pub fn has_free_physical(&self) -> bool {
        !self.pfrl.is_empty()
    }

    /// Where the given VVR currently lives.
    #[must_use]
    pub fn location(&self, vvr: RenamedReg) -> Location {
        let i = vvr as usize;
        if self.vrlt[i] {
            Location::Physical(self.prmt[i].expect("VRLT bit set without a PRMT entry"))
        } else if self.mapped[i] {
            Location::Memory
        } else {
            Location::Unmapped
        }
    }

    /// Every VVR resident in the P-VRF with its physical register, in
    /// physical-register order; walks the physical registers, not the VVRs,
    /// and allocates nothing.
    pub fn resident(&self) -> impl Iterator<Item = (RenamedReg, usize)> + '_ {
        self.owner
            .iter()
            .enumerate()
            .filter_map(|(preg, vvr)| vvr.map(|v| (v, preg)))
    }

    /// Allocates a free physical register for `vvr`, recording the mapping.
    /// Returns `None` when the PFRL is empty (the Swap Mechanism must first
    /// evict a resident VVR).
    pub fn allocate_physical(&mut self, vvr: RenamedReg) -> Option<usize> {
        let preg = self.pfrl.pop_front()?;
        let i = vvr as usize;
        self.prmt[i] = Some(preg);
        self.vrlt[i] = true;
        self.mapped[i] = true;
        self.owner[preg] = Some(vvr);
        Some(preg)
    }

    /// Marks `vvr` as evicted to the M-VRF, freeing its physical register
    /// and returning it.
    ///
    /// # Panics
    ///
    /// Panics if the VVR is not currently resident in the P-VRF.
    pub fn move_to_memory(&mut self, vvr: RenamedReg) -> usize {
        let i = vvr as usize;
        assert!(self.vrlt[i], "VVR {vvr} is not resident in the P-VRF");
        self.vacate(i)
    }

    /// Releases the physical register of `vvr` without an M-VRF copy
    /// (aggressive reclamation of a dead value, or commit-time release of an
    /// old destination). The VVR becomes `Unmapped`.
    pub fn release(&mut self, vvr: RenamedReg) {
        let i = vvr as usize;
        if self.vrlt[i] {
            self.vacate(i);
        }
        self.mapped[i] = false;
        self.prmt[i] = None;
    }

    /// Frees the physical register of resident VVR `i` in every table
    /// (PRMT, VRLT, reverse map, PFRL) and returns it.
    fn vacate(&mut self, i: usize) -> usize {
        let preg = self.prmt[i]
            .take()
            .expect("resident VVR must have a physical register");
        self.vrlt[i] = false;
        self.owner[preg] = None;
        self.pfrl.push_back(preg);
        preg
    }

    /// Physical register currently backing `vvr`, if it is resident.
    #[must_use]
    pub fn physical_of(&self, vvr: RenamedReg) -> Option<usize> {
        if self.vrlt[vvr as usize] {
            self.prmt[vvr as usize]
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vvrs_are_unmapped() {
        let m = VrfMapping::new(64, 8);
        assert_eq!(m.location(0), Location::Unmapped);
        assert_eq!(m.free_physical(), 8);
        assert_eq!(m.num_physical(), 8);
    }

    #[test]
    fn allocate_then_evict_then_reallocate() {
        let mut m = VrfMapping::new(64, 2);
        let p0 = m.allocate_physical(10).unwrap();
        let p1 = m.allocate_physical(11).unwrap();
        assert_ne!(p0, p1);
        assert!(m.allocate_physical(12).is_none(), "PFRL exhausted");
        let freed = m.move_to_memory(10);
        assert_eq!(freed, p0);
        assert_eq!(m.location(10), Location::Memory);
        let p2 = m.allocate_physical(12).unwrap();
        assert_eq!(p2, p0, "freed register is reused");
        assert_eq!(m.location(12), Location::Physical(p0));
    }

    #[test]
    fn release_returns_register_and_unmaps() {
        let mut m = VrfMapping::new(8, 1);
        m.allocate_physical(3).unwrap();
        m.release(3);
        assert_eq!(m.location(3), Location::Unmapped);
        assert_eq!(m.free_physical(), 1);
        // Releasing a memory-resident VVR just clears the mapping.
        m.allocate_physical(4).unwrap();
        m.move_to_memory(4);
        m.release(4);
        assert_eq!(m.location(4), Location::Unmapped);
    }

    #[test]
    fn resident_list_matches_allocations() {
        let mut m = VrfMapping::new(16, 4);
        m.allocate_physical(1).unwrap();
        m.allocate_physical(5).unwrap();
        m.allocate_physical(9).unwrap();
        m.move_to_memory(5);
        let mut resident: Vec<_> = m.resident().map(|(v, _)| v).collect();
        resident.sort_unstable();
        assert_eq!(resident, vec![1, 9]);
        assert!(m.resident().all(|(v, p)| m.physical_of(v) == Some(p)));
        assert_eq!(m.physical_of(5), None);
        assert!(m.physical_of(1).is_some());
    }

    #[test]
    #[should_panic(expected = "not resident")]
    fn evicting_a_non_resident_vvr_panics() {
        let mut m = VrfMapping::new(8, 2);
        m.move_to_memory(0);
    }

    #[test]
    fn counts_stay_consistent_through_a_random_workout() {
        let mut m = VrfMapping::new(32, 4);
        // Deterministic pseudo-random churn.
        let mut state = 0x12345u64;
        let mut resident: Vec<u16> = Vec::new();
        for _ in 0..200 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let vvr = (state >> 33) as u16 % 32;
            match m.location(vvr) {
                Location::Physical(_) => {
                    m.move_to_memory(vvr);
                    resident.retain(|&v| v != vvr);
                }
                Location::Memory | Location::Unmapped => {
                    if m.has_free_physical() {
                        m.allocate_physical(vvr).unwrap();
                        resident.push(vvr);
                    }
                }
            }
            assert_eq!(m.free_physical() + resident.len(), 4);
            let mut expect = resident.clone();
            expect.sort_unstable();
            let mut listed: Vec<_> = m.resident().map(|(v, _)| v).collect();
            listed.sort_unstable();
            assert_eq!(listed, expect);
        }
    }
}
