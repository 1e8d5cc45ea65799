//! The Memory Vector Register File (M-VRF).
//!
//! The M-VRF is an ordinary region of memory (reserved by the
//! `set_virtual_vrf` intrinsic in the paper; by an allocation in the
//! functional memory here) holding one full-MVL slot per Virtual Vector
//! Register.
//! VVRs that do not fit in the P-VRF live here; the Swap Mechanism moves
//! them back and forth with Swap-Store / Swap-Load memory operations, which
//! travel through the same vector memory unit as ordinary vector accesses
//! and therefore consume real bandwidth and energy. The model moves no
//! data through it: the timing model charges each slot access and carries
//! the id of the instruction whose value a slot holds.

use ava_memory::MainMemory;

/// The memory-resident second level of the vector register file.
///
/// ```
/// use ava_vpu::mvrf::MemoryVrf;
/// use ava_memory::MainMemory;
/// let mut mem = MainMemory::new();
/// let mvrf = MemoryVrf::allocate(&mut mem, 64, 32);
/// assert_eq!(mvrf.slot_addr(7) - mvrf.base(), 7 * 32 * 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryVrf {
    base: u64,
    num_vvrs: usize,
    mvl: usize,
}

impl MemoryVrf {
    /// Reserves space for `num_vvrs` registers of `mvl` elements in the
    /// simulated memory (the paper's `set_virtual_vrf` intrinsic).
    #[must_use]
    pub fn allocate(mem: &mut MainMemory, num_vvrs: usize, mvl: usize) -> Self {
        let bytes = (num_vvrs * mvl * 8) as u64;
        let base = mem.alloc(bytes.max(8));
        Self {
            base,
            num_vvrs,
            mvl,
        }
    }

    /// Base address of the M-VRF region.
    #[must_use]
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Total size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        (self.num_vvrs * self.mvl * 8) as u64
    }

    /// Address of the slot backing a VVR.
    ///
    /// # Panics
    ///
    /// Panics if `vvr` is out of range.
    #[must_use]
    pub fn slot_addr(&self, vvr: u16) -> u64 {
        assert!((vvr as usize) < self.num_vvrs, "VVR {vvr} out of range");
        self.base + (vvr as u64) * (self.mvl as u64) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_disjoint_and_sized_by_mvl() {
        let mut mem = MainMemory::new();
        let m = MemoryVrf::allocate(&mut mem, 64, 128);
        assert_eq!(m.size_bytes(), 64 * 128 * 8);
        assert_eq!(m.slot_addr(1) - m.slot_addr(0), 128 * 8);
        assert_eq!(m.slot_addr(63) - m.base(), 63 * 128 * 8);
    }

    #[test]
    fn distinct_mvrfs_do_not_overlap() {
        let mut mem = MainMemory::new();
        let a = MemoryVrf::allocate(&mut mem, 4, 16);
        let b = MemoryVrf::allocate(&mut mem, 4, 16);
        assert!(a.slot_addr(3) + 16 * 8 <= b.base());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_slot_panics() {
        let mut mem = MainMemory::new();
        let m = MemoryVrf::allocate(&mut mem, 4, 16);
        let _ = m.slot_addr(4);
    }
}
