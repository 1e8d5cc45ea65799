//! First-level renaming: logical registers to renamed registers.
//!
//! In AVA mode the renamed registers are the 64 Virtual Vector Registers
//! (VVRs); in NATIVE/RG mode they are the physical registers themselves.
//! The unit consists of the Register Alias Table (RAT) and the Free Register
//! List (FRL), exactly as in Figure 1 of the paper. Old destinations are
//! released back to the FRL when the renaming instruction commits. The
//! simulated runs never flush, so the unit keeps no checkpoint of the
//! RAT/FRL state for misspeculation recovery (paper §III.D).
//!
//! The unit sits on the per-instruction hot path of every simulated point,
//! so it is allocation-free in steady state: renamed sources live in the
//! fixed-capacity inline [`SrcList`] (no `Vec` push per instruction), FRL
//! membership is tracked in a bitmap so the double-release check is O(1)
//! instead of an O(pool) scan.

use std::collections::VecDeque;

use ava_isa::{RegList, VReg};

/// Identifier of a renamed register (VVR id in AVA mode, physical register
/// id in NATIVE mode).
pub type RenamedReg = u16;

/// The renamed source registers of one instruction, inline in
/// [`Renamed`], so renaming an instruction performs no heap allocation.
pub type SrcList = RegList<RenamedReg>;

/// Result of renaming one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Renamed {
    /// Renamed register allocated for the destination (if the instruction
    /// writes one).
    pub dst: Option<RenamedReg>,
    /// The previous mapping of the destination logical register; released to
    /// the FRL when this instruction commits.
    pub old_dst: Option<RenamedReg>,
    /// Renamed registers for each register source, in operand order.
    pub srcs: SrcList,
}

/// RAT + FRL renaming unit.
///
/// ```
/// use ava_vpu::rename::RenameUnit;
/// use ava_isa::VReg;
/// let mut r = RenameUnit::new(8);
/// let a = r.rename(Some(VReg::new(1)), &[]).unwrap();
/// let b = r.rename(Some(VReg::new(2)), &[VReg::new(1)]).unwrap();
/// assert_eq!(b.srcs[0], a.dst.unwrap());
/// ```
#[derive(Debug, Clone)]
pub struct RenameUnit {
    rat: Vec<Option<RenamedReg>>,
    frl: VecDeque<RenamedReg>,
    /// FRL membership bitmap, indexed by renamed register id: O(1)
    /// double-release detection instead of scanning the deque.
    in_frl: Vec<bool>,
    pool_size: usize,
}

/// Error returned when renaming requires a register but the FRL is empty or
/// a source has never been written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RenameError {
    /// No renamed register is available for the destination; the front end
    /// must stall until an instruction commits.
    NoFreeRegister,
    /// A source logical register was read before ever being written.
    UseBeforeDef(VReg),
}

impl std::fmt::Display for RenameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RenameError::NoFreeRegister => write!(f, "free register list is empty"),
            RenameError::UseBeforeDef(r) => write!(f, "logical register {r} read before written"),
        }
    }
}

impl std::error::Error for RenameError {}

impl RenameUnit {
    /// Creates a renaming unit with `pool_size` renamed registers, all free.
    ///
    /// Mappings are created lazily: a logical register only consumes a
    /// renamed register once it is written, so configurations with fewer
    /// renamed registers than architectural names (RG-LMUL8 has 8 physical
    /// registers for 4 usable names) still work.
    #[must_use]
    pub fn new(pool_size: usize) -> Self {
        assert!(
            pool_size >= 4,
            "renamed register pool must hold at least 4 registers"
        );
        Self {
            rat: vec![None; ava_isa::NUM_LOGICAL_VREGS],
            frl: (0..pool_size as RenamedReg).collect(),
            in_frl: vec![true; pool_size],
            pool_size,
        }
    }

    /// Number of renamed registers in the pool.
    #[must_use]
    pub fn pool_size(&self) -> usize {
        self.pool_size
    }

    /// Number of currently free renamed registers.
    #[must_use]
    pub fn free_count(&self) -> usize {
        self.frl.len()
    }

    /// Current mapping of a logical register, if any.
    #[must_use]
    pub fn mapping(&self, logical: VReg) -> Option<RenamedReg> {
        self.rat[logical.index()]
    }

    /// Renames one instruction: sources are looked up in the RAT, the
    /// destination receives a fresh renamed register from the FRL and the
    /// previous mapping is reported as `old_dst`.
    ///
    /// # Errors
    ///
    /// Returns [`RenameError::NoFreeRegister`] when a destination is needed
    /// but the FRL is empty, and [`RenameError::UseBeforeDef`] when a source
    /// has no mapping.
    pub fn rename(&mut self, dst: Option<VReg>, srcs: &[VReg]) -> Result<Renamed, RenameError> {
        let mut renamed_srcs = SrcList::new();
        for s in srcs {
            match self.rat[s.index()] {
                Some(r) => renamed_srcs.push(r),
                None => return Err(RenameError::UseBeforeDef(*s)),
            }
        }
        let (new_dst, old_dst) = if let Some(d) = dst {
            let Some(fresh) = self.frl.pop_front() else {
                return Err(RenameError::NoFreeRegister);
            };
            self.in_frl[fresh as usize] = false;
            let old = self.rat[d.index()].replace(fresh);
            (Some(fresh), old)
        } else {
            (None, None)
        };
        Ok(Renamed {
            dst: new_dst,
            old_dst,
            srcs: renamed_srcs,
        })
    }

    /// Releases a renamed register back to the FRL (called when the
    /// instruction that superseded it commits).
    ///
    /// # Panics
    ///
    /// Panics if the register is already free (double release).
    pub fn release(&mut self, reg: RenamedReg) {
        assert!(
            (reg as usize) < self.pool_size,
            "register {reg} outside pool"
        );
        assert!(
            !self.in_frl[reg as usize],
            "renamed register {reg} released twice"
        );
        self.in_frl[reg as usize] = true;
        self.frl.push_back(reg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sources_see_the_latest_mapping() {
        let mut r = RenameUnit::new(16);
        let w1 = r.rename(Some(VReg::new(5)), &[]).unwrap();
        let w2 = r.rename(Some(VReg::new(5)), &[]).unwrap();
        let read = r.rename(Some(VReg::new(6)), &[VReg::new(5)]).unwrap();
        assert_eq!(read.srcs[0], w2.dst.unwrap());
        assert_ne!(w1.dst, w2.dst);
    }

    #[test]
    fn old_destination_is_reported_for_release() {
        let mut r = RenameUnit::new(16);
        let w1 = r.rename(Some(VReg::new(3)), &[]).unwrap();
        let w2 = r.rename(Some(VReg::new(3)), &[]).unwrap();
        assert_eq!(w1.old_dst, None);
        assert_eq!(w2.old_dst, w1.dst);
    }

    #[test]
    fn pool_exhaustion_reports_stall_and_release_recovers() {
        let mut r = RenameUnit::new(4);
        let mut renames = Vec::new();
        for i in 0..4 {
            renames.push(r.rename(Some(VReg::new(i)), &[]).unwrap());
        }
        assert_eq!(r.free_count(), 0);
        assert_eq!(
            r.rename(Some(VReg::new(9)), &[]),
            Err(RenameError::NoFreeRegister)
        );
        // Releasing one register lets renaming continue.
        r.release(renames[0].dst.unwrap());
        assert!(r.rename(Some(VReg::new(9)), &[]).is_ok());
    }

    #[test]
    fn use_before_def_is_an_error() {
        let mut r = RenameUnit::new(8);
        assert_eq!(
            r.rename(None, &[VReg::new(7)]),
            Err(RenameError::UseBeforeDef(VReg::new(7)))
        );
    }

    #[test]
    fn stores_do_not_consume_registers() {
        let mut r = RenameUnit::new(4);
        r.rename(Some(VReg::new(0)), &[]).unwrap();
        let free_before = r.free_count();
        let st = r.rename(None, &[VReg::new(0)]).unwrap();
        assert_eq!(st.dst, None);
        assert_eq!(r.free_count(), free_before);
    }

    #[test]
    #[should_panic(expected = "released twice")]
    fn double_release_is_detected() {
        let mut r = RenameUnit::new(4);
        let w = r.rename(Some(VReg::new(0)), &[]).unwrap();
        let w2 = r.rename(Some(VReg::new(0)), &[]).unwrap();
        let old = w2.old_dst.unwrap();
        assert_eq!(old, w.dst.unwrap());
        r.release(old);
        r.release(old);
    }

    #[test]
    #[should_panic(expected = "outside pool")]
    fn out_of_pool_release_is_detected() {
        let mut r = RenameUnit::new(4);
        r.release(99);
    }

    #[test]
    fn src_list_behaves_like_a_slice() {
        let mut r = RenameUnit::new(8);
        let a = r.rename(Some(VReg::new(1)), &[]).unwrap();
        let b = r.rename(Some(VReg::new(2)), &[]).unwrap();
        let read = r
            .rename(
                Some(VReg::new(3)),
                &[VReg::new(1), VReg::new(2), VReg::new(1)],
            )
            .unwrap();
        assert_eq!(read.srcs.len(), 3);
        assert_eq!(read.srcs[0], a.dst.unwrap());
        assert_eq!(read.srcs[2], a.dst.unwrap());
        let collected: Vec<RenamedReg> = read.srcs.iter().copied().collect();
        assert_eq!(&collected, read.srcs.as_slice());
        let mut by_ref = Vec::new();
        for &s in &read.srcs {
            by_ref.push(s);
        }
        assert_eq!(by_ref, vec![a.dst.unwrap(), b.dst.unwrap(), a.dst.unwrap()]);
        assert_eq!(format!("{:?}", read.srcs), format!("{:?}", collected));
    }

    #[test]
    fn lazy_mapping_supports_small_pools() {
        // RG-LMUL8: 8 physical registers, only 4 architectural names used.
        let mut r = RenameUnit::new(8);
        for name in [0u8, 8, 16, 24] {
            r.rename(Some(VReg::new(name)), &[]).unwrap();
        }
        assert_eq!(r.free_count(), 4);
    }
}
