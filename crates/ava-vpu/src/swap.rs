//! The Swap Logic: victim selection for P-VRF ↔ M-VRF transfers.
//!
//! When the pre-issue stage needs a physical register but none is free, the
//! Swap Logic picks a resident VVR that is not a source (or the destination)
//! of the current instruction (paper §III.C). A VVR whose RAC already
//! reached zero is reclaimed *without* a Swap-Store (aggressive register
//! reclamation). Otherwise the victim is the one with the lowest RAC count,
//! and its contents go to the M-VRF with a Swap-Store. Both choices break
//! ties on timing: the value whose producer and readers finish first frees
//! its register soonest. The last tie-break is the VVR id, so the choice
//! never depends on the order the resident VVRs are visited in.

use crate::rac::Rac;
use crate::rename::RenamedReg;
use crate::vrf_mapping::VrfMapping;

/// What the Swap Logic decided to do to obtain a free physical register.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapDecision {
    /// A physical register was already free; no action needed.
    AlreadyFree,
    /// The victim VVR's counter is zero, so its register can be reclaimed
    /// without writing anything to memory.
    Reclaim(RenamedReg),
    /// The victim VVR is still live; a Swap-Store to the M-VRF is required
    /// before its physical register can be reused.
    SwapStore(RenamedReg),
}

/// Decides how to obtain one free physical register. `protected` lists the
/// VVRs that must not be evicted (the current instruction's sources and
/// destination, to avoid deadlock). `value_ready` is the cycle each VVR's
/// value is available, indexed by VVR; `preg_readers_done` is the cycle the
/// last reader of each physical register completes, indexed by register.
///
/// Returns `None` when no physical register can be freed (every resident
/// VVR is protected).
#[must_use]
pub fn plan_free_register(
    mapping: &VrfMapping,
    rac: &Rac,
    protected: &[RenamedReg],
    value_ready: &[u64],
    preg_readers_done: &[u64],
) -> Option<SwapDecision> {
    if mapping.has_free_physical() {
        return Some(SwapDecision::AlreadyFree);
    }
    // One walk with the swap key (count, blocking, id). A reclaimable VVR
    // has count zero, so when any candidate is reclaimable the minimum is
    // one, and among those it minimises (blocking, id): the reclaim choice.
    // `blocking` is when the victim's register is next writable: its value
    // produced and every reader of it done.
    let (_, _, v) = mapping
        .resident()
        .filter(|(v, _)| !protected.contains(v))
        .map(|(v, preg)| {
            let blocking = preg_readers_done[preg].max(value_ready[v as usize]);
            (rac.count(v), blocking, v)
        })
        .min()?;
    Some(if rac.is_reclaimable(v) {
        SwapDecision::Reclaim(v)
    } else {
        SwapDecision::SwapStore(v)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(num_physical: usize) -> (VrfMapping, Rac) {
        (VrfMapping::new(64, num_physical), Rac::new(64))
    }

    /// Plans with every value ready and every reader done at cycle 0, so
    /// only the RAC and the VVR id decide.
    fn plan(mapping: &VrfMapping, rac: &Rac, protected: &[RenamedReg]) -> Option<SwapDecision> {
        plan_free_register(mapping, rac, protected, &[0; 64], &[0; 64])
    }

    #[test]
    fn free_register_needs_no_swap() {
        let (mapping, rac) = setup(4);
        assert_eq!(plan(&mapping, &rac, &[]), Some(SwapDecision::AlreadyFree));
    }

    #[test]
    fn zero_count_victims_are_reclaimed_without_store() {
        let (mut mapping, mut rac) = setup(2);
        mapping.allocate_physical(1).unwrap();
        mapping.allocate_physical(2).unwrap();
        rac.increment(2); // VVR 2 still has readers; VVR 1 does not.
        assert_eq!(plan(&mapping, &rac, &[]), Some(SwapDecision::Reclaim(1)));
    }

    #[test]
    fn live_victims_require_a_swap_store() {
        let (mut mapping, mut rac) = setup(2);
        mapping.allocate_physical(1).unwrap();
        mapping.allocate_physical(2).unwrap();
        rac.increment(1);
        rac.increment(1);
        rac.increment(2);
        // Both live; VVR 2 has the lower count so it is the victim.
        assert_eq!(plan(&mapping, &rac, &[]), Some(SwapDecision::SwapStore(2)));
    }

    #[test]
    fn protected_vvrs_are_never_selected() {
        let (mut mapping, mut rac) = setup(2);
        mapping.allocate_physical(1).unwrap();
        mapping.allocate_physical(2).unwrap();
        rac.increment(1);
        rac.increment(2);
        rac.increment(2);
        // VVR 1 would normally be the victim (lower count), but it is a
        // source of the current instruction.
        assert_eq!(plan(&mapping, &rac, &[1]), Some(SwapDecision::SwapStore(2)));
    }

    #[test]
    fn all_protected_means_stall() {
        let (mut mapping, mut rac) = setup(2);
        mapping.allocate_physical(1).unwrap();
        mapping.allocate_physical(2).unwrap();
        rac.increment(1);
        rac.increment(2);
        assert_eq!(plan(&mapping, &rac, &[1, 2]), None);
    }

    #[test]
    fn timing_breaks_count_ties_and_the_vvr_id_breaks_timing_ties() {
        let (mut mapping, mut rac) = setup(3);
        // Allocated out of id order, so physical registers 0, 1, 2 hold
        // VVRs 5, 3, 4: the choice follows the keys, not the registers.
        for v in [5, 3, 4] {
            mapping.allocate_physical(v).unwrap();
            rac.increment(v);
        }
        let mut value_ready = [0u64; 64];
        value_ready[3] = 40;
        // Equal counts: VVR 3 blocks until cycle 40, so 4 and 5 tie at 0
        // and the lower id wins.
        let swap = plan_free_register(&mapping, &rac, &[], &value_ready, &[0; 64]);
        assert_eq!(swap, Some(SwapDecision::SwapStore(4)));
        // A physical register whose readers drain late blocks its VVR too.
        let preg4 = mapping.physical_of(4).unwrap();
        let mut readers_done = [0u64; 64];
        readers_done[preg4] = 50;
        let swap = plan_free_register(&mapping, &rac, &[], &value_ready, &readers_done);
        assert_eq!(swap, Some(SwapDecision::SwapStore(5)));
        // Among dead values the earliest-drained one is reclaimed.
        rac.clear(3);
        rac.clear(4);
        let reclaim = plan_free_register(&mapping, &rac, &[], &value_ready, &readers_done);
        assert_eq!(reclaim, Some(SwapDecision::Reclaim(3)));
    }
}
