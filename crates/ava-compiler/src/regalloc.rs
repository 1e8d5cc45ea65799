//! Belady (furthest-next-use) register allocation with spill-code insertion.
//!
//! The allocator maps the kernel's virtual registers onto `k` architectural
//! register *slots*. Whenever more values are live than slots exist, the
//! value whose next use is furthest away is spilled to a stack slot; a
//! reload is inserted before the next instruction that reads it. Because
//! the compiler does not know the application vector length (paper §II.A),
//! spill stores and reloads are executed with the full maximum vector
//! length — that inefficiency is exactly what the paper measures for the
//! RG-LMUL configurations.
//!
//! Values are SSA (defined once), so a value that has already been spilled
//! is clean: evicting it again needs no second store.
//!
//! The allocator runs once per compiled key of every sweep, so it performs
//! no heap allocation per instruction. Its state is kept in dense vectors
//! indexed by the (small, densely numbered) virtual-register id — no hash
//! maps on the per-instruction path. An instruction's register sources are
//! read straight from its inline operand list, and the slots they get are
//! recorded in an inline [`RegList`]; the output stream is reserved for
//! one entry per instruction up front. Victim selection iterates the
//! architectural slots in order and maximises the `(next_use, reg id)`
//! pair; the keys are distinct, so the choice is independent of iteration
//! order.

use ava_isa::{InstrKind, RegList};

use crate::ir::{IrKernel, VirtReg};
use crate::liveness::Liveness;

/// One element of the allocated instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Allocation {
    /// An original kernel instruction, with its operands assigned to slots.
    Op {
        /// Index of the instruction in the original [`IrKernel`].
        ir_index: usize,
        /// Slot assigned to the destination, if the instruction defines one.
        dst_slot: Option<usize>,
        /// Slot assigned to each *register* source, in source order
        /// (scalar operands are not listed).
        src_slots: RegList<u8>,
    },
    /// Compiler-inserted spill store of the value currently held in `slot`.
    SpillStore {
        /// Architectural slot being spilled.
        slot: usize,
        /// Stack address of the spill slot.
        addr: u64,
    },
    /// Compiler-inserted reload into `slot`.
    SpillLoad {
        /// Architectural slot receiving the reload.
        slot: usize,
        /// Stack address of the spill slot.
        addr: u64,
    },
}

/// The result of register allocation.
#[derive(Debug, Clone, Default)]
pub struct AllocatedKernel {
    /// Allocated instruction stream (original ops interleaved with spills).
    pub allocations: Vec<Allocation>,
    /// Number of spill stores inserted.
    pub spill_stores: usize,
    /// Number of spill reloads inserted.
    pub spill_loads: usize,
    /// Highest slot index ever used plus one (how many architectural
    /// registers the kernel actually needed).
    pub slots_used: usize,
    /// Bytes of stack reserved for spill slots.
    pub spill_area_bytes: u64,
    /// Maximum simultaneous live values in the source IR, from the same
    /// liveness pass the allocation used (equal to
    /// [`IrKernel::max_pressure`]).
    pub max_pressure: usize,
}

/// Belady register allocator.
///
/// ```
/// use ava_compiler::{KernelBuilder, RegAllocator};
/// let mut b = KernelBuilder::new("t");
/// let x = b.vload(0);
/// let y = b.vload(64);
/// let z = b.vfadd(x, y);
/// b.vstore(z, 128);
/// let alloc = RegAllocator::new(4, 0x1_0000, 1024).allocate(&b.finish());
/// assert_eq!(alloc.spill_stores, 0);
/// assert!(alloc.slots_used <= 3);
/// ```
#[derive(Debug, Clone)]
pub struct RegAllocator {
    slots: usize,
    spill_base: u64,
    spill_slot_bytes: u64,
}

impl RegAllocator {
    /// Creates an allocator with `slots` architectural registers available,
    /// spilling to stack addresses starting at `spill_base` in chunks of
    /// `spill_slot_bytes` (one maximum-length vector register each).
    ///
    /// # Panics
    ///
    /// Panics if `slots < 4`: three source operands plus a destination must
    /// fit simultaneously (the RISC-V RG configuration with LMUL=8 has
    /// exactly 4 architectural registers, the minimum workable budget).
    #[must_use]
    pub fn new(slots: usize, spill_base: u64, spill_slot_bytes: u64) -> Self {
        assert!(
            slots >= 4,
            "at least 4 architectural registers are required, got {slots}"
        );
        assert!(
            spill_slot_bytes >= 8,
            "spill slots must hold at least one element"
        );
        Self {
            slots,
            spill_base,
            spill_slot_bytes,
        }
    }

    /// Runs allocation over a kernel.
    #[must_use]
    pub fn allocate(&self, kernel: &IrKernel) -> AllocatedKernel {
        let liveness = Liveness::analyse(kernel);
        // Liveness tables are dense over the kernel's virtual-register ids,
        // which bounds the dense tables below.
        let nregs = liveness.num_regs();

        let mut st = AllocState {
            spill_base: self.spill_base,
            spill_slot_bytes: self.spill_slot_bytes,
            liveness: &liveness,
            slot_of: vec![None; nregs],
            slot_owner: vec![None; self.slots],
            free: (0..self.slots).rev().collect(),
            in_memory: vec![false; nregs],
            spill_addr: vec![None; nregs],
            protected: vec![false; nregs],
            next_spill_slot: 0,
            max_slot_used: 0,
            out: AllocatedKernel {
                // One entry per instruction, plus whatever spill code it needs.
                allocations: Vec::with_capacity(kernel.len()),
                ..AllocatedKernel::default()
            },
        };

        for (idx, instr) in kernel.instrs.iter().enumerate() {
            if instr.kind() == InstrKind::Config {
                st.out.allocations.push(Allocation::Op {
                    ir_index: idx,
                    dst_slot: None,
                    src_slots: RegList::new(),
                });
                continue;
            }

            // Registers that must not be evicted while processing this
            // instruction: its own sources (destination is added later).
            for src in instr.source_regs() {
                st.protected[src.0 as usize] = true;
            }

            // 1. Make sure every source value is resident, reloading spilled
            //    values in source order.
            for src in instr.source_regs() {
                if st.slot_of[src.0 as usize].is_some() {
                    continue;
                }
                let addr = st.spill_addr[src.0 as usize]
                    .unwrap_or_else(|| panic!("use of {src} before definition or spill"));
                let slot = st.take_slot(idx);
                st.out
                    .allocations
                    .push(Allocation::SpillLoad { slot, addr });
                st.out.spill_loads += 1;
                st.assign(src, slot);
            }

            // 2. Allocate the destination slot (if any).
            let dst_slot = instr.dst.map(|dst| {
                let slot = st.take_slot(idx);
                st.protected[dst.0 as usize] = true;
                st.assign(dst, slot);
                slot
            });

            // 3. Emit the instruction with slot-mapped operands.
            let mut src_slots = RegList::new();
            for src in instr.source_regs() {
                let slot = st.slot_of[src.0 as usize].expect("source is resident");
                st.max_slot_used = st.max_slot_used.max(slot + 1);
                src_slots.push(u8::try_from(slot).expect("slot index fits a byte"));
            }
            st.out.allocations.push(Allocation::Op {
                ir_index: idx,
                dst_slot,
                src_slots,
            });

            // 4. Release values whose last use was this instruction, and
            //    dead definitions; also un-protect this instruction's
            //    registers so the scratch bitmap is clean for the next one.
            for src in instr.source_regs() {
                st.protected[src.0 as usize] = false;
                if let Some(iv) = liveness.interval(src) {
                    if iv.last_use <= idx {
                        st.release(src);
                    }
                }
            }
            if let Some(dst) = instr.dst {
                st.protected[dst.0 as usize] = false;
                if liveness.interval(dst).is_some_and(|iv| iv.is_dead()) {
                    st.release(dst);
                }
            }
        }

        st.out.slots_used = st.max_slot_used;
        st.out.spill_area_bytes = st.next_spill_slot * self.spill_slot_bytes;
        st.out.max_pressure = liveness.max_pressure();
        st.out
    }
}

/// Mutable allocation state: dense tables indexed by virtual-register id
/// (`slot_of` / `in_memory` / `spill_addr` / `protected`) or by slot index
/// (`slot_owner`).
struct AllocState<'a> {
    spill_base: u64,
    spill_slot_bytes: u64,
    liveness: &'a Liveness,
    /// Resident values: virtual-register id -> slot.
    slot_of: Vec<Option<usize>>,
    /// Inverse map: slot -> resident virtual register (victim scan).
    slot_owner: Vec<Option<VirtReg>>,
    /// Free slot pool (ordered so allocation is deterministic).
    free: Vec<usize>,
    /// Values with a valid copy in their spill slot.
    in_memory: Vec<bool>,
    /// Assigned spill-slot addresses.
    spill_addr: Vec<Option<u64>>,
    /// Registers that must not be evicted right now (current sources/dst).
    protected: Vec<bool>,
    next_spill_slot: u64,
    max_slot_used: usize,
    out: AllocatedKernel,
}

impl AllocState<'_> {
    fn assign(&mut self, reg: VirtReg, slot: usize) {
        self.slot_of[reg.0 as usize] = Some(slot);
        self.slot_owner[slot] = Some(reg);
        self.max_slot_used = self.max_slot_used.max(slot + 1);
    }

    fn release(&mut self, reg: VirtReg) {
        if let Some(slot) = self.slot_of[reg.0 as usize].take() {
            self.slot_owner[slot] = None;
            self.free.push(slot);
        }
    }

    /// Obtains a free slot, evicting the resident value with the furthest
    /// next use if necessary (emitting a spill store if that value has no
    /// valid memory copy yet).
    fn take_slot(&mut self, idx: usize) -> usize {
        if let Some(slot) = self.free.pop() {
            return slot;
        }
        // Choose the evictable resident value with the furthest next use.
        // `(next_use, reg id)` keys are distinct, so the maximum is unique
        // and the slot-order scan picks the same victim the old hash-map
        // scan did.
        let victim = self
            .slot_owner
            .iter()
            .flatten()
            .filter(|r| !self.protected[r.0 as usize])
            .copied()
            .max_by_key(|r| (self.liveness.next_use(*r, idx), r.0))
            .expect("no evictable register: architectural budget too small for one instruction");
        let slot = self.slot_of[victim.0 as usize]
            .take()
            .expect("victim is resident");
        self.slot_owner[slot] = None;

        // Only store the victim if it will be read again and has no valid
        // memory copy.
        let victim_next_use = self.liveness.next_use(victim, idx);
        if victim_next_use != usize::MAX && !self.in_memory[victim.0 as usize] {
            let addr = *self.spill_addr[victim.0 as usize].get_or_insert_with(|| {
                let a = self.spill_base + self.next_spill_slot * self.spill_slot_bytes;
                self.next_spill_slot += 1;
                a
            });
            self.out
                .allocations
                .push(Allocation::SpillStore { slot, addr });
            self.out.spill_stores += 1;
            self.in_memory[victim.0 as usize] = true;
        }
        slot
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::builder::KernelBuilder;

    /// A kernel that keeps `width` values live simultaneously.
    fn wide_kernel(width: usize) -> IrKernel {
        let mut b = KernelBuilder::new("wide");
        let vals: Vec<_> = (0..width).map(|i| b.vload(64 * i as u64)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.vfadd(acc, v);
        }
        b.vstore(acc, 0x10_0000);
        b.finish()
    }

    #[test]
    fn no_spills_when_pressure_fits() {
        let k = wide_kernel(8);
        let a = RegAllocator::new(16, 0x20_0000, 1024).allocate(&k);
        assert_eq!(a.spill_stores, 0);
        assert_eq!(a.spill_loads, 0);
        assert!(a.slots_used <= 9);
    }

    #[test]
    fn spills_appear_when_pressure_exceeds_budget() {
        let k = wide_kernel(12);
        let a = RegAllocator::new(8, 0x20_0000, 1024).allocate(&k);
        assert!(a.spill_stores > 0);
        assert!(
            a.spill_loads >= a.spill_stores,
            "every stored value is reloaded"
        );
        assert!(a.slots_used <= 8);
    }

    #[test]
    fn smaller_budget_spills_more() {
        let k = wide_kernel(16);
        let spills = |slots: usize| {
            RegAllocator::new(slots, 0x20_0000, 1024)
                .allocate(&k)
                .spill_loads
        };
        assert!(spills(4) > spills(8));
        assert_eq!(spills(32), 0);
    }

    #[test]
    fn allocation_never_exceeds_slot_budget() {
        for width in [4, 8, 12, 20, 31] {
            let k = wide_kernel(width);
            for slots in [4, 8, 16, 32] {
                let a = RegAllocator::new(slots, 0x20_0000, 1024).allocate(&k);
                assert!(a.slots_used <= slots, "width {width} slots {slots}");
            }
        }
    }

    #[test]
    fn spill_addresses_are_distinct_per_value() {
        let k = wide_kernel(20);
        let a = RegAllocator::new(4, 0x20_0000, 1024).allocate(&k);
        let mut addrs: Vec<u64> = a
            .allocations
            .iter()
            .filter_map(|al| match al {
                Allocation::SpillStore { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        addrs.sort_unstable();
        let before = addrs.len();
        addrs.dedup();
        assert_eq!(addrs.len(), before, "two values shared a spill slot");
        assert!(a.spill_area_bytes >= before as u64 * 1024);
    }

    #[test]
    fn reloads_follow_stores_for_each_value() {
        let k = wide_kernel(20);
        let a = RegAllocator::new(4, 0x20_0000, 1024).allocate(&k);
        // Every reload address must have been stored earlier in the stream.
        let mut stored: HashSet<u64> = HashSet::new();
        for al in &a.allocations {
            match al {
                Allocation::SpillStore { addr, .. } => {
                    stored.insert(*addr);
                }
                Allocation::SpillLoad { addr, .. } => {
                    assert!(stored.contains(addr), "reload of never-stored slot");
                }
                Allocation::Op { .. } => {}
            }
        }
    }

    #[test]
    fn ssa_values_are_stored_at_most_once() {
        let k = wide_kernel(24);
        let a = RegAllocator::new(4, 0x20_0000, 1024).allocate(&k);
        let mut addrs: Vec<u64> = a
            .allocations
            .iter()
            .filter_map(|al| match al {
                Allocation::SpillStore { addr, .. } => Some(*addr),
                _ => None,
            })
            .collect();
        let total = addrs.len();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(total, addrs.len());
    }

    #[test]
    fn config_instructions_pass_through_unallocated() {
        let mut b = KernelBuilder::new("cfg");
        b.set_vl(16);
        let x = b.vload(0);
        b.vstore(x, 8);
        let a = RegAllocator::new(4, 0x1000, 128).allocate(&b.finish());
        assert!(matches!(
            a.allocations[0],
            Allocation::Op {
                ir_index: 0,
                dst_slot: None,
                ..
            }
        ));
    }

    #[test]
    #[should_panic(expected = "at least 4")]
    fn tiny_budgets_are_rejected() {
        let _ = RegAllocator::new(2, 0, 64);
    }

    #[test]
    fn three_source_ops_fit_in_minimum_budget() {
        let mut b = KernelBuilder::new("fma");
        let x = b.vload(0);
        let y = b.vload(64);
        let z = b.vload(128);
        let r = b.vfmadd(x, y, z);
        b.vstore(r, 256);
        let a = RegAllocator::new(4, 0x1000, 128).allocate(&b.finish());
        assert_eq!(a.spill_stores, 0);
        assert_eq!(a.slots_used, 4);
    }
}
