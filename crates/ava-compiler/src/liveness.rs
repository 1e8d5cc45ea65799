//! Live intervals and next-use information for straight-line kernels.
//!
//! Because kernels are straight-line dynamic traces (the scalar loop is
//! already unrolled into strips by the workload generators), liveness is a
//! single backwards pass: a virtual register is live from its definition to
//! its last use.
//!
//! The result tables are dense vectors indexed by the virtual-register id
//! (ids are allocated densely from 0), and [`Liveness::next_use`] — the
//! query the Belady spill heuristic hammers — binary-searches the sorted
//! per-register use positions instead of scanning them linearly. The use
//! positions of all registers share one flat array, grouped by register
//! id, so the analysis allocates a fixed handful of vectors whatever the
//! kernel's size.

use crate::ir::{IrKernel, VirtReg};

/// The live interval of one virtual register, in instruction indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveInterval {
    /// Instruction index that defines the value.
    pub def: usize,
    /// Instruction index of the last use (equals `def` for dead definitions).
    pub last_use: usize,
}

impl LiveInterval {
    /// True if the value is live at instruction index `at` (exclusive of the
    /// defining instruction itself, inclusive of the last use).
    #[must_use]
    pub fn live_at(&self, at: usize) -> bool {
        at > self.def && at <= self.last_use
    }

    /// Interval length in instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.last_use - self.def
    }

    /// True if the interval spans no instructions (defined and last used at
    /// the same point).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if the value is never read.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.last_use == self.def
    }
}

/// Result of liveness analysis over an [`IrKernel`].
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Interval per virtual-register id (`None` for never-defined ids).
    intervals: Vec<Option<LiveInterval>>,
    /// Use positions of every register, grouped by register id and sorted
    /// within a group: the uses of id `r` are
    /// `uses[use_start[r]..use_start[r + 1]]`.
    uses: Vec<usize>,
    /// Group starts into `uses`, one per register id plus the end.
    use_start: Vec<usize>,
    /// Number of instructions in the analysed kernel.
    len: usize,
}

impl Liveness {
    /// Analyses a kernel.
    #[must_use]
    pub fn analyse(kernel: &IrKernel) -> Self {
        let nregs = kernel
            .instrs
            .iter()
            .flat_map(|i| i.dst.into_iter().chain(i.source_regs()))
            .map(|r| r.0 as usize + 1)
            .max()
            .unwrap_or(0);
        let mut intervals: Vec<Option<LiveInterval>> = vec![None; nregs];
        // First pass: intervals, and each register's use count in the
        // slot after its own, so a prefix sum turns counts into starts.
        let mut use_start = vec![0usize; nregs + 1];
        for (idx, instr) in kernel.instrs.iter().enumerate() {
            for src in instr.source_regs() {
                if let Some(iv) = &mut intervals[src.0 as usize] {
                    iv.last_use = idx;
                }
                use_start[src.0 as usize + 1] += 1;
            }
            if let Some(dst) = instr.dst {
                intervals[dst.0 as usize].get_or_insert(LiveInterval {
                    def: idx,
                    last_use: idx,
                });
            }
        }
        for r in 0..nregs {
            use_start[r + 1] += use_start[r];
        }
        // Second pass: place every use. Positions arrive in increasing
        // order, so each group stays sorted for the `next_use` search.
        let mut fill = use_start[..nregs].to_vec();
        let mut uses = vec![0usize; use_start[nregs]];
        for (idx, instr) in kernel.instrs.iter().enumerate() {
            for src in instr.source_regs() {
                let at = &mut fill[src.0 as usize];
                uses[*at] = idx;
                *at += 1;
            }
        }
        Self {
            intervals,
            uses,
            use_start,
            len: kernel.instrs.len(),
        }
    }

    /// One more than the highest virtual-register id the kernel names:
    /// the length of the dense per-register tables.
    #[must_use]
    pub(crate) fn num_regs(&self) -> usize {
        self.intervals.len()
    }

    /// The interval of a register, if it is ever defined.
    #[must_use]
    pub fn interval(&self, reg: VirtReg) -> Option<&LiveInterval> {
        self.intervals.get(reg.0 as usize)?.as_ref()
    }

    /// All intervals, in virtual-register order.
    pub fn intervals(&self) -> impl Iterator<Item = (VirtReg, &LiveInterval)> {
        self.intervals
            .iter()
            .enumerate()
            .filter_map(|(id, iv)| Some((VirtReg(id as u32), iv.as_ref()?)))
    }

    /// The next instruction index at or after `from` where `reg` is used, or
    /// `usize::MAX` if it is never used again. This drives the Belady
    /// ("furthest next use") spill heuristic.
    #[must_use]
    pub fn next_use(&self, reg: VirtReg, from: usize) -> usize {
        let r = reg.0 as usize;
        if r >= self.num_regs() {
            return usize::MAX;
        }
        let uses = &self.uses[self.use_start[r]..self.use_start[r + 1]];
        match uses.get(uses.partition_point(|&u| u < from)) {
            Some(&u) => u,
            None => usize::MAX,
        }
    }

    /// Maximum number of simultaneously live values over the kernel: the
    /// register pressure a compiler must accommodate.
    #[must_use]
    pub fn max_pressure(&self) -> usize {
        // A read value occupies a register from its definition through its
        // last use: add one at the definition, take one off after the last
        // use, and track the running total over the instruction indices.
        let mut delta = vec![0i32; self.len + 1];
        for iv in self.intervals.iter().flatten() {
            if iv.is_dead() {
                continue;
            }
            delta[iv.def] += 1;
            delta[iv.last_use + 1] -= 1;
        }
        let mut live = 0i32;
        let mut max = 0i32;
        for d in delta {
            live += d;
            max = max.max(live);
        }
        max.max(0) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    fn chain(n: usize) -> IrKernel {
        // v0 = load; v1 = v0+v0; v2 = v1+v1; ... each value dies immediately.
        let mut b = KernelBuilder::new("chain");
        let mut prev = b.vload(0);
        for _ in 0..n {
            prev = b.vfadd(prev, prev);
        }
        b.vstore(prev, 0x100);
        b.finish()
    }

    #[test]
    fn chain_has_pressure_two_at_most() {
        // At each step only the previous value and (transiently) the new one
        // are live; max simultaneous liveness is 1 by our accounting (the new
        // value starts at its def which is when the old one has its last use).
        let k = chain(10);
        let l = Liveness::analyse(&k);
        assert!(l.max_pressure() <= 2, "pressure {}", l.max_pressure());
    }

    #[test]
    fn wide_kernel_has_high_pressure() {
        // Load N values, then sum them all at the end: all N live at once.
        let mut b = KernelBuilder::new("wide");
        let vals: Vec<_> = (0..12).map(|i| b.vload(8 * i as u64)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.vfadd(acc, v);
        }
        b.vstore(acc, 0x1000);
        let l = Liveness::analyse(&b.finish());
        assert_eq!(
            l.max_pressure(),
            13,
            "12 loads plus the first accumulator are simultaneously live"
        );
    }

    /// Reference pressure: sort the (index, ±1) endpoint events, ends
    /// before starts at one index, and track the running total.
    fn sorted_sweep_pressure(l: &Liveness) -> usize {
        let mut events: Vec<(usize, i32)> = Vec::new();
        for (_, iv) in l.intervals() {
            if !iv.is_dead() {
                events.push((iv.def, 1));
                events.push((iv.last_use + 1, -1));
            }
        }
        events.sort_unstable();
        let (mut live, mut max) = (0i32, 0i32);
        for (_, delta) in events {
            live += delta;
            max = max.max(live);
        }
        max.max(0) as usize
    }

    #[test]
    fn max_pressure_matches_the_sorted_endpoint_sweep() {
        // Values dying where others are defined, dead definitions and
        // uses of one value at several distances.
        let mut b = KernelBuilder::new("mixed");
        let mut live = vec![b.vload(0), b.vload(8)];
        for step in 0..40u64 {
            let a = live[(step as usize * 7) % live.len()];
            let c = live[(step as usize * 3) % live.len()];
            let v = b.vfadd(a, c);
            if step % 5 == 0 {
                let _dead = b.vfmul(v, 2.0);
            }
            if step % 3 == 0 && live.len() > 2 {
                live.remove(0);
            }
            live.push(v);
        }
        for v in live {
            b.vstore(v, 0x1000);
        }
        for k in [b.finish(), chain(10), IrKernel::default()] {
            let l = Liveness::analyse(&k);
            assert_eq!(l.max_pressure(), sorted_sweep_pressure(&l), "{}", k.name);
        }
    }

    #[test]
    fn intervals_record_def_and_last_use() {
        let mut b = KernelBuilder::new("t");
        let a = b.vload(0); // idx 0
        let c = b.vload(8); // idx 1
        let d = b.vfadd(a, c); // idx 2
        b.vstore(d, 16); // idx 3
        let _ = b.vfadd(c, c); // idx 4 (c used later than a)
        let l = Liveness::analyse(&b.finish());
        assert_eq!(l.interval(a).unwrap().def, 0);
        assert_eq!(l.interval(a).unwrap().last_use, 2);
        assert_eq!(l.interval(c).unwrap().last_use, 4);
        assert_eq!(l.interval(d).unwrap().last_use, 3);
    }

    #[test]
    fn next_use_finds_forward_uses_only() {
        let mut b = KernelBuilder::new("t");
        let a = b.vload(0); // 0
        let _ = b.vfadd(a, a); // 1
        let _ = b.vfmul(a, 2.0); // 2
        let l = Liveness::analyse(&b.finish());
        assert_eq!(l.next_use(a, 1), 1);
        assert_eq!(l.next_use(a, 2), 2);
        assert_eq!(l.next_use(a, 3), usize::MAX);
    }

    #[test]
    fn dead_definitions_are_flagged() {
        let mut b = KernelBuilder::new("t");
        let a = b.vload(0);
        let _unused = b.vfadd(a, a);
        let l = Liveness::analyse(&b.finish());
        let unused_iv = l.interval(VirtReg(1)).unwrap();
        assert!(unused_iv.is_dead());
        assert_eq!(unused_iv.len(), 0);
    }

    #[test]
    fn live_at_is_exclusive_of_def() {
        let iv = LiveInterval {
            def: 3,
            last_use: 7,
        };
        assert!(!iv.live_at(3));
        assert!(iv.live_at(4));
        assert!(iv.live_at(7));
        assert!(!iv.live_at(8));
    }
}
