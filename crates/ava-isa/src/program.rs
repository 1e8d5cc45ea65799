//! Vector programs: ordered dynamic instruction sequences plus static
//! statistics about them.

use crate::instr::{InstrRole, VecInstr};
use crate::opcode::InstrKind;
use crate::reg::VReg;

/// Static statistics over a [`Program`], used both by tests and by the
/// Figure 3 instruction-mix charts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramStats {
    /// Vector arithmetic instructions (everything issued to the arithmetic queue).
    pub arithmetic: usize,
    /// Ordinary vector loads (excluding spill reloads).
    pub loads: usize,
    /// Ordinary vector stores (excluding spill stores).
    pub stores: usize,
    /// Compiler-generated spill reloads.
    pub spill_loads: usize,
    /// Compiler-generated spill stores.
    pub spill_stores: usize,
    /// `vsetvl` configuration instructions.
    pub config: usize,
}

impl ProgramStats {
    /// Total vector memory instructions (loads + stores + spills).
    #[must_use]
    pub fn memory(&self) -> usize {
        self.loads + self.stores + self.spill_loads + self.spill_stores
    }

    /// Total instructions that occupy issue-queue slots
    /// (arithmetic + memory, excluding `vsetvl`).
    #[must_use]
    pub fn issued(&self) -> usize {
        self.arithmetic + self.memory()
    }

    /// Fraction of issued instructions that are memory operations.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        if self.issued() == 0 {
            0.0
        } else {
            self.memory() as f64 / self.issued() as f64
        }
    }
}

/// An ordered sequence of dynamic vector instructions, as handed to the
/// decoupled VPU by the scalar core.
///
/// ```
/// use ava_isa::{Program, VecInstr, VReg};
/// let mut p = Program::new("demo");
/// p.push(VecInstr::setvl(16));
/// p.push(VecInstr::vload(VReg::new(1), 0));
/// p.push(VecInstr::vstore(VReg::new(1), 0x100));
/// let s = p.stats();
/// assert_eq!(s.loads, 1);
/// assert_eq!(s.stores, 1);
/// assert_eq!(s.config, 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    name: String,
    instrs: Vec<VecInstr>,
}

impl Program {
    /// Creates an empty program with a human-readable name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::new(),
        }
    }

    /// Creates an empty program with room for `capacity` instructions.
    #[must_use]
    pub fn with_capacity(name: impl Into<String>, capacity: usize) -> Self {
        Self {
            name: name.into(),
            instrs: Vec::with_capacity(capacity),
        }
    }

    /// The program's name (used in reports).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one instruction.
    pub fn push(&mut self, instr: VecInstr) {
        self.instrs.push(instr);
    }

    /// Appends every instruction from `iter`.
    pub fn extend(&mut self, iter: impl IntoIterator<Item = VecInstr>) {
        self.instrs.extend(iter);
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the program has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Iterator over the instructions in program order.
    pub fn iter(&self) -> std::slice::Iter<'_, VecInstr> {
        self.instrs.iter()
    }

    /// The instructions as a slice.
    #[must_use]
    pub fn instructions(&self) -> &[VecInstr] {
        &self.instrs
    }

    /// Computes static instruction-mix statistics.
    #[must_use]
    pub fn stats(&self) -> ProgramStats {
        let mut s = ProgramStats::default();
        for i in &self.instrs {
            match i.kind() {
                InstrKind::Config => s.config += 1,
                InstrKind::Arithmetic => s.arithmetic += 1,
                InstrKind::Memory => match (i.opcode.is_load(), i.role) {
                    (true, InstrRole::SpillLoad) => s.spill_loads += 1,
                    (false, InstrRole::SpillStore) => s.spill_stores += 1,
                    (true, _) => s.loads += 1,
                    (false, _) => s.stores += 1,
                },
            }
        }
        s
    }

    /// The set of distinct logical registers referenced (read or written) by
    /// the program — the register pressure the compiler had to fit into the
    /// architectural register budget.
    #[must_use]
    pub fn used_registers(&self) -> Vec<VReg> {
        let mut seen = [false; crate::NUM_LOGICAL_VREGS];
        for i in &self.instrs {
            if let Some(d) = i.dst {
                seen[d.index()] = true;
            }
            for r in i.source_regs() {
                seen[r.index()] = true;
            }
        }
        (0..crate::NUM_LOGICAL_VREGS as u8)
            .filter(|&i| seen[i as usize])
            .map(VReg::new)
            .collect()
    }
}

impl FromIterator<VecInstr> for Program {
    fn from_iter<T: IntoIterator<Item = VecInstr>>(iter: T) -> Self {
        let mut p = Program::new("anonymous");
        p.extend(iter);
        p
    }
}

impl Extend<VecInstr> for Program {
    fn extend<T: IntoIterator<Item = VecInstr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Program {
    type Item = &'a VecInstr;
    type IntoIter = std::slice::Iter<'a, VecInstr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.iter()
    }
}

impl IntoIterator for Program {
    type Item = VecInstr;
    type IntoIter = std::vec::IntoIter<VecInstr>;
    fn into_iter(self) -> Self::IntoIter {
        self.instrs.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::InstrRole;
    use crate::opcode::Opcode;

    fn sample() -> Program {
        let mut p = Program::new("sample");
        p.push(VecInstr::setvl(16));
        p.push(VecInstr::vload(VReg::new(1), 0x0));
        p.push(VecInstr::vload(VReg::new(2), 0x100));
        p.push(VecInstr::binary(
            Opcode::VFAdd,
            VReg::new(3),
            VReg::new(1),
            VReg::new(2),
        ));
        p.push(VecInstr::vstore(VReg::new(3), 0x200));
        p.push(
            VecInstr::vstore(VReg::new(3), 0x8000)
                .with_full_mvl()
                .with_role(InstrRole::SpillStore),
        );
        p.push(
            VecInstr::vload(VReg::new(3), 0x8000)
                .with_full_mvl()
                .with_role(InstrRole::SpillLoad),
        );
        p
    }

    #[test]
    fn stats_classify_each_category() {
        let s = sample().stats();
        assert_eq!(s.config, 1);
        assert_eq!(s.loads, 2);
        assert_eq!(s.stores, 1);
        assert_eq!(s.spill_loads, 1);
        assert_eq!(s.spill_stores, 1);
        assert_eq!(s.arithmetic, 1);
        assert_eq!(s.memory(), 5);
        assert_eq!(s.issued(), 6);
    }

    #[test]
    fn memory_fraction_matches_hand_count() {
        let s = sample().stats();
        assert!((s.memory_fraction() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(ProgramStats::default().memory_fraction(), 0.0);
    }

    #[test]
    fn used_registers_deduplicates_and_sorts() {
        let p = sample();
        assert_eq!(
            p.used_registers(),
            vec![VReg::new(1), VReg::new(2), VReg::new(3)]
        );
    }

    #[test]
    fn from_iterator_and_extend_agree() {
        let instrs = vec![
            VecInstr::vload(VReg::new(1), 0),
            VecInstr::vstore(VReg::new(1), 8),
        ];
        let a: Program = instrs.clone().into_iter().collect();
        let mut b = Program::new("anonymous");
        b.extend(instrs);
        assert_eq!(a.instructions(), b.instructions());
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
    }

    #[test]
    fn iteration_preserves_program_order() {
        let p = sample();
        let ops: Vec<_> = p.iter().map(|i| i.opcode).collect();
        assert_eq!(ops[0], Opcode::SetVl);
        assert_eq!(ops[4], Opcode::VStore);
    }
}
