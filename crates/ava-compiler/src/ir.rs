//! Virtual-register intermediate representation.
//!
//! The IR mirrors the final vector ISA ([`ava_isa::VecInstr`]) but names
//! values with unbounded [`VirtReg`]s, so kernels can be written in SSA
//! style and the register allocator decides how they fit into the
//! architectural register budget (which shrinks under register grouping).

use std::fmt;

use ava_isa::{Element, InstrKind, Opcode, OperandList, PackedOperand};

/// A virtual vector register: an SSA-like value name with no architectural
/// constraint. The register allocator maps virtual registers to
/// architectural registers (and to spill slots when pressure is too high).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtReg(pub u32);

impl VirtReg {
    /// The numeric id of this virtual register.
    #[must_use]
    pub fn id(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VirtReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// A source operand in the IR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IrOperand {
    /// A virtual vector register.
    Reg(VirtReg),
    /// A scalar immediate broadcast across the vector.
    Scalar(Element),
}

impl IrOperand {
    /// The virtual register, if this operand is a register.
    #[must_use]
    pub fn reg(&self) -> Option<VirtReg> {
        match self {
            IrOperand::Reg(r) => Some(*r),
            IrOperand::Scalar(_) => None,
        }
    }
}

impl PackedOperand for IrOperand {
    fn pack(self) -> (u64, bool) {
        match self {
            IrOperand::Reg(r) => (u64::from(r.0), true),
            IrOperand::Scalar(e) => (e.bits(), false),
        }
    }

    fn unpack(word: u64, is_reg: bool) -> Self {
        if is_reg {
            IrOperand::Reg(VirtReg(word as u32))
        } else {
            IrOperand::Scalar(Element::from_bits(word))
        }
    }
}

impl From<VirtReg> for IrOperand {
    fn from(r: VirtReg) -> Self {
        IrOperand::Reg(r)
    }
}

impl From<f64> for IrOperand {
    fn from(v: f64) -> Self {
        IrOperand::Scalar(Element::from_f64(v))
    }
}

/// Memory-access descriptor in the IR (addresses are concrete simulated
/// addresses because kernels are generated as dynamic traces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrMemAccess {
    /// Base byte address of element 0.
    pub base: u64,
    /// Index register for gathers; `None` for a unit-stride access.
    pub index: Option<VirtReg>,
}

impl IrMemAccess {
    /// A unit-stride access.
    #[must_use]
    pub fn unit(base: u64) -> Self {
        Self { base, index: None }
    }

    /// A gather whose element indices are in `index`.
    #[must_use]
    pub fn indexed(base: u64, index: VirtReg) -> Self {
        Self {
            base,
            index: Some(index),
        }
    }
}

/// One IR instruction.
#[derive(Debug, Clone, PartialEq)]
pub struct IrInstr {
    /// The vector operation.
    pub opcode: Opcode,
    /// Defined virtual register, if any.
    pub dst: Option<VirtReg>,
    /// Source operands, stored inline.
    pub srcs: OperandList<IrOperand>,
    /// Memory descriptor for loads/stores.
    pub mem: Option<IrMemAccess>,
    /// Requested vector length for `SetVl`.
    pub setvl_request: Option<usize>,
}

impl IrInstr {
    /// Queue classification of the instruction.
    #[must_use]
    pub fn kind(&self) -> InstrKind {
        self.opcode.kind()
    }

    /// Virtual registers read by this instruction.
    pub fn source_regs(&self) -> impl Iterator<Item = VirtReg> + '_ {
        self.srcs.iter().filter_map(|s| s.reg())
    }
}

impl fmt::Display for IrInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(d) = self.dst {
            write!(f, "{d} = ")?;
        }
        write!(f, "{}", self.opcode.mnemonic())?;
        for s in &self.srcs {
            match s {
                IrOperand::Reg(r) => write!(f, " {r}")?,
                IrOperand::Scalar(e) => write!(f, " #{}", e.as_f64())?,
            }
        }
        if let Some(m) = &self.mem {
            write!(f, " @{:#x}", m.base)?;
        }
        Ok(())
    }
}

/// One buffer-rebinding rule applied when concatenating kernels: memory
/// operands whose base address falls inside `[old_base, old_base + bytes)`
/// are rebased onto `new_base`, preserving their offset within the buffer.
/// This is how a pipelined composite points a consumer phase's planned
/// input buffer at the producer phase's actual output buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebaseRule {
    /// Base address of the buffer the kernel was generated against.
    pub old_base: u64,
    /// Size of the buffer in bytes.
    pub bytes: u64,
    /// Base address the accesses are rebound to.
    pub new_base: u64,
}

impl RebaseRule {
    /// Applies the rule to one base address, if it falls inside the rebased
    /// buffer.
    #[must_use]
    pub fn apply(&self, base: u64) -> Option<u64> {
        (base >= self.old_base && base < self.old_base + self.bytes)
            .then(|| self.new_base + (base - self.old_base))
    }

    /// The rule pair exchanging two equally-sized buffers: accesses to
    /// `a_base` land on `b_base` and vice versa. This is the ping-pong map
    /// of an iterated composite — odd iterations of the unrolled body are
    /// concatenated with the carried input/output arrays swapped, so a
    /// carried value alternates between two physical buffers instead of
    /// being copied once per iteration.
    ///
    /// # Panics
    ///
    /// Panics if the two buffers overlap (the swap would be ill-defined).
    #[must_use]
    pub fn swapped(a_base: u64, b_base: u64, bytes: u64) -> [RebaseRule; 2] {
        assert!(
            a_base + bytes <= b_base || b_base + bytes <= a_base,
            "cannot swap overlapping buffers at {a_base:#x} and {b_base:#x} ({bytes} bytes)"
        );
        [
            RebaseRule {
                old_base: a_base,
                bytes,
                new_base: b_base,
            },
            RebaseRule {
                old_base: b_base,
                bytes,
                new_base: a_base,
            },
        ]
    }
}

/// A straight-line kernel trace in IR form, produced by
/// [`crate::KernelBuilder`] and consumed by the register allocator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IrKernel {
    /// Human-readable kernel name.
    pub name: String,
    /// Instructions in program order.
    pub instrs: Vec<IrInstr>,
    /// Number of virtual registers used (ids are `0..num_virt_regs`).
    pub num_virt_regs: u32,
}

impl IrKernel {
    /// Number of instructions in the kernel.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True if the kernel has no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Maximum number of simultaneously-live virtual registers (the
    /// register pressure the allocator must fit into the architectural
    /// budget). Computed via [`crate::Liveness`].
    #[must_use]
    pub fn max_pressure(&self) -> usize {
        crate::Liveness::analyse(self).max_pressure()
    }

    /// Appends `phase` after this kernel's instructions, renumbering the
    /// phase's virtual registers so the combined trace stays in SSA form
    /// (each id defined exactly once). Used by multi-kernel composite
    /// workloads: the phases run back to back in one program, sharing the
    /// same memory hierarchy, and because values never flow between phases
    /// through *registers* the combined register pressure is the maximum —
    /// not the sum — of the phases'.
    ///
    /// While appending, every memory operand whose base falls inside a
    /// [`RebaseRule`]'s buffer is rebased onto the rule's new base (first
    /// matching rule wins); with no rules the phase is appended as it is.
    /// A pipelined composite uses this to make a consumer phase — generated
    /// against its own planned placeholder input buffer — read the producer
    /// phase's actual output buffer at run time.
    ///
    /// # Panics
    ///
    /// Panics if two rules rebase overlapping source ranges (the rebinding
    /// would become order-dependent).
    pub fn concat_remapped(&mut self, phase: &IrKernel, rebase: &[RebaseRule]) {
        for (i, a) in rebase.iter().enumerate() {
            for b in &rebase[i + 1..] {
                assert!(
                    a.old_base + a.bytes <= b.old_base || b.old_base + b.bytes <= a.old_base,
                    "rebase rules overlap: {a:?} vs {b:?}"
                );
            }
        }
        let offset = self.num_virt_regs;
        let remap = |r: VirtReg| VirtReg(r.0 + offset);
        let rebase_addr = |base: u64| rebase.iter().find_map(|r| r.apply(base)).unwrap_or(base);
        self.instrs.extend(phase.instrs.iter().map(|i| {
            IrInstr {
                opcode: i.opcode,
                dst: i.dst.map(remap),
                srcs: i
                    .srcs
                    .iter()
                    .map(|s| match s {
                        IrOperand::Reg(r) => IrOperand::Reg(remap(r)),
                        IrOperand::Scalar(e) => IrOperand::Scalar(e),
                    })
                    .collect(),
                mem: i.mem.map(|m| IrMemAccess {
                    base: rebase_addr(m.base),
                    index: m.index.map(remap),
                }),
                setvl_request: i.setvl_request,
            }
        }));
        self.num_virt_regs += phase.num_virt_regs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_isa::Opcode;

    #[test]
    fn virtreg_display_and_id() {
        assert_eq!(VirtReg(7).to_string(), "%7");
        assert_eq!(VirtReg(7).id(), 7);
    }

    #[test]
    fn operand_reg_extraction() {
        assert_eq!(IrOperand::Reg(VirtReg(3)).reg(), Some(VirtReg(3)));
        assert_eq!(IrOperand::from(1.5).reg(), None);
    }

    #[test]
    fn instr_source_regs_skip_scalars() {
        let i = IrInstr {
            opcode: Opcode::VFMul,
            dst: Some(VirtReg(2)),
            srcs: OperandList::new(
                Opcode::VFMul,
                &[IrOperand::Reg(VirtReg(0)), IrOperand::from(3.0)],
            ),
            mem: None,
            setvl_request: None,
        };
        assert_eq!(i.source_regs().collect::<Vec<_>>(), vec![VirtReg(0)]);
        assert_eq!(i.kind(), InstrKind::Arithmetic);
        assert!(i.to_string().contains("vfmul.v"));
    }

    #[test]
    fn empty_kernel_reports_empty() {
        let k = IrKernel::default();
        assert!(k.is_empty());
        assert_eq!(k.len(), 0);
        assert_eq!(k.max_pressure(), 0);
    }

    #[test]
    fn concat_remapped_rebases_only_matching_buffers() {
        let mut b = crate::KernelBuilder::new("producer");
        let x = b.vload(0x1000);
        b.vstore(x, 0x2000);
        let mut combined = b.finish();

        let mut b = crate::KernelBuilder::new("consumer");
        let y = b.vload(0x5000 + 64); // second strip of the placeholder input
        let z = b.vload(0x9000); // an unbound input, untouched
        let s = b.vfadd(y, z);
        b.vstore(s, 0x6000);
        let consumer = b.finish();

        combined.concat_remapped(
            &consumer,
            &[RebaseRule {
                old_base: 0x5000,
                bytes: 0x800,
                new_base: 0x2000,
            }],
        );
        // The placeholder read is rebased onto the producer's output,
        // offset preserved; everything else keeps its address.
        assert_eq!(combined.instrs[2].mem.unwrap().base, 0x2000 + 64);
        assert_eq!(combined.instrs[3].mem.unwrap().base, 0x9000);
        assert_eq!(combined.instrs[5].mem.unwrap().base, 0x6000);
    }

    #[test]
    #[should_panic(expected = "rebase rules overlap")]
    fn overlapping_rebase_rules_are_rejected() {
        let mut a = IrKernel::default();
        let rules = [
            RebaseRule {
                old_base: 0x1000,
                bytes: 0x200,
                new_base: 0x4000,
            },
            RebaseRule {
                old_base: 0x1100,
                bytes: 0x200,
                new_base: 0x5000,
            },
        ];
        a.concat_remapped(&IrKernel::default(), &rules);
    }

    #[test]
    fn swapped_rules_exchange_the_two_buffers() {
        let rules = RebaseRule::swapped(0x1000, 0x3000, 0x100);
        let apply = |base| rules.iter().find_map(|r| r.apply(base)).unwrap_or(base);
        assert_eq!(apply(0x1000), 0x3000);
        assert_eq!(apply(0x3040), 0x1040);
        assert_eq!(
            apply(0x5000),
            0x5000,
            "addresses outside the pair pass through"
        );
        // The pair is accepted by concat_remapped (its ranges are disjoint).
        IrKernel::default().concat_remapped(&IrKernel::default(), &rules);
    }

    #[test]
    #[should_panic(expected = "cannot swap overlapping buffers")]
    fn swapped_rejects_overlapping_buffers() {
        let _ = RebaseRule::swapped(0x1000, 0x1080, 0x100);
    }

    #[test]
    fn concat_renumbers_the_appended_phase() {
        let mut b = crate::KernelBuilder::new("a");
        let x = b.vload(0);
        b.vstore(x, 64);
        let mut a = b.finish();

        let mut b = crate::KernelBuilder::new("b");
        let idx = b.vload(0x80);
        let g = b.vload_indexed(0x100, idx);
        let s = b.vfadd(g, 1.0);
        b.vstore(s, 0x200);
        let second = b.finish();

        a.concat_remapped(&second, &[]);
        assert_eq!(a.num_virt_regs, 1 + 3);
        // The appended phase's registers start after the first phase's.
        assert_eq!(a.instrs[2].dst, Some(VirtReg(1)));
        assert_eq!(a.instrs[3].mem.unwrap().index, Some(VirtReg(1)));
        assert_eq!(a.instrs[4].srcs.get(0), Some(IrOperand::Reg(VirtReg(2))));
        // SSA: every destination id is defined exactly once.
        let mut defs: Vec<u32> = a.instrs.iter().filter_map(|i| i.dst.map(|d| d.0)).collect();
        defs.sort_unstable();
        defs.dedup();
        assert_eq!(defs.len(), 4);
        // Phases stay independent, so pressure is the max, not the sum.
        assert_eq!(a.max_pressure(), second.max_pressure());
    }
}
