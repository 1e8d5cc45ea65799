//! Intrinsics-style builder for vector kernels.
//!
//! [`KernelBuilder`] is the API the workloads use to express their inner
//! loops, playing the role of the RISC-V vector intrinsics in the original
//! RiVEC sources. Every value-producing method returns a fresh [`VirtReg`],
//! so kernels are written in SSA style and the register allocator decides
//! how they map onto the architectural registers.

use ava_isa::{Element, Opcode, OperandList};

use crate::ir::{IrInstr, IrKernel, IrMemAccess, IrOperand, VirtReg};

/// Builder for straight-line vector kernels in SSA-like IR form.
///
/// ```
/// use ava_compiler::KernelBuilder;
/// let mut b = KernelBuilder::new("demo");
/// b.set_vl(16);
/// let x = b.vload(0x100);
/// let two_x = b.vfmul_scalar(x, 2.0);
/// b.vstore(two_x, 0x200);
/// let k = b.finish();
/// assert_eq!(k.len(), 4);
/// assert_eq!(k.num_virt_regs, 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct KernelBuilder {
    kernel: IrKernel,
}

impl KernelBuilder {
    /// Creates an empty kernel with the given name.
    #[must_use]
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            kernel: IrKernel {
                name: name.into(),
                instrs: Vec::new(),
                num_virt_regs: 0,
            },
        }
    }

    /// Finalises the builder and returns the IR kernel.
    #[must_use]
    pub fn finish(self) -> IrKernel {
        self.kernel
    }

    /// Number of instructions emitted so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kernel.instrs.len()
    }

    /// True if no instructions have been emitted.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kernel.instrs.is_empty()
    }

    fn fresh(&mut self) -> VirtReg {
        let r = VirtReg(self.kernel.num_virt_regs);
        self.kernel.num_virt_regs += 1;
        r
    }

    /// Appends one instruction; its operands are stored inline.
    fn push(
        &mut self,
        opcode: Opcode,
        dst: Option<VirtReg>,
        srcs: &[IrOperand],
        mem: Option<IrMemAccess>,
    ) {
        self.kernel.instrs.push(IrInstr {
            opcode,
            dst,
            srcs: OperandList::new(opcode, srcs),
            mem,
            setvl_request: None,
        });
    }

    fn emit_value(&mut self, opcode: Opcode, srcs: &[IrOperand]) -> VirtReg {
        let dst = self.fresh();
        self.push(opcode, Some(dst), srcs, None);
        dst
    }

    fn emit_load(&mut self, opcode: Opcode, srcs: &[IrOperand], mem: IrMemAccess) -> VirtReg {
        let dst = self.fresh();
        self.push(opcode, Some(dst), srcs, Some(mem));
        dst
    }

    // ------------------------------------------------------------ config

    /// Emits a `vsetvl` requesting `avl` elements.
    pub fn set_vl(&mut self, avl: usize) {
        self.kernel.instrs.push(IrInstr {
            opcode: Opcode::SetVl,
            dst: None,
            srcs: OperandList::EMPTY,
            mem: None,
            setvl_request: Some(avl),
        });
    }

    // ------------------------------------------------------------ memory

    /// Unit-stride load.
    pub fn vload(&mut self, base: u64) -> VirtReg {
        self.emit_load(Opcode::VLoad, &[], IrMemAccess::strided(base, 8))
    }

    /// Strided load (`stride` in bytes).
    pub fn vload_strided(&mut self, base: u64, stride: i64) -> VirtReg {
        self.emit_load(
            Opcode::VLoadStrided,
            &[],
            IrMemAccess::strided(base, stride),
        )
    }

    /// Indexed gather: element i comes from `base + 8 * idx[i]`.
    pub fn vload_indexed(&mut self, base: u64, idx: VirtReg) -> VirtReg {
        self.emit_load(
            Opcode::VLoadIndexed,
            &[IrOperand::Reg(idx)],
            IrMemAccess::indexed(base, idx),
        )
    }

    /// Unit-stride store.
    pub fn vstore(&mut self, src: VirtReg, base: u64) {
        self.push(
            Opcode::VStore,
            None,
            &[IrOperand::Reg(src)],
            Some(IrMemAccess::strided(base, 8)),
        );
    }

    /// Strided store.
    pub fn vstore_strided(&mut self, src: VirtReg, base: u64, stride: i64) {
        self.push(
            Opcode::VStoreStrided,
            None,
            &[IrOperand::Reg(src)],
            Some(IrMemAccess::strided(base, stride)),
        );
    }

    /// Indexed scatter.
    pub fn vstore_indexed(&mut self, src: VirtReg, base: u64, idx: VirtReg) {
        self.push(
            Opcode::VStoreIndexed,
            None,
            &[IrOperand::Reg(src), IrOperand::Reg(idx)],
            Some(IrMemAccess::indexed(base, idx)),
        );
    }

    // ------------------------------------------------------ moves & misc

    /// Broadcasts a scalar value to a fresh vector register.
    pub fn vsplat(&mut self, value: f64) -> VirtReg {
        self.emit_value(
            Opcode::VMvSplat,
            &[IrOperand::Scalar(Element::from_f64(value))],
        )
    }

    /// Vector copy.
    pub fn vmv(&mut self, src: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VMv, &[IrOperand::Reg(src)])
    }

    /// Index vector `[0, 1, 2, ...]`.
    pub fn vid(&mut self) -> VirtReg {
        self.emit_value(Opcode::VId, &[])
    }

    /// Select `mask ? on_true : on_false`.
    pub fn vmerge(
        &mut self,
        on_true: impl Into<IrOperand>,
        on_false: impl Into<IrOperand>,
        mask: VirtReg,
    ) -> VirtReg {
        self.emit_value(
            Opcode::VMerge,
            &[on_true.into(), on_false.into(), IrOperand::Reg(mask)],
        )
    }

    // ---------------------------------------------------- fp arithmetic

    /// `a + b`.
    pub fn vfadd(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFAdd, &[a.into(), b.into()])
    }

    /// `a - b`.
    pub fn vfsub(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFSub, &[a.into(), b.into()])
    }

    /// `a * b`.
    pub fn vfmul(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFMul, &[a.into(), b.into()])
    }

    /// `a * scalar`.
    pub fn vfmul_scalar(&mut self, a: VirtReg, s: f64) -> VirtReg {
        self.vfmul(a, s)
    }

    /// `a / b`.
    pub fn vfdiv(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFDiv, &[a.into(), b.into()])
    }

    /// `sqrt(a)`.
    pub fn vfsqrt(&mut self, a: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFSqrt, &[IrOperand::Reg(a)])
    }

    /// `-a`.
    pub fn vfneg(&mut self, a: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFNeg, &[IrOperand::Reg(a)])
    }

    /// `|a|`.
    pub fn vfabs(&mut self, a: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFAbs, &[IrOperand::Reg(a)])
    }

    /// `exp(a)`.
    pub fn vfexp(&mut self, a: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFExp, &[IrOperand::Reg(a)])
    }

    /// `ln(a)`.
    pub fn vfln(&mut self, a: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFLn, &[IrOperand::Reg(a)])
    }

    /// `min(a, b)`.
    pub fn vfmin(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFMin, &[a.into(), b.into()])
    }

    /// `max(a, b)`.
    pub fn vfmax(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VFMax, &[a.into(), b.into()])
    }

    /// Fused multiply-add producing a *new* value: `a * b + c`.
    pub fn vfmadd(
        &mut self,
        a: impl Into<IrOperand>,
        b: impl Into<IrOperand>,
        c: impl Into<IrOperand>,
    ) -> VirtReg {
        self.emit_value(Opcode::VFMacc, &[a.into(), b.into(), c.into()])
    }

    /// Fused multiply-accumulate into an existing accumulator with a scalar
    /// multiplier (`acc + s * x`), mirroring `vfmacc.vf`.
    pub fn vfmacc_scalar(&mut self, acc: VirtReg, s: f64, x: VirtReg) -> VirtReg {
        self.vfmadd(s, x, acc)
    }

    // -------------------------------------------------- int arithmetic

    /// Integer `a + b`.
    pub fn vadd(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VAdd, &[a.into(), b.into()])
    }

    /// Integer `a * b`.
    pub fn vmul(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VMul, &[a.into(), b.into()])
    }

    /// Integer minimum.
    pub fn vmin(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VMin, &[a.into(), b.into()])
    }

    // --------------------------------------------------------- compares

    /// Floating `a < b` producing a 0/1 mask vector.
    pub fn vmflt(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VMFLt, &[a.into(), b.into()])
    }

    /// Floating `a >= b` producing a 0/1 mask vector.
    pub fn vmfge(&mut self, a: impl Into<IrOperand>, b: impl Into<IrOperand>) -> VirtReg {
        self.emit_value(Opcode::VMFGe, &[a.into(), b.into()])
    }

    // ------------------------------------------------------- reductions

    /// Sum reduction into element 0 of the result register.
    pub fn vfredsum(&mut self, src: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFRedSum, &[IrOperand::Reg(src)])
    }

    /// Max reduction into element 0 of the result register.
    pub fn vfredmax(&mut self, src: VirtReg) -> VirtReg {
        self.emit_value(Opcode::VFRedMax, &[IrOperand::Reg(src)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_isa::InstrKind;

    #[test]
    fn builder_assigns_fresh_virtual_registers() {
        let mut b = KernelBuilder::new("t");
        let a = b.vload(0);
        let c = b.vload(8);
        let d = b.vfadd(a, c);
        assert_eq!(a, VirtReg(0));
        assert_eq!(c, VirtReg(1));
        assert_eq!(d, VirtReg(2));
        assert_eq!(b.finish().num_virt_regs, 3);
    }

    #[test]
    fn stores_and_setvl_do_not_define_values() {
        let mut b = KernelBuilder::new("t");
        b.set_vl(16);
        let x = b.vload(0);
        b.vstore(x, 64);
        let k = b.finish();
        assert_eq!(k.num_virt_regs, 1);
        assert_eq!(k.instrs[0].kind(), InstrKind::Config);
        assert!(k.instrs[2].dst.is_none());
    }

    #[test]
    fn scalar_operands_do_not_create_registers() {
        let mut b = KernelBuilder::new("t");
        let x = b.vload(0);
        let _y = b.vfmul(x, 3.0);
        let k = b.finish();
        assert_eq!(k.num_virt_regs, 2);
        assert_eq!(k.instrs[1].source_regs().count(), 1);
    }

    #[test]
    fn fmadd_reads_three_values() {
        let mut b = KernelBuilder::new("t");
        let x = b.vload(0);
        let y = b.vload(8);
        let z = b.vload(16);
        let r = b.vfmadd(x, y, z);
        let k = b.finish();
        assert_eq!(k.instrs[3].source_regs().count(), 3);
        assert_eq!(r, VirtReg(3));
    }

    #[test]
    fn indexed_access_records_index_register() {
        let mut b = KernelBuilder::new("t");
        let idx = b.vid();
        let g = b.vload_indexed(0x100, idx);
        b.vstore_indexed(g, 0x200, idx);
        let k = b.finish();
        assert_eq!(k.instrs[1].mem.unwrap().index, Some(idx));
        assert_eq!(k.instrs[2].source_regs().count(), 2);
    }

    #[test]
    fn is_empty_and_len_track_emission() {
        let mut b = KernelBuilder::new("t");
        assert!(b.is_empty());
        b.set_vl(4);
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
