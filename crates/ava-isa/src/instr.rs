//! Vector instruction representation.
//!
//! A [`VecInstr`] is one dynamic vector instruction as seen by the decoupled
//! VPU: an opcode, an optional destination register, up to [`MAX_SRCS`]
//! source operands (registers or scalar immediates), and — for memory
//! operations — an address descriptor. Programs are sequences of these
//! instructions (see [`crate::Program`]).
//!
//! The source operands live inline in an [`OperandList`], so building,
//! compiling and lowering an instruction allocates nothing on the heap. The
//! list is packed: one `u64` payload word per operand (a register's index
//! or a scalar's bit pattern), a bit mask marking which operands are
//! registers, and a length — 32 bytes for three operands, where three
//! `Operand`s side by side would take 48. An operand is rebuilt by value
//! from its word and mask bit ([`OperandList::get`],
//! [`OperandList::iter`]). The same generic list carries the compiler IR's
//! operands, whose registers are virtual; an operand type joins through
//! [`PackedOperand`].
//!
//! The list's `Debug` text is exactly that of a `Vec` of the same operands.
//! A program's `Debug` text is the program half of every result-store key,
//! so the packing is invisible to stored results.

use std::fmt;
use std::marker::PhantomData;

use crate::opcode::{InstrKind, Opcode};
use crate::reg::VReg;
use crate::value::Element;

/// A source operand: either a logical vector register or a scalar value
/// broadcast to every element (the `.vf` / `.vx` instruction forms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A logical vector register.
    Reg(VReg),
    /// A scalar immediate broadcast across the vector.
    Scalar(Element),
}

impl Operand {
    /// The register, if this operand is a register.
    #[must_use]
    pub fn reg(&self) -> Option<VReg> {
        match self {
            Operand::Reg(r) => Some(*r),
            Operand::Scalar(_) => None,
        }
    }

    /// Convenience constructor for a floating-point scalar operand.
    #[must_use]
    pub fn scalar_f64(v: f64) -> Self {
        Operand::Scalar(Element::from_f64(v))
    }

    /// Convenience constructor for an integer scalar operand.
    #[must_use]
    pub fn scalar_i64(v: i64) -> Self {
        Operand::Scalar(Element::from_i64(v))
    }
}

impl From<VReg> for Operand {
    fn from(r: VReg) -> Self {
        Operand::Reg(r)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Scalar(e) => write!(f, "#{}", e.as_f64()),
        }
    }
}

/// Most source operands one instruction reads: `vfmacc` reads a scalar, a
/// source and its accumulator, `vmerge` two values and a mask.
pub const MAX_SRCS: usize = 3;

/// An operand that packs into one payload word and a register flag, so an
/// [`OperandList`] can hold it inline.
pub trait PackedOperand: Copy {
    /// The operand's payload word, and whether it is a register.
    fn pack(self) -> (u64, bool);
    /// Rebuilds the operand [`PackedOperand::pack`] split.
    fn unpack(word: u64, is_reg: bool) -> Self;
}

impl PackedOperand for Operand {
    fn pack(self) -> (u64, bool) {
        match self {
            Operand::Reg(r) => (r.index() as u64, true),
            Operand::Scalar(e) => (e.bits(), false),
        }
    }

    fn unpack(word: u64, is_reg: bool) -> Self {
        if is_reg {
            Operand::Reg(VReg::new(word as u8))
        } else {
            Operand::Scalar(Element::from_bits(word))
        }
    }
}

/// The source operands of one instruction, at most [`MAX_SRCS`], packed
/// inline (see the [module documentation](self)).
///
/// Words and mask bits past the length stay zero, so `==` holds exactly
/// when the operands do, as it does for their slices.
///
/// ```
/// use ava_isa::{Opcode, Operand, OperandList, VReg};
/// let ops = [Operand::scalar_f64(2.0), Operand::Reg(VReg::new(5))];
/// let list = OperandList::new(Opcode::VFMul, &ops);
/// assert_eq!(list.len(), 2);
/// assert_eq!(list.get(1), Some(Operand::Reg(VReg::new(5))));
/// assert_eq!(format!("{list:?}"), format!("{:?}", ops.to_vec()));
/// ```
#[derive(Clone, Copy, PartialEq)]
pub struct OperandList<T> {
    words: [u64; MAX_SRCS],
    /// Bit `i` is set when operand `i` is a register.
    regs: u8,
    len: u8,
    kind: PhantomData<T>,
}

impl<T: PackedOperand> OperandList<T> {
    /// The empty list.
    pub const EMPTY: Self = Self {
        words: [0; MAX_SRCS],
        regs: 0,
        len: 0,
        kind: PhantomData,
    };

    /// The source operands of one `opcode` instruction, in operand order.
    ///
    /// # Panics
    ///
    /// Panics, naming `opcode`, if there are more than [`MAX_SRCS`].
    #[must_use]
    pub fn new(opcode: Opcode, ops: &[T]) -> Self {
        assert!(
            ops.len() <= MAX_SRCS,
            "{opcode} has {} source operands; an instruction carries at most {MAX_SRCS}",
            ops.len()
        );
        ops.iter().copied().collect()
    }

    /// Appends one operand.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SRCS`] operands.
    pub fn push(&mut self, op: T) {
        let i = self.len as usize;
        assert!(
            i < MAX_SRCS,
            "an instruction carries at most {MAX_SRCS} source operands"
        );
        let (word, is_reg) = op.pack();
        self.words[i] = word;
        self.regs |= u8::from(is_reg) << i;
        self.len += 1;
    }

    /// Number of operands.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if the list holds no operand.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Operand `i`, or `None` past the end.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<T> {
        (i < self.len()).then(|| T::unpack(self.words[i], self.regs >> i & 1 == 1))
    }

    /// The operands by value, in operand order.
    #[must_use]
    pub fn iter(&self) -> OperandIter<T> {
        OperandIter {
            list: *self,
            next: 0,
        }
    }
}

impl<T: PackedOperand + fmt::Debug> fmt::Debug for OperandList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PackedOperand> FromIterator<T> for OperandList<T> {
    /// # Panics
    ///
    /// Panics if `iter` yields more than [`MAX_SRCS`] operands.
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut list = Self::EMPTY;
        for op in iter {
            list.push(op);
        }
        list
    }
}

impl<T: PackedOperand> IntoIterator for &OperandList<T> {
    type Item = T;
    type IntoIter = OperandIter<T>;

    fn into_iter(self) -> OperandIter<T> {
        self.iter()
    }
}

/// Iterator over an [`OperandList`]'s operands, by value.
#[derive(Clone)]
pub struct OperandIter<T> {
    list: OperandList<T>,
    next: usize,
}

impl<T: PackedOperand> Iterator for OperandIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        let op = self.list.get(self.next)?;
        self.next += 1;
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.list.len() - self.next;
        (left, Some(left))
    }
}

impl<T: PackedOperand> ExactSizeIterator for OperandIter<T> {}

/// The register numbers of one instruction's register sources, at most
/// [`MAX_SRCS`], in operand order: the register allocator's source slots
/// and the VPU's renamed sources.
///
/// It derefs to a slice, so indexing, `len()` and iteration work as on a
/// `Vec`, but it lives inline, so filling one allocates nothing.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct RegList<T> {
    regs: [T; MAX_SRCS],
    len: u8,
}

impl<T: Copy + Default> RegList<T> {
    /// The empty list.
    #[must_use]
    pub fn new() -> Self {
        Self {
            regs: [T::default(); MAX_SRCS],
            len: 0,
        }
    }

    /// Appends one register.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds [`MAX_SRCS`] registers.
    pub fn push(&mut self, reg: T) {
        let i = self.len as usize;
        assert!(
            i < MAX_SRCS,
            "an instruction has at most {MAX_SRCS} register sources"
        );
        self.regs[i] = reg;
        self.len += 1;
    }

    /// The registers as a slice, in operand order.
    #[must_use]
    pub fn as_slice(&self) -> &[T] {
        &self.regs[..self.len as usize]
    }
}

impl<T: Copy + Default> Default for RegList<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Copy + Default> std::ops::Deref for RegList<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + fmt::Debug> fmt::Debug for RegList<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<'a, T: Copy + Default> IntoIterator for &'a RegList<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Address descriptor for vector memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemAccess {
    /// Base byte address of element 0.
    pub base: u64,
    /// Stride in bytes between consecutive elements (8 for unit stride).
    pub stride: i64,
    /// For indexed (gather/scatter) accesses, the register holding the
    /// per-element indices; addresses are `base + 8 * index[i]`.
    pub index_reg: Option<VReg>,
}

impl MemAccess {
    /// Unit-stride access starting at `base`.
    #[must_use]
    pub fn unit(base: u64) -> Self {
        Self {
            base,
            stride: 8,
            index_reg: None,
        }
    }

    /// Strided access with `stride` bytes between elements.
    #[must_use]
    pub fn strided(base: u64, stride: i64) -> Self {
        Self {
            base,
            stride,
            index_reg: None,
        }
    }

    /// Indexed access where `index_reg` holds 64-bit element indices.
    #[must_use]
    pub fn indexed(base: u64, index_reg: VReg) -> Self {
        Self {
            base,
            stride: 8,
            index_reg: Some(index_reg),
        }
    }
}

/// Which vector length a dynamic instruction executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VlMode {
    /// Use the vector length currently configured by the last `vsetvl`.
    #[default]
    Current,
    /// Force the full maximum vector length. The compiler emits spill code
    /// this way because it cannot know the application vector length
    /// (paper §II.A); the microarchitecture's swap operations behave the
    /// same way.
    FullMvl,
}

/// Provenance of an instruction: the statistics in Figure 3 distinguish
/// ordinary vector memory operations from compiler-generated spill code (the
/// swap operations generated inside the AVA pipeline are counted separately
/// by the VPU itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum InstrRole {
    /// Ordinary application instruction.
    #[default]
    Normal,
    /// Compiler-inserted reload of a spilled logical register.
    SpillLoad,
    /// Compiler-inserted spill of a logical register to the stack.
    SpillStore,
}

/// One dynamic vector instruction.
///
/// Construct instructions through the provided constructors
/// ([`VecInstr::vload`], [`VecInstr::binary`], [`VecInstr::vfmacc`], ...)
/// rather than by filling fields, so operand-count invariants hold.
///
/// ```
/// use ava_isa::{VecInstr, VReg, Opcode};
/// let i = VecInstr::binary(Opcode::VFAdd, VReg::new(6), VReg::new(5), VReg::new(4));
/// assert_eq!(i.dst, Some(VReg::new(6)));
/// assert_eq!(i.source_regs().count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VecInstr {
    /// The operation.
    pub opcode: Opcode,
    /// Destination logical register (absent for stores and `vsetvl`).
    pub dst: Option<VReg>,
    /// Source operands in operand order.
    pub srcs: OperandList<Operand>,
    /// Address descriptor for memory operations.
    pub mem: Option<MemAccess>,
    /// Vector length selection for this instruction.
    pub vl_mode: VlMode,
    /// Requested application vector length for `vsetvl`.
    pub setvl_request: Option<usize>,
    /// Provenance (normal vs compiler spill code).
    pub role: InstrRole,
}

impl VecInstr {
    fn base(opcode: Opcode, dst: Option<VReg>, srcs: &[Operand]) -> Self {
        Self {
            opcode,
            dst,
            srcs: OperandList::new(opcode, srcs),
            mem: None,
            vl_mode: VlMode::Current,
            setvl_request: None,
            role: InstrRole::Normal,
        }
    }

    /// `vsetvl`: request `avl` elements for subsequent instructions.
    #[must_use]
    pub fn setvl(avl: usize) -> Self {
        let mut i = Self::base(Opcode::SetVl, None, &[]);
        i.setvl_request = Some(avl);
        i
    }

    /// Unit-stride vector load into `dst` from `base`.
    #[must_use]
    pub fn vload(dst: VReg, base: u64) -> Self {
        let mut i = Self::base(Opcode::VLoad, Some(dst), &[]);
        i.mem = Some(MemAccess::unit(base));
        i
    }

    /// Unit-stride vector store of `src` to `base`.
    #[must_use]
    pub fn vstore(src: VReg, base: u64) -> Self {
        let mut i = Self::base(Opcode::VStore, None, &[Operand::Reg(src)]);
        i.mem = Some(MemAccess::unit(base));
        i
    }

    /// Strided vector load.
    #[must_use]
    pub fn vload_strided(dst: VReg, base: u64, stride: i64) -> Self {
        let mut i = Self::base(Opcode::VLoadStrided, Some(dst), &[]);
        i.mem = Some(MemAccess::strided(base, stride));
        i
    }

    /// Strided vector store.
    #[must_use]
    pub fn vstore_strided(src: VReg, base: u64, stride: i64) -> Self {
        let mut i = Self::base(Opcode::VStoreStrided, None, &[Operand::Reg(src)]);
        i.mem = Some(MemAccess::strided(base, stride));
        i
    }

    /// Indexed gather: `dst[i] = mem[base + 8 * idx[i]]`.
    #[must_use]
    pub fn vload_indexed(dst: VReg, base: u64, idx: VReg) -> Self {
        let mut i = Self::base(Opcode::VLoadIndexed, Some(dst), &[Operand::Reg(idx)]);
        i.mem = Some(MemAccess::indexed(base, idx));
        i
    }

    /// Indexed scatter: `mem[base + 8 * idx[i]] = src[i]`.
    #[must_use]
    pub fn vstore_indexed(src: VReg, base: u64, idx: VReg) -> Self {
        let mut i = Self::base(
            Opcode::VStoreIndexed,
            None,
            &[Operand::Reg(src), Operand::Reg(idx)],
        );
        i.mem = Some(MemAccess::indexed(base, idx));
        i
    }

    /// Generic two-source arithmetic instruction `dst = src0 op src1`.
    #[must_use]
    pub fn binary(
        opcode: Opcode,
        dst: VReg,
        src0: impl Into<Operand>,
        src1: impl Into<Operand>,
    ) -> Self {
        Self::base(opcode, Some(dst), &[src0.into(), src1.into()])
    }

    /// Generic one-source arithmetic instruction `dst = op src`.
    #[must_use]
    pub fn unary(opcode: Opcode, dst: VReg, src: impl Into<Operand>) -> Self {
        Self::base(opcode, Some(dst), &[src.into()])
    }

    /// Fused multiply-add with a scalar multiplier: `dst += scalar * src`
    /// (the `vfmacc.vf` form used by Axpy).
    #[must_use]
    pub fn vfmacc(dst: VReg, scalar: f64, src: VReg) -> Self {
        Self::base(
            Opcode::VFMacc,
            Some(dst),
            &[
                Operand::scalar_f64(scalar),
                Operand::Reg(src),
                Operand::Reg(dst),
            ],
        )
    }

    /// Merge/select: `dst[i] = mask[i] ? on_true[i] : on_false[i]`.
    #[must_use]
    pub fn vmerge(
        dst: VReg,
        on_true: impl Into<Operand>,
        on_false: impl Into<Operand>,
        mask: VReg,
    ) -> Self {
        Self::base(
            Opcode::VMerge,
            Some(dst),
            &[on_true.into(), on_false.into(), Operand::Reg(mask)],
        )
    }

    /// Broadcast a scalar to every element of `dst`.
    #[must_use]
    pub fn vsplat(dst: VReg, value: f64) -> Self {
        Self::base(Opcode::VMvSplat, Some(dst), &[Operand::scalar_f64(value)])
    }

    /// Vector-register copy.
    #[must_use]
    pub fn vmv(dst: VReg, src: VReg) -> Self {
        Self::base(Opcode::VMv, Some(dst), &[Operand::Reg(src)])
    }

    /// Index vector: `dst[i] = i`.
    #[must_use]
    pub fn vid(dst: VReg) -> Self {
        Self::base(Opcode::VId, Some(dst), &[])
    }

    /// Sum reduction of `src` (+ scalar seed) into element 0 of `dst`.
    #[must_use]
    pub fn vfredsum(dst: VReg, src: VReg) -> Self {
        Self::base(Opcode::VFRedSum, Some(dst), &[Operand::Reg(src)])
    }

    /// Marks this instruction as running at full MVL regardless of the
    /// current vector length (spill and swap semantics). Returns `self` for
    /// chaining.
    #[must_use]
    pub fn with_full_mvl(mut self) -> Self {
        self.vl_mode = VlMode::FullMvl;
        self
    }

    /// Tags the instruction with a spill role. Returns `self` for chaining.
    #[must_use]
    pub fn with_role(mut self, role: InstrRole) -> Self {
        self.role = role;
        self
    }

    /// The queue/kind classification of this instruction.
    #[must_use]
    pub fn kind(&self) -> InstrKind {
        self.opcode.kind()
    }

    /// Iterator over the logical registers read by this instruction
    /// (register sources plus the index register of indexed accesses).
    pub fn source_regs(&self) -> impl Iterator<Item = VReg> + '_ {
        self.srcs.iter().filter_map(|s| s.reg())
    }

    /// True if the instruction writes a register destination.
    #[must_use]
    pub fn has_dst(&self) -> bool {
        self.dst.is_some()
    }

    /// True if this instruction is compiler-generated spill code.
    #[must_use]
    pub fn is_spill(&self) -> bool {
        matches!(self.role, InstrRole::SpillLoad | InstrRole::SpillStore)
    }
}

impl fmt::Display for VecInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.opcode.mnemonic())?;
        if let Some(d) = self.dst {
            write!(f, " {d}")?;
        }
        for s in &self.srcs {
            write!(f, ", {s}")?;
        }
        if let Some(m) = &self.mem {
            write!(f, " @{:#x}", m.base)?;
            if m.stride != 8 {
                write!(f, " stride={}", m.stride)?;
            }
        }
        if let Some(avl) = self.setvl_request {
            write!(f, " avl={avl}")?;
        }
        if self.is_spill() {
            write!(f, " ; spill")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_have_dst_and_mem_but_no_reg_sources() {
        let i = VecInstr::vload(VReg::new(4), 0x1000);
        assert!(i.has_dst());
        assert!(i.mem.is_some());
        assert_eq!(i.source_regs().count(), 0);
        assert_eq!(i.kind(), InstrKind::Memory);
    }

    #[test]
    fn stores_have_no_dst_but_read_the_data_register() {
        let i = VecInstr::vstore(VReg::new(4), 0x1000);
        assert!(!i.has_dst());
        assert_eq!(i.source_regs().collect::<Vec<_>>(), vec![VReg::new(4)]);
    }

    #[test]
    fn indexed_access_reads_the_index_register() {
        let i = VecInstr::vload_indexed(VReg::new(1), 0x0, VReg::new(9));
        assert_eq!(i.source_regs().collect::<Vec<_>>(), vec![VReg::new(9)]);
        assert_eq!(i.mem.unwrap().index_reg, Some(VReg::new(9)));
        let s = VecInstr::vstore_indexed(VReg::new(2), 0x0, VReg::new(9));
        assert_eq!(s.source_regs().count(), 2);
    }

    #[test]
    fn fmacc_reads_its_own_destination() {
        let i = VecInstr::vfmacc(VReg::new(2), 2.0, VReg::new(1));
        let srcs: Vec<_> = i.source_regs().collect();
        assert!(srcs.contains(&VReg::new(2)));
        assert!(srcs.contains(&VReg::new(1)));
    }

    #[test]
    fn setvl_is_config_and_carries_request() {
        let i = VecInstr::setvl(100);
        assert_eq!(i.kind(), InstrKind::Config);
        assert_eq!(i.setvl_request, Some(100));
        assert!(!i.has_dst());
    }

    #[test]
    fn spill_tagging_and_full_mvl() {
        let i = VecInstr::vstore(VReg::new(3), 0x20)
            .with_full_mvl()
            .with_role(InstrRole::SpillStore);
        assert!(i.is_spill());
        assert_eq!(i.vl_mode, VlMode::FullMvl);
        assert!(i.to_string().contains("spill"));
    }

    #[test]
    fn display_contains_mnemonic_and_registers() {
        let i = VecInstr::binary(Opcode::VFAdd, VReg::new(6), VReg::new(5), VReg::new(4));
        let s = i.to_string();
        assert!(s.contains("vfadd.v"));
        assert!(s.contains("v6"));
        assert!(s.contains("v5"));
        assert!(s.contains("v4"));
    }

    #[test]
    fn merge_reads_three_registers_when_all_are_registers() {
        let i = VecInstr::vmerge(VReg::new(1), VReg::new(2), VReg::new(3), VReg::new(4));
        assert_eq!(i.source_regs().count(), 3);
    }

    #[test]
    fn scalar_operands_are_not_register_sources() {
        let i = VecInstr::binary(
            Opcode::VFMul,
            VReg::new(1),
            Operand::scalar_f64(3.0),
            VReg::new(2),
        );
        assert_eq!(i.source_regs().collect::<Vec<_>>(), vec![VReg::new(2)]);
    }

    #[test]
    fn the_operand_list_is_packed_into_32_bytes() {
        assert_eq!(std::mem::size_of::<OperandList<Operand>>(), 32);
        assert!(std::mem::size_of::<VecInstr>() <= 80);
    }

    #[test]
    #[should_panic(expected = "vfadd.v has 4 source operands")]
    fn a_fourth_source_is_rejected_naming_the_opcode() {
        let r = Operand::Reg(VReg::new(1));
        let _ = OperandList::new(Opcode::VFAdd, &[r, r, r, r]);
    }

    #[test]
    #[should_panic(expected = "at most 3 source operands")]
    fn pushing_past_the_capacity_panics() {
        let mut list = OperandList::new(Opcode::VMerge, &[Operand::scalar_i64(-1); 3]);
        list.push(Operand::Reg(VReg::new(0)));
    }
}
