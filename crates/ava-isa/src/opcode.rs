//! Vector opcodes, their functional-unit classes and queue assignment.

/// The broad class of a vector instruction, used by the two-stage issue unit
/// to select between the arithmetic and memory queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Operates on register operands only; issued through the arithmetic queue.
    Arithmetic,
    /// Touches memory (loads, stores, gathers, scatters, swaps, spills);
    /// issued through the memory queue.
    Memory,
    /// Machine-configuration operation (`vsetvl`); consumed by the front end
    /// and never occupies an issue-queue slot.
    Config,
}

/// Functional-unit class; determines execution start-up latency and whether
/// the operation pipelines one element per lane per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecClass {
    /// Register moves, splats, merges, slides.
    Move,
    /// Integer ALU operations.
    IntAlu,
    /// Integer multiply.
    IntMul,
    /// Floating-point add/sub/min/max/compare/abs/neg.
    FpAdd,
    /// Floating-point multiply.
    FpMul,
    /// Fused multiply-add.
    FpFma,
    /// Floating-point divide (long latency, not fully pipelined).
    FpDiv,
    /// Floating-point square root (long latency, not fully pipelined).
    FpSqrt,
    /// Transcendental approximation unit (exp/log); long latency.
    FpTrans,
    /// Reductions across the whole vector.
    Reduction,
    /// Vector memory access.
    Memory,
    /// Configuration (no functional unit).
    Config,
}

impl ExecClass {
    /// Start-up latency in VPU cycles before the first result element is
    /// produced. After start-up, pipelined classes retire `lanes` elements
    /// per cycle; non-pipelined classes (div/sqrt/trans) retire `lanes`
    /// elements every [`ExecClass::recurrence`] cycles.
    #[must_use]
    pub fn startup_latency(self) -> u64 {
        match self {
            ExecClass::Move => 1,
            ExecClass::IntAlu => 2,
            ExecClass::IntMul => 3,
            ExecClass::FpAdd => 4,
            ExecClass::FpMul => 4,
            ExecClass::FpFma => 5,
            ExecClass::FpDiv => 12,
            ExecClass::FpSqrt => 12,
            ExecClass::FpTrans => 8,
            ExecClass::Reduction => 4,
            ExecClass::Memory => 0,
            ExecClass::Config => 0,
        }
    }

    /// Initiation interval between element groups for this class: 1 for
    /// fully pipelined units, larger for iterative units (divide, square
    /// root, transcendental).
    #[must_use]
    pub fn recurrence(self) -> u64 {
        match self {
            ExecClass::FpDiv | ExecClass::FpSqrt => 4,
            ExecClass::FpTrans => 2,
            _ => 1,
        }
    }

    /// True if the class is executed on the floating-point datapath
    /// (used by the energy model to attribute FPU dynamic energy).
    #[must_use]
    pub fn is_fp(self) -> bool {
        matches!(
            self,
            ExecClass::FpAdd
                | ExecClass::FpMul
                | ExecClass::FpFma
                | ExecClass::FpDiv
                | ExecClass::FpSqrt
                | ExecClass::FpTrans
                | ExecClass::Reduction
        )
    }
}

/// Every vector operation understood by the simulator.
///
/// The set is a pragmatic subset of the RISC-V V extension (plus `exp`/`log`
/// approximation ops used by the financial kernels), sufficient to express
/// the six RiVEC workloads evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ------------------------------------------------------------- memory
    /// Unit-stride load from a base address.
    VLoad,
    /// Unit-stride store to a base address.
    VStore,
    /// Constant-stride load.
    VLoadStrided,
    /// Constant-stride store.
    VStoreStrided,
    /// Indexed gather: element i loaded from `base + 8 * index[i]`.
    VLoadIndexed,
    /// Indexed scatter: element i stored to `base + 8 * index[i]`.
    VStoreIndexed,

    // ------------------------------------------------------- fp arithmetic
    /// Floating-point addition.
    VFAdd,
    /// Floating-point subtraction.
    VFSub,
    /// Floating-point multiplication.
    VFMul,
    /// Floating-point division.
    VFDiv,
    /// Floating-point square root (unary).
    VFSqrt,
    /// Fused multiply-add: `dst = src0 * src1 + src2`.
    VFMacc,
    /// Fused multiply-subtract: `dst = src0 * src1 - src2`.
    VFMsac,
    /// Floating-point minimum.
    VFMin,
    /// Floating-point maximum.
    VFMax,
    /// Floating-point negation (unary).
    VFNeg,
    /// Floating-point absolute value (unary).
    VFAbs,
    /// Natural exponential approximation (unary).
    VFExp,
    /// Natural logarithm approximation (unary).
    VFLn,

    // ------------------------------------------------------ int arithmetic
    /// Integer addition.
    VAdd,
    /// Integer subtraction.
    VSub,
    /// Integer multiplication.
    VMul,
    /// Bitwise and.
    VAnd,
    /// Bitwise or.
    VOr,
    /// Bitwise xor.
    VXor,
    /// Logical shift left.
    VSll,
    /// Logical shift right.
    VSrl,
    /// Integer minimum.
    VMin,
    /// Integer maximum.
    VMax,

    // ----------------------------------------------------------- compares
    /// Set mask where `src0 < src1` (floating point).
    VMFLt,
    /// Set mask where `src0 <= src1` (floating point).
    VMFLe,
    /// Set mask where `src0 > src1` (floating point).
    VMFGt,
    /// Set mask where `src0 >= src1` (floating point).
    VMFGe,
    /// Set mask where `src0 == src1` (floating point).
    VMFEq,
    /// Set mask where `src0 < src1` (signed integer).
    VMSLt,
    /// Set mask where `src0 == src1` (integer).
    VMSEq,

    // ------------------------------------------------------ moves & select
    /// Vector-vector copy.
    VMv,
    /// Broadcast a scalar to every element.
    VMvSplat,
    /// Element index vector: `dst[i] = i`.
    VId,
    /// Select: `dst[i] = mask[i] ? src0[i] : src1[i]`
    /// (mask is `src2`).
    VMerge,
    /// Slide elements up by one (element 0 receives the scalar operand).
    VSlide1Up,
    /// Slide elements down by one (last element receives the scalar operand).
    VSlide1Down,

    // ---------------------------------------------------------- reductions
    /// Sum reduction; result written to element 0 of the destination.
    VFRedSum,
    /// Max reduction; result written to element 0 of the destination.
    VFRedMax,
    /// Min reduction; result written to element 0 of the destination.
    VFRedMin,

    // --------------------------------------------------------------- config
    /// `vsetvl`: set the vector length for subsequent instructions.
    SetVl,
}

impl Opcode {
    /// Every opcode, in declaration order. The canonical iteration set for
    /// exhaustive checks.
    pub const ALL: &'static [Opcode] = &[
        Opcode::VLoad,
        Opcode::VStore,
        Opcode::VLoadStrided,
        Opcode::VStoreStrided,
        Opcode::VLoadIndexed,
        Opcode::VStoreIndexed,
        Opcode::VFAdd,
        Opcode::VFSub,
        Opcode::VFMul,
        Opcode::VFDiv,
        Opcode::VFSqrt,
        Opcode::VFMacc,
        Opcode::VFMsac,
        Opcode::VFMin,
        Opcode::VFMax,
        Opcode::VFNeg,
        Opcode::VFAbs,
        Opcode::VFExp,
        Opcode::VFLn,
        Opcode::VAdd,
        Opcode::VSub,
        Opcode::VMul,
        Opcode::VAnd,
        Opcode::VOr,
        Opcode::VXor,
        Opcode::VSll,
        Opcode::VSrl,
        Opcode::VMin,
        Opcode::VMax,
        Opcode::VMFLt,
        Opcode::VMFLe,
        Opcode::VMFGt,
        Opcode::VMFGe,
        Opcode::VMFEq,
        Opcode::VMSLt,
        Opcode::VMSEq,
        Opcode::VMv,
        Opcode::VMvSplat,
        Opcode::VId,
        Opcode::VMerge,
        Opcode::VSlide1Up,
        Opcode::VSlide1Down,
        Opcode::VFRedSum,
        Opcode::VFRedMax,
        Opcode::VFRedMin,
        Opcode::SetVl,
    ];

    /// Queue/kind classification for the two-stage issue unit.
    #[must_use]
    pub fn kind(self) -> InstrKind {
        match self {
            Opcode::VLoad
            | Opcode::VStore
            | Opcode::VLoadStrided
            | Opcode::VStoreStrided
            | Opcode::VLoadIndexed
            | Opcode::VStoreIndexed => InstrKind::Memory,
            Opcode::SetVl => InstrKind::Config,
            _ => InstrKind::Arithmetic,
        }
    }

    /// Functional-unit class used for timing and energy accounting.
    #[must_use]
    pub fn exec_class(self) -> ExecClass {
        use Opcode::*;
        match self {
            VLoad | VStore | VLoadStrided | VStoreStrided | VLoadIndexed | VStoreIndexed => {
                ExecClass::Memory
            }
            VFAdd | VFSub | VFMin | VFMax | VFNeg | VFAbs => ExecClass::FpAdd,
            VMFLt | VMFLe | VMFGt | VMFGe | VMFEq => ExecClass::FpAdd,
            VFMul => ExecClass::FpMul,
            VFMacc | VFMsac => ExecClass::FpFma,
            VFDiv => ExecClass::FpDiv,
            VFSqrt => ExecClass::FpSqrt,
            VFExp | VFLn => ExecClass::FpTrans,
            VAdd | VSub | VAnd | VOr | VXor | VSll | VSrl | VMin | VMax | VMSLt | VMSEq => {
                ExecClass::IntAlu
            }
            VMul => ExecClass::IntMul,
            VMv | VMvSplat | VId | VMerge | VSlide1Up | VSlide1Down => ExecClass::Move,
            VFRedSum | VFRedMax | VFRedMin => ExecClass::Reduction,
            SetVl => ExecClass::Config,
        }
    }

    /// True for memory writes (stores and scatters), which have no register
    /// destination.
    #[must_use]
    pub fn is_store(self) -> bool {
        matches!(
            self,
            Opcode::VStore | Opcode::VStoreStrided | Opcode::VStoreIndexed
        )
    }

    /// True for memory reads (loads and gathers).
    #[must_use]
    pub fn is_load(self) -> bool {
        matches!(
            self,
            Opcode::VLoad | Opcode::VLoadStrided | Opcode::VLoadIndexed
        )
    }

    /// Short assembly-like mnemonic.
    #[must_use]
    pub fn mnemonic(self) -> &'static str {
        use Opcode::*;
        match self {
            VLoad => "vle.v",
            VStore => "vse.v",
            VLoadStrided => "vlse.v",
            VStoreStrided => "vsse.v",
            VLoadIndexed => "vlxe.v",
            VStoreIndexed => "vsxe.v",
            VFAdd => "vfadd.v",
            VFSub => "vfsub.v",
            VFMul => "vfmul.v",
            VFDiv => "vfdiv.v",
            VFSqrt => "vfsqrt.v",
            VFMacc => "vfmacc.v",
            VFMsac => "vfmsac.v",
            VFMin => "vfmin.v",
            VFMax => "vfmax.v",
            VFNeg => "vfneg.v",
            VFAbs => "vfabs.v",
            VFExp => "vfexp.v",
            VFLn => "vfln.v",
            VAdd => "vadd.v",
            VSub => "vsub.v",
            VMul => "vmul.v",
            VAnd => "vand.v",
            VOr => "vor.v",
            VXor => "vxor.v",
            VSll => "vsll.v",
            VSrl => "vsrl.v",
            VMin => "vmin.v",
            VMax => "vmax.v",
            VMFLt => "vmflt.v",
            VMFLe => "vmfle.v",
            VMFGt => "vmfgt.v",
            VMFGe => "vmfge.v",
            VMFEq => "vmfeq.v",
            VMSLt => "vmslt.v",
            VMSEq => "vmseq.v",
            VMv => "vmv.v",
            VMvSplat => "vmv.v.x",
            VId => "vid.v",
            VMerge => "vmerge.v",
            VSlide1Up => "vslide1up.v",
            VSlide1Down => "vslide1down.v",
            VFRedSum => "vfredsum.v",
            VFRedMax => "vfredmax.v",
            VFRedMin => "vfredmin.v",
            SetVl => "vsetvl",
        }
    }
}

impl std::fmt::Display for Opcode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &[Opcode] = Opcode::ALL;

    #[test]
    fn memory_opcodes_go_to_the_memory_queue() {
        for op in ALL {
            let is_mem = op.is_load() || op.is_store();
            assert_eq!(
                op.kind() == InstrKind::Memory,
                is_mem,
                "kind mismatch for {op}"
            );
        }
    }

    #[test]
    fn only_setvl_is_config() {
        for op in ALL {
            assert_eq!(op.kind() == InstrKind::Config, matches!(op, Opcode::SetVl));
        }
    }

    #[test]
    fn loads_and_stores_are_disjoint() {
        for op in ALL {
            assert!(!(op.is_load() && op.is_store()), "{op} is both");
        }
    }

    #[test]
    fn exec_class_latencies_are_positive_for_arithmetic() {
        for op in ALL {
            if op.kind() == InstrKind::Arithmetic {
                assert!(op.exec_class().startup_latency() >= 1, "{op}");
                assert!(op.exec_class().recurrence() >= 1, "{op}");
            }
        }
    }

    #[test]
    fn fp_classification_matches_datapath() {
        assert!(Opcode::VFMacc.exec_class().is_fp());
        assert!(Opcode::VFRedSum.exec_class().is_fp());
        assert!(!Opcode::VAdd.exec_class().is_fp());
        assert!(!Opcode::VLoad.exec_class().is_fp());
    }

    #[test]
    fn mnemonics_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for op in ALL {
            assert!(!op.mnemonic().is_empty());
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {op}");
        }
    }

    #[test]
    fn div_and_sqrt_are_not_fully_pipelined() {
        assert!(ExecClass::FpDiv.recurrence() > 1);
        assert!(ExecClass::FpSqrt.recurrence() > 1);
        assert_eq!(ExecClass::FpFma.recurrence(), 1);
    }
}
