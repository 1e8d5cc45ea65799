//! Lowering from allocated IR to the final [`ava_isa::Program`].
//!
//! Allocation slots are mapped to architectural register names. Under
//! register grouping (LMUL > 1) only every LMUL-th register name is usable
//! as a group base, so slot `i` becomes `v(i * LMUL)` — exactly how the
//! RISC-V V specification names register groups.

use ava_isa::{InstrRole, Lmul, MemAccess, Operand, OperandList, Program, VReg, VecInstr, VlMode};

use crate::ir::{IrInstr, IrKernel, IrOperand};
use crate::regalloc::{AllocatedKernel, Allocation, RegAllocator};

/// Options controlling compilation of an IR kernel to a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// Register grouping factor; determines the architectural register
    /// budget (`32 / LMUL`) and the register-name spacing.
    pub lmul: Lmul,
    /// Base address of the compiler's spill area (the "stack").
    pub spill_base: u64,
    /// Size in bytes of one spill slot; must hold a full maximum-length
    /// vector register because spill code runs at full MVL.
    pub spill_slot_bytes: u64,
}

impl CompileOptions {
    /// Creates compile options.
    #[must_use]
    pub fn new(lmul: Lmul, spill_base: u64, spill_slot_bytes: u64) -> Self {
        Self {
            lmul,
            spill_base,
            spill_slot_bytes,
        }
    }
}

/// A compiled kernel: the executable program plus code-generation statistics.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// The lowered program, ready for the simulator.
    pub program: Program,
    /// Compiler-inserted spill stores.
    pub spill_stores: usize,
    /// Compiler-inserted spill reloads.
    pub spill_loads: usize,
    /// Architectural registers actually used.
    pub registers_used: usize,
    /// Maximum simultaneous live values in the source IR (register pressure).
    pub max_pressure: usize,
    /// Bytes of stack reserved for spills.
    pub spill_area_bytes: u64,
    /// Source IR-instruction index of every program instruction, in program
    /// order. Spill code is attributed to the IR instruction it was inserted
    /// for, so the mapping is monotone — phase boundaries expressed as IR
    /// indices translate to clean program ranges.
    pub ir_map: Vec<usize>,
}

impl CompiledKernel {
    /// The program index at which the IR range `[0, ir_end)` ends: the
    /// first program instruction attributed to an IR index `>= ir_end`.
    /// Used to split a concatenated multi-phase program back into per-phase
    /// segments for the per-phase breakdown.
    #[must_use]
    pub fn program_split(&self, ir_end: usize) -> usize {
        self.ir_map.partition_point(|&ir| ir < ir_end)
    }
}

/// Compiles an IR kernel for the given register-grouping configuration.
///
/// See the crate-level documentation for an example.
#[must_use]
pub fn compile(kernel: &IrKernel, options: &CompileOptions) -> CompiledKernel {
    let budget = options.lmul.architectural_registers();
    let allocator = RegAllocator::new(budget, options.spill_base, options.spill_slot_bytes);
    let allocated = allocator.allocate(kernel);
    lower(kernel, &allocated, options)
}

fn slot_to_vreg(slot: usize, lmul: Lmul) -> VReg {
    let name = slot * lmul.factor();
    VReg::new(u8::try_from(name).expect("register name out of range"))
}

/// Lowers an allocated kernel to a program.
#[must_use]
pub fn lower(
    kernel: &IrKernel,
    allocated: &AllocatedKernel,
    options: &CompileOptions,
) -> CompiledKernel {
    let mut program = Program::with_capacity(kernel.name.clone(), allocated.allocations.len());
    let mut ir_map = Vec::with_capacity(allocated.allocations.len());
    // Spill code is emitted while the allocator processes one IR
    // instruction and always precedes that instruction's op in the stream,
    // so pending spills are attributed to the next op's IR index.
    let mut pending_spills = 0usize;
    for alloc in &allocated.allocations {
        match alloc {
            Allocation::SpillStore { slot, addr } => {
                program.push(
                    VecInstr::vstore(slot_to_vreg(*slot, options.lmul), *addr)
                        .with_full_mvl()
                        .with_role(InstrRole::SpillStore),
                );
                pending_spills += 1;
            }
            Allocation::SpillLoad { slot, addr } => {
                program.push(
                    VecInstr::vload(slot_to_vreg(*slot, options.lmul), *addr)
                        .with_full_mvl()
                        .with_role(InstrRole::SpillLoad),
                );
                pending_spills += 1;
            }
            Allocation::Op {
                ir_index,
                dst_slot,
                src_slots,
            } => {
                let ir = &kernel.instrs[*ir_index];
                program.push(lower_op(ir, *dst_slot, src_slots, options.lmul));
                ir_map.extend(std::iter::repeat_n(*ir_index, pending_spills + 1));
                pending_spills = 0;
            }
        }
    }
    ir_map.extend(std::iter::repeat_n(kernel.instrs.len(), pending_spills));
    debug_assert_eq!(ir_map.len(), program.len());
    CompiledKernel {
        program,
        spill_stores: allocated.spill_stores,
        spill_loads: allocated.spill_loads,
        registers_used: allocated.slots_used,
        max_pressure: allocated.max_pressure,
        spill_area_bytes: allocated.spill_area_bytes,
        ir_map,
    }
}

fn lower_op(ir: &IrInstr, dst_slot: Option<usize>, src_slots: &[u8], lmul: Lmul) -> VecInstr {
    // The index register of a gather is one of the instruction's
    // register sources, and takes the architectural register allocated to
    // its position among them.
    let index = ir.mem.and_then(|m| m.index);
    let mut index_reg = None;
    let mut slot_iter = src_slots.iter();
    let mut srcs = OperandList::EMPTY;
    for op in &ir.srcs {
        match op {
            IrOperand::Reg(vr) => {
                let slot = slot_iter
                    .next()
                    .expect("allocation recorded fewer source slots than register operands");
                let arch = slot_to_vreg(usize::from(*slot), lmul);
                if index == Some(vr) {
                    index_reg = Some(arch);
                }
                srcs.push(Operand::Reg(arch));
            }
            IrOperand::Scalar(e) => srcs.push(Operand::Scalar(e)),
        }
    }
    let dst = dst_slot.map(|s| slot_to_vreg(s, lmul));
    let mem = ir.mem.map(|m| MemAccess {
        base: m.base,
        stride: 8,
        index_reg: m.index.map(|_| {
            index_reg.expect("index register of an indexed access must be a source operand")
        }),
    });
    VecInstr {
        opcode: ir.opcode,
        dst,
        srcs,
        mem,
        vl_mode: VlMode::Current,
        setvl_request: ir.setvl_request,
        role: InstrRole::Normal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;
    use ava_isa::Opcode;

    fn wide_kernel(width: usize) -> IrKernel {
        let mut b = KernelBuilder::new("wide");
        b.set_vl(16);
        let vals: Vec<_> = (0..width).map(|i| b.vload(64 * i as u64)).collect();
        let mut acc = vals[0];
        for &v in &vals[1..] {
            acc = b.vfadd(acc, v);
        }
        b.vstore(acc, 0x10_0000);
        b.finish()
    }

    #[test]
    fn lmul1_uses_contiguous_register_names() {
        let out = compile(
            &wide_kernel(6),
            &CompileOptions::new(Lmul::M1, 0x40_0000, 1024),
        );
        let regs = out.program.used_registers();
        assert!(regs.iter().all(|r| r.index() < 8));
        assert_eq!(out.spill_stores, 0);
    }

    #[test]
    fn lmul8_uses_group_base_names_only() {
        let out = compile(
            &wide_kernel(3),
            &CompileOptions::new(Lmul::M8, 0x40_0000, 8192),
        );
        for r in out.program.used_registers() {
            assert_eq!(
                r.index() % 8,
                0,
                "register {r} is not a group base under LMUL=8"
            );
        }
    }

    #[test]
    fn spill_code_is_tagged_and_full_mvl() {
        let out = compile(
            &wide_kernel(20),
            &CompileOptions::new(Lmul::M8, 0x40_0000, 8192),
        );
        assert!(out.spill_stores > 0);
        let stats = out.program.stats();
        assert_eq!(stats.spill_stores, out.spill_stores);
        assert_eq!(stats.spill_loads, out.spill_loads);
        for i in out.program.iter().filter(|i| i.is_spill()) {
            assert_eq!(i.vl_mode, VlMode::FullMvl);
        }
    }

    #[test]
    fn lower_preserves_program_semantics_shape() {
        let mut b = KernelBuilder::new("axpyish");
        b.set_vl(16);
        let x = b.vload(0x100);
        let y = b.vload(0x200);
        let r = b.vfmacc_scalar(y, 3.0, x);
        b.vstore(r, 0x200);
        let out = compile(&b.finish(), &CompileOptions::new(Lmul::M1, 0x40_0000, 1024));
        let ops: Vec<Opcode> = out.program.iter().map(|i| i.opcode).collect();
        assert_eq!(
            ops,
            vec![
                Opcode::SetVl,
                Opcode::VLoad,
                Opcode::VLoad,
                Opcode::VFMacc,
                Opcode::VStore
            ]
        );
        // The store must read the same register the FMA wrote.
        let fma_dst = out.program.instructions()[3].dst.unwrap();
        let store_src = out.program.instructions()[4].source_regs().next().unwrap();
        assert_eq!(fma_dst, store_src);
    }

    #[test]
    fn indexed_ops_map_their_index_register() {
        let mut b = KernelBuilder::new("gather");
        let idx = b.vload(0x800);
        let g = b.vload_indexed(0x1000, idx);
        b.vstore(g, 0x2000);
        let out = compile(&b.finish(), &CompileOptions::new(Lmul::M1, 0x40_0000, 1024));
        let gather = &out.program.instructions()[1];
        let reg = |i: &VecInstr, k: usize| i.srcs.get(k).and_then(|o| o.reg());
        assert_eq!(gather.mem.unwrap().index_reg, reg(gather, 0));
    }

    #[test]
    fn an_index_read_twice_keeps_its_register() {
        // A gather whose index value is also its second register source,
        // and one whose index follows another source: the index register
        // is the one its source position was allocated, v0 for the first
        // value defined, under any register grouping.
        let mut b = KernelBuilder::new("gather-twice");
        let idx = b.vload(0x800);
        let other = b.vsplat(1.0);
        let twice = b.vload_indexed(0x1000, idx);
        let after = b.vload_indexed(0x2000, idx);
        b.vstore(twice, 0x3000);
        b.vstore(after, 0x4000);
        let mut k = b.finish();
        k.instrs[2].srcs.push(IrOperand::Reg(idx));
        k.instrs[3].srcs = OperandList::new(
            Opcode::VLoadIndexed,
            &[IrOperand::Reg(other), IrOperand::Reg(idx)],
        );
        let reg = |i: &VecInstr, k: usize| i.srcs.get(k).and_then(|o| o.reg());
        for lmul in [Lmul::M1, Lmul::M4] {
            let out = compile(&k, &CompileOptions::new(lmul, 0x40_0000, 1024));
            let v0 = Some(VReg::new(0));
            let twice = &out.program.instructions()[2];
            assert_eq!(twice.srcs.len(), 2);
            assert_eq!(reg(twice, 0), v0);
            assert_eq!(reg(twice, 1), v0);
            assert_eq!(twice.mem.unwrap().index_reg, v0, "{lmul}");
            let after = &out.program.instructions()[3];
            assert_ne!(reg(after, 0), v0);
            assert_eq!(reg(after, 1), v0);
            assert_eq!(after.mem.unwrap().index_reg, v0, "{lmul}");
        }
    }

    #[test]
    fn register_budget_is_respected_for_every_lmul() {
        for lmul in Lmul::all() {
            let out = compile(
                &wide_kernel(28),
                &CompileOptions::new(lmul, 0x40_0000, 8192),
            );
            assert!(
                out.registers_used <= lmul.architectural_registers(),
                "{lmul}: used {}",
                out.registers_used
            );
            // Register names must stay in 0..32.
            for r in out.program.used_registers() {
                assert!(r.index() < 32);
            }
        }
    }

    #[test]
    fn higher_lmul_produces_at_least_as_much_spill() {
        let k = wide_kernel(24);
        let spills = |l: Lmul| compile(&k, &CompileOptions::new(l, 0x40_0000, 8192)).spill_loads;
        assert!(spills(Lmul::M8) >= spills(Lmul::M4));
        assert!(spills(Lmul::M4) >= spills(Lmul::M2));
        assert!(spills(Lmul::M2) >= spills(Lmul::M1));
        assert_eq!(spills(Lmul::M1), 0, "32 registers fit 24 live values");
    }

    #[test]
    fn ir_map_attributes_every_program_instruction_monotonically() {
        for width in [6, 20] {
            let k = wide_kernel(width);
            let out = compile(&k, &CompileOptions::new(Lmul::M8, 0x40_0000, 8192));
            assert_eq!(out.ir_map.len(), out.program.len());
            assert!(out.ir_map.windows(2).all(|w| w[0] <= w[1]), "monotone");
            // Splitting at the IR end covers the whole program; splitting at
            // zero covers none of it.
            assert_eq!(out.program_split(k.len()), out.program.len());
            assert_eq!(out.program_split(0), 0);
            // The two halves partition the program.
            let mid = out.program_split(k.len() / 2);
            assert!(mid <= out.program.len());
        }
    }

    #[test]
    fn max_pressure_is_reported() {
        let out = compile(
            &wide_kernel(12),
            &CompileOptions::new(Lmul::M1, 0x40_0000, 1024),
        );
        assert_eq!(out.max_pressure, 13);
    }

    /// The `{:?}` text of one small program covering every operand form:
    /// `vsetvl`, unit-stride loads and stores, gathers with index registers
    /// (one of them reloaded from a spill), `vfmacc` with a scalar, a
    /// three-register `vmerge`, and LMUL-8 spill stores and reloads.
    ///
    /// A program's `Debug` text is the program half of every result-store
    /// key. Changing this text changes every key, and needs a
    /// `CODE_VERSION` bump so that stores filled before the change read
    /// as misses.
    #[test]
    fn program_debug_text_is_pinned() {
        const EXPECTED: &str = concat!(
            "Program { name: \"forms\", instrs: [",
            "VecInstr { opcode: SetVl, dst: None, srcs: [], mem: None, vl_mode: Current, setvl_request: Some(8), role: Normal }, ",
            "VecInstr { opcode: VLoad, dst: Some(VReg(0)), srcs: [], mem: Some(MemAccess { base: 4096, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VLoad, dst: Some(VReg(8)), srcs: [], mem: Some(MemAccess { base: 8192, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VLoad, dst: Some(VReg(16)), srcs: [], mem: Some(MemAccess { base: 24576, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VLoadIndexed, dst: Some(VReg(24)), srcs: [Reg(VReg(16))], mem: Some(MemAccess { base: 12288, stride: 8, index_reg: Some(VReg(16)) }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VStore, dst: None, srcs: [Reg(VReg(16))], mem: Some(MemAccess { base: 32768, stride: 8, index_reg: None }), vl_mode: FullMvl, setvl_request: None, role: SpillStore }, ",
            "VecInstr { opcode: VFMacc, dst: Some(VReg(16)), srcs: [Scalar(Element(4612811918334230528)), Reg(VReg(8)), Reg(VReg(0))], mem: None, vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VMFLt, dst: Some(VReg(0)), srcs: [Reg(VReg(16)), Reg(VReg(24))], mem: None, vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VStore, dst: None, srcs: [Reg(VReg(8))], mem: Some(MemAccess { base: 33280, stride: 8, index_reg: None }), vl_mode: FullMvl, setvl_request: None, role: SpillStore }, ",
            "VecInstr { opcode: VMerge, dst: Some(VReg(8)), srcs: [Reg(VReg(16)), Reg(VReg(24)), Reg(VReg(0))], mem: None, vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VStore, dst: None, srcs: [Reg(VReg(8))], mem: Some(MemAccess { base: 16384, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VLoad, dst: Some(VReg(8)), srcs: [], mem: Some(MemAccess { base: 33280, stride: 8, index_reg: None }), vl_mode: FullMvl, setvl_request: None, role: SpillLoad }, ",
            "VecInstr { opcode: VStore, dst: None, srcs: [Reg(VReg(8))], mem: Some(MemAccess { base: 20480, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VLoad, dst: Some(VReg(8)), srcs: [], mem: Some(MemAccess { base: 32768, stride: 8, index_reg: None }), vl_mode: FullMvl, setvl_request: None, role: SpillLoad }, ",
            "VecInstr { opcode: VLoadIndexed, dst: Some(VReg(0)), srcs: [Reg(VReg(8))], mem: Some(MemAccess { base: 28672, stride: 8, index_reg: Some(VReg(8)) }), vl_mode: Current, setvl_request: None, role: Normal }, ",
            "VecInstr { opcode: VStore, dst: None, srcs: [Reg(VReg(0))], mem: Some(MemAccess { base: 24576, stride: 8, index_reg: None }), vl_mode: Current, setvl_request: None, role: Normal }",
            "] }",
        );
        let mut b = KernelBuilder::new("forms");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vload(0x2000);
        let idx = b.vload(0x6000);
        let g = b.vload_indexed(0x3000, idx);
        let f = b.vfmacc_scalar(x, 2.5, y);
        let m = b.vmflt(f, g);
        let s = b.vmerge(f, g, m);
        b.vstore(s, 0x4000);
        b.vstore(y, 0x5000);
        let h = b.vload_indexed(0x7000, idx);
        b.vstore(h, 0x6000);
        let out = compile(&b.finish(), &CompileOptions::new(Lmul::M8, 0x8000, 512));
        assert_eq!((out.spill_stores, out.spill_loads), (2, 2));
        assert_eq!(format!("{:?}", out.program), EXPECTED);
    }
}
