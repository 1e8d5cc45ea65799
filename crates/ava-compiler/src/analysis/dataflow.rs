//! A small forward-dataflow framework over straight-line IR.
//!
//! Kernels are straight-line traces (no branches), so a forward pass is a
//! single left-to-right walk threading an abstract state through the
//! instructions. Each analysis implements [`ForwardPass`]; the runner
//! ([`run`] / [`run_traced`]) owns the iteration order and diagnostic
//! collection so the passes stay pure transfer functions.

use crate::ir::{IrInstr, IrKernel, VirtReg};

use super::diagnostics::{Code, Diagnostic};

/// One forward analysis over a straight-line kernel.
pub trait ForwardPass {
    /// The abstract state threaded through the instructions.
    type State: Clone;

    /// The state before the first instruction.
    fn boundary(&self) -> Self::State;

    /// Updates `state` across instruction `idx`, appending any findings.
    fn transfer(
        &mut self,
        idx: usize,
        instr: &IrInstr,
        state: &mut Self::State,
        diags: &mut Vec<Diagnostic>,
    );

    /// Called once after the last instruction, for whole-kernel findings
    /// (e.g. definitions that were never used).
    fn finish(&mut self, _state: &Self::State, _diags: &mut Vec<Diagnostic>) {}
}

/// Runs `pass` over `kernel`, returning the state after the last
/// instruction.
pub fn run<P: ForwardPass>(
    kernel: &IrKernel,
    pass: &mut P,
    diags: &mut Vec<Diagnostic>,
) -> P::State {
    let mut state = pass.boundary();
    for (idx, instr) in kernel.instrs.iter().enumerate() {
        pass.transfer(idx, instr, &mut state, diags);
    }
    pass.finish(&state, diags);
    state
}

/// Runs `pass` over `kernel`, additionally recording the state *before*
/// each instruction (index `i` of the returned vector is the state on entry
/// to `kernel.instrs[i]`). Use this when a later pass needs per-instruction
/// context, e.g. the vector length in force at every memory access.
pub fn run_traced<P: ForwardPass>(
    kernel: &IrKernel,
    pass: &mut P,
    diags: &mut Vec<Diagnostic>,
) -> Vec<P::State> {
    let mut state = pass.boundary();
    let mut trace = Vec::with_capacity(kernel.len());
    for (idx, instr) in kernel.instrs.iter().enumerate() {
        trace.push(state.clone());
        pass.transfer(idx, instr, &mut state, diags);
    }
    pass.finish(&state, diags);
    trace
}

/// SSA well-formedness: every register is defined before use (AVA101) and
/// defined at most once (AVA102); definitions that are never read are
/// reported at their def site (AVA104).
#[derive(Debug)]
pub struct SsaPass {
    def_site: Vec<Option<usize>>,
    used: Vec<bool>,
}

impl SsaPass {
    /// A pass sized for `kernel`'s virtual-register universe.
    #[must_use]
    pub fn new(kernel: &IrKernel) -> Self {
        let n = kernel.num_virt_regs as usize;
        Self {
            def_site: vec![None; n],
            used: vec![false; n],
        }
    }

    fn mark_use(&mut self, idx: usize, r: VirtReg, diags: &mut Vec<Diagnostic>) {
        match self.def_site.get(r.id()) {
            Some(Some(_)) => self.used[r.id()] = true,
            _ => diags.push(Diagnostic::new(
                Code::UseBeforeDef,
                idx,
                format!("{r} is read before any instruction defines it"),
            )),
        }
    }
}

impl ForwardPass for SsaPass {
    // The def/use tables live on the pass itself (they are written once per
    // register, not rebuilt per instruction), so the threaded state is
    // trivial.
    type State = ();

    fn boundary(&self) -> Self::State {}

    fn transfer(
        &mut self,
        idx: usize,
        instr: &IrInstr,
        _state: &mut Self::State,
        diags: &mut Vec<Diagnostic>,
    ) {
        for r in instr.source_regs() {
            self.mark_use(idx, r, diags);
        }
        if let Some(m) = &instr.mem {
            if let Some(r) = m.index {
                self.mark_use(idx, r, diags);
            }
        }
        if let Some(d) = instr.dst {
            if d.id() >= self.def_site.len() {
                self.def_site.resize(d.id() + 1, None);
                self.used.resize(d.id() + 1, false);
            }
            if let Some(prev) = self.def_site[d.id()] {
                diags.push(Diagnostic::new(
                    Code::Redefinition,
                    idx,
                    format!("{d} is redefined (first defined at ir[{prev}]); SSA form requires a fresh register"),
                ));
            }
            self.def_site[d.id()] = Some(idx);
        }
    }

    fn finish(&mut self, _state: &Self::State, diags: &mut Vec<Diagnostic>) {
        for (id, site) in self.def_site.iter().enumerate() {
            if let Some(at) = site {
                if !self.used[id] {
                    diags.push(Diagnostic::new(
                        Code::UnusedDef,
                        *at,
                        format!("{} is defined but never used", VirtReg(id as u32)),
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrMemAccess, IrOperand};
    use ava_isa::{Opcode, OperandList};

    fn instr(opcode: Opcode, dst: Option<u32>, srcs: &[u32]) -> IrInstr {
        IrInstr {
            opcode,
            dst: dst.map(VirtReg),
            srcs: srcs.iter().map(|&r| IrOperand::Reg(VirtReg(r))).collect(),
            mem: None,
            setvl_request: None,
        }
    }

    #[test]
    fn well_formed_kernel_is_clean() {
        let mut b = crate::KernelBuilder::new("ok");
        b.set_vl(8);
        let x = b.vload(0x1000);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, 0x2000);
        let k = b.finish();
        let mut diags = Vec::new();
        run(&k, &mut SsaPass::new(&k), &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn use_before_def_is_flagged() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![instr(Opcode::VFAdd, Some(1), &[0])],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        run(&k, &mut SsaPass::new(&k), &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::UseBeforeDef));
    }

    #[test]
    fn undefined_gather_index_is_flagged() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![IrInstr {
                opcode: Opcode::VLoadIndexed,
                dst: Some(VirtReg(1)),
                srcs: OperandList::new(Opcode::VLoadIndexed, &[IrOperand::Reg(VirtReg(0))]),
                mem: Some(IrMemAccess {
                    base: 0x1000,
                    stride: 8,
                    index: Some(VirtReg(0)),
                }),
                setvl_request: None,
            }],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        run(&k, &mut SsaPass::new(&k), &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::UseBeforeDef));
    }

    #[test]
    fn redefinition_is_flagged_with_both_sites() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![
                instr(Opcode::VId, Some(0), &[]),
                instr(Opcode::VId, Some(0), &[]),
                instr(Opcode::VMv, Some(1), &[0]),
            ],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        run(&k, &mut SsaPass::new(&k), &mut diags);
        let d = diags.iter().find(|d| d.code == Code::Redefinition).unwrap();
        assert_eq!(d.ir_index, 1);
        assert!(d.message.contains("ir[0]"), "{}", d.message);
    }

    #[test]
    fn unused_def_points_at_the_def_site() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![
                instr(Opcode::VId, Some(0), &[]),
                instr(Opcode::VId, Some(1), &[]),
                instr(Opcode::VMv, Some(2), &[0]),
                instr(Opcode::VMv, Some(3), &[2]),
            ],
            num_virt_regs: 4,
        };
        let mut diags = Vec::new();
        run(&k, &mut SsaPass::new(&k), &mut diags);
        let unused: Vec<_> = diags.iter().filter(|d| d.code == Code::UnusedDef).collect();
        // %1 (defined at ir[1]) and %3 (defined at ir[3]) are never read.
        assert_eq!(unused.len(), 2, "{diags:?}");
        assert_eq!(unused[0].ir_index, 1);
        assert_eq!(unused[1].ir_index, 3);
    }

    #[test]
    fn traced_run_snapshots_states_before_each_instruction() {
        struct Counter;
        impl ForwardPass for Counter {
            type State = usize;
            fn boundary(&self) -> usize {
                0
            }
            fn transfer(&mut self, _: usize, _: &IrInstr, s: &mut usize, _: &mut Vec<Diagnostic>) {
                *s += 1;
            }
        }
        let k = IrKernel {
            name: "t".into(),
            instrs: vec![
                instr(Opcode::VId, Some(0), &[]),
                instr(Opcode::VMv, Some(1), &[0]),
            ],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        let trace = run_traced(&k, &mut Counter, &mut diags);
        assert_eq!(trace, vec![0, 1]);
    }
}
