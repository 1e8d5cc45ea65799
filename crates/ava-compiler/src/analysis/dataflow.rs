//! SSA well-formedness over straight-line IR.
//!
//! Kernels are straight-line traces (no branches), so the check is a single
//! left-to-right walk recording where each register is defined and whether
//! it is ever read.

use crate::ir::{IrKernel, VirtReg};

use super::diagnostics::{Code, Diagnostic};

/// SSA well-formedness: every register is defined before use (AVA101) and
/// defined at most once (AVA102); definitions that are never read are
/// reported at their def site (AVA104).
pub(crate) fn check_ssa(kernel: &IrKernel, diags: &mut Vec<Diagnostic>) {
    let n = kernel.num_virt_regs as usize;
    let mut def_site: Vec<Option<usize>> = vec![None; n];
    let mut used = vec![false; n];
    for (idx, instr) in kernel.instrs.iter().enumerate() {
        for r in instr.source_regs() {
            match def_site.get(r.id()) {
                Some(Some(_)) => used[r.id()] = true,
                _ => diags.push(Diagnostic::new(
                    Code::UseBeforeDef,
                    idx,
                    format!("{r} is read before any instruction defines it"),
                )),
            }
        }
        if let Some(d) = instr.dst {
            if d.id() >= def_site.len() {
                def_site.resize(d.id() + 1, None);
                used.resize(d.id() + 1, false);
            }
            if let Some(prev) = def_site[d.id()] {
                diags.push(Diagnostic::new(
                    Code::Redefinition,
                    idx,
                    format!("{d} is redefined (first defined at ir[{prev}]); SSA form requires a fresh register"),
                ));
            }
            def_site[d.id()] = Some(idx);
        }
    }
    for (id, site) in def_site.iter().enumerate() {
        if let Some(at) = site {
            if !used[id] {
                diags.push(Diagnostic::new(
                    Code::UnusedDef,
                    *at,
                    format!("{} is defined but never used", VirtReg(id as u32)),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{IrInstr, IrMemAccess, IrOperand};
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
        check_ssa(&k, &mut diags);
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
        check_ssa(&k, &mut diags);
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
                mem: Some(IrMemAccess::indexed(0x1000, VirtReg(0))),
                setvl_request: None,
            }],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        check_ssa(&k, &mut diags);
        assert!(diags.iter().any(|d| d.code == Code::UseBeforeDef));
    }

    #[test]
    fn redefinition_is_flagged_with_both_sites() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![
                instr(Opcode::VMvSplat, Some(0), &[]),
                instr(Opcode::VMvSplat, Some(0), &[]),
                instr(Opcode::VFAbs, Some(1), &[0]),
            ],
            num_virt_regs: 2,
        };
        let mut diags = Vec::new();
        check_ssa(&k, &mut diags);
        let d = diags.iter().find(|d| d.code == Code::Redefinition).unwrap();
        assert_eq!(d.ir_index, 1);
        assert!(d.message.contains("ir[0]"), "{}", d.message);
    }

    #[test]
    fn unused_def_points_at_the_def_site() {
        let k = IrKernel {
            name: "bad".into(),
            instrs: vec![
                instr(Opcode::VMvSplat, Some(0), &[]),
                instr(Opcode::VMvSplat, Some(1), &[]),
                instr(Opcode::VFAbs, Some(2), &[0]),
                instr(Opcode::VFAbs, Some(3), &[2]),
            ],
            num_virt_regs: 4,
        };
        let mut diags = Vec::new();
        check_ssa(&k, &mut diags);
        let unused: Vec<_> = diags.iter().filter(|d| d.code == Code::UnusedDef).collect();
        // %1 (defined at ir[1]) and %3 (defined at ir[3]) are never read.
        assert_eq!(unused.len(), 2, "{diags:?}");
        assert_eq!(unused[0].ir_index, 1);
        assert_eq!(unused[1].ir_index, 3);
    }
}
