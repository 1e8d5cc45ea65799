//! Functional execution: the arithmetic opcodes ([`execute_into`]) and the
//! program-order pass over architectural registers ([`FunctionalState`]).
//!
//! A program's values do not depend on the register-file organisation that
//! times it, and no timing decision reads a value, so the simulator runs a
//! compiled program functionally once per prepared (workload, MVL, LMUL)
//! key and validates the resulting memory against the scalar golden
//! reference there. The one datum the timing model needs from the values
//! is the element addresses of gathers, which the pass records; a
//! unit-stride load or store is timed from its base and length alone.

use ava_isa::{Element, Opcode, Operand, VecInstr, VlMode, MAX_SRCS, NUM_LOGICAL_VREGS};
use ava_memory::MainMemory;

/// A source operand value: a borrowed vector of elements or a scalar
/// broadcast to every element.
#[derive(Debug, Clone, Copy)]
pub enum OperandValue<'a> {
    /// Vector register contents.
    Vector(&'a [Element]),
    /// Scalar immediate.
    Scalar(Element),
}

impl OperandValue<'_> {
    /// Element `i` of the operand (scalars return the same value for every
    /// index; reading past the end of a vector returns zero, matching the
    /// zero-initialised register file).
    #[must_use]
    pub fn elem(&self, i: usize) -> Element {
        match self {
            OperandValue::Vector(v) => v.get(i).copied().unwrap_or(Element::ZERO),
            OperandValue::Scalar(s) => *s,
        }
    }
}

fn f(op: &OperandValue<'_>, i: usize) -> f64 {
    op.elem(i).as_f64()
}

/// Executes one arithmetic/move/reduction opcode over `vl` elements into
/// `out`, which is cleared first and reused without reallocating once its
/// capacity has warmed up.
///
/// Splats are strip-uniform, so they are batched: a scalar splat is a bulk
/// fill and a vector one a slice copy, with the same results as the
/// per-element path.
///
/// # Panics
///
/// Panics if called with a memory or configuration opcode, or if an operand
/// required by the opcode is missing.
pub fn execute_into(opcode: Opcode, srcs: &[OperandValue<'_>], vl: usize, out: &mut Vec<Element>) {
    use Opcode::*;
    out.clear();
    let s = |i: usize| {
        srcs.get(i)
            .unwrap_or_else(|| panic!("{opcode} requires operand {i}"))
    };
    macro_rules! map_f64 {
        ($g:expr) => {{
            let g = $g;
            out.extend((0..vl).map(|i| Element::from_f64(g(i))));
        }};
    }
    macro_rules! map_bool {
        ($g:expr) => {{
            let g = $g;
            out.extend((0..vl).map(|i| Element::from_bool(g(i))));
        }};
    }

    match opcode {
        VFAdd => map_f64!(|i| f(s(0), i) + f(s(1), i)),
        VFSub => map_f64!(|i| f(s(0), i) - f(s(1), i)),
        VFMul => map_f64!(|i| f(s(0), i) * f(s(1), i)),
        VFDiv => map_f64!(|i| f(s(0), i) / f(s(1), i)),
        VFSqrt => map_f64!(|i| f(s(0), i).sqrt()),
        VFMacc => map_f64!(|i| f(s(0), i).mul_add(f(s(1), i), f(s(2), i))),
        VFMax => map_f64!(|i| f(s(0), i).max(f(s(1), i))),
        VFAbs => map_f64!(|i| f(s(0), i).abs()),
        VFExp => map_f64!(|i| f(s(0), i).exp()),
        VFLn => map_f64!(|i| f(s(0), i).ln()),

        VMFLt => map_bool!(|i| f(s(0), i) < f(s(1), i)),

        // Splats are strip-uniform: a whole-slice copy or a bulk fill
        // replaces the per-element loop (identical results — vector reads
        // past the end are zero, scalars repeat).
        VMvSplat => match *s(0) {
            OperandValue::Vector(v) => {
                let copied = vl.min(v.len());
                out.extend_from_slice(&v[..copied]);
                out.resize(vl, Element::ZERO);
            }
            OperandValue::Scalar(val) => out.resize(vl, val),
        },
        VMerge => out.extend((0..vl).map(|i| {
            if s(2).elem(i).as_bool() {
                s(0).elem(i)
            } else {
                s(1).elem(i)
            }
        })),
        VFRedSum => {
            let sum = (0..vl).fold(0.0, |acc, i| acc + f(s(0), i));
            out.resize(vl.max(1), Element::ZERO);
            out[0] = Element::from_f64(sum);
        }

        VLoad | VStore | VLoadIndexed | SetVl => {
            panic!("{opcode} is not an arithmetic operation")
        }
    }
}

/// The architectural state of a functional run: the 32 logical registers,
/// each `mvl` elements wide and zero at reset, and the current vector
/// length. Instructions execute one after another in program order; a
/// write of `n` elements leaves the register's tail as it was.
///
/// ```
/// use ava_vpu::exec::FunctionalState;
/// use ava_memory::MainMemory;
/// use ava_isa::{Opcode, VecInstr, VReg};
///
/// let mut mem = MainMemory::new();
/// let a = mem.alloc(16 * 8);
/// for i in 0..16 {
///     mem.write_f64(a + 8 * i, i as f64);
/// }
/// let program = [
///     VecInstr::setvl(16),
///     VecInstr::vload(VReg::new(1), a),
///     VecInstr::binary(Opcode::VFAdd, VReg::new(2), VReg::new(1), VReg::new(1)),
///     VecInstr::vstore(VReg::new(2), a),
/// ];
/// let mut indexed = Vec::new();
/// FunctionalState::new(16).run(&program, &mut mem, &mut indexed);
/// assert_eq!(mem.read_f64(a + 8 * 3), 6.0);
/// assert!(indexed.is_empty(), "no gather ran");
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalState {
    mvl: usize,
    vl: usize,
    regs: Vec<Vec<Element>>,
    /// Result strip of the executing arithmetic instruction.
    strip: Vec<Element>,
}

impl FunctionalState {
    /// Registers of `mvl` elements, all zero, with the vector length at
    /// `mvl`.
    #[must_use]
    pub fn new(mvl: usize) -> Self {
        Self {
            mvl,
            vl: mvl,
            regs: vec![vec![Element::ZERO; mvl]; NUM_LOGICAL_VREGS],
            strip: Vec::new(),
        }
    }

    /// Executes `instrs` in order over `mem`, appending to `indexed_addrs`
    /// the element addresses of every gather, one per element, in program
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if a memory instruction carries no address, or if a write
    /// lands beyond the simulated address space.
    pub fn run(&mut self, instrs: &[VecInstr], mem: &mut MainMemory, indexed_addrs: &mut Vec<u64>) {
        for instr in instrs {
            self.step(instr, mem, indexed_addrs);
        }
    }

    fn step(&mut self, instr: &VecInstr, mem: &mut MainMemory, indexed_addrs: &mut Vec<u64>) {
        let vl = match instr.vl_mode {
            VlMode::Current => self.vl,
            VlMode::FullMvl => self.mvl,
        };
        let reg = |i: usize| match instr.srcs.get(i) {
            Some(Operand::Reg(r)) => r.index(),
            _ => panic!("`{instr}` needs a register operand {i}"),
        };
        let dst = || {
            instr
                .dst
                .unwrap_or_else(|| panic!("`{instr}` needs a destination"))
                .index()
        };
        let access = || {
            instr
                .mem
                .unwrap_or_else(|| panic!("`{instr}` carries no address"))
        };
        match instr.opcode {
            Opcode::SetVl => {
                self.vl = instr.setvl_request.unwrap_or(self.mvl).min(self.mvl);
            }
            Opcode::VLoad => {
                let mut elems = self.regs[dst()][..vl].iter_mut();
                mem.read_words(access().base, vl, |w| {
                    *elems.next().expect("one word per element") = Element::from_bits(w);
                });
            }
            Opcode::VStore => {
                let data = &self.regs[reg(0)][..vl];
                mem.write_words(access().base, data.iter().map(|e| e.bits()));
            }
            Opcode::VLoadIndexed => {
                let start = indexed_addrs.len();
                let base = access().base;
                indexed_addrs.extend(
                    self.regs[reg(0)][..vl]
                        .iter()
                        .map(|&i| indexed_addr(base, i)),
                );
                let out = &mut self.regs[dst()][..vl];
                for (e, &a) in out.iter_mut().zip(&indexed_addrs[start..]) {
                    *e = Element::from_bits(mem.read_u64(a));
                }
            }
            _ => {
                let mut ops = [OperandValue::Scalar(Element::ZERO); MAX_SRCS];
                for (slot, op) in ops.iter_mut().zip(&instr.srcs) {
                    *slot = match op {
                        Operand::Reg(r) => OperandValue::Vector(&self.regs[r.index()][..vl]),
                        Operand::Scalar(s) => OperandValue::Scalar(s),
                    };
                }
                execute_into(instr.opcode, &ops[..instr.srcs.len()], vl, &mut self.strip);
                if let Some(d) = instr.dst {
                    self.regs[d.index()][..self.strip.len()].copy_from_slice(&self.strip);
                }
            }
        }
    }
}

/// Address of a gathered element: `index` 8-byte words from `base`.
fn indexed_addr(base: u64, index: Element) -> u64 {
    base.wrapping_add((index.as_i64() as u64).wrapping_mul(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecf(vals: &[f64]) -> Vec<Element> {
        vals.iter().map(|v| Element::from_f64(*v)).collect()
    }

    /// `execute_into` into a fresh buffer.
    fn execute(opcode: Opcode, srcs: &[OperandValue<'_>], vl: usize) -> Vec<Element> {
        let mut out = Vec::new();
        execute_into(opcode, srcs, vl, &mut out);
        out
    }

    #[test]
    fn fp_binary_operations_match_scalar_math() {
        let a = vecf(&[1.0, 2.0, -3.0, 0.5]);
        let b = vecf(&[4.0, -2.0, 3.0, 0.25]);
        let add = execute(
            Opcode::VFAdd,
            &[OperandValue::Vector(&a), OperandValue::Vector(&b)],
            4,
        );
        let mul = execute(
            Opcode::VFMul,
            &[OperandValue::Vector(&a), OperandValue::Vector(&b)],
            4,
        );
        assert_eq!(add[2].as_f64(), 0.0);
        assert_eq!(mul[1].as_f64(), -4.0);
        let div = execute(
            Opcode::VFDiv,
            &[OperandValue::Vector(&a), OperandValue::Vector(&b)],
            4,
        );
        assert_eq!(div[3].as_f64(), 2.0);
    }

    #[test]
    fn fma_uses_fused_semantics_and_three_operands() {
        let a = vecf(&[2.0, 3.0]);
        let b = vecf(&[10.0, 10.0]);
        let c = vecf(&[1.0, -1.0]);
        let r = execute(
            Opcode::VFMacc,
            &[
                OperandValue::Vector(&a),
                OperandValue::Vector(&b),
                OperandValue::Vector(&c),
            ],
            2,
        );
        assert_eq!(r[0].as_f64(), 21.0);
        assert_eq!(r[1].as_f64(), 29.0);
    }

    #[test]
    fn scalar_operands_broadcast() {
        let a = vecf(&[1.0, 2.0, 3.0]);
        let r = execute(
            Opcode::VFMul,
            &[
                OperandValue::Vector(&a),
                OperandValue::Scalar(Element::from_f64(2.0)),
            ],
            3,
        );
        assert_eq!(r[2].as_f64(), 6.0);
    }

    #[test]
    fn compares_produce_masks_and_merge_selects() {
        let a = vecf(&[1.0, 5.0, 3.0]);
        let b = vecf(&[2.0, 2.0, 3.0]);
        let mask = execute(
            Opcode::VMFLt,
            &[OperandValue::Vector(&a), OperandValue::Vector(&b)],
            3,
        );
        assert_eq!(
            mask.iter().map(|e| e.as_bool()).collect::<Vec<_>>(),
            vec![true, false, false]
        );
        let merged = execute(
            Opcode::VMerge,
            &[
                OperandValue::Vector(&a),
                OperandValue::Vector(&b),
                OperandValue::Vector(&mask),
            ],
            3,
        );
        assert_eq!(merged[0].as_f64(), 1.0);
        assert_eq!(merged[1].as_f64(), 2.0);
    }

    #[test]
    fn reductions_write_element_zero() {
        let a = vecf(&[1.0, 2.0, 3.0, 4.0]);
        let sum = execute(Opcode::VFRedSum, &[OperandValue::Vector(&a)], 4);
        assert_eq!(sum[0].as_f64(), 10.0);
        assert_eq!(sum[1], Element::ZERO);
    }

    #[test]
    fn splat_fills_every_lane() {
        let sp = execute(
            Opcode::VMvSplat,
            &[OperandValue::Scalar(Element::from_f64(7.0))],
            3,
        );
        assert_eq!(sp, vecf(&[7.0; 3]));
    }

    #[test]
    fn exp_and_ln_are_inverse() {
        let a = vecf(&[0.5, 1.0, 2.0]);
        let e = execute(Opcode::VFExp, &[OperandValue::Vector(&a)], 3);
        let l = execute(Opcode::VFLn, &[OperandValue::Vector(&e)], 3);
        for i in 0..3 {
            assert!((l[i].as_f64() - a[i].as_f64()).abs() < 1e-12);
        }
    }

    #[test]
    fn short_vector_reads_past_end_are_zero() {
        let a = vecf(&[1.0]);
        let r = execute(
            Opcode::VFAdd,
            &[OperandValue::Vector(&a), OperandValue::Vector(&a)],
            3,
        );
        assert_eq!(r[1].as_f64(), 0.0);
    }

    #[test]
    #[should_panic(expected = "not an arithmetic operation")]
    fn memory_opcodes_are_rejected() {
        let _ = execute(Opcode::VLoad, &[], 4);
    }

    #[test]
    fn execute_into_reuses_one_buffer_across_opcodes() {
        // One buffer through heterogeneous opcodes — including the batched
        // splat fast paths and the shorter-than-vl zero-fill — must produce
        // exactly what a fresh buffer gets.
        let a = vecf(&[1.0, 2.0, 3.0]);
        let short = vecf(&[5.0]);
        let cases: Vec<(Opcode, Vec<OperandValue<'_>>, usize)> = vec![
            (
                Opcode::VFAdd,
                vec![OperandValue::Vector(&a), OperandValue::Vector(&a)],
                3,
            ),
            (Opcode::VMvSplat, vec![OperandValue::Vector(&short)], 3),
            (
                Opcode::VMvSplat,
                vec![OperandValue::Scalar(Element::from_f64(7.0))],
                4,
            ),
            (Opcode::VFRedSum, vec![OperandValue::Vector(&a)], 3),
            (Opcode::VFAbs, vec![OperandValue::Vector(&a)], 2),
        ];
        let mut buf = Vec::new();
        for (op, srcs, vl) in cases {
            execute_into(op, &srcs, vl, &mut buf);
            assert_eq!(buf, execute(op, &srcs, vl), "{op}");
        }
    }
}
