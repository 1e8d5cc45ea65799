//! Functional execution: the arithmetic opcodes ([`execute_into`]) and the
//! program-order pass over architectural registers ([`FunctionalState`]).
//!
//! A program's values do not depend on the register-file organisation that
//! times it, and no timing decision reads a value, so the simulator runs a
//! compiled program functionally once per prepared (workload, MVL, LMUL)
//! key and validates the resulting memory against the scalar golden
//! reference there. The one datum the timing model needs from the values
//! is the element addresses of indexed accesses, which the pass records.

use ava_isa::{Element, MemAccess, Opcode, Operand, VecInstr, VlMode, MAX_SRCS, NUM_LOGICAL_VREGS};
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

fn x(op: &OperandValue<'_>, i: usize) -> i64 {
    op.elem(i).as_i64()
}

/// Executes one arithmetic/move/reduction opcode over `vl` elements,
/// returning a freshly allocated result.
///
/// Convenience wrapper over [`execute_into`]; the functional pass calls
/// [`execute_into`] with a reused strip buffer instead.
///
/// # Panics
///
/// Panics if called with a memory or configuration opcode, or if an operand
/// required by the opcode is missing.
#[must_use]
pub fn execute(opcode: Opcode, srcs: &[OperandValue<'_>], vl: usize) -> Vec<Element> {
    let mut out = Vec::with_capacity(vl);
    execute_into(opcode, srcs, vl, &mut out);
    out
}

/// Executes one arithmetic/move/reduction opcode over `vl` elements into
/// `out`, which is cleared first and reused without reallocating once its
/// capacity has warmed up.
///
/// Strip-uniform work is batched: register-to-register moves copy whole
/// slices and scalar splats are bulk fills, with the same results as the
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
    macro_rules! map_i64 {
        ($g:expr) => {{
            let g = $g;
            out.extend((0..vl).map(|i| Element::from_i64(g(i))));
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
        VFMsac => map_f64!(|i| f(s(0), i).mul_add(f(s(1), i), -f(s(2), i))),
        VFMin => map_f64!(|i| f(s(0), i).min(f(s(1), i))),
        VFMax => map_f64!(|i| f(s(0), i).max(f(s(1), i))),
        VFNeg => map_f64!(|i| -f(s(0), i)),
        VFAbs => map_f64!(|i| f(s(0), i).abs()),
        VFExp => map_f64!(|i| f(s(0), i).exp()),
        VFLn => map_f64!(|i| f(s(0), i).ln()),

        VAdd => map_i64!(|i| x(s(0), i).wrapping_add(x(s(1), i))),
        VSub => map_i64!(|i| x(s(0), i).wrapping_sub(x(s(1), i))),
        VMul => map_i64!(|i| x(s(0), i).wrapping_mul(x(s(1), i))),
        VAnd => map_i64!(|i| x(s(0), i) & x(s(1), i)),
        VOr => map_i64!(|i| x(s(0), i) | x(s(1), i)),
        VXor => map_i64!(|i| x(s(0), i) ^ x(s(1), i)),
        VSll => map_i64!(|i| x(s(0), i).wrapping_shl(x(s(1), i) as u32 & 63)),
        VSrl => map_i64!(|i| ((x(s(0), i) as u64) >> (x(s(1), i) as u32 & 63)) as i64),
        VMin => map_i64!(|i| x(s(0), i).min(x(s(1), i))),
        VMax => map_i64!(|i| x(s(0), i).max(x(s(1), i))),

        VMFLt => map_bool!(|i| f(s(0), i) < f(s(1), i)),
        VMFLe => map_bool!(|i| f(s(0), i) <= f(s(1), i)),
        VMFGt => map_bool!(|i| f(s(0), i) > f(s(1), i)),
        VMFGe => map_bool!(|i| f(s(0), i) >= f(s(1), i)),
        VMFEq => map_bool!(|i| f(s(0), i) == f(s(1), i)),
        VMSLt => map_bool!(|i| x(s(0), i) < x(s(1), i)),
        VMSEq => map_bool!(|i| x(s(0), i) == x(s(1), i)),

        // Moves and splats are strip-uniform: whole-slice copies and bulk
        // fills replace the per-element loop (identical results — vector
        // reads past the end are zero, scalars repeat).
        VMv | VMvSplat => match *s(0) {
            OperandValue::Vector(v) => {
                let copied = vl.min(v.len());
                out.extend_from_slice(&v[..copied]);
                out.resize(vl, Element::ZERO);
            }
            OperandValue::Scalar(val) => out.resize(vl, val),
        },
        VId => map_i64!(|i| i as i64),
        VMerge => out.extend((0..vl).map(|i| {
            if s(2).elem(i).as_bool() {
                s(0).elem(i)
            } else {
                s(1).elem(i)
            }
        })),
        VSlide1Up => out.extend((0..vl).map(|i| {
            if i == 0 {
                srcs.get(1).map_or(Element::ZERO, |o| o.elem(0))
            } else {
                s(0).elem(i - 1)
            }
        })),
        VSlide1Down => out.extend((0..vl).map(|i| {
            if i + 1 == vl {
                srcs.get(1).map_or(Element::ZERO, |o| o.elem(0))
            } else {
                s(0).elem(i + 1)
            }
        })),

        VFRedSum | VFRedMax | VFRedMin => {
            let mut acc = match opcode {
                VFRedSum => 0.0,
                VFRedMax => f64::NEG_INFINITY,
                _ => f64::INFINITY,
            };
            for i in 0..vl {
                let v = f(s(0), i);
                acc = match opcode {
                    VFRedSum => acc + v,
                    VFRedMax => acc.max(v),
                    _ => acc.min(v),
                };
            }
            out.resize(vl.max(1), Element::ZERO);
            out[0] = Element::from_f64(acc);
        }

        VLoad | VStore | VLoadStrided | VStoreStrided | VLoadIndexed | VStoreIndexed | SetVl => {
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
/// assert!(indexed.is_empty(), "no gather or scatter ran");
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
    /// the element addresses of every gather and scatter, one per element,
    /// in program order.
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
            Opcode::VLoad | Opcode::VLoadStrided => {
                let m = access();
                let out = &mut self.regs[dst()][..vl];
                if m.stride == 8 {
                    let mut elems = out.iter_mut();
                    mem.read_words(m.base, vl, |w| {
                        *elems.next().expect("one word per element") = Element::from_bits(w);
                    });
                } else {
                    for (i, e) in out.iter_mut().enumerate() {
                        *e = Element::from_bits(mem.read_u64(element_addr(&m, i)));
                    }
                }
            }
            Opcode::VStore | Opcode::VStoreStrided => {
                let m = access();
                let data = &self.regs[reg(0)][..vl];
                if m.stride == 8 {
                    mem.write_words(m.base, data.iter().map(|e| e.bits()));
                } else {
                    for (i, e) in data.iter().enumerate() {
                        mem.write_u64(element_addr(&m, i), e.bits());
                    }
                }
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
            Opcode::VStoreIndexed => {
                let start = indexed_addrs.len();
                let base = access().base;
                indexed_addrs.extend(
                    self.regs[reg(1)][..vl]
                        .iter()
                        .map(|&i| indexed_addr(base, i)),
                );
                let data = &self.regs[reg(0)][..vl];
                for (&a, e) in indexed_addrs[start..].iter().zip(data) {
                    mem.write_u64(a, e.bits());
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

/// Address of element `i` of a strided access. A stride of 0 puts every
/// element at `base`, as the timing model and the compiler's bounds check
/// assume.
pub(crate) fn element_addr(m: &MemAccess, i: usize) -> u64 {
    (m.base as i64 + m.stride * i as i64) as u64
}

/// Address of a gathered or scattered element: `index` 8-byte words from
/// `base`.
fn indexed_addr(base: u64, index: Element) -> u64 {
    base.wrapping_add((index.as_i64() as u64).wrapping_mul(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecf(vals: &[f64]) -> Vec<Element> {
        vals.iter().map(|v| Element::from_f64(*v)).collect()
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
    fn integer_operations_wrap() {
        let a: Vec<Element> = [i64::MAX, 4]
            .iter()
            .map(|v| Element::from_i64(*v))
            .collect();
        let b: Vec<Element> = [1i64, 3].iter().map(|v| Element::from_i64(*v)).collect();
        let r = execute(
            Opcode::VAdd,
            &[OperandValue::Vector(&a), OperandValue::Vector(&b)],
            2,
        );
        assert_eq!(r[0].as_i64(), i64::MIN);
        assert_eq!(r[1].as_i64(), 7);
    }

    #[test]
    fn reductions_write_element_zero() {
        let a = vecf(&[1.0, 2.0, 3.0, 4.0]);
        let sum = execute(Opcode::VFRedSum, &[OperandValue::Vector(&a)], 4);
        assert_eq!(sum[0].as_f64(), 10.0);
        assert_eq!(sum[1], Element::ZERO);
        let max = execute(Opcode::VFRedMax, &[OperandValue::Vector(&a)], 4);
        assert_eq!(max[0].as_f64(), 4.0);
        let min = execute(Opcode::VFRedMin, &[OperandValue::Vector(&a)], 4);
        assert_eq!(min[0].as_f64(), 1.0);
    }

    #[test]
    fn vid_and_splat_and_slides() {
        let id = execute(Opcode::VId, &[], 4);
        assert_eq!(id[3].as_i64(), 3);
        let sp = execute(
            Opcode::VMvSplat,
            &[OperandValue::Scalar(Element::from_f64(7.0))],
            3,
        );
        assert_eq!(sp[2].as_f64(), 7.0);
        let a = vecf(&[1.0, 2.0, 3.0]);
        let up = execute(
            Opcode::VSlide1Up,
            &[
                OperandValue::Vector(&a),
                OperandValue::Scalar(Element::from_f64(9.0)),
            ],
            3,
        );
        assert_eq!(up[0].as_f64(), 9.0);
        assert_eq!(up[2].as_f64(), 2.0);
        let down = execute(
            Opcode::VSlide1Down,
            &[
                OperandValue::Vector(&a),
                OperandValue::Scalar(Element::from_f64(8.0)),
            ],
            3,
        );
        assert_eq!(down[0].as_f64(), 2.0);
        assert_eq!(down[2].as_f64(), 8.0);
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
        // move/splat fast paths and the shorter-than-vl zero-fill — must
        // produce exactly what the allocating wrapper produces.
        let a = vecf(&[1.0, 2.0, 3.0]);
        let short = vecf(&[5.0]);
        let cases: Vec<(Opcode, Vec<OperandValue<'_>>, usize)> = vec![
            (
                Opcode::VFAdd,
                vec![OperandValue::Vector(&a), OperandValue::Vector(&a)],
                3,
            ),
            (Opcode::VMv, vec![OperandValue::Vector(&short)], 3),
            (
                Opcode::VMvSplat,
                vec![OperandValue::Scalar(Element::from_f64(7.0))],
                4,
            ),
            (Opcode::VFRedSum, vec![OperandValue::Vector(&a)], 3),
            (Opcode::VId, vec![], 2),
        ];
        let mut buf = Vec::new();
        for (op, srcs, vl) in cases {
            execute_into(op, &srcs, vl, &mut buf);
            assert_eq!(buf, execute(op, &srcs, vl), "{op}");
        }
    }
}
