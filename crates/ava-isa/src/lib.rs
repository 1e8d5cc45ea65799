//! # ava-isa — vector ISA substrate for the AVA reproduction
//!
//! This crate defines the RISC-V-V-flavoured vector instruction set used by
//! every other crate in the workspace: logical vector registers, element
//! types, the vector instruction structure (memory, arithmetic, reduction,
//! mask and configuration operations), vector-length / LMUL configuration,
//! and the [`Program`] container that the code generator produces and the
//! simulator consumes.
//!
//! The ISA is deliberately *vector-length agnostic* (VLA): programs describe
//! operations on whole application vectors, the `vsetvl`-style
//! [`VectorContext`] decides how many elements each dynamic instruction
//! processes, and the microarchitecture (see `ava-vpu`) decides how the
//! register file backing those elements is organised.
//!
//! One element is always a 64-bit word (`f64` or `i64`), matching footnote 2
//! of the paper: the baseline MVL of 16 elements is a 1024-bit register and
//! the largest MVL of 128 elements is an 8192-bit register.
//!
//! ```
//! use ava_isa::{Program, VReg, VecInstr, VectorContext};
//!
//! let ctx = VectorContext::with_mvl(16);
//! let mut prog = Program::new("axpy-ish");
//! prog.push(VecInstr::vload(VReg::new(1), 0x1000));
//! prog.push(VecInstr::vload(VReg::new(2), 0x2000));
//! prog.push(VecInstr::vfmacc(VReg::new(2), 2.0, VReg::new(1)));
//! prog.push(VecInstr::vstore(VReg::new(2), 0x2000));
//! assert_eq!(prog.len(), 4);
//! assert_eq!(ctx.mvl(), 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod instr;
pub mod opcode;
pub mod program;
pub mod reg;
pub mod value;

pub use config::{
    Lmul, VectorContext, MAX_MVL_ELEMS, MIN_MVL_ELEMS, NUM_LOGICAL_VREGS, PAPER_MAX_MVL_ELEMS,
};
pub use instr::{
    InstrRole, MemAccess, Operand, OperandIter, OperandList, PackedOperand, RegList, VecInstr,
    VlMode, MAX_SRCS,
};
pub use opcode::{ExecClass, InstrKind, Opcode};
pub use program::{Program, ProgramStats};
pub use reg::VReg;
pub use value::Element;
