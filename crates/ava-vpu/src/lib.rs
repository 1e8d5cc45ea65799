//! # ava-vpu — the AVA decoupled vector processing unit model
//!
//! This crate implements the paper's primary contribution: a decoupled,
//! multi-lane Vector Processing Unit whose register file organisation is
//! *adaptable*. The same 8 KB physical vector register file (P-VRF) serves
//! maximum vector lengths from 16 to 128 elements by backing it with a
//! memory-resident second level (M-VRF) and a two-level renaming scheme:
//!
//! * [`rename`] — first level: the 32 logical registers are renamed to 64
//!   Virtual Vector Registers (VVRs) through a RAT and a free register list.
//! * [`vrf_mapping`] — second level: the VRF-Mapping engine (PRMT, VRLT,
//!   PFRL) tracks which VVRs live in physical registers and which live in
//!   memory registers.
//! * [`rac`] — the per-VVR Register Access Counters that drive both
//!   aggressive register reclamation and swap-victim selection.
//! * [`swap`] — the Swap Logic that turns P-VRF pressure into Swap-Store /
//!   Swap-Load memory operations.
//! * [`issue`] — the two-stage vector issue unit: an in-order pre-issue
//!   stage performing the VVR→physical mapping, feeding decoupled in-order
//!   arithmetic and memory queues.
//! * [`mvrf`] — the memory-resident second level of the register file.
//! * [`exec`] — the functional pass: a program executed once in program
//!   order on architectural registers, so runs are checked for
//!   *correctness* against scalar references, not only timed. It records
//!   the element addresses of gathers and scatters for the timing model.
//! * [`vpu`] — the cycle-level model tying everything together, usable in
//!   AVA mode or in NATIVE mode (conventional single-level renaming with a
//!   register file sized for the target MVL, the paper's baselines). It
//!   moves no values; register tags check that every read meets the value
//!   of its last writer through renaming and swaps.
//!
//! ```
//! use ava_vpu::{Vpu, VpuConfig};
//! use ava_memory::MemoryHierarchy;
//! use ava_isa::{Program, VecInstr, VReg};
//!
//! let mut mem = MemoryHierarchy::default();
//! let a = mem.allocate(16 * 8);
//! for i in 0..16 {
//!     mem.write_f64(a + 8 * i, i as f64);
//! }
//! let mut p = Program::new("double");
//! p.push(VecInstr::setvl(16));
//! p.push(VecInstr::vload(VReg::new(1), a));
//! p.push(VecInstr::binary(ava_isa::Opcode::VFAdd, VReg::new(2), VReg::new(1), VReg::new(1)));
//! p.push(VecInstr::vstore(VReg::new(2), a));
//! let mut vpu = Vpu::new(VpuConfig::ava_x(1), &mut mem);
//! let result = vpu.run(&p, &mut mem);
//! assert_eq!(mem.read_f64(a + 8), 2.0);
//! assert!(result.cycles > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod exec;
pub mod issue;
pub mod mvrf;
pub mod rac;
pub mod rename;
pub mod rob;
pub mod stats;
pub mod swap;
pub mod vpu;
pub mod vrf_mapping;

pub use config::{preg_count_for_mvl, RenameMode, VpuConfig, NUM_VVRS};
pub use stats::VpuStats;
pub use vpu::{Vpu, VpuRunResult};
