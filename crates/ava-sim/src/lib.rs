//! # ava-sim — full-system simulation of the paper's evaluated platforms
//!
//! This crate assembles the pieces built by the rest of the workspace into
//! the systems of Table II / Table III: a dual-issue scalar core, a
//! decoupled VPU (NATIVE, AVA or Register-Grouping organisation), the shared
//! L2/DRAM memory hierarchy, and the vectorising "tool-chain" (the
//! register allocator that emits spill code). Given a workload and a system
//! configuration it produces a [`RunReport`] with the cycle count,
//! instruction breakdown, memory traffic and validation status — the raw
//! material for every figure and table in the evaluation.
//!
//! ```
//! use ava_sim::{run_workload, Knob, ScenarioConfig};
//! use ava_workloads::Axpy;
//!
//! let report = run_workload(&Axpy::new(256), &ScenarioConfig::native_x(1));
//! assert!(report.validated);
//! assert!(report.cycles > 0);
//!
//! // Scenarios compose: the same preset with a quarter-size L2.
//! let small_l2 = ScenarioConfig::native_x(1).with(Knob::L2_KIB, 256);
//! assert!(run_workload(&Axpy::new(256), &small_l2).validated);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod configs;
pub mod json;
pub mod report;
pub mod run;
pub mod store;
pub mod sweep;

pub use configs::{
    Axis, Knob, ScenarioConfig, SystemConfig, SystemKind, AVA_EXTRAPOLATION_PREG_FLOOR,
};
pub use json::Json;
pub use report::{format_runs_table, format_sweep_summary, geometric_mean, speedup_vs};
pub use run::{run_system, run_workload, store_key, PhaseBreakdown, RunReport};
pub use store::{ResultStore, StoreKey, CODE_VERSION};
pub use sweep::{proves, PointStats, Sweep, SweepReport, SweepRun, SweepRunner};
