//! # ava-workloads — the RiVEC-style benchmark kernels
//!
//! The paper evaluates AVA with six applications from the RiVEC Benchmark
//! Suite (Table IV): Axpy, Blackscholes, LavaMD2, Particle Filter, Somier
//! and Swaptions. This crate reproduces each of them as a hand-vectorised
//! kernel written against the intrinsics-style [`ava_compiler::KernelBuilder`],
//! together with an input generator and a scalar golden reference, so a
//! simulation run can be validated numerically as well as timed.
//!
//! The kernels are written to reproduce each application's *register
//! pressure* and *instruction mix*, the two properties the paper's results
//! hinge on: Axpy needs only a couple of registers, Blackscholes and
//! Swaptions keep more than 16 values live (forcing spill code under
//! register grouping), LavaMD2 operates on fixed 48-element vectors, Somier
//! is memory-bound with low pressure, and Particle Filter sits in between.
//!
//! ```
//! use ava_workloads::{Axpy, Workload};
//! use ava_isa::VectorContext;
//! use ava_memory::MemoryHierarchy;
//!
//! let mut mem = MemoryHierarchy::default();
//! let setup = Axpy::new(256).build(&mut mem, &VectorContext::with_mvl(16));
//! assert!(setup.kernel.len() > 0);
//! assert!(setup.strips >= 16);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod axpy;
pub mod blackscholes;
pub mod composite;
pub mod data;
pub mod fingerprint;
pub mod lavamd;
pub mod layout;
pub mod particlefilter;
pub mod registry;
pub mod somier;
pub mod swaptions;

use ava_compiler::analysis::{analyze, AnalysisInput, AnalysisReport, Arena};
use ava_compiler::IrKernel;
use ava_isa::VectorContext;
use ava_memory::{MainMemory, MemoryHierarchy};

pub use ava_compiler::analysis;
pub use axpy::Axpy;
pub use blackscholes::Blackscholes;
pub use composite::Composite;
pub use fingerprint::Fingerprint;
pub use lavamd::LavaMd2;
pub use layout::{
    materialize_input, ArenaPlanner, BufferBindings, BufferRole, BufferSpec, DataLayout,
    PlannedBuffer, PlannedLayout,
};
pub use particlefilter::ParticleFilter;
pub use registry::{build_kernel, check_kernel, kernel_defaults, KERNEL_NAMES};
pub use somier::Somier;
pub use swaptions::Swaptions;

/// One expected output value, checked after simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Check {
    /// Address of the value in simulated memory.
    pub addr: u64,
    /// Expected value from the scalar golden reference.
    pub expected: f64,
    /// Absolute tolerance (0.0 for bit-exact expectations).
    pub tolerance: f64,
}

/// The golden-reference contents of one declared output buffer after the
/// kernel has run. A pipelined composite feeds these values to the next
/// phase's `BufferBindings`, chaining the scalar models.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputValues {
    /// Declared buffer name ("y", "vout", ...).
    pub name: String,
    /// Base address of the buffer in simulated memory.
    pub base: u64,
    /// Expected value of every element, in order.
    pub values: Vec<f64>,
}

impl OutputValues {
    /// Address range `[base, end)` covered by the buffer.
    #[must_use]
    pub fn range(&self) -> (u64, u64) {
        (self.base, self.base + (self.values.len() * 8) as u64)
    }
}

/// One phase boundary of a multi-kernel setup: the phase's display name and
/// the IR-instruction index at which the phase *ends* (exclusive). The
/// simulator uses these to report per-phase cycle/memory breakdowns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseMark {
    /// Display name of the phase ("0:axpy" for pipeline stages,
    /// "it3:somier" for unrolled iterations).
    pub name: String,
    /// Iteration index for phases produced by unrolling an iterated
    /// composite (`None` for ordinary pipeline stages). Threaded into the
    /// per-phase report breakdowns so downstream consumers can group
    /// per-iteration costs.
    pub iter: Option<usize>,
    /// Exclusive IR-instruction end index of the phase.
    pub ir_end: usize,
}

/// Everything needed to run and validate one workload at one vector length:
/// the IR trace, the expected outputs and loop-shape metadata.
#[derive(Debug, Clone, Default)]
pub struct WorkloadSetup {
    /// The vectorised kernel as an IR trace (before register allocation).
    pub kernel: IrKernel,
    /// Expected output values for validation.
    pub checks: Vec<Check>,
    /// Number of stripmined loop iterations (drives the scalar-core model).
    pub strips: u64,
    /// Golden-reference contents of every declared output buffer (the
    /// chaining surface for pipelined composites).
    pub outputs: Vec<OutputValues>,
    /// Planner-derived cache warm-up ranges: every planned buffer the run
    /// actually touches (bound placeholder inputs are excluded).
    pub warm_ranges: Vec<(u64, u64)>,
    /// Phase boundaries for multi-kernel setups (empty means one phase
    /// spanning the whole kernel; no per-phase breakdown is reported).
    pub phase_marks: Vec<PhaseMark>,
}

impl WorkloadSetup {
    /// Feeds this setup's golden-reference identity — the output checks
    /// (address, expected bits, tolerance bits), the stripmine count and the
    /// phase boundaries — into a result-store fingerprint. The checks, a
    /// large point's bulk, go one [`Fingerprint::write_word`] step per
    /// field (`expected` and `tolerance` by their exact bit patterns, so
    /// `0.0` and `-0.0` differ); the count and the rest go through the
    /// byte-wise FNV-1a writes. The kernel itself is fingerprinted
    /// separately from its *compiled* form (the program the simulator
    /// actually executes), so it is deliberately not fed here.
    pub fn fingerprint(&self, h: &mut Fingerprint) {
        h.write_u64(self.checks.len() as u64);
        for c in &self.checks {
            h.write_word(c.addr);
            h.write_word(c.expected.to_bits());
            h.write_word(c.tolerance.to_bits());
        }
        h.write_u64(self.strips);
        h.write_u64(self.phase_marks.len() as u64);
        for m in &self.phase_marks {
            h.write_str(&m.name);
            h.write_u64(m.iter.map_or(u64::MAX, |i| i as u64));
            h.write_u64(m.ir_end as u64);
        }
    }

    /// The reference output buffer named `name`.
    ///
    /// # Panics
    ///
    /// Panics if no output of that name exists.
    #[must_use]
    pub fn output(&self, name: &str) -> &OutputValues {
        self.outputs
            .iter()
            .find(|o| o.name == name)
            .unwrap_or_else(|| panic!("no output buffer named {name:?}"))
    }
}

/// A vectorised benchmark application, expressed as a two-step protocol:
/// a [`DataLayout`] planning step declaring named input/output buffers, and
/// a [`Workload::build_with_bindings`] step that generates the IR and the
/// golden reference against the planned placement — with any subset of the
/// inputs externally bound to an upstream phase's output.
pub trait Workload {
    /// Short name used in reports ("axpy", "blackscholes", ...).
    fn name(&self) -> &'static str;

    /// Application domain, as listed in Table IV of the paper.
    fn domain(&self) -> &'static str;

    /// Approximate number of vector element operations one simulation of
    /// this workload executes: problem size scaled by a rough per-element
    /// kernel weight. The sweep scheduler uses this as its per-point cost
    /// estimate to start expensive points first; the estimate only orders
    /// work and can never change a result.
    fn elements(&self) -> usize;

    /// Step 1 of the build protocol: the named buffers this workload reads
    /// and writes, in placement order. Sizes depend only on the problem
    /// size, so composites can validate bindings without a machine context.
    fn data_layout(&self) -> DataLayout;

    /// Step 2 of the build protocol: generates input data (for unbound
    /// inputs), the vector IR trace for the machine described by `ctx` (its
    /// effective MVL decides the stripmine length) and the golden
    /// reference, all against the planned buffer placement. Bound inputs
    /// take their reference values from `bindings` instead of generating
    /// data — the chaining mechanism of pipelined composites.
    ///
    /// Contract for binders: a bound input's data is *not* written to the
    /// planned buffer (the kernel is generated against the planned address
    /// regardless). The caller must ensure the bound values exist at run
    /// time at whatever address the kernel ends up reading — normally by
    /// rebasing the kernel's accesses onto a buffer an earlier phase
    /// writes ([`Composite::pipelined`] does this via
    /// `IrKernel::concat_remapped`), or by writing the values into memory
    /// itself. Passing bindings without arranging either leaves the kernel
    /// reading zeros while the reference expects the bound values, and
    /// validation fails.
    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup;

    /// Convenience wrapper running both protocol steps with no external
    /// bindings: plan the declared layout with a fresh [`ArenaPlanner`],
    /// then build against it.
    fn build(&self, mem: &mut MemoryHierarchy, ctx: &VectorContext) -> WorkloadSetup {
        let plan = ArenaPlanner::new().plan(mem, &self.data_layout());
        self.build_with_bindings(mem, ctx, &plan, &BufferBindings::none())
    }

    /// The planned buffers as [`analysis`] arenas, for the static verifier.
    /// The default maps every planned buffer to a plain arena; [`Composite`]
    /// overrides it to mark rebased consumer inputs as placeholders and
    /// iterated carry buffers and linked producer outputs as
    /// destroy-tracked.
    fn analysis_arenas(&self, plan: &PlannedLayout) -> Vec<Arena> {
        plan.buffers()
            .iter()
            .map(|b| Arena::new(b.spec.name.clone(), b.base, b.bytes()))
            .collect()
    }

    /// Statically verifies this workload's kernel at the given maximum
    /// vector length: builds it against a fresh memory hierarchy and runs
    /// the full [`analysis`] suite (SSA well-formedness, VL-state lints and
    /// address-interval bounds checks against the planned arenas). No
    /// simulation runs — this is the `ava-lint` entry point used by tests
    /// and the composite constructors.
    fn verify(&self, mvl: usize) -> AnalysisReport {
        let mut mem = MemoryHierarchy::default();
        let ctx = VectorContext::with_mvl(mvl);
        let plan = ArenaPlanner::new().plan(&mut mem, &self.data_layout());
        let setup = self.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none());
        let input = AnalysisInput::new(Some(ctx.effective_mvl()))
            .with_arenas(self.analysis_arenas(&plan))
            .with_phase_ends(setup.phase_marks.iter().map(|m| m.ir_end).collect());
        analyze(&setup.kernel, &input)
    }
}

/// Validates the expected outputs of a finished run against the simulated
/// memory, returning a description of the first mismatch.
///
/// # Errors
///
/// Returns `Err` with a human-readable message naming the first mismatching
/// address, its expected and actual values.
pub fn validate(mem: &MemoryHierarchy, checks: &[Check]) -> Result<(), String> {
    validate_image(mem.memory(), checks)
}

/// [`validate`] on a functional memory image alone.
///
/// # Errors
///
/// As [`validate`].
pub fn validate_image(mem: &MainMemory, checks: &[Check]) -> Result<(), String> {
    for (i, c) in checks.iter().enumerate() {
        let actual = mem.read_f64(c.addr);
        let ok = if c.tolerance == 0.0 {
            actual == c.expected
        } else {
            (actual - c.expected).abs() <= c.tolerance.max(c.expected.abs() * c.tolerance)
        };
        if !ok {
            return Err(format!(
                "check {i} at {:#x}: expected {}, got {} (tolerance {})",
                c.addr, c.expected, actual, c.tolerance
            ));
        }
    }
    Ok(())
}

/// All six workloads at their default (test-sized) problem sizes, in the
/// order the paper presents them.
#[must_use]
pub fn all_workloads() -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(Axpy::default()),
        Box::new(Blackscholes::default()),
        Box::new(LavaMd2::default()),
        Box::new(ParticleFilter::default()),
        Box::new(Somier::default()),
        Box::new(Swaptions::default()),
    ]
}

/// A workload that can be shared across experiment threads (the sweep engine
/// runs one simulation per (workload, system) point in parallel).
pub type SharedWorkload = std::sync::Arc<dyn Workload + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_workloads_have_distinct_names_and_domains() {
        let ws = all_workloads();
        assert_eq!(ws.len(), 6);
        let mut names: Vec<_> = ws.iter().map(|w| w.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6, "duplicate workload names");
        for w in &ws {
            assert!(!w.domain().is_empty());
        }
    }

    #[test]
    fn cost_hints_are_positive_and_scale_with_problem_size() {
        for w in all_workloads() {
            assert!(w.elements() > 0, "{} has a zero cost hint", w.name());
        }
        assert!(Axpy::new(4096).elements() > Axpy::new(256).elements());
        assert!(Blackscholes::new(1024).elements() > Blackscholes::new(64).elements());
        // Blackscholes is far heavier per element than Axpy at equal sizes.
        assert!(Blackscholes::new(1024).elements() > Axpy::new(1024).elements());
    }

    #[test]
    fn validate_accepts_exact_and_tolerant_matches() {
        let mut mem = MemoryHierarchy::default();
        let a = mem.allocate(16);
        mem.write_f64(a, 1.5);
        mem.write_f64(a + 8, 2.0 + 1e-12);
        let checks = vec![
            Check {
                addr: a,
                expected: 1.5,
                tolerance: 0.0,
            },
            Check {
                addr: a + 8,
                expected: 2.0,
                tolerance: 1e-9,
            },
        ];
        assert!(validate(&mem, &checks).is_ok());
    }

    #[test]
    fn validate_reports_the_first_mismatch() {
        let mut mem = MemoryHierarchy::default();
        let a = mem.allocate(16);
        mem.write_f64(a, 1.0);
        let checks = vec![Check {
            addr: a,
            expected: 2.0,
            tolerance: 0.0,
        }];
        let err = validate(&mem, &checks).unwrap_err();
        assert!(err.contains("expected 2"));
    }

    #[test]
    fn the_setup_fingerprint_sees_every_check_field_and_their_order() {
        let check = |addr, expected, tolerance| Check {
            addr,
            expected,
            tolerance,
        };
        let key = |checks: Vec<Check>| {
            let setup = WorkloadSetup {
                kernel: IrKernel::default(),
                checks,
                strips: 4,
                outputs: Vec::new(),
                warm_ranges: Vec::new(),
                phase_marks: Vec::new(),
            };
            let mut h = Fingerprint::new();
            setup.fingerprint(&mut h);
            h.finish()
        };
        let base = vec![check(0x1000, 1.5, 0.0), check(0x1008, 0.0, 1e-9)];
        let variants = [
            base.clone(),
            vec![check(0x1010, 1.5, 0.0), check(0x1008, 0.0, 1e-9)],
            vec![check(0x1000, 2.5, 0.0), check(0x1008, 0.0, 1e-9)],
            vec![check(0x1000, 1.5, 0.0), check(0x1008, -0.0, 1e-9)],
            vec![check(0x1000, 1.5, 1e-12), check(0x1008, 0.0, 1e-9)],
            vec![base[1], base[0]],
            vec![base[0]],
        ];
        let keys: Vec<u64> = variants.into_iter().map(key).collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "variants {i} and {j} share a fingerprint");
            }
        }
        assert_eq!(keys[0], key(base), "the fingerprint is deterministic");
    }

    #[test]
    fn every_workload_builds_a_nonempty_kernel() {
        for w in all_workloads() {
            let mut mem = MemoryHierarchy::default();
            let setup = w.build(&mut mem, &VectorContext::with_mvl(16));
            assert!(
                !setup.kernel.is_empty(),
                "{} built an empty kernel",
                w.name()
            );
            assert!(
                !setup.checks.is_empty(),
                "{} has no output checks",
                w.name()
            );
            assert!(setup.strips >= 1);
        }
    }
}
