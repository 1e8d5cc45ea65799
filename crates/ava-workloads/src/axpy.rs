//! Axpy: `y[i] = a * x[i] + y[i]` (BLAS level 1).
//!
//! The paper's ideal case: only two vector registers are live, so no
//! configuration ever spills or swaps, and longer vectors translate directly
//! into fewer instructions (§V, Figure 3-a).

use ava_compiler::KernelBuilder;
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

/// The Axpy workload.
#[derive(Debug, Clone, Copy)]
pub struct Axpy {
    n: usize,
    a: f64,
}

impl Axpy {
    /// Creates an Axpy over `n` elements with the default scaling factor.
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "problem size must be positive");
        Self { n, a: 1.75 }
    }

    /// Problem size in elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the problem is empty (never constructible; provided for API
    /// completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }
}

impl Default for Axpy {
    fn default() -> Self {
        Self::new(2048)
    }
}

impl Workload for Axpy {
    fn name(&self) -> &'static str {
        "axpy"
    }

    fn elements(&self) -> usize {
        // Two loads, one fused multiply-add, one store per element.
        self.n * 4
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        l.input("x", self.n);
        l.inout("y", self.n);
        l
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let mut gen = DataGen::for_workload(self.name());
        let x = materialize_input(mem, plan, bindings, "x", || {
            gen.uniform_vec(self.n, -1.0, 1.0)
        });
        let y = materialize_input(mem, plan, bindings, "y", || {
            gen.uniform_vec(self.n, -1.0, 1.0)
        });
        let xa = plan.addr("x");
        let ya = plan.addr("y");

        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("axpy");
        let mut strips = 0u64;
        let mut i = 0usize;
        while i < self.n {
            let vl = mvl.min(self.n - i);
            b.set_vl(vl);
            let off = (8 * i) as u64;
            let vx = b.vload(xa + off);
            let vy = b.vload(ya + off);
            let r = b.vfmacc_scalar(vy, self.a, vx);
            b.vstore(r, ya + off);
            strips += 1;
            i += vl;
        }

        let y_out: Vec<f64> = (0..self.n).map(|i| self.a.mul_add(x[i], y[i])).collect();
        let checks = y_out
            .iter()
            .enumerate()
            .map(|(i, &expected)| Check {
                addr: ya + (8 * i) as u64,
                expected,
                tolerance: 0.0,
            })
            .collect();

        WorkloadSetup {
            kernel: b.finish(),
            checks,
            strips,
            outputs: vec![OutputValues {
                name: "y".to_string(),
                base: ya,
                values: y_out,
            }],
            warm_ranges: plan.warm_ranges(bindings),
            phase_marks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_is_tiny() {
        let mut mem = MemoryHierarchy::default();
        let setup = Axpy::new(256).build(&mut mem, &VectorContext::with_mvl(16));
        let p = setup.kernel.max_pressure();
        assert!(p <= 3, "axpy pressure should be at most 3, got {p}");
    }

    #[test]
    fn instruction_mix_is_three_quarters_memory() {
        // 2 loads + 1 store per 1 arithmetic instruction (Figure 3-a2: 75 %).
        let mut mem = MemoryHierarchy::default();
        let setup = Axpy::new(256).build(&mut mem, &VectorContext::with_mvl(16));
        let mem_ops = setup
            .kernel
            .instrs
            .iter()
            .filter(|i| i.kind() == ava_isa::InstrKind::Memory)
            .count();
        let arith = setup
            .kernel
            .instrs
            .iter()
            .filter(|i| i.kind() == ava_isa::InstrKind::Arithmetic)
            .count();
        assert_eq!(mem_ops, 3 * arith);
    }

    #[test]
    fn longer_mvl_means_fewer_strips() {
        let mut mem = MemoryHierarchy::default();
        let short = Axpy::new(1024).build(&mut mem, &VectorContext::with_mvl(16));
        let long = Axpy::new(1024).build(&mut mem, &VectorContext::with_mvl(128));
        assert_eq!(short.strips, 64);
        assert_eq!(long.strips, 8);
        assert!(long.kernel.len() < short.kernel.len());
    }

    #[test]
    fn tail_strips_handle_non_multiple_sizes() {
        let mut mem = MemoryHierarchy::default();
        let setup = Axpy::new(100).build(&mut mem, &VectorContext::with_mvl(16));
        assert_eq!(setup.strips, 7);
        assert_eq!(setup.checks.len(), 100);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_is_rejected() {
        let _ = Axpy::new(0);
    }
}
