//! Somier: spring–mass physics simulation (structured grid relaxation).
//!
//! A memory-bound kernel with low register pressure: every element update
//! reads three neighbouring positions and the velocity and writes the new
//! velocity and position. Only the most extreme grouping factor (LMUL=8,
//! four architectural registers) runs out of registers, matching the paper's
//! observation that spill/swap operations appear only for RG-LMUL8 / AVA X8
//! (§V, Figure 3-e).
//!
//! Two flavours share the kernel body:
//!
//! * [`Somier::new`] — the single-step kernel of the paper's Figure 3 grid
//!   (positions carry a read-only halo; outputs are interior-only).
//! * [`Somier::relaxation`] — the solver-loop body for
//!   [`Composite::iterated`]: the position output grows the same halo as
//!   the input (the kernel copies the fixed boundary through), so
//!   `xout → x` and `vout → v` carry links are size-compatible and the
//!   body can ping-pong across iterations.
//!
//! [`Composite::iterated`]: crate::Composite::iterated

use ava_compiler::KernelBuilder;
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

/// The Somier workload.
#[derive(Debug, Clone, Copy)]
pub struct Somier {
    nodes: usize,
    dt: f64,
    spring_k: f64,
    /// Whether `xout` carries the boundary halo (copied through from `x`),
    /// making the position output the same shape as the position input —
    /// the property an iterated carry link needs.
    halo_outputs: bool,
}

impl Somier {
    /// Creates a 1-D chain of `nodes` masses connected by springs.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        assert!(nodes >= 4, "need at least a few interior nodes");
        Self {
            nodes,
            dt: 0.001,
            spring_k: 4.0,
            halo_outputs: false,
        }
    }

    /// The relaxation-step flavour: like [`Somier::new`], but `xout` is
    /// declared with the same halo as `x` and the kernel copies the two
    /// boundary elements through unchanged. The resulting body is closed
    /// under iteration — `xout → x` and `vout → v` are size-compatible
    /// carry links for [`Composite::iterated`], modelling a fixed-boundary
    /// spring relaxation swept to convergence.
    ///
    /// [`Composite::iterated`]: crate::Composite::iterated
    #[must_use]
    pub fn relaxation(nodes: usize) -> Self {
        Self {
            halo_outputs: true,
            ..Self::new(nodes)
        }
    }
}

impl Default for Somier {
    fn default() -> Self {
        Self::new(2048)
    }
}

impl Workload for Somier {
    fn name(&self) -> &'static str {
        "somier"
    }

    fn elements(&self) -> usize {
        // Three neighbour reads, the force computation and two writes per
        // node.
        self.nodes * 12
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        // Positions include one halo element on each side so the interior
        // update never reads out of bounds.
        l.input("x", self.nodes + 2);
        l.input("v", self.nodes);
        if self.halo_outputs {
            l.output("xout", self.nodes + 2);
        } else {
            l.output("xout", self.nodes);
        }
        l.output("vout", self.nodes);
        l
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let n = self.nodes;
        let mut gen = DataGen::for_workload(self.name());
        let x = materialize_input(mem, plan, bindings, "x", || {
            gen.uniform_vec(n + 2, -1.0, 1.0)
        });
        let v = materialize_input(mem, plan, bindings, "v", || gen.uniform_vec(n, -0.1, 0.1));
        let a_x = plan.addr("x");
        let a_v = plan.addr("v");
        let a_xout = plan.addr("xout");
        let a_vout = plan.addr("vout");
        // With halo outputs the interior of `xout` starts one element in,
        // mirroring the interior of `x`.
        let xout_off = if self.halo_outputs { 8 } else { 0 };

        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("somier");
        // vsetvlmax preamble: splats must cover the full register whatever
        // VL a previously-run kernel left behind.
        b.set_vl(mvl);
        // The spring constant and time step stay in vector registers for the
        // whole kernel, as the RiVEC source keeps its splatted coefficients.
        let c_k = b.vsplat(self.spring_k);
        let c_dt = b.vsplat(self.dt);
        let mut strips = 0u64;
        if self.halo_outputs {
            // The fixed boundary passes through: two single-element strips
            // copy the halo positions so the output array is a complete
            // next-iteration input.
            b.set_vl(1);
            let left = b.vload(a_x);
            b.vstore(left, a_xout);
            let right = b.vload(a_x + (8 * (n + 1)) as u64);
            b.vstore(right, a_xout + (8 * (n + 1)) as u64);
            strips += 2;
        }
        let mut i = 0usize;
        while i < n {
            let vl = mvl.min(n - i);
            b.set_vl(vl);
            // Interior node j = i + 1 .. i + vl (positions are offset by the
            // left halo element).
            let off_center = (8 * (i + 1)) as u64;
            let xl = b.vload(a_x + off_center - 8);
            let xc = b.vload(a_x + off_center);
            let xr = b.vload(a_x + off_center + 8);
            // Spring force: F = k * (x[l] + x[r] - 2 x[c]).
            let sum_lr = b.vfadd(xl, xr);
            let f = b.vfmadd(xc, -2.0, sum_lr);
            let force = b.vfmul(f, c_k);
            // Velocity and position update (explicit Euler).
            let vv = b.vload(a_v + (8 * i) as u64);
            let vnew = b.vfmadd(force, c_dt, vv);
            let xnew = b.vfmadd(vnew, c_dt, xc);
            b.vstore(vnew, a_vout + (8 * i) as u64);
            b.vstore(xnew, a_xout + xout_off + (8 * i) as u64);
            strips += 1;
            i += vl;
        }

        let mut checks = Vec::with_capacity(2 * n + 2);
        let mut vouts = Vec::with_capacity(n);
        let mut xouts = Vec::with_capacity(n + 2);
        if self.halo_outputs {
            xouts.push(x[0]);
            checks.push(Check {
                addr: a_xout,
                expected: x[0],
                tolerance: 0.0,
            });
        }
        for j in 0..n {
            let force = self.spring_k * (-2.0f64).mul_add(x[j + 1], x[j] + x[j + 2]);
            let vnew = force.mul_add(self.dt, v[j]);
            let xnew = vnew.mul_add(self.dt, x[j + 1]);
            checks.push(Check {
                addr: a_vout + (8 * j) as u64,
                expected: vnew,
                tolerance: 1e-12,
            });
            checks.push(Check {
                addr: a_xout + xout_off + (8 * j) as u64,
                expected: xnew,
                tolerance: 1e-12,
            });
            vouts.push(vnew);
            xouts.push(xnew);
        }
        if self.halo_outputs {
            xouts.push(x[n + 1]);
            checks.push(Check {
                addr: a_xout + (8 * (n + 1)) as u64,
                expected: x[n + 1],
                tolerance: 0.0,
            });
        }

        WorkloadSetup {
            kernel: b.finish(),
            checks,
            strips,
            outputs: vec![
                OutputValues {
                    name: "xout".to_string(),
                    base: a_xout,
                    values: xouts,
                },
                OutputValues {
                    name: "vout".to_string(),
                    base: a_vout,
                    values: vouts,
                },
            ],
            warm_ranges: plan.warm_ranges(bindings),
            phase_marks: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_fits_lmul4_but_not_lmul8() {
        let mut mem = MemoryHierarchy::default();
        let setup = Somier::new(256).build(&mut mem, &VectorContext::with_mvl(16));
        let p = setup.kernel.max_pressure();
        assert!(
            p > 4 && p <= 8,
            "somier pressure should exceed the LMUL8 budget but fit LMUL4, got {p}"
        );
    }

    #[test]
    fn kernel_is_memory_heavy() {
        let mut mem = MemoryHierarchy::default();
        let setup = Somier::new(256).build(&mut mem, &VectorContext::with_mvl(16));
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
        assert!(mem_ops > arith, "memory {mem_ops} vs arithmetic {arith}");
    }

    #[test]
    fn checks_cover_positions_and_velocities() {
        let mut mem = MemoryHierarchy::default();
        let setup = Somier::new(64).build(&mut mem, &VectorContext::with_mvl(32));
        assert_eq!(setup.checks.len(), 128);
        assert_eq!(setup.strips, 2);
    }

    #[test]
    fn relaxation_outputs_close_over_the_inputs() {
        // The relaxation flavour's xout mirrors x (halo included) so carry
        // links are size-compatible; the interior update is unchanged.
        let w = Somier::relaxation(64);
        let layout = w.data_layout();
        assert_eq!(
            layout.get("xout").unwrap().elems,
            layout.get("x").unwrap().elems
        );
        assert_eq!(
            layout.get("vout").unwrap().elems,
            layout.get("v").unwrap().elems
        );

        let mut mem = MemoryHierarchy::default();
        let setup = w.build(&mut mem, &VectorContext::with_mvl(32));
        // 2 checks per node plus the two halo pass-throughs; 2 extra
        // single-element halo strips.
        assert_eq!(setup.checks.len(), 2 * 64 + 2);
        assert_eq!(setup.strips, 4);

        // Interior values equal the single-step flavour's; the halo passes
        // through unchanged.
        let mut mem2 = MemoryHierarchy::default();
        let plain = Somier::new(64).build(&mut mem2, &VectorContext::with_mvl(32));
        let xout = setup.output("xout");
        assert_eq!(xout.values.len(), 66);
        assert_eq!(&xout.values[1..65], plain.output("xout").values.as_slice());
        assert_eq!(setup.output("vout").values, plain.output("vout").values);
        let mut gen = DataGen::for_workload("somier");
        let x = gen.uniform_vec(66, -1.0, 1.0);
        assert_eq!(xout.values[0], x[0]);
        assert_eq!(xout.values[65], x[65]);
    }

    #[test]
    #[should_panic(expected = "interior")]
    fn tiny_chains_are_rejected() {
        let _ = Somier::new(2);
    }
}
