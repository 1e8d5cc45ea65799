//! Particle Filter: sequential Monte-Carlo tracking (medical imaging).
//!
//! A structured-grid kernel with moderate register pressure: particle
//! positions are advanced, a likelihood value is gathered from a measurement
//! grid for every particle (indexed vector loads), and the weights are
//! updated and accumulated. Spill/swap traffic only appears for the most
//! aggressive configurations (LMUL4/LMUL8, AVA X4/X8), and even then it is a
//! negligible fraction of the instruction stream (§V, Figure 3-d).

use ava_compiler::KernelBuilder;
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

/// The Particle Filter workload.
#[derive(Debug, Clone, Copy)]
pub struct ParticleFilter {
    particles: usize,
    grid: usize,
}

impl ParticleFilter {
    /// Creates a filter over `particles` particles on a `grid`×`grid`
    /// likelihood map.
    #[must_use]
    pub fn new(particles: usize, grid: usize) -> Self {
        assert!(particles > 0 && grid >= 4, "problem size must be positive");
        Self { particles, grid }
    }
}

impl Default for ParticleFilter {
    fn default() -> Self {
        Self::new(1024, 64)
    }
}

impl Workload for ParticleFilter {
    fn name(&self) -> &'static str {
        "particlefilter"
    }

    fn elements(&self) -> usize {
        // Indexed likelihood gather, weight update and position drift per
        // particle.
        self.particles * 16
    }

    fn data_layout(&self) -> DataLayout {
        let n = self.particles;
        let mut l = DataLayout::new();
        l.input("x", n);
        l.input("y", n);
        l.input("w", n);
        l.input("lik", self.grid * self.grid);
        // The gather indices derive from the positions, so they can never
        // be bound to an upstream phase's output.
        l.internal("idx", n);
        l.output("xout", n);
        l.output("yout", n);
        l.output("wout", n);
        l.output("sum", 1);
        l
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let n = self.particles;
        let cells = self.grid * self.grid;
        let mut gen = DataGen::for_workload(self.name());

        let xs = materialize_input(mem, plan, bindings, "x", || {
            gen.uniform_vec(n, 0.0, (self.grid - 2) as f64)
        });
        let ys = materialize_input(mem, plan, bindings, "y", || {
            gen.uniform_vec(n, 0.0, (self.grid - 2) as f64)
        });
        let ws = materialize_input(mem, plan, bindings, "w", || gen.positive_vec(n, 0.5, 1.5));
        let likelihood = materialize_input(mem, plan, bindings, "lik", || {
            gen.positive_vec(cells, 0.01, 1.0)
        });
        // Grid cell index of every particle, precomputed by the scalar side
        // of the application (float-to-int conversions happen there). The
        // index buffer derives from the positions, so it is always generated
        // here rather than being a bindable input.
        // "idx" is declared Internal, so the composite constructor rejects
        // links onto it; it always derives from the (possibly bound)
        // positions here.
        let idx: Vec<i64> = xs
            .iter()
            .zip(ys.iter())
            .map(|(&x, &y)| (y as i64) * self.grid as i64 + (x as i64))
            .collect();
        let idx_f: Vec<f64> = idx.iter().map(|&i| f64::from_bits(i as u64)).collect();
        mem.memory_mut().write_f64_slice(plan.addr("idx"), &idx_f);

        let a_x = plan.addr("x");
        let a_y = plan.addr("y");
        let a_w = plan.addr("w");
        let a_lik = plan.addr("lik");
        let a_idx = plan.addr("idx");
        let a_xout = plan.addr("xout");
        let a_yout = plan.addr("yout");
        let a_wout = plan.addr("wout");
        let a_sum = plan.addr("sum");

        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("particlefilter");

        // vsetvlmax preamble: splats must cover the full register whatever
        // VL a previously-run kernel left behind.
        b.set_vl(mvl);
        // Motion-model constants held in registers for the whole kernel.
        let c_dx = b.vsplat(1.0);
        let c_dy = b.vsplat(-2.0);
        let c_damp = b.vsplat(0.9);
        // Running weight sum; only lane 0 is meaningful (per-strip
        // reductions are accumulated into it).
        let mut acc_w = b.vsplat(0.0);

        let mut strips = 0u64;
        let mut i = 0usize;
        while i < n {
            let vl = mvl.min(n - i);
            b.set_vl(vl);
            let off = (8 * i) as u64;
            let vx = b.vload(a_x + off);
            let vy = b.vload(a_y + off);
            let vw = b.vload(a_w + off);
            let vidx = b.vload(a_idx + off);
            // Advance the motion model.
            let nx = b.vfadd(vx, c_dx);
            let ny = b.vfadd(vy, c_dy);
            // Gather the likelihood of each particle's grid cell.
            let lik = b.vload_indexed(a_lik, vidx);
            // Weight update with damping.
            let w1 = b.vfmul(vw, lik);
            let nw = b.vfmul(w1, c_damp);
            let strip_sum = b.vfredsum(nw);
            acc_w = b.vfadd(acc_w, strip_sum);
            b.vstore(nx, a_xout + off);
            b.vstore(ny, a_yout + off);
            b.vstore(nw, a_wout + off);
            strips += 1;
            i += vl;
        }
        b.set_vl(1);
        b.vstore(acc_w, a_sum);

        // Golden reference: identical per-strip summation order.
        let mut checks = Vec::new();
        let mut xouts = Vec::with_capacity(n);
        let mut youts = Vec::with_capacity(n);
        let mut wouts = Vec::with_capacity(n);
        let mut wsum = 0.0f64;
        let mut j = 0usize;
        while j < n {
            let vl = mvl.min(n - j);
            let mut strip_sum = 0.0f64;
            for k in 0..vl {
                let p = j + k;
                let nw = ws[p] * likelihood[idx[p] as usize] * 0.9;
                strip_sum += nw;
                checks.push(Check {
                    addr: a_xout + (8 * p) as u64,
                    expected: xs[p] + 1.0,
                    tolerance: 1e-12,
                });
                checks.push(Check {
                    addr: a_yout + (8 * p) as u64,
                    expected: ys[p] - 2.0,
                    tolerance: 1e-12,
                });
                checks.push(Check {
                    addr: a_wout + (8 * p) as u64,
                    expected: nw,
                    tolerance: 1e-12,
                });
                xouts.push(xs[p] + 1.0);
                youts.push(ys[p] - 2.0);
                wouts.push(nw);
            }
            wsum += strip_sum;
            j += vl;
        }
        checks.push(Check {
            addr: a_sum,
            expected: wsum,
            tolerance: 1e-9,
        });

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
                    name: "yout".to_string(),
                    base: a_yout,
                    values: youts,
                },
                OutputValues {
                    name: "wout".to_string(),
                    base: a_wout,
                    values: wouts,
                },
                OutputValues {
                    name: "sum".to_string(),
                    base: a_sum,
                    values: vec![wsum],
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
    fn pressure_sits_between_the_lmul4_and_lmul2_budgets() {
        let mut mem = MemoryHierarchy::default();
        let setup = ParticleFilter::new(256, 16).build(&mut mem, &VectorContext::with_mvl(16));
        let p = setup.kernel.max_pressure();
        assert!(
            p > 8 && p <= 16,
            "particle filter pressure should be in (8, 16], got {p}"
        );
    }

    #[test]
    fn uses_indexed_gathers() {
        let mut mem = MemoryHierarchy::default();
        let setup = ParticleFilter::new(64, 16).build(&mut mem, &VectorContext::with_mvl(16));
        assert!(setup
            .kernel
            .instrs
            .iter()
            .any(|i| i.opcode == ava_isa::Opcode::VLoadIndexed));
    }

    #[test]
    fn check_count_covers_positions_weights_and_sum() {
        let mut mem = MemoryHierarchy::default();
        let setup = ParticleFilter::new(64, 16).build(&mut mem, &VectorContext::with_mvl(16));
        assert_eq!(setup.checks.len(), 3 * 64 + 1);
        assert_eq!(setup.strips, 4);
    }

    #[test]
    fn indices_stay_inside_the_grid() {
        let pf = ParticleFilter::new(512, 32);
        let mut mem = MemoryHierarchy::default();
        // Building also validates that gather addresses refer to the grid.
        let _ = pf.build(&mut mem, &VectorContext::with_mvl(64));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tiny_grids_are_rejected() {
        let _ = ParticleFilter::new(64, 2);
    }
}
