//! Swaptions: Monte-Carlo swaption pricing under a multi-factor HJM-style
//! model (financial analysis, map-reduce).
//!
//! Together with Blackscholes this is the highest-register-pressure kernel
//! of the suite (the paper reports 24 logical registers): the per-factor
//! volatility and drift terms, the running payoff accumulators and the path
//! variables are all live at once, so register grouping pays spill code from
//! LMUL=2 upwards while AVA only starts swapping at its smallest physical
//! register files (§V, Figure 3-f).

use ava_compiler::KernelBuilder;
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

const FACTORS: usize = 4;
const VOLS: [f64; FACTORS] = [0.11, 0.07, 0.05, 0.03];
const DRIFTS: [f64; FACTORS] = [-0.012, -0.007, -0.004, -0.002];
const STRIKE: f64 = 1.02;
const DISCOUNT: f64 = 0.97;

/// The Swaptions workload.
#[derive(Debug, Clone, Copy)]
pub struct Swaptions {
    paths: usize,
}

impl Swaptions {
    /// Creates a pricing run over `paths` Monte-Carlo paths.
    #[must_use]
    pub fn new(paths: usize) -> Self {
        assert!(paths > 0, "problem size must be positive");
        Self { paths }
    }
}

impl Default for Swaptions {
    fn default() -> Self {
        Self::new(1024)
    }
}

impl Workload for Swaptions {
    fn name(&self) -> &'static str {
        "swaptions"
    }

    fn elements(&self) -> usize {
        // Volatility/drift accumulation across the four HJM factors plus the
        // payoff reduction per path.
        self.paths * FACTORS * 12
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        for f in 0..FACTORS {
            l.input(format!("z{f}"), self.paths);
        }
        l.output("payoff", self.paths);
        l.output("sum", 1);
        l.output("sumsq", 1);
        l
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let n = self.paths;
        let mut gen = DataGen::for_workload(self.name());
        let z: Vec<Vec<f64>> = (0..FACTORS)
            .map(|f| {
                materialize_input(mem, plan, bindings, &format!("z{f}"), || {
                    gen.uniform_vec(n, -2.5, 2.5)
                })
            })
            .collect();
        let a_z: Vec<u64> = (0..FACTORS).map(|f| plan.addr(&format!("z{f}"))).collect();
        let a_payoff = plan.addr("payoff");
        let a_sum = plan.addr("sum");
        let a_sumsq = plan.addr("sumsq");

        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("swaptions");

        // vsetvlmax preamble: splats must cover the full register whatever
        // VL a previously-run kernel left behind.
        b.set_vl(mvl);
        // Per-factor volatility and drift terms plus pricing constants are
        // splatted once and stay live across the whole kernel.
        let c_vol: Vec<_> = VOLS.iter().map(|&v| b.vsplat(v)).collect();
        let c_drift: Vec<_> = DRIFTS.iter().map(|&d| b.vsplat(d)).collect();
        let c_strike = b.vsplat(STRIKE);
        let c_disc = b.vsplat(DISCOUNT);
        // Payoff sum and sum-of-squares accumulators (lane 0 only).
        let mut acc_sum = b.vsplat(0.0);
        let mut acc_sumsq = b.vsplat(0.0);

        let mut strips = 0u64;
        let mut i = 0usize;
        while i < n {
            let vl = mvl.min(n - i);
            b.set_vl(vl);
            let off = (8 * i) as u64;
            let zr: Vec<_> = a_z.iter().map(|&a| b.vload(a + off)).collect();
            let r: Vec<_> = (0..FACTORS)
                .map(|f| b.vfmadd(zr[f], c_vol[f], c_drift[f]))
                .collect();
            let r01 = b.vfadd(r[0], r[1]);
            let r23 = b.vfadd(r[2], r[3]);
            let rate = b.vfadd(r01, r23);
            let fwd = b.vfexp(rate);
            let raw = b.vfsub(fwd, c_strike);
            let payoff = b.vfmax(raw, 0.0);
            let disc = b.vfmul(payoff, c_disc);
            b.vstore(disc, a_payoff + off);
            let sq = b.vfmul(disc, disc);
            let strip_sum = b.vfredsum(disc);
            acc_sum = b.vfadd(acc_sum, strip_sum);
            let strip_sq = b.vfredsum(sq);
            acc_sumsq = b.vfadd(acc_sumsq, strip_sq);
            strips += 1;
            i += vl;
        }
        b.set_vl(1);
        b.vstore(acc_sum, a_sum);
        b.vstore(acc_sumsq, a_sumsq);

        // Golden reference, mirroring the per-strip reduction order.
        let mut checks = Vec::with_capacity(n + 2);
        let mut payoffs = Vec::with_capacity(n);
        let mut total = 0.0f64;
        let mut total_sq = 0.0f64;
        let mut j = 0usize;
        while j < n {
            let vl = mvl.min(n - j);
            let mut s = 0.0f64;
            let mut ssq = 0.0f64;
            for k in 0..vl {
                let p = j + k;
                // Match the kernel's pairwise addition order.
                let r0 = z[0][p].mul_add(VOLS[0], DRIFTS[0]);
                let r1 = z[1][p].mul_add(VOLS[1], DRIFTS[1]);
                let r2 = z[2][p].mul_add(VOLS[2], DRIFTS[2]);
                let r3 = z[3][p].mul_add(VOLS[3], DRIFTS[3]);
                let rate = (r0 + r1) + (r2 + r3);
                let fwd = rate.exp();
                let disc = (fwd - STRIKE).max(0.0) * DISCOUNT;
                checks.push(Check {
                    addr: a_payoff + (8 * p) as u64,
                    expected: disc,
                    tolerance: 1e-12,
                });
                payoffs.push(disc);
                s += disc;
                ssq += disc * disc;
            }
            total += s;
            total_sq += ssq;
            j += vl;
        }
        checks.push(Check {
            addr: a_sum,
            expected: total,
            tolerance: 1e-9,
        });
        checks.push(Check {
            addr: a_sumsq,
            expected: total_sq,
            tolerance: 1e-9,
        });

        WorkloadSetup {
            kernel: b.finish(),
            checks,
            strips,
            outputs: vec![
                OutputValues {
                    name: "payoff".to_string(),
                    base: a_payoff,
                    values: payoffs,
                },
                OutputValues {
                    name: "sum".to_string(),
                    base: a_sum,
                    values: vec![total],
                },
                OutputValues {
                    name: "sumsq".to_string(),
                    base: a_sumsq,
                    values: vec![total_sq],
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
    fn pressure_exceeds_half_the_architectural_registers() {
        let mut mem = MemoryHierarchy::default();
        let setup = Swaptions::new(256).build(&mut mem, &VectorContext::with_mvl(16));
        let p = setup.kernel.max_pressure();
        assert!(
            p > 16 && p <= 32,
            "swaptions pressure should exceed the LMUL2 budget but fit 32 registers, got {p}"
        );
    }

    #[test]
    fn check_count_covers_paths_and_reductions() {
        let mut mem = MemoryHierarchy::default();
        let setup = Swaptions::new(128).build(&mut mem, &VectorContext::with_mvl(32));
        assert_eq!(setup.checks.len(), 130);
        assert_eq!(setup.strips, 4);
    }

    #[test]
    fn payoffs_are_nonnegative() {
        let mut mem = MemoryHierarchy::default();
        let setup = Swaptions::new(64).build(&mut mem, &VectorContext::with_mvl(16));
        for c in &setup.checks {
            assert!(c.expected >= 0.0);
        }
    }

    #[test]
    fn longer_vectors_shrink_the_trace() {
        let mut mem = MemoryHierarchy::default();
        let short = Swaptions::new(512).build(&mut mem, &VectorContext::with_mvl(16));
        let long = Swaptions::new(512).build(&mut mem, &VectorContext::with_mvl(128));
        assert!(long.kernel.len() < short.kernel.len());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_paths_is_rejected() {
        let _ = Swaptions::new(0);
    }
}
