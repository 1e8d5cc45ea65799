//! Blackscholes: European option pricing (financial analysis).
//!
//! A high-DLP kernel with heavy register pressure: the vectorised pricing
//! formula keeps the Abramowitz–Stegun polynomial coefficients and several
//! intermediate values live at once (the paper reports 23 logical registers,
//! which is why register grouping needs spill code from LMUL=2 upwards while
//! AVA X2 still fits in its 32 physical registers).

use ava_compiler::{KernelBuilder, VirtReg};
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

const A1: f64 = 0.31938153;
const A2: f64 = -0.356563782;
const A3: f64 = 1.781477937;
const A4: f64 = -1.821255978;
const A5: f64 = 1.330274429;
const K_COEF: f64 = 0.2316419;
const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
const RATE: f64 = 0.02;

/// The Blackscholes workload.
#[derive(Debug, Clone, Copy)]
pub struct Blackscholes {
    options: usize,
}

impl Blackscholes {
    /// Creates a pricing run over `options` European options.
    #[must_use]
    pub fn new(options: usize) -> Self {
        assert!(options > 0, "problem size must be positive");
        Self { options }
    }

    /// Number of options priced.
    #[must_use]
    pub fn options(&self) -> usize {
        self.options
    }
}

impl Default for Blackscholes {
    fn default() -> Self {
        Self::new(1024)
    }
}

/// Scalar golden model of the cumulative normal distribution approximation
/// used by the vector kernel.
fn cnd(d: f64) -> f64 {
    let k = 1.0 / (0.2316419f64.mul_add(d.abs(), 1.0));
    let poly = A5
        .mul_add(k, A4)
        .mul_add(k, A3)
        .mul_add(k, A2)
        .mul_add(k, A1)
        * k;
    let n = (-0.5 * d * d).exp() * INV_SQRT_2PI;
    let positive = 1.0 - n * poly;
    if d < 0.0 {
        n * poly
    } else {
        positive
    }
}

/// Scalar golden model of one option price (call, put).
fn reference(s: f64, k: f64, t: f64, sigma: f64) -> (f64, f64) {
    let sqrt_t = t.sqrt();
    let sig_sqrt_t = sigma * sqrt_t;
    let d1 = ((s / k).ln() + (0.5 * sigma * sigma + RATE) * t) / sig_sqrt_t;
    let d2 = d1 - sig_sqrt_t;
    let exp_rt = (t * -RATE).exp();
    let call = s * cnd(d1) - k * exp_rt * cnd(d2);
    let put = call - s + k * exp_rt;
    (call, put)
}

impl Workload for Blackscholes {
    fn name(&self) -> &'static str {
        "blackscholes"
    }

    fn elements(&self) -> usize {
        // The pricing formula evaluates two polynomial CNDs plus the
        // call/put assembly per option — by far the heaviest kernel of the
        // suite per element.
        self.options * 64
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        l.input("spot", self.options);
        l.input("strike", self.options);
        l.input("time", self.options);
        l.input("sigma", self.options);
        l.output("call", self.options);
        l.output("put", self.options);
        l
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let n = self.options;
        let mut gen = DataGen::for_workload(self.name());
        let spot = materialize_input(mem, plan, bindings, "spot", || {
            gen.positive_vec(n, 10.0, 150.0)
        });
        let strike = materialize_input(mem, plan, bindings, "strike", || {
            gen.positive_vec(n, 10.0, 150.0)
        });
        let time = materialize_input(mem, plan, bindings, "time", || {
            gen.positive_vec(n, 0.1, 4.0)
        });
        let sigma = materialize_input(mem, plan, bindings, "sigma", || {
            gen.positive_vec(n, 0.05, 0.7)
        });

        let a_spot = plan.addr("spot");
        let a_strike = plan.addr("strike");
        let a_time = plan.addr("time");
        let a_sigma = plan.addr("sigma");
        let a_call = plan.addr("call");
        let a_put = plan.addr("put");

        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("blackscholes");

        // vsetvlmax preamble: the coefficient splats below must fill whole
        // registers regardless of the VL a previously-run kernel left
        // behind (multi-kernel composites run phases back to back).
        b.set_vl(mvl);
        // Loop-invariant constants are splatted once and stay live for the
        // whole kernel, as the RiVEC sources do — this is where most of the
        // register pressure comes from.
        let c_a1 = b.vsplat(A1);
        let c_a2 = b.vsplat(A2);
        let c_a3 = b.vsplat(A3);
        let c_a4 = b.vsplat(A4);
        let c_a5 = b.vsplat(A5);
        let c_kc = b.vsplat(K_COEF);
        let c_inv = b.vsplat(INV_SQRT_2PI);
        let c_one = b.vsplat(1.0);
        let c_half = b.vsplat(0.5);
        let c_rate = b.vsplat(RATE);
        let c_negr = b.vsplat(-RATE);

        let cnd_vec = |b: &mut KernelBuilder, d: VirtReg| -> VirtReg {
            let absd = b.vfabs(d);
            let kden = b.vfmadd(absd, c_kc, c_one);
            let k = b.vfdiv(c_one, kden);
            let mut p = b.vfmadd(c_a5, k, c_a4);
            p = b.vfmadd(p, k, c_a3);
            p = b.vfmadd(p, k, c_a2);
            p = b.vfmadd(p, k, c_a1);
            p = b.vfmul(p, k);
            let dsq = b.vfmul(d, d);
            let earg = b.vfmul(dsq, -0.5);
            let e = b.vfexp(earg);
            let npdf = b.vfmul(e, c_inv);
            let m = b.vfmul(npdf, p);
            let pos = b.vfsub(c_one, m);
            let mask = b.vmflt(d, 0.0);
            b.vmerge(m, pos, mask)
        };

        let mut strips = 0u64;
        let mut i = 0usize;
        while i < n {
            let vl = mvl.min(n - i);
            b.set_vl(vl);
            let off = (8 * i) as u64;
            let vs = b.vload(a_spot + off);
            let vk = b.vload(a_strike + off);
            let vt = b.vload(a_time + off);
            let vv = b.vload(a_sigma + off);

            let sqrt_t = b.vfsqrt(vt);
            let sig_sqrt_t = b.vfmul(vv, sqrt_t);
            let ratio = b.vfdiv(vs, vk);
            let ln_sk = b.vfln(ratio);
            let sig2 = b.vfmul(vv, vv);
            let sig2h = b.vfmul(sig2, c_half);
            let rp = b.vfadd(sig2h, c_rate);
            let num = b.vfmadd(rp, vt, ln_sk);
            let d1 = b.vfdiv(num, sig_sqrt_t);
            let d2 = b.vfsub(d1, sig_sqrt_t);

            let cnd1 = cnd_vec(&mut b, d1);
            let cnd2 = cnd_vec(&mut b, d2);

            let neg_rt = b.vfmul(vt, c_negr);
            let exp_rt = b.vfexp(neg_rt);
            let k_exp_rt = b.vfmul(vk, exp_rt);
            let c1 = b.vfmul(vs, cnd1);
            let c2 = b.vfmul(k_exp_rt, cnd2);
            let call = b.vfsub(c1, c2);
            let p1 = b.vfsub(call, vs);
            let put = b.vfadd(p1, k_exp_rt);

            b.vstore(call, a_call + off);
            b.vstore(put, a_put + off);
            strips += 1;
            i += vl;
        }

        let mut checks = Vec::with_capacity(2 * n);
        let mut calls = Vec::with_capacity(n);
        let mut puts = Vec::with_capacity(n);
        for j in 0..n {
            let (call, put) = reference(spot[j], strike[j], time[j], sigma[j]);
            checks.push(Check {
                addr: a_call + (8 * j) as u64,
                expected: call,
                tolerance: 1e-9,
            });
            checks.push(Check {
                addr: a_put + (8 * j) as u64,
                expected: put,
                tolerance: 1e-9,
            });
            calls.push(call);
            puts.push(put);
        }

        WorkloadSetup {
            kernel: b.finish(),
            checks,
            strips,
            outputs: vec![
                OutputValues {
                    name: "call".to_string(),
                    base: a_call,
                    values: calls,
                },
                OutputValues {
                    name: "put".to_string(),
                    base: a_put,
                    values: puts,
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
    fn register_pressure_forces_grouped_spills_but_fits_ava_x2() {
        let mut mem = MemoryHierarchy::default();
        let setup = Blackscholes::new(128).build(&mut mem, &VectorContext::with_mvl(16));
        let p = setup.kernel.max_pressure();
        assert!(
            p > 16 && p <= 32,
            "blackscholes pressure should exceed the LMUL2 budget but fit 32 registers, got {p}"
        );
    }

    #[test]
    fn cnd_matches_known_values() {
        assert!((cnd(0.0) - 0.5).abs() < 1e-4);
        assert!((cnd(1.96) - 0.975).abs() < 1e-3);
        assert!((cnd(-1.96) - 0.025).abs() < 1e-3);
        assert!(cnd(5.0) > 0.999);
    }

    #[test]
    fn reference_prices_satisfy_no_arbitrage_bounds() {
        let (call, put) = reference(100.0, 100.0, 1.0, 0.2);
        assert!(call > 0.0 && call < 100.0);
        assert!(put > 0.0 && put < 100.0);
        // Put-call parity.
        let parity = call - put - 100.0 + 100.0 * (-RATE * 1.0f64).exp();
        assert!(parity.abs() < 1e-9);
    }

    #[test]
    fn arithmetic_dominates_the_instruction_mix() {
        let mut mem = MemoryHierarchy::default();
        let setup = Blackscholes::new(128).build(&mut mem, &VectorContext::with_mvl(16));
        let stats_mem = setup
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
        assert!(arith > 4 * stats_mem, "arith {arith} vs mem {stats_mem}");
    }

    #[test]
    fn checks_cover_calls_and_puts() {
        let mut mem = MemoryHierarchy::default();
        let setup = Blackscholes::new(64).build(&mut mem, &VectorContext::with_mvl(16));
        assert_eq!(setup.checks.len(), 128);
    }
}
