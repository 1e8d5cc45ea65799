//! LavaMD2: particle interactions within a cut-off radius (molecular
//! dynamics, N-body).
//!
//! The defining property for this study is the *fixed application vector
//! length of 48 elements* — one vector operation per neighbour box — which
//! makes MVL=48 (AVA X3 / NATIVE X3) the sweet spot: larger configurations
//! leave part of every register unused, and their full-MVL spill code moves
//! 128 elements even though only 48 carry data (§V, Figure 3-c).

use ava_compiler::KernelBuilder;
use ava_isa::VectorContext;
use ava_memory::MemoryHierarchy;

use crate::data::DataGen;
use crate::layout::{materialize_input, BufferBindings, DataLayout, PlannedLayout};
use crate::{Check, OutputValues, Workload, WorkloadSetup};

/// Particles per box in the LavaMD decomposition (the paper's fixed VL).
pub const PARTICLES_PER_BOX: usize = 48;

/// The LavaMD2 workload.
#[derive(Debug, Clone, Copy)]
pub struct LavaMd2 {
    /// Number of home-box particles processed.
    particles: usize,
    /// Neighbour boxes interacting with each particle.
    neighbors: usize,
    /// Interaction scale (alpha squared in the original kernel).
    alpha2: f64,
}

impl LavaMd2 {
    /// Creates a LavaMD2 run over `particles` home particles, each
    /// interacting with `neighbors` boxes of 48 particles.
    #[must_use]
    pub fn new(particles: usize, neighbors: usize) -> Self {
        assert!(
            particles > 0 && neighbors > 0,
            "problem size must be positive"
        );
        Self {
            particles,
            neighbors,
            alpha2: 0.5,
        }
    }
}

impl Default for LavaMd2 {
    fn default() -> Self {
        Self::new(32, 2)
    }
}

/// One neighbour box worth of particle data.
struct Box3 {
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
}

impl Workload for LavaMd2 {
    fn name(&self) -> &'static str {
        "lavamd2"
    }

    fn elements(&self) -> usize {
        // Each home particle interacts with every 48-particle neighbour box
        // (~a dozen operations per pair).
        self.particles * self.neighbors * PARTICLES_PER_BOX * 12
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        for b in 0..self.neighbors {
            for field in ["x", "y", "z", "q"] {
                l.input(format!("box{b}.{field}"), PARTICLES_PER_BOX);
            }
        }
        l.output("fx", self.particles);
        l.output("fy", self.particles);
        l.output("fz", self.particles);
        l.output("e", self.particles);
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
        let vl = PARTICLES_PER_BOX;

        // Neighbour boxes (shared by every home particle, as in the original
        // kernel where each home box has a fixed neighbour list).
        let boxes: Vec<Box3> = (0..self.neighbors)
            .map(|b| {
                let mut field = |f: &str, lo: f64, hi: f64| {
                    materialize_input(mem, plan, bindings, &format!("box{b}.{f}"), || {
                        gen.uniform_vec(vl, lo, hi)
                    })
                };
                Box3 {
                    x: field("x", 0.0, 4.0),
                    y: field("y", 0.0, 4.0),
                    z: field("z", 0.0, 4.0),
                    q: field("q", 0.1, 1.0),
                }
            })
            .collect();
        let box_addrs: Vec<[u64; 4]> = (0..self.neighbors)
            .map(|b| {
                [
                    plan.addr(&format!("box{b}.x")),
                    plan.addr(&format!("box{b}.y")),
                    plan.addr(&format!("box{b}.z")),
                    plan.addr(&format!("box{b}.q")),
                ]
            })
            .collect();

        // Home particles (kept in scalar registers by the kernel, so they
        // are not declared buffers).
        let px = gen.uniform_vec(self.particles, 0.0, 4.0);
        let py = gen.uniform_vec(self.particles, 0.0, 4.0);
        let pz = gen.uniform_vec(self.particles, 0.0, 4.0);
        let out_fx = plan.addr("fx");
        let out_fy = plan.addr("fy");
        let out_fz = plan.addr("fz");
        let out_e = plan.addr("e");

        // The application vector length is fixed at 48 elements per neighbour
        // box; machines with a shorter effective MVL stripmine it, machines
        // with a longer MVL leave part of every register unused (which is
        // exactly why MVL=48 is this kernel's sweet spot, §V).
        let hw_mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("lavamd2");
        let mut strips = 0u64;

        for (i, (&xi, (&yi, &zi))) in px.iter().zip(py.iter().zip(pz.iter())).enumerate() {
            // Per-particle accumulators; only lane 0 carries the running sum
            // (per-strip reductions are added into it).
            b.set_vl(hw_mvl.min(vl));
            let mut acc_fx = b.vsplat(0.0);
            let mut acc_fy = b.vsplat(0.0);
            let mut acc_fz = b.vsplat(0.0);
            let mut acc_e = b.vsplat(0.0);
            for addrs in &box_addrs {
                let mut off = 0usize;
                while off < vl {
                    let strip_vl = hw_mvl.min(vl - off);
                    b.set_vl(strip_vl);
                    let byte_off = (8 * off) as u64;
                    let rx = b.vload(addrs[0] + byte_off);
                    let ry = b.vload(addrs[1] + byte_off);
                    let rz = b.vload(addrs[2] + byte_off);
                    let q = b.vload(addrs[3] + byte_off);
                    let dx = b.vfsub(rx, xi);
                    let dy = b.vfsub(ry, yi);
                    let dz = b.vfsub(rz, zi);
                    let mut r2 = b.vfmul(dx, dx);
                    r2 = b.vfmadd(dy, dy, r2);
                    r2 = b.vfmadd(dz, dz, r2);
                    let u2 = b.vfmul(r2, -self.alpha2);
                    let vij = b.vfexp(u2);
                    let fs = b.vfmul(vij, 2.0);
                    let qfs = b.vfmul(q, fs);
                    let tx = b.vfmul(qfs, dx);
                    let ty = b.vfmul(qfs, dy);
                    let tz = b.vfmul(qfs, dz);
                    let te = b.vfmul(q, vij);
                    let sx = b.vfredsum(tx);
                    let sy = b.vfredsum(ty);
                    let sz = b.vfredsum(tz);
                    let se = b.vfredsum(te);
                    acc_fx = b.vfadd(acc_fx, sx);
                    acc_fy = b.vfadd(acc_fy, sy);
                    acc_fz = b.vfadd(acc_fz, sz);
                    acc_e = b.vfadd(acc_e, se);
                    strips += 1;
                    off += strip_vl;
                }
            }
            b.set_vl(1);
            b.vstore(acc_fx, out_fx + (8 * i) as u64);
            b.vstore(acc_fy, out_fy + (8 * i) as u64);
            b.vstore(acc_fz, out_fz + (8 * i) as u64);
            b.vstore(acc_e, out_e + (8 * i) as u64);
        }

        // Scalar golden reference, mirroring the stripmined accumulation
        // order of the vector kernel.
        let mut checks = Vec::with_capacity(4 * self.particles);
        let mut out_values: [Vec<f64>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for i in 0..self.particles {
            let (mut fx, mut fy, mut fz, mut en) = (0.0f64, 0.0, 0.0, 0.0);
            for bx in &boxes {
                let mut off = 0usize;
                while off < vl {
                    let strip_vl = hw_mvl.min(vl - off);
                    let (mut sx, mut sy, mut sz, mut se) = (0.0f64, 0.0, 0.0, 0.0);
                    for j in off..off + strip_vl {
                        let dx = bx.x[j] - px[i];
                        let dy = bx.y[j] - py[i];
                        let dz = bx.z[j] - pz[i];
                        let r2 = dy.mul_add(dy, dx * dx);
                        let r2 = dz.mul_add(dz, r2);
                        let vij = (r2 * -self.alpha2).exp();
                        let qfs = bx.q[j] * (vij * 2.0);
                        sx += qfs * dx;
                        sy += qfs * dy;
                        sz += qfs * dz;
                        se += bx.q[j] * vij;
                    }
                    fx += sx;
                    fy += sy;
                    fz += sz;
                    en += se;
                    off += strip_vl;
                }
            }
            for (slot, (addr, val)) in [(out_fx, fx), (out_fy, fy), (out_fz, fz), (out_e, en)]
                .into_iter()
                .enumerate()
            {
                checks.push(Check {
                    addr: addr + (8 * i) as u64,
                    expected: val,
                    tolerance: 1e-9,
                });
                out_values[slot].push(val);
            }
        }
        let [fxs, fys, fzs, ens] = out_values;

        WorkloadSetup {
            kernel: b.finish(),
            checks,
            strips,
            outputs: vec![
                OutputValues {
                    name: "fx".to_string(),
                    base: out_fx,
                    values: fxs,
                },
                OutputValues {
                    name: "fy".to_string(),
                    base: out_fy,
                    values: fys,
                },
                OutputValues {
                    name: "fz".to_string(),
                    base: out_fz,
                    values: fzs,
                },
                OutputValues {
                    name: "e".to_string(),
                    base: out_e,
                    values: ens,
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
    fn pressure_fits_lmul2_but_not_lmul4() {
        let mut mem = MemoryHierarchy::default();
        let setup = LavaMd2::new(4, 2).build(&mut mem, &VectorContext::with_mvl(48));
        let p = setup.kernel.max_pressure();
        assert!(
            p > 8 && p <= 16,
            "lavamd pressure should exceed the LMUL4 budget but fit LMUL2, got {p}"
        );
    }

    #[test]
    fn vector_length_is_fixed_at_48_on_long_machines() {
        let mut mem = MemoryHierarchy::default();
        let setup = LavaMd2::new(2, 1).build(&mut mem, &VectorContext::with_mvl(128));
        let setvls: Vec<usize> = setup
            .kernel
            .instrs
            .iter()
            .filter_map(|i| i.setvl_request)
            .collect();
        assert!(setvls.contains(&48), "application VL is 48: {setvls:?}");
        assert!(!setvls.iter().any(|&v| v > 48));
        assert_eq!(setup.strips, 2, "one strip per neighbour box at MVL >= 48");
    }

    #[test]
    fn short_machines_stripmine_the_48_element_loop() {
        let mut mem = MemoryHierarchy::default();
        let setup = LavaMd2::new(2, 1).build(&mut mem, &VectorContext::with_mvl(16));
        let max_vl = setup
            .kernel
            .instrs
            .iter()
            .filter_map(|i| i.setvl_request)
            .max()
            .unwrap();
        assert_eq!(max_vl, 16);
        assert_eq!(
            setup.strips,
            2 * 3,
            "three 16-element strips per 48-element box"
        );
    }

    #[test]
    fn checks_cover_every_force_component() {
        let mut mem = MemoryHierarchy::default();
        let setup = LavaMd2::new(5, 2).build(&mut mem, &VectorContext::with_mvl(48));
        assert_eq!(setup.checks.len(), 20);
        assert_eq!(setup.strips, 10);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_neighbors_is_rejected() {
        let _ = LavaMd2::new(4, 0);
    }
}
