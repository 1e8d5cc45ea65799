//! Property-based tests over the whole stack: randomly generated vector
//! kernels must produce identical results no matter which register-file
//! organisation executes them, the register allocator must always respect
//! its budget, the cache hierarchy must never change functional values, and
//! the functional memory must agree with a plain byte-map model.
//!
//! The container has no access to crates.io, so instead of proptest these
//! tests drive a deterministic SplitMix64 case generator: every run explores
//! the same cases, and a failing case is reproducible from its index alone.

use ava::compiler::{compile, CompileOptions, KernelBuilder, VirtReg};
use ava::isa::Lmul;
use ava::memory::{MainMemory, MemoryHierarchy};
use ava::sim::ScenarioConfig;
use ava::vpu::Vpu;
use ava::workloads::data::DataGen;
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 24;

/// The deterministic stream for one case index (the workloads' SplitMix64
/// generator, seeded so every case explores a distinct sequence).
fn case_rng(case: u64) -> DataGen {
    DataGen::from_seed(0xDEAD_BEEF_CAFE_F00D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value in `[lo, hi]`.
fn in_range(rng: &mut DataGen, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// A tiny random straight-line kernel description: a sequence of operation
/// selectors over a pool of live values.
#[derive(Debug, Clone)]
struct RandomKernel {
    ops: Vec<u8>,
    vl: usize,
}

fn random_kernel(case: u64) -> RandomKernel {
    let mut rng = case_rng(case);
    let len = in_range(&mut rng, 4, 59) as usize;
    let ops = (0..len).map(|_| in_range(&mut rng, 0, 5) as u8).collect();
    let vl = in_range(&mut rng, 1, 16) as usize;
    RandomKernel { ops, vl }
}

/// Materialises the random kernel: allocates an input array, builds the IR
/// with the kernel builder, and returns (kernel, output addresses).
fn build_kernel(
    mem: &mut MemoryHierarchy,
    spec: &RandomKernel,
) -> (ava::compiler::IrKernel, Vec<u64>) {
    let n = 64usize;
    let input = mem.allocate((n * 8) as u64);
    for i in 0..n {
        mem.write_f64(input + 8 * i as u64, (i as f64) * 0.25 - 3.0);
    }
    let out_base = mem.allocate((spec.ops.len() * spec.vl * 8) as u64);

    let mut b = KernelBuilder::new("random");
    b.set_vl(spec.vl);
    let mut live: Vec<VirtReg> = Vec::new();
    live.push(b.vload(input));
    live.push(b.vload(input + 128));
    let mut outputs = Vec::new();
    for (i, op) in spec.ops.iter().enumerate() {
        let a = live[i % live.len()];
        let c = live[(i * 7 + 3) % live.len()];
        let v = match op {
            0 => b.vfadd(a, c),
            1 => b.vfmul(a, c),
            2 => b.vfsub(a, c),
            3 => b.vfmadd(a, c, a),
            4 => b.vfmax(a, c),
            _ => b.vload(input + (8 * ((i * 16) % (n - spec.vl))) as u64),
        };
        live.push(v);
        if live.len() > 24 {
            live.remove(0);
        }
        if i % 3 == 0 {
            let addr = out_base + (8 * i * spec.vl) as u64;
            b.vstore(v, addr);
            outputs.push(addr);
        }
    }
    // Always store the final value so every kernel has observable output.
    let last = *live.last().expect("at least one live value");
    let addr = out_base + (8 * spec.ops.len() * spec.vl) as u64;
    b.vstore(last, addr);
    outputs.push(addr);
    (b.finish(), outputs)
}

/// Runs the kernel on a configuration and returns the values at the output
/// addresses.
fn run_on(spec: &RandomKernel, scenario: &ScenarioConfig, lmul: Lmul) -> Vec<f64> {
    let sys = scenario.resolve();
    let mut mem = MemoryHierarchy::default();
    let (kernel, outputs) = build_kernel(&mut mem, spec);
    let spill_base = mem.allocate(64 * 1024);
    let compiled = compile(
        &kernel,
        &CompileOptions::new(lmul, spill_base, (sys.mvl() * 8) as u64),
    );
    let mut vpu = Vpu::new(sys.vpu.clone(), &mut mem);
    let _ = vpu.run(&compiled.program, &mut mem);
    outputs
        .iter()
        .flat_map(|&addr| (0..spec.vl).map(move |i| addr + 8 * i as u64))
        .map(|a| mem.read_f64(a))
        .collect()
}

/// The same program produces bit-identical results on the conventional
/// long-vector design, on AVA with its tiny 8-register P-VRF (heavy swap
/// traffic), and on the register-grouped baseline (heavy spill traffic).
#[test]
fn results_are_identical_across_organisations() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let reference = run_on(&spec, &ScenarioConfig::native_x(8), Lmul::M1);
        let ava = run_on(&spec, &ScenarioConfig::ava_x(8), Lmul::M1);
        let rg = run_on(&spec, &ScenarioConfig::rg_lmul(Lmul::M8), Lmul::M8);
        assert_eq!(
            reference, ava,
            "case {case}: AVA X8 diverged from NATIVE X8"
        );
        assert_eq!(
            reference, rg,
            "case {case}: RG-LMUL8 diverged from NATIVE X8"
        );
    }
}

/// The register allocator never exceeds the architectural budget and
/// never loses a value, for any grouping factor.
#[test]
fn register_allocation_respects_every_budget() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        for lmul in Lmul::all() {
            let compiled = compile(&kernel, &CompileOptions::new(lmul, 0x100_0000, 1024));
            assert!(
                compiled.registers_used <= lmul.architectural_registers(),
                "case {case}"
            );
            for reg in compiled.program.used_registers() {
                assert_eq!(
                    reg.index() % lmul.factor(),
                    0,
                    "case {case}: register {reg} is not a group base"
                );
            }
            assert!(compiled.spill_loads >= compiled.spill_stores, "case {case}");
        }
    }
}

/// Cache warm-up and timing queries never alter functional memory.
#[test]
fn timing_accesses_never_corrupt_functional_state() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = in_range(&mut rng, 1, 63) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let stride = in_range(&mut rng, 1, 63);

        let mut mem = MemoryHierarchy::default();
        let base = mem.allocate((values.len() * 8) as u64);
        for (i, v) in values.iter().enumerate() {
            mem.write_f64(base + 8 * i as u64, *v);
        }
        // Timing-side activity.
        mem.warm_caches();
        let _ = mem.vector_access(base, (values.len() * 8) as u64, false);
        let addrs: Vec<u64> = (0..values.len() as u64)
            .map(|i| base + i * 8 * stride % 4096)
            .collect();
        let _ = mem.vector_access_elements(&addrs, true);
        let _ = mem.scalar_access(base, true);
        mem.flush_caches();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                mem.read_f64(base + 8 * i as u64),
                *v,
                "case {case}, value {i}"
            );
        }
    }
}

/// The functional memory's storage page (words straddling it take the
/// memory's byte path).
const PAGE: u64 = 4096;

/// The little-endian word the byte model holds at `addr` (absent bytes
/// read as zero).
fn model_u64(model: &BTreeMap<u64, u8>, addr: u64) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = model.get(&(addr + i as u64)).copied().unwrap_or(0);
    }
    u64::from_le_bytes(bytes)
}

/// Stores `value` little-endian at `addr` in the byte model.
fn model_write_u64(model: &mut BTreeMap<u64, u8>, addr: u64, value: u64) {
    for (i, b) in value.to_le_bytes().into_iter().enumerate() {
        model.insert(addr + i as u64, b);
    }
}

/// Checks every byte the model holds, and the word starting at it, against
/// `mem`, and that `mem` materialised exactly the pages the model wrote.
fn assert_memory_matches(mem: &MainMemory, model: &BTreeMap<u64, u8>, what: &str) {
    for (&addr, &byte) in model {
        assert_eq!(mem.read_u8(addr), byte, "{what}: byte at {addr:#x}");
        assert_eq!(
            mem.read_u64(addr),
            model_u64(model, addr),
            "{what}: word at {addr:#x}"
        );
    }
    let pages: BTreeSet<u64> = model.keys().map(|a| a / PAGE).collect();
    assert_eq!(mem.touched_pages(), pages.len(), "{what}: written pages");
}

/// Differential test of the functional memory against a `BTreeMap` byte
/// model. Each case mixes byte, word and `f64` accesses, aligned and not,
/// over: the allocated buffers, words straddling a page boundary, stores
/// above `allocated_range().1` (a VPU store past a clamped vector length
/// does this), pages never written, and addresses above the highest page.
/// Halfway through, a clone is taken; later writes to the original must
/// not reach it.
#[test]
fn main_memory_matches_a_byte_model() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let mut mem = MainMemory::new();
        let mut model = BTreeMap::new();
        let base = mem.alloc(in_range(&mut rng, 1, 4) * PAGE + in_range(&mut rng, 0, 63));
        let _ = mem.alloc(in_range(&mut rng, 1, 512));
        let (_, end) = mem.allocated_range();
        let mut snapshot = None;

        for step in 0..512u64 {
            if step == 256 {
                snapshot = Some((mem.clone(), model.clone()));
            }
            let highest = model.keys().next_back().copied().unwrap_or(end);
            let addr = match in_range(&mut rng, 0, 6) {
                // Anywhere in the allocations, any alignment.
                0 => in_range(&mut rng, base, end - 8),
                // Aligned words in the allocations.
                1 => base + 8 * in_range(&mut rng, 0, (end - base) / 8 - 1),
                // A word straddling a page boundary inside the allocations.
                2 => {
                    let page = in_range(&mut rng, base / PAGE + 1, (end - 1) / PAGE);
                    page * PAGE - in_range(&mut rng, 1, 7)
                }
                // Above the allocator's cursor.
                3 => end + in_range(&mut rng, 0, 3 * PAGE),
                // Above the highest byte ever written.
                4 => highest + in_range(&mut rng, 1, 64 * PAGE),
                // Below the first allocation (the null page included).
                5 => in_range(&mut rng, 0, base - 8),
                // A straddling word on an arbitrary, likely unwritten page.
                _ => in_range(&mut rng, 1, 256) * PAGE - in_range(&mut rng, 1, 7),
            };
            let what = format!("case {case}, step {step}, addr {addr:#x}");
            match in_range(&mut rng, 0, 5) {
                0 => {
                    let v = rng.next_u64() as u8;
                    mem.write_u8(addr, v);
                    model.insert(addr, v);
                }
                1 => {
                    let v = rng.next_u64();
                    mem.write_u64(addr, v);
                    model_write_u64(&mut model, addr, v);
                }
                2 => {
                    let v = rng.uniform(-1e6, 1e6);
                    mem.write_f64(addr, v);
                    model_write_u64(&mut model, addr, v.to_bits());
                }
                3 => {
                    let expected = model.get(&addr).copied().unwrap_or(0);
                    assert_eq!(mem.read_u8(addr), expected, "{what}");
                }
                4 => assert_eq!(mem.read_u64(addr), model_u64(&model, addr), "{what}"),
                _ => assert_eq!(
                    mem.read_f64(addr).to_bits(),
                    model_u64(&model, addr),
                    "{what}"
                ),
            }
        }

        assert_memory_matches(&mem, &model, &format!("case {case}"));
        let (clone, clone_model) = snapshot.expect("a clone was taken");
        assert_memory_matches(&clone, &clone_model, &format!("case {case}, clone"));
        // Bytes the original wrote after the clone read as the clone's
        // model says (zero where the clone never wrote).
        for &addr in model.keys() {
            let expected = clone_model.get(&addr).copied().unwrap_or(0);
            assert_eq!(
                clone.read_u8(addr),
                expected,
                "case {case}, clone at {addr:#x}"
            );
        }
    }
}

/// The VPU never deadlocks and always reports monotonically consistent
/// statistics for arbitrary kernels on the smallest register file.
#[test]
fn tiny_register_files_never_deadlock() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let sys = ScenarioConfig::ava_x(8);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        let spill_base = mem.allocate(64 * 1024);
        let compiled = compile(&kernel, &CompileOptions::new(Lmul::M1, spill_base, 1024));
        let mut vpu = Vpu::new(sys.vpu_config(), &mut mem);
        let result = vpu.run(&compiled.program, &mut mem);
        assert!(result.cycles > 0, "case {case}");
        // Everything the program contains (minus vsetvl) must have been
        // issued, plus whatever swap traffic the hardware added.
        let program_issue = compiled.program.len() as u64 - result.stats.config_instrs;
        assert!(result.stats.issued_instrs() >= program_issue, "case {case}");
        assert_eq!(
            result.stats.issued_instrs() - result.stats.swap_ops(),
            program_issue,
            "case {case}"
        );
    }
}

/// Table I and its extrapolation: at a fixed P-VRF capacity the physical
/// register count is monotonically non-increasing in the MVL, and the
/// resolved AVA MVL axis never drops below the X8 register floor.
#[test]
fn preg_count_is_monotonic_and_the_mvl_axis_holds_the_floor() {
    use ava::sim::{ScenarioConfig, AVA_EXTRAPOLATION_PREG_FLOOR};
    use ava::vpu::preg_count_for_mvl;

    for pvrf in [8 * 1024usize, 16 * 1024, 64 * 1024] {
        let mut prev = usize::MAX;
        for mvl in (16..=512).step_by(16) {
            let pregs = preg_count_for_mvl(pvrf, mvl);
            assert!(
                pregs <= prev,
                "pvrf={pvrf}: preg count rose from {prev} to {pregs} at MVL={mvl}"
            );
            prev = pregs;
        }
    }
    // The resolved extrapolation axis: Table I exact up to 128, the X8
    // floor (with a minimally grown P-VRF) beyond it.
    for scenario in ScenarioConfig::axis_mvl(&[16, 64, 128, 192, 256, 384, 512]) {
        let vpu = scenario.vpu_config();
        assert!(
            vpu.physical_regs() >= AVA_EXTRAPOLATION_PREG_FLOOR,
            "{}: only {} physical registers",
            scenario.label(),
            vpu.physical_regs()
        );
        assert_eq!(
            vpu.physical_regs(),
            preg_count_for_mvl(vpu.pvrf_bytes, vpu.mvl),
            "{}: the Table I sizing function must stay the single source",
            scenario.label()
        );
        if vpu.mvl <= 128 {
            assert_eq!(vpu.pvrf_bytes, 8 * 1024, "{}", scenario.label());
        }
    }
}
