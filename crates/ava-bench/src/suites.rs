//! The wall-clock benchmark suites measuring the *simulator itself*.
//!
//! Each suite used to live in its own `benches/*.rs` target; the bodies
//! moved here so the same measurements can run two ways:
//!
//! * `cargo bench` — each thin bench target calls [`run_suite`] with a
//!   printing callback, preserving the familiar incremental output;
//! * `cargo run --bin bench_baseline` — the recorder runs every suite and
//!   persists the results as `BENCH_<suite>.json`, the files the CI
//!   `bench-regression` job diffs against the committed baselines.

use ava_compiler::analysis::{analyze, AnalysisInput};
use ava_compiler::{compile, CompileOptions, KernelBuilder};
use ava_isa::{Element, Lmul, Opcode, VReg, VectorContext};
use ava_memory::{HierarchyConfig, MainMemory, MemoryHierarchy};
use ava_sim::{run_workload, ScenarioConfig};
use ava_vpu::exec::{execute_into, OperandValue};
use ava_vpu::rac::Rac;
use ava_vpu::rename::RenameUnit;
use ava_vpu::swap::{plan_free_register, SwapDecision};
use ava_vpu::vrf_mapping::VrfMapping;
use ava_workloads::{ArenaPlanner, BufferBindings};

use crate::bench_workloads;
use crate::microbench::{measure, BenchResult};

/// Names of every benchmark suite, in the order the recorder runs them.
pub const SUITE_NAMES: [&str; 5] = [
    "fig3_kernels",
    "fig4_area",
    "memory_hierarchy",
    "microarch",
    "analysis",
];

/// Runs the named suite, invoking `report` after each benchmark completes
/// (so long suites still show incremental progress) and returning all
/// results.
///
/// # Panics
///
/// Panics if `name` is not one of [`SUITE_NAMES`], or if a benchmarked
/// simulation fails validation (which would make its timing meaningless).
pub fn run_suite(name: &str, mut report: impl FnMut(&BenchResult)) -> Vec<BenchResult> {
    let mut results = Vec::new();
    {
        let mut run = |bench_name: &str, f: &mut dyn FnMut() -> u64| {
            let r = measure(bench_name, f);
            report(&r);
            results.push(r);
        };
        match name {
            "fig3_kernels" => fig3_kernels(&mut run),
            "fig4_area" => fig4_area(&mut run),
            "memory_hierarchy" => memory_hierarchy(&mut run),
            "microarch" => microarch(&mut run),
            "analysis" => analysis(&mut run),
            other => panic!("unknown bench suite {other:?} (expected one of {SUITE_NAMES:?})"),
        }
    }
    results
}

type Runner<'a> = dyn FnMut(&str, &mut dyn FnMut() -> u64) + 'a;

/// End-to-end simulation of each application on the key configurations
/// (NATIVE X1, NATIVE X8, AVA X8, RG-LMUL8). Each benchmark measures the
/// wall-clock cost of one full compile + simulate + validate pass of the
/// reproduction pipeline; the *simulated* cycle numbers behind Figure 3 are
/// printed by the `fig3` binary.
fn fig3_kernels(run: &mut Runner<'_>) {
    let systems = [
        ScenarioConfig::native_x(1),
        ScenarioConfig::native_x(8),
        ScenarioConfig::ava_x(8),
        ScenarioConfig::rg_lmul(Lmul::M8),
    ];
    for workload in bench_workloads() {
        for sys in &systems {
            run(
                &format!("fig3/{}/{}", workload.name(), sys.label()),
                &mut || {
                    let report = run_workload(workload.as_ref(), sys);
                    assert!(report.validated, "{:?}", report.validation_error);
                    report.cycles
                },
            );
        }
    }
}

/// The McPAT-style area and energy evaluation and the analytical post-PnR
/// estimator behind Figure 4 and Table V.
fn fig4_area(run: &mut Runner<'_>) {
    use ava_energy::{energy_breakdown, pnr_estimate, system_area, EnergyParams};
    use ava_workloads::Axpy;

    let params = EnergyParams::default();
    let sys = ScenarioConfig::ava_x(8);
    let vpu = sys.vpu_config();
    let report = run_workload(&Axpy::new(1024), &sys);

    run("fig4/system_area", &mut || {
        system_area(&vpu).total().to_bits()
    });
    run("fig4/energy_breakdown", &mut || {
        energy_breakdown(&report, &vpu, &params).total().to_bits()
    });
    run("table5/pnr_estimate", &mut || {
        pnr_estimate(&vpu).area_mm2.to_bits()
    });
}

/// Unit-stride and gather vector accesses (the gather's elements 512
/// bytes apart; its name keeps the baseline key) through the L2/DRAM
/// timing model, the per-point L2 warm-up, a unit-stride stream whose every line
/// misses into a full L2 set, the scalar L1 hit path, and word reads
/// and writes of the functional memory, one word at a time and as page runs
/// (the data path of every vector element, swap and spill).
fn memory_hierarchy(run: &mut Runner<'_>) {
    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
    let base = mem.allocate(128 * 8);
    run("memory/unit_stride_128_elems", &mut || {
        mem.vector_access(base, 128 * 8, false).total_cycles
    });

    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
    let base = mem.allocate(128 * 512);
    let addrs: Vec<u64> = (0..128u64).map(|i| base + i * 512).collect();
    run("memory/strided_128_elems", &mut || {
        mem.vector_access_elements(&addrs, false).total_cycles
    });

    // A simulated point's warm-up: a fresh hierarchy with the largest L2 of
    // the sensitivity manifests, warmed over a 1 MiB working set.
    let mut config = HierarchyConfig::default();
    config.l2.size_bytes = 4 << 20;
    run("memory/warm_1mib_into_4mib_l2", &mut || {
        let mut mem = MemoryHierarchy::new(config);
        mem.warm_caches_ranges(&[(0, 1 << 20)]);
        mem.vector_access(0, 64, false).l2_hits
    });

    // The miss path into full sets: unit-stride 1 KiB requests cycling
    // through 4x the capacity of a 256 KiB L2, so under LRU every line
    // misses and evicts. One pass before measuring fills every set.
    let mut config = HierarchyConfig::default();
    config.l2.size_bytes = 256 << 10;
    let mut mem = MemoryHierarchy::new(config);
    let span = 4 * config.l2.size_bytes as u64;
    let base = mem.allocate(span);
    mem.warm_caches_ranges(&[(base, base + span)]);
    let mut offset = 0;
    run("memory/stream_evicting_256kib_l2", &mut || {
        let misses = mem.vector_access(base + offset, 128 * 8, false).l2_misses;
        offset = (offset + 128 * 8) % span;
        misses
    });

    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
    let base = mem.allocate(64);
    mem.scalar_access(base, false);
    run("memory/scalar_l1_hit", &mut || {
        mem.scalar_access(base, false)
    });

    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());
    let base = mem.allocate(128 * 8);
    run("memory/functional_rw_128_words", &mut || {
        for i in 0..128u64 {
            mem.write_u64(base + 8 * i, i);
        }
        (0..128u64).fold(0, |acc, i| acc ^ mem.read_u64(base + 8 * i))
    });

    // The page-run path of the functional pass's unit-stride loads and
    // stores: one MVL-512 register written and read back, crossing a page
    // boundary.
    let mut mem = MainMemory::new();
    let _ = mem.alloc(64);
    let base = mem.alloc(512 * 8);
    run("memory/functional_word_run_512", &mut || {
        mem.write_words(base, (0..512u32).map(u64::from));
        let mut acc = 0;
        mem.read_words(base, 512, |w| acc ^= w);
        acc
    });
}

/// The renaming unit, the Register Access Counters, the Swap Logic victim
/// selection (the policy the VPU runs, timing tie-breaks included), the
/// register allocator that produces spill code and the whole compile of
/// the largest Figure 3 kernel — the structures the paper adds to the VPU
/// and the tool-chain stage behind its spill counts, so their cost in the
/// simulator is tracked explicitly.
fn microarch(run: &mut Runner<'_>) {
    run("microarch/rename_chain", &mut || {
        let mut unit = RenameUnit::new(64);
        let mut released = Vec::new();
        for i in 0..1000u32 {
            let dst = VReg::new((i % 32) as u8);
            let renamed = unit.rename(Some(dst), &[]).unwrap();
            if let Some(old) = renamed.old_dst {
                released.push(old);
                if released.len() > 16 {
                    unit.release(released.remove(0));
                }
            }
        }
        unit.free_count() as u64
    });

    let mut mapping = VrfMapping::new(64, 8);
    let mut rac = Rac::new(64);
    for v in 0..8u16 {
        mapping.allocate_physical(v).unwrap();
        for _ in 0..=v {
            rac.increment(v);
        }
    }
    let value_ready: Vec<u64> = (0..64).map(|v| 100 - v).collect();
    let readers_done = [50u64; 8];
    run(
        "microarch/swap_victim_selection",
        &mut || match plan_free_register(&mapping, &rac, &[0, 1], &value_ready, &readers_done) {
            None => 0,
            Some(SwapDecision::AlreadyFree) => 1,
            Some(SwapDecision::Reclaim(_)) => 2,
            Some(SwapDecision::SwapStore(_)) => 3,
        },
    );

    // A kernel with 24 simultaneously-live values allocated onto the
    // 4-register LMUL=8 budget: the worst spill case of the evaluation.
    let mut builder = KernelBuilder::new("pressure");
    let vals: Vec<_> = (0..24).map(|i| builder.vload(64 * i as u64)).collect();
    let mut acc = vals[0];
    for &v in &vals[1..] {
        acc = builder.vfadd(acc, v);
    }
    builder.vstore(acc, 0x10_0000);
    let kernel = builder.finish();
    run("microarch/regalloc_spilling", &mut || {
        let out = compile(&kernel, &CompileOptions::new(Lmul::M8, 0x40_0000, 1024));
        assert!(out.spill_stores > 0);
        out.program.len() as u64
    });

    // Compiling Figure 3's largest kernel: lavamd2 at its manifest size and
    // MVL 16 (8 256 IR instructions), allocated onto 32 registers and
    // lowered to a program. The kernel is built outside the timed body, as
    // the sweep's prepare step builds it once before compiling.
    let workload = ava_workloads::build_kernel("lavamd2", Some(48), Some(2))
        .expect("the registry builds lavamd2 at Figure 3's size");
    let mut mem = MemoryHierarchy::default();
    let ctx = VectorContext::with_mvl(16);
    let plan = ArenaPlanner::new().plan(&mut mem, &workload.data_layout());
    let setup = workload.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none());
    assert_eq!(setup.kernel.len(), 8256);
    let options = CompileOptions::new(Lmul::M1, mem.allocate(64 * 16 * 8), 16 * 8);
    run("microarch/compile_lavamd2_mvl16", &mut || {
        compile(&setup.kernel, &options).program.len() as u64
    });

    // Functional execution into a caller-owned strip buffer, the pattern
    // the once-per-key functional pass (`FunctionalState`) uses so
    // steady-state strips never reallocate; the VPU only times.
    let a: Vec<Element> = (0..256).map(|i| Element::from_f64(i as f64)).collect();
    let b: Vec<Element> = (0..256)
        .map(|i| Element::from_f64(2.5 * i as f64))
        .collect();
    let c: Vec<Element> = (0..256)
        .map(|i| Element::from_f64(0.5 * i as f64))
        .collect();
    let mut strip = Vec::new();
    run("microarch/exec_strip_reuse", &mut || {
        let mut bits = 0u64;
        for _ in 0..64 {
            execute_into(
                Opcode::VFMacc,
                &[
                    OperandValue::Vector(&a),
                    OperandValue::Vector(&b),
                    OperandValue::Vector(&c),
                ],
                256,
                &mut strip,
            );
            bits ^= strip[255].bits();
        }
        bits
    });
}

/// The static analysis a composite runs on itself when it is constructed:
/// the full `analyze` suite over the sensitivity pool's `composite`
/// (n = 16384, about 26 000 IR instructions) at the lint's MVL 16. The
/// kernel is built once outside the timed body, as `Workload::verify`
/// builds it, so only the analysis is measured. A memory pass that scans
/// every pending store per access costs about 5x this.
fn analysis(run: &mut Runner<'_>) {
    let workload = ava_workloads::build_kernel("composite", None, None)
        .expect("the registry builds its default composite");
    let mut mem = MemoryHierarchy::default();
    let ctx = VectorContext::with_mvl(16);
    let plan = ArenaPlanner::new().plan(&mut mem, &workload.data_layout());
    let setup = workload.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none());
    let input = AnalysisInput::new(Some(ctx.effective_mvl()))
        .with_arenas(workload.analysis_arenas(&plan))
        .with_phase_ends(setup.phase_marks.iter().map(|m| m.ir_end).collect());
    run("analysis/composite_lint", &mut || {
        analyze(&setup.kernel, &input).diagnostics.len() as u64
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "unknown bench suite")]
    fn unknown_suites_are_rejected() {
        let _ = run_suite("nonsense", |_| {});
    }

    #[test]
    fn suite_names_are_distinct() {
        let mut names = SUITE_NAMES.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SUITE_NAMES.len());
    }
}
