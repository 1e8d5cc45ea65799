//! The sweep compiles each prepare key exactly once, in the one claim that
//! holds the key, so its counters do not depend on how the workers
//! interleave: a parallel sweep reports the same hits and misses as a
//! serial one, run after run. Each compile reports the register pressure
//! of its source IR, and the registry's compiled programs together emit
//! every opcode of the ISA.

use std::collections::HashSet;
use std::sync::Arc;

use ava::compiler::{compile, CompileOptions};
use ava::isa::{Lmul, Opcode, VectorContext};
use ava::memory::MemoryHierarchy;
use ava::sim::{ScenarioConfig, Sweep};
use ava::workloads::{
    Axpy, Blackscholes, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions,
};
use ava_bench::evaluated_systems;
use ava_bench::spec::{ExperimentSpec, MixRegistry, WorkloadSpec};

/// The Figure 3 grid shape — six kernels on the fourteen evaluated
/// systems, 84 points — at test-speed problem sizes.
fn fig3_sized_grid() -> Sweep {
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(512)),
        Arc::new(Blackscholes::new(128)),
        Arc::new(LavaMd2::new(16, 2)),
        Arc::new(ParticleFilter::new(256, 32)),
        Arc::new(Somier::new(512)),
        Arc::new(Swaptions::new(128)),
    ];
    Sweep::grid(workloads, evaluated_systems())
}

#[test]
fn parallel_sweeps_report_the_serial_compile_counters_every_time() {
    let sweep = fig3_sized_grid();
    assert_eq!(sweep.len(), 84);
    let serial = sweep.runner().threads(1).run();
    assert_eq!(serial.cache_hits + serial.cache_misses, 84);
    // NATIVE Xn, AVA Xn and RG-LMUL1 share one (kernel, LMUL, MVL) key, so
    // 14 configurations need only 8 compilations per workload.
    assert_eq!(serial.cache_misses, 6 * 8);
    for run in 0..5 {
        let parallel = sweep.runner().threads(2).run();
        assert_eq!(
            (parallel.cache_hits, parallel.cache_misses),
            (serial.cache_hits, serial.cache_misses),
            "run {run}: two workers racing on one key must compile it once"
        );
        assert_eq!(parallel.compiles, parallel.cache_misses);
    }
}

/// The compiler reports the register pressure of the liveness pass its
/// allocator ran, which must be the pressure of the source IR: for every
/// Figure 3 workload at every (MVL, compiler LMUL) key of the fourteen
/// evaluated systems.
#[test]
fn compiled_kernels_report_their_ir_pressure_at_every_fig3_key() {
    let label = "experiments/fig3_extrapolation.json";
    let spec = ExperimentSpec::parse(label, &std::fs::read_to_string(label).unwrap()).unwrap();
    let mut keys: Vec<(usize, Lmul)> = Vec::new();
    for system in evaluated_systems().iter().map(ScenarioConfig::resolve) {
        if !keys.contains(&(system.mvl(), system.compiler_lmul)) {
            keys.push((system.mvl(), system.compiler_lmul));
        }
    }
    assert_eq!(keys.len(), 8);
    for entry in &spec.workloads {
        let workload = MixRegistry::build(entry).unwrap();
        for &(mvl, lmul) in &keys {
            let mut mem = MemoryHierarchy::default();
            let setup = workload.build(&mut mem, &VectorContext::with_mvl(mvl));
            let slot_bytes = (mvl * 8) as u64;
            let spill_base = mem.allocate(64 * slot_bytes);
            let compiled = compile(
                &setup.kernel,
                &CompileOptions::new(lmul, spill_base, slot_bytes),
            );
            assert_eq!(
                compiled.max_pressure,
                setup.kernel.max_pressure(),
                "{} at MVL {mvl}, {lmul}",
                workload.name()
            );
        }
    }
}

/// The ISA holds exactly the opcodes the kernels emit: every registry
/// kernel and mix at its defaults, compiled at MVL 16 and 512 with LMUL 1
/// and 8, emits each member of `Opcode::ALL` somewhere. An opcode no
/// kernel emits fails here until it is deleted, or a kernel that needs it
/// lands.
#[test]
fn every_opcode_is_emitted_by_some_registry_program() {
    let mut emitted: HashSet<Opcode> = HashSet::new();
    for name in MixRegistry::names() {
        let workload = MixRegistry::build(&WorkloadSpec::named(name)).unwrap();
        for mvl in [16, 512] {
            let mut mem = MemoryHierarchy::default();
            let setup = workload.build(&mut mem, &VectorContext::with_mvl(mvl));
            let slot_bytes = (mvl * 8) as u64;
            let spill_base = mem.allocate(64 * slot_bytes);
            for lmul in [Lmul::M1, Lmul::M8] {
                let compiled = compile(
                    &setup.kernel,
                    &CompileOptions::new(lmul, spill_base, slot_bytes),
                );
                emitted.extend(compiled.program.iter().map(|i| i.opcode));
            }
        }
    }
    let unused: Vec<Opcode> = Opcode::ALL
        .iter()
        .copied()
        .filter(|op| !emitted.contains(op))
        .collect();
    assert!(unused.is_empty(), "no registry program emits {unused:?}");
}
