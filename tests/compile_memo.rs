//! The sweep compiles each prepare key exactly once, in the one claim that
//! holds the key, so its counters do not depend on how the workers
//! interleave: a parallel sweep reports the same hits and misses as a
//! serial one, run after run. Each compile reports the register pressure
//! of its source IR.

use std::sync::Arc;

use ava::compiler::{compile, CompileOptions};
use ava::isa::{Lmul, VectorContext};
use ava::memory::MemoryHierarchy;
use ava::sim::{ScenarioConfig, Sweep};
use ava::workloads::{
    Axpy, Blackscholes, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions,
};
use ava_bench::evaluated_systems;
use ava_bench::spec::{ExperimentSpec, MixRegistry};

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
