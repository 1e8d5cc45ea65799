//! The sweep compiles each prepare key exactly once, in the one claim that
//! holds the key, so its counters do not depend on how the workers
//! interleave: a parallel sweep reports the same hits and misses as a
//! serial one, run after run.

use std::sync::Arc;

use ava::sim::Sweep;
use ava::workloads::{
    Axpy, Blackscholes, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions,
};
use ava_bench::evaluated_systems;

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
