//! Quickstart: simulate one kernel on the baseline short-vector machine and
//! on AVA reconfigured for long vectors, and compare. The two runs are
//! declared as a tiny sweep grid and executed by the parallel engine.
//!
//! Run with `cargo run --release --example quickstart`.

use std::sync::Arc;

use ava::sim::{ScenarioConfig, Sweep};
use ava::workloads::{Axpy, SharedWorkload, Workload};

fn main() {
    let workload = Axpy::new(4096);
    println!("workload: {}, {} elements", workload.name(), 4096);

    let workloads: Vec<SharedWorkload> = vec![Arc::new(workload)];
    let systems = vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(8)];
    let sweep = Sweep::grid(workloads, systems).runner().run();
    let reports = &sweep.reports;

    for r in reports {
        println!(
            "{:<10} {:>8} cycles  {:>6} vector instrs  swaps={}  validated={}",
            r.config,
            r.cycles,
            r.vpu.issued_instrs(),
            r.vpu.swap_ops(),
            r.validated
        );
    }
    println!(
        "reconfiguring the same 8 KB register file from MVL=16 to MVL=128 gives {:.2}x",
        reports[0].cycles as f64 / reports[1].cycles as f64
    );
    println!(
        "sweep: {} points in {:.1} ms on {} threads ({} prepared keys, {} reuses)",
        reports.len(),
        sweep.wall_ns as f64 / 1e6,
        sweep.threads,
        sweep.cache_misses,
        sweep.cache_hits,
    );
}
