//! Sibling reuse: a sweep point copies the report of an earlier sibling
//! that `proves` it equal instead of simulating it. The reuse must be
//! invisible: every report equals a standalone `run_system` on the same
//! point at any thread count, a point whose siblings all miss in the L2 is
//! simulated, and a store checkpoints copies like simulations.
//!
//! The grid: Axpy and a two-phase pipeline, both with working sets between
//! 256 KiB and 1 MiB, on MVL {64, 128} × L2 {256, 1024, 4096} KiB × DRAM
//! {6, 24} B/cycle. At 256 KiB every point misses, so nothing there is
//! provable; at 1 MiB and above nothing misses.

use std::sync::Arc;

use ava::sim::{run_system, Knob, ResultStore, ScenarioConfig, Sweep, SweepRun};
use ava::workloads::{composite, Axpy, Composite, SharedWorkload, Somier};

fn workloads() -> Vec<SharedWorkload> {
    vec![
        Arc::new(Axpy::new(20 * 1024)),
        Arc::new(Composite::pipelined(
            vec![Arc::new(Axpy::new(8192)), Arc::new(Somier::new(8192))],
            vec![composite::links(&[("y", "v")])],
        )),
    ]
}

fn grid() -> Sweep {
    let scenarios = ScenarioConfig::axis(
        &ScenarioConfig::axis(
            &ScenarioConfig::axis_mvl(&[64, 128]),
            Knob::L2_KIB,
            &[256, 1024, 4096],
        ),
        Knob::DRAM_BW,
        &[6, 24],
    );
    Sweep::grid(workloads(), scenarios)
}

fn l2_kib(sweep: &Sweep, point: usize) -> usize {
    let systems = sweep.resolved_systems();
    systems[point % systems.len()].memory.l2.size_bytes / 1024
}

/// The reuse shape every run of the grid must have, whatever the thread
/// count or store: nothing at 256 KiB is copied, every point at 4 MiB is,
/// and each copy names an earlier sibling of the same workload.
fn assert_reuse_shape(sweep: &Sweep, run: &SweepRun, context: &str) {
    let systems = sweep.resolved_systems().len();
    for (point, source) in run.reused_from.iter().enumerate() {
        let config = &run.report.reports[point].config;
        match (l2_kib(sweep, point), source) {
            (256, Some(q)) => panic!("{context}: {config} misses in the L2 but copied point {q}"),
            (4096, None) => panic!("{context}: {config} hits everywhere but was simulated"),
            (_, Some(q)) => {
                assert_eq!(q / systems, point / systems, "{context}: {config}");
                assert!(
                    l2_kib(sweep, *q) <= l2_kib(sweep, point),
                    "{context}: {config}"
                );
            }
            (_, None) => {}
        }
    }
}

#[test]
fn copied_points_match_standalone_runs_at_any_thread_count() {
    let sweep = grid();
    let systems = sweep.resolved_systems();
    let expected: Vec<String> = sweep
        .workloads()
        .iter()
        .flat_map(|w| {
            systems
                .iter()
                .map(|s| format!("{:?}", run_system(w.as_ref(), s)))
        })
        .collect();

    for threads in [1, 3] {
        let run = sweep.runner().threads(threads).execute();
        assert_eq!(run.report.reports.len(), expected.len());
        for (i, (r, want)) in run.report.reports.iter().zip(&expected).enumerate() {
            assert!(
                r.validated,
                "{} on {}: {:?}",
                r.workload, r.config, r.validation_error
            );
            assert_eq!(&format!("{r:?}"), want, "{threads} threads, point {i}");
            // The grid's premise: only the smallest L2 misses.
            assert_eq!(
                r.mem.l2.misses() > 0,
                l2_kib(&sweep, i) == 256,
                "{}",
                r.config
            );
        }
        assert!(run.report.reports.iter().any(|r| r.phases.len() == 2));
        assert_reuse_shape(&sweep, &run, &format!("{threads} threads"));
        // Per (workload, MVL) group of six, the two 256 KiB points and one
        // 1 MiB point simulate; the other three are copies.
        assert_eq!(run.reused(), expected.len() as u64 / 2, "{threads} threads");
        assert_eq!(run.simulated() + run.reused(), expected.len() as u64);
        // Counting only the simulated reports loses no distinct one.
        assert_eq!(run.distinct_reports, run.report.distinct_reports());
    }
}

#[test]
fn a_store_checkpoints_copies_and_serves_them_warm() {
    let dir = std::env::temp_dir().join(format!("ava-sibling-reuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let sweep = grid();
    let n = sweep.len() as u64;

    let cold = sweep.runner().threads(3).store(&store).execute();
    assert_eq!(cold.report.store_hits, 0);
    assert_eq!(cold.report.store_misses, n);
    assert!(cold.reused() > 0);
    assert_eq!(
        store.len() as u64,
        n,
        "every point is checkpointed, copies too"
    );
    assert_reuse_shape(&sweep, &cold, "cold");

    let warm = sweep.runner().threads(3).store(&store).execute();
    assert_eq!(warm.report.store_hits, n);
    assert_eq!((warm.reused(), warm.simulated()), (0, 0));
    for (a, b) in cold.report.reports.iter().zip(&warm.report.reports) {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "stored = copied or simulated"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
