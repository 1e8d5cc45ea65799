//! The sweep prepares each (workload, MVL, compiler LMUL) key once and
//! times it on every scenario of the key. That reuse must be invisible:
//! every report equals a standalone `run_system` on the same point, and the
//! workload is built exactly once per key. The grid shares keys for real —
//! three L2 sizes per MVL — which no `scale_down()` manifest grid does.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use ava::isa::{Lmul, VectorContext};
use ava::memory::MemoryHierarchy;
use ava::sim::{run_system, Knob, ScenarioConfig, Sweep};
use ava::workloads::analysis::Arena;
use ava::workloads::{
    composite, Axpy, BufferBindings, Composite, DataLayout, PlannedLayout, SharedWorkload, Somier,
    Workload, WorkloadSetup,
};

/// A workload that counts its builds and otherwise is `inner`.
struct Counting {
    inner: SharedWorkload,
    builds: AtomicUsize,
}

impl Workload for Counting {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn elements(&self) -> usize {
        self.inner.elements()
    }

    fn data_layout(&self) -> DataLayout {
        self.inner.data_layout()
    }

    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        self.builds.fetch_add(1, Ordering::Relaxed);
        self.inner.build_with_bindings(mem, ctx, plan, bindings)
    }

    fn analysis_arenas(&self, plan: &PlannedLayout) -> Vec<Arena> {
        self.inner.analysis_arenas(plan)
    }
}

/// Axpy and a two-phase pipeline (so phase marks are shared too), each on
/// two MVLs x three L2 sizes plus RG-LMUL4, whose MVL of 64 is on the MVL
/// axis: only the compiler LMUL tells its key apart.
fn inner_workloads() -> Vec<SharedWorkload> {
    vec![
        Arc::new(Axpy::new(512)),
        Arc::new(Composite::pipelined(
            vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))],
            vec![composite::links(&[("y", "v")])],
        )),
    ]
}

fn scenarios() -> Vec<ScenarioConfig> {
    let mut scenarios = ScenarioConfig::axis(
        &ScenarioConfig::axis_mvl(&[64, 128]),
        Knob::L2_KIB,
        &[256, 512, 1024],
    );
    scenarios.push(ScenarioConfig::rg_lmul(Lmul::M4));
    scenarios
}

#[test]
fn memoised_points_match_standalone_runs_and_build_once_per_key() {
    let inner = inner_workloads();
    let scenarios = scenarios();
    let standalone = Sweep::grid(inner.clone(), scenarios.clone());
    let keys_per_workload = standalone
        .resolved_systems()
        .iter()
        .map(|s| (s.mvl(), s.compiler_lmul))
        .collect::<HashSet<_>>()
        .len();
    assert_eq!(
        keys_per_workload, 3,
        "two MVLs at LMUL 1 plus RG-LMUL4 at MVL 64"
    );
    let expected: Vec<String> = inner
        .iter()
        .flat_map(|w| {
            standalone
                .resolved_systems()
                .iter()
                .map(|s| format!("{:?}", run_system(w.as_ref(), s)))
        })
        .collect();

    for threads in [1, 3] {
        let counting: Vec<Arc<Counting>> = inner
            .iter()
            .map(|w| {
                Arc::new(Counting {
                    inner: Arc::clone(w),
                    builds: AtomicUsize::new(0),
                })
            })
            .collect();
        let workloads: Vec<SharedWorkload> = counting
            .iter()
            .map(|c| Arc::clone(c) as SharedWorkload)
            .collect();
        let sweep = Sweep::grid(workloads, scenarios.clone());
        let report = sweep.runner().threads(threads).run();

        assert_eq!(report.reports.len(), expected.len());
        for (i, (r, want)) in report.reports.iter().zip(&expected).enumerate() {
            assert!(
                r.validated,
                "{} on {}: {:?}",
                r.workload, r.config, r.validation_error
            );
            assert_eq!(
                &format!("{r:?}"),
                want,
                "{threads} threads, point {i}: {} on {}",
                r.workload,
                r.config
            );
        }
        assert!(report.reports.iter().any(|r| r.phases.len() == 2));
        for c in &counting {
            assert_eq!(
                c.builds.load(Ordering::Relaxed),
                keys_per_workload,
                "{threads} threads: {} built once per key",
                c.name()
            );
        }
        assert_eq!(report.cache_misses, (2 * keys_per_workload) as u64);
        assert_eq!(
            report.cache_hits + report.cache_misses,
            report.reports.len() as u64
        );
    }
}
