//! The result store's core guarantees, exercised end to end through the
//! sweep engine: a killed sweep resumes bit-identically, a warm rerun
//! simulates nothing, invalidation is scoped to the workload that changed,
//! a damaged store entry degrades to a miss instead of a crash, a point
//! that failed validation is never checkpointed, no two prepare keys of a
//! committed manifest share a content fingerprint, and those fingerprints
//! hold their pinned digest.

use std::path::PathBuf;
use std::sync::Arc;

use ava::isa::VectorContext;
use ava::memory::MemoryHierarchy;
use ava::sim::{store_key, Knob, ResultStore, ScenarioConfig, Sweep, SweepReport};
use ava::workloads::{
    Axpy, BufferBindings, DataLayout, Fingerprint, PlannedLayout, SharedWorkload, Somier, Workload,
    WorkloadSetup,
};
use ava_bench::spec::{ArtefactKind, ExperimentSpec, MixRegistry, WorkloadSpec};
use ava_bench::{evaluated_systems, sensitivity_grid_with};

fn store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("ava-result-store-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn scenarios() -> Vec<ScenarioConfig> {
    vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(4)]
}

fn grid(axpy_n: usize) -> Sweep {
    let workloads: Vec<SharedWorkload> =
        vec![Arc::new(Axpy::new(axpy_n)), Arc::new(Somier::new(256))];
    Sweep::grid(workloads, scenarios())
}

fn assert_reports_identical(a: &SweepReport, b: &SweepReport, context: &str) {
    assert_eq!(a.reports.len(), b.reports.len(), "{context}");
    for (x, y) in a.reports.iter().zip(&b.reports) {
        assert_eq!(
            format!("{x:?}"),
            format!("{y:?}"),
            "{context}: {} on {}",
            x.workload,
            x.config
        );
    }
}

/// A sweep killed partway through leaves checkpoints for the finished
/// points; resuming the full grid against the same store must produce a
/// report bit-identical to an uninterrupted cold run, simulating only the
/// missing points.
#[test]
fn killed_sweep_resumes_bit_identically() {
    let dir = store_dir("resume");
    let store = ResultStore::open(&dir).unwrap();
    let sweep = grid(256);
    let uninterrupted = sweep.runner().threads(1).run();

    // "Kill" a run after two of the four points: execute only a subset of
    // the grid with the store attached, exactly what a checkpointing sweep
    // has persisted at the moment it dies.
    let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))];
    let partial = Sweep::from_points(workloads, scenarios(), vec![(0, 0), (1, 1)]);
    let killed = partial.runner().threads(1).store(&store).run();
    assert_eq!(killed.store_misses, 2);
    assert_eq!(store.len(), 2, "two checkpoints on disk at kill time");

    // The resumed run covers the full grid: the two checkpointed points are
    // served from disk, the other two are simulated and checkpointed.
    let resumed = sweep.runner().threads(2).store(&store).run();
    assert_eq!(resumed.store_hits, 2);
    assert_eq!(resumed.store_misses, 2);
    assert_eq!(store.len(), 4);
    assert_reports_identical(&uninterrupted, &resumed, "resumed vs uninterrupted");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A fully warm rerun performs zero simulations: every point is served from
/// the store, and the store says so in the report.
#[test]
fn warm_rerun_simulates_zero_points() {
    let dir = store_dir("warm");
    let store = ResultStore::open(&dir).unwrap();
    let sweep = grid(256);

    let cold = sweep.runner().threads(2).store(&store).run();
    assert_eq!(cold.store_hits, 0);
    assert_eq!(cold.store_misses, sweep.len() as u64);

    let warm = sweep.runner().threads(2).store(&store).run();
    assert_eq!(warm.store_hits, sweep.len() as u64);
    assert_eq!(warm.store_misses, 0);
    assert!(warm.points.iter().all(|p| p.from_store));
    assert_reports_identical(&cold, &warm, "warm vs cold");
    // The hit/miss accounting reaches the JSON artefact.
    let json = warm.to_json().to_string();
    assert!(json.contains(&format!(
        "\"store\":{{\"hits\":{},\"misses\":0}}",
        sweep.len()
    )));

    // Every entry records its wall time, a positive nanosecond figure keyed
    // by (workload, config); no sweep reads it back.
    let costs = store.recorded_costs();
    assert_eq!(costs.len(), sweep.len());
    assert!(costs.values().all(|&ns| ns > 0));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Changing one workload invalidates only that workload's points: the
/// fingerprint of the others is unchanged, so they keep hitting.
#[test]
fn workload_change_invalidates_only_its_points() {
    let dir = store_dir("invalidate");
    let store = ResultStore::open(&dir).unwrap();
    let before = grid(256);
    let _ = before.runner().threads(2).store(&store).run();

    // Grow the axpy problem; somier is untouched. Points are workload-major
    // (axpy first), so the first two points must re-simulate and the somier
    // two must be served from the store.
    let after = grid(512);
    let report = after.runner().threads(2).store(&store).run();
    assert_eq!(report.store_hits, 2);
    assert_eq!(report.store_misses, 2);
    assert!(
        report.points[..2].iter().all(|p| !p.from_store),
        "axpy changed"
    );
    assert!(
        report.points[2..].iter().all(|p| p.from_store),
        "somier did not"
    );
    // And the fresh points agree with a store-free run of the new grid.
    let fresh = grid(512).runner().threads(1).run();
    assert_reports_identical(&fresh, &report, "after invalidation");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Axpy with one golden check corrupted: the kernel and its simulation are
/// untouched, but validation must fail on every configuration.
struct CorruptedAxpy(Axpy);

impl Workload for CorruptedAxpy {
    fn name(&self) -> &'static str {
        "corrupted-axpy"
    }
    fn domain(&self) -> &'static str {
        "test"
    }
    fn elements(&self) -> usize {
        self.0.elements()
    }
    fn data_layout(&self) -> DataLayout {
        self.0.data_layout()
    }
    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let mut setup = self.0.build_with_bindings(mem, ctx, plan, bindings);
        let check = &mut setup.checks[0];
        check.expected += 1.0 + check.expected.abs();
        setup
    }
}

/// A point that fails validation is reported but never checkpointed: the
/// good points of the same grid are stored, the bad ones leave no entry,
/// and a rerun misses on them and simulates them again instead of serving
/// the wrong result from disk.
#[test]
fn failed_points_are_never_checkpointed() {
    let dir = store_dir("failed");
    let store = ResultStore::open(&dir).unwrap();
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(256)),
        Arc::new(CorruptedAxpy(Axpy::new(256))),
    ];
    let sweep = Sweep::grid(workloads, scenarios());
    let good = scenarios().len();

    let cold = sweep.runner().threads(2).store(&store).run();
    assert_eq!(cold.store_misses, sweep.len() as u64);
    for r in &cold.reports[..good] {
        assert!(
            r.validated,
            "{} on {}: {:?}",
            r.workload, r.config, r.validation_error
        );
    }
    for r in &cold.reports[good..] {
        assert!(
            !r.validated,
            "{} on {} must fail its checks",
            r.workload, r.config
        );
    }
    assert_eq!(store.len(), good, "only the validated points are stored");

    let rerun = sweep.runner().threads(2).store(&store).run();
    assert_eq!(rerun.store_hits, good as u64);
    assert_eq!(rerun.store_misses, (sweep.len() - good) as u64);
    assert!(rerun.points[..good].iter().all(|p| p.from_store));
    assert!(
        rerun.points[good..].iter().all(|p| !p.from_store),
        "the failed points are simulated again"
    );
    assert!(rerun.reports[good..].iter().all(|r| !r.validated));
    assert_eq!(store.len(), good);
    assert_reports_identical(&cold, &rerun, "rerun vs cold");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted or truncated entry — or a stray temp file from a writer that
/// died mid-checkpoint — is a miss, not a crash: the point is re-simulated
/// and the entry overwritten.
#[test]
fn damaged_entries_degrade_to_misses() {
    let dir = store_dir("damage");
    let store = ResultStore::open(&dir).unwrap();
    let sweep = grid(256);
    let cold = sweep.runner().threads(1).store(&store).run();

    // Damage two of the four entries in different ways and drop a stray
    // half-written temp file next to them.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 4);
    let full = std::fs::read_to_string(&entries[0]).unwrap();
    std::fs::write(&entries[0], &full[..full.len() / 2]).unwrap(); // truncated
    std::fs::write(&entries[1], "not json at all").unwrap(); // garbage
    std::fs::write(dir.join("axpy-0.json.tmp-9999-0"), "{\"half\":").unwrap();

    let rerun = sweep.runner().threads(2).store(&store).run();
    assert_eq!(rerun.store_hits, 2, "the two intact entries still serve");
    assert_eq!(rerun.store_misses, 2, "the damaged ones re-simulate");
    assert_reports_identical(&cold, &rerun, "after damage");

    // The re-simulation repaired the store: a further run is fully warm.
    let warm = sweep.runner().threads(1).store(&store).run();
    assert_eq!(warm.store_hits, 4);
    assert_reports_identical(&cold, &warm, "after repair");

    let _ = std::fs::remove_dir_all(&dir);
}

/// Store-served points go through the JSON round-trip; attaching a store
/// must therefore not perturb a single counter relative to a plain sweep.
/// Nor may the store's recorded wall times steer the claim order: a warm
/// run's cost estimates are the static heuristic, point for point.
#[test]
fn store_round_trip_never_perturbs_results() {
    let dir = store_dir("identity");
    let store = ResultStore::open(&dir).unwrap();
    let sweep = grid(320);
    let plain = sweep.runner().threads(1).run();
    let stored_cold = sweep.runner().threads(3).store(&store).run();
    let stored_warm = sweep.runner().threads(3).store(&store).run();
    assert_reports_identical(&plain, &stored_cold, "cold store run");
    assert_reports_identical(&plain, &stored_warm, "warm store run");
    // Results stayed in grid order, and the claim order ignored the store.
    for (i, (p, r)) in stored_warm
        .points
        .iter()
        .zip(&stored_warm.reports)
        .enumerate()
    {
        assert_eq!(p.workload, r.workload);
        assert_eq!(p.config, r.config);
        assert_eq!(
            p.cost_estimate,
            sweep.point_cost(i),
            "{} on {}",
            r.workload,
            r.config
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The content fingerprint of every prepare key — (workload, MVL,
/// compiler LMUL) — of a committed manifest, one per key; `None` for an
/// artefact with no key grid (the figure 4, ablation and tables
/// manifests).
fn manifest_key_fingerprints(manifest: &str) -> Option<Vec<u64>> {
    let label = format!("experiments/{manifest}.json");
    let spec = ExperimentSpec::parse(&label, &std::fs::read_to_string(&label).unwrap()).unwrap();
    let scenarios = match spec.artefact {
        ArtefactKind::Fig3 => evaluated_systems(),
        ArtefactKind::Sensitivity => {
            sensitivity_grid_with(&spec.axes.mvl, &spec.axes.l2_kib, &spec.axes.extra)
        }
        _ => return None,
    };
    let mut fingerprints = Vec::new();
    for entry in &spec.workloads {
        let workload = MixRegistry::build(entry).unwrap();
        let mut keys = Vec::new();
        for system in scenarios.iter().map(ScenarioConfig::resolve) {
            let key = (system.mvl(), system.compiler_lmul);
            if !keys.contains(&key) {
                keys.push(key);
                fingerprints.push(store_key(workload.as_ref(), &system).fingerprint);
            }
        }
    }
    Some(fingerprints)
}

/// Every prepare key of a manifest builds other data or compiles another
/// program, so two keys sharing a content fingerprint would mean the
/// fingerprint misses what tells them apart.
#[test]
fn every_manifest_key_has_its_own_fingerprint() {
    for (manifest, keys) in [("fig3_extrapolation", 48), ("sensitivity_hierarchy", 12)] {
        let mut fingerprints = manifest_key_fingerprints(manifest).unwrap();
        assert_eq!(fingerprints.len(), keys, "{manifest}");
        fingerprints.sort_unstable();
        fingerprints.dedup();
        assert_eq!(fingerprints.len(), keys, "{manifest}: two keys collide");
    }
}

/// [`prepared_content_digest`], recorded before the composite build was
/// folded into one per-phase step. Re-pin it only in a change that means
/// to move what a prepared point holds.
const PREPARED_CONTENT_DIGEST: u64 = 0xed28_07ba_349d_e9a3;

/// The content fingerprints of every prepare key of every committed fig3-
/// and sensitivity-kind manifest, in file-name order, then of the
/// `pipelined` mix at its defaults at MVL 16 and 128 (no committed
/// manifest sweeps it), folded into one digest.
fn prepared_content_digest() -> u64 {
    let mut manifests: Vec<String> = std::fs::read_dir("experiments")
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|path| path.extension().is_some_and(|x| x == "json"))
        .map(|path| path.file_stem().unwrap().to_string_lossy().into_owned())
        .collect();
    manifests.sort();
    let mut h = Fingerprint::new();
    for manifest in &manifests {
        for f in manifest_key_fingerprints(manifest).into_iter().flatten() {
            h.write_u64(f);
        }
    }
    let pipelined = MixRegistry::build(&WorkloadSpec::named("pipelined")).unwrap();
    for mvl in [16, 128] {
        let system = ScenarioConfig::ava_x(1).with(Knob::MVL, mvl).resolve();
        h.write_u64(store_key(pipelined.as_ref(), &system).fingerprint);
    }
    h.finish()
}

/// Golden lines pin what a run reports, not the checks, expected values
/// and superseded checks behind it; the content fingerprint covers those
/// too, along with the layout and the compiled program. A refactor of how
/// a workload or mix is built must leave this digest where it is.
#[test]
fn prepared_content_fingerprints_are_pinned() {
    let digest = prepared_content_digest();
    assert_eq!(
        digest, PREPARED_CONTENT_DIGEST,
        "a prepared point's content moved: {digest:#018x}"
    );
}
