//! The declarative experiment manifests, exercised end to end: the
//! committed `experiments/` files parse and round-trip, schema errors are
//! byte-offset diagnostics (never panics), a store-attached manifest run
//! resumes from its checkpoints, and a scaled-down run covers the reduced
//! grids.

use std::path::PathBuf;

use ava::sim::json::Json;
use ava_bench::cli::BenchArgs;
use ava_bench::driver;
use ava_bench::spec::{ArtefactKind, ExperimentSpec};

fn plain_args() -> BenchArgs {
    BenchArgs::from_args(vec!["--threads".into(), "1".into()]).unwrap()
}

/// The deterministic per-point payloads of a driver document: the nested
/// simulation reports, without the scheduling metadata (`wall_ns`,
/// `worker`, `cost_estimate`) that naturally moves run to run. This is the
/// same convention the CI result-store gate compares under.
fn point_reports(doc: &Json) -> Vec<String> {
    doc.get("sweep")
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
        .expect("document carries sweep points")
        .iter()
        .map(|p| p.get("report").expect("point carries a report").to_string())
        .collect()
}

fn store_hits(doc: &Json) -> (u64, u64) {
    let store = doc
        .get("sweep")
        .and_then(|s| s.get("store"))
        .expect("document carries store statistics");
    (
        store.get("hits").and_then(Json::as_u64).unwrap(),
        store.get("misses").and_then(Json::as_u64).unwrap(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ava-manifest-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every committed manifest in `experiments/` parses, carries a name, and
/// survives a to_json → parse round trip unchanged.
#[test]
fn committed_manifests_parse_and_round_trip() {
    let mut seen = 0usize;
    for entry in std::fs::read_dir("experiments").expect("experiments/ directory exists") {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "json") {
            continue;
        }
        seen += 1;
        let label = path.display().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let spec = ExperimentSpec::parse(&label, &text)
            .unwrap_or_else(|e| panic!("{label} must parse: {e}"));
        assert!(
            spec.name.is_some(),
            "{label}: committed manifests are named"
        );
        let reparsed = ExperimentSpec::parse(&label, &spec.to_json().to_string()).unwrap();
        assert_eq!(spec, reparsed, "{label}: round trip changed the spec");
    }
    assert!(
        seen >= 7,
        "expected the committed manifest set, found {seen}"
    );
}

/// Unknown fields, workload names and axes are rejected with a diagnostic
/// naming the token and its byte offset in the document — never a panic.
#[test]
fn schema_errors_name_the_token_and_its_byte_offset() {
    for (text, token) in [
        (r#"{"artefact": "fig3", "frobnicate": 1}"#, "frobnicate"),
        (r#"{"artefact": "fig3", "workloads": ["vecsum"]}"#, "vecsum"),
        (
            r#"{"artefact": "sensitivity", "axes": {"l3_kib": [512]}}"#,
            "l3_kib",
        ),
        (
            r#"{"artefact": "sensitivity", "output": {"kind": "sparkline"}}"#,
            "sparkline",
        ),
        (
            r#"{"artefact": "fig3", "execution": {"shards": "0/2"}}"#,
            "shards",
        ),
        (
            r#"{"artefact": "fig3", "execution": {"program_cache": "p"}}"#,
            "program_cache",
        ),
        (
            r#"{"artefact": "fig3", "execution": {"store": "d", "shard": "0/2"}}"#,
            "shard",
        ),
        (
            r#"{"artefact": "fig3", "execution": {"store": "d", "store_gc_mib": 64}}"#,
            "store_gc_mib",
        ),
        (r#"{"artefact": "ablation", "repeat": 2}"#, "repeat"),
    ] {
        let err = ExperimentSpec::parse("t", text).unwrap_err();
        let offset = text.find(&format!("\"{token}\"")).unwrap();
        assert!(
            err.contains(token) && err.contains(&format!("byte {offset}")),
            "{text} -> {err}"
        );
    }
    // Malformed JSON surfaces the parser's own byte-offset diagnostic.
    let err = ExperimentSpec::parse("t", r#"{"artefact": "fig3","#).unwrap_err();
    assert!(err.contains("byte"), "{err}");
}

/// A manifest whose `execution` block attaches a store checkpoints its
/// points; rerunning the same manifest with `resume` is served entirely
/// from disk with bit-identical reports.
#[test]
fn store_attached_manifest_run_resumes_from_its_checkpoints() {
    let dir = temp_dir("resume");
    let manifest = format!(
        r#"{{
            "artefact": "fig3",
            "workloads": [{{"name": "axpy", "n": 512}}],
            "output": {{"kind": "perf"}},
            "execution": {{"store": {:?}}}
        }}"#,
        dir.to_str().unwrap()
    );
    let spec = ExperimentSpec::parse("inline", &manifest).unwrap();

    let mut cold_args = plain_args();
    cold_args.apply_execution(&spec.execution).unwrap();
    let cold = driver::execute(&spec, &cold_args).unwrap();
    let n = point_reports(&cold.document).len() as u64;
    assert_eq!(store_hits(&cold.document), (0, n));

    // The warm rerun flips `resume` on — as a manifest field, the way a
    // relaunched job would ship it.
    let mut resumed = spec.clone();
    resumed.execution.resume = true;
    let mut warm_args = plain_args();
    warm_args.apply_execution(&resumed.execution).unwrap();
    assert!(warm_args.resume);
    let warm = driver::execute(&resumed, &warm_args).unwrap();
    assert_eq!(
        store_hits(&warm.document),
        (n, 0),
        "warm run simulates nothing"
    );
    assert_eq!(point_reports(&cold.document), point_reports(&warm.document));
    assert_eq!(cold.stdout, warm.stdout);

    // Resuming against a store directory that does not exist is the legacy
    // "nothing to resume" diagnostic, raised at merge time.
    let missing = temp_dir("missing");
    let mut bad = spec.clone();
    bad.execution.store = Some(missing.to_str().unwrap().to_string());
    bad.execution.resume = true;
    let err = plain_args().apply_execution(&bad.execution).unwrap_err();
    assert!(err.contains("nothing to resume"), "{err}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `scale_down` shrinks every dimension the driver honours: one workload,
/// truncated axes, and (for fig3) the two-system evaluated list.
#[test]
fn scale_down_runs_the_reduced_grids() {
    let text = std::fs::read_to_string("experiments/fig3_extrapolation.json").unwrap();
    let mut spec = ExperimentSpec::parse("experiments/fig3_extrapolation.json", &text).unwrap();
    spec.scale_down();
    assert_eq!(spec.workloads.len(), 1);
    let run = driver::execute(&spec, &plain_args()).unwrap();
    assert_eq!(
        point_reports(&run.document).len(),
        2,
        "reduced fig3 is one workload over two systems"
    );

    let mut ablation = ExperimentSpec::parse("t", r#"{"artefact": "ablation"}"#).unwrap();
    ablation.scale_down();
    assert_eq!(ablation.artefact, ArtefactKind::Ablation);
    let run = driver::execute(&ablation, &plain_args()).unwrap();
    assert!(run.stdout.contains("swap-free baseline"));
    assert!(run.stdout.contains("swap-heavy AVA"));
}
