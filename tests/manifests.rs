//! The declarative experiment manifests, exercised end to end: the
//! committed `experiments/` files parse and round-trip, schema errors are
//! byte-offset diagnostics (never panics), a store-attached manifest run
//! resumes from its checkpoints, a scaled-down run covers the reduced
//! grids, and the analytic tables reproduce the binaries they replaced.

use std::path::PathBuf;

use ava::sim::json::Json;
use ava::workloads::Fingerprint;
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

/// Every committed manifest in `experiments/` parses and carries a name.
#[test]
fn committed_manifests_parse_and_are_named() {
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
    }
    assert!(
        seen >= 8,
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

/// FNV-1a over the bytes of what the `table1`, `table_configs` and
/// `table5` binaries printed to stdout and wrote with `--json` (the file,
/// trailing newline included) before the `tables` artefact replaced them.
const RETIRED_TABLE_DIGESTS: [(&str, u64, u64); 3] = [
    ("table1", 0x3290_31f3_aebd_423b, 0x6249_ee91_56fa_b523),
    (
        "table_configs",
        0xd168_1c29_8080_51ac,
        0x2a75_c613_8449_6691,
    ),
    ("table5", 0xaf4a_9e0f_03b0_ea48, 0xc4c1_4a49_ca42_bef5),
];

fn fnv1a(text: &str) -> u64 {
    let mut h = Fingerprint::new();
    h.write_bytes(text.as_bytes());
    h.finish()
}

fn tables(kind: &str) -> driver::ExperimentRun {
    let text = format!(r#"{{"artefact": "tables", "output": {{"kind": "{kind}"}}}}"#);
    let spec = ExperimentSpec::parse("t", &text).unwrap();
    driver::execute(&spec, &BenchArgs::from_args(Vec::new()).unwrap()).unwrap()
}

/// Each table kind prints and emits, byte for byte, what its retired
/// binary did; `all` joins the three texts with one blank line and holds
/// the three documents under their kinds.
#[test]
fn tables_artefact_reproduces_the_retired_table_binaries() {
    let mut texts = Vec::new();
    let mut documents = Vec::new();
    for (kind, stdout, json) in RETIRED_TABLE_DIGESTS {
        let run = tables(kind);
        assert_eq!(fnv1a(&run.stdout), stdout, "{kind} stdout moved");
        let Json::Obj(fields) = &run.document else {
            panic!("{kind}: the document is an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["artefact", kind]);
        let inner = run.document.get(kind).unwrap().to_string();
        assert_eq!(fnv1a(&format!("{inner}\n")), json, "{kind} --json moved");
        texts.push(run.stdout);
        documents.push(inner);
    }
    let all = tables("all");
    assert_eq!(all.stdout, texts.join("\n"));
    assert_eq!(
        all.document.to_string(),
        format!(
            r#"{{"artefact":"tables","table1":{},"table_configs":{},"table5":{}}}"#,
            documents[0], documents[1], documents[2]
        )
    );
}

/// The tables run no sweep: the sweep keys of a manifest are byte-offset
/// schema errors, and the execution flags and `--app` are named errors.
#[test]
fn tables_artefact_rejects_sweep_keys_and_execution_flags() {
    for (token, field) in [
        ("workloads", r#"["axpy"]"#),
        ("app", r#""axpy""#),
        ("axes", r#"{"mvl": [128]}"#),
        ("execution", r#"{"threads": 2}"#),
    ] {
        let text = format!(r#"{{"artefact": "tables", "{token}": {field}}}"#);
        let err = ExperimentSpec::parse("t", &text).unwrap_err();
        let offset = text.find(&format!("\"{token}\"")).unwrap();
        assert!(
            err.contains(token) && err.contains(&format!("byte {offset}")),
            "{text} -> {err}"
        );
    }

    let label = "experiments/paper_tables.json";
    let spec = ExperimentSpec::parse(label, &std::fs::read_to_string(label).unwrap()).unwrap();
    let dir = temp_dir("tables");
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.to_str().unwrap();
    for (flag, argv) in [
        ("--threads", vec!["--threads", "2"]),
        ("--store", vec!["--store", store]),
        ("--resume", vec!["--store", store, "--resume"]),
    ] {
        let args = BenchArgs::from_args(argv.iter().map(ToString::to_string).collect()).unwrap();
        let err = driver::execute(&spec, &args)
            .err()
            .expect("flag is rejected");
        assert!(
            err.contains(flag) && err.contains("without a sweep"),
            "{err}"
        );
    }
    let mut filtered = spec.clone();
    filtered.app = Some("axpy".to_string());
    let err = driver::execute(&filtered, &BenchArgs::from_args(Vec::new()).unwrap())
        .err()
        .expect("--app is rejected");
    assert!(
        err.contains("--app") && err.contains("without a sweep"),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
