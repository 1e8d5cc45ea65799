//! Experiment-manifest quickstart: author a manifest as a JSON string,
//! parse it into an [`ExperimentSpec`], scale it to smoke size and execute
//! it through the same driver the `experiments` binary uses. The
//! equivalent file-based invocation is
//! `cargo run --release -p ava-bench --bin experiments -- --spec
//! experiments/sensitivity_vvr.json --scale-down`.
//!
//! Run with `cargo run --release --example manifest_run`.

use ava_bench::cli::BenchArgs;
use ava_bench::driver;
use ava_bench::spec::ExperimentSpec;

fn main() {
    let manifest = r#"{
        "name": "VVR rename-pool sensitivity over the axpy kernel",
        "artefact": "sensitivity",
        "workloads": [{"name": "axpy", "n": 8192}],
        "axes": {"mvl": [128, 256], "l2_kib": [512], "vvrs": [32, 64]},
        "output": {"kind": "all"}
    }"#;

    let spec = ExperimentSpec::parse("<inline>", manifest).expect("manifest must parse");
    let args = BenchArgs::from_args(Vec::new()).expect("empty CLI always parses");
    let run = driver::execute(&spec, &args).expect("experiment must run");
    print!("{}", run.stdout);

    // The driver also hands back the machine-readable document that
    // `--json` would write; schema errors, by contrast, are diagnostics
    // with byte offsets — never panics.
    let doc = run.document.to_string();
    println!("JSON document: {} bytes", doc.len());
    let err = ExperimentSpec::parse("<inline>", r#"{"artefact": "fig3", "axes": {}}"#)
        .expect_err("axes do not apply to fig3");
    println!("example diagnostic: {err}");
}
