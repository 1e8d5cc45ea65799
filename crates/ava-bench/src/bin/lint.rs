//! Static-analysis sweep: runs the `ava-lint` IR verifier
//! (`ava_compiler::analysis`) over every shipped workload and composite mix
//! at every vector length the evaluated configurations exercise, and
//! reports the findings as a table — the static counterpart of the
//! simulation sweeps, catching result-corrupting kernel bugs before any
//! cycle is simulated.
//!
//! Usage:
//!
//! ```text
//! lint [--mode deny|warn] [--json <path>]
//! ```
//!
//! The checked grid is the six Table IV applications, the standalone
//! somier-relaxation body, the three-stage dataflow pipeline and the
//! iterated solver mix, each analyzed at the distinct MVLs of the fourteen
//! evaluated configurations (Tables II/III) plus the MVL-512 Table I
//! extrapolation point. `--mode deny` (the default, used by CI) fails on
//! any finding at warn severity or above; `--mode warn` fails only on
//! errors.
//!
//! With `--json`, the machine-readable findings are written to `<path>`;
//! the document is additionally parsed back through [`ava_sim::json::parse`]
//! before it is written, so the emitted artefact is guaranteed to be valid
//! JSON.

use std::process::ExitCode;

use ava_bench::cli::{usage_error, write_json, BenchArgs};
use ava_bench::{paper_workloads, pipelined_mix, solver_mix};
use ava_sim::json::{object, parse, Json};
use ava_sim::ScenarioConfig;
use ava_workloads::analysis::Severity;
use ava_workloads::{SharedWorkload, Somier};

const USAGE: &str = "lint [--mode deny|warn] [--json <path>]";

/// One workload analyzed at one MVL, with the labels of every evaluated
/// configuration that MVL covers.
struct LintPoint {
    workload: String,
    mvl: usize,
    configs: Vec<String>,
    report: ava_workloads::analysis::AnalysisReport,
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => usage_error(USAGE, &e),
    }
}

fn run() -> Result<ExitCode, String> {
    let mut args = BenchArgs::parse()?;
    args.reject_execution_flags("lint analyzes kernels statically, without a sweep")?;
    let mode = args.take_value("--mode")?.unwrap_or_else(|| "deny".into());
    if mode != "deny" && mode != "warn" {
        return Err(format!("--mode must be deny or warn, got {mode}"));
    }
    args.finish()?;
    let json_path = args.json;
    // Deny mode gates on anything suspicious; warn mode only on findings
    // that corrupt results.
    let threshold = if mode == "deny" {
        Severity::Warn
    } else {
        Severity::Error
    };

    let mut workloads: Vec<SharedWorkload> = paper_workloads();
    workloads.push(std::sync::Arc::new(Somier::relaxation(4096)));
    workloads.push(pipelined_mix(4096));
    workloads.push(solver_mix(4096, 4));

    // The fourteen evaluated configurations plus the Table I MVL-512
    // extrapolation point, deduplicated by the MVL they resolve to — the
    // static analysis only depends on the vector length, not on cache
    // sizes or queue depths.
    let mut configs = ScenarioConfig::all_evaluated();
    configs.extend(ScenarioConfig::axis_mvl(&[512]));
    let mut mvls: Vec<(usize, Vec<String>)> = Vec::new();
    for c in &configs {
        match mvls.iter_mut().find(|(m, _)| *m == c.mvl()) {
            Some((_, labels)) => labels.push(c.label().to_string()),
            None => mvls.push((c.mvl(), vec![c.label().to_string()])),
        }
    }

    eprintln!(
        "linting {} workloads x {} MVLs ({} configurations)...",
        workloads.len(),
        mvls.len(),
        configs.len()
    );
    let points: Vec<LintPoint> = workloads
        .iter()
        .flat_map(|w| {
            mvls.iter().map(|(mvl, labels)| LintPoint {
                workload: w.name().to_string(),
                mvl: *mvl,
                configs: labels.clone(),
                report: w.verify(*mvl),
            })
        })
        .collect();

    println!("ava-lint ({mode} mode) — static analysis findings");
    println!(
        "{:<12} {:>5} {:>8} {:>6} {:>6} {:>6}  status",
        "workload", "MVL", "configs", "error", "warn", "info"
    );
    let mut failures = 0usize;
    for p in &points {
        let count = |s: Severity| {
            p.report
                .diagnostics
                .iter()
                .filter(|d| d.severity == s)
                .count()
        };
        let ok = p.report.is_clean(threshold);
        if !ok {
            failures += 1;
        }
        println!(
            "{:<12} {:>5} {:>8} {:>6} {:>6} {:>6}  {}",
            p.workload,
            p.mvl,
            p.configs.len(),
            count(Severity::Error),
            count(Severity::Warn),
            count(Severity::Info),
            if ok { "ok" } else { "FAIL" }
        );
        for d in p.report.at_least(threshold) {
            println!("    {d}");
        }
    }
    println!(
        "{} of {} workload/MVL points clean at the {mode} threshold",
        points.len() - failures,
        points.len()
    );

    if let Some(path) = json_path.as_deref() {
        let doc = object()
            .field("schema", "ava-lint-report/v1")
            .field("mode", mode.as_str())
            .field("clean", failures == 0)
            .field(
                "points",
                Json::Arr(
                    points
                        .iter()
                        .map(|p| {
                            object()
                                .field("workload", p.workload.as_str())
                                .field("mvl", p.mvl)
                                .field("configs", Json::from_iter(p.configs.iter().cloned()))
                                .field("clean", p.report.is_clean(threshold))
                                .field(
                                    "findings",
                                    Json::Arr(
                                        p.report
                                            .diagnostics
                                            .iter()
                                            .map(|d| {
                                                object()
                                                    .field("code", d.code.as_str())
                                                    .field("severity", d.severity.as_str())
                                                    .field("ir_index", d.ir_index)
                                                    .field("message", d.message.as_str())
                                                    .finish()
                                            })
                                            .collect(),
                                    ),
                                )
                                .finish()
                        })
                        .collect(),
                ),
            )
            .finish();
        // The emitter's own parser must accept (and exactly reproduce) the
        // document before it leaves the process.
        assert_eq!(
            parse(&doc.to_string()).as_ref(),
            Ok(&doc),
            "lint --json output failed to round-trip through ava_sim::json::parse"
        );
        if let Err(e) = write_json(path, &doc) {
            eprintln!("{e}");
            return Ok(ExitCode::FAILURE);
        }
        eprintln!("wrote JSON report to {path}");
    }
    Ok(if failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
