//! The spec-driven experiment driver.
//!
//! [`execute`] turns one validated [`ExperimentSpec`] plus the shared
//! execution options ([`BenchArgs`]) into the experiment's artefacts: the
//! chart/table text that goes to stdout and the machine-readable JSON
//! document. The `experiments` binary calls [`run`]; it is the one entry
//! point for every paper artefact, the analytic Tables I, II–III and V
//! included.
//!
//! Progress lines (sweep size, sweep summary) stream to stderr while the
//! sweeps run; the stdout text is accumulated and printed
//! by [`run`] in one piece, which is also what lets in-process tests pin it
//! byte for byte without spawning processes.

use std::process::ExitCode;
use std::sync::Arc;

use ava_sim::json::{object, Json};
use ava_sim::{format_sweep_summary, Knob, ScenarioConfig, Sweep};
use ava_workloads::{Axpy, Blackscholes, SharedWorkload};

use crate::cli::{emit_json, BenchArgs};
use crate::spec::{ArtefactKind, AxesSpec, ExperimentSpec, MixRegistry};
use crate::{
    evaluated_systems, figure4_data_with, format_cache_sensitivity, format_energy,
    format_energy_sensitivity, format_figure4_from, format_instruction_mix,
    format_memory_breakdown, format_mvl_extrapolation, format_performance, format_table1,
    format_table5, format_table_configs, manifest_key, sensitivity_grid_with, sensitivity_json,
    sweep_energy_json, table1_rows, table5_rows, TABLE1_PVRF_BYTES,
};

/// The artefacts of one executed experiment.
pub struct ExperimentRun {
    /// The accumulated chart/table text (what [`run`] prints to stdout,
    /// byte for byte).
    pub stdout: String,
    /// The machine-readable document (what `--json` writes).
    pub document: Json,
}

/// Executes the experiment and prints its artefacts: the chart text to
/// stdout, the JSON document to the path picked by the CLI `--json` flag
/// or, failing that, the manifest's `output.json`.
///
/// # Errors
///
/// Returns a diagnostic when the spec's workloads cannot be built or the
/// `app` filter matches nothing.
pub fn run(spec: &ExperimentSpec, args: &BenchArgs) -> Result<ExitCode, String> {
    let outcome = execute(spec, args)?;
    print!("{}", outcome.stdout);
    let json_path = args.json.clone().or_else(|| spec.output.json.clone());
    Ok(emit_json(json_path.as_deref(), || outcome.document))
}

/// Executes the experiment described by `spec` under the execution options
/// of `args`, returning the artefacts instead of printing them.
///
/// # Errors
///
/// Returns a diagnostic when the spec's workloads cannot be built or the
/// `app` filter matches nothing.
pub fn execute(spec: &ExperimentSpec, args: &BenchArgs) -> Result<ExperimentRun, String> {
    let mut stdout = String::new();
    let document = match spec.artefact {
        ArtefactKind::Fig3 => fig3(spec, args, &mut stdout)?,
        ArtefactKind::Fig4 => fig4(spec, args, &mut stdout)?,
        ArtefactKind::Sensitivity => sensitivity(spec, args, &mut stdout)?,
        ArtefactKind::Ablation => ablation(spec, args, &mut stdout),
        ArtefactKind::Tables => tables(spec, args, &mut stdout)?,
    };
    Ok(ExperimentRun { stdout, document })
}

/// Builds the spec's workload entries and applies the `app` filter.
/// `no_match` is the artefact's diagnostic for an empty result.
fn build_workloads(spec: &ExperimentSpec, no_match: &str) -> Result<Vec<SharedWorkload>, String> {
    let mut workloads = Vec::with_capacity(spec.workloads.len());
    for w in &spec.workloads {
        workloads.push(MixRegistry::build(w)?);
    }
    let workloads: Vec<SharedWorkload> = workloads
        .into_iter()
        .filter(|w| spec.app.as_ref().is_none_or(|f| w.name() == f))
        .collect();
    if workloads.is_empty() {
        return Err(no_match.to_string());
    }
    Ok(workloads)
}

/// The unroll depth of the spec's solver entry, if it has one. The depth
/// becomes a grid-wide scenario axis even when the `app` filter later
/// drops the solver itself.
fn solver_iters(spec: &ExperimentSpec) -> Option<usize> {
    spec.workloads
        .iter()
        .find(|w| w.name == "solver")
        .map(|w| w.iters.unwrap_or(4))
}

fn fig3(spec: &ExperimentSpec, args: &BenchArgs, out: &mut String) -> Result<Json, String> {
    let chart = spec.chart();
    let workloads = build_workloads(spec, "no workload matches --app filter")?;
    let mut systems = evaluated_systems();
    if spec.reduced {
        // Scale-down: the first two evaluated systems (NATIVE X1 plus one
        // comparison point) keep the smoke representative without pricing
        // all fourteen.
        systems.truncate(2);
    }
    if let Some(iters) = solver_iters(spec) {
        // Solver sweeps record the unroll depth as a first-class scenario
        // axis so every emitted report carries `"axes":{"iters":n}`.
        systems = ScenarioConfig::axis(&systems, Knob::ITERS, &[iters as u64]);
    }

    let per_workload = systems.len();
    let sweep = Sweep::grid(workloads.clone(), systems);
    eprintln!(
        "sweeping {} points ({} workloads x {} configurations)...",
        sweep.len(),
        workloads.len(),
        per_workload
    );
    let run = args.configure(sweep.runner()).execute();
    eprintln!("{}", format_sweep_summary(&run));
    let report = &run.report;

    for (workload, runs) in workloads.iter().zip(report.reports.chunks(per_workload)) {
        let name = workload.name();
        if chart == "mem" || chart == "all" {
            push_line(out, &format_memory_breakdown(name, runs));
        }
        if chart == "mix" || chart == "all" {
            push_line(out, &format_instruction_mix(name, runs));
        }
        if chart == "perf" || chart == "all" {
            push_line(out, &format_performance(name, runs));
        }
        if chart == "energy" || chart == "all" {
            push_line(out, &format_energy(name, runs));
        }
    }

    Ok(object()
        .field("artefact", "fig3")
        .field("chart", chart)
        .field(
            "energy",
            sweep_energy_json(report, sweep.resolved_systems()),
        )
        .field("sweep", run.to_json())
        .finish())
}

fn fig4(spec: &ExperimentSpec, args: &BenchArgs, out: &mut String) -> Result<Json, String> {
    let workloads = build_workloads(spec, "no workload matches the manifest's workload list")?;
    let data = figure4_data_with(&workloads, args);
    eprintln!("{}", format_sweep_summary(&data.sweep));
    out.push_str(&format_figure4_from(&data));

    Ok(object()
        .field("artefact", "fig4")
        .field(
            "rows",
            data.rows
                .iter()
                .map(|r| {
                    object()
                        .field("config", r.label.as_str())
                        .field("vrf_mm2", r.vrf)
                        .field("fpu_mm2", r.fpus)
                        .field("ava_mm2", r.ava_structures)
                        .field("vpu_total_mm2", r.vpu_total)
                        .field("core_mm2", r.core)
                        .field("l1_mm2", r.l1)
                        .field("l2_mm2", r.l2)
                        .field("perf_per_mm2", r.perf_per_mm2)
                        .finish()
                })
                .collect::<Json>(),
        )
        .field("sweep", data.sweep.to_json())
        .finish())
}

fn sensitivity(spec: &ExperimentSpec, args: &BenchArgs, out: &mut String) -> Result<Json, String> {
    let chart = spec.chart();
    let axes = &spec.axes;
    let workloads = build_workloads(
        spec,
        "no workload matches --app filter (the default pool builds axpy, blackscholes, \
         somier and composite; a \"pipelined\" entry builds pipelined and a \"solver\" \
         entry builds iterated)",
    )?;

    let mut scenarios = sensitivity_grid_with(&axes.mvl, &axes.l2_kib, &axes.extra);
    if let Some(iters) = solver_iters(spec) {
        // Record the unroll depth as a first-class scenario axis so every
        // emitted report carries `"axes":{"iters":n}` — rerunning with a
        // different depth then sweeps that axis like any other.
        scenarios = ScenarioConfig::axis(&scenarios, Knob::ITERS, &[iters as u64]);
    }
    let per_workload = scenarios.len();
    let sweep = Sweep::grid(workloads.clone(), scenarios);
    eprintln!(
        "sweeping {} points ({} workloads x {} scenarios: {})...",
        sweep.len(),
        workloads.len(),
        per_workload,
        grid_factors(axes)
    );
    let run = args.configure(sweep.runner()).execute();
    let report = &run.report;
    for r in &report.reports {
        assert!(
            r.validated,
            "{} on {}: {:?}",
            r.workload, r.config, r.validation_error
        );
    }

    for (workload, runs) in workloads.iter().zip(report.reports.chunks(per_workload)) {
        if chart == "tables" || chart == "all" {
            push_line(
                out,
                &format_mvl_extrapolation(workload.name(), sweep.resolved_systems(), runs),
            );
            push_line(out, &format_cache_sensitivity(workload.name(), runs));
        }
        if chart == "energy" || chart == "all" {
            push_line(
                out,
                &format_energy_sensitivity(workload.name(), sweep.resolved_systems(), runs),
            );
        }
    }
    eprintln!("{}", format_sweep_summary(&run));

    Ok(sensitivity_json(
        &axes.mvl,
        &axes.l2_kib,
        &axes.extra,
        sweep.resolved_systems(),
        &run,
    ))
}

/// The sensitivity grid's shape for the progress line: one `<count>
/// <manifest key>` factor per axis, outermost first (`3 mvl x 3 l2_kib x
/// 4 vvrs`). The factors multiply to the scenario count.
fn grid_factors(axes: &AxesSpec) -> String {
    axes.driven()
        .iter()
        .map(|(knob, values)| format!("{} {}", values.len(), manifest_key(*knob)))
        .collect::<Vec<_>>()
        .join(" x ")
}

fn ablation(spec: &ExperimentSpec, args: &BenchArgs, out: &mut String) -> Json {
    // Scale-down shrinks the fixed study workloads; the variant list is the
    // experiment itself and stays whole.
    let (axpy_n, blackscholes_n) = if spec.reduced {
        (512, 256)
    } else {
        (4096, 1024)
    };
    let studies = vec![
        study(
            "swap-free baseline",
            &ScenarioConfig::native_x(1),
            Arc::new(Axpy::new(axpy_n)),
            args,
            out,
        ),
        study(
            "swap-heavy AVA",
            &ScenarioConfig::ava_x(8),
            Arc::new(Blackscholes::new(blackscholes_n)),
            args,
            out,
        ),
    ];
    out.push_str("The per-operation overhead of the vector memory unit dominates the\n");
    out.push_str("short-vector baseline (three memory operations per 16-element strip),\n");
    out.push_str("while the swap-heavy AVA X8 case is bound by the arithmetic pipeline and\n");
    out.push_str("the swap data movement itself, so it is largely insensitive to queue,\n");
    out.push_str("ROB and overhead settings — the sizes of Table II are not the limiter.\n");

    object()
        .field("artefact", "ablation")
        .field("studies", Json::Arr(studies))
        .finish()
}

/// The variant axis of one ablation study: a display name per scenario.
/// Each variant is the base scenario with exactly one knob overridden — the
/// scenario layer records the override as axis metadata, so the JSON report
/// carries it point by point.
fn variants(base: &ScenarioConfig) -> (Vec<String>, Vec<ScenarioConfig>) {
    let mut names = vec!["reference".to_string()];
    let mut systems = vec![base.clone()];
    for (knob, title, values) in [
        (Knob::ISSUE_QUEUES, "issue queues", [8, 16, 64]),
        (Knob::ROB, "reorder buffer", [16, 32, 128]),
        (Knob::MEM_OP_OVERHEAD, "mem-op overhead", [0, 8, 16]),
    ] {
        for value in values {
            names.push(format!("{title} = {value}"));
            systems.push(base.clone().with(knob, value));
        }
    }
    (names, systems)
}

fn study(
    label: &str,
    base: &ScenarioConfig,
    workload: SharedWorkload,
    args: &BenchArgs,
    out: &mut String,
) -> Json {
    out.push_str(&format!(
        "--- {label}: {} on {}\n",
        workload.name(),
        base.label()
    ));
    let (names, systems) = variants(base);
    let grid = Sweep::grid(vec![workload.clone()], systems);
    let run = args.configure(grid.runner()).execute();
    eprintln!("{}", format_sweep_summary(&run));
    let sweep = &run.report;
    for r in &sweep.reports {
        assert!(r.validated, "{}: {:?}", r.config, r.validation_error);
    }
    let reference = sweep.reports[0].cycles;
    out.push_str(&format!(
        "{:<28} {:>10} {:>8}\n",
        "variant", "cycles", "vs ref"
    ));
    for (name, r) in names.iter().zip(&sweep.reports) {
        out.push_str(&format!(
            "{:<28} {:>10} {:>7.2}x\n",
            name,
            r.cycles,
            reference as f64 / r.cycles as f64
        ));
    }
    out.push('\n');

    object()
        .field("study", label)
        .field("workload", workload.name())
        .field("base_config", base.label())
        .field(
            "variants",
            names
                .iter()
                .zip(&sweep.reports)
                .map(|(name, r)| {
                    object()
                        .field("variant", name.as_str())
                        .field("cycles", r.cycles)
                        .field("vs_reference", reference as f64 / r.cycles as f64)
                        .finish()
                })
                .collect::<Json>(),
        )
        .field("sweep", run.to_json())
        .finish()
}

/// Tables I, II–III and V: each chosen table's text, joined by one blank
/// line, and a document holding each table's own JSON under its chart
/// kind.
fn tables(spec: &ExperimentSpec, args: &BenchArgs, out: &mut String) -> Result<Json, String> {
    let reason = "the tables are computed analytically, without a sweep";
    args.reject_execution_flags(reason)?;
    if spec.app.is_some() {
        return Err(format!("--app does not apply: {reason}"));
    }
    let chart = spec.chart();
    let mut document = object().field("artefact", "tables");
    let all = [
        (
            "table1",
            format_table1 as fn() -> String,
            table1_json as fn() -> Json,
        ),
        ("table_configs", format_table_configs, table_configs_json),
        ("table5", format_table5, table5_json),
    ];
    for (kind, text, json) in all {
        if chart == kind || chart == "all" {
            if !out.is_empty() {
                out.push('\n');
            }
            out.push_str(&text());
            document = document.field(kind, json());
        }
    }
    Ok(document.finish())
}

fn table1_json() -> Json {
    object()
        .field("artefact", "table1")
        .field("pvrf_bytes", TABLE1_PVRF_BYTES)
        .field(
            "configurations",
            table1_rows()
                .into_iter()
                .map(|(mvl, pregs)| {
                    object()
                        .field("mvl", mvl)
                        .field("physical_regs", pregs)
                        .finish()
                })
                .collect::<Json>(),
        )
        .finish()
}

fn table_configs_json() -> Json {
    object()
        .field("artefact", "table_configs")
        .field(
            "systems",
            evaluated_systems()
                .iter()
                .map(|sys| {
                    let vpu = sys.vpu_config();
                    object()
                        .field("config", sys.label())
                        .field("mvl", vpu.mvl)
                        .field("pvrf_bytes", vpu.pvrf_bytes)
                        .field("physical_regs", vpu.physical_regs())
                        .field("logical_regs", vpu.logical_regs)
                        .field("mvrf_bytes", vpu.mvrf_bytes())
                        .finish()
                })
                .collect::<Json>(),
        )
        .finish()
}

fn table5_json() -> Json {
    object()
        .field("artefact", "table5")
        .field(
            "rows",
            table5_rows()
                .iter()
                .map(|(name, cfg)| {
                    let p = ava_energy::pnr_estimate(cfg);
                    object()
                        .field("config", *name)
                        .field("wns_ns", p.wns_ns)
                        .field("power_mw", p.power_mw)
                        .field("area_mm2", p.area_mm2)
                        .field("density", p.density)
                        .field("vrf_macro_area_mm2", p.vrf_macro_area_mm2)
                        .field("ava_area_mm2", p.ava_area_mm2)
                        .finish()
                })
                .collect::<Json>(),
        )
        .finish()
}

/// Appends `text` the way `println!("{text}")` would: the text plus one
/// newline (every chart formatter already ends its last row with `\n`).
fn push_line(out: &mut String, text: &str) {
    out.push_str(text);
    out.push('\n');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(manifest: &str) -> ExperimentSpec {
        let path = format!(
            "{}/../../experiments/{manifest}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        ExperimentSpec::parse(&path, &std::fs::read_to_string(&path).unwrap()).unwrap()
    }

    #[test]
    fn the_grid_line_names_one_factor_per_axis_and_multiplies_to_the_scenarios() {
        for (manifest, factors) in [
            ("sensitivity_vvr", "2 mvl x 1 l2_kib x 4 vvrs"),
            (
                "sensitivity_hierarchy",
                "3 mvl x 3 l2_kib x 3 l1_kib x 3 dram_bw x 3 vmu_bus",
            ),
        ] {
            let axes = committed(manifest).axes;
            assert_eq!(grid_factors(&axes), factors, "{manifest}");
            let product: usize = factors
                .split(" x ")
                .map(|f| f.split(' ').next().unwrap().parse::<usize>().unwrap())
                .product();
            let grid = sensitivity_grid_with(&axes.mvl, &axes.l2_kib, &axes.extra);
            assert_eq!(product, grid.len(), "{manifest}");
        }
    }
}
