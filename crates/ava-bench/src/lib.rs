//! # ava-bench — experiment harness regenerating every table and figure
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation from the
//! simulator, the compiler and the physical models:
//!
//! | Binary          | Paper artefact                                              |
//! |-----------------|-------------------------------------------------------------|
//! | `experiments`   | Every sweep-backed artefact, one committed manifest each:     |
//! |                 | Figure 3 (`experiments/fig3_extrapolation.json`), Figure 4    |
//! |                 | (`fig4_area.json`), the sensitivity studies and the           |
//! |                 | microarchitectural ablation (`ablation_microarch.json`)       |
//! | `table1`        | Table I — P-VRF configurations (physical registers vs MVL)   |
//! | `table_configs` | Tables II & III — evaluated system configurations             |
//! | `table5`        | Table V — post-place-and-route estimates                      |
//! | `bench_baseline`| Wall-clock baselines — `BENCH_<suite>.json` for CI            |
//! | `lint`          | Static-analysis sweep — every workload/mix linted at every    |
//! |                 | evaluated MVL (plus the 512 extrapolation), deny mode in CI   |
//!
//! Every binary accepts `--json <path>` and writes a machine-readable form
//! of its artefact there (hand-rolled emitter in [`ava_sim::json`]; the
//! workspace builds offline, so no serde).
//!
//! The std-only benches in `benches/` measure the *simulator itself*
//! (rename/swap throughput, cache behaviour, end-to-end kernel simulation),
//! so regressions in the reproduction infrastructure are caught as well;
//! their bodies live in [`suites`] so `bench_baseline` can persist the same
//! numbers for the CI `bench-regression` gate.
//!
//! The library part of the crate holds the shared harness: the workload
//! instances sized for the evaluation, the configuration lists, and the
//! text formatting of every chart, so binaries stay thin and the harness is
//! unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod driver;
pub mod microbench;
pub mod spec;
pub mod suites;

use std::collections::BTreeMap;

use std::sync::Arc;

use ava_energy::{
    energy_breakdown, energy_breakdown_with_l2, phase_energy_breakdown, pnr_estimate, system_area,
    EnergyBreakdown, EnergyParams,
};
use ava_sim::json::object;
use ava_sim::{
    geometric_mean, speedup_vs, Json, Knob, RunReport, ScenarioConfig, Sweep, SweepReport,
    SweepRun, SystemConfig,
};
use ava_vpu::{preg_count_for_mvl, VpuConfig};
use ava_workloads::{
    Axpy, Blackscholes, Composite, LavaMd2, ParticleFilter, SharedWorkload, Somier, Swaptions,
};

use crate::cli::BenchArgs;
use crate::spec::{paper_workload_specs, MixRegistry};

/// The six applications of Table IV at the problem sizes used for the
/// reproduction ([`spec::paper_workload_specs`], the Figure 3 / Figure 4
/// manifest pool).
#[must_use]
pub fn paper_workloads() -> Vec<SharedWorkload> {
    paper_workload_specs()
        .iter()
        .map(|w| MixRegistry::build(w).expect("the paper pool builds"))
        .collect()
}

/// Smaller versions of the same workloads, used by the wall-clock benches so
/// one benchmark iteration stays in the millisecond range.
#[must_use]
pub fn bench_workloads() -> Vec<SharedWorkload> {
    vec![
        Arc::new(Axpy::new(1024)),
        Arc::new(Blackscholes::new(256)),
        Arc::new(LavaMd2::new(16, 2)),
        Arc::new(ParticleFilter::new(512, 32)),
        Arc::new(Somier::new(1024)),
        Arc::new(Swaptions::new(256)),
    ]
}

/// The configurations plotted in Figure 3, in presentation order.
#[must_use]
pub fn evaluated_systems() -> Vec<ScenarioConfig> {
    ScenarioConfig::all_evaluated()
}

/// Formats the Figure 3 column-1 chart: vector memory instruction counts
/// split into loads, stores, compiler spills and AVA swaps.
#[must_use]
pub fn format_memory_breakdown(workload: &str, reports: &[RunReport]) -> String {
    let mut out = format!("Figure 3 ({workload}) — vector memory instructions\n");
    out.push_str(&format!(
        "{:<12} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9} {:>10}\n",
        "config", "VLoad", "VStore", "Spill-Ld", "Spill-St", "Swap-Ld", "Swap-St", "total"
    ));
    for r in reports {
        out.push_str(&format!(
            "{:<12} {:>9} {:>9} {:>10} {:>10} {:>9} {:>9} {:>10}\n",
            r.config,
            r.vpu.vloads,
            r.vpu.vstores,
            r.vpu.spill_loads,
            r.vpu.spill_stores,
            r.vpu.swap_loads,
            r.vpu.swap_stores,
            r.memory_instructions(),
        ));
    }
    out
}

/// Formats the Figure 3 column-2 chart: percentage of arithmetic vs memory
/// vector instructions.
#[must_use]
pub fn format_instruction_mix(workload: &str, reports: &[RunReport]) -> String {
    let mut out = format!("Figure 3 ({workload}) — % of vector instructions\n");
    out.push_str(&format!(
        "{:<12} {:>13} {:>10}\n",
        "config", "Varithmetic", "Vmemory"
    ));
    for r in reports {
        let mem = 100.0 * r.vpu.memory_fraction();
        out.push_str(&format!(
            "{:<12} {:>12.1}% {:>9.1}%\n",
            r.config,
            100.0 - mem,
            mem
        ));
    }
    out
}

/// Formats the Figure 3 column-3 chart: execution time and speedup relative
/// to NATIVE X1.
#[must_use]
pub fn format_performance(workload: &str, reports: &[RunReport]) -> String {
    let speedups = speedup_vs(reports, "NATIVE X1");
    let mut out = format!("Figure 3 ({workload}) — execution time and speedup vs NATIVE X1\n");
    out.push_str(&format!(
        "{:<12} {:>14} {:>12} {:>8} {:>6}\n",
        "config", "cycles", "time (ms)", "speedup", "ok"
    ));
    for (r, (_, s)) in reports.iter().zip(speedups.iter()) {
        out.push_str(&format!(
            "{:<12} {:>14} {:>12.4} {:>8.2} {:>6}\n",
            r.config,
            r.cycles,
            r.seconds() * 1e3,
            s,
            if r.validated { "yes" } else { "NO" }
        ));
    }
    out
}

/// Formats the Figure 3 column-4 chart: energy breakdown from the
/// McPAT-style model.
#[must_use]
pub fn format_energy(workload: &str, reports: &[RunReport]) -> String {
    let params = EnergyParams::default();
    let configs = config_map();
    let mut out = format!("Figure 3 ({workload}) — energy (mJ)\n");
    out.push_str(&format!(
        "{:<12} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
        "config", "L2 dyn", "L2 leak", "VRF dyn", "VRF leak", "FPU dyn", "FPU leak", "total"
    ));
    for r in reports {
        let cfg = &configs[r.config.as_str()];
        let e = energy_breakdown(r, cfg, &params);
        out.push_str(&format!(
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3} {:>8.3}\n",
            r.config,
            e.l2_dynamic,
            e.l2_leakage,
            e.vrf_dynamic,
            e.vrf_leakage,
            e.fpu_dynamic,
            e.fpu_leakage,
            e.total()
        ));
    }
    out
}

/// The standard dataflow pipeline behind a manifest's `"pipelined"` entry: a
/// stencil-style three-stage chain over `n`-element arrays. Axpy's in-place
/// output feeds Somier's velocity array; Somier's position and velocity
/// results feed a second Axpy (`y[i] = a * xout[i] + vout[i]`). Golden
/// references chain across the stages, so the final Axpy's checks validate
/// the whole pipeline end to end.
#[must_use]
pub fn pipelined_mix(n: usize) -> SharedWorkload {
    Arc::new(Composite::pipelined(
        vec![
            Arc::new(Axpy::new(n)),
            Arc::new(Somier::new(n)),
            Arc::new(Axpy::new(n)),
        ],
        vec![
            ava_workloads::composite::links(&[("y", "v")]),
            ava_workloads::composite::links(&[("xout", "x"), ("vout", "y")]),
        ],
    ))
}

/// The iterative-solver mix behind a manifest's `"solver"` entry: a somier
/// spring relaxation ([`ava_workloads::Somier::relaxation`]) unrolled
/// `iters` times, each iteration's position/velocity outputs carrying into
/// the next iteration's inputs. Carried arrays ping-pong between two
/// physical buffers (no per-iteration copies), the scalar golden reference
/// is stepped the same `iters` times, and only the converged state is
/// validated. Reports carry one breakdown per iteration (`iter`-labelled in
/// the JSON).
#[must_use]
pub fn solver_mix(n: usize, iters: usize) -> SharedWorkload {
    Arc::new(Composite::iterated(
        Arc::new(ava_workloads::Somier::relaxation(n)),
        iters,
        ava_workloads::composite::links(&[("xout", "x"), ("vout", "v")]),
    ))
}

fn config_map() -> BTreeMap<String, VpuConfig> {
    evaluated_systems()
        .iter()
        .map(|sys| (sys.label().to_string(), sys.vpu_config()))
        .collect()
}

/// The P-VRF capacity Table I assumes (8 KB).
pub const TABLE1_PVRF_BYTES: usize = 8 * 1024;

/// The Table I rows: `(MVL in elements, physical registers)` for every
/// configuration of the 8 KB AVA P-VRF. Single source for both the text
/// table and the `--json` artefact.
#[must_use]
pub fn table1_rows() -> Vec<(usize, usize)> {
    (1..=8)
        .map(|n| (16 * n, preg_count_for_mvl(TABLE1_PVRF_BYTES, 16 * n)))
        .collect()
}

/// Regenerates Table I: physical vector register file configurations.
#[must_use]
pub fn format_table1() -> String {
    let rows = table1_rows();
    let mut out =
        String::from("Table I — physical vector register file configurations (8 KB P-VRF)\n");
    out.push_str("MVL (elems) :");
    for (mvl, _) in &rows {
        out.push_str(&format!(" {mvl:>5}"));
    }
    out.push_str("\nP-Regs      :");
    for (_, pregs) in &rows {
        out.push_str(&format!(" {pregs:>5}"));
    }
    out.push('\n');
    out
}

/// Regenerates Tables II and III: the evaluated system configurations and
/// their equivalences.
#[must_use]
pub fn format_table_configs() -> String {
    let mut out = String::from(
        "Tables II & III — system configurations (8 lanes, 1 GHz VPU, dual-issue 2 GHz scalar core)\n",
    );
    out.push_str(&format!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>12}\n",
        "config", "MVL", "VRF (KB)", "P-regs", "logical", "M-VRF (KB)"
    ));
    for sys in evaluated_systems() {
        let vpu = sys.vpu_config();
        out.push_str(&format!(
            "{:<12} {:>6} {:>10} {:>10} {:>10} {:>12}\n",
            sys.label(),
            vpu.mvl,
            vpu.pvrf_bytes / 1024,
            vpu.physical_regs(),
            vpu.logical_regs,
            vpu.mvrf_bytes() / 1024,
        ));
    }
    out
}

/// One row of the Figure 4 chart: the area breakdown of a configuration and
/// its average performance per VPU mm² across the workloads.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Configuration label ("NATIVE X4", "AVA (recfg)", ...).
    pub label: String,
    /// VRF area (mm²).
    pub vrf: f64,
    /// FPU area (mm²).
    pub fpus: f64,
    /// AVA structure area (mm²; zero for NATIVE).
    pub ava_structures: f64,
    /// Total VPU area (mm²).
    pub vpu_total: f64,
    /// Scalar-core area (mm²).
    pub core: f64,
    /// L1 instruction + data cache area (mm²).
    pub l1: f64,
    /// L2 area (mm²).
    pub l2: f64,
    /// Geometric-mean speedup over NATIVE X1 across the workloads, divided
    /// by VPU area (the paper's right axis).
    pub perf_per_mm2: f64,
}

/// The executed Figure 4 evaluation: the instrumented sweep plus the chart
/// rows derived from it.
#[derive(Debug)]
pub struct Figure4Data {
    /// The instrumented sweep over `workloads` × (area columns + AVA X2..X8).
    pub sweep: ava_sim::SweepRun,
    /// One row per chart column, NATIVE X1 first, "AVA (recfg)" last.
    pub rows: Vec<Fig4Row>,
}

/// Runs the Figure 4 evaluation: the area breakdown of every configuration
/// and the average performance/mm² over the six applications. The whole
/// evaluation is a single declarative sweep: `workloads` × (the six area
/// columns plus the remaining AVA configurations), run with the execution
/// options of `args` (worker-thread cap, result store).
#[must_use]
pub fn figure4_data_with(workloads: &[SharedWorkload], args: &BenchArgs) -> Figure4Data {
    // Area side: one column per configuration of Figure 4. NATIVE X1 first
    // (it doubles as the speedup baseline) and AVA X1 second (its area row
    // represents every AVA configuration).
    let columns: Vec<ScenarioConfig> = vec![
        ScenarioConfig::native_x(1),
        ScenarioConfig::ava_x(1),
        ScenarioConfig::native_x(2),
        ScenarioConfig::native_x(3),
        ScenarioConfig::native_x(4),
        ScenarioConfig::native_x(8),
    ];
    // The right axis additionally needs AVA X2..X8 for the "best MVL per
    // application" point, so the sweep's system axis is columns + those.
    let mut systems = columns.clone();
    systems.extend([2, 3, 4, 8].iter().map(|&n| ScenarioConfig::ava_x(n)));
    let n_systems = systems.len();
    let grid = Sweep::grid(workloads.to_vec(), systems);
    let sweep = args.configure(grid.runner()).execute();
    let by_workload: Vec<&[RunReport]> = sweep.report.reports.chunks(n_systems).collect();

    let mut rows = Vec::with_capacity(columns.len() + 1);
    // Performance/mm²: average speedup of each configuration across the
    // workloads, normalised by VPU area (the paper's right axis).
    for (col, sys) in columns.iter().enumerate() {
        let area = system_area(&sys.vpu_config());
        let perf: Vec<f64> = by_workload
            .iter()
            .map(|runs| runs[0].cycles as f64 / runs[col].cycles as f64)
            .collect();
        let mean_speedup = geometric_mean(&perf);
        rows.push(Fig4Row {
            label: sys.label().to_string(),
            vrf: area.vpu.vrf,
            fpus: area.vpu.fpus,
            ava_structures: area.vpu.ava_structures,
            vpu_total: area.vpu.total(),
            core: area.core,
            l1: area.l1i + area.l1d,
            l2: area.l2,
            perf_per_mm2: mean_speedup / area.vpu.total(),
        });
    }
    // AVA reconfigures without changing area: the paper's right axis shows a
    // single AVA point using the best configuration per application. The AVA
    // runs are the systems at index 1 (AVA X1) and 6.. (AVA X2..X8).
    let ava_area = system_area(&ScenarioConfig::ava_x(1).vpu_config());
    let best_speedups: Vec<f64> = by_workload
        .iter()
        .map(|runs| {
            let best = std::iter::once(runs[1].cycles)
                .chain(runs[6..].iter().map(|r| r.cycles))
                .min()
                .unwrap_or(runs[0].cycles);
            runs[0].cycles as f64 / best as f64
        })
        .collect();
    let ava_mean = geometric_mean(&best_speedups);
    rows.push(Fig4Row {
        label: "AVA (recfg)".to_string(),
        vrf: ava_area.vpu.vrf,
        fpus: ava_area.vpu.fpus,
        ava_structures: ava_area.vpu.ava_structures,
        vpu_total: ava_area.vpu.total(),
        core: ava_area.core,
        l1: ava_area.l1i + ava_area.l1d,
        l2: ava_area.l2,
        perf_per_mm2: ava_mean / ava_area.vpu.total(),
    });
    Figure4Data { sweep, rows }
}

/// Formats the Figure 4 chart from an executed evaluation.
#[must_use]
pub fn format_figure4_from(data: &Figure4Data) -> String {
    let mut out = String::from("Figure 4 — area (mm², 22 nm) and performance/mm²\n");
    out.push_str(&format!(
        "{:<12} {:>9} {:>9} {:>9} {:>9} {:>7} {:>7} {:>7} {:>10}\n",
        "config", "VPU VRF", "VPU FPU", "AVA", "VPU tot", "core", "L1", "L2", "perf/mm2"
    ));
    for row in &data.rows {
        out.push_str(&format!(
            "{:<12} {:>9.3} {:>9.3} {:>9.4} {:>9.3} {:>7.2} {:>7.2} {:>7.2} {:>10.3}\n",
            row.label,
            row.vrf,
            row.fpus,
            row.ava_structures,
            row.vpu_total,
            row.core,
            row.l1,
            row.l2,
            row.perf_per_mm2,
        ));
    }
    out.push_str("\nAVA occupies the same ~1.13 mm^2 VPU for every MVL configuration; the\n\"AVA (recfg)\" row reconfigures the MVL per application (the paper's usage\nmodel) and therefore shows the best performance/mm^2 of the comparison.\n");
    out
}

/// The Table V rows: `(label, VPU configuration)` for the two designs the
/// paper takes through the place-and-route flow. Single source for both
/// the text table and the `--json` artefact.
#[must_use]
pub fn table5_rows() -> Vec<(&'static str, VpuConfig)> {
    vec![
        ("NATIVE X8", VpuConfig::native_x(8)),
        ("AVA", VpuConfig::ava_x(8)),
    ]
}

/// Regenerates Table V: post-place-and-route estimates for NATIVE X8 and AVA.
#[must_use]
pub fn format_table5() -> String {
    let rows = table5_rows();
    let mut out =
        String::from("Table V — post-place-and-route estimates (GF 22FDX class, 1 GHz target)\n");
    out.push_str(&format!(
        "{:<10} {:>9} {:>11} {:>11} {:>9} {:>12} {:>12}\n",
        "config", "WNS (ns)", "Power (mW)", "Area (mm2)", "Density", "VRF macros", "AVA structs"
    ));
    for (name, cfg) in rows {
        let p = pnr_estimate(&cfg);
        out.push_str(&format!(
            "{:<10} {:>9.3} {:>11.0} {:>11.2} {:>8.1}% {:>12.3} {:>12.4}\n",
            name,
            p.wns_ns,
            p.power_mw,
            p.area_mm2,
            p.density * 100.0,
            p.vrf_macro_area_mm2,
            p.ava_area_mm2,
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Sensitivity study: MVL extrapolation and cache-size grids
// ----------------------------------------------------------------------

/// The default MVL axis of a sensitivity manifest: the paper's longest
/// configuration plus the Table I extrapolation points.
pub const SENSITIVITY_MVLS: [usize; 3] = [128, 256, 512];

/// The default L2-capacity axis of a sensitivity manifest, in KiB (the
/// paper's 1 MiB flanked by a quarter-size and a quadruple-size L2).
pub const SENSITIVITY_L2_KIB: [usize; 3] = [256, 1024, 4096];

/// The optional extra axes of the sensitivity study, driven by a
/// manifest's `axes` block (`l1_kib`, `dram_bw`, `vmu_bus`, `vvrs`): the
/// driven [`Knob`]s with their values, in axis-table order. A knob left
/// out stays at its Table II default (and out of the grid).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HierarchyAxes(Vec<(Knob, Vec<u64>)>);

impl HierarchyAxes {
    /// Drives `knob` with `values` in place of any earlier values; an
    /// empty `values` leaves it undriven.
    pub fn set(&mut self, knob: Knob, values: Vec<u64>) {
        self.0.retain(|(k, _)| *k != knob);
        if !values.is_empty() {
            self.0.push((knob, values));
            self.0
                .sort_by_key(|(k, _)| Knob::ALL.iter().position(|t| t == k));
        }
    }

    /// The values `knob` is driven with (empty when it is not driven).
    #[must_use]
    pub fn values(&self, knob: Knob) -> &[u64] {
        self.0
            .iter()
            .find(|(k, _)| *k == knob)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    /// Keeps the first `len` values of every axis.
    pub(crate) fn truncate(&mut self, len: usize) {
        for (_, values) in &mut self.0 {
            values.truncate(len);
        }
    }
}

/// Every axis of a sensitivity grid with its values, outermost first: the
/// MVL and L2-capacity axes, then the driven extra axes.
pub(crate) fn sensitivity_axes(
    mvls: &[usize],
    l2_kib: &[usize],
    extra: &HierarchyAxes,
) -> Vec<(Knob, Vec<u64>)> {
    let widen = |values: &[usize]| values.iter().map(|&v| v as u64).collect();
    let mut axes = vec![(Knob::MVL, widen(mvls)), (Knob::L2_KIB, widen(l2_kib))];
    axes.extend(extra.0.iter().cloned());
    axes
}

/// The manifest key of a knob a sensitivity manifest drives.
pub(crate) fn manifest_key(knob: Knob) -> &'static str {
    knob.manifest_key
        .expect("sensitivity axes are knobs with a manifest key")
}

/// The scenario grid of the sensitivity study: the AVA MVL-extrapolation
/// axis crossed with the L2-capacity axis and the optional extra axes,
/// MVL × L2 × L1 × DRAM-bandwidth × VMU-bus-width × VVR-pool, innermost
/// last. Undriven extra axes do not expand the grid.
#[must_use]
pub fn sensitivity_grid_with(
    mvls: &[usize],
    l2_kib: &[usize],
    extra: &HierarchyAxes,
) -> Vec<ScenarioConfig> {
    sensitivity_axes(mvls, l2_kib, extra)
        .iter()
        .filter(|(knob, _)| *knob != Knob::MVL)
        .fold(ScenarioConfig::axis_mvl(mvls), |grid, (knob, values)| {
            ScenarioConfig::axis(&grid, *knob, values)
        })
}

fn axis_value(r: &RunReport, knob: Knob) -> Option<u64> {
    r.axes.iter().find(|a| a.name == knob.name).map(|a| a.value)
}

/// Formats the MVL-extrapolation table for one workload: Table I continued
/// past MVL = 128 (P-VRF growing at the X8 register floor), with cycles and
/// speedup at the reference L2 capacity (the smallest on the grid's L2
/// axis, so the extrapolation is judged under cache pressure). `systems`
/// is the sweep's resolved axis ([`Sweep::resolved_systems`]), parallel to
/// the per-workload `reports` chunk.
#[must_use]
pub fn format_mvl_extrapolation(
    workload: &str,
    systems: &[SystemConfig],
    reports: &[RunReport],
) -> String {
    let ref_l2 = reports
        .iter()
        .filter_map(|r| axis_value(r, Knob::L2_KIB))
        .min();
    let mut rows: Vec<(&SystemConfig, &RunReport)> = systems
        .iter()
        .zip(reports)
        .filter(|(_, r)| axis_value(r, Knob::L2_KIB) == ref_l2)
        .collect();
    // Rows ascend along the MVL axis regardless of `--mvl` input order, so
    // the speedup baseline is always the shortest vector length (matching
    // the cache-sensitivity matrix, which sorts its axes the same way).
    rows.sort_by_key(|(sys, _)| sys.mvl());
    let mut out = format!(
        "Sensitivity ({workload}) — Table I extrapolation at L2={} KiB\n",
        ref_l2.unwrap_or_default()
    );
    out.push_str(&format!(
        "{:>5} {:>7} {:>11} {:>11} {:>14} {:>11} {:>8} {:>4}\n",
        "MVL", "P-regs", "P-VRF(KiB)", "M-VRF(KiB)", "cycles", "time (ms)", "speedup", "ok"
    ));
    let baseline = rows.first().map_or(1, |(_, r)| r.cycles).max(1);
    for (sys, r) in rows {
        let vpu = &sys.vpu;
        out.push_str(&format!(
            "{:>5} {:>7} {:>11} {:>11} {:>14} {:>11.4} {:>8.2} {:>4}\n",
            vpu.mvl,
            vpu.physical_regs(),
            vpu.pvrf_bytes / 1024,
            vpu.mvrf_bytes() / 1024,
            r.cycles,
            r.seconds() * 1e3,
            baseline as f64 / r.cycles as f64,
            if r.validated { "yes" } else { "NO" },
        ));
    }
    out
}

/// Formats the cache-sensitivity matrix for one workload: one row per MVL,
/// one cycles column per L2 capacity on the grid. With extra axes on the
/// grid, each (MVL, L2) cell shows the cycles of the first grid point of
/// that pair ([`format_energy_sensitivity`] sums them instead).
#[must_use]
pub fn format_cache_sensitivity(workload: &str, reports: &[RunReport]) -> String {
    let mut mvls: Vec<u64> = reports
        .iter()
        .filter_map(|r| axis_value(r, Knob::MVL))
        .collect();
    mvls.sort_unstable();
    mvls.dedup();
    let mut l2s: Vec<u64> = reports
        .iter()
        .filter_map(|r| axis_value(r, Knob::L2_KIB))
        .collect();
    l2s.sort_unstable();
    l2s.dedup();

    let mut out = format!("Sensitivity ({workload}) — cycles by MVL and L2 capacity\n");
    out.push_str(&format!("{:>5}", "MVL"));
    for l2 in &l2s {
        out.push_str(&format!(" {:>13}", format!("L2={l2}KiB")));
    }
    out.push('\n');
    for mvl in &mvls {
        out.push_str(&format!("{mvl:>5}"));
        for l2 in &l2s {
            let cell = reports.iter().find(|r| {
                axis_value(r, Knob::MVL) == Some(*mvl) && axis_value(r, Knob::L2_KIB) == Some(*l2)
            });
            match cell {
                Some(r) => out.push_str(&format!(" {:>13}", r.cycles)),
                None => out.push_str(&format!(" {:>13}", "-")),
            }
        }
        out.push('\n');
    }
    out
}

/// The `sensitivity --json` document: the axis vectors (the optional
/// hierarchy axes appear only when driven), the per-point energy breakdowns
/// and the full instrumented sweep. `systems` is the sweep's resolved axis
/// ([`Sweep::resolved_systems`]).
#[must_use]
pub fn sensitivity_json(
    mvls: &[usize],
    l2_kib: &[usize],
    extra: &HierarchyAxes,
    systems: &[SystemConfig],
    run: &SweepRun,
) -> Json {
    let axes = sensitivity_axes(mvls, l2_kib, extra)
        .into_iter()
        .fold(object(), |axes, (knob, values)| {
            axes.field(knob.name, values.into_iter().collect::<Json>())
        });
    object()
        .field("artefact", "sensitivity")
        .field("axes", axes.finish())
        .field("energy", sweep_energy_json(&run.report, systems))
        .field("sweep", run.to_json())
        .finish()
}

// ----------------------------------------------------------------------
// Derived per-point energy in the JSON pipeline
// ----------------------------------------------------------------------

/// One energy breakdown as an ordered JSON object (millijoules).
#[must_use]
pub fn energy_breakdown_json(e: &EnergyBreakdown) -> Json {
    object()
        .field("l2_dynamic_mj", e.l2_dynamic)
        .field("l2_leakage_mj", e.l2_leakage)
        .field("vrf_dynamic_mj", e.vrf_dynamic)
        .field("vrf_leakage_mj", e.vrf_leakage)
        .field("fpu_dynamic_mj", e.fpu_dynamic)
        .field("fpu_leakage_mj", e.fpu_leakage)
        .field("total_mj", e.total())
        .finish()
}

/// The energy-delay product of one point: total energy (mJ) times execution
/// time (s), in mJ·s. Lower is better on both axes at once — the standard
/// figure of merit when trading frequency/width for energy.
#[must_use]
pub fn energy_delay_mj_s(e: &EnergyBreakdown, seconds: f64) -> f64 {
    e.total() * seconds
}

/// The energy per workload element operation of one point, in nanojoules:
/// total energy over [`Workload::elements`]. Comparable across problem
/// sizes, unlike the raw total.
///
/// [`Workload::elements`]: ava_workloads::Workload::elements
#[must_use]
pub fn energy_per_element_nj(e: &EnergyBreakdown, elements: u64) -> f64 {
    // 1 mJ = 1e6 nJ.
    e.total() * 1.0e6 / elements as f64
}

/// The derived per-point energy breakdowns of a sweep, parallel to the
/// sweep's `points` array. `systems` is the sweep's own resolved axis
/// ([`Sweep::resolved_systems`] — already materialised, so nothing is
/// resolved twice); each report is matched to its system by configuration
/// label (not by position, so non-grid sweeps built with
/// [`Sweep::from_points`] price correctly too) and charged against its own
/// hierarchy — the L2-capacity axis scales the L2 macro's leakage and the
/// MVL axis scales the P-VRF macro. Every entry also carries the derived
/// metrics: the energy-delay product and the energy per element operation.
///
/// # Panics
///
/// Panics if a report's configuration label is not among `systems`.
#[must_use]
pub fn sweep_energy_json(report: &SweepReport, systems: &[SystemConfig]) -> Json {
    let params = EnergyParams::default();
    let by_label: BTreeMap<&str, &SystemConfig> =
        systems.iter().map(|sys| (sys.label(), sys)).collect();
    report
        .reports
        .iter()
        .zip(&report.points)
        .map(|(r, p)| {
            let sys = by_label
                .get(r.config.as_str())
                .unwrap_or_else(|| panic!("no scenario labelled {:?} in the sweep axes", r.config));
            let e = energy_breakdown_with_l2(r, &sys.vpu, sys.memory.l2.size_bytes, &params);
            let mut point = object()
                .field("workload", r.workload.as_str())
                .field("config", r.config.as_str())
                .field("energy", energy_breakdown_json(&e))
                .field("energy_delay_mj_s", energy_delay_mj_s(&e, r.seconds()))
                .field(
                    "energy_per_element_nj",
                    energy_per_element_nj(&e, p.elements),
                );
            // Multi-kernel points additionally attribute energy to each
            // phase segment (pipeline stages, unrolled solver iterations):
            // the phase counters partition the run's, so the per-phase
            // dynamic energies sum to the point's.
            if !r.phases.is_empty() {
                let phases = r
                    .phases
                    .iter()
                    .map(|ph| {
                        let pe =
                            phase_energy_breakdown(ph, &sys.vpu, sys.memory.l2.size_bytes, &params);
                        let mut o = object().field("name", ph.name.as_str());
                        if let Some(iter) = ph.iter {
                            o = o.field("iter", iter);
                        }
                        o.field("energy", energy_breakdown_json(&pe)).finish()
                    })
                    .collect::<Json>();
                point = point.field("phases", phases);
            }
            point.finish()
        })
        .collect::<Json>()
}

/// Formats the energy matrix of the sensitivity study for one workload
/// (a sensitivity manifest with output kind `"energy"` or `"all"`): one row
/// per MVL, one total-energy column (millijoules) per L2 capacity on the
/// grid — the text rendering of what [`sweep_energy_json`] emits per point.
/// Points beyond the MVL × L2 plane (extra hierarchy axes) fold into the
/// cell of their (MVL, L2) pair by summation, matching the cycles matrix's
/// convention of one cell per pair.
#[must_use]
pub fn format_energy_sensitivity(
    workload: &str,
    systems: &[SystemConfig],
    reports: &[RunReport],
) -> String {
    let params = EnergyParams::default();
    let by_label: BTreeMap<&str, &SystemConfig> =
        systems.iter().map(|sys| (sys.label(), sys)).collect();
    let mut mvls: Vec<u64> = reports
        .iter()
        .filter_map(|r| axis_value(r, Knob::MVL))
        .collect();
    mvls.sort_unstable();
    mvls.dedup();
    let mut l2s: Vec<u64> = reports
        .iter()
        .filter_map(|r| axis_value(r, Knob::L2_KIB))
        .collect();
    l2s.sort_unstable();
    l2s.dedup();

    let mut out = format!("Sensitivity ({workload}) — total energy (mJ) by MVL and L2 capacity\n");
    out.push_str(&format!("{:>5}", "MVL"));
    for l2 in &l2s {
        out.push_str(&format!(" {:>13}", format!("L2={l2}KiB")));
    }
    out.push('\n');
    for mvl in &mvls {
        out.push_str(&format!("{mvl:>5}"));
        for l2 in &l2s {
            let cell: Vec<&RunReport> = reports
                .iter()
                .filter(|r| {
                    axis_value(r, Knob::MVL) == Some(*mvl)
                        && axis_value(r, Knob::L2_KIB) == Some(*l2)
                })
                .collect();
            if cell.is_empty() {
                out.push_str(&format!(" {:>13}", "-"));
            } else {
                let total: f64 = cell
                    .iter()
                    .map(|r| {
                        let sys = by_label.get(r.config.as_str()).unwrap_or_else(|| {
                            panic!("no scenario labelled {:?} in the sweep axes", r.config)
                        });
                        energy_breakdown_with_l2(r, &sys.vpu, sys.memory.l2.size_bytes, &params)
                            .total()
                    })
                    .sum();
                out.push_str(&format!(" {total:>13.4}"));
            }
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_isa::Lmul;
    use ava_workloads::Workload;

    #[test]
    fn table1_lists_the_eight_configurations() {
        let t = format_table1();
        for v in ["64", "32", "21", "16", "12", "10", "9", "8"] {
            assert!(t.contains(v), "missing {v} in:\n{t}");
        }
    }

    #[test]
    fn table_configs_cover_all_fourteen_systems() {
        let t = format_table_configs();
        assert_eq!(t.lines().count(), 2 + 14);
        assert!(t.contains("AVA X8"));
        assert!(t.contains("RG-LMUL8"));
    }

    #[test]
    fn table5_reports_both_rows() {
        let t = format_table5();
        assert!(t.contains("NATIVE X8"));
        assert!(t.contains("AVA"));
    }

    #[test]
    fn figure3_formatting_includes_every_configuration() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let systems = vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(4)];
        let reports = Sweep::grid(workloads, systems)
            .runner()
            .threads(1)
            .run()
            .into_reports();
        for text in [
            format_memory_breakdown("axpy", &reports),
            format_instruction_mix("axpy", &reports),
            format_performance("axpy", &reports),
            format_energy("axpy", &reports),
        ] {
            assert!(text.contains("NATIVE X1"), "{text}");
            assert!(text.contains("AVA X4"), "{text}");
        }
    }

    #[test]
    fn sensitivity_grid_crosses_both_axes_and_formats_every_cell() {
        let mvls = [128usize, 256];
        let l2s = [512usize, 1024];
        let scenarios = sensitivity_grid_with(&mvls, &l2s, &HierarchyAxes::default());
        assert_eq!(scenarios.len(), 4);
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(512))];
        let sweep = Sweep::grid(workloads, scenarios);
        let run = sweep.runner().threads(1).execute();
        let report = &run.report;

        let mvl_table = format_mvl_extrapolation("axpy", sweep.resolved_systems(), &report.reports);
        // The reference column is the smallest L2 on the axis, and the
        // extrapolated row reports the grown P-VRF at the X8 register floor.
        assert!(mvl_table.contains("L2=512 KiB"), "{mvl_table}");
        assert!(
            mvl_table.contains("\n  256       8          16"),
            "{mvl_table}"
        );

        let cache_table = format_cache_sensitivity("axpy", &report.reports);
        assert!(cache_table.contains("L2=512KiB"), "{cache_table}");
        assert!(cache_table.contains("L2=1024KiB"), "{cache_table}");
        for line in cache_table.lines().skip(2) {
            assert_eq!(line.split_whitespace().count(), 3, "{cache_table}");
        }

        let json = sensitivity_json(
            &mvls,
            &l2s,
            &HierarchyAxes::default(),
            sweep.resolved_systems(),
            &run,
        )
        .to_string();
        assert!(json.starts_with("{\"artefact\":\"sensitivity\""), "{json}");
        assert!(json.contains("\"axes\":{\"mvl\":[128,256],\"l2_kib\":[512,1024]}"));
        assert!(json.contains("\"energy\":["));
        assert!(json.contains("\"energy_delay_mj_s\":"));
        assert!(json.contains("\"energy_per_element_nj\":"));
    }

    #[test]
    fn hierarchy_axes_cross_expand_the_sensitivity_grid() {
        let mut extra = HierarchyAxes::default();
        // Set out of table order: the grid still nests L1 outside DRAM.
        extra.set(Knob::VMU_BUS, vec![32]);
        extra.set(Knob::DRAM_BW, vec![6, 12]);
        extra.set(Knob::L1_KIB, vec![16, 64]);
        extra.set(Knob::VVRS, vec![]);
        let grid = sensitivity_grid_with(&[128], &[1024], &extra);
        assert_eq!(grid.len(), 4);
        assert_eq!(
            grid[0].label(),
            "AVA MVL=128 l2=1024KiB l1=16KiB dram=6B/c bus=32B"
        );
        let resolved = grid[3].resolve();
        assert_eq!(resolved.memory.l1d.size_bytes, 64 * 1024);
        assert_eq!(resolved.memory.dram.bytes_per_cycle, 12);
        assert_eq!(resolved.memory.vmu_bus_bytes, 32);
        // The driven axes surface in the JSON axis block.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let sweep = Sweep::grid(workloads, grid);
        let run = sweep.runner().threads(1).execute();
        let json =
            sensitivity_json(&[128], &[1024], &extra, sweep.resolved_systems(), &run).to_string();
        assert!(json.contains("\"l1_kib\":[16,64]"), "{json}");
        assert!(json.contains("\"dram_bpc\":[6,12]"), "{json}");
        assert!(json.contains("\"vmu_bus\":[32]"), "{json}");
    }

    #[test]
    fn vvr_axis_expands_the_grid_and_surfaces_in_the_json() {
        let mut extra = HierarchyAxes::default();
        extra.set(Knob::VVRS, vec![32, 64]);
        let grid = sensitivity_grid_with(&[128], &[512], &extra);
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].label(), "AVA MVL=128 l2=512KiB vvrs=32");
        assert_eq!(grid[1].resolve().vpu.rename_pool(), 64);
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let sweep = Sweep::grid(workloads, grid);
        let run = sweep.runner().threads(1).execute();
        let json =
            sensitivity_json(&[128], &[512], &extra, sweep.resolved_systems(), &run).to_string();
        assert!(json.contains("\"vvrs\":[32,64]"), "{json}");
    }

    #[test]
    fn energy_matrix_has_one_priced_cell_per_mvl_l2_pair() {
        let scenarios = sensitivity_grid_with(&[128, 256], &[512, 1024], &HierarchyAxes::default());
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(512))];
        let sweep = Sweep::grid(workloads, scenarios);
        let report = sweep.runner().threads(1).run();
        let table = format_energy_sensitivity("axpy", sweep.resolved_systems(), &report.reports);
        assert!(table.contains("total energy (mJ)"), "{table}");
        assert!(
            table.contains("L2=512KiB") && table.contains("L2=1024KiB"),
            "{table}"
        );
        for line in table.lines().skip(2) {
            assert_eq!(line.split_whitespace().count(), 3, "{table}");
            assert!(!line.contains(" -"), "every cell must be priced: {table}");
        }
        assert_eq!(table.lines().count(), 2 + 2);
    }

    #[test]
    fn sweep_energy_json_attributes_phase_energy_for_composites() {
        let workloads: Vec<SharedWorkload> = vec![pipelined_mix(512)];
        let scenarios = vec![ScenarioConfig::ava_x(2)];
        let sweep = Sweep::grid(workloads, scenarios);
        let report = sweep.runner().threads(1).run();
        let json = sweep_energy_json(&report, sweep.resolved_systems()).to_string();
        assert!(json.contains("\"phases\":[{\"name\":\"0:axpy\""), "{json}");
        assert!(json.contains("\"name\":\"1:somier\""), "{json}");
        // Single-kernel points carry no phases array.
        let solo: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let sweep = Sweep::grid(solo, vec![ScenarioConfig::ava_x(2)]);
        let report = sweep.runner().threads(1).run();
        let json = sweep_energy_json(&report, sweep.resolved_systems()).to_string();
        assert!(!json.contains("\"phases\""), "{json}");
    }

    #[test]
    fn pipelined_mix_validates_and_reports_phase_breakdowns() {
        let mix = pipelined_mix(512);
        assert_eq!(mix.name(), "pipelined");
        let report = ava_sim::run_workload(mix.as_ref(), &ScenarioConfig::ava_x(4));
        assert!(report.validated, "{:?}", report.validation_error);
        assert_eq!(report.phases.len(), 3);
        assert_eq!(report.phases[1].name, "1:somier");
        assert_eq!(
            report.phases.iter().map(|p| p.vpu_cycles).sum::<u64>(),
            report.vpu_cycles,
            "phase cycles must partition the run"
        );
    }

    #[test]
    fn solver_mix_validates_and_reports_iteration_breakdowns() {
        let mix = solver_mix(512, 4);
        assert_eq!(mix.name(), "iterated");
        assert_eq!(mix.elements(), 4 * Somier::relaxation(512).elements());
        let report = ava_sim::run_workload(mix.as_ref(), &ScenarioConfig::ava_x(4));
        assert!(report.validated, "{:?}", report.validation_error);
        assert_eq!(report.phases.len(), 4);
        for (k, phase) in report.phases.iter().enumerate() {
            assert_eq!(phase.iter, Some(k));
            assert_eq!(phase.name, format!("it{k}:somier"));
        }
        assert_eq!(
            report.phases.iter().map(|p| p.vpu_cycles).sum::<u64>(),
            report.vpu_cycles,
            "iteration cycles must partition the run"
        );
        // The iteration grouping reaches the JSON pipeline.
        let json = report.to_json().to_string();
        assert!(
            json.contains("\"name\":\"it0:somier\",\"iter\":0,\"phase\":\"somier\""),
            "{json}"
        );
    }

    #[test]
    fn energy_json_prices_the_l2_axis_with_the_scenario_l2() {
        // A quarter-size L2 must leak less than the 4 MiB one: the energy
        // pipeline prices each point against its own resolved hierarchy.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios =
            ScenarioConfig::axis(&[ScenarioConfig::ava_x(1)], Knob::L2_KIB, &[256, 4096]);
        let report = Sweep::grid(workloads, scenarios.clone())
            .runner()
            .threads(1)
            .run();
        let params = EnergyParams::default();
        let leak = |i: usize| {
            let sys = scenarios[i].resolve();
            energy_breakdown_with_l2(
                &report.reports[i],
                &sys.vpu,
                sys.memory.l2.size_bytes,
                &params,
            )
            .l2_leakage
                / report.reports[i].seconds()
        };
        assert!(
            leak(1) > 10.0 * leak(0),
            "4 MiB L2 must leak far more power than 256 KiB: {} vs {}",
            leak(1),
            leak(0)
        );
    }

    #[test]
    fn mvl_extrapolation_rows_sort_by_mvl_regardless_of_input_order() {
        let scenarios = sensitivity_grid_with(&[512, 128], &[512], &HierarchyAxes::default());
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(512))];
        let sweep = Sweep::grid(workloads, scenarios);
        let report = sweep.runner().threads(1).run();
        let table = format_mvl_extrapolation("axpy", sweep.resolved_systems(), &report.reports);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[2].trim_start().starts_with("128"), "{table}");
        assert!(lines[3].trim_start().starts_with("512"), "{table}");
        // The baseline row (smallest MVL) carries speedup 1.00.
        assert!(lines[2].contains("1.00"), "{table}");
    }

    #[test]
    fn sensitivity_workloads_include_the_composite_mix() {
        let pool: Vec<SharedWorkload> = spec::sensitivity_workload_specs()
            .iter()
            .map(|w| MixRegistry::build(w).unwrap())
            .collect();
        let names: Vec<&str> = pool.iter().map(|w| w.name()).collect();
        assert_eq!(names, vec!["axpy", "blackscholes", "somier", "composite"]);
    }

    #[test]
    fn sweep_energy_json_prices_every_point_of_a_grid() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios = vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(4)];
        let sweep = Sweep::grid(workloads, scenarios);
        let report = sweep.runner().threads(1).run();
        let json = sweep_energy_json(&report, sweep.resolved_systems()).to_string();
        assert!(json.contains("\"config\":\"NATIVE X1\""));
        assert!(json.contains("\"config\":\"AVA X4\""));
        assert!(json.contains("\"total_mj\":"));
        let entries = json.matches("\"total_mj\":").count();
        assert_eq!(entries, report.reports.len());
    }

    #[test]
    fn rg_lmul_equivalence_uses_lmul_type() {
        // Guard against accidentally dropping RG configurations from the sweep.
        let labels: Vec<String> = evaluated_systems()
            .iter()
            .map(|s| s.label().to_string())
            .collect();
        for l in Lmul::all() {
            assert!(labels
                .iter()
                .any(|s| s == &format!("RG-LMUL{}", l.factor())));
        }
    }
}
