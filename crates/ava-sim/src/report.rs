//! Small reporting helpers shared by the benchmark binaries and examples.

use crate::run::RunReport;
use crate::sweep::SweepRun;

/// Speedup of every run relative to the run whose configuration label is
/// `baseline` (the paper normalises to NATIVE X1). Returns
/// `(label, speedup)` pairs in input order.
///
/// # Panics
///
/// Panics if `baseline` is not among the reports.
#[must_use]
pub fn speedup_vs<'a>(reports: &'a [RunReport], baseline: &str) -> Vec<(&'a str, f64)> {
    let base = reports
        .iter()
        .find(|r| r.config == baseline)
        .unwrap_or_else(|| panic!("baseline configuration {baseline} not present"))
        .cycles as f64;
    reports
        .iter()
        .map(|r| (r.config.as_str(), base / r.cycles as f64))
        .collect()
}

/// Geometric mean of a set of strictly positive values (used for the
/// average-speedup summaries).
///
/// # Panics
///
/// Panics if `values` is empty or contains non-positive entries.
#[must_use]
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of an empty set");
    assert!(
        values.iter().all(|v| *v > 0.0),
        "geometric mean requires positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Formats a set of runs as an aligned text table (one row per run) listing
/// cycles, speedup vs the given baseline, instruction breakdown and
/// validation status. Used by the figure-regeneration binaries.
#[must_use]
pub fn format_runs_table(reports: &[RunReport], baseline: &str) -> String {
    let speedups = speedup_vs(reports, baseline);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<12} {:>12} {:>8} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>6} {:>6}\n",
        "config",
        "cycles",
        "speedup",
        "vload",
        "vstore",
        "spill-ld",
        "spill-st",
        "swap-ld",
        "swap-st",
        "%mem",
        "ok"
    ));
    for (r, (_, s)) in reports.iter().zip(speedups.iter()) {
        out.push_str(&format!(
            "{:<12} {:>12} {:>8.2} {:>10} {:>10} {:>9} {:>9} {:>9} {:>9} {:>5.1}% {:>6}\n",
            r.config,
            r.cycles,
            s,
            r.vpu.vloads,
            r.vpu.vstores,
            r.vpu.spill_loads,
            r.vpu.spill_stores,
            r.vpu.swap_loads,
            r.vpu.swap_stores,
            100.0 * r.vpu.memory_fraction(),
            if r.validated { "yes" } else { "NO" },
        ));
    }
    out
}

/// One-line execution summary of a sweep: points, threads, wall/busy time,
/// how many prepared (workload, MVL, LMUL) keys the points shared, how many
/// points were simulated (the rest copied a sibling's report or came from
/// the store), how many distinct reports the points hold and (when a store
/// was attached) how many points the result store served. Printed by the
/// experiment driver after every sweep so incremental runs show what they
/// skipped.
#[must_use]
pub fn format_sweep_summary(run: &SweepRun) -> String {
    let report = &run.report;
    let n = report.points.len();
    let mut out = format!(
        "{} points on {} thread{} in {:.1} ms (busy {:.1} ms); prepared {} key{} for {} point{}; \
         simulated {} of {}; distinct {}/{}",
        n,
        report.threads,
        if report.threads == 1 { "" } else { "s" },
        report.wall_ns as f64 / 1e6,
        report.busy_ns() as f64 / 1e6,
        report.cache_misses,
        if report.cache_misses == 1 { "" } else { "s" },
        n,
        if n == 1 { "" } else { "s" },
        run.simulated(),
        n,
        run.distinct_reports,
        n,
    );
    if report.store_hits + report.store_misses > 0 {
        out.push_str(&format!(
            "; store served {} of {}",
            report.store_hits,
            report.store_hits + report.store_misses
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::{Knob, ScenarioConfig};
    use crate::run::run_workload;
    use crate::sweep::Sweep;
    use ava_workloads::{Axpy, SharedWorkload};
    use std::sync::Arc;

    fn two_reports() -> Vec<RunReport> {
        let w = Axpy::new(256);
        vec![
            run_workload(&w, &ScenarioConfig::native_x(1)),
            run_workload(&w, &ScenarioConfig::native_x(4)),
        ]
    }

    #[test]
    fn speedups_are_relative_to_the_baseline() {
        let reports = two_reports();
        let s = speedup_vs(&reports, "NATIVE X1");
        assert_eq!(s[0].1, 1.0);
        assert!(s[1].1 > 1.0);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn unknown_baseline_panics() {
        let reports = two_reports();
        let _ = speedup_vs(&reports, "NATIVE X9");
    }

    #[test]
    fn geometric_mean_of_known_values() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn geometric_mean_rejects_empty_input() {
        let _ = geometric_mean(&[]);
    }

    #[test]
    fn sweep_summary_mentions_the_store_only_when_attached() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        // NATIVE X2 and AVA X2 share one prepared key. With 48 VVRs
        // against NATIVE's 64 physical registers, neither proves the other.
        let scenarios = vec![
            ScenarioConfig::native_x(2),
            ScenarioConfig::ava_x(2).with(Knob::VVRS, 48),
        ];
        let sweep = Sweep::grid(workloads, scenarios);
        let summary = format_sweep_summary(&sweep.runner().threads(1).execute());
        assert!(summary.starts_with("2 points on 1 thread"), "{summary}");
        assert!(summary.contains("prepared 1 key for 2 points"), "{summary}");
        assert!(!summary.contains("store served"));

        let mut with_store = sweep.runner().threads(1).execute();
        with_store.report.store_hits = 1;
        let summary = format_sweep_summary(&with_store);
        assert!(summary.contains("store served 1 of 1"), "{summary}");
        assert!(summary.contains("simulated 1 of 2"), "{summary}");
    }

    #[test]
    fn table_lists_every_configuration_and_flags_validation() {
        let reports = two_reports();
        let table = format_runs_table(&reports, "NATIVE X1");
        assert!(table.contains("NATIVE X1"));
        assert!(table.contains("NATIVE X4"));
        assert!(table.contains("yes"));
        assert!(!table.contains(" NO"));
    }
}
