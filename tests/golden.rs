//! Golden digests: what every committed manifest simulates, pinned in the
//! repository.
//!
//! `experiments/golden/<manifest>.txt` holds one line per point of the
//! manifest's full grid — workload and size, configuration label, scenario
//! axes and the FNV-1a [`Fingerprint`] of the point's `RunReport::to_json`
//! text — followed by the digest of the manifest's stdout. Points the
//! scaled-down grid runs outside the full grid (the ablation shrinks its
//! workloads) follow under a `scale-down` prefix, with the scaled-down
//! stdout digest. A mismatch names the point that moved.
//!
//! The tier-1 tests run each manifest at `scale_down()` and require every
//! line they produce to be in the file. Six of the seven also run their
//! full grid, which must match line for line, stdout included: a model
//! change can move a full-grid point and no scaled-down one. The 972-point
//! `sensitivity_hierarchy` grid is too slow for a debug build, so its
//! tier-1 test instead runs the slice at the last value of every axis,
//! whose points must be full-grid lines. The `#[ignore]`d test
//! (`cargo test --release --test golden -- --ignored`) checks every full
//! grid. Setting `AVA_BLESS_GOLDEN=1` on that run rewrites the files
//! instead; a change to any golden line is a change to what the simulator
//! computes.

use std::path::PathBuf;

use ava::sim::json::Json;
use ava::sim::Knob;
use ava::workloads::Fingerprint;
use ava_bench::cli::BenchArgs;
use ava_bench::driver;
use ava_bench::spec::ExperimentSpec;

/// The committed manifests, by file stem.
const MANIFESTS: [&str; 7] = [
    "ablation_microarch",
    "fig3_extrapolation",
    "fig4_area",
    "sensitivity_energy",
    "sensitivity_hierarchy",
    "sensitivity_vvr",
    "solver_mix",
];

/// Prefix of the lines that belong to the scaled-down run only.
const SCALE_DOWN: &str = "scale-down ";

fn digest(text: &str) -> String {
    let mut h = Fingerprint::new();
    h.write_str(text);
    format!("{:016x}", h.finish())
}

/// The digests of one driver run: a line per simulated point, in document
/// order, and the stdout line.
struct Digests {
    points: Vec<String>,
    stdout: String,
}

/// Collects a line per point of every sweep in a driver document (the
/// ablation nests one sweep per study).
fn collect_points(doc: &Json, lines: &mut Vec<String>) {
    match doc {
        Json::Obj(fields) => {
            for (key, value) in fields {
                if key == "points" {
                    for p in value.as_arr().expect("points is an array") {
                        lines.push(point_line(p));
                    }
                } else {
                    collect_points(value, lines);
                }
            }
        }
        Json::Arr(items) => items.iter().for_each(|v| collect_points(v, lines)),
        _ => {}
    }
}

fn point_line(point: &Json) -> String {
    let report = point.get("report").expect("point carries a report");
    let text = |key: &str| report.get(key).and_then(Json::as_str).unwrap();
    format!(
        "{} n={} | {} | {} | {}",
        text("workload"),
        point.get("elements").and_then(Json::as_u64).unwrap(),
        text("config"),
        report.get("axes").unwrap(),
        digest(&report.to_string())
    )
}

/// Runs the manifest after `shape` has cut its grid.
fn run(manifest: &str, shape: impl FnOnce(&mut ExperimentSpec)) -> Digests {
    let label = format!("experiments/{manifest}.json");
    let text = std::fs::read_to_string(&label).unwrap();
    let mut spec = ExperimentSpec::parse(&label, &text).unwrap();
    shape(&mut spec);
    // Default thread count: the digests must not depend on it. No `--json`
    // and no manifest `output.json` write: `execute` only returns the text.
    let args = BenchArgs::from_args(Vec::new()).unwrap();
    let run = driver::execute(&spec, &args).unwrap();
    let mut points = Vec::new();
    collect_points(&run.document, &mut points);
    assert!(!points.is_empty(), "{label}: the run simulated no point");
    Digests {
        points,
        stdout: format!("stdout {}", digest(&run.stdout)),
    }
}

fn golden_path(manifest: &str) -> PathBuf {
    PathBuf::from(format!("experiments/golden/{manifest}.txt"))
}

/// The committed file's lines, without comments.
fn golden_lines(manifest: &str) -> Vec<String> {
    let path = golden_path(manifest);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{}: {e}", path.display()))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// The file a full and a scaled-down run bless.
fn render(manifest: &str, full: &Digests, scaled: &Digests) -> String {
    let mut out = format!(
        "# Golden digests of experiments/{manifest}.json: workload n=<elements> | config | \
         axes | FNV-1a of the point's RunReport JSON.\n\
         # Regenerate: AVA_BLESS_GOLDEN=1 cargo test --release --test golden -- --ignored\n"
    );
    for line in &full.points {
        out.push_str(line);
        out.push('\n');
    }
    for line in scaled.points.iter().filter(|l| !full.points.contains(l)) {
        out.push_str(SCALE_DOWN);
        out.push_str(line);
        out.push('\n');
    }
    out.push_str(SCALE_DOWN);
    out.push_str(&scaled.stdout);
    out.push('\n');
    out.push_str(&full.stdout);
    out.push('\n');
    out
}

/// The full grid's lines match the file's, line for line, stdout included.
fn check_full_grid(manifest: &str, full: &Digests) {
    let golden = golden_lines(manifest);
    let expected: Vec<&String> = golden
        .iter()
        .filter(|l| !l.starts_with(SCALE_DOWN))
        .collect();
    let actual: Vec<&String> = full.points.iter().chain([&full.stdout]).collect();
    for (i, (want, got)) in expected.iter().zip(&actual).enumerate() {
        assert_eq!(
            want, got,
            "experiments/{manifest}.json line {i} of the full grid moved"
        );
    }
    assert_eq!(
        expected.len(),
        actual.len(),
        "experiments/{manifest}.json: golden and simulated line counts differ"
    );
}

/// Every line of the scaled-down run is a full-grid line or a
/// `scale-down` line of the file.
fn check_scaled_down(manifest: &str) {
    let golden = golden_lines(manifest);
    let scaled = run(manifest, ExperimentSpec::scale_down);
    for line in scaled.points.iter().chain([&scaled.stdout]) {
        let plain = !line.starts_with("stdout ") && golden.contains(line);
        assert!(
            plain || golden.contains(&format!("{SCALE_DOWN}{line}")),
            "experiments/{manifest}.json scaled down: `{line}` is not in {}",
            golden_path(manifest).display()
        );
    }
}

/// The full grid line for line, then the scaled-down run.
fn check(manifest: &str) {
    check_full_grid(manifest, &run(manifest, |_| {}));
    check_scaled_down(manifest);
}

/// Cuts every axis of a sensitivity grid to its last value: the corner of
/// the grid farthest from the scaled-down run's first values.
fn last_value_of_every_axis(spec: &mut ExperimentSpec) {
    let axes = &mut spec.axes;
    axes.mvl.drain(..axes.mvl.len() - 1);
    axes.l2_kib.drain(..axes.l2_kib.len() - 1);
    for knob in Knob::ALL {
        if let Some(&last) = axes.extra.values(knob).last() {
            axes.extra.set(knob, vec![last]);
        }
    }
}

#[test]
fn ablation_microarch_matches_its_golden_digests() {
    check("ablation_microarch");
}

#[test]
fn fig3_extrapolation_matches_its_golden_digests() {
    check("fig3_extrapolation");
}

#[test]
fn fig4_area_matches_its_golden_digests() {
    check("fig4_area");
}

#[test]
fn sensitivity_energy_matches_its_golden_digests() {
    check("sensitivity_energy");
}

#[test]
fn sensitivity_hierarchy_matches_its_golden_digests() {
    check_scaled_down("sensitivity_hierarchy");
    let golden = golden_lines("sensitivity_hierarchy");
    let corner = run("sensitivity_hierarchy", last_value_of_every_axis);
    assert_eq!(corner.points.len(), 4, "one scenario per workload");
    for line in &corner.points {
        assert!(
            golden.contains(line),
            "experiments/sensitivity_hierarchy.json last-value slice: `{line}` is not a \
             full-grid line"
        );
    }
}

#[test]
fn sensitivity_vvr_matches_its_golden_digests() {
    check("sensitivity_vvr");
}

#[test]
fn solver_mix_matches_its_golden_digests() {
    check("solver_mix");
}

/// The full grids, line for line (or, with `AVA_BLESS_GOLDEN=1`, rewrites
/// the files).
#[test]
#[ignore = "full grids: run in release with --ignored"]
fn full_grids_match_their_golden_digests_exactly() {
    let bless = std::env::var_os("AVA_BLESS_GOLDEN").is_some_and(|v| v == "1");
    for manifest in MANIFESTS {
        let full = run(manifest, |_| {});
        if bless {
            let scaled = run(manifest, ExperimentSpec::scale_down);
            std::fs::create_dir_all("experiments/golden").unwrap();
            std::fs::write(golden_path(manifest), render(manifest, &full, &scaled)).unwrap();
            continue;
        }
        check_full_grid(manifest, &full);
        // The scaled-down run is pinned too, as the tier-1 tests pin it.
        check_scaled_down(manifest);
    }
}
