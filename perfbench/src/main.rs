//! End-to-end benchmark of the simulator's experiment sweeps.
//!
//! ```text
//! perfbench --workload <paper_cold|hierarchy_cold|hierarchy_resume>
//!           --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! `--trace 0` times whole sweeps through `ava_bench::driver::execute` for
//! `--seconds` and prints the end-to-end metrics. `--trace 1` follows each
//! of those sweeps with a pass that re-drives every point with a span
//! around each call into a layer, and prints the per-layer metrics; the
//! spans go to a file below the build directory. The last line of stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`. See
//! README.md for the workloads and the metrics.

mod host;
mod measure;
mod suite;
mod trace;

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

use ava::sim::RunReport;

use measure::{measure, store_dir, Untraced};
use suite::{timed_set_up, Workload};

const USAGE: &str = "perfbench --workload <paper_cold|hierarchy_cold|hierarchy_resume> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_options(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("invalid {flag} value: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|&s| s > 0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let opts = match parse_options(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: {USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(result) => {
            for e in &result.errors {
                eprintln!("perfbench: incorrect: {e}");
            }
            println!("{}", result.line());
            if result.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line's content.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0
    }

    fn line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            // Non-finite values are not JSON; `+ 0.0` turns an empty sum's -0 into 0.
            let value = if value.is_finite() { value + 0.0 } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q` quantile of `values` (nearest rank).
fn quantile(values: &mut [u64], q: f64) -> u64 {
    values.sort_unstable();
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len().max(1));
    values.get(rank - 1).copied().unwrap_or(0)
}

fn run(opts: &Options) -> Result<Outcome, String> {
    let build = host::build_dir()?;
    let scratch = host::ScratchDir::create(build.join(format!(
        "perfbench-scratch/{}-{}",
        opts.workload.name(),
        std::process::id()
    )))?;
    let budget = Duration::from_secs(opts.seconds);
    if !opts.trace {
        let m = measure(
            opts.workload,
            opts.seed,
            scratch.path(),
            budget,
            &mut |_, _| Ok(()),
        )?;
        return end_to_end(m);
    }
    let spans_path = build.join(format!(
        "perfbench-spans/{}-seed{}.jsonl",
        opts.workload.name(),
        opts.seed
    ));
    per_layer(opts, scratch.path(), budget, &spans_path)
}

/// The smallest value: interference from other work on the host only ever
/// adds time, so the fastest of many sweeps is the steadiest estimate of a
/// sweep's own cost.
fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

fn end_to_end(m: Untraced) -> Result<Outcome, String> {
    eprintln!(
        "perfbench: {} sweeps, wall s min {:.4} median {:.4}",
        m.wall_s.len(),
        minimum(&m.wall_s),
        median(&m.wall_s)
    );
    let sim = m.sim.as_ref();
    let sim_u64 = |f: fn(&measure::SimTotals) -> u64| sim.map_or(0.0, |s| f(s) as f64);
    let metrics = vec![
        ("wall_s", minimum(&m.wall_s), "s"),
        ("cpu_s", minimum(&m.cpu_s), "s"),
        ("setup_s", median(&m.setup_s), "s"),
        ("peak_rss_mib", host::peak_rss_mib()?, "MiB"),
        (
            "pass_ratio",
            (m.attempted - m.failed) as f64 / m.attempted.max(1) as f64,
            "ratio",
        ),
        ("sim_cycles", sim_u64(|s| s.cycles), "cycles"),
        ("sim_mem_instrs", sim_u64(|s| s.mem_instrs), "count"),
        ("sim_dram_bytes", sim_u64(|s| s.dram_bytes), "bytes"),
        ("sim_energy_mj", sim.map_or(0.0, |s| s.energy_mj), "mJ"),
    ];
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        errors: m.errors,
        metrics,
    })
}

/// The per-layer sums of one traced pass, parallel to [`LAYERS`].
struct PassSums {
    wall_s: f64,
    layers: Vec<f64>,
}

/// The span names reported as per-layer seconds, with their metric names.
const LAYERS: [(&str, &str); 17] = [
    ("workloads.plan", "workloads.plan_s"),
    ("workloads.build", "workloads.build_s"),
    ("workloads.validate", "workloads.validate_s"),
    ("compiler.compile", "compiler.compile_s"),
    ("memory.new", "memory.new_s"),
    ("memory.warm", "memory.warm_s"),
    ("vpu.new", "vpu.new_s"),
    ("vpu.simulate", "vpu.simulate_s"),
    ("scalar.cost", "scalar.cost_s"),
    ("store.key", "store.key_s"),
    ("store.lookup", "store.lookup_s"),
    ("store.insert", "store.insert_s"),
    ("store.scan", "store.scan_s"),
    ("energy.price", "energy.price_s"),
    ("bench.build", "bench.build_s"),
    ("bench.format", "bench.format_s"),
    ("json.emit", "json.emit_s"),
];

/// What the traced passes of a run gathered.
#[derive(Default)]
struct Traced {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    sums: Vec<PassSums>,
    /// Per pass: traced wall time minus the wall time of the untraced
    /// sweep just before it.
    overhead_s: Vec<f64>,
    first_reports: Vec<(RunReport, bool)>,
    entry_bytes: f64,
    spans_text: String,
}

impl Traced {
    /// Re-drives the grid once on a set-up of its own and checks every
    /// traced report against the untraced sweep `index` of `m`, which ran
    /// just before.
    fn pass(
        &mut self,
        opts: &Options,
        scratch: &Path,
        m: &Untraced,
        index: usize,
    ) -> Result<(), String> {
        let (setup, _) = timed_set_up(
            opts.workload,
            opts.seed,
            store_dir(opts.workload, scratch, &format!("traced-{index}"))?,
        )?;
        let threads = setup.args.threads.unwrap_or(1);
        let pass = trace::redrive(&setup, threads);
        self.attempted += pass.outcomes.len();
        self.failed += pass.failed();
        let errors = &mut self.errors;
        if let Some(reference) = &m.reference {
            for (i, outcome) in pass.outcomes.iter().enumerate() {
                match outcome {
                    Ok((report, _)) if report.to_json().to_string() == reference.reports[i] => {}
                    Ok(_) => {
                        errors.push(format!("traced point {i}: report differs from the sweep's"))
                    }
                    Err(panic) => errors.push(format!("traced point {i} panicked: {panic}")),
                }
            }
            if pass.failed() == 0
                && (pass.stdout != reference.stdout || pass.energy != reference.energy)
            {
                errors.push("traced charts or energy differ from the sweep's".to_string());
            }
        } else {
            errors.push("no untraced sweep to compare the traced pass with".to_string());
        }
        if let Some((owned, _)) = &setup.checkpoint {
            let hits = pass
                .outcomes
                .iter()
                .filter(|o| matches!(o, Ok((_, true))))
                .count();
            if hits != owned.len() {
                errors.push(format!(
                    "traced pass: the store served {hits} points; set-up checkpointed {}",
                    owned.len()
                ));
            }
        }
        if let Some(store) = setup.store() {
            self.entry_bytes = mean_entry_bytes(store.dir());
        }
        for s in &pass.spans {
            let point = s.point.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                self.spans_text,
                "{{\"pass\": {index}, \"name\": \"{}\", \"point\": {point}, \"worker\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.worker, s.start_ns, s.end_ns
            );
        }
        if let Some(&untraced_s) = m.wall_s.last() {
            self.overhead_s.push(pass.wall_s - untraced_s);
        }
        self.sums.push(PassSums {
            wall_s: pass.wall_s,
            layers: LAYERS
                .iter()
                .map(|(span, _)| pass.layer_seconds(span))
                .collect(),
        });
        if self.first_reports.is_empty() {
            self.first_reports = pass.outcomes.into_iter().filter_map(Result::ok).collect();
        }
        Ok(())
    }
}

/// Alternates untraced sweeps with traced passes for `budget`, so both
/// halves of each pair see the same host, and reports the per-layer
/// metrics.
fn per_layer(
    opts: &Options,
    scratch: &Path,
    budget: Duration,
    spans_path: &Path,
) -> Result<Outcome, String> {
    let mut t = Traced::default();
    let mut m = measure(
        opts.workload,
        opts.seed,
        scratch,
        budget,
        &mut |m, index| t.pass(opts, scratch, m, index),
    )?;
    let Traced {
        attempted,
        failed,
        errors,
        sums,
        overhead_s,
        first_reports,
        entry_bytes,
        spans_text,
    } = t;
    let mut errors = [std::mem::take(&mut m.errors), errors].concat();
    let attempted = m.attempted + attempted;
    let failed = m.failed + failed;
    if let Some(dir) = spans_path.parent() {
        fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    fs::write(spans_path, spans_text)
        .map_err(|e| format!("cannot write spans to {}: {e}", spans_path.display()))?;
    eprintln!("perfbench: spans written to {}", spans_path.display());

    // The fastest pass, for the reason `minimum` gives.
    let Some(fastest) = sums.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)) else {
        errors.push("no traced pass ran".to_string());
        return Ok(Outcome {
            attempted,
            failed,
            errors,
            metrics: Vec::new(),
        });
    };
    let mut metrics: Vec<(&'static str, f64, &'static str)> = LAYERS
        .iter()
        .zip(&fastest.layers)
        .map(|((_, metric), &seconds)| (*metric, seconds, "s"))
        .collect();

    let reports = || first_reports.iter().map(|(r, _)| r);
    let simulated = || first_reports.iter().filter(|(_, hit)| !hit).map(|(r, _)| r);
    let sum = |f: &dyn Fn(&RunReport) -> u64| reports().map(f).sum::<u64>() as f64;
    let l2_accesses = sum(&|r| r.mem.l2.accesses());
    let vinstrs = simulated()
        .map(|r| r.vpu.issued_instrs() + r.vpu.config_instrs)
        .sum::<u64>() as f64;
    let simulate_s = metrics
        .iter()
        .find(|(name, _, _)| *name == "vpu.simulate_s")
        .map_or(0.0, |m| m.1);
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.extend([
        (
            "compiler.spill_ops",
            sum(&|r| (r.compiler_spill_loads + r.compiler_spill_stores) as u64),
            "count",
        ),
        ("memory.vmu_bytes", sum(&|r| r.mem.vmu_bytes), "bytes"),
        ("memory.l2_accesses", l2_accesses, "count"),
        (
            "memory.l2_miss_ratio",
            ratio(sum(&|r| r.mem.l2.misses()), l2_accesses),
            "ratio",
        ),
        (
            "memory.dram_accesses",
            sum(&|r| r.mem.dram_accesses),
            "count",
        ),
        ("vpu.vinstrs", vinstrs, "count"),
        (
            "vpu.host_ns_per_vinstr",
            ratio(simulate_s * 1e9, vinstrs),
            "ns",
        ),
        ("vpu.swap_ops", sum(&|r| r.vpu.swap_ops()), "count"),
        ("vpu.spill_ops", sum(&|r| r.vpu.spill_ops()), "count"),
        (
            "vpu.rename_stall_cycles",
            sum(&|r| r.vpu.rename_stall_cycles),
            "cycles",
        ),
        ("store.entry_bytes", entry_bytes, "bytes"),
    ]);

    if let Some(stats) = m.fastest() {
        let busy_s = stats.busy_ns as f64 * 1e-9;
        let mut point_ns = stats.point_wall_ns.clone();
        metrics.extend([
            ("compiler.compiles", stats.compiles as f64, "count"),
            (
                "compiler.cache_hit_ratio",
                ratio(
                    stats.cache_hits as f64,
                    (stats.cache_hits + stats.cache_misses) as f64,
                ),
                "ratio",
            ),
            (
                "store.hit_ratio",
                ratio(
                    stats.store_hits as f64,
                    (stats.store_hits + stats.store_misses) as f64,
                ),
                "ratio",
            ),
            ("sweep.busy_s", busy_s, "s"),
            (
                "sweep.idle_s",
                stats.threads as f64 * stats.wall_ns as f64 * 1e-9 - busy_s,
                "s",
            ),
            ("sweep.steals", stats.steals as f64, "count"),
            (
                "sweep.point_ms_p50",
                quantile(&mut point_ns, 0.5) as f64 * 1e-6,
                "ms",
            ),
            (
                "sweep.point_ms_p90",
                quantile(&mut point_ns, 0.9) as f64 * 1e-6,
                "ms",
            ),
        ]);
    } else {
        errors.push("no untraced sweep completed".to_string());
    }
    metrics.push(("trace.overhead_s", median(&overhead_s), "s"));

    Ok(Outcome {
        attempted,
        failed,
        errors,
        metrics,
    })
}

/// Mean size of the entries in a result-store directory, in bytes.
fn mean_entry_bytes(dir: &Path) -> f64 {
    let sizes: Vec<u64> = fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .filter_map(|e| e.metadata().ok().map(|m| m.len()))
        .collect();
    sizes.iter().sum::<u64>() as f64 / sizes.len().max(1) as f64
}
