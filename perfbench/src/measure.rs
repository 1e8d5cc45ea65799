//! The untraced runs: timed sweeps through `ava_bench::driver::execute`,
//! the entry the `experiments` binary uses, with their outputs checked.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use ava::sim::Json;
use ava_bench::driver;

use crate::host::{self, ScratchDir};
use crate::suite::{timed_set_up, Setup, Workload};
use crate::trace;

/// The least set-up time one `setup_s` sample sums: a sample repeats the
/// set-up back to back until its set-ups add up to this, and reports their
/// mean. A single `paper_cold` set-up takes well under a millisecond, too
/// short for its time not to hang on timer and cache-state jitter.
const SETUP_SAMPLE: Duration = Duration::from_millis(50);

/// Sweeps timed even when they outlast the time budget.
const MIN_SWEEPS: usize = 3;

/// The outputs a sweep must reproduce exactly, sweep after sweep.
pub struct Outputs {
    /// The chart text the driver prints.
    pub stdout: String,
    /// Each point's `RunReport` JSON, in grid order.
    pub reports: Vec<String>,
    /// The sweep's energy JSON.
    pub energy: String,
}

/// The modelled design's output, summed over the grid.
pub struct SimTotals {
    pub cycles: u64,
    pub mem_instrs: u64,
    pub dram_bytes: u64,
    pub energy_mj: f64,
}

/// A sweep's own instrumentation, read back from its JSON.
pub struct SweepStats {
    pub threads: u64,
    pub steals: u64,
    pub wall_ns: u64,
    pub busy_ns: u64,
    pub compiles: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub store_hits: u64,
    pub store_misses: u64,
    pub point_wall_ns: Vec<u64>,
    pub from_store: Vec<bool>,
}

/// Everything the untraced sweeps of one run measured.
#[derive(Default)]
pub struct Untraced {
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub setup_s: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// The first sweep's outputs, which every later sweep must repeat.
    pub reference: Option<Outputs>,
    pub sim: Option<SimTotals>,
    /// One per timed sweep.
    pub stats: Vec<SweepStats>,
    /// Every correctness failure seen.
    pub errors: Vec<String>,
}

impl Untraced {
    /// The instrumentation of the fastest sweep.
    pub fn fastest(&self) -> Option<&SweepStats> {
        (0..self.wall_s.len())
            .min_by(|&a, &b| self.wall_s[a].total_cmp(&self.wall_s[b]))
            .map(|i| &self.stats[i])
    }
}

/// A fresh store directory named `name` for a resumed workload.
pub fn store_dir(
    workload: Workload,
    scratch: &Path,
    name: &str,
) -> Result<Option<ScratchDir>, String> {
    if !workload.resumes() {
        return Ok(None);
    }
    ScratchDir::create(scratch.join(name)).map(Some)
}

/// Sets `workload` up back to back until the set-ups add up to
/// [`SETUP_SAMPLE`]. Returns the last set-up and the mean seconds of one.
/// Each resumed set-up gets its own fresh store directory.
fn sampled_set_up(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    index: usize,
) -> Result<(Setup, f64), String> {
    let mut total = 0.0;
    for count in 1.. {
        let dir = store_dir(workload, scratch, &format!("store-{index}-{count}"))?;
        let (setup, seconds) = timed_set_up(workload, seed, dir)?;
        total += seconds;
        if total >= SETUP_SAMPLE.as_secs_f64() {
            return Ok((setup, total / count as f64));
        }
    }
    unreachable!("the set-up loop returns once the sample is long enough")
}

/// Times sweeps of `workload`, each from its own set-up, which is one
/// `setup_s` sample, until another round like the last would end after
/// `budget` (and at least [`MIN_SWEEPS`] ran). After each sweep,
/// `after_sweep` gets the measurements so far and the sweep's index; its
/// time counts against `budget`.
pub fn measure(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    budget: Duration,
    after_sweep: &mut dyn FnMut(&Untraced, usize) -> Result<(), String>,
) -> Result<Untraced, String> {
    let mut m = Untraced::default();
    let start = Instant::now();
    for index in 0.. {
        let round = Instant::now();
        let (setup, setup_s) = sampled_set_up(workload, seed, scratch, index)?;
        m.setup_s.push(setup_s);
        let n = setup.sweep.len();
        m.attempted += n;

        let cpu_start = host::cpu_seconds();
        let wall_start = Instant::now();
        // Serialising the document is part of what `experiments --json` pays.
        let run = catch_unwind(AssertUnwindSafe(|| {
            driver::execute(&setup.spec, &setup.args).map(|run| {
                let text = run.document.to_string();
                (run, text)
            })
        }));
        let wall_s = wall_start.elapsed().as_secs_f64();
        let cpu_s = host::cpu_seconds() - cpu_start;
        let (run, _) = match run {
            Ok(result) => result?,
            Err(_) => {
                // A point panicked, or the driver's own validation assert
                // fired: find the failing points one by one.
                let failed = trace::redrive(&setup, 1).failed();
                m.failed += failed.max(1);
                m.errors.push(format!(
                    "sweep {index} panicked; {failed} of {n} points fail when run one by one"
                ));
                break;
            }
        };
        m.wall_s.push(wall_s);
        m.cpu_s.push(cpu_s);

        let (outputs, stats, sim, validated) = read_document(&run.document, run.stdout)?;
        if validated < n {
            m.errors.push(format!(
                "sweep {index}: {} of {n} points failed validation",
                n - validated
            ));
        }
        m.failed += n - validated;
        if workload.resumes() {
            m.errors.extend(check_resume(&setup, &stats, &outputs));
        }
        match &m.reference {
            None => {
                m.reference = Some(outputs);
                m.sim = Some(sim);
            }
            Some(reference) => {
                if !same_outputs(reference, &outputs) {
                    m.errors
                        .push(format!("sweep {index}: outputs differ from sweep 0"));
                }
            }
        }
        m.stats.push(stats);
        drop(setup);
        after_sweep(&m, index)?;
        if start.elapsed() + round.elapsed() > budget && m.wall_s.len() >= MIN_SWEEPS {
            break;
        }
    }
    Ok(m)
}

fn same_outputs(a: &Outputs, b: &Outputs) -> bool {
    a.stdout == b.stdout && a.reports == b.reports && a.energy == b.energy
}

/// The store-served points of a resumed sweep must be exactly the points
/// set-up checkpointed, with the checkpointed reports.
fn check_resume(setup: &Setup, stats: &SweepStats, outputs: &Outputs) -> Vec<String> {
    let mut errors = Vec::new();
    let (owned, checkpoint) = setup
        .checkpoint
        .as_ref()
        .expect("a resumed set-up checkpoints half of the grid");
    let n = setup.sweep.len();
    if stats.store_hits != owned.len() as u64 || stats.store_misses != (n - owned.len()) as u64 {
        errors.push(format!(
            "the store served {} and missed {} points; set-up checkpointed {} of {n}",
            stats.store_hits,
            stats.store_misses,
            owned.len()
        ));
    }
    for (report, &i) in checkpoint.reports.iter().zip(owned) {
        if !stats.from_store[i] || outputs.reports[i] != report.to_json().to_string() {
            errors.push(format!(
                "point {i} was not served as set-up checkpointed it"
            ));
        }
    }
    if let Some(store) = setup.store() {
        if store.len() != n {
            errors.push(format!(
                "after the resume the store holds {} of {n} points",
                store.len()
            ));
        }
    }
    errors
}

fn at<'a>(json: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    path.iter().try_fold(json, |j, key| {
        j.get(key)
            .ok_or_else(|| format!("sweep document has no field {}", path.join(".")))
    })
}

fn u64_at(json: &Json, path: &[&str]) -> Result<u64, String> {
    at(json, path)?
        .as_u64()
        .ok_or_else(|| format!("sweep document field {} is not a count", path.join(".")))
}

/// Reads a driver document: the outputs, the sweep's instrumentation, the
/// simulated totals and the number of validated points.
fn read_document(
    doc: &Json,
    stdout: String,
) -> Result<(Outputs, SweepStats, SimTotals, usize), String> {
    let sweep = at(doc, &["sweep"])?;
    let points = at(sweep, &["points"])?
        .as_arr()
        .ok_or("sweep points is not an array")?;
    let energy = at(doc, &["energy"])?;
    let mut sim = SimTotals {
        cycles: 0,
        mem_instrs: 0,
        dram_bytes: 0,
        energy_mj: 0.0,
    };
    let mut reports = Vec::with_capacity(points.len());
    let mut point_wall_ns = Vec::with_capacity(points.len());
    let mut from_store = Vec::with_capacity(points.len());
    let mut validated = 0;
    for point in points {
        let report = at(point, &["report"])?;
        sim.cycles += u64_at(report, &["cycles"])?;
        sim.mem_instrs += u64_at(report, &["vpu", "memory_instrs"])?;
        sim.dram_bytes += u64_at(report, &["mem", "dram_bytes"])?;
        if at(report, &["validated"])?.as_bool() == Some(true) {
            validated += 1;
        }
        reports.push(report.to_string());
        point_wall_ns.push(u64_at(point, &["wall_ns"])?);
        from_store.push(at(point, &["from_store"])?.as_bool() == Some(true));
    }
    for entry in energy.as_arr().ok_or("sweep energy is not an array")? {
        sim.energy_mj += at(entry, &["energy", "total_mj"])?
            .as_f64()
            .ok_or("energy total_mj is not a number")?;
    }
    let stats = SweepStats {
        threads: u64_at(sweep, &["threads"])?,
        steals: u64_at(sweep, &["steals"])?,
        wall_ns: u64_at(sweep, &["wall_ns"])?,
        busy_ns: u64_at(sweep, &["busy_ns"])?,
        compiles: u64_at(sweep, &["cache", "compiles"])?,
        cache_hits: u64_at(sweep, &["cache", "hits"])?,
        cache_misses: u64_at(sweep, &["cache", "misses"])?,
        store_hits: u64_at(sweep, &["store", "hits"])?,
        store_misses: u64_at(sweep, &["store", "misses"])?,
        point_wall_ns,
        from_store,
    };
    let outputs = Outputs {
        stdout,
        reports,
        energy: energy.to_string(),
    };
    Ok((outputs, stats, sim, validated))
}
