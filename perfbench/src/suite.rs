//! The three workloads: their manifests, their seeded problem sizes and
//! their set-up.

use std::time::Instant;

use ava::sim::{ResultStore, Sweep, SweepReport};
use ava::workloads::{kernel_defaults, SharedWorkload};
use ava_bench::cli::BenchArgs;
use ava_bench::spec::{ArtefactKind, ExperimentSpec, MixRegistry};
use ava_bench::{evaluated_systems, sensitivity_grid_with};

use crate::host::ScratchDir;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The Figure 3 grid: 6 kernels x 14 evaluated systems, no store,
    /// 1 worker.
    PaperCold,
    /// 4 sensitivity workloads x 3 MVLs x 12 hierarchy scenarios, no store,
    /// 2 workers.
    HierarchyCold,
    /// A smaller hierarchy grid resumed at 1 worker from a store that
    /// set-up filled with half of the grid.
    HierarchyResume,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::HierarchyCold,
        Workload::HierarchyResume,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::HierarchyCold => "hierarchy_cold",
            Workload::HierarchyResume => "hierarchy_resume",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark's own copy of the manifest, so an edit under
    /// `experiments/` cannot change what is measured.
    fn manifest(self) -> &'static str {
        match self {
            Workload::PaperCold => include_str!("../manifests/paper_cold.json"),
            Workload::HierarchyCold => include_str!("../manifests/hierarchy_cold.json"),
            Workload::HierarchyResume => include_str!("../manifests/hierarchy_resume.json"),
        }
    }

    /// Whether the timed run resumes from a store that set-up filled.
    pub fn resumes(self) -> bool {
        self == Workload::HierarchyResume
    }
}

/// The seed that keeps every kernel at its manifest size.
const DEFAULT_SEED: u64 = 0;

/// Any other seed draws each kernel's size from `default * (1 ± SIZE_BAND)`.
const SIZE_BAND: f64 = 0.04;

/// The problem size `seed` gives `kernel`, whose manifest size is
/// `default`: the same seed always gives the same size.
fn seeded_size(seed: u64, kernel: &str, default: usize) -> usize {
    if seed == DEFAULT_SEED {
        return default;
    }
    let name_hash = kernel.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    // One SplitMix64 step over the seed and the kernel name.
    let mut z = (seed ^ name_hash).wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64;
    let factor = 1.0 - SIZE_BAND + 2.0 * SIZE_BAND * unit;
    ((default as f64 * factor).round() as usize).max(1)
}

/// Everything the timed sweep starts from.
pub struct Setup {
    pub spec: ExperimentSpec,
    /// The grid the driver builds from `spec`, point for point.
    pub sweep: Sweep,
    /// The execution options: the manifest's thread count, plus the store
    /// for a resumed workload.
    pub args: BenchArgs,
    /// The grid points set-up checkpointed into the store, and their
    /// reports (resumed workload only).
    pub checkpoint: Option<(Vec<usize>, SweepReport)>,
    /// The store directory, removed when the set-up is dropped. Declared
    /// after `args` so the store handle goes first.
    _store_dir: Option<ScratchDir>,
}

impl Setup {
    pub fn store(&self) -> Option<&ResultStore> {
        self.args.store.as_ref()
    }
}

/// The half of the grid set-up checkpoints for a resumed workload: every
/// other scenario of each workload row, starting at scenario 0 on even rows
/// and at scenario 1 on odd ones. A fixed half keeps the split of work
/// between store hits and simulated misses the same for every seed; the
/// hash partition of `SweepRunner::shard` moves with the seeded sizes, and
/// with it which expensive points land in the hit half.
fn checkpointed_half(sweep: &Sweep) -> Vec<usize> {
    let scenarios = sweep.systems().len();
    (0..sweep.len())
        .filter(|&i| (i / scenarios + i % scenarios).is_multiple_of(2))
        .collect()
}

/// Builds the spec's workloads and resolves its grid, the construction
/// `ava_bench::driver::execute` repeats inside every sweep.
pub fn build_grid(spec: &ExperimentSpec) -> Result<Sweep, String> {
    let workloads = spec
        .workloads
        .iter()
        .map(MixRegistry::build)
        .collect::<Result<Vec<SharedWorkload>, String>>()?;
    let scenarios = match spec.artefact {
        ArtefactKind::Fig3 => evaluated_systems(),
        ArtefactKind::Sensitivity => {
            sensitivity_grid_with(&spec.axes.mvl, &spec.axes.l2_kib, &spec.axes.extra)
        }
        other => return Err(format!("no benchmark grid for artefact {}", other.as_str())),
    };
    Ok(Sweep::grid(workloads, scenarios))
}

/// Sets `workload` up for one timed sweep: parse the manifest, apply the
/// seed's sizes, build the workloads, resolve the grid and open the
/// execution options. A resumed workload also opens a fresh store under
/// `store_dir` and checkpoints half of the grid into it.
pub fn set_up(
    workload: Workload,
    seed: u64,
    store_dir: Option<ScratchDir>,
) -> Result<Setup, String> {
    let mut spec = ExperimentSpec::parse(workload.name(), workload.manifest())?;
    for entry in &mut spec.workloads {
        let default = entry
            .n
            .or_else(|| kernel_defaults(&entry.name).map(|(n, _)| n))
            .ok_or_else(|| format!("manifest workload {} has no size", entry.name))?;
        entry.n = Some(seeded_size(seed, &entry.name, default));
    }
    let sweep = build_grid(&spec)?;

    let mut cli = Vec::new();
    if let Some(dir) = &store_dir {
        cli.push("--store".to_string());
        cli.push(dir.path().display().to_string());
    }
    let mut args = BenchArgs::from_args(cli)?;
    args.apply_execution(&spec.execution)?;

    let checkpoint = match (workload.resumes(), &args.store) {
        (true, Some(store)) => {
            let scenarios = sweep.systems().len();
            let half = checkpointed_half(&sweep);
            let points = half
                .iter()
                .map(|&i| (i / scenarios, i % scenarios))
                .collect();
            let report =
                Sweep::from_points(sweep.workloads().to_vec(), sweep.systems().to_vec(), points)
                    .runner()
                    .threads(1)
                    .store(store)
                    .run();
            if store.len() != half.len() {
                return Err(format!(
                    "set-up checkpointed {} points but the store holds {} entries",
                    half.len(),
                    store.len()
                ));
            }
            Some((half, report))
        }
        (true, None) => return Err(format!("{} needs a store directory", workload.name())),
        (false, _) => None,
    };
    Ok(Setup {
        spec,
        sweep,
        args,
        checkpoint,
        _store_dir: store_dir,
    })
}

/// [`set_up`] timed, in seconds.
pub fn timed_set_up(
    workload: Workload,
    seed: u64,
    store_dir: Option<ScratchDir>,
) -> Result<(Setup, f64), String> {
    let start = Instant::now();
    let setup = set_up(workload, seed, store_dir)?;
    Ok((setup, start.elapsed().as_secs_f64()))
}
