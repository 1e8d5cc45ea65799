//! The parallel experiment-sweep engine.
//!
//! Every figure and table of the paper's evaluation is an embarrassingly
//! parallel fan-out: Figure 3 alone is 6 workloads × 14 system
//! configurations, each point an independent compile + simulate + validate
//! pass. This module runs such grids across all available cores while
//! guaranteeing **bit-identical results to a serial run**:
//!
//! * every point gets a fresh [`MemoryHierarchy`], so no simulation state is
//!   shared;
//! * the only shared structure is the sweep's compile memo, which
//!   compiles each (workload, MVL, register-allocation inputs) key exactly
//!   once — and because [`ava_compiler::compile`] is a pure function of its
//!   inputs, reusing its output cannot change any report;
//! * results are written into per-point slots, so the returned `Vec` is in
//!   grid order regardless of which thread finished first.
//!
//! Execution goes through the builder-style [`SweepRunner`] — thread count,
//! profile-guided scheduling and the on-disk [`ResultStore`] are
//! independent knobs on one `run()` path.
//!
//! # Scheduling
//!
//! Per-point simulation cost is heavily skewed — one large Blackscholes
//! point can cost more than a dozen Axpy points — so claiming points in
//! grid order lets an expensive point picked up last tail the whole sweep.
//! The runner claims longest-processing-time-first instead. Every point
//! gets one **cost estimate** when the sweep starts: its recorded
//! wall-clock from a previous sweep or an attached store where one exists,
//! otherwise [`Workload::elements`] over the configuration's effective
//! width `MVL / LMUL` (narrower width means more strips, hence more dynamic
//! instructions to simulate), rescaled by the median
//! nanoseconds-per-heuristic-unit of the recorded points so the two kinds
//! sort commensurably. The points are sorted once by descending estimate,
//! grid order breaking ties, and the workers claim them in that order
//! through one atomic cursor. The estimate only orders work; results are
//! still reported in grid order and are bit-identical at any thread count
//! and under any estimate.
//!
//! [`Workload::elements`]: ava_workloads::Workload::elements
//!
//! # Incremental sweeps
//!
//! A runner pointed at a [`ResultStore`] consults it before simulating each
//! point and checkpoints every fresh result the moment it finishes:
//! a warm rerun performs zero simulations, a killed sweep resumes where it
//! stopped, and a change to one workload invalidates only that workload's
//! points (the store is keyed by a content fingerprint of the compiled
//! program, planned layout and golden reference). Recorded per-point wall
//! times in the store seed the claim order automatically.
//!
//! Compilations are memoised per sweep only. A store hit still plans and
//! compiles its point (the store key covers the compiled program), so the
//! compile counters of a warm rerun equal those of the cold run.
//!
//! # Instrumentation
//!
//! [`SweepRunner::run`] returns a [`SweepReport`] that wraps the
//! [`RunReport`]s with per-point wall-clock timing, the cost estimate,
//! store provenance and claiming worker of every point, compile-memo and
//! result-store hit/miss counters and the sweep's total wall-clock — the
//! raw material for the `--json` report pipeline and CI wall-clock
//! baselines.
//!
//! The memo also makes the sweep cheaper than the sum of its points: on the
//! full Figure 3 grid, NATIVE Xn, AVA Xn and RG-LMUL1 all compile the same
//! (kernel, LMUL, MVL) combination, so 14 configurations need only 8
//! compilations per workload.
//!
//! ```
//! use ava_sim::{ScenarioConfig, Sweep};
//! use ava_workloads::{Axpy, SharedWorkload, Somier};
//! use std::sync::Arc;
//!
//! let workloads: Vec<SharedWorkload> =
//!     vec![Arc::new(Axpy::new(256)), Arc::new(Somier::new(256))];
//! let sweep = Sweep::grid(workloads, ScenarioConfig::all_ava());
//! let report = sweep.runner().run();
//! assert_eq!(report.reports.len(), 2 * 5);
//! assert!(report.reports.iter().all(|r| r.validated));
//! // Grid order is workload-major: the first five reports are Axpy.
//! assert!(report.reports[..5].iter().all(|r| r.workload == "axpy"));
//! // Every point carries its own timing and cost estimate.
//! assert!(report.points.iter().all(|p| p.cost_estimate > 0));
//! // No store attached: nothing was (or could be) served from disk.
//! assert_eq!(report.store_hits + report.store_misses, 0);
//! ```
//!
//! [`MemoryHierarchy`]: ava_memory::MemoryHierarchy

use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

use ava_compiler::{compile, CompileOptions, CompiledKernel};
use ava_workloads::SharedWorkload;

use crate::configs::{config_axes_key, workload_identity, ScenarioConfig, SystemConfig};
use crate::json::{object, Json};
use crate::run::{run_workload_stored, RunReport};
use crate::store::ResultStore;

/// The static per-point cost heuristic: `elements * 16 / width` (element
/// operations over the effective register width, normalised to the
/// 16-element baseline), floored at 1 so every point carries weight.
///
/// A degenerate scenario override can resolve to an effective width of 0
/// (`MVL / LMUL` truncating to nothing); dividing by it would panic mid-sweep
/// on a worker thread. Such a point is the *narrowest* configuration
/// imaginable — the guard returns the max-cost sentinel so it is scheduled
/// first instead of crashing the sweep.
fn heuristic_points_cost(elements: u64, width: u64) -> u64 {
    match elements.saturating_mul(16).checked_div(width) {
        Some(cost) => cost.max(1),
        None => u64::MAX,
    }
}

/// Key identifying one compilation in a sweep: the workload (by grid index —
/// the kernel IR is a function of the workload and the MVL), the MVL the
/// kernel was stripmined for, and the register-allocation inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    workload: usize,
    mvl: usize,
    lmul_factor: usize,
    spill_base: u64,
    spill_slot_bytes: u64,
}

/// The compile memo shared by every point of a sweep: one slot per key, so
/// each key compiles exactly once however many workers ask for it.
///
/// Keyed on everything that feeds [`ava_compiler::compile`], so a hit is
/// guaranteed to return exactly the bytes a fresh compilation would
/// produce. The first request for a key is its one miss; every later
/// request is a hit, including one that waits on the in-flight compile, so
/// both counters are the same at any thread count.
#[derive(Debug, Default)]
struct ProgramCache {
    entries: Mutex<HashMap<CacheKey, Arc<OnceLock<Arc<CompiledKernel>>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ProgramCache {
    /// Returns the memoised kernel for `key`, compiling it on first use.
    fn get_or_compile(
        &self,
        key: CacheKey,
        kernel: &ava_compiler::IrKernel,
        opts: &CompileOptions,
    ) -> Arc<CompiledKernel> {
        let (slot, first) = {
            let mut entries = self.entries.lock().expect("cache poisoned");
            let first = !entries.contains_key(&key);
            (Arc::clone(entries.entry(key).or_default()), first)
        };
        let counter = if first { &self.misses } else { &self.hits };
        counter.fetch_add(1, Ordering::Relaxed);
        // The compile runs outside the map lock: distinct keys never
        // serialise on one long compilation, and a second request for this
        // key blocks on the slot until the first one fills it.
        Arc::clone(slot.get_or_init(|| Arc::new(compile(kernel, opts))))
    }

    /// Number of compile requests served from the memo.
    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of distinct keys compiled (`hits() + misses()` is the number
    /// of compile requests).
    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Scheduling and timing metadata for one executed sweep point. Parallel to
/// [`SweepReport::reports`], in grid order.
#[derive(Debug, Clone)]
pub struct PointStats {
    /// Workload name of the point ("axpy", ...).
    pub workload: String,
    /// Configuration label of the point ("AVA X4", ...).
    pub config: String,
    /// The point's cost estimate, fixed when the sweep started: the
    /// recorded wall-clock of a previous sweep under
    /// [`SweepRunner::recorded_costs`] / an attached store where one
    /// exists, otherwise workload element operations over the
    /// configuration's effective width, rescaled by the median
    /// nanoseconds-per-heuristic-unit of the recorded points. Orders
    /// execution only.
    pub cost_estimate: u64,
    /// The workload's element-operation count ([`Workload::elements`]) —
    /// the denominator of derived per-element metrics such as
    /// energy-per-element.
    ///
    /// [`Workload::elements`]: ava_workloads::Workload::elements
    pub elements: u64,
    /// Wall-clock time of the compile + simulate + validate pass, in
    /// nanoseconds. For a point served from the result store this is the
    /// plan + compile + lookup time — the simulation itself never ran.
    pub wall_ns: u64,
    /// Index of the worker thread that executed the point (`0` for a serial
    /// run).
    pub worker: usize,
    /// Whether the point's report was served from the attached
    /// [`ResultStore`] instead of being simulated (always `false` without a
    /// store).
    pub from_store: bool,
}

/// An executed sweep: the bit-identical-to-serial [`RunReport`]s plus the
/// instrumentation CI and downstream plotting consume.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One report per point, in grid order.
    pub reports: Vec<RunReport>,
    /// Per-point scheduling/timing metadata, parallel to `reports`.
    pub points: Vec<PointStats>,
    /// Compile requests served from the sweep's compile memo.
    pub cache_hits: u64,
    /// Distinct compilations the memo performed (`cache_hits +
    /// cache_misses` is the total number of requests). The same at any
    /// thread count.
    pub cache_misses: u64,
    /// Always 0: there is no on-disk compile tier. Kept so the report's
    /// field set and JSON keys stay stable.
    pub cache_disk_hits: u64,
    /// Always 0, like [`SweepReport::cache_disk_hits`].
    pub cache_disk_misses: u64,
    /// Compilations performed; always equal to
    /// [`SweepReport::cache_misses`].
    pub compiles: u64,
    /// Points served from the attached result store (0 without a store).
    pub store_hits: u64,
    /// Points simulated because the attached store had no usable entry
    /// (0 without a store — an uncached sweep reports no misses).
    pub store_misses: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Always 0: workers claim from one shared cursor and never steal.
    /// Kept so the report's field set and JSON keys stay stable.
    pub steals: u64,
    /// Always `None`: every run covers the whole grid. Kept so the
    /// report's field set and JSON keys stay stable.
    pub shard: Option<(usize, usize)>,
    /// Wall-clock time of the whole sweep, in nanoseconds.
    pub wall_ns: u64,
}

impl SweepReport {
    /// Drops the instrumentation, keeping only the per-point reports.
    #[must_use]
    pub fn into_reports(self) -> Vec<RunReport> {
        self.reports
    }

    /// Sum of the per-point wall-clock times (the cost a serial run would
    /// pay; compare with [`SweepReport::wall_ns`] for effective speedup).
    #[must_use]
    pub fn busy_ns(&self) -> u64 {
        self.points.iter().map(|p| p.wall_ns).sum()
    }

    /// Names of the scenario axes exercised anywhere in the sweep, in
    /// first-appearance order (empty when every point is a plain preset).
    #[must_use]
    pub fn axis_names(&self) -> Vec<&'static str> {
        let mut names = Vec::new();
        for r in &self.reports {
            for a in &r.axes {
                if !names.contains(&a.name) {
                    names.push(a.name);
                }
            }
        }
        names
    }

    /// The machine-readable form of the sweep consumed by CI and plotting:
    /// schema marker, the scenario axes in play, scheduling/cache/store
    /// instrumentation, and the full per-point reports (each carrying its
    /// own axis values).
    #[must_use]
    pub fn to_json(&self) -> Json {
        object()
            .field("schema", "ava-sweep-report/v1")
            .field(
                "axes",
                self.axis_names()
                    .into_iter()
                    .map(Json::from)
                    .collect::<Json>(),
            )
            .field("threads", self.threads)
            .field("steals", self.steals)
            .field("shard", Json::Null)
            .field("wall_ns", self.wall_ns)
            .field("busy_ns", self.busy_ns())
            .field(
                "cache",
                object()
                    .field("hits", self.cache_hits)
                    .field("misses", self.cache_misses)
                    .field("disk_hits", self.cache_disk_hits)
                    .field("disk_misses", self.cache_disk_misses)
                    .field("compiles", self.compiles)
                    .finish(),
            )
            .field(
                "store",
                object()
                    .field("hits", self.store_hits)
                    .field("misses", self.store_misses)
                    .finish(),
            )
            .field(
                "points",
                self.points
                    .iter()
                    .zip(&self.reports)
                    .map(|(p, r)| {
                        object()
                            .field("workload", p.workload.as_str())
                            .field("config", p.config.as_str())
                            .field("cost_estimate", p.cost_estimate)
                            .field("elements", p.elements)
                            .field("wall_ns", p.wall_ns)
                            .field("worker", p.worker)
                            .field("from_store", p.from_store)
                            .field("report", r.to_json())
                            .finish()
                    })
                    .collect::<Json>(),
            )
            .finish()
    }
}

/// A declarative grid of (workload, [`ScenarioConfig`]) experiment points.
///
/// Construct with [`Sweep::grid`] (full cross product) or
/// [`Sweep::from_points`] (explicit pairs), then execute through the
/// [`Sweep::runner`] builder. All execution paths return per-point results
/// in point order and are guaranteed to produce identical reports.
/// Scenarios are resolved once, at construction, so the per-point cost is
/// one compile + simulate pass — and construction rejects two points with
/// the same `(workload name + size, configuration)` identity, which would
/// make recorded-cost replay and the store's timing metadata ambiguous.
pub struct Sweep {
    workloads: Vec<SharedWorkload>,
    scenarios: Vec<ScenarioConfig>,
    resolved: Vec<SystemConfig>,
    points: Vec<(usize, usize)>,
}

impl Sweep {
    /// The full cross product of `workloads` × `scenarios`, workload-major:
    /// point `w * scenarios.len() + s` runs workload `w` on scenario `s`.
    ///
    /// # Panics
    ///
    /// Panics if two points share one `(workload name + size, configuration)`
    /// identity — e.g. two workloads with the same `name()` and element
    /// count crossed with one scenario list.
    #[must_use]
    pub fn grid(workloads: Vec<SharedWorkload>, scenarios: Vec<ScenarioConfig>) -> Self {
        let points = (0..workloads.len())
            .flat_map(|w| (0..scenarios.len()).map(move |s| (w, s)))
            .collect();
        Self::build(workloads, scenarios, points)
    }

    /// An explicit list of `(workload index, scenario index)` points over
    /// the given axes, for sweeps that are not a full cross product (e.g.
    /// the ablation study, which varies one system parameter per point).
    ///
    /// # Panics
    ///
    /// Panics if any point indexes outside `workloads` or `scenarios`, or
    /// if two points share one `(workload name + size, configuration)`
    /// identity.
    #[must_use]
    pub fn from_points(
        workloads: Vec<SharedWorkload>,
        scenarios: Vec<ScenarioConfig>,
        points: Vec<(usize, usize)>,
    ) -> Self {
        for &(w, s) in &points {
            assert!(w < workloads.len(), "workload index {w} out of range");
            assert!(s < scenarios.len(), "scenario index {s} out of range");
        }
        Self::build(workloads, scenarios, points)
    }

    fn build(
        workloads: Vec<SharedWorkload>,
        scenarios: Vec<ScenarioConfig>,
        points: Vec<(usize, usize)>,
    ) -> Self {
        let resolved: Vec<SystemConfig> = scenarios.iter().map(ScenarioConfig::resolve).collect();
        // Every point must have a unique (workload ⊕ size, config ⊕ axes)
        // identity: it is the key of recorded-cost replay and of the result
        // store's timing metadata, so a duplicate would make one point's
        // schedule speak for another. Neither half is a display string —
        // metadata axes like `iters` stay out of the config label by
        // design, and one kernel legitimately appears at several problem
        // sizes in skewed grids — hence the canonical keys.
        let mut seen: HashMap<(String, String), usize> = HashMap::new();
        for (i, &(w, s)) in points.iter().enumerate() {
            let identity = (
                workload_identity(workloads[w].name(), workloads[w].elements() as u64),
                config_axes_key(resolved[s].label(), &resolved[s].axes),
            );
            if let Some(&first) = seen.get(&identity) {
                panic!(
                    "duplicate sweep point: points {first} and {i} are both \
                     workload {:?} on configuration {:?} — give the workloads \
                     distinct names or sizes, or the scenarios distinct axes",
                    identity.0, identity.1
                );
            }
            seen.insert(identity, i);
        }
        Self {
            workloads,
            scenarios,
            resolved,
            points,
        }
    }

    /// Number of experiment points in the sweep.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the sweep contains no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The scenario axis, in the order grid points reference it.
    #[must_use]
    pub fn systems(&self) -> &[ScenarioConfig] {
        &self.scenarios
    }

    /// The resolved systems, parallel to [`Sweep::systems`].
    #[must_use]
    pub fn resolved_systems(&self) -> &[SystemConfig] {
        &self.resolved
    }

    /// The workload axis, in the order grid points reference it.
    #[must_use]
    pub fn workloads(&self) -> &[SharedWorkload] {
        &self.workloads
    }

    /// Starts configuring an execution of this sweep: thread count,
    /// profile-guided scheduling and the result store are independent
    /// builder knobs, finished with [`SweepRunner::run`].
    #[must_use]
    pub fn runner(&self) -> SweepRunner<'_> {
        SweepRunner {
            sweep: self,
            threads: None,
            recorded: HashMap::new(),
            store: None,
        }
    }

    /// The static cost heuristic for one point — the workload's
    /// element-operation count divided by the configuration's effective
    /// register width (`MVL / LMUL`, normalised to the 16-element
    /// baseline). A narrower effective width means more strips and
    /// therefore more dynamic instructions to simulate for the same element
    /// count, so narrow-width points (NATIVE X1, the spill-heavy RG-LMUL8)
    /// rank as expensive — matching recorded per-point wall-clock. A
    /// heuristic — it orders execution so skewed points start early, and
    /// can never change a result. Recorded costs fed through
    /// [`SweepRunner::recorded_costs`] or an attached store replace it
    /// point by point.
    #[must_use]
    pub fn point_cost(&self, point: usize) -> u64 {
        self.heuristic_cost(point)
    }

    /// The scheduling identity of one point: the workload name plus element
    /// count, and the canonical config-plus-axes key.
    fn point_identity(&self, point: usize) -> (String, String) {
        let (w, s) = self.points[point];
        (
            workload_identity(
                self.workloads[w].name(),
                self.workloads[w].elements() as u64,
            ),
            config_axes_key(self.resolved[s].label(), &self.resolved[s].axes),
        )
    }

    /// The recorded wall-clock for one point's identity, if `recorded`
    /// has seen it.
    fn recorded_cost_in(
        &self,
        point: usize,
        recorded: &HashMap<(String, String), u64>,
    ) -> Option<u64> {
        // Guarded so the common no-feedback path stays allocation-free.
        if recorded.is_empty() {
            return None;
        }
        recorded.get(&self.point_identity(point)).copied()
    }

    /// The static cost heuristic for one point (element operations over the
    /// effective width).
    fn heuristic_cost(&self, point: usize) -> u64 {
        let (w, s) = self.points[point];
        let system = &self.resolved[s];
        let elements = self.workloads[w].elements() as u64;
        let width = (system.mvl() / system.compiler_lmul.factor()) as u64;
        heuristic_points_cost(elements, width)
    }

    /// The cost estimates of every point, computed once per sweep
    /// execution: recorded wall-clock where `recorded` has the point's
    /// identity, the static heuristic rescaled into nanoseconds otherwise
    /// ([`cost_estimates`]). [`Workload::elements`] can be arbitrarily
    /// expensive (composite workloads sum their phases), so the estimates
    /// are computed once, not per claim.
    ///
    /// [`Workload::elements`]: ava_workloads::Workload::elements
    fn point_costs(&self, recorded: &HashMap<(String, String), u64>) -> Vec<u64> {
        let points = 0..self.points.len();
        let heuristic: Vec<u64> = points.clone().map(|i| self.heuristic_cost(i)).collect();
        let recorded: Vec<Option<u64>> =
            points.map(|i| self.recorded_cost_in(i, recorded)).collect();
        cost_estimates(&heuristic, &recorded)
    }

    #[cfg(test)]
    fn run_point(&self, point: usize, cache: &ProgramCache) -> RunReport {
        self.run_point_stored(point, cache, None).0
    }

    /// Runs one point through the shared compile memo, consulting `store`
    /// when attached. Returns the report and whether it came from the
    /// store.
    fn run_point_stored(
        &self,
        point: usize,
        cache: &ProgramCache,
        store: Option<&ResultStore>,
    ) -> (RunReport, bool) {
        let (w, s) = self.points[point];
        let workload = &self.workloads[w];
        let system = &self.resolved[s];
        run_workload_stored(
            workload.as_ref(),
            system,
            &|kernel, opts| {
                let key = CacheKey {
                    workload: w,
                    mvl: system.mvl(),
                    lmul_factor: opts.lmul.factor(),
                    spill_base: opts.spill_base,
                    spill_slot_bytes: opts.spill_slot_bytes,
                };
                cache.get_or_compile(key, kernel, opts)
            },
            store,
        )
    }
}

/// The median of a sorted slice of observations, or 1.0 when empty (the
/// heuristic is then internally consistent without rescaling).
fn sorted_median(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    let mid = ratios.len() / 2;
    if ratios.len() % 2 == 1 {
        ratios[mid]
    } else {
        f64::midpoint(ratios[mid - 1], ratios[mid])
    }
}

/// Per-point cost estimates from the static `heuristic` costs and the
/// `recorded` wall-clock times covering part (or none) of the grid.
///
/// A recorded point keeps its nanoseconds. An unrecorded point's heuristic
/// is rescaled by the median nanoseconds-per-heuristic-unit of the recorded
/// points: raw element counts and wall-clock nanoseconds are not
/// commensurable, and without the rescale one new grid point would sort
/// arbitrarily against every measured point. The zero-width max-cost
/// sentinel is not a real unit count, so it never feeds the median; `f64 as
/// u64` saturates, so it stays the maximum after rescaling.
fn cost_estimates(heuristic: &[u64], recorded: &[Option<u64>]) -> Vec<u64> {
    let mut ratios: Vec<f64> = heuristic
        .iter()
        .zip(recorded)
        .filter(|&(&h, _)| h != u64::MAX)
        .filter_map(|(&h, &ns)| Some(ns? as f64 / h.max(1) as f64))
        .collect();
    ratios.sort_by(f64::total_cmp);
    let scale = sorted_median(&ratios);
    heuristic
        .iter()
        .zip(recorded)
        .map(|(&h, &ns)| ns.unwrap_or_else(|| ((h as f64 * scale).round() as u64).max(1)))
        .collect()
}

/// Indices into `costs` in claim order: descending cost, index order
/// breaking ties (longest processing time first).
fn execution_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (Reverse(costs[i]), i));
    order
}

/// Builder-style execution of one [`Sweep`]: configure the thread count
/// ([`SweepRunner::threads`]), profile-guided scheduling
/// ([`SweepRunner::recorded_costs`]) and the on-disk result store
/// ([`SweepRunner::store`]) independently, then [`SweepRunner::run`].
///
/// ```no_run
/// # use ava_sim::{ResultStore, ScenarioConfig, Sweep};
/// # use ava_workloads::Axpy;
/// # let sweep = Sweep::grid(
/// #     vec![std::sync::Arc::new(Axpy::new(256))],
/// #     ScenarioConfig::all_ava(),
/// # );
/// let store = ResultStore::open("results").unwrap();
/// let first = sweep.runner().threads(4).store(&store).run();
/// // Later sweeps reuse both the stored results and the recorded timings.
/// let again = sweep
///     .runner()
///     .recorded_costs(&first)
///     .store(&store)
///     .run();
/// assert_eq!(again.store_hits, again.points.len() as u64);
/// ```
pub struct SweepRunner<'a> {
    sweep: &'a Sweep,
    threads: Option<usize>,
    recorded: HashMap<(String, String), u64>,
    store: Option<&'a ResultStore>,
}

impl<'a> SweepRunner<'a> {
    /// Caps the sweep at `threads` worker threads (further clamped to the
    /// number of points; `0` behaves like `1`). Without this the runner
    /// uses every available core.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Profile-guided scheduling: feeds a previous sweep's measured
    /// per-point wall-clock back into this run's execution order. Points
    /// whose `(workload, configuration)` identity appears in `report` are
    /// ordered by the recorded nanoseconds instead of the static
    /// [`Workload::elements`] heuristic; unseen points fall back to the
    /// heuristic, *rescaled into the recorded unit* so a new grid point
    /// sorts commensurably against the measured ones rather than
    /// arbitrarily. Calling this several times (or combining it with an
    /// attached store, whose recorded wall times join the same map) keeps
    /// the *largest* recorded time per identity, so an ambiguous point is
    /// scheduled early rather than risking it tailing the sweep. Like the
    /// heuristic, recorded costs only order execution and can never change
    /// a result.
    ///
    /// [`Workload::elements`]: ava_workloads::Workload::elements
    #[must_use]
    pub fn recorded_costs(mut self, report: &SweepReport) -> Self {
        for (p, r) in report.points.iter().zip(&report.reports) {
            let key = (
                workload_identity(&p.workload, p.elements),
                config_axes_key(&p.config, &r.axes),
            );
            let entry = self.recorded.entry(key).or_insert(0);
            *entry = (*entry).max(p.wall_ns.max(1));
        }
        self
    }

    /// Attaches the on-disk result store: points with a usable entry are
    /// served from it instead of being simulated, every freshly simulated
    /// point is checkpointed into it as it finishes, and the store's
    /// recorded wall times seed the execution order (largest time wins when
    /// they overlap with [`SweepRunner::recorded_costs`]).
    #[must_use]
    pub fn store(mut self, store: &'a ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Explicit recorded costs and the store's recorded wall times,
    /// max-merged into one scheduling map.
    fn merged_recorded(&self) -> HashMap<(String, String), u64> {
        let mut recorded = self.recorded.clone();
        if let Some(store) = self.store {
            for (key, wall_ns) in store.recorded_costs() {
                let entry = recorded.entry(key).or_insert(0);
                *entry = (*entry).max(wall_ns);
            }
        }
        recorded
    }

    /// The whole grid's cost estimates as this run would order it.
    #[cfg(test)]
    fn effective_costs(&self) -> Vec<u64> {
        self.sweep.point_costs(&self.merged_recorded())
    }

    /// Executes the sweep. Results come back in point order and are
    /// bit-identical at any thread count, with or without a store, and
    /// under any cost estimates.
    #[must_use]
    pub fn run(self) -> SweepReport {
        let sweep = self.sweep;
        let n = sweep.points.len();
        let requested = self.threads.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let workers = requested.clamp(1, n.max(1));
        let cache = ProgramCache::default();
        let costs = sweep.point_costs(&self.merged_recorded());
        let order = execution_order(&costs);
        let cursor = AtomicUsize::new(0);
        let store = self.store;
        let sweep_start = Instant::now();
        // (report, from_store, wall_ns, worker)
        type PointSlot = (RunReport, bool, u64, usize);
        let slots: Vec<OnceLock<PointSlot>> = (0..n).map(|_| OnceLock::new()).collect();
        let work = |worker: usize| {
            // Each claim takes the next slot of `order`. The cursor publishes
            // no data (results travel through `slots` and the scope join),
            // so a relaxed counter suffices.
            while let Some(&point) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let point_start = Instant::now();
                let (report, from_store) = sweep.run_point_stored(point, &cache, store);
                let wall_ns = point_start.elapsed().as_nanos() as u64;
                slots[point]
                    .set((report, from_store, wall_ns, worker))
                    .expect("each point is claimed by one worker");
            }
        };
        if workers == 1 {
            work(0);
        } else {
            thread::scope(|scope| {
                for worker in 0..workers {
                    let work = &work;
                    scope.spawn(move || work(worker));
                }
            });
        }

        let mut reports = Vec::with_capacity(n);
        let mut points = Vec::with_capacity(n);
        for (point, slot) in slots.into_iter().enumerate() {
            let (report, from_store, wall_ns, worker) =
                slot.into_inner().expect("every point completed");
            points.push(PointStats {
                workload: report.workload.clone(),
                config: report.config.clone(),
                cost_estimate: costs[point],
                elements: sweep.workloads[sweep.points[point].0].elements() as u64,
                wall_ns,
                worker,
                from_store,
            });
            reports.push(report);
        }
        let store_hits = points.iter().filter(|p| p.from_store).count() as u64;
        let store_misses = if store.is_some() {
            n as u64 - store_hits
        } else {
            0
        };
        SweepReport {
            reports,
            points,
            cache_hits: cache.hits(),
            cache_misses: cache.misses(),
            cache_disk_hits: 0,
            cache_disk_misses: 0,
            compiles: cache.misses(),
            store_hits,
            store_misses,
            threads: workers,
            steals: 0,
            shard: None,
            wall_ns: sweep_start.elapsed().as_nanos() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ava_isa::Lmul;
    use ava_workloads::{Axpy, Blackscholes, Workload};

    fn small_scenarios() -> Vec<ScenarioConfig> {
        vec![
            ScenarioConfig::native_x(1),
            ScenarioConfig::ava_x(2),
            ScenarioConfig::rg_lmul(Lmul::M4),
        ]
    }

    fn small_axes() -> (Vec<SharedWorkload>, Vec<ScenarioConfig>) {
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Blackscholes::new(64))];
        (workloads, small_scenarios())
    }

    #[test]
    fn grid_is_workload_major_and_complete() {
        let (w, s) = small_axes();
        let reports = Sweep::grid(w, s).runner().threads(1).run().into_reports();
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[0].workload, "axpy");
        assert_eq!(reports[2].workload, "axpy");
        assert_eq!(reports[3].workload, "blackscholes");
        assert_eq!(reports[0].config, "NATIVE X1");
        assert_eq!(reports[4].config, "AVA X2");
        assert!(reports.iter().all(|r| r.validated));
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);
        let serial = sweep.runner().threads(1).run().into_reports();
        for threads in [2, 7] {
            let parallel = sweep.runner().threads(threads).run().into_reports();
            assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.cycles, b.cycles, "{} on {}", a.workload, a.config);
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "full report must match");
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate sweep point")]
    fn duplicate_point_identities_are_rejected_at_construction() {
        // Two workloads with the same name() crossed with one scenario are
        // indistinguishable to recorded-cost replay and the result store.
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Axpy::new(256))];
        let _ = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
    }

    #[test]
    fn metadata_axes_disambiguate_identical_labels() {
        // with_iters stays out of the config label by design, so these two
        // scenarios *display* identically — but the axes make their point
        // identities distinct, so the grid is accepted.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios = vec![
            ScenarioConfig::ava_x(2).with_iters(2),
            ScenarioConfig::ava_x(2).with_iters(4),
        ];
        assert_eq!(scenarios[0].label(), scenarios[1].label());
        let sweep = Sweep::grid(workloads, scenarios);
        assert_ne!(sweep.point_identity(0), sweep.point_identity(1));
    }

    #[test]
    fn execution_order_starts_with_the_most_expensive_point() {
        let workloads: Vec<SharedWorkload> = vec![
            Arc::new(Axpy::new(64)),
            Arc::new(Blackscholes::new(4096)),
            Arc::new(ava_workloads::Somier::new(16)),
        ];
        let systems = vec![ScenarioConfig::native_x(1)];
        let sweep = Sweep::grid(workloads, systems);
        let order = execution_order(&sweep.runner().effective_costs());
        assert_eq!(order[0], 1, "the huge Blackscholes point must start first");
        assert_eq!(
            sweep.point_cost(1),
            sweep
                .point_cost(1)
                .max(sweep.point_cost(0))
                .max(sweep.point_cost(2))
        );
    }

    #[test]
    fn recorded_costs_reorder_execution_without_changing_results() {
        // The static heuristic ranks the big Blackscholes first; recorded
        // wall-clock claiming Axpy is the slow point must flip the order —
        // and the reports must stay bit-identical either way.
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(128)), Arc::new(Blackscholes::new(1024))];
        let systems = vec![ScenarioConfig::native_x(1)];
        let sweep = Sweep::grid(workloads, systems);
        let baseline = sweep.runner().threads(1).run();
        assert_eq!(
            execution_order(&sweep.runner().effective_costs()),
            vec![1, 0]
        );

        // Forge a report claiming the Axpy point took far longer.
        let mut forged = baseline.clone();
        forged.points[0].wall_ns = 1_000_000_000;
        forged.points[1].wall_ns = 1_000;
        let tuned = sweep.runner().recorded_costs(&forged);
        let costs = tuned.effective_costs();
        assert_eq!(costs, vec![1_000_000_000, 1_000]);
        assert_eq!(execution_order(&costs), vec![0, 1]);

        let retimed = tuned.threads(2).run();
        for (a, b) in baseline.reports.iter().zip(&retimed.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "results must not move");
        }
        // The recorded costs surface as the new points' cost estimates.
        assert_eq!(retimed.points[0].cost_estimate, 1_000_000_000);
    }

    #[test]
    fn recorded_costs_key_on_axes_not_just_labels() {
        // Two scenarios sharing one display label (the iters metadata axis
        // stays out of it) must not alias in recorded-cost replay.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let scenarios = vec![
            ScenarioConfig::ava_x(2).with_iters(2),
            ScenarioConfig::ava_x(2).with_iters(4),
        ];
        let sweep = Sweep::grid(workloads, scenarios);
        let mut forged = sweep.runner().threads(1).run();
        forged.points[0].wall_ns = 9_000;
        forged.points[1].wall_ns = 70;
        let costs = sweep.runner().recorded_costs(&forged).effective_costs();
        assert_eq!(
            costs,
            vec![9_000, 70],
            "label-only keying would have max-merged both points to 9000"
        );
    }

    #[test]
    fn heuristic_cost_guards_the_degenerate_zero_width() {
        // A degenerate scenario override yielding effective width 0 must
        // not panic the sweep with a division by zero: the point reports
        // the max-cost sentinel and is simply scheduled first.
        assert_eq!(heuristic_points_cost(100, 0), u64::MAX);
        // The regular path is unchanged: elements * 16 / width, floored.
        assert_eq!(heuristic_points_cost(1024, 16), 1024);
        assert_eq!(heuristic_points_cost(0, 64), 1);
        // Huge element counts saturate instead of overflowing.
        assert_eq!(heuristic_points_cost(u64::MAX, 1), u64::MAX);
    }

    #[test]
    fn unseen_labels_are_rescaled_into_the_recorded_unit() {
        // One recorded point (wall-clock nanoseconds) and one unseen point
        // (element-count heuristic): the raw units are not commensurable.
        // NATIVE X1 is heuristically the *more* expensive point (narrower
        // effective width), so after rescaling it must still sort first —
        // comparing the raw heuristic against the raw nanoseconds would
        // have flipped the order.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(4096))];
        let recorded_grid = Sweep::grid(workloads.clone(), vec![ScenarioConfig::native_x(1)]);
        let mut forged = recorded_grid.runner().threads(1).run();
        forged.points[0].wall_ns = 50;

        let sweep = Sweep::grid(
            workloads,
            vec![ScenarioConfig::native_x(1), ScenarioConfig::ava_x(2)],
        );
        let runner = sweep.runner().recorded_costs(&forged);
        // Heuristics: X1 = 4096*4*16/16 = 16384, X2 (width 32) = 8192.
        assert_eq!(sweep.heuristic_cost(0), 16384);
        assert_eq!(sweep.heuristic_cost(1), 8192);
        let costs = runner.effective_costs();
        // The recorded point keeps its nanoseconds; the unseen point's
        // heuristic is scaled by 50 ns / 16384 units ≈ 0.00305..., i.e.
        // 8192 * 50 / 16384 = 25 ns.
        assert_eq!(costs, vec![50, 25]);
        assert_eq!(
            execution_order(&costs),
            vec![0, 1],
            "the heuristically-narrower X1 point must still be scheduled \
             first; raw unit mixing would have ranked the unseen point's \
             8192 'elements' above 50 ns"
        );
        // And, like every cost, the rescale cannot move a result.
        let reports = runner.threads(2).run().into_reports();
        assert!(reports.iter().all(|r| r.validated));
        assert_eq!(reports[0].config, "NATIVE X1");
        assert_eq!(reports[1].config, "AVA X2");
    }

    #[test]
    fn recorded_costs_fall_back_to_the_heuristic_for_unseen_labels() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let sweep = Sweep::grid(workloads.clone(), vec![ScenarioConfig::native_x(1)]);
        let report = sweep.runner().threads(1).run();
        // A different grid (new config label) keeps the heuristic.
        let other = Sweep::grid(workloads, vec![ScenarioConfig::ava_x(2)]);
        let costs = other.runner().recorded_costs(&report).effective_costs();
        assert_eq!(other.point_cost(0), costs[0]);
        assert_eq!(
            other.point_cost(0),
            (Axpy::new(128).elements() as u64 * 16 / 32).max(1),
            "unseen label must use elements() over the effective width"
        );
    }

    #[test]
    fn point_stats_carry_raw_element_counts() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let sweep = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
        let report = sweep.runner().threads(1).run();
        assert_eq!(report.points[0].elements, Axpy::new(128).elements() as u64);
        assert!(report.to_json().to_string().contains("\"elements\":"));
    }

    #[test]
    fn cost_ties_break_on_grid_order() {
        // NATIVE X2 and AVA X2 expose the same MVL and LMUL, so both points
        // carry identical heuristic costs; the order must still be
        // deterministic (grid order).
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios = vec![ScenarioConfig::native_x(2), ScenarioConfig::ava_x(2)];
        let sweep = Sweep::grid(workloads, scenarios);
        let costs = sweep.runner().effective_costs();
        assert_eq!(costs[0], costs[1], "the tie this test is about");
        assert_eq!(execution_order(&costs), vec![0, 1]);
    }

    #[test]
    fn report_instrumentation_covers_every_point() {
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);
        let report = sweep.runner().threads(3).run();
        assert_eq!(report.reports.len(), 6);
        assert_eq!(report.points.len(), 6);
        assert_eq!(report.threads, 3);
        assert!(report.wall_ns > 0);
        assert!(report.busy_ns() > 0);
        for (p, r) in report.points.iter().zip(&report.reports) {
            assert_eq!(p.workload, r.workload, "stats stay parallel to reports");
            assert_eq!(p.config, r.config);
            assert!(p.cost_estimate > 0);
            assert!(p.worker < 3);
            assert!(!p.from_store, "no store was attached");
        }
        // No store attached: store counters stay at zero.
        assert_eq!(report.store_hits, 0);
        assert_eq!(report.store_misses, 0);
        // The shared cache was exercised: every compile is a hit or a miss.
        assert!(report.cache_misses > 0);
        assert_eq!(
            report.cache_hits + report.cache_misses,
            6,
            "one compile request per point"
        );
    }

    #[test]
    fn single_threaded_runs_use_one_worker_and_match_parallel() {
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);
        let serial = sweep.runner().threads(1).run();
        assert_eq!(serial.threads, 1);
        assert!(serial.points.iter().all(|p| p.worker == 0));
        let parallel = sweep.runner().threads(4).run();
        for (a, b) in serial.reports.iter().zip(&parallel.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn equivalent_configurations_share_one_compilation() {
        // NATIVE X2 and AVA X2 expose the same MVL and LMUL, so the second
        // run of the same workload must hit the cache.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let systems = vec![ScenarioConfig::native_x(2), ScenarioConfig::ava_x(2)];
        let sweep = Sweep::grid(workloads, systems);
        let cache = ProgramCache::default();
        let a = sweep.run_point(0, &cache);
        let b = sweep.run_point(1, &cache);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        // And the cached compile feeds a report identical to a fresh one.
        assert_eq!(
            b.cycles,
            crate::run::run_workload(sweep.workloads[0].as_ref(), &sweep.scenarios[1]).cycles
        );
        assert!(a.validated && b.validated);
    }

    #[test]
    fn distinct_lmuls_do_not_share_compilations() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Blackscholes::new(64))];
        let systems = vec![
            ScenarioConfig::native_x(8),
            ScenarioConfig::rg_lmul(Lmul::M8),
        ];
        let sweep = Sweep::grid(workloads, systems);
        let cache = ProgramCache::default();
        let _ = sweep.run_point(0, &cache);
        let _ = sweep.run_point(1, &cache);
        assert_eq!(
            cache.misses(),
            2,
            "LMUL=1 and LMUL=8 need different spill code"
        );
    }

    #[test]
    fn explicit_points_run_in_declared_order() {
        let (w, s) = small_axes();
        let sweep = Sweep::from_points(w, s, vec![(1, 2), (0, 0), (1, 0)]);
        let reports = sweep.runner().threads(2).run().into_reports();
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].workload, "blackscholes");
        assert_eq!(reports[0].config, "RG-LMUL4");
        assert_eq!(reports[1].workload, "axpy");
        assert_eq!(reports[2].workload, "blackscholes");
        assert_eq!(reports[2].config, "NATIVE X1");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_points_are_rejected() {
        let (w, s) = small_axes();
        let _ = Sweep::from_points(w, s, vec![(0, 99)]);
    }

    #[test]
    fn zero_threads_behaves_like_one() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let sweep = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
        let report = sweep.runner().threads(0).run();
        assert_eq!(report.threads, 1);
        assert_eq!(report.reports.len(), 1);
        assert!(report.reports[0].validated);
    }

    #[test]
    fn sweep_report_json_has_the_documented_shape() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let sweep = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
        let json = sweep.runner().threads(2).run().to_json().to_string();
        assert!(json.starts_with("{\"schema\":\"ava-sweep-report/v1\""));
        assert!(json.contains("\"cache\":{\"hits\":"));
        assert!(json.contains("\"store\":{\"hits\":0,\"misses\":0}"));
        assert!(json.contains("\"steals\":"));
        assert!(json.contains("\"shard\":null"));
        assert!(json.contains("\"cost_estimate\":"));
        assert!(json.contains("\"from_store\":false"));
        assert!(json.contains("\"report\":{\"config\":\"NATIVE X1\""));
    }

    #[test]
    fn scenario_axes_flow_into_reports_and_json() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(128))];
        let scenarios = ScenarioConfig::axis_l2_kib(
            &[ScenarioConfig::native_x(1), ScenarioConfig::ava_x(2)],
            &[512, 1024],
        );
        let sweep = Sweep::grid(workloads, scenarios);
        let report = sweep.runner().threads(2).run();
        assert_eq!(report.reports.len(), 4);
        assert_eq!(report.axis_names(), vec!["l2_kib"]);
        assert_eq!(report.reports[1].config, "NATIVE X1 l2=1024KiB");
        assert_eq!(report.reports[1].axes.len(), 1);
        assert_eq!(report.reports[1].axes[0].value, 1024);
        let json = report.to_json().to_string();
        assert!(json.contains("\"axes\":[\"l2_kib\"]"));
        assert!(json.contains("\"axes\":{\"l2_kib\":512}"));
    }

    #[test]
    fn claim_order_is_descending_cost_with_grid_order_ties() {
        assert_eq!(execution_order(&[10, 40, 10, 40, 20]), vec![1, 3, 4, 0, 2]);
        assert_eq!(execution_order(&[u64::MAX, 1, u64::MAX]), vec![0, 2, 1]);
        assert!(execution_order(&[]).is_empty());
    }

    #[test]
    fn unrecorded_points_are_rescaled_by_the_recorded_median() {
        // Recorded ratios 10 and 500 ns/unit: the median is 255 ns/unit.
        let costs = cost_estimates(
            &[1000, 100, 10, 100],
            &[Some(10_000), None, None, Some(50_000)],
        );
        assert_eq!(costs, vec![10_000, 25_500, 2_550, 50_000]);
        // With nothing recorded the heuristic is the estimate.
        assert_eq!(cost_estimates(&[7, 3], &[None, None]), vec![7, 3]);
    }

    #[test]
    fn the_zero_width_sentinel_never_feeds_the_median() {
        // The sentinel's "heuristic units" are not a real count: its
        // recording would otherwise set a 5e-19 ns/unit median and rank
        // the unrecorded point at the 1 ns floor.
        assert_eq!(
            cost_estimates(&[u64::MAX, 10], &[Some(5), None]),
            vec![5, 10]
        );
        assert_eq!(
            cost_estimates(&[u64::MAX, 10], &[None, None]),
            vec![u64::MAX, 10]
        );
    }

    #[test]
    fn cost_estimates_are_fixed_at_sweep_start() {
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);
        let expected = sweep.runner().effective_costs();
        for threads in [1, 2, 3] {
            let report = sweep.runner().threads(threads).run();
            let costs: Vec<u64> = report.points.iter().map(|p| p.cost_estimate).collect();
            assert_eq!(costs, expected, "{threads} workers");
            assert_eq!(report.steals, 0);
        }
    }

    #[test]
    fn a_store_serves_the_second_run_without_simulating() {
        let dir = std::env::temp_dir().join(format!(
            "ava-store-sweep-unit-{}",
            std::process::id() // one test uses this tag; pid suffices
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ResultStore::open(&dir).unwrap();
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);

        let cold = sweep.runner().threads(2).store(&store).run();
        assert_eq!(cold.store_hits, 0);
        assert_eq!(cold.store_misses, 6);
        assert_eq!(store.len(), 6);

        let warm = sweep.runner().threads(2).store(&store).run();
        assert_eq!(warm.store_hits, 6);
        assert_eq!(warm.store_misses, 0);
        assert!(warm.points.iter().all(|p| p.from_store));
        for (a, b) in cold.reports.iter().zip(&warm.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "stored = simulated");
        }
        // And a run *without* the store still simulates identically.
        let fresh = sweep.runner().threads(1).run();
        for (a, b) in fresh.reports.iter().zip(&warm.reports) {
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
