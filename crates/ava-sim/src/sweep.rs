//! The parallel experiment-sweep engine.
//!
//! Every figure and table of the paper's evaluation is an embarrassingly
//! parallel fan-out: Figure 3 alone is 6 workloads × 14 system
//! configurations, each point an independent compile + simulate + validate
//! pass. This module runs such grids across all available cores while
//! guaranteeing **bit-identical results to a serial run**:
//!
//! * every simulated point gets a fresh [`MemoryHierarchy`], so no
//!   simulation state is shared;
//! * workers share no prepared state either: a claim is every point of one
//!   prepare key, and its worker prepares the key for itself (see below) —
//!   and because planning, data generation and [`ava_compiler::compile`]
//!   are pure functions of the workload, the MVL and the compiler LMUL,
//!   timing many points on one preparation cannot change any report;
//! * a point copies a sibling's report only when that report proves the
//!   two equal (see "Sibling reuse" below), and the sibling always runs
//!   first in the same claim;
//! * results are written into per-point slots, so the returned `Vec` is in
//!   grid order regardless of which thread finished first.
//!
//! Execution goes through the builder-style [`SweepRunner`] — the thread
//! count and the on-disk [`ResultStore`] are its two knobs on one path,
//! [`SweepRunner::execute`] (of which [`SweepRunner::run`] keeps the
//! report alone).
//!
//! # Scheduling
//!
//! Workers claim **every point of one prepare key** — one (workload, MVL,
//! compiler LMUL) triple — not single points, so the number of keys caps
//! the useful worker count: 12 on the hierarchy sensitivity grid, 48 on
//! Figure 3. Per-claim simulation cost is heavily skewed — one large
//! Blackscholes point can cost more than a dozen Axpy points — so claiming
//! in grid order lets an expensive claim picked up last tail the whole
//! sweep. The runner claims longest-processing-time-first instead. Every
//! point gets one **cost estimate** when the sweep starts:
//! [`Workload::elements`] over the configuration's effective width
//! `MVL / LMUL` (narrower width means more strips, hence more dynamic
//! instructions to simulate). The claims are sorted once by descending
//! summed estimate, first grid index breaking ties, and the workers claim
//! them in that order through one atomic cursor. The estimate only orders
//! work; results are still reported in grid order and are bit-identical at
//! any thread count.
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
//! program, planned layout and golden reference). The store never changes
//! the claim order: a hit costs about a millisecond wherever it is claimed.
//!
//! # Prepare once, time many
//!
//! A point splits into `run::prepare` — plan the layout, generate the
//! data and golden reference, compile — and `run::simulate` — the timing
//! run on a fresh hierarchy, then validation. Only the second half depends
//! on the scenario's timing model, so the worker that takes a key's claim
//! prepares the key once and times it on every scenario of that key: the
//! 972-point hierarchy sensitivity grid prepares 12 keys. The prepared
//! point belongs to that worker alone and is dropped when the claim ends,
//! so no worker ever waits on another's preparation.
//!
//! Values do not depend on the scenario either. The first simulation of a
//! key runs its program functionally, once, over the prepared memory
//! image; it validates the result against the golden reference, records
//! the gather addresses and drops the image. Every timing run
//! reads the recorded addresses and moves no values. What stays per
//! simulated point is the register-tag check, because swap and rename
//! decisions depend on timing: it proves that every read met its last
//! writer's value.
//!
//! A store hit or a sibling copy never runs the functional pass, so a key
//! served entirely that way never does. A store hit still uses its key's
//! prepared point, whose content fingerprint is half the store key, so the
//! prepare counters of a warm rerun equal those of the cold run.
//!
//! # Sibling reuse
//!
//! Much of a sensitivity grid repeats itself: a run that never misses in
//! the L2 never reaches DRAM, so its DRAM bandwidth cannot matter, nor can
//! a larger L2, and no run uses the L1 data cache at all. On the Figure 3
//! grid an AVA run that never swapped, reclaimed or missed in the L2 times
//! like NATIVE Xn, whose rename pool is as large. The sweep skips such
//! repeats when it can prove them. Inside a claim, points run in
//! ascending (L2, DRAM, L1) order, AVA before NATIVE mode at equal
//! hierarchy, so each point comes after every sibling (a system equal to
//! its own apart from label, axes, register-file organisation, L2
//! capacity, DRAM bandwidth and L1) that could prove it. Each point first
//! consults the store as usual; on a miss it copies the report of the
//! first earlier point of its claim whose report [`proves`] it equal —
//! with `config` and `axes` rewritten — and otherwise simulates. A
//! store-served report serves as a proof like a simulated one. A copy is a
//! store miss like a simulation and is checkpointed the same way, so a
//! warm rerun serves every point. [`SweepRun::reused_from`] names each
//! copy's source, and [`SweepReport::distinct_reports`] counts the
//! distinct reports, proven or not.
//!
//! A copy is exact, not an estimate: [`proves`] holds only when every
//! field in which the two systems differ is one the report shows the run
//! never felt. On the full hierarchy sensitivity grid 144 of the 972
//! points are simulated; the other 828 are copies. Figure 3 simulates 54
//! of its 84 points (52 distinct reports) and Figure 4 36 of 60.
//!
//! # Instrumentation
//!
//! [`SweepRunner::run`] returns a [`SweepReport`] that wraps the
//! [`RunReport`]s with per-point wall-clock timing, the cost estimate,
//! store provenance and claiming worker of every point, prepared-key and
//! result-store hit/miss counters, the number of distinct
//! reports and the sweep's total wall-clock — the raw material for the
//! `--json` report pipeline and CI wall-clock baselines.
//! [`SweepRunner::execute`] returns it inside a [`SweepRun`] that adds
//! each point's sibling-reuse source.
//!
//! Preparing per key also makes the sweep cheaper than the sum of its
//! points: on the full Figure 3 grid, NATIVE Xn, AVA Xn and RG-LMUL1 all
//! share one (kernel, LMUL, MVL) key, so 14 configurations need only 8
//! preparations per workload.
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
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::thread;
use std::time::Instant;

use ava_memory::{CacheConfig, CacheStats, DramConfig, HierarchyConfig};
use ava_vpu::{RenameMode, VpuConfig};
use ava_workloads::{Fingerprint, SharedWorkload};

use crate::configs::{config_axes_key, workload_identity, ScenarioConfig, SystemConfig};
use crate::json::{object, Json};
use crate::run::{prepare, simulate, stored_or, RunReport};
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

/// A prepared point's key: everything [`prepare`] reads — the workload
/// (by grid index), the MVL and the compiler LMUL factor.
type PrepareKey = (usize, usize, usize);

/// Whether `a` and `b` are equal apart from what the timing run never
/// reads — the scenario metadata (`kind`, `label`, `axes`) and the VPU's
/// `name` — and five fields a report can show to be irrelevant: the VPU's
/// register-file organisation (`mode`, `pvrf_bytes`, `vvr_count`), the L2
/// capacity, the DRAM bandwidth and the L1 data cache. A workload's points
/// on such systems are siblings: one can prove the other's report.
fn siblings(a: &SystemConfig, b: &SystemConfig) -> bool {
    // Destructured in full, so that a new field must be placed on one side
    // of the line or the other.
    let SystemConfig {
        kind: _,
        label: _,
        axes: _,
        vpu,
        scalar,
        memory,
        compiler_lmul,
    } = a;
    let VpuConfig {
        name: _,
        mode: _,
        pvrf_bytes: _,
        vvr_count: _,
        lanes,
        mvl,
        logical_regs,
        arith_queue_entries,
        mem_queue_entries,
        rob_entries,
        mem_op_overhead,
        frontend_cycles_per_instr,
    } = vpu;
    let HierarchyConfig {
        l1d: _,
        l2,
        dram,
        vmu_bus_bytes,
    } = memory;
    let unsized_cache = |c: &CacheConfig| CacheConfig {
        size_bytes: 0,
        ..*c
    };
    let unmetered = |d: &DramConfig| DramConfig {
        bytes_per_cycle: 0,
        ..*d
    };
    let v = &b.vpu;
    *lanes == v.lanes
        && *mvl == v.mvl
        && *logical_regs == v.logical_regs
        && *arith_queue_entries == v.arith_queue_entries
        && *mem_queue_entries == v.mem_queue_entries
        && *rob_entries == v.rob_entries
        && *mem_op_overhead == v.mem_op_overhead
        && *frontend_cycles_per_instr == v.frontend_cycles_per_instr
        && *scalar == b.scalar
        && *compiler_lmul == b.compiler_lmul
        && *vmu_bus_bytes == b.memory.vmu_bus_bytes
        && unsized_cache(l2) == unsized_cache(&b.memory.l2)
        && unmetered(dram) == unmetered(&b.memory.dram)
}

/// Whether `report`, the report of a point on `from`, is also the report of
/// the same workload on `to`, apart from `config` and `axes`. A pure
/// predicate over the report's counters, so a report served from the store
/// proves like a simulated one: it holds only when `from` and `to` are
/// siblings, and every field of the four that may differ is shown
/// irrelevant by the report:
///
/// * **The register-file organisation** — either the two VPUs are equal
///   apart from `name` (NATIVE X1 and RG-LMUL1 are one machine under two
///   labels, and the timing run reads neither the label nor
///   `SystemConfig::kind`), or `from` is AVA and `to` NATIVE-mode with
///   equal rename pools, and `report` shows no Swap-Load, no Swap-Store, no
///   aggressive reclaim and no L2 miss. AVA Xn then times like NATIVE Xn
///   (64 VVRs against 64 physical registers), step for step in
///   `ava_vpu::Vpu`:
///   1. The rename unit depends only on its pool size and the program, so
///      both runs see the same renamed ids, `renamed_free_at` and
///      `value_ready`.
///   2. With no Swap-Store and no reclaim, `free_one_preg` always answers
///      `AlreadyFree` and leaves the pre-issue time alone, and
///      `ensure_resident` never takes its `Memory` arm: only an eviction
///      moves a VVR to the M-VRF, and a clean victim needs an earlier
///      Swap-Store. AVA's physical register numbers then differ from
///      NATIVE's, which are the renamed ids, but nothing else does.
///   3. The destination gate `completion.max(preg_writable[p] + 1)` reads
///      a `preg_writable[p]` that the release of `p`'s previous value set
///      to that releasing instruction's commit (its readers completed no
///      later than they committed, in order, before it). So the gate is at
///      most `last_commit + 1`, and the reorder buffer commits at
///      `max(completion, dispatch, last_commit + 1)`: in either mode the
///      gate moves no commit, no finish time and, through the commits, no
///      later gate. The statistics read only the number of source
///      registers, never their numbers.
///   4. AVA warms its M-VRF range last (see `run::PreparedPoint`'s warm
///      ranges), so in every set AVA's data lines are the most recent part
///      of NATIVE's LRU stack, in the same order. While every AVA access
///      hits, neither cache inserts or evicts a line and that stays true,
///      so every NATIVE access hits too, with identical `CacheStats`.
/// * **DRAM bandwidth** — `report` reached DRAM zero times. DRAM is
///   touched only on an L2 miss, and the warm-up never reaches it.
/// * **A larger L2** — `to`'s L2 is larger with the same line, ways and
///   latency, its set count is a multiple of `from`'s, and `report` shows
///   no L2 read or write miss. Under LRU with nested set indexing every
///   set at `k·S` sets sees a subsequence of the accesses of its set at
///   `S`, so it holds a superset of the lines the smaller cache holds,
///   warm-up included: every access that hit at `S` hits at `k·S`. No
///   miss means no eviction, so no write-back and no DRAM access, and
///   every access timing the VPU sees is the same (it reads nothing else
///   of the hierarchy).
/// * **The L1 data cache** — `report`'s `l1d` counters are all zero: the
///   scalar access path is the L1's only entry, and the run never took it.
///
/// A smaller L2 is never proven, nor is NATIVE proven to equal AVA, so a
/// sweep tries its siblings in ascending L2 order, AVA first.
#[must_use]
pub fn proves(report: &RunReport, from: &SystemConfig, to: &SystemConfig) -> bool {
    let (f, t, mem) = (&from.memory, &to.memory, &report.mem);
    let (fv, tv, vpu) = (&from.vpu, &to.vpu, &report.vpu);
    siblings(from, to)
        && ((fv.mode, fv.pvrf_bytes, fv.vvr_count) == (tv.mode, tv.pvrf_bytes, tv.vvr_count)
            || (fv.mode == RenameMode::Ava
                && tv.mode == RenameMode::Native
                && fv.rename_pool() == tv.rename_pool()
                && vpu.swap_loads == 0
                && vpu.swap_stores == 0
                && vpu.aggressive_reclaims == 0
                && mem.l2.misses() == 0))
        && (f.dram.bytes_per_cycle == t.dram.bytes_per_cycle || mem.dram_accesses == 0)
        && (f.l1d == t.l1d || mem.l1d == CacheStats::default())
        && (f.l2.size_bytes == t.l2.size_bytes
            || (t.l2.size_bytes > f.l2.size_bytes
                && f.l2.sets() > 0
                && t.l2.sets() % f.l2.sets() == 0
                && mem.l2.misses() == 0))
}

/// A point's report as a sibling on `system`: `source` with `config` and
/// `axes` rewritten.
fn copied(source: &RunReport, system: &SystemConfig) -> RunReport {
    RunReport {
        config: system.label().to_string(),
        axes: system.axes.clone(),
        ..source.clone()
    }
}

/// One finished point, before the sweep splits it into report and stats.
#[derive(Debug)]
struct Done {
    report: RunReport,
    from_store: bool,
    reused_from: Option<usize>,
    wall_ns: u64,
    worker: usize,
}

/// Scheduling and timing metadata for one executed sweep point. Parallel to
/// [`SweepReport::reports`], in grid order.
#[derive(Debug, Clone)]
pub struct PointStats {
    /// Workload name of the point ("axpy", ...).
    pub workload: String,
    /// Configuration label of the point ("AVA X4", ...).
    pub config: String,
    /// The point's cost estimate, fixed when the sweep started:
    /// [`Sweep::point_cost`], the workload's element operations over the
    /// configuration's effective width. The same with or without a store.
    /// Orders execution only.
    pub cost_estimate: u64,
    /// The workload's element-operation count ([`Workload::elements`]) —
    /// the denominator of derived per-element metrics such as
    /// energy-per-element.
    ///
    /// [`Workload::elements`]: ava_workloads::Workload::elements
    pub elements: u64,
    /// Wall-clock time of the point, in nanoseconds: the timing run,
    /// validation and checkpoint. The first point of a claim also pays for
    /// its key's preparation, and the key's first simulated point for the
    /// functional pass; no point waits on another worker. For a point
    /// served from the result store this is the key lookup; for a point
    /// that copied a sibling's report ([`SweepRun::reused_from`]) it is the
    /// lookup, the proofs tried, the copy and its checkpoint. Neither ran a
    /// simulation.
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
    /// Points whose prepared point another point of the sweep prepared:
    /// the number of points less [`SweepReport::cache_misses`].
    pub cache_hits: u64,
    /// Distinct (workload, MVL, compiler LMUL) keys prepared and compiled,
    /// one per claim (`cache_hits + cache_misses` is the number of points).
    /// The same at any thread count.
    pub cache_misses: u64,
    /// Always 0: there is no on-disk compile tier. Kept so the report's
    /// field set and JSON keys stay stable.
    pub cache_disk_hits: u64,
    /// Always 0, like [`SweepReport::cache_disk_hits`].
    pub cache_disk_misses: u64,
    /// Compilations performed: one per prepared key, always equal to
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

    /// Number of distinct reports among the points: distinct FNV-1a
    /// digests of each report's JSON less `config` and `axes`. Points of
    /// one workload whose systems differ in a way the run never felt count
    /// once, whether or not the sweep could prove it and skip them.
    #[must_use]
    pub fn distinct_reports(&self) -> u64 {
        distinct_reports(&self.reports)
    }

    /// The machine-readable form of the sweep consumed by CI and plotting:
    /// schema marker, the scenario axes in play, scheduling/cache/store
    /// instrumentation, and the full per-point reports (each carrying its
    /// own axis values). [`SweepRun::to_json`] adds the sibling reuse and
    /// the distinct-report count.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.json(None)
    }

    /// The sweep's JSON, with the reuse record of `run` when given (whose
    /// report is `self`).
    fn json(&self, run: Option<&SweepRun>) -> Json {
        let mut doc = object()
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
            );
        if let Some(run) = run {
            doc = doc
                .field("reused", run.reused())
                .field("distinct_reports", run.distinct_reports);
        }
        doc.field(
            "points",
            self.points
                .iter()
                .zip(&self.reports)
                .enumerate()
                .map(|(i, (p, r))| {
                    let mut point = object()
                        .field("workload", p.workload.as_str())
                        .field("config", p.config.as_str())
                        .field("cost_estimate", p.cost_estimate)
                        .field("elements", p.elements)
                        .field("wall_ns", p.wall_ns)
                        .field("worker", p.worker)
                        .field("from_store", p.from_store);
                    if let Some(run) = run {
                        point = point.field("reused_from", run.reused_from[i]);
                    }
                    point.field("report", r.to_json()).finish()
                })
                .collect::<Json>(),
        )
        .finish()
    }
}

/// The number of distinct FNV-1a digests of `reports`' JSON less `config`
/// and `axes` — the digest of the golden files, over those fields.
fn distinct_reports<'a>(reports: impl IntoIterator<Item = &'a RunReport>) -> u64 {
    let digests: HashSet<u64> = reports
        .into_iter()
        .map(|r| {
            let Json::Obj(mut fields) = r.to_json() else {
                unreachable!("a report is a JSON object")
            };
            fields.retain(|(key, _)| key != "config" && key != "axes");
            let mut h = Fingerprint::new();
            h.write_str(&Json::Obj(fields).to_string());
            h.finish()
        })
        .collect();
    digests.len() as u64
}

/// An executed sweep with its sibling reuse: the [`SweepReport`] plus, for
/// every point, the sibling whose report it copied.
///
/// The reuse record sits beside the report rather than in [`PointStats`]
/// because the benchmark under `perfbench/` builds `PointStats` and
/// `SweepReport` values field by field, so their field sets stay as they
/// are until that benchmark changes.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The reports and their instrumentation.
    pub report: SweepReport,
    /// Per point, in grid order: the grid index of the earlier sibling
    /// whose report the point copied ([`proves`]), or `None` for a point
    /// that was simulated or served from the result store.
    pub reused_from: Vec<Option<usize>>,
    /// [`SweepReport::distinct_reports`], counted once when the sweep
    /// ends. A copy's report is its source's apart from `config` and
    /// `axes`, so only the reports that are not copies are digested.
    pub distinct_reports: u64,
}

impl SweepRun {
    /// Points that copied a sibling's report instead of simulating.
    #[must_use]
    pub fn reused(&self) -> u64 {
        self.reused_from.iter().flatten().count() as u64
    }

    /// Points that were simulated: neither served from the store nor
    /// copied from a sibling.
    #[must_use]
    pub fn simulated(&self) -> u64 {
        self.report.points.len() as u64 - self.report.store_hits - self.reused()
    }

    /// [`SweepReport::to_json`] plus the sweep's `reused` and
    /// `distinct_reports` counts and each point's `reused_from`.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.report.json(Some(self))
    }
}

/// A declarative grid of (workload, [`ScenarioConfig`]) experiment points.
///
/// Construct with [`Sweep::grid`] (full cross product) or
/// [`Sweep::from_points`] (explicit pairs), then execute through the
/// [`Sweep::runner`] builder. All execution paths return per-point results
/// in point order and are guaranteed to produce identical reports.
/// Scenarios are resolved once, at construction, so the per-point cost is
/// at most one timing run (plus one preparation per key) — and construction
/// rejects two points with the same `(workload name + size, configuration)`
/// identity, which would make the reports and the result-store keys
/// ambiguous.
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
        // identity: a duplicate would make two reports indistinguishable
        // and give two points one result-store key. Neither half is a
        // display string — metadata axes like `iters` stay out of the
        // config label by design, and one kernel legitimately appears at
        // several problem sizes in skewed grids — hence the canonical keys.
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

    /// Starts configuring an execution of this sweep: the thread count and
    /// the result store are independent builder knobs, finished with
    /// [`SweepRunner::run`].
    #[must_use]
    pub fn runner(&self) -> SweepRunner<'_> {
        SweepRunner {
            sweep: self,
            threads: None,
            store: None,
        }
    }

    /// The cost estimate of one point, the sweep's only claim order: the
    /// workload's element-operation count divided by the configuration's
    /// effective register width (`MVL / LMUL`, normalised to the 16-element
    /// baseline). A narrower effective width means more strips and
    /// therefore more dynamic instructions to simulate for the same element
    /// count, so narrow-width points (NATIVE X1, the spill-heavy RG-LMUL8)
    /// rank as expensive — matching measured per-point wall-clock. A
    /// heuristic — it orders execution so skewed points start early, and
    /// can never change a result.
    #[must_use]
    pub fn point_cost(&self, point: usize) -> u64 {
        let (w, s) = self.points[point];
        let system = &self.resolved[s];
        let elements = self.workloads[w].elements() as u64;
        let width = (system.mvl() / system.compiler_lmul.factor()) as u64;
        heuristic_points_cost(elements, width)
    }

    /// The key of `point`'s prepared point.
    fn prepare_key(&self, point: usize) -> PrepareKey {
        let (w, s) = self.points[point];
        let system = &self.resolved[s];
        (w, system.mvl(), system.compiler_lmul.factor())
    }

    /// The resolved system of `point`.
    fn system(&self, point: usize) -> &SystemConfig {
        &self.resolved[self.points[point].1]
    }

    /// The sweep's claims: each is the points of one prepare key, in
    /// ascending (L2, DRAM, L1, NATIVE mode, grid index) order — AVA points
    /// before NATIVE-mode ones at equal hierarchy — so that a point meets
    /// every sibling that could prove it before it runs. Claims are listed
    /// in order of their first point.
    fn claims(&self) -> Vec<Vec<usize>> {
        let mut index: HashMap<PrepareKey, usize> = HashMap::new();
        let mut claims: Vec<Vec<usize>> = Vec::new();
        for point in 0..self.points.len() {
            let claim = *index.entry(self.prepare_key(point)).or_insert_with(|| {
                claims.push(Vec::new());
                claims.len() - 1
            });
            claims[claim].push(point);
        }
        for claim in &mut claims {
            claim.sort_by_key(|&point| {
                let system = self.system(point);
                let memory = &system.memory;
                (
                    memory.l2.size_bytes,
                    memory.dram.bytes_per_cycle,
                    memory.l1d.size_bytes,
                    system.vpu.mode != RenameMode::Ava,
                    point,
                )
            });
        }
        claims
    }

    /// Runs one claim and returns its points' results, parallel to
    /// `claim`: prepares the claim's key, then runs each point in order.
    /// A point is served from `store` when it has a usable entry; otherwise
    /// it copies the report of the first earlier point of the claim that
    /// [`proves`] it (the claim order puts AVA points before their
    /// NATIVE-mode twins), or else is simulated. Copies and simulations alike are
    /// checkpointed. Every point's L2 warm-up is announced up front, so
    /// points that share one walk it once. The prepared point is dropped
    /// when the claim ends.
    fn run_claim(&self, claim: &[usize], store: Option<&ResultStore>, worker: usize) -> Vec<Done> {
        let mut start = Instant::now();
        let first = claim[0];
        let mut prepared = prepare(
            self.workloads[self.points[first].0].as_ref(),
            self.system(first),
        );
        for &point in claim {
            prepared.announce(self.system(point));
        }
        let mut finished: Vec<Done> = Vec::with_capacity(claim.len());
        for &point in claim {
            let system = self.system(point);
            let mut reused_from = None;
            let (report, from_store) = stored_or(&mut prepared, system, store, |prepared| {
                let source = claim
                    .iter()
                    .zip(&finished)
                    .find(|&(&earlier, done)| proves(&done.report, self.system(earlier), system));
                match source {
                    Some((&earlier, done)) => {
                        reused_from = Some(earlier);
                        copied(&done.report, system)
                    }
                    None => simulate(prepared, system),
                }
            });
            finished.push(Done {
                report,
                from_store,
                reused_from,
                wall_ns: start.elapsed().as_nanos() as u64,
                worker,
            });
            start = Instant::now();
        }
        finished
    }
}

/// Indices into `costs` in claim order: descending cost, index order
/// breaking ties (longest processing time first).
fn execution_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (Reverse(costs[i]), i));
    order
}

/// Builder-style execution of one [`Sweep`]: configure the thread count
/// ([`SweepRunner::threads`]) and the on-disk result store
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
/// assert_eq!(first.store_misses, first.points.len() as u64);
/// // A later sweep over the same grid is served from the store.
/// let again = sweep.runner().store(&store).run();
/// assert_eq!(again.store_hits, again.points.len() as u64);
/// ```
pub struct SweepRunner<'a> {
    sweep: &'a Sweep,
    threads: Option<usize>,
    store: Option<&'a ResultStore>,
}

impl<'a> SweepRunner<'a> {
    /// Caps the sweep at `threads` worker threads (further clamped to the
    /// number of prepare keys, one claim each; `0` behaves like `1`).
    /// Without this the runner uses every available core.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Attaches the on-disk result store: points with a usable entry are
    /// served from it instead of being simulated, and every freshly
    /// simulated point is checkpointed into it as it finishes. The store is
    /// read per point only; it never changes the claim order.
    #[must_use]
    pub fn store(mut self, store: &'a ResultStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Executes the sweep. Results come back in point order and are
    /// bit-identical at any thread count and with or without a store.
    /// [`SweepRunner::execute`] also says which points copied a sibling.
    #[must_use]
    pub fn run(self) -> SweepReport {
        self.execute().report
    }

    /// Executes the sweep, returning the report together with the sibling
    /// reuse behind it ([`SweepRun::reused_from`]).
    #[must_use]
    pub fn execute(self) -> SweepRun {
        let sweep = self.sweep;
        let n = sweep.points.len();
        // Computed once, not per claim: `Workload::elements` can be
        // arbitrarily expensive (composite workloads sum their phases).
        let costs: Vec<u64> = (0..n).map(|i| sweep.point_cost(i)).collect();
        let claims = sweep.claims();
        let claim_costs: Vec<u64> = claims
            .iter()
            .map(|claim| claim.iter().fold(0, |sum, &p| costs[p].saturating_add(sum)))
            .collect();
        let requested = self.threads.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let workers = requested.clamp(1, claims.len().max(1));
        // One claim per key, and each claim prepares its key once.
        let prepared_keys = claims.len() as u64;
        let order = execution_order(&claim_costs);
        let cursor = AtomicUsize::new(0);
        let store = self.store;
        let sweep_start = Instant::now();
        let done: Vec<OnceLock<Done>> = (0..n).map(|_| OnceLock::new()).collect();
        let work = |worker: usize| {
            // Each claim takes the next entry of `order`. The cursor
            // publishes no data (results travel through `done` and the
            // scope join), so a relaxed counter suffices.
            while let Some(&claim) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                let claim = &claims[claim];
                for (&point, finished) in claim.iter().zip(sweep.run_claim(claim, store, worker)) {
                    done[point]
                        .set(finished)
                        .expect("each point is claimed by one worker");
                }
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
        let mut reused_from = Vec::with_capacity(n);
        for (point, slot) in done.into_iter().enumerate() {
            let finished = slot.into_inner().expect("every point completed");
            points.push(PointStats {
                workload: finished.report.workload.clone(),
                config: finished.report.config.clone(),
                cost_estimate: costs[point],
                elements: sweep.workloads[sweep.points[point].0].elements() as u64,
                wall_ns: finished.wall_ns,
                worker: finished.worker,
                from_store: finished.from_store,
            });
            reused_from.push(finished.reused_from);
            reports.push(finished.report);
        }
        let store_hits = points.iter().filter(|p| p.from_store).count() as u64;
        let store_misses = if store.is_some() {
            n as u64 - store_hits
        } else {
            0
        };
        let report = SweepReport {
            reports,
            points,
            cache_hits: n as u64 - prepared_keys,
            cache_misses: prepared_keys,
            cache_disk_hits: 0,
            cache_disk_misses: 0,
            compiles: prepared_keys,
            store_hits,
            store_misses,
            threads: workers,
            steals: 0,
            shard: None,
            wall_ns: sweep_start.elapsed().as_nanos() as u64,
        };
        let distinct_reports = distinct_reports(
            report
                .reports
                .iter()
                .zip(&reused_from)
                .filter(|(_, source)| source.is_none())
                .map(|(r, _)| r),
        );
        SweepRun {
            report,
            reused_from,
            distinct_reports,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::configs::Knob;
    use ava_isa::Lmul;
    use ava_workloads::{Axpy, Blackscholes, Workload};
    use std::sync::Arc;

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

    /// Every point's [`Sweep::point_cost`], in grid order.
    fn point_costs(sweep: &Sweep) -> Vec<u64> {
        (0..sweep.len()).map(|i| sweep.point_cost(i)).collect()
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
        // indistinguishable in the reports and share one result-store key.
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Axpy::new(256))];
        let _ = Sweep::grid(workloads, vec![ScenarioConfig::native_x(1)]);
    }

    #[test]
    fn metadata_axes_disambiguate_identical_labels() {
        // The iters knob stays out of the config label by design, so these two
        // scenarios *display* identically — but the axes make their point
        // identities distinct, so the grid constructs.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios = vec![
            ScenarioConfig::ava_x(2).with(Knob::ITERS, 2),
            ScenarioConfig::ava_x(2).with(Knob::ITERS, 4),
        ];
        assert_eq!(scenarios[0].label(), scenarios[1].label());
        assert_eq!(Sweep::grid(workloads, scenarios).len(), 2);
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
        let order = execution_order(&point_costs(&sweep));
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
        let costs = point_costs(&sweep);
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
        // Every point is a hit or a miss of its key's preparation.
        assert!(report.cache_misses > 0);
        assert_eq!(
            report.cache_hits + report.cache_misses,
            6,
            "one prepared key per point"
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
        // point must reuse the first one's prepared point.
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let systems = vec![ScenarioConfig::native_x(2), ScenarioConfig::ava_x(2)];
        let sweep = Sweep::grid(workloads, systems);
        let report = sweep.runner().threads(1).run();
        assert_eq!((report.cache_hits, report.cache_misses), (1, 1));
        // And the shared preparation feeds a report identical to a fresh one.
        let fresh = crate::run::run_workload(sweep.workloads[0].as_ref(), &sweep.scenarios[1]);
        assert_eq!(format!("{:?}", report.reports[1]), format!("{fresh:?}"));
        assert!(report.reports.iter().all(|r| r.validated));
    }

    #[test]
    fn distinct_lmuls_do_not_share_compilations() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Blackscholes::new(64))];
        let systems = vec![
            ScenarioConfig::native_x(8),
            ScenarioConfig::rg_lmul(Lmul::M8),
        ];
        let report = Sweep::grid(workloads, systems).runner().threads(1).run();
        assert_eq!(
            report.cache_misses, 2,
            "LMUL=1 and LMUL=8 need different spill code"
        );
    }

    #[test]
    fn claims_hold_exactly_one_prepare_key_each() {
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Blackscholes::new(64))];
        // NATIVE X2 and AVA X2 share a key; AVA X4 and RG-LMUL2 have their
        // own. The VVR axis applies to the AVA bases only.
        let mut scenarios = ScenarioConfig::axis(
            &[
                ScenarioConfig::native_x(2),
                ScenarioConfig::ava_x(2),
                ScenarioConfig::ava_x(4),
                ScenarioConfig::rg_lmul(Lmul::M2),
            ],
            Knob::L2_KIB,
            &[1024, 256],
        );
        scenarios.extend(ScenarioConfig::axis(
            &ScenarioConfig::axis(
                &[ScenarioConfig::ava_x(2), ScenarioConfig::ava_x(4)],
                Knob::VVRS,
                &[40, 96],
            ),
            Knob::L2_KIB,
            &[512],
        ));
        let sweep = Sweep::grid(workloads, scenarios);
        let claims = sweep.claims();
        let keys: Vec<PrepareKey> = claims
            .iter()
            .map(|claim| sweep.prepare_key(claim[0]))
            .collect();
        assert_eq!(claims.len(), 2 * 3, "two workloads x three keys");
        assert_eq!(
            keys.iter().collect::<HashSet<_>>().len(),
            keys.len(),
            "no key is split across claims"
        );
        let mut covered: Vec<usize> = claims.concat();
        covered.sort_unstable();
        assert_eq!(covered, (0..sweep.len()).collect::<Vec<_>>());
        for (claim, key) in claims.iter().zip(&keys) {
            assert!(claim.iter().all(|&p| sweep.prepare_key(p) == *key));
            let l2: Vec<usize> = claim
                .iter()
                .map(|&p| sweep.system(p).memory.l2.size_bytes)
                .collect();
            assert!(l2.windows(2).all(|w| w[0] <= w[1]), "ascending L2");
        }
        // One prepared key per claim, counted as one compile each.
        let report = sweep.runner().threads(2).run();
        assert_eq!(report.cache_misses, claims.len() as u64);
        assert_eq!(report.compiles, claims.len() as u64);
    }

    #[test]
    fn a_one_thread_sweep_keeps_one_prepared_image_alive_at_a_time() {
        // Two workloads x two MVLs x three L2 sizes: four keys of three
        // points each, adjacent in the claim order.
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Blackscholes::new(64))];
        let scenarios = ScenarioConfig::axis(
            &[
                ScenarioConfig::ava_x(2).with(Knob::MVL, 32),
                ScenarioConfig::ava_x(2).with(Knob::MVL, 64),
            ],
            Knob::L2_KIB,
            &[256, 512, 1024],
        );
        let sweep = Sweep::grid(workloads, scenarios);
        let _ = crate::run::tests::LiveImage::take_counts();
        let report = sweep.runner().threads(1).run();
        assert_eq!(report.cache_misses, 4);
        let (alive, peak) = crate::run::tests::LiveImage::take_counts();
        assert_eq!(alive, 0, "no prepared point outlives the sweep");
        assert_eq!(
            peak, 1,
            "each key's prepared point is dropped after its last point"
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
        let scenarios = ScenarioConfig::axis(
            &[ScenarioConfig::native_x(1), ScenarioConfig::ava_x(2)],
            Knob::L2_KIB,
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
    fn cost_estimates_are_fixed_at_sweep_start() {
        let (w, s) = small_axes();
        let sweep = Sweep::grid(w, s);
        let expected = point_costs(&sweep);
        for threads in [1, 2, 3] {
            let report = sweep.runner().threads(threads).run();
            let costs: Vec<u64> = report.points.iter().map(|p| p.cost_estimate).collect();
            assert_eq!(costs, expected, "{threads} workers");
            assert_eq!(report.steals, 0);
        }
    }

    #[test]
    fn a_report_proves_only_what_its_counters_show_unused() {
        let at = |l2: u64, dram: u64| {
            ScenarioConfig::ava_x(2)
                .with(Knob::L2_KIB, l2)
                .with(Knob::DRAM_BW, dram)
                .resolve()
        };
        let from = at(512, 6);
        // 4 KiB of data: nothing misses and DRAM stays idle.
        let mut report = crate::run::run_system(&Axpy::new(256), &from);
        assert_eq!((report.mem.l2.misses(), report.mem.dram_accesses), (0, 0));
        assert!(proves(&report, &from, &at(512, 24)), "DRAM bandwidth");
        assert!(proves(&report, &from, &at(2048, 24)), "larger L2 and DRAM");
        assert!(!proves(&report, &from, &at(256, 6)), "a smaller L2 never");
        assert!(!proves(&report, &from, &at(768, 6)), "sets must nest");
        let mut bigger_l1 = from.clone();
        bigger_l1.memory.l1d.size_bytes *= 2;
        assert!(proves(&report, &from, &bigger_l1), "the L1 is never used");
        let other_bus = ScenarioConfig::ava_x(2)
            .with(Knob::L2_KIB, 512)
            .with(Knob::DRAM_BW, 6)
            .with(Knob::VMU_BUS, 32)
            .resolve();
        assert!(!proves(&report, &from, &other_bus), "not a sibling");

        // No swap, no reclaim and no L2 miss: AVA X2 proves NATIVE X2, its
        // 64 VVRs against 64 physical registers, on top of a larger L2.
        let native = |l2: u64, config: ScenarioConfig| {
            config
                .with(Knob::L2_KIB, l2)
                .with(Knob::DRAM_BW, 6)
                .resolve()
        };
        let native_x2 = native(512, ScenarioConfig::native_x(2));
        assert!(proves(&report, &from, &native_x2), "AVA to NATIVE");
        assert!(proves(
            &report,
            &from,
            &native(2048, ScenarioConfig::native_x(2))
        ));
        assert!(
            !proves(&report, &native_x2, &from),
            "NATIVE never proves AVA"
        );
        let fewer_vvrs = |config: ScenarioConfig| native(512, config.with(Knob::VVRS, 48));
        let ava_48 = fewer_vvrs(ScenarioConfig::ava_x(2));
        assert!(!proves(&report, &from, &ava_48), "another VVR count");
        assert!(!proves(&report, &ava_48, &native_x2), "another rename pool");
        let shallow = native(
            512,
            ScenarioConfig::native_x(2).with(Knob::ISSUE_QUEUES, 16),
        );
        assert!(!proves(&report, &from, &shallow), "another queue size");
        let (native_x1, rg_lmul1) = (
            ScenarioConfig::native_x(1).resolve(),
            ScenarioConfig::rg_lmul(Lmul::M1).resolve(),
        );
        assert_ne!(native_x1.kind, rg_lmul1.kind);
        assert!(proves(&report, &rg_lmul1, &native_x1), "a label alone");
        assert!(proves(&report, &native_x1, &rg_lmul1), "either way");
        for counter in ["a Swap-Load", "a Swap-Store", "an aggressive reclaim"] {
            let mut swapped = report.clone();
            let vpu = &mut swapped.vpu;
            match counter {
                "a Swap-Load" => vpu.swap_loads = 1,
                "a Swap-Store" => vpu.swap_stores = 1,
                _ => vpu.aggressive_reclaims = 1,
            }
            assert!(!proves(&swapped, &from, &native_x2), "{counter}");
            assert!(proves(&swapped, &from, &at(2048, 24)), "{counter} on AVA");
        }
        // A real swapping run: AVA X8's 8 physical registers overflow.
        let (ava_x8, native_x8) = (
            ScenarioConfig::ava_x(8).resolve(),
            ScenarioConfig::native_x(8).resolve(),
        );
        let swapping = crate::run::run_system(&Blackscholes::new(64), &ava_x8);
        assert!(swapping.vpu.swap_ops() > 0);
        assert!(!proves(&swapping, &ava_x8, &native_x8), "a swapping run");

        report.mem.l1d.read_hits = 1;
        assert!(!proves(&report, &from, &bigger_l1), "an L1 access");
        report.mem.l2.write_misses = 1;
        assert!(!proves(&report, &from, &at(2048, 6)), "an L2 miss");
        assert!(!proves(&report, &from, &native_x2), "an L2 miss on AVA");
        report.mem.dram_accesses = 1;
        assert!(!proves(&report, &from, &at(512, 24)), "a DRAM access");
        assert!(proves(&report, &from, &at(512, 6)), "nothing differs");
    }

    #[test]
    fn claims_group_siblings_in_ascending_l2_dram_order() {
        let workloads: Vec<SharedWorkload> =
            vec![Arc::new(Axpy::new(256)), Arc::new(Blackscholes::new(64))];
        // L2 descending on the axis and NATIVE before AVA, so the claim
        // reorders both.
        let scenarios = ScenarioConfig::axis(
            &ScenarioConfig::axis(
                &[ScenarioConfig::native_x(2), ScenarioConfig::ava_x(2)],
                Knob::L2_KIB,
                &[1024, 256],
            ),
            Knob::DRAM_BW,
            &[24, 6],
        );
        let sweep = Sweep::grid(workloads, scenarios);
        // Per workload: NATIVE x {1024, 256} x {24, 6}, then AVA likewise.
        // AVA X2 and NATIVE X2 share a key, so each workload is one claim,
        // ordered (256, 6), (256, 24), (1024, 6), (1024, 24), AVA first.
        assert_eq!(
            sweep.claims(),
            vec![
                vec![7, 3, 6, 2, 5, 1, 4, 0],
                vec![15, 11, 14, 10, 13, 9, 12, 8]
            ]
        );
        // Nothing misses at 256 KiB and AVA X2's 32 physical registers
        // hold both kernels, so each workload's AVA (256, 6) point is
        // simulated and the seven others copy it.
        let run = sweep.runner().threads(2).execute();
        assert!(run.report.reports.iter().all(|r| r.vpu.swap_ops() == 0));
        assert_eq!(run.reused(), 14);
        assert_eq!(run.reused_from[3], Some(7), "NATIVE copies AVA");
        assert_eq!(run.reused_from[7], None);
        let json = run.to_json().to_string();
        assert!(
            json.contains("\"reused\":14,\"distinct_reports\":"),
            "{json}"
        );
        assert!(
            json.contains("\"from_store\":false,\"reused_from\":7,"),
            "{json}"
        );
    }

    #[test]
    fn distinct_reports_ignore_config_and_axes() {
        let workloads: Vec<SharedWorkload> = vec![Arc::new(Axpy::new(256))];
        let scenarios =
            ScenarioConfig::axis(&[ScenarioConfig::ava_x(2)], Knob::L2_KIB, &[512, 1024]);
        let run = Sweep::grid(workloads, scenarios)
            .runner()
            .threads(1)
            .execute();
        let report = &run.report;
        assert_ne!(report.reports[0].config, report.reports[1].config);
        assert_eq!(report.distinct_reports(), 1);
        // The run digests only the simulated report; the copy is its twin.
        assert_eq!((run.reused(), run.distinct_reports), (1, 1));
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
