//! Running one workload on one system configuration.

use std::time::Instant;

use ava_compiler::{compile, CompileOptions, CompiledKernel};
use ava_isa::{Lmul, VectorContext};
use ava_memory::{
    Cache, CacheConfig, CacheStats, HierarchyConfig, MainMemory, MemoryHierarchy, MemoryStats,
};
use ava_scalar::{ScalarCore, ScalarCost};
use ava_vpu::exec::FunctionalState;
use ava_vpu::{Vpu, VpuConfig, VpuStats};
use ava_workloads::{
    validate_image, ArenaPlanner, BufferBindings, Fingerprint, PlannedLayout, Workload,
    WorkloadSetup,
};

use crate::configs::{axes_from_json, axes_to_json, Axis, ScenarioConfig, SystemConfig};
use crate::json::{object, Json};
use crate::store::{ResultStore, StoreKey};

/// Cycle/memory breakdown of one phase of a multi-kernel workload: the
/// delta of every counter across the phase's segment of the compiled
/// program. Phases run back to back on one VPU instance, so the per-phase
/// numbers partition the run's totals exactly.
#[derive(Debug, Clone)]
pub struct PhaseBreakdown {
    /// Phase display name ("0:axpy" for pipeline stages, "it3:somier" for
    /// unrolled solver iterations).
    pub name: String,
    /// Iteration index when the phase is one unrolled iteration of an
    /// iterated composite (`None` for ordinary pipeline stages). Lets
    /// downstream consumers group per-iteration cycle/memory/energy
    /// breakdowns without parsing display names.
    pub iter: Option<usize>,
    /// VPU cycles attributed to the phase's program segment.
    pub vpu_cycles: u64,
    /// VPU instruction/event counters of the segment.
    pub vpu: VpuStats,
    /// Memory-system counters of the segment.
    pub mem: MemoryStats,
}

/// Everything measured from one (workload, system) simulation.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario label ("AVA X4", "AVA MVL=256 l2=512KiB", ...).
    pub config: String,
    /// Scenario override axes the system was resolved from (empty for the
    /// paper's preset configurations).
    pub axes: Vec<Axis>,
    /// Workload name ("axpy", ...).
    pub workload: String,
    /// VPU cycles from first dispatch to last commit.
    pub vpu_cycles: u64,
    /// Total kernel cycles including the scalar-core floor.
    pub cycles: u64,
    /// VPU instruction/event counters (includes swap operations).
    pub vpu: VpuStats,
    /// Memory-system counters.
    pub mem: MemoryStats,
    /// Per-phase cycle/memory breakdowns (multi-kernel workloads only;
    /// empty for single-kernel runs).
    pub phases: Vec<PhaseBreakdown>,
    /// Compiler-inserted spill stores in the binary.
    pub compiler_spill_stores: usize,
    /// Compiler-inserted spill reloads in the binary.
    pub compiler_spill_loads: usize,
    /// Register pressure of the source kernel.
    pub register_pressure: usize,
    /// Scalar-core cost of the stripmined loop.
    pub scalar: ScalarCost,
    /// Whether every output check matched the golden reference.
    pub validated: bool,
    /// First validation error, if any.
    pub validation_error: Option<String>,
}

impl RunReport {
    /// Execution time in seconds at the 1 GHz VPU clock.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / 1e9
    }

    /// Total vector memory instructions executed, including compiler spill
    /// code and AVA swap operations (Figure 3, first column).
    #[must_use]
    pub fn memory_instructions(&self) -> u64 {
        self.vpu.memory_instrs()
    }

    /// The machine-readable form of the report: every counter of the run,
    /// grouped exactly like the struct (`vpu`, `mem`, `scalar` sub-objects,
    /// plus a `phases` array for multi-kernel runs).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut obj = object()
            .field("config", self.config.as_str())
            .field("workload", self.workload.as_str())
            .field("axes", axes_to_json(&self.axes))
            .field("cycles", self.cycles)
            .field("vpu_cycles", self.vpu_cycles)
            .field("validated", self.validated)
            .field("validation_error", self.validation_error.as_deref())
            .field("register_pressure", self.register_pressure)
            .field("compiler_spill_loads", self.compiler_spill_loads)
            .field("compiler_spill_stores", self.compiler_spill_stores)
            .field("vpu", vpu_stats_json(&self.vpu))
            .field("mem", mem_stats_json(&self.mem))
            .field(
                "scalar",
                object()
                    .field("instructions", self.scalar.instructions)
                    .field("scalar_cycles", self.scalar.scalar_cycles)
                    .field("vpu_cycles", self.scalar.vpu_cycles)
                    .finish(),
            );
        if !self.phases.is_empty() {
            obj = obj.field(
                "phases",
                self.phases
                    .iter()
                    .map(|p| {
                        let mut phase = object().field("name", p.name.as_str());
                        // Iteration grouping: unrolled solver iterations
                        // carry the iteration index and the bare phase
                        // label so consumers can aggregate per iteration.
                        if let Some(it) = p.iter {
                            phase = phase.field("iter", it).field(
                                "phase",
                                p.name.split_once(':').map_or(p.name.as_str(), |(_, n)| n),
                            );
                        }
                        phase
                            .field("vpu_cycles", p.vpu_cycles)
                            .field("vpu", vpu_stats_json(&p.vpu))
                            .field("mem", mem_stats_json(&p.mem))
                            .finish()
                    })
                    .collect::<Json>(),
            );
        }
        obj.finish()
    }

    /// Parses a report back from the document [`RunReport::to_json`] emits —
    /// the read half of the result store. Every stored counter is integral
    /// (or a string/bool), so the round trip is exact: a parsed report is
    /// bit-identical to the one that was serialized. Derived fields the
    /// emitter adds for human consumers (`memory_instrs`, `memory_fraction`,
    /// the bare per-phase `phase` label) are recomputed, not stored.
    ///
    /// # Errors
    ///
    /// Returns `Err` naming the first missing or ill-typed field; the store
    /// turns any such error into a plain cache miss.
    pub fn from_json(json: &Json) -> Result<RunReport, String> {
        let scalar = field(json, "scalar")?;
        let phases = match json.get("phases") {
            None => Vec::new(),
            Some(p) => p
                .as_arr()
                .ok_or_else(|| "phases is not an array".to_string())?
                .iter()
                .map(phase_from_json)
                .collect::<Result<Vec<_>, _>>()?,
        };
        let validation_error = match json.get("validation_error") {
            None | Some(Json::Null) => None,
            Some(Json::Str(s)) => Some(s.clone()),
            Some(other) => return Err(format!("validation_error is not a string: {other}")),
        };
        Ok(RunReport {
            config: get_str(json, "config")?,
            axes: axes_from_json(field(json, "axes")?)?,
            workload: get_str(json, "workload")?,
            vpu_cycles: get_u64(json, "vpu_cycles")?,
            cycles: get_u64(json, "cycles")?,
            vpu: vpu_stats_from_json(field(json, "vpu")?)?,
            mem: mem_stats_from_json(field(json, "mem")?)?,
            phases,
            compiler_spill_stores: get_usize(json, "compiler_spill_stores")?,
            compiler_spill_loads: get_usize(json, "compiler_spill_loads")?,
            register_pressure: get_usize(json, "register_pressure")?,
            scalar: ScalarCost {
                instructions: get_u64(scalar, "instructions")?,
                scalar_cycles: get_u64(scalar, "scalar_cycles")?,
                vpu_cycles: get_u64(scalar, "vpu_cycles")?,
            },
            validated: get_bool(json, "validated")?,
            validation_error,
        })
    }
}

fn field<'a>(json: &'a Json, key: &str) -> Result<&'a Json, String> {
    json.get(key)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn get_u64(json: &Json, key: &str) -> Result<u64, String> {
    field(json, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

fn get_usize(json: &Json, key: &str) -> Result<usize, String> {
    usize::try_from(get_u64(json, key)?).map_err(|_| format!("field {key:?} overflows usize"))
}

fn get_str(json: &Json, key: &str) -> Result<String, String> {
    Ok(field(json, key)?
        .as_str()
        .ok_or_else(|| format!("field {key:?} is not a string"))?
        .to_string())
}

fn get_bool(json: &Json, key: &str) -> Result<bool, String> {
    field(json, key)?
        .as_bool()
        .ok_or_else(|| format!("field {key:?} is not a boolean"))
}

fn phase_from_json(json: &Json) -> Result<PhaseBreakdown, String> {
    let iter = match json.get("iter") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| "phase iter is not an unsigned integer".to_string())?,
        ),
    };
    Ok(PhaseBreakdown {
        name: get_str(json, "name")?,
        iter,
        vpu_cycles: get_u64(json, "vpu_cycles")?,
        vpu: vpu_stats_from_json(field(json, "vpu")?)?,
        mem: mem_stats_from_json(field(json, "mem")?)?,
    })
}

fn vpu_stats_from_json(json: &Json) -> Result<VpuStats, String> {
    Ok(VpuStats {
        arith_instrs: get_u64(json, "arith_instrs")?,
        vloads: get_u64(json, "vloads")?,
        vstores: get_u64(json, "vstores")?,
        spill_loads: get_u64(json, "spill_loads")?,
        spill_stores: get_u64(json, "spill_stores")?,
        swap_loads: get_u64(json, "swap_loads")?,
        swap_stores: get_u64(json, "swap_stores")?,
        config_instrs: get_u64(json, "config_instrs")?,
        aggressive_reclaims: get_u64(json, "aggressive_reclaims")?,
        rename_stall_cycles: get_u64(json, "rename_stall_cycles")?,
        queue_stall_cycles: get_u64(json, "queue_stall_cycles")?,
        vrf_read_elems: get_u64(json, "vrf_read_elems")?,
        vrf_write_elems: get_u64(json, "vrf_write_elems")?,
        fpu_ops: get_u64(json, "fpu_ops")?,
        int_ops: get_u64(json, "int_ops")?,
        arith_busy_cycles: get_u64(json, "arith_busy_cycles")?,
        mem_busy_cycles: get_u64(json, "mem_busy_cycles")?,
    })
}

fn cache_stats_from_json(json: &Json) -> Result<CacheStats, String> {
    Ok(CacheStats {
        read_hits: get_u64(json, "read_hits")?,
        read_misses: get_u64(json, "read_misses")?,
        write_hits: get_u64(json, "write_hits")?,
        write_misses: get_u64(json, "write_misses")?,
        writebacks: get_u64(json, "writebacks")?,
    })
}

fn mem_stats_from_json(json: &Json) -> Result<MemoryStats, String> {
    Ok(MemoryStats {
        l1d: cache_stats_from_json(field(json, "l1d")?)?,
        l2: cache_stats_from_json(field(json, "l2")?)?,
        dram_accesses: get_u64(json, "dram_accesses")?,
        dram_bytes: get_u64(json, "dram_bytes")?,
        vmu_bytes: get_u64(json, "vmu_bytes")?,
        vector_requests: get_u64(json, "vector_requests")?,
    })
}

/// The VPU counter block shared by the run-level and per-phase JSON.
fn vpu_stats_json(s: &VpuStats) -> Json {
    object()
        .field("arith_instrs", s.arith_instrs)
        .field("vloads", s.vloads)
        .field("vstores", s.vstores)
        .field("spill_loads", s.spill_loads)
        .field("spill_stores", s.spill_stores)
        .field("swap_loads", s.swap_loads)
        .field("swap_stores", s.swap_stores)
        .field("config_instrs", s.config_instrs)
        .field("aggressive_reclaims", s.aggressive_reclaims)
        .field("rename_stall_cycles", s.rename_stall_cycles)
        .field("queue_stall_cycles", s.queue_stall_cycles)
        .field("vrf_read_elems", s.vrf_read_elems)
        .field("vrf_write_elems", s.vrf_write_elems)
        .field("fpu_ops", s.fpu_ops)
        .field("int_ops", s.int_ops)
        .field("arith_busy_cycles", s.arith_busy_cycles)
        .field("mem_busy_cycles", s.mem_busy_cycles)
        .field("memory_instrs", s.memory_instrs())
        .field("memory_fraction", s.memory_fraction())
        .finish()
}

/// The memory counter block shared by the run-level and per-phase JSON.
fn mem_stats_json(m: &MemoryStats) -> Json {
    let cache = |c: &ava_memory::CacheStats| {
        object()
            .field("read_hits", c.read_hits)
            .field("read_misses", c.read_misses)
            .field("write_hits", c.write_hits)
            .field("write_misses", c.write_misses)
            .field("writebacks", c.writebacks)
            .finish()
    };
    object()
        .field("l1d", cache(&m.l1d))
        .field("l2", cache(&m.l2))
        .field("dram_accesses", m.dram_accesses)
        .field("dram_bytes", m.dram_bytes)
        .field("vmu_bytes", m.vmu_bytes)
        .field("vector_requests", m.vector_requests)
        .finish()
}

/// Runs `workload` on the given scenario and reports cycles, statistics and
/// correctness.
///
/// # Panics
///
/// Panics if the workload produces a program that cannot be renamed (which
/// would indicate a bug in the code generator rather than a user error).
#[must_use]
pub fn run_workload(workload: &dyn Workload, scenario: &ScenarioConfig) -> RunReport {
    run_system(workload, &scenario.resolve())
}

/// The result-store key of `workload` on `system`: the point is planned,
/// built and compiled as a sweep prepares it, then fingerprinted, but not
/// simulated. Every system that shares the (MVL, compiler LMUL) key gets
/// the same content fingerprint.
#[must_use]
pub fn store_key(workload: &dyn Workload, system: &SystemConfig) -> StoreKey {
    prepare(workload, system).store_key(system)
}

/// Runs `workload` on an already-resolved [`SystemConfig`] (what
/// [`run_workload`] does after resolution). This is the sweep's pipeline
/// for a single simulated point: the preparation, then one timing run.
#[must_use]
pub fn run_system(workload: &dyn Workload, system: &SystemConfig) -> RunReport {
    simulate(&mut prepare(workload, system), system)
}

/// The half of a point that does not depend on the scenario's timing
/// model: the workload's functional memory image, its golden reference and
/// its compiled program, for one (workload, MVL, compiler LMUL) key.
/// Its content fingerprint, half of every result-store key it serves,
/// covers the layout, the golden reference, the spill arena and the
/// compiled program.
///
/// [`prepare`] reads nothing else of the system, so every scenario that
/// agrees on those three — NATIVE Xn and AVA Xn, or one MVL across all L2,
/// DRAM and bus variants — can time the same prepared point through
/// [`simulate`]. Values do not depend on the scenario either: the first
/// [`simulate`] of the point runs the program functionally over the image,
/// once, validates the result and drops the image. Every timing run then
/// works on a memory that holds only the allocation cursor.
///
/// A prepared point has one owner, which fills its lazy parts through
/// `&mut`: nothing in it is shared or locked.
#[derive(Debug)]
pub(crate) struct PreparedPoint {
    workload: &'static str,
    elements: u64,
    /// The key half of the system the point was prepared for.
    mvl: usize,
    lmul: Lmul,
    /// The functional memory after planning, data generation and the spill
    /// arena, until the functional pass consumes it.
    image: MainMemory,
    /// The image's allocations without its data: the allocation cursor
    /// sits at the end of the arena, where a timing run's M-VRF goes.
    allocator: MainMemory,
    /// The functional pass's outcome, from the point's first simulation.
    functional: Option<FunctionalRun>,
    plan: PlannedLayout,
    /// Output checks, strip count, phase marks and warm ranges. Its IR
    /// kernel and reference outputs are dropped once compiled: nothing
    /// reads them after that, and a claim holds all of its points.
    setup: WorkloadSetup,
    compiled: CompiledKernel,
    spill_base: u64,
    /// The result-store content fingerprint, computed on first use: a
    /// sweep without a store never formats the program.
    fingerprint: Option<u64>,
    /// The warm-ups the owner announced through [`PreparedPoint::announce`]:
    /// one per L2 geometry and warm ranges.
    warm_l2: Vec<WarmL2>,
    #[cfg(test)]
    _live: tests::LiveImage,
}

impl PreparedPoint {
    /// The point's result-store key on `system`: its content fingerprint
    /// plus the resolved scenario identity.
    fn store_key(&mut self, system: &SystemConfig) -> StoreKey {
        StoreKey::new(self.workload, self.elements, system, self.fingerprint())
    }

    /// The content half of the point's result-store key: the planned
    /// layout, the golden reference (its checks a word at a time), the
    /// spill arena and the compiled program bytes (via their exhaustive
    /// Debug form).
    fn fingerprint(&mut self) -> u64 {
        *self.fingerprint.get_or_insert_with(|| {
            let mut h = Fingerprint::new();
            h.write_str(self.workload);
            h.write_u64(self.elements);
            self.plan.fingerprint(&mut h);
            self.setup.fingerprint(&mut h);
            h.write_u64(self.spill_base);
            h.write_u64((self.mvl * 8) as u64);
            h.write_str(&format!("{:?}", self.compiled.program));
            h.write_u64(self.compiled.spill_stores as u64);
            h.write_u64(self.compiled.spill_loads as u64);
            h.write_u64(self.compiled.max_pressure as u64);
            h.finish()
        })
    }

    /// Announces a later simulation on `system`, so that a warmed L2 its
    /// warm-up shares with another announced simulation is walked once
    /// and then copied.
    pub(crate) fn announce(&mut self, system: &SystemConfig) {
        let (l2, ranges) = (system.memory.l2, self.warm_ranges(&system.vpu));
        match self
            .warm_l2
            .iter_mut()
            .find(|w| w.l2 == l2 && w.ranges == ranges)
        {
            Some(w) => w.pending += 1,
            None => self.warm_l2.push(WarmL2 {
                l2,
                ranges,
                pending: 1,
                cache: None,
            }),
        }
    }

    /// The ranges a simulation on a VPU built for `vpu` warms: the
    /// planner-derived buffer ranges and the M-VRF, which that VPU reserves
    /// directly above the spill arena.
    fn warm_ranges(&self, vpu: &VpuConfig) -> Vec<(u64, u64)> {
        let mut memory = self.allocator.clone();
        let (_, arena_end) = memory.allocated_range();
        let _ = Vpu::reserve_mvrf(vpu, &mut memory);
        let (_, mvrf_end) = memory.allocated_range();
        let mut ranges = self.setup.warm_ranges.clone();
        ranges.push((arena_end, mvrf_end));
        ranges
    }

    fn assert_prepared_for(&self, system: &SystemConfig) {
        assert_eq!(
            (self.mvl, self.lmul),
            (system.mvl(), system.compiler_lmul),
            "{} on {}: the point was prepared for another MVL or compiler LMUL",
            self.workload,
            system.label()
        );
    }
}

/// An L2 warm-up that several simulations of one prepared point share: the
/// warmed L2 depends only on its geometry and the warm ranges.
#[derive(Debug)]
struct WarmL2 {
    l2: CacheConfig,
    ranges: Vec<(u64, u64)>,
    /// Announced simulations that have not run yet.
    pending: usize,
    /// The warmed L2, kept from the first of them for the rest.
    cache: Option<Cache>,
}

impl WarmL2 {
    /// A hierarchy for `config` whose L2 is warmed over this entry's
    /// ranges, with every counter at zero: a copy of the kept L2, or (for
    /// the first simulation) a walk of the ranges, kept while announced
    /// simulations remain. The last one takes the kept L2 itself.
    fn hierarchy(&mut self, config: HierarchyConfig) -> MemoryHierarchy {
        self.pending = self.pending.saturating_sub(1);
        match (self.cache.take(), self.pending) {
            (Some(l2), 0) => MemoryHierarchy::with_l2(config, l2),
            (Some(l2), _) => {
                let mem = MemoryHierarchy::with_l2(config, l2.clone());
                self.cache = Some(l2);
                mem
            }
            (None, pending) => {
                let mem = walked(config, &self.ranges);
                if pending > 0 {
                    self.cache = Some(mem.l2().clone());
                }
                mem
            }
        }
    }
}

/// A fresh hierarchy for `config` with its L2 warmed over `ranges`.
fn walked(config: HierarchyConfig, ranges: &[(u64, u64)]) -> MemoryHierarchy {
    let mut mem = MemoryHierarchy::new(config);
    mem.warm_caches_ranges(ranges);
    mem
}

/// What the functional pass of a prepared point leaves for its timing runs.
#[derive(Debug)]
struct FunctionalRun {
    /// The golden-reference check of the memory the program left.
    validation: Result<(), String>,
    /// The element addresses of every gather and scatter, in program order.
    indexed_addrs: Vec<u64>,
}

impl FunctionalRun {
    /// Runs `compiled`'s program over `image` in program order and
    /// validates the memory it leaves against `setup`'s golden reference.
    /// The image is dropped when the pass ends.
    fn new(
        mut image: MainMemory,
        compiled: &CompiledKernel,
        setup: &WorkloadSetup,
        mvl: usize,
    ) -> Self {
        let mut indexed_addrs = Vec::new();
        FunctionalState::new(mvl).run(
            compiled.program.instructions(),
            &mut image,
            &mut indexed_addrs,
        );
        Self {
            validation: validate_image(&image, &setup.checks),
            indexed_addrs,
        }
    }
}

/// Plans, builds and compiles `workload` for `system`'s MVL and compiler
/// LMUL — steps 1 and 2 of the point pipeline. Nothing else of `system` is
/// read.
#[must_use]
pub(crate) fn prepare(workload: &dyn Workload, system: &SystemConfig) -> PreparedPoint {
    // The image is built outside any scenario's hierarchy: the workloads
    // only allocate and write functional memory, so the caches it is built
    // beside never matter.
    let mut mem = MemoryHierarchy::new(HierarchyConfig::default());

    // 1. Planning step of the two-step workload protocol: the application
    //    declares its named input/output buffers and the shared planner
    //    places them. The vectorising compiler then sees the system's
    //    maximum vector length while the workload generates data + IR +
    //    golden reference against the planned layout (no external bindings
    //    here — pipelined composites bind phase to phase internally).
    let ctx = VectorContext::with_mvl(system.mvl());
    let plan = ArenaPlanner::new().plan(&mut mem, &workload.data_layout());
    let mut setup = workload.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none());

    // 2. Register allocation against the architectural budget (32 registers,
    //    or 32/LMUL under register grouping); spill slots live on the stack
    //    and are one full MVL wide. The arena is allocated directly above
    //    the application data, so it too depends only on the workload and
    //    the MVL.
    let spill_slot_bytes = (system.mvl() * 8) as u64;
    let spill_base = mem.allocate(64 * spill_slot_bytes);
    let compiled = compile(
        &setup.kernel,
        &CompileOptions::new(system.compiler_lmul, spill_base, spill_slot_bytes),
    );
    drop(std::mem::take(&mut setup.kernel));
    drop(std::mem::take(&mut setup.outputs));

    PreparedPoint {
        workload: workload.name(),
        elements: workload.elements() as u64,
        mvl: system.mvl(),
        lmul: system.compiler_lmul,
        allocator: mem.memory().allocator_only(),
        image: std::mem::take(mem.memory_mut()),
        functional: None,
        plan,
        setup,
        compiled,
        spill_base,
        fingerprint: None,
        warm_l2: Vec::new(),
        #[cfg(test)]
        _live: tests::LiveImage::new(),
    }
}

/// Serves `system`'s report on `prepared` from `store` when it has a usable
/// entry; otherwise takes it from `fresh` and checkpoints it. Returns the
/// report and whether it came from the store. Without a store, `fresh`
/// always runs.
///
/// # Panics
///
/// Panics if `system`'s MVL or compiler LMUL differs from those of the
/// system `prepared` was built for.
pub(crate) fn stored_or(
    prepared: &mut PreparedPoint,
    system: &SystemConfig,
    store: Option<&ResultStore>,
    fresh: impl FnOnce(&mut PreparedPoint) -> RunReport,
) -> (RunReport, bool) {
    prepared.assert_prepared_for(system);
    let run_start = Instant::now();

    // Result-store consultation. The key is the prepared content
    // fingerprint plus the resolved scenario identity. A hit replaces the
    // fresh report wholesale.
    let key = store.map(|_| prepared.store_key(system));
    if let (Some(store), Some(key)) = (store, &key) {
        if let Some(report) = store.lookup(key) {
            return (report, true);
        }
    }
    let report = fresh(prepared);

    // Checkpoint: the fresh result lands in the store the moment this
    // point finishes, so a killed sweep loses at most the points in
    // flight. The entry also records the point's wall time, which no sweep
    // reads back. A write failure degrades to an uncached run. A point
    // that failed validation is never stored: a wrong result must be
    // simulated (and reported) again, not served on every rerun.
    if let (true, Some(store), Some(key)) = (report.validated, store, &key) {
        let wall_ns = u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if let Err(e) = store.insert(key, &report, wall_ns.max(1)) {
            eprintln!("warning: result store write failed: {e}");
        }
    }
    (report, false)
}

/// Times `prepared` on `system` — steps 3–6 of the point pipeline. The
/// point's first simulation runs the functional pass and validates it.
///
/// # Panics
///
/// Panics if `system`'s MVL or compiler LMUL differs from those of the
/// system `prepared` was built for.
pub(crate) fn simulate(prepared: &mut PreparedPoint, system: &SystemConfig) -> RunReport {
    prepared.assert_prepared_for(system);
    let ranges = prepared.warm_ranges(&system.vpu);
    let PreparedPoint {
        workload,
        mvl,
        image,
        allocator,
        functional,
        setup,
        compiled,
        warm_l2,
        ..
    } = prepared;
    let functional = functional
        .get_or_insert_with(|| FunctionalRun::new(std::mem::take(image), compiled, setup, *mvl));

    // 3. A hierarchy for the scenario with its L2 warmed over the working
    //    set: the planner-derived buffer ranges the run actually touches
    //    (dead placeholder inputs of pipelined composites stay cold) and
    //    the M-VRF — but *not* the spill arena: it is not application
    //    data, and at long MVLs (64 slots × MVL × 8 B) warming it would
    //    evict the real working set from small L2 configurations before
    //    the run starts. A warm-up announced for several simulations is
    //    walked once and copied. The memory holds no data but continues
    //    the prepared allocations; the VPU reserves its M-VRF backing store
    //    above the arena (AVA only), where the warm ranges put it.
    let mut mem = match warm_l2
        .iter_mut()
        .find(|w| w.l2 == system.memory.l2 && w.ranges == ranges)
    {
        Some(warm) => warm.hierarchy(system.memory),
        None => walked(system.memory, &ranges),
    };
    *mem.memory_mut() = allocator.clone();
    let mut vpu = Vpu::new(system.vpu.clone(), &mut mem);
    debug_assert_eq!(
        ranges.last().map(|&(_, mvrf_end)| mvrf_end),
        Some(mem.memory().allocated_range().1),
        "the M-VRF lies where the warm ranges put it"
    );

    // 4. Cycle-level simulation on the VPU, fed the gather and scatter
    //    addresses of the functional pass. The program runs as one segment
    //    per phase mark on the same VPU instance — observationally
    //    identical to one continuous run — or as one whole-program segment
    //    without marks. A multi-phase run records every phase's
    //    cycle/memory counters as a delta.
    let marks = &setup.phase_marks;
    let segments = marks.len().max(1);
    let mut phases = Vec::new();
    let mut indexed_addrs = functional.indexed_addrs.as_slice();
    let mut vpu_cycles = 0;
    let mut vpu_stats = ava_vpu::VpuStats::default();
    let mut program_start = 0;
    let mut mem_before = mem.stats();
    for i in 0..segments {
        // The last segment always runs to the end of the program, so any
        // trailing compiler-inserted code is attributed to it.
        let program_end = if i + 1 == segments {
            compiled.program.len()
        } else {
            compiled.program_split(marks[i].ir_end)
        };
        let seg = vpu.time_range(
            &compiled.program,
            program_start..program_end,
            &mut mem,
            &mut indexed_addrs,
        );
        if marks.len() > 1 {
            let mem_now = mem.stats();
            phases.push(PhaseBreakdown {
                name: marks[i].name.clone(),
                iter: marks[i].iter,
                vpu_cycles: seg.cycles,
                vpu: seg.stats,
                mem: mem_now.delta_since(&mem_before),
            });
            mem_before = mem_now;
        }
        vpu_cycles += seg.cycles;
        vpu_stats.merge(&seg.stats);
        program_start = program_end;
    }

    // 5. Scalar-core floor for the stripmined loop.
    let scalar_core = ScalarCore::new(system.scalar);
    let scalar = scalar_core.loop_cost(setup.strips, compiled.program.len() as u64);
    let cycles = scalar_core.combine(vpu_cycles, &scalar);

    // 6. Validation: the functional pass's check against the golden
    //    reference (chained across phases for pipelined composites: a
    //    consumed intermediate buffer is only checked through the
    //    downstream phase's reference), then this run's register tags.
    let validation = functional
        .validation
        .clone()
        .and_then(|()| match vpu.tag_error() {
            Some(e) => Err(e.to_string()),
            None => Ok(()),
        });

    RunReport {
        config: system.label().to_string(),
        axes: system.axes.clone(),
        workload: workload.to_string(),
        vpu_cycles,
        cycles,
        vpu: vpu_stats,
        mem: mem.stats(),
        phases,
        compiler_spill_stores: compiled.spill_stores,
        compiler_spill_loads: compiled.spill_loads,
        register_pressure: compiled.max_pressure,
        scalar,
        validated: validation.is_ok(),
        validation_error: validation.err(),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use ava_workloads::{Axpy, Blackscholes, Somier};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use crate::configs::{Knob, ScenarioConfig};

    /// Prepared points made on one thread: alive now, and most alive at
    /// once.
    #[derive(Debug, Default)]
    struct LiveCounts {
        now: AtomicUsize,
        peak: AtomicUsize,
    }

    thread_local! {
        static LIVE: Arc<LiveCounts> = Arc::default();
    }

    /// Counts the prepared points made on one thread, wherever they are
    /// dropped. A one-thread sweep prepares on the calling thread, so a
    /// test reading the counts sees only its own sweep.
    #[derive(Debug)]
    pub(crate) struct LiveImage(Arc<LiveCounts>);

    impl LiveImage {
        pub(crate) fn new() -> Self {
            let counts = LIVE.with(Arc::clone);
            let now = counts.now.fetch_add(1, Ordering::Relaxed) + 1;
            counts.peak.fetch_max(now, Ordering::Relaxed);
            Self(counts)
        }

        /// (alive now, most alive at once) for points made on this thread,
        /// then restarts the peak from the current count.
        pub(crate) fn take_counts() -> (usize, usize) {
            LIVE.with(|counts| {
                let now = counts.now.load(Ordering::Relaxed);
                (now, counts.peak.swap(now, Ordering::Relaxed))
            })
        }
    }

    impl Drop for LiveImage {
        fn drop(&mut self) {
            self.0.now.fetch_sub(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn one_prepared_point_times_every_scenario_of_its_key() {
        // NATIVE X2 and AVA X2 share MVL 32 and LMUL 1; the first run
        // makes the functional pass and every run reads it, so the order
        // of the runs cannot matter.
        let w = Blackscholes::new(128);
        let native = ScenarioConfig::native_x(2).resolve();
        let ava = ScenarioConfig::ava_x(2).with(Knob::L2_KIB, 256).resolve();
        let mut prepared = prepare(&w, &native);
        for system in [&ava, &native, &ava] {
            let report = simulate(&mut prepared, system);
            assert_eq!(
                format!("{report:?}"),
                format!("{:?}", run_system(&w, system))
            );
        }
    }

    #[test]
    fn a_claim_that_shares_l2_warm_ups_reports_what_each_point_alone_does() {
        // Somier's working set exceeds a 64 KiB L2, so that warm-up evicts.
        // NATIVE X2 and AVA X2 share the key; each AVA point warms its
        // M-VRF too, whose size the VVR count sets. The DRAM bandwidth and
        // L1 size leave the warm-up alone, so points share one per L2 size
        // and VVR count, in any order.
        let w = Somier::new(2048);
        let mut systems = Vec::new();
        for l2 in [64, 256] {
            for (dram, vvrs) in [(8, 64), (16, 64), (8, 96), (32, 64)] {
                let ava = ScenarioConfig::ava_x(2)
                    .with(Knob::L2_KIB, l2)
                    .with(Knob::DRAM_BW, dram)
                    .with(Knob::VVRS, vvrs);
                systems.push(ava.resolve());
            }
            let native = ScenarioConfig::native_x(2).with(Knob::L2_KIB, l2);
            systems.push(native.resolve());
            systems.push(native.with(Knob::L1_KIB, 64).resolve());
        }
        systems.rotate_left(3);
        let mut prepared = prepare(&w, &systems[0]);
        for system in &systems {
            prepared.announce(system);
        }
        assert_eq!(
            prepared.warm_l2.len(),
            6,
            "2 L2 sizes x (2 VVR counts + NATIVE)"
        );
        let misses = |r: &RunReport| r.mem.l2.misses();
        for (i, system) in systems.iter().enumerate() {
            let report = simulate(&mut prepared, system);
            let alone = run_system(&w, system);
            assert!(report.validated, "{:?}", report.validation_error);
            if system.memory.l2.size_bytes == 64 << 10 {
                assert!(misses(&report) > 0, "point {i} misses the L2");
            }
            assert_eq!(format!("{report:?}"), format!("{alone:?}"), "point {i}");
        }
        assert!(
            prepared
                .warm_l2
                .iter()
                .all(|w| w.pending == 0 && w.cache.is_none()),
            "the last point of each warm-up takes its L2"
        );
    }

    #[test]
    #[should_panic(expected = "prepared for another MVL or compiler LMUL")]
    fn a_prepared_point_refuses_a_system_of_another_key() {
        let w = Axpy::new(256);
        let mut prepared = prepare(&w, &ScenarioConfig::native_x(2).resolve());
        let native_x4 = ScenarioConfig::native_x(4).resolve();
        let _ = simulate(&mut prepared, &native_x4);
    }

    #[test]
    fn axpy_runs_validated_on_every_organisation() {
        let w = Axpy::new(256);
        for sys in [
            ScenarioConfig::native_x(1),
            ScenarioConfig::ava_x(8),
            ScenarioConfig::rg_lmul(Lmul::M8),
        ] {
            let r = run_workload(&w, &sys);
            assert!(r.validated, "{}: {:?}", r.config, r.validation_error);
            assert!(r.cycles > 0);
            assert_eq!(r.compiler_spill_stores, 0, "axpy never spills");
            assert_eq!(r.vpu.swap_ops(), 0, "axpy never swaps");
        }
    }

    #[test]
    fn longer_native_configurations_speed_up_axpy() {
        let w = Axpy::new(2048);
        let x1 = run_workload(&w, &ScenarioConfig::native_x(1));
        let x8 = run_workload(&w, &ScenarioConfig::native_x(8));
        let speedup = x1.cycles as f64 / x8.cycles as f64;
        assert!(
            speedup > 1.4,
            "NATIVE X8 should be clearly faster, got {speedup}"
        );
    }

    #[test]
    fn rg_lmul8_spills_blackscholes_but_ava_x2_does_not_swap() {
        let w = Blackscholes::new(128);
        let rg = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
        assert!(rg.validated, "{:?}", rg.validation_error);
        assert!(
            rg.compiler_spill_stores > 0,
            "23-ish live values cannot fit 4 registers"
        );

        let ava2 = run_workload(&w, &ScenarioConfig::ava_x(2));
        assert!(ava2.validated, "{:?}", ava2.validation_error);
        assert_eq!(ava2.vpu.swap_ops(), 0, "32 physical registers suffice");
        assert_eq!(
            ava2.compiler_spill_stores, 0,
            "AVA keeps all 32 architectural registers"
        );
    }

    #[test]
    fn somier_only_breaks_down_at_the_largest_grouping() {
        let w = Somier::new(512);
        let rg4 = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M4));
        let rg8 = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
        assert!(rg4.validated && rg8.validated);
        assert_eq!(rg4.compiler_spill_stores, 0);
        assert!(rg8.compiler_spill_stores > 0);
    }

    #[test]
    fn reports_round_trip_through_json_bit_identically() {
        let w = Axpy::new(256);
        let mut r = run_workload(
            &w,
            &ScenarioConfig::ava_x(8)
                .with(Knob::MVL, 64)
                .with(Knob::ITERS, 2),
        );
        // Graft synthetic phases (with and without an iteration index) and a
        // validation failure so every optional field of the schema is
        // exercised by one document.
        r.phases.push(PhaseBreakdown {
            name: "it0:axpy".to_string(),
            iter: Some(0),
            vpu_cycles: r.vpu_cycles,
            vpu: r.vpu,
            mem: r.mem,
        });
        r.phases.push(PhaseBreakdown {
            name: "body".to_string(),
            iter: None,
            vpu_cycles: 1,
            vpu: r.vpu,
            mem: r.mem,
        });
        r.validation_error = Some("synthetic mismatch".to_string());
        r.validated = false;
        let parsed = RunReport::from_json(&r.to_json()).expect("round trip");
        assert_eq!(format!("{r:?}"), format!("{parsed:?}"));
    }

    #[test]
    fn from_json_rejects_missing_and_mistyped_fields() {
        let r = run_workload(&Axpy::new(256), &ScenarioConfig::native_x(1));
        let Json::Obj(fields) = r.to_json() else {
            panic!("report JSON is not an object")
        };
        let mut missing = fields.clone();
        missing.retain(|(k, _)| k != "cycles");
        assert!(RunReport::from_json(&Json::Obj(missing))
            .unwrap_err()
            .contains("cycles"));
        let mut mistyped = fields;
        for (k, v) in &mut mistyped {
            if k == "validated" {
                *v = Json::Str("yes".to_string());
            }
        }
        assert!(RunReport::from_json(&Json::Obj(mistyped)).is_err());
    }

    #[test]
    fn report_memory_instruction_accounting_is_consistent() {
        let w = Blackscholes::new(128);
        let r = run_workload(&w, &ScenarioConfig::rg_lmul(Lmul::M8));
        assert_eq!(
            r.vpu.spill_loads as usize + r.vpu.spill_stores as usize,
            r.compiler_spill_loads + r.compiler_spill_stores,
            "executed spill operations must match what the compiler emitted"
        );
        assert!(r.memory_instructions() >= r.vpu.vloads + r.vpu.vstores);
    }
}
