//! The traced re-drive: every point of a workload run again through the
//! public calls `ava_sim`'s sweep makes (`run_workload_stored`, which is
//! crate-private), with a span around each call into a layer.
//!
//! The re-drive is the benchmark's own copy of that orchestration. Each
//! report it produces must equal the untraced sweep's report for the same
//! point byte for byte (checked by the caller), so a restructured sweep
//! that this copy no longer matches fails loudly instead of being measured
//! wrongly.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

use ava::compiler::{compile, CompileOptions, CompiledKernel};
use ava::isa::VectorContext;
use ava::memory::MemoryHierarchy;
use ava::scalar::ScalarCore;
use ava::sim::json::object;
use ava::sim::{PhaseBreakdown, PointStats, ResultStore, RunReport, StoreKey, SweepReport};
use ava::vpu::{Vpu, VpuRunResult, VpuStats};
use ava::workloads::{validate, ArenaPlanner, BufferBindings, Fingerprint, Workload};

use crate::suite::Setup;

/// One recorded call: which layer, when, and the point it served (`None`
/// for calls made once per sweep).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub point: Option<usize>,
    pub worker: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The spans of one thread, timed against the pass's common origin.
struct Recorder {
    origin: Instant,
    worker: usize,
    point: Option<usize>,
    spans: Vec<Span>,
}

impl Recorder {
    fn new(origin: Instant, worker: usize) -> Self {
        Self {
            origin,
            worker,
            point: None,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Closes a span that opened at `start_ns`.
    fn close(&mut self, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            point: self.point,
            worker: self.worker,
            start_ns,
            end_ns,
        });
    }

    fn span<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let start_ns = self.now();
        let out = call();
        self.close(name, start_ns);
        out
    }
}

/// What one point produced: its report and whether the store served it,
/// or the message of the panic that ended it.
pub type PointOutcome = Result<(RunReport, bool), String>;

/// One traced pass over a workload's grid.
pub struct Pass {
    /// Per point, in grid order.
    pub outcomes: Vec<PointOutcome>,
    /// The chart text, as the driver prints it (empty if a point failed).
    pub stdout: String,
    /// The sweep's energy JSON (empty if a point failed).
    pub energy: String,
    /// Every span of the pass, in no particular order.
    pub spans: Vec<Span>,
    /// Host wall time of the whole pass.
    pub wall_s: f64,
}

impl Pass {
    /// Points that panicked or failed validation.
    pub fn failed(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| !matches!(o, Ok((r, _)) if r.validated))
            .count()
    }

    /// Total seconds of the spans named `name`.
    pub fn layer_seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }
}

/// The key the sweep's compile cache uses: workload (grid index), MVL and
/// the register-allocation inputs.
type CompileKey = (usize, usize, usize, u64, u64);

/// Re-drives every point of `setup`'s grid on `threads` workers, most
/// expensive point first like the sweep's scheduler, then prices, charts
/// and serialises the result as the driver does. A panicking point is
/// caught and recorded; the other points still run.
pub fn redrive(setup: &Setup, threads: usize) -> Pass {
    let sweep = &setup.sweep;
    let scenarios = sweep.resolved_systems().len();
    let n = sweep.len();
    let origin = Instant::now();
    let cache: Mutex<HashMap<CompileKey, Arc<CompiledKernel>>> = Mutex::new(HashMap::new());
    let store = setup.store();

    let mut main = Recorder::new(origin, 0);
    // The driver builds the workloads and the grid again inside every
    // sweep; the pass pays for the same construction, so its wall time
    // compares with the sweep's.
    let _ = main.span("bench.build", || crate::suite::build_grid(&setup.spec));
    if let Some(store) = store {
        // The sweep reads every entry's recorded cost before it starts.
        main.span("store.scan", || store.recorded_costs());
    }

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| {
        let (w, s) = (i / scenarios, i % scenarios);
        let system = &sweep.resolved_systems()[s];
        let width = (system.mvl() / system.compiler_lmul.factor()) as u64;
        let elements = sweep.workloads()[w].elements() as u64;
        let cost = elements
            .saturating_mul(16)
            .checked_div(width)
            .map_or(u64::MAX, |c| c.max(1));
        (std::cmp::Reverse(cost), i)
    });
    let cursor = AtomicUsize::new(0);
    let work = |worker: usize| {
        let mut rec = Recorder::new(origin, worker);
        let mut done = Vec::new();
        while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            rec.point = Some(i);
            let start_ns = rec.now();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_point(setup, i / scenarios, i % scenarios, &cache, store, &mut rec)
            }))
            .map_err(|panic| panic_message(&*panic));
            rec.close("point", start_ns);
            done.push((i, outcome));
        }
        (rec.spans, done)
    };
    let per_worker: Vec<_> = if threads <= 1 {
        vec![work(0)]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|worker| {
                    let work = &work;
                    scope.spawn(move || work(worker))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("point panics are caught inside the worker"))
                .collect()
        })
    };

    let mut spans = main.spans;
    let mut outcomes: Vec<Option<PointOutcome>> = (0..n).map(|_| None).collect();
    for (worker_spans, done) in per_worker {
        spans.extend(worker_spans);
        for (i, outcome) in done {
            outcomes[i] = Some(outcome);
        }
    }
    let outcomes: Vec<PointOutcome> = outcomes
        .into_iter()
        .map(|o| o.expect("every point was claimed"))
        .collect();

    let mut pass = Pass {
        outcomes,
        stdout: String::new(),
        energy: String::new(),
        spans,
        wall_s: 0.0,
    };
    if pass.failed() == 0 {
        let mut rec = Recorder::new(origin, 0);
        let report = sweep_report(setup, &pass, threads);
        let energy = rec.span("energy.price", || {
            ava_bench::sweep_energy_json(&report, sweep.resolved_systems())
        });
        pass.stdout = rec.span("bench.format", || charts(setup, &report));
        rec.span("json.emit", || {
            object()
                .field("energy", energy)
                .field("sweep", report.to_json())
                .finish()
                .to_string()
        });
        pass.wall_s = origin.elapsed().as_secs_f64();
        pass.spans.extend(rec.spans);
        // Priced again outside the timed pass, for the caller's comparison.
        pass.energy = ava_bench::sweep_energy_json(&report, sweep.resolved_systems()).to_string();
    } else {
        pass.wall_s = origin.elapsed().as_secs_f64();
    }
    pass
}

/// One point, call for call as `ava_sim::run::run_workload_stored` makes
/// it.
fn run_point(
    setup: &Setup,
    w: usize,
    s: usize,
    cache: &Mutex<HashMap<CompileKey, Arc<CompiledKernel>>>,
    store: Option<&ResultStore>,
    rec: &mut Recorder,
) -> (RunReport, bool) {
    let workload: &dyn Workload = setup.sweep.workloads()[w].as_ref();
    let system = &setup.sweep.resolved_systems()[s];
    let run_start = Instant::now();
    let mut mem = rec.span("memory.new", || MemoryHierarchy::new(system.memory));

    let ctx = VectorContext::with_mvl(system.mvl());
    let plan = rec.span("workloads.plan", || {
        ArenaPlanner::new().plan(&mut mem, &workload.data_layout())
    });
    let built = rec.span("workloads.build", || {
        workload.build_with_bindings(&mut mem, &ctx, &plan, &BufferBindings::none())
    });

    let spill_slot_bytes = (system.mvl() * 8) as u64;
    let spill_base = mem.allocate(64 * spill_slot_bytes);
    let (_, arena_end) = mem.memory().allocated_range();
    let opts = CompileOptions::new(system.compiler_lmul, spill_base, spill_slot_bytes);
    let key = (
        w,
        system.mvl(),
        opts.lmul.factor(),
        spill_base,
        spill_slot_bytes,
    );
    let cached = cache
        .lock()
        .expect("compile cache poisoned")
        .get(&key)
        .cloned();
    let compiled = match cached {
        Some(hit) => hit,
        None => {
            // Compiled outside the lock, as the sweep's cache does.
            let fresh = Arc::new(rec.span("compiler.compile", || compile(&built.kernel, &opts)));
            cache
                .lock()
                .expect("compile cache poisoned")
                .entry(key)
                .or_insert(fresh)
                .clone()
        }
    };

    let store_key = store.map(|_| {
        rec.span("store.key", || {
            let mut h = Fingerprint::new();
            h.write_str(workload.name());
            h.write_u64(workload.elements() as u64);
            plan.fingerprint(&mut h);
            built.fingerprint(&mut h);
            h.write_u64(spill_base);
            h.write_u64(spill_slot_bytes);
            h.write_str(&format!("{:?}", compiled.program));
            h.write_u64(compiled.spill_stores as u64);
            h.write_u64(compiled.spill_loads as u64);
            h.write_u64(compiled.max_pressure as u64);
            StoreKey::new(
                workload.name(),
                workload.elements() as u64,
                system,
                h.finish(),
            )
        })
    });
    if let (Some(store), Some(key)) = (store, &store_key) {
        if let Some(report) = rec.span("store.lookup", || store.lookup(key)) {
            return (report, true);
        }
    }

    let mut vpu = rec.span("vpu.new", || Vpu::new(system.vpu.clone(), &mut mem));
    let (_, mvrf_end) = mem.memory().allocated_range();
    let mut warm = built.warm_ranges.clone();
    warm.push((arena_end, mvrf_end));
    rec.span("memory.warm", || mem.warm_caches_ranges(&warm));

    let mut phases = Vec::new();
    let result = rec.span("vpu.simulate", || {
        if built.phase_marks.len() <= 1 {
            return vpu.run(&compiled.program, &mut mem);
        }
        let mut cycles = 0;
        let mut stats = VpuStats::default();
        let mut program_start = 0;
        let mut config_name = String::new();
        let mut mem_before = mem.stats();
        for (i, mark) in built.phase_marks.iter().enumerate() {
            let program_end = if i + 1 == built.phase_marks.len() {
                compiled.program.len()
            } else {
                compiled.program_split(mark.ir_end)
            };
            let seg = vpu.run_range(&compiled.program, program_start..program_end, &mut mem);
            let mem_now = mem.stats();
            phases.push(PhaseBreakdown {
                name: mark.name.clone(),
                iter: mark.iter,
                vpu_cycles: seg.cycles,
                vpu: seg.stats,
                mem: mem_now.delta_since(&mem_before),
            });
            mem_before = mem_now;
            cycles += seg.cycles;
            stats.merge(&seg.stats);
            config_name = seg.config_name;
            program_start = program_end;
        }
        VpuRunResult {
            config_name,
            cycles,
            stats,
        }
    });

    let (scalar, cycles) = rec.span("scalar.cost", || {
        let core = ScalarCore::new(system.scalar);
        let scalar = core.loop_cost(built.strips, compiled.program.len() as u64);
        let cycles = core.combine(result.cycles, &scalar);
        (scalar, cycles)
    });
    let validation = rec.span("workloads.validate", || validate(&mem, &built.checks));

    let report = RunReport {
        config: system.label().to_string(),
        axes: system.axes.clone(),
        workload: workload.name().to_string(),
        vpu_cycles: result.cycles,
        cycles,
        vpu: result.stats,
        mem: mem.stats(),
        phases,
        compiler_spill_stores: compiled.spill_stores,
        compiler_spill_loads: compiled.spill_loads,
        register_pressure: compiled.max_pressure,
        scalar,
        validated: validation.is_ok(),
        validation_error: validation.err(),
    };
    if let (Some(store), Some(key)) = (store, &store_key) {
        let wall_ns = u64::try_from(run_start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        rec.span("store.insert", || {
            store.insert(key, &report, wall_ns.max(1))
        })
        .unwrap_or_else(|e| eprintln!("warning: result store write failed: {e}"));
    }
    (report, false)
}

/// The pass's points as the [`SweepReport`] the driver would price and
/// chart. Only the reports and the per-point element counts reach the
/// energy model and the charts; the timing fields are the pass's own.
fn sweep_report(setup: &Setup, pass: &Pass, threads: usize) -> SweepReport {
    let scenarios = setup.sweep.resolved_systems().len();
    let mut reports = Vec::with_capacity(pass.outcomes.len());
    let mut points = Vec::with_capacity(pass.outcomes.len());
    for (i, outcome) in pass.outcomes.iter().enumerate() {
        let (report, from_store) = outcome.as_ref().expect("failed passes are not charted");
        points.push(PointStats {
            workload: report.workload.clone(),
            config: report.config.clone(),
            cost_estimate: 0,
            elements: setup.sweep.workloads()[i / scenarios].elements() as u64,
            wall_ns: 0,
            worker: 0,
            from_store: *from_store,
        });
        reports.push(report.clone());
    }
    SweepReport {
        reports,
        points,
        cache_hits: 0,
        cache_misses: 0,
        cache_disk_hits: 0,
        cache_disk_misses: 0,
        compiles: 0,
        store_hits: 0,
        store_misses: 0,
        threads,
        steals: 0,
        shard: None,
        wall_ns: 0,
    }
}

/// The chart text `ava_bench::driver` prints for the spec's chart kind.
fn charts(setup: &Setup, report: &SweepReport) -> String {
    use ava_bench::spec::ArtefactKind;
    let chart = setup.spec.chart();
    let wants = |kind: &str| chart == kind || chart == "all";
    let systems = setup.sweep.resolved_systems();
    let mut out = String::new();
    let mut push_line = |text: String| {
        out.push_str(&text);
        out.push('\n');
    };
    for (workload, runs) in setup
        .sweep
        .workloads()
        .iter()
        .zip(report.reports.chunks(systems.len()))
    {
        let name = workload.name();
        match setup.spec.artefact {
            ArtefactKind::Fig3 => {
                if wants("mem") {
                    push_line(ava_bench::format_memory_breakdown(name, runs));
                }
                if wants("mix") {
                    push_line(ava_bench::format_instruction_mix(name, runs));
                }
                if wants("perf") {
                    push_line(ava_bench::format_performance(name, runs));
                }
                if wants("energy") {
                    push_line(ava_bench::format_energy(name, runs));
                }
            }
            _ => {
                if wants("tables") {
                    push_line(ava_bench::format_mvl_extrapolation(name, systems, runs));
                    push_line(ava_bench::format_cache_sensitivity(name, runs));
                }
                if wants("energy") {
                    push_line(ava_bench::format_energy_sensitivity(name, systems, runs));
                }
            }
        }
    }
    out
}

fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}
