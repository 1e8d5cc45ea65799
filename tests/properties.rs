//! Property-based tests over the whole stack: randomly generated vector
//! kernels must run tag-clean (every read meets its last writer's value
//! through renaming, swaps and spills) on every register-file organisation
//! and produce the same results with and without register grouping, the
//! register allocator must always respect
//! its budget, the cache hierarchy must never change functional values, the
//! functional memory (word by word and in page runs) must agree with a plain
//! byte-map model, `execute_into` must match the per-element definition of
//! every arithmetic opcode bit for bit, the VRF mapping's resident walk
//! must match its location table, the recency-ordered cache must match a
//! timestamp-LRU reference model access for access (a clone of it too), an
//! L2 installed from a warmed copy must equal one that walked its ranges,
//! the one-walk swap victim must equal the two-walk selection, an L2 with more
//! sets must hit wherever a smaller one of the same line and ways hits (the
//! fact the sweep's sibling reuse rests on), and the linear static memory
//! pass must report exactly what the quadratic scan it replaced did, and a
//! packed operand list must round-trip, print and compare like a `Vec`.
//!
//! The container has no access to crates.io, so instead of proptest these
//! tests drive a deterministic SplitMix64 case generator: every run explores
//! the same cases, and a failing case is reproducible from its index alone.

use ava::compiler::analysis::{check_memory, Arena, Code, Diagnostic, Severity, VlState};
use ava::compiler::{compile, CompileOptions, IrKernel, IrOperand, KernelBuilder, VirtReg};
use ava::isa::{
    Element, Lmul, Opcode, Operand, OperandList, PackedOperand, VReg, VectorContext, MAX_SRCS,
};
use ava::memory::cache::{AccessOutcome, TRACKED_LINES};
use ava::memory::{Cache, CacheConfig, CacheStats, HierarchyConfig, MainMemory, MemoryHierarchy};
use ava::sim::{proves, run_system, Knob, RunReport, ScenarioConfig, SystemConfig};
use ava::vpu::exec::{execute_into, OperandValue};
use ava::vpu::rac::Rac;
use ava::vpu::rename::RenamedReg;
use ava::vpu::swap::{plan_free_register, SwapDecision};
use ava::vpu::vrf_mapping::{Location, VrfMapping};
use ava::vpu::{RenameMode, Vpu};
use ava::workloads::data::DataGen;
use ava::workloads::{BufferBindings, DataLayout, PlannedLayout, Workload, WorkloadSetup};
use std::collections::{BTreeMap, BTreeSet};

const CASES: u64 = 24;

/// Cases of the generated-program harness for sibling proofs.
const SIBLING_CASES: u64 = 48;

/// The deterministic stream for one case index (the workloads' SplitMix64
/// generator, seeded so every case explores a distinct sequence).
fn case_rng(case: u64) -> DataGen {
    DataGen::from_seed(0xDEAD_BEEF_CAFE_F00D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// A value in `[lo, hi]`.
fn in_range(rng: &mut DataGen, lo: u64, hi: u64) -> u64 {
    lo + rng.next_u64() % (hi - lo + 1)
}

/// A random straight-line kernel description: a sequence of operation
/// selectors over a window of at most `live` values (the register
/// pressure), at vector length `vl`.
#[derive(Debug, Clone)]
struct RandomKernel {
    ops: Vec<u8>,
    vl: usize,
    live: usize,
}

fn random_kernel(case: u64) -> RandomKernel {
    let mut rng = case_rng(case);
    let len = in_range(&mut rng, 4, 59) as usize;
    let ops = (0..len).map(|_| in_range(&mut rng, 0, 5) as u8).collect();
    let vl = in_range(&mut rng, 1, 16) as usize;
    RandomKernel { ops, vl, live: 24 }
}

/// Emits `spec`'s operations on `b`, starting from the `live` values:
/// operation `i` combines two values of the window or, as selector 5,
/// takes `load(b, i)`. Every third value and the last one go to
/// `store(b, i, value)`, the last with `i = spec.ops.len()`.
fn emit_ops(
    b: &mut KernelBuilder,
    spec: &RandomKernel,
    mut live: Vec<VirtReg>,
    mut load: impl FnMut(&mut KernelBuilder, usize) -> VirtReg,
    mut store: impl FnMut(&mut KernelBuilder, usize, VirtReg),
) {
    for (i, op) in spec.ops.iter().enumerate() {
        let a = live[i % live.len()];
        let c = live[(i * 7 + 3) % live.len()];
        let v = match op {
            0 => b.vfadd(a, c),
            1 => b.vfmul(a, c),
            2 => b.vfsub(a, c),
            3 => b.vfmadd(a, c, a),
            4 => b.vfmax(a, c),
            _ => load(b, i),
        };
        live.push(v);
        if live.len() > spec.live {
            live.remove(0);
        }
        if i % 3 == 0 {
            store(b, i, v);
        }
    }
    // Always store the final value so every kernel has observable output.
    let last = *live.last().expect("at least one live value");
    store(b, spec.ops.len(), last);
}

/// Materialises the random kernel: allocates an input array, builds the IR
/// with the kernel builder, and returns (kernel, output addresses).
fn build_kernel(
    mem: &mut MemoryHierarchy,
    spec: &RandomKernel,
) -> (ava::compiler::IrKernel, Vec<u64>) {
    let n = 64usize;
    let input = mem.allocate((n * 8) as u64);
    for i in 0..n {
        mem.write_f64(input + 8 * i as u64, (i as f64) * 0.25 - 3.0);
    }
    let out_base = mem.allocate(((spec.ops.len() + 1) * spec.vl * 8) as u64);

    let mut b = KernelBuilder::new("random");
    b.set_vl(spec.vl);
    let live = vec![b.vload(input), b.vload(input + 128)];
    let mut outputs = Vec::new();
    emit_ops(
        &mut b,
        spec,
        live,
        |b, i| b.vload(input + (8 * ((i * 16) % (n - spec.vl))) as u64),
        |b, i, v| {
            let addr = out_base + (8 * i * spec.vl) as u64;
            b.vstore(v, addr);
            outputs.push(addr);
        },
    );
    (b.finish(), outputs)
}

/// A kernel's run on one configuration.
struct RandomRun {
    /// The values at the output addresses.
    outputs: Vec<f64>,
    /// The VPU's first register-tag mismatch.
    tag_error: Option<String>,
    swaps: u64,
}

/// Runs the kernel on a configuration.
fn run_on(spec: &RandomKernel, scenario: &ScenarioConfig, lmul: Lmul) -> RandomRun {
    let sys = scenario.resolve();
    let mut mem = MemoryHierarchy::default();
    let (kernel, outputs) = build_kernel(&mut mem, spec);
    let spill_base = mem.allocate(64 * 1024);
    let compiled = compile(
        &kernel,
        &CompileOptions::new(lmul, spill_base, (sys.mvl() * 8) as u64),
    );
    let mut vpu = Vpu::new(sys.vpu.clone(), &mut mem);
    let result = vpu.run(&compiled.program, &mut mem);
    RandomRun {
        outputs: outputs
            .iter()
            .flat_map(|&addr| (0..spec.vl).map(move |i| addr + 8 * i as u64))
            .map(|a| mem.read_f64(a))
            .collect(),
        tag_error: vpu.tag_error().map(str::to_string),
        swaps: result.stats.swap_ops(),
    }
}

/// Every case runs tag-clean on the conventional long-vector design, on
/// AVA with its tiny 8-register P-VRF (heavy swap traffic), and on the
/// register-grouped baseline (heavy spill traffic). Values are computed
/// once in program order, so NATIVE X8 and AVA X8, which run one program,
/// agree by construction; the tags are what show that AVA's swaps hand
/// every reader the right value. RG-LMUL8 runs another program, with spill
/// code, and must still compute the same outputs.
#[test]
fn results_are_identical_across_organisations() {
    let mut swapping_cases = 0;
    for case in 0..CASES {
        let spec = random_kernel(case);
        let native = run_on(&spec, &ScenarioConfig::native_x(8), Lmul::M1);
        let ava = run_on(&spec, &ScenarioConfig::ava_x(8), Lmul::M1);
        let rg = run_on(&spec, &ScenarioConfig::rg_lmul(Lmul::M8), Lmul::M8);
        for (name, run) in [("NATIVE X8", &native), ("AVA X8", &ava), ("RG-LMUL8", &rg)] {
            assert_eq!(run.tag_error, None, "case {case}: {name}");
        }
        assert_eq!(
            native.outputs, rg.outputs,
            "case {case}: RG-LMUL8 diverged from NATIVE X8"
        );
        swapping_cases += usize::from(ava.swaps > 0);
    }
    assert!(
        swapping_cases * 2 >= CASES as usize,
        "only {swapping_cases} of {CASES} cases swap on AVA X8"
    );
}

/// A generated kernel as a [`Workload`]: `spec`'s operations on every strip
/// of `len` elements at the machine's MVL (the last strip shorter when
/// `len` is not a multiple of it), over two planned buffers, so the L2
/// warm-up covers them as it covers a registry workload's. The fresh loads
/// cycle through unit-stride, strided and indexed ones inside `x`, four
/// strips wide; the stores cycle through four output slots of `y`. It
/// carries no output checks: the sibling harness compares timing reports,
/// and the register tags still check every read.
#[derive(Debug, Clone)]
struct GeneratedWorkload {
    spec: RandomKernel,
    len: usize,
}

impl Workload for GeneratedWorkload {
    fn name(&self) -> &'static str {
        "generated"
    }

    fn domain(&self) -> &'static str {
        "property test"
    }

    fn elements(&self) -> usize {
        self.len * (self.spec.ops.len() + 1)
    }

    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        l.input("x", 4 * self.len);
        l.output("y", 4 * self.len);
        l
    }

    fn build_with_bindings(
        &self,
        _mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let (x, y, len) = (plan.addr("x"), plan.addr("y"), self.len);
        let at = |base: u64, element: usize| base + 8 * element as u64;
        let mvl = ctx.effective_mvl();
        let mut b = KernelBuilder::new("generated");
        let mut strips = 0;
        for start in (0..len).step_by(mvl) {
            b.set_vl(mvl.min(len - start));
            let live = vec![b.vload(at(x, start)), b.vload(at(x, len + start))];
            emit_ops(
                &mut b,
                &self.spec,
                live,
                |b, i| match i % 3 {
                    0 => b.vload(at(x, (start + 16 * i) % len)),
                    1 => b.vload_strided(at(x, i % len), 16),
                    _ => {
                        let idx = b.vid();
                        let idx = b.vmul(idx, IrOperand::Scalar(Element::from_i64(3)));
                        b.vload_indexed(at(x, i % len), idx)
                    }
                },
                |b, i, v| b.vstore(v, at(y, (i % 4) * len + start)),
            );
            strips += 1;
        }
        WorkloadSetup {
            kernel: b.finish(),
            checks: Vec::new(),
            strips,
            outputs: Vec::new(),
            warm_ranges: plan.warm_ranges(bindings),
            phase_marks: Vec::new(),
        }
    }
}

/// Case `case` of the sibling harness: a generated workload of 16 to 900
/// elements (up to 58 KiB of buffers) at a register pressure of 3 to 28
/// values, and the scale `n` of the AVA Xn / NATIVE Xn pair it runs on.
fn generated_case(case: u64) -> (GeneratedWorkload, usize) {
    let mut rng = case_rng(case ^ 0x5EED);
    let ops = (0..in_range(&mut rng, 8, 40))
        .map(|_| in_range(&mut rng, 0, 5) as u8)
        .collect();
    let live = [3, 6, 12, 20, 28][in_range(&mut rng, 0, 4) as usize];
    // A quarter of the cases is at most one strip long on AVA X8, so no
    // value dies before the end and a swap comes with no reclaim.
    let len = match in_range(&mut rng, 0, 3) {
        0 => in_range(&mut rng, 16, 128),
        _ => in_range(&mut rng, 200, 900),
    } as usize;
    let n = [1, 2, 4, 8][in_range(&mut rng, 0, 3) as usize];
    let spec = RandomKernel { ops, vl: 0, live };
    (GeneratedWorkload { spec, len }, n)
}

/// Runs cases `cases` of the sibling harness. Each case runs standalone on
/// AVA Xn with 64 and with 32 VVRs, NATIVE Xn and (at n = 1) RG-LMUL1, each
/// with a 64 KiB and a 1 MiB L2. Wherever a report `proves` another system
/// of the case, that system's own report must equal it apart from
/// `config` and `axes`. Returns how often AVA proved, and failed to prove,
/// a NATIVE-mode sibling with its rename pool and at least its L2.
fn check_sibling_proofs(cases: std::ops::Range<u64>) -> (usize, usize) {
    let unlabelled = |r: &RunReport| {
        let mut r = r.clone();
        r.config.clear();
        r.axes.clear();
        format!("{r:?}")
    };
    let (mut proven, mut refused) = (0, 0);
    for case in cases {
        let (workload, n) = generated_case(case);
        let mut bases = vec![
            ScenarioConfig::ava_x(n),
            ScenarioConfig::ava_x(n).with(Knob::VVRS, 32),
            ScenarioConfig::native_x(n),
        ];
        if n == 1 {
            bases.push(ScenarioConfig::rg_lmul(Lmul::M1));
        }
        let systems: Vec<SystemConfig> = ScenarioConfig::axis(&bases, Knob::L2_KIB, &[64, 1024])
            .iter()
            .map(ScenarioConfig::resolve)
            .collect();
        let reports: Vec<RunReport> = systems.iter().map(|s| run_system(&workload, s)).collect();
        for (from, report) in systems.iter().zip(&reports) {
            assert!(
                report.validated,
                "case {case} on {}: {:?}",
                from.label(),
                report.validation_error
            );
            for (to, other) in systems.iter().zip(&reports) {
                let holds = proves(report, from, to);
                if holds {
                    assert_eq!(
                        unlabelled(report),
                        unlabelled(other),
                        "case {case}: {} proved {}",
                        from.label(),
                        to.label()
                    );
                }
                // The pairs where only the report's counters decide.
                if (from.vpu.mode, to.vpu.mode) == (RenameMode::Ava, RenameMode::Native)
                    && from.vpu.rename_pool() == to.vpu.rename_pool()
                    && from.memory.l2.size_bytes <= to.memory.l2.size_bytes
                {
                    proven += usize::from(holds);
                    refused += usize::from(!holds);
                }
            }
        }
    }
    (proven, refused)
}

/// AVA proves its NATIVE-mode twins exactly where the timing is the same:
/// every proof the generated cases make holds against a fresh simulation,
/// and the AVA-to-NATIVE clause both fires and refuses on a fair share of
/// them (swaps, reclaims, an M-VRF warm-up that evicts data from the small
/// L2, and a 32-VVR rename pool all refuse it).
#[test]
fn every_sibling_proof_matches_a_fresh_simulation() {
    let (proven, refused) = check_sibling_proofs(0..SIBLING_CASES);
    let pairs = proven + refused;
    assert!(
        proven * 5 >= pairs && refused * 5 >= pairs,
        "AVA proved {proven} and refused {refused} NATIVE-mode siblings"
    );
}

/// [`every_sibling_proof_matches_a_fresh_simulation`] on ten times the
/// cases (`cargo test --release --test properties -- --ignored`).
#[test]
#[ignore = "a larger case count; run with --ignored"]
fn every_sibling_proof_matches_a_fresh_simulation_on_many_cases() {
    let (proven, refused) = check_sibling_proofs(0..10 * SIBLING_CASES);
    assert!(
        proven > 0 && refused > 0,
        "{proven} proven, {refused} refused"
    );
}

/// The register allocator never exceeds the architectural budget and
/// never loses a value, for any grouping factor.
#[test]
fn register_allocation_respects_every_budget() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        for lmul in Lmul::all() {
            let compiled = compile(&kernel, &CompileOptions::new(lmul, 0x100_0000, 1024));
            assert!(
                compiled.registers_used <= lmul.architectural_registers(),
                "case {case}"
            );
            for reg in compiled.program.used_registers() {
                assert_eq!(
                    reg.index() % lmul.factor(),
                    0,
                    "case {case}: register {reg} is not a group base"
                );
            }
            assert!(compiled.spill_loads >= compiled.spill_stores, "case {case}");
        }
    }
}

/// Cache warm-up and timing queries never alter functional memory.
#[test]
fn timing_accesses_never_corrupt_functional_state() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let n = in_range(&mut rng, 1, 63) as usize;
        let values: Vec<f64> = (0..n).map(|_| rng.uniform(-1e6, 1e6)).collect();
        let stride = in_range(&mut rng, 1, 63);

        let mut mem = MemoryHierarchy::default();
        let base = mem.allocate((values.len() * 8) as u64);
        for (i, v) in values.iter().enumerate() {
            mem.write_f64(base + 8 * i as u64, *v);
        }
        // Timing-side activity.
        mem.warm_caches_ranges(&[mem.memory().allocated_range()]);
        let _ = mem.vector_access(base, (values.len() * 8) as u64, false);
        let addrs: Vec<u64> = (0..values.len() as u64)
            .map(|i| base + i * 8 * stride % 4096)
            .collect();
        let _ = mem.vector_access_elements(&addrs, true);
        let _ = mem.scalar_access(base, true);
        mem.flush_caches();
        for (i, v) in values.iter().enumerate() {
            assert_eq!(
                mem.read_f64(base + 8 * i as u64),
                *v,
                "case {case}, value {i}"
            );
        }
    }
}

/// A random read/write stream over `lines` cache lines of `line` bytes,
/// addressed anywhere inside each line.
fn random_stream(rng: &mut DataGen, len: usize, lines: u64, line: u64) -> Vec<(u64, bool)> {
    (0..len)
        .map(|_| {
            let addr = in_range(rng, 0, lines - 1) * line + in_range(rng, 0, line - 1);
            (addr, rng.next_u64().is_multiple_of(3))
        })
        .collect()
}

/// One way of the reference cache.
#[derive(Debug, Clone, Copy, Default)]
struct ReferenceLine {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Clock of the last access, for LRU.
    last_use: u64,
}

/// The textbook timestamp-LRU cache: one vector of ways per set, a clock
/// stamped on every access, a miss filling an invalid way first and
/// otherwise evicting the way with the oldest stamp.
struct ReferenceCache {
    line: u64,
    sets: Vec<Vec<ReferenceLine>>,
    clock: u64,
    stats: CacheStats,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        Self {
            line: config.line_bytes as u64,
            sets: vec![vec![ReferenceLine::default(); config.ways]; config.sets()],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr / self.line;
        let sets = self.sets.len() as u64;
        ((line % sets) as usize, line / sets)
    }

    fn access(&mut self, addr: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let (set, tag) = self.set_and_tag(addr);
        let ways = &mut self.sets[set];
        let found = ways.iter().position(|l| l.valid && l.tag == tag);
        let way = found.unwrap_or_else(|| {
            (0..ways.len())
                .min_by_key(|&w| {
                    if ways[w].valid {
                        ways[w].last_use + 1
                    } else {
                        0
                    }
                })
                .unwrap()
        });
        let hit = found.is_some();
        let writeback = !hit && ways[way].valid && ways[way].dirty;
        ways[way] = ReferenceLine {
            tag,
            valid: true,
            dirty: is_write || (hit && ways[way].dirty),
            last_use: self.clock,
        };
        let stats = &mut self.stats;
        match (hit, is_write) {
            (true, false) => stats.read_hits += 1,
            (true, true) => stats.write_hits += 1,
            (false, false) => stats.read_misses += 1,
            (false, true) => stats.write_misses += 1,
        }
        stats.writebacks += u64::from(writeback);
        AccessOutcome { hit, writeback }
    }

    fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.valid && l.tag == tag)
    }

    fn flush(&mut self) {
        for ways in &mut self.sets {
            ways.fill(ReferenceLine::default());
        }
    }
}

/// The geometries the reference comparisons cover: 1, 2 and 16 ways over
/// 1, 3 and 768 sets (set counts that are not powers of two, as an L2 of
/// any whole KiB gives), each with a random line size.
fn reference_geometries() -> impl Iterator<Item = (u64, CacheConfig)> {
    [1usize, 2, 16]
        .into_iter()
        .enumerate()
        .flat_map(|(w, ways)| {
            [1usize, 3, 768]
                .into_iter()
                .enumerate()
                .map(move |(s, sets)| {
                    let case = (w * 3 + s) as u64;
                    let line = 1usize << in_range(&mut case_rng(case), 4, 7);
                    let config = CacheConfig {
                        size_bytes: sets * ways * line,
                        line_bytes: line,
                        ways,
                        hit_latency: 1,
                    };
                    (case, config)
                })
        })
}

/// Random read/write streams over working sets of 0.5x to 4x the capacity
/// give the recency-ordered cache the reference model's outcome on every
/// access, its counters, and its resident lines before and after a flush.
#[test]
fn the_recency_ordered_cache_matches_a_timestamp_lru_model() {
    for (case, config) in reference_geometries() {
        let capacity = (config.sets() * config.ways) as u64;
        let line = config.line_bytes as u64;
        for (i, half_capacities) in [1u64, 2, 4, 8].into_iter().enumerate() {
            let mut rng = case_rng(case * 4 + i as u64);
            let what = format!(
                "{} sets x {} ways of {line} B, working set {half_capacities}/2 x capacity",
                config.sets(),
                config.ways
            );
            let lines = (capacity * half_capacities).div_ceil(2);
            let stream = random_stream(&mut rng, 4 * lines.max(500) as usize, lines, line);
            let mut cache = Cache::new(config);
            let mut reference = ReferenceCache::new(config);
            for (k, &(addr, write)) in stream.iter().enumerate() {
                let outcome = cache.access(addr, write);
                assert_eq!(outcome, reference.access(addr, write), "{what}: access {k}");
            }
            assert_eq!(*cache.stats(), reference.stats, "{what}: counters");
            let touched: BTreeSet<u64> = stream.iter().map(|&(addr, _)| addr / line).collect();
            for flushed in [false, true] {
                if flushed {
                    cache.flush();
                    reference.flush();
                    assert_eq!(
                        *cache.stats(),
                        reference.stats,
                        "{what}: flush keeps counters"
                    );
                }
                for &l in &touched {
                    let (got, want) = (cache.contains(l * line), reference.contains(l * line));
                    assert_eq!(got, want, "{what}: line {l} resident (flushed: {flushed})");
                }
            }
        }
    }
}

/// A clone taken mid-stream continues exactly as the original and as the
/// reference model: same outcomes, counters and resident lines, through a
/// flush of the original. The streams mix lines that the cache's presence
/// bitmap tracks with lines at and above its limit, which share sets and
/// are found by a scan instead.
#[test]
fn a_cloned_cache_continues_like_the_original_and_the_reference() {
    for (case, config) in reference_geometries() {
        let capacity = (config.sets() * config.ways) as u64;
        let line = config.line_bytes as u64;
        let mut rng = case_rng(case + 100);
        let what = format!("{} sets x {} ways of {line} B", config.sets(), config.ways);
        let lines = 2 * capacity;
        let stream: Vec<(u64, bool)> = (0..4 * lines.max(300))
            .map(|_| {
                let l = in_range(&mut rng, 0, lines - 1);
                let l = match l % 3 {
                    0 => l,
                    1 => TRACKED_LINES - lines / 2 + l,
                    _ => (1 << 40) + l,
                };
                (l * line, rng.next_u64().is_multiple_of(3))
            })
            .collect();
        let (before, after) = stream.split_at(stream.len() / 2);
        let mut cache = Cache::new(config);
        let mut reference = ReferenceCache::new(config);
        for &(addr, write) in before {
            assert_eq!(
                cache.access(addr, write),
                reference.access(addr, write),
                "{what}"
            );
        }
        let mut copy = cache.clone();
        for (k, &(addr, write)) in after.iter().enumerate() {
            let want = reference.access(addr, write);
            assert_eq!(cache.access(addr, write), want, "{what}: access {k}");
            assert_eq!(copy.access(addr, write), want, "{what}: clone, access {k}");
        }
        assert_eq!(*copy.stats(), reference.stats, "{what}: clone counters");
        let touched: BTreeSet<u64> = stream.iter().map(|&(addr, _)| addr).collect();
        cache.flush();
        for &addr in &touched {
            let want = reference.contains(addr);
            assert_eq!(
                copy.contains(addr),
                want,
                "{what}: clone, {addr:#x} resident"
            );
            assert!(
                !cache.contains(addr),
                "{what}: {addr:#x} resident after a flush"
            );
        }
    }
}

/// A hierarchy built around a copy of a warmed L2 equals one that walks
/// the same ranges itself, on random ranges over random geometries (many
/// of them larger than the L2, so the walk evicts), and keeps equal
/// through a random stream of vector requests.
#[test]
fn an_installed_warm_l2_equals_a_walked_one() {
    for case in 0..CASES {
        let mut rng = case_rng(case + 200);
        let line = 1usize << in_range(&mut rng, 5, 7);
        let ways = in_range(&mut rng, 1, 16) as usize;
        let sets = in_range(&mut rng, 1, 12) as usize;
        let l2 = CacheConfig {
            size_bytes: sets * ways * line,
            line_bytes: line,
            ways,
            hit_latency: 12,
        };
        let config = HierarchyConfig {
            l2,
            ..HierarchyConfig::default()
        };
        let span = 4 * l2.size_bytes as u64;
        let ranges: Vec<(u64, u64)> = (0..in_range(&mut rng, 1, 4))
            .map(|_| {
                let start = in_range(&mut rng, 0, span);
                (start, start + in_range(&mut rng, 0, span / 2))
            })
            .collect();
        let what = format!("case {case}: {sets} sets x {ways} ways of {line} B, {ranges:?}");
        let mut warmed = MemoryHierarchy::new(config);
        warmed.warm_caches_ranges(&ranges);
        let mut installed = MemoryHierarchy::with_l2(config, warmed.l2().clone());
        let mut walked = MemoryHierarchy::new(config);
        walked.warm_caches_ranges(&ranges);
        for addr in (0..2 * span).step_by(line) {
            assert_eq!(
                installed.l2().contains(addr),
                walked.l2().contains(addr),
                "{what}"
            );
        }
        for k in 0..100 {
            let base = in_range(&mut rng, 0, 2 * span);
            let bytes = in_range(&mut rng, 0, 4 * line as u64);
            let write = rng.next_u64().is_multiple_of(2);
            assert_eq!(
                installed.vector_access(base, bytes, write),
                walked.vector_access(base, bytes, write),
                "{what}: request {k}"
            );
        }
        assert_eq!(installed.stats(), walked.stats(), "{what}: counters");
    }
}

/// The Swap Logic's choice as two walks: the reclaimable candidate with
/// the least (blocking, id), else the candidate with the least (count,
/// blocking, id).
fn two_pass_victim(
    mapping: &VrfMapping,
    rac: &Rac,
    protected: &[RenamedReg],
    value_ready: &[u64],
    preg_readers_done: &[u64],
) -> Option<SwapDecision> {
    if mapping.has_free_physical() {
        return Some(SwapDecision::AlreadyFree);
    }
    let candidates = || mapping.resident().filter(|(v, _)| !protected.contains(v));
    let blocking =
        |v: RenamedReg, preg: usize| preg_readers_done[preg].max(value_ready[v as usize]);
    let reclaim = candidates()
        .filter(|&(v, _)| rac.is_reclaimable(v))
        .min_by_key(|&(v, preg)| (blocking(v, preg), v));
    if let Some((v, _)) = reclaim {
        return Some(SwapDecision::Reclaim(v));
    }
    candidates()
        .min_by_key(|&(v, preg)| (rac.count(v), blocking(v, preg), v))
        .map(|(v, _)| SwapDecision::SwapStore(v))
}

/// `plan_free_register`'s single walk picks what the two walks pick, on
/// random mappings, counters and timings drawn from small ranges (so
/// counts and blocking cycles tie often), with random protected sets that
/// sometimes cover every resident VVR.
#[test]
fn the_one_walk_swap_victim_equals_the_two_walk_selection() {
    let mut decisions = [0usize; 4];
    for case in 0..CASES {
        let mut rng = case_rng(case + 300);
        let vvrs = in_range(&mut rng, 4, 64) as usize;
        let pregs = in_range(&mut rng, 1, vvrs as u64) as usize;
        let mut mapping = VrfMapping::new(vvrs, pregs);
        let mut rac = Rac::new(vvrs);
        for step in 0..300 {
            let v = in_range(&mut rng, 0, vvrs as u64 - 1) as u16;
            match in_range(&mut rng, 0, 5) {
                0 => {
                    let _ = mapping.allocate_physical(v);
                }
                1 if mapping.physical_of(v).is_some() => {
                    mapping.move_to_memory(v);
                }
                2 => rac.increment(v),
                3 => rac.decrement(v),
                4 => rac.clear(v),
                _ => {
                    let _ = mapping.allocate_physical(v);
                    rac.increment(v);
                }
            }
            let value_ready: Vec<u64> = (0..vvrs).map(|_| in_range(&mut rng, 0, 3)).collect();
            let readers_done: Vec<u64> = (0..pregs).map(|_| in_range(&mut rng, 0, 3)).collect();
            let resident: Vec<u16> = mapping.resident().map(|(v, _)| v).collect();
            let protected: Vec<u16> = match in_range(&mut rng, 0, 3) {
                0 => Vec::new(),
                1 => resident.clone(),
                _ => (0..in_range(&mut rng, 1, 4))
                    .map(|_| in_range(&mut rng, 0, vvrs as u64 - 1) as u16)
                    .collect(),
            };
            let got = plan_free_register(&mapping, &rac, &protected, &value_ready, &readers_done);
            let want = two_pass_victim(&mapping, &rac, &protected, &value_ready, &readers_done);
            assert_eq!(got, want, "case {case}, step {step}");
            decisions[match got {
                Some(SwapDecision::AlreadyFree) => 0,
                Some(SwapDecision::Reclaim(_)) => 1,
                Some(SwapDecision::SwapStore(_)) => 2,
                None => 3,
            }] += 1;
        }
    }
    assert!(
        decisions.iter().all(|&n| n > 0),
        "every outcome is exercised: {decisions:?}"
    );
}

/// `access_run` equals the same consecutive lines accessed one by one,
/// from unaligned starts and over runs that wrap past the last set (in a
/// one-set cache, every line wraps).
#[test]
fn an_access_run_equals_its_lines_accessed_one_by_one() {
    for (case, config) in reference_geometries() {
        let mut rng = case_rng(case);
        let sets = config.sets() as u64;
        let line = config.line_bytes as u64;
        let what = format!("{sets} sets x {} ways of {line} B", config.ways);
        let lines = (sets * config.ways as u64 * 3).max(8);
        let mut run = Cache::new(config);
        let mut one_by_one = Cache::new(config);
        for k in 0..200 {
            let addr = in_range(&mut rng, 0, lines * line);
            let len = in_range(&mut rng, 0, 2 * sets + 3);
            let write = rng.next_u64().is_multiple_of(3);
            let hits = run.access_run(addr, len, write);
            let singles = (0..len)
                .filter(|&i| one_by_one.access(addr + i * line, write).hit)
                .count();
            assert_eq!(
                hits, singles as u64,
                "{what}: run {k} of {len} lines at {addr:#x}"
            );
            assert_eq!(run.stats(), one_by_one.stats(), "{what}: run {k} counters");
        }
        for l in 0..lines + 2 * sets + 4 {
            assert_eq!(
                run.contains(l * line),
                one_by_one.contains(l * line),
                "{what}: line {l} resident"
            );
        }
    }
}

/// Under LRU with nested set indexing, a cache with `k` times the sets of
/// another (same line and ways) holds a superset of its lines after any
/// stream: every hit of the smaller cache is a hit of the larger one. So a
/// stream that never misses the smaller cache after a warm prefix gives
/// the larger one the same outcome, hit for hit and write-back for
/// write-back — which is what lets a sweep copy a zero-miss report to a
/// larger L2. A non-stack replacement policy breaks the first half.
#[test]
fn a_cache_with_k_times_the_sets_hits_wherever_the_smaller_one_hits() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let line = 1u64 << in_range(&mut rng, 4, 7);
        let ways = in_range(&mut rng, 1, 4) as usize;
        let sets = in_range(&mut rng, 1, 8) as usize;
        let k = in_range(&mut rng, 2, 4) as usize;
        let config = |sets: usize| CacheConfig {
            size_bytes: sets * ways * line as usize,
            line_bytes: line as usize,
            ways,
            hit_latency: 1,
        };
        let mut small = Cache::new(config(sets));
        let mut large = Cache::new(config(k * sets));
        let what = format!("case {case}: {sets} sets x {ways} ways of {line} B, k = {k}");

        let lines = (k * sets * ways * 2) as u64;
        for (i, &(addr, write)) in random_stream(&mut rng, 600, lines, line).iter().enumerate() {
            let (s, l) = (small.access(addr, write), large.access(addr, write));
            assert!(
                !s.hit || l.hit,
                "{what}: access {i} hit only the smaller cache"
            );
        }

        // Hits never evict, so the smaller cache's resident lines stay put
        // through a stream drawn from them alone.
        let resident: Vec<u64> = (0..lines)
            .map(|l| l * line)
            .filter(|&addr| small.contains(addr))
            .collect();
        let (small_before, large_before) = (*small.stats(), *large.stats());
        for i in 0..300 {
            let addr = resident[in_range(&mut rng, 0, resident.len() as u64 - 1) as usize]
                + in_range(&mut rng, 0, line - 1);
            let write = rng.next_u64().is_multiple_of(2);
            let (s, l) = (small.access(addr, write), large.access(addr, write));
            assert!(s.hit, "{what}: warm access {i} missed the smaller cache");
            assert_eq!(s, l, "{what}: warm access {i}");
        }
        let gained = |cache: &Cache, before: CacheStats| {
            let now = cache.stats();
            (
                now.read_hits - before.read_hits,
                now.write_hits - before.write_hits,
                now.misses() - before.misses(),
                now.writebacks - before.writebacks,
            )
        };
        assert_eq!(
            gained(&small, small_before),
            gained(&large, large_before),
            "{what}: warm counters"
        );
    }
}

/// The functional memory's storage page (words straddling it take the
/// memory's byte path).
const PAGE: u64 = 4096;

/// The little-endian word the byte model holds at `addr` (absent bytes
/// read as zero).
fn model_u64(model: &BTreeMap<u64, u8>, addr: u64) -> u64 {
    let mut bytes = [0u8; 8];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = model
            .get(&addr.wrapping_add(i as u64))
            .copied()
            .unwrap_or(0);
    }
    u64::from_le_bytes(bytes)
}

/// Stores `value` little-endian at `addr` in the byte model.
fn model_write_u64(model: &mut BTreeMap<u64, u8>, addr: u64, value: u64) {
    for (i, b) in value.to_le_bytes().into_iter().enumerate() {
        model.insert(addr + i as u64, b);
    }
}

/// Checks every byte the model holds, and the word starting at it, against
/// `mem`, and that `mem` materialised exactly the pages the model wrote.
fn assert_memory_matches(mem: &MainMemory, model: &BTreeMap<u64, u8>, what: &str) {
    for (&addr, &byte) in model {
        assert_eq!(mem.read_u8(addr), byte, "{what}: byte at {addr:#x}");
        assert_eq!(
            mem.read_u64(addr),
            model_u64(model, addr),
            "{what}: word at {addr:#x}"
        );
    }
    let pages: BTreeSet<u64> = model.keys().map(|a| a / PAGE).collect();
    assert_eq!(mem.touched_pages(), pages.len(), "{what}: written pages");
}

/// Differential test of the functional memory against a `BTreeMap` byte
/// model. Each case mixes byte, word and `f64` accesses, aligned and not,
/// over: the allocated buffers, words straddling a page boundary, stores
/// above `allocated_range().1` (a VPU store past a clamped vector length
/// does this), pages never written, and addresses above the highest page.
/// Halfway through, a clone is taken; later writes to the original must
/// not reach it.
#[test]
fn main_memory_matches_a_byte_model() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let mut mem = MainMemory::new();
        let mut model = BTreeMap::new();
        let base = mem.alloc(in_range(&mut rng, 1, 4) * PAGE + in_range(&mut rng, 0, 63));
        let _ = mem.alloc(in_range(&mut rng, 1, 512));
        let (_, end) = mem.allocated_range();
        let mut snapshot = None;

        for step in 0..512u64 {
            if step == 256 {
                snapshot = Some((mem.clone(), model.clone()));
            }
            let highest = model.keys().next_back().copied().unwrap_or(end);
            let addr = match in_range(&mut rng, 0, 6) {
                // Anywhere in the allocations, any alignment.
                0 => in_range(&mut rng, base, end - 8),
                // Aligned words in the allocations.
                1 => base + 8 * in_range(&mut rng, 0, (end - base) / 8 - 1),
                // A word straddling a page boundary inside the allocations.
                2 => {
                    let page = in_range(&mut rng, base / PAGE + 1, (end - 1) / PAGE);
                    page * PAGE - in_range(&mut rng, 1, 7)
                }
                // Above the allocator's cursor.
                3 => end + in_range(&mut rng, 0, 3 * PAGE),
                // Above the highest byte ever written.
                4 => highest + in_range(&mut rng, 1, 64 * PAGE),
                // Below the first allocation (the null page included).
                5 => in_range(&mut rng, 0, base - 8),
                // A straddling word on an arbitrary, likely unwritten page.
                _ => in_range(&mut rng, 1, 256) * PAGE - in_range(&mut rng, 1, 7),
            };
            let what = format!("case {case}, step {step}, addr {addr:#x}");
            match in_range(&mut rng, 0, 5) {
                0 => {
                    let v = rng.next_u64() as u8;
                    mem.write_u8(addr, v);
                    model.insert(addr, v);
                }
                1 => {
                    let v = rng.next_u64();
                    mem.write_u64(addr, v);
                    model_write_u64(&mut model, addr, v);
                }
                2 => {
                    let v = rng.uniform(-1e6, 1e6);
                    mem.write_f64(addr, v);
                    model_write_u64(&mut model, addr, v.to_bits());
                }
                3 => {
                    let expected = model.get(&addr).copied().unwrap_or(0);
                    assert_eq!(mem.read_u8(addr), expected, "{what}");
                }
                4 => assert_eq!(mem.read_u64(addr), model_u64(&model, addr), "{what}"),
                _ => assert_eq!(
                    mem.read_f64(addr).to_bits(),
                    model_u64(&model, addr),
                    "{what}"
                ),
            }
        }

        assert_memory_matches(&mem, &model, &format!("case {case}"));
        let (clone, clone_model) = snapshot.expect("a clone was taken");
        assert_memory_matches(&clone, &clone_model, &format!("case {case}, clone"));
        // Bytes the original wrote after the clone read as the clone's
        // model says (zero where the clone never wrote).
        for &addr in model.keys() {
            let expected = clone_model.get(&addr).copied().unwrap_or(0);
            assert_eq!(
                clone.read_u8(addr),
                expected,
                "case {case}, clone at {addr:#x}"
            );
        }
    }
}

/// Differential test of the page-run accessors against the byte model:
/// `write_words` must store what one `write_u64` per word stores, and
/// `read_words` must yield what one `read_u64` per word reads. Runs cross
/// page boundaries, start unaligned, land on pages never written and above
/// the highest written page, and have lengths from 0 to over one page. A
/// run of 0 words must materialise no page.
#[test]
fn word_runs_match_the_byte_model() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let mut mem = MainMemory::new();
        let mut model = BTreeMap::new();
        let base = mem.alloc(3 * PAGE);
        let end = base + 3 * PAGE;

        for step in 0..48u64 {
            let n = match in_range(&mut rng, 0, 3) {
                0 => 0,
                3 => in_range(&mut rng, 9, PAGE / 8 + 64),
                _ => in_range(&mut rng, 1, 8),
            } as usize;
            let highest = model.keys().next_back().copied().unwrap_or(end);
            let addr = match in_range(&mut rng, 0, 4) {
                // Aligned, inside the allocation; long runs cross pages.
                0 => base + 8 * in_range(&mut rng, 0, 3 * PAGE / 8),
                // Unaligned: every word of the run straddles or not at random.
                1 => base + 8 * in_range(&mut rng, 0, 3 * PAGE / 8) + in_range(&mut rng, 1, 7),
                // Just below a page boundary far from the allocation, so the
                // run continues onto a page likely never written.
                2 => in_range(&mut rng, 1, 512) * PAGE - 8 * in_range(&mut rng, 1, 16),
                // Above the highest byte ever written (above the table).
                3 => (highest + 8 * in_range(&mut rng, 1, 64 * PAGE / 8)) & !7,
                // Below the first allocation (the null page included).
                _ => 8 * in_range(&mut rng, 0, (base - 8) / 8),
            };
            let what = format!("case {case}, step {step}, {n} words at {addr:#x}");
            if rng.next_u64().is_multiple_of(2) {
                let words: Vec<u64> = (0..n).map(|_| rng.next_u64()).collect();
                mem.write_words(addr, words.iter().copied());
                for (i, &w) in words.iter().enumerate() {
                    model_write_u64(&mut model, addr + 8 * i as u64, w);
                }
            } else {
                let mut read = Vec::new();
                mem.read_words(addr, n, |w| read.push(w));
                let expected: Vec<u64> = (0..n)
                    .map(|i| model_u64(&model, addr + 8 * i as u64))
                    .collect();
                assert_eq!(read, expected, "{what}");
                let per_word: Vec<u64> =
                    (0..n).map(|i| mem.read_u64(addr + 8 * i as u64)).collect();
                assert_eq!(read, per_word, "{what}: against read_u64");
            }
        }
        // Runs that pass the top of the address space wrap to address 0.
        for (addr, n) in [(!7u64, 1), (!7, 2), (u64::MAX - 3, 2)] {
            let mut read = Vec::new();
            mem.read_words(addr, n, |w| read.push(w));
            let expected: Vec<u64> = (0..n)
                .map(|i| model_u64(&model, addr.wrapping_add(8 * i as u64)))
                .collect();
            assert_eq!(read, expected, "case {case}: {n} words at {addr:#x}");
        }
        assert_memory_matches(&mem, &model, &format!("case {case}"));
    }
}

/// Element values that stress bit-exactness: signed zeros, infinities,
/// subnormals, quiet and signalling NaNs with distinct payloads and signs,
/// integers and random bit patterns.
fn edge_element(rng: &mut DataGen) -> Element {
    const SPECIAL: [u64; 12] = [
        0x0000_0000_0000_0000,
        0x8000_0000_0000_0000,
        0x7ff0_0000_0000_0000,
        0xfff0_0000_0000_0000,
        0x0000_0000_0000_0001,
        0x7ff8_0000_0000_0000,
        0x7ff8_0000_dead_beef,
        0xfff8_0000_0000_1234,
        0x7ff0_0000_0000_0001,
        0xfff4_0000_0000_0abc,
        0x3ff0_0000_0000_0000,
        0xbff8_0000_0000_0000,
    ];
    match in_range(rng, 0, 3) {
        0 => Element::from_bits(SPECIAL[in_range(rng, 0, 11) as usize]),
        1 => Element::from_f64(rng.uniform(-100.0, 100.0)),
        2 => Element::from_i64(in_range(rng, 0, 130) as i64 - 65),
        _ => Element::from_bits(rng.next_u64()),
    }
}

/// The per-element definition of every arithmetic opcode, written against
/// `OperandValue::elem` alone: the reference the batched moves and splats
/// must match bit for bit.
fn reference_execute(op: Opcode, srcs: &[OperandValue<'_>], vl: usize) -> Vec<Element> {
    use Opcode::*;
    let e = |k: usize, i: usize| srcs[k].elem(i);
    let f = |k: usize, i: usize| e(k, i).as_f64();
    let x = |k: usize, i: usize| e(k, i).as_i64();
    let lanes = |g: &dyn Fn(usize) -> Element| (0..vl).map(g).collect::<Vec<_>>();
    let fp = |g: &dyn Fn(usize) -> f64| lanes(&|i| Element::from_f64(g(i)));
    let int = |g: &dyn Fn(usize) -> i64| lanes(&|i| Element::from_i64(g(i)));
    let mask = |g: &dyn Fn(usize) -> bool| lanes(&|i| Element::from_bool(g(i)));
    let edge = || srcs.get(1).map_or(Element::ZERO, |o| o.elem(0));
    let reduce = |init: f64, g: fn(f64, f64) -> f64| {
        let mut out = vec![Element::ZERO; vl.max(1)];
        out[0] = Element::from_f64((0..vl).fold(init, |acc, i| g(acc, f(0, i))));
        out
    };
    match op {
        VFAdd => fp(&|i| f(0, i) + f(1, i)),
        VFSub => fp(&|i| f(0, i) - f(1, i)),
        VFMul => fp(&|i| f(0, i) * f(1, i)),
        VFDiv => fp(&|i| f(0, i) / f(1, i)),
        VFSqrt => fp(&|i| f(0, i).sqrt()),
        VFMacc => fp(&|i| f(0, i).mul_add(f(1, i), f(2, i))),
        VFMsac => fp(&|i| f(0, i).mul_add(f(1, i), -f(2, i))),
        VFMin => fp(&|i| f(0, i).min(f(1, i))),
        VFMax => fp(&|i| f(0, i).max(f(1, i))),
        VFNeg => fp(&|i| -f(0, i)),
        VFAbs => fp(&|i| f(0, i).abs()),
        VFExp => fp(&|i| f(0, i).exp()),
        VFLn => fp(&|i| f(0, i).ln()),
        VAdd => int(&|i| x(0, i).wrapping_add(x(1, i))),
        VSub => int(&|i| x(0, i).wrapping_sub(x(1, i))),
        VMul => int(&|i| x(0, i).wrapping_mul(x(1, i))),
        VAnd => int(&|i| x(0, i) & x(1, i)),
        VOr => int(&|i| x(0, i) | x(1, i)),
        VXor => int(&|i| x(0, i) ^ x(1, i)),
        VSll => int(&|i| x(0, i).wrapping_shl(x(1, i) as u32 & 63)),
        VSrl => int(&|i| ((x(0, i) as u64) >> (x(1, i) as u32 & 63)) as i64),
        VMin => int(&|i| x(0, i).min(x(1, i))),
        VMax => int(&|i| x(0, i).max(x(1, i))),
        VMFLt => mask(&|i| f(0, i) < f(1, i)),
        VMFLe => mask(&|i| f(0, i) <= f(1, i)),
        VMFGt => mask(&|i| f(0, i) > f(1, i)),
        VMFGe => mask(&|i| f(0, i) >= f(1, i)),
        VMFEq => mask(&|i| f(0, i) == f(1, i)),
        VMSLt => mask(&|i| x(0, i) < x(1, i)),
        VMSEq => mask(&|i| x(0, i) == x(1, i)),
        VMv | VMvSplat => lanes(&|i| e(0, i)),
        VId => int(&|i| i as i64),
        VMerge => lanes(&|i| if e(2, i).as_bool() { e(0, i) } else { e(1, i) }),
        VSlide1Up => lanes(&|i| if i == 0 { edge() } else { e(0, i - 1) }),
        VSlide1Down => lanes(&|i| if i + 1 == vl { edge() } else { e(0, i + 1) }),
        VFRedSum => reduce(0.0, |a, v| a + v),
        VFRedMax => reduce(f64::NEG_INFINITY, f64::max),
        VFRedMin => reduce(f64::INFINITY, f64::min),
        _ => unreachable!("{op} is not an arithmetic opcode"),
    }
}

/// Number of source operands each arithmetic opcode reads.
fn operand_count(op: Opcode) -> usize {
    use Opcode::*;
    match op {
        VId => 0,
        VFSqrt | VFNeg | VFAbs | VFExp | VFLn | VMv | VMvSplat | VFRedSum | VFRedMax | VFRedMin => {
            1
        }
        VFMacc | VFMsac | VMerge => 3,
        _ => 2,
    }
}

/// Every arithmetic opcode, over every combination of full (at least `vl`
/// elements), short (fewer than `vl`, read as zero past the end) and
/// scalar operands, at several vector lengths: `execute_into` into one
/// reused buffer must equal the per-element reference bit for bit, NaN
/// payloads and signed zeros included.
#[test]
fn execute_into_matches_the_per_element_reference() {
    let mut rng = case_rng(0xE1E);
    let mut out = Vec::new();
    let arithmetic = Opcode::ALL
        .iter()
        .filter(|op| op.kind() == ava::isa::InstrKind::Arithmetic);
    for &op in arithmetic {
        let k = operand_count(op);
        let reduction = matches!(op, Opcode::VFRedSum | Opcode::VFRedMax | Opcode::VFRedMin);
        for vl in [0usize, 1, 7, 16, 33] {
            // Shape digit per operand: 0 full, 1 short, 2 scalar.
            for shapes in 0..3usize.pow(k as u32) {
                let data: Vec<(usize, Vec<Element>)> = (0..k)
                    .map(|j| {
                        let shape = shapes / 3usize.pow(j as u32) % 3;
                        let len = match shape {
                            0 => vl + in_range(&mut rng, 0, 3) as usize,
                            1 => in_range(&mut rng, 0, vl.saturating_sub(1) as u64) as usize,
                            _ => 1,
                        };
                        (shape, (0..len).map(|_| edge_element(&mut rng)).collect())
                    })
                    .collect();
                let srcs: Vec<OperandValue<'_>> = data
                    .iter()
                    .map(|(shape, v)| match shape {
                        2 => OperandValue::Scalar(v[0]),
                        _ => OperandValue::Vector(v),
                    })
                    .collect();
                execute_into(op, &srcs, vl, &mut out);
                let expected = reference_execute(op, &srcs, vl);
                assert_eq!(out.len(), expected.len(), "{op}, vl {vl}, shapes {shapes}");
                for (i, (got, want)) in out.iter().zip(&expected).enumerate() {
                    // Rust leaves open which payload an operation on two
                    // NaNs returns, and LLVM may commute `+` and `*`
                    // differently in differently shaped loops (and builds);
                    // only there may two NaN results differ. A reduction's
                    // lane 0 reads every element of its source.
                    let is_nan = |j: usize, lane: usize| srcs[j].elem(lane).as_f64().is_nan();
                    let nan_inputs = if reduction {
                        (0..vl).filter(|&lane| is_nan(0, lane)).count()
                    } else {
                        (0..k).filter(|&j| is_nan(j, i)).count()
                    };
                    let both_nan = got.as_f64().is_nan() && want.as_f64().is_nan();
                    assert!(
                        got == want || (both_nan && nan_inputs >= 2),
                        "{op}, vl {vl}, shapes {shapes}, lane {i}: {:#x} != {:#x}",
                        got.bits(),
                        want.bits()
                    );
                }
            }
        }
    }
}

/// Checks one generated operand sequence of 0–3 operands against its
/// packed list: `push`, `get`, `iter` and `collect` give the operands back
/// by value, the list prints the `Debug` text of a `Vec` of them, and `==`
/// against every list in `others` agrees with `==` on the slices.
fn check_operand_list<T>(ops: &[T], others: &[Vec<T>], what: &str)
where
    T: PackedOperand + PartialEq + std::fmt::Debug,
{
    let mut pushed = OperandList::EMPTY;
    for &op in ops {
        pushed.push(op);
    }
    let list = OperandList::new(Opcode::VMerge, ops);
    assert!(list == pushed, "{what}");
    assert_eq!(list.len(), ops.len(), "{what}");
    assert_eq!(list.is_empty(), ops.is_empty(), "{what}");
    for (i, op) in ops.iter().enumerate() {
        assert!(list.get(i) == Some(*op), "{what}: operand {i}");
    }
    assert!(list.get(ops.len()).is_none(), "{what}");
    let iterated: Vec<T> = list.iter().collect();
    assert!(iterated == ops, "{what}");
    assert_eq!(list.iter().len(), ops.len(), "{what}");
    let by_ref: Vec<T> = (&list).into_iter().collect();
    assert!(by_ref == ops, "{what}");
    assert!(
        ops.iter().copied().collect::<OperandList<T>>() == list,
        "{what}"
    );
    assert_eq!(format!("{list:?}"), format!("{:?}", ops.to_vec()), "{what}");
    assert_eq!(
        format!("{list:#?}"),
        format!("{:#?}", ops.to_vec()),
        "{what}"
    );
    for other in others {
        let other_list = OperandList::new(Opcode::VMerge, other);
        assert_eq!(
            list == other_list,
            ops == other.as_slice(),
            "{what}: {ops:?} vs {other:?}"
        );
    }
}

/// Lists to compare `ops` with: itself, each prefix, and for each operand
/// the list with that operand replaced by `alt(op)` (another register, a
/// flipped scalar bit, or the other kind with the same payload word).
fn operand_list_variants<T: PackedOperand>(
    ops: &[T],
    mut alt: impl FnMut(T) -> Vec<T>,
) -> Vec<Vec<T>> {
    let mut variants = vec![ops.to_vec()];
    variants.extend((0..ops.len()).map(|n| ops[..n].to_vec()));
    for i in 0..ops.len() {
        for replacement in alt(ops[i]) {
            let mut v = ops.to_vec();
            v[i] = replacement;
            variants.push(v);
        }
    }
    variants
}

/// Packed operand lists, for the program's and the IR's operand kinds: a
/// generated list of 0–3 operands (registers v0–v31 or unbounded virtual
/// ids, and scalars that include NaN payloads, −0.0 and subnormals)
/// round-trips, prints the `Debug` text of a `Vec`, and compares with `==`
/// exactly as its slice does.
#[test]
fn packed_operand_lists_behave_like_vecs() {
    for case in 0..256u64 {
        let mut rng = case_rng(0x09E4_A7D5 ^ case);
        let len = in_range(&mut rng, 0, MAX_SRCS as u64) as usize;
        let mut isa = Vec::new();
        let mut ir = Vec::new();
        for k in 0..len {
            if in_range(&mut rng, 0, 1) == 0 {
                // Every architectural register appears across the cases.
                let v = ((case as usize * MAX_SRCS + k) % 32) as u8;
                isa.push(Operand::Reg(VReg::new(v)));
                ir.push(IrOperand::Reg(VirtReg(rng.next_u64() as u32)));
            } else {
                isa.push(Operand::Scalar(edge_element(&mut rng)));
                ir.push(IrOperand::Scalar(edge_element(&mut rng)));
            }
        }
        let isa_others = operand_list_variants(&isa, |op| match op {
            Operand::Reg(r) => vec![
                Operand::Reg(VReg::new(((r.index() + 1) % 32) as u8)),
                Operand::Scalar(Element::from_bits(r.index() as u64)),
            ],
            Operand::Scalar(e) => vec![
                Operand::Scalar(Element::from_bits(e.bits() ^ 1 << 63)),
                Operand::Reg(VReg::new((e.bits() % 32) as u8)),
            ],
        });
        check_operand_list(&isa, &isa_others, &format!("case {case}, program operands"));
        let ir_others = operand_list_variants(&ir, |op| match op {
            IrOperand::Reg(r) => vec![
                IrOperand::Reg(VirtReg(r.0 ^ 1)),
                IrOperand::Scalar(Element::from_bits(u64::from(r.0))),
            ],
            IrOperand::Scalar(e) => vec![
                IrOperand::Scalar(Element::from_bits(e.bits() ^ 1)),
                IrOperand::Reg(VirtReg(e.bits() as u32)),
            ],
        });
        check_operand_list(&ir, &ir_others, &format!("case {case}, IR operands"));
    }
}

/// The mapping's resident walk (physical register → VVR) always agrees
/// with its location table: after random allocate, evict and release
/// sequences, `resident()` sorted by VVR lists exactly the VVRs whose
/// `location()` is `Physical`, each with that register.
#[test]
fn resident_walk_matches_the_location_table() {
    for case in 0..CASES {
        let mut rng = case_rng(case);
        let vvrs = in_range(&mut rng, 8, 64) as usize;
        let pregs = in_range(&mut rng, 1, 12) as usize;
        let mut m = VrfMapping::new(vvrs, pregs);
        for step in 0..400 {
            let vvr = in_range(&mut rng, 0, vvrs as u64 - 1) as u16;
            match (m.location(vvr), in_range(&mut rng, 0, 2)) {
                (Location::Physical(_), 0) => {
                    m.move_to_memory(vvr);
                }
                (_, 1) => m.release(vvr),
                (Location::Memory | Location::Unmapped, _) => {
                    let _ = m.allocate_physical(vvr);
                }
                (Location::Physical(_), _) => {}
            }
            let mut walked: Vec<(u16, usize)> = m.resident().collect();
            walked.sort_unstable();
            let table: Vec<(u16, usize)> = (0..vvrs as u16)
                .filter_map(|v| match m.location(v) {
                    Location::Physical(p) => Some((v, p)),
                    _ => None,
                })
                .collect();
            assert_eq!(walked, table, "case {case}, step {step}");
            assert_eq!(
                walked.len() + m.free_physical(),
                pregs,
                "case {case}, step {step}"
            );
        }
    }
}

/// The VPU never deadlocks and always reports monotonically consistent
/// statistics for arbitrary kernels on the smallest register file.
#[test]
fn tiny_register_files_never_deadlock() {
    for case in 0..CASES {
        let spec = random_kernel(case);
        let sys = ScenarioConfig::ava_x(8);
        let mut mem = MemoryHierarchy::default();
        let (kernel, _) = build_kernel(&mut mem, &spec);
        let spill_base = mem.allocate(64 * 1024);
        let compiled = compile(&kernel, &CompileOptions::new(Lmul::M1, spill_base, 1024));
        let mut vpu = Vpu::new(sys.vpu_config(), &mut mem);
        let result = vpu.run(&compiled.program, &mut mem);
        assert!(result.cycles > 0, "case {case}");
        // Everything the program contains (minus vsetvl) must have been
        // issued, plus whatever swap traffic the hardware added.
        let program_issue = compiled.program.len() as u64 - result.stats.config_instrs;
        assert!(result.stats.issued_instrs() >= program_issue, "case {case}");
        assert_eq!(
            result.stats.issued_instrs() - result.stats.swap_ops(),
            program_issue,
            "case {case}"
        );
    }
}

/// Table I and its extrapolation: at a fixed P-VRF capacity the physical
/// register count is monotonically non-increasing in the MVL, and the
/// resolved AVA MVL axis never drops below the X8 register floor.
#[test]
fn preg_count_is_monotonic_and_the_mvl_axis_holds_the_floor() {
    use ava::sim::{ScenarioConfig, AVA_EXTRAPOLATION_PREG_FLOOR};
    use ava::vpu::preg_count_for_mvl;

    for pvrf in [8 * 1024usize, 16 * 1024, 64 * 1024] {
        let mut prev = usize::MAX;
        for mvl in (16..=512).step_by(16) {
            let pregs = preg_count_for_mvl(pvrf, mvl);
            assert!(
                pregs <= prev,
                "pvrf={pvrf}: preg count rose from {prev} to {pregs} at MVL={mvl}"
            );
            prev = pregs;
        }
    }
    // The resolved extrapolation axis: Table I exact up to 128, the X8
    // floor (with a minimally grown P-VRF) beyond it.
    for scenario in ScenarioConfig::axis_mvl(&[16, 64, 128, 192, 256, 384, 512]) {
        let vpu = scenario.vpu_config();
        assert!(
            vpu.physical_regs() >= AVA_EXTRAPOLATION_PREG_FLOOR,
            "{}: only {} physical registers",
            scenario.label(),
            vpu.physical_regs()
        );
        assert_eq!(
            vpu.physical_regs(),
            preg_count_for_mvl(vpu.pvrf_bytes, vpu.mvl),
            "{}: the Table I sizing function must stay the single source",
            scenario.label()
        );
        if vpu.mvl <= 128 {
            assert_eq!(vpu.pvrf_bytes, 8 * 1024, "{}", scenario.label());
        }
    }
}

/// The memory pass as it was before it became linear: every access scans
/// all pending stores of its arena, and every read of a destroy-tracked
/// arena scans all of the span's stores. Kept verbatim as the reference
/// model, but for the arena flag's name and the AVA003 wording.
fn reference_check_memory(
    kernel: &IrKernel,
    vl_at: &[VlState],
    mvl: Option<usize>,
    arenas: &[Arena],
    phase_ends: &[usize],
    diags: &mut Vec<Diagnostic>,
) {
    fn overlaps(s1: u64, e1: u64, s2: u64, e2: u64) -> bool {
        s1 < e2 && s2 < e1
    }
    let mut written: Vec<Vec<(u64, u64, usize)>> = vec![Vec::new(); arenas.len()];
    let mut pending: Vec<BTreeMap<u64, (u64, usize, usize)>> = vec![BTreeMap::new(); arenas.len()];
    let mut next_phase = 0usize;

    for (idx, instr) in kernel.instrs.iter().enumerate() {
        while next_phase < phase_ends.len() && phase_ends[next_phase] <= idx {
            for w in &mut written {
                w.clear();
            }
            next_phase += 1;
        }
        let Some(m) = &instr.mem else { continue };
        let is_store = instr.opcode.is_store();
        let access = if is_store { "store" } else { "load" };

        let Some(ai) = arenas.iter().position(|a| a.contains(m.base)) else {
            diags.push(Diagnostic::new(
                Code::OutOfArena,
                idx,
                format!("{access} base {:#x} falls inside no planned arena", m.base),
            ));
            continue;
        };
        let arena = &arenas[ai];

        if arena.placeholder {
            diags.push(Diagnostic::new(
                Code::UncoveredPlaceholder,
                idx,
                format!(
                    "{access} lands in placeholder arena \"{}\", which is never \
                     materialised — a rebase rule should have redirected it onto \
                     the producer's buffer",
                    arena.name
                ),
            ));
        }

        let width = vl_at.get(idx).and_then(|s| s.width(mvl));
        let interval: Option<(u64, u64)> = match (m.index, width) {
            (Some(_), _) | (_, None) => None,
            (None, Some(0)) => Some((m.base, m.base)),
            (None, Some(n)) => {
                let span = (n as i128 - 1) * i128::from(m.stride);
                let lo = i128::from(m.base) + span.min(0);
                let hi = i128::from(m.base) + span.max(0) + 8;
                if lo < i128::from(arena.start) || hi > i128::from(arena.end) {
                    diags.push(Diagnostic::new(
                        Code::StraddlesArena,
                        idx,
                        format!(
                            "{access} spans [{lo:#x}, {hi:#x}) but arena \"{}\" only \
                             covers [{:#x}, {:#x})",
                            arena.name, arena.start, arena.end
                        ),
                    ));
                }
                let lo = u64::try_from(lo.max(0)).unwrap_or(0);
                let hi = u64::try_from(hi.max(0)).unwrap_or(u64::MAX);
                Some((lo, hi))
            }
        };
        let (lo, hi) = interval.unwrap_or((arena.start, arena.end));
        let exact_unit = interval.is_some() && m.index.is_none() && m.stride == 8;

        if is_store {
            let keys: Vec<u64> = pending[ai]
                .iter()
                .filter(|(&s, &(e, ..))| overlaps(s, e, lo, hi))
                .map(|(&s, _)| s)
                .collect();
            for s in keys {
                let (e, old_idx, old_span) = pending[ai].remove(&s).unwrap();
                if exact_unit && s >= lo && e <= hi {
                    let mut d = Diagnostic::new(
                        Code::DeadStore,
                        old_idx,
                        format!(
                            "store to \"{}\" [{s:#x}, {e:#x}) is fully overwritten \
                             at ir[{idx}] with no intervening load",
                            arena.name
                        ),
                    );
                    if old_span != next_phase {
                        d = d.with_severity(Severity::Info);
                        d.message.push_str(" (superseded by a later phase)");
                    }
                    diags.push(d);
                }
            }
            if exact_unit {
                pending[ai].insert(lo, (hi, idx, next_phase));
            }
            written[ai].push((lo, hi, idx));
        } else {
            if arena.destroy_tracked {
                if let Some(&(ws, we, widx)) = written[ai]
                    .iter()
                    .find(|&&(ws, we, _)| overlaps(ws, we, lo, hi))
                {
                    diags.push(Diagnostic::new(
                        Code::ReadAfterDestroy,
                        idx,
                        format!(
                            "destroy-tracked arena \"{}\" is read at [{lo:#x}, {hi:#x}) \
                             after the store at ir[{widx}] ([{ws:#x}, {we:#x})) already \
                             overwrote its carried or linked value in this phase",
                            arena.name
                        ),
                    ));
                }
            }
            let keys: Vec<u64> = pending[ai]
                .iter()
                .filter(|(&s, &(e, ..))| overlaps(s, e, lo, hi))
                .map(|(&s, _)| s)
                .collect();
            for s in keys {
                pending[ai].remove(&s);
            }
        }
    }
}

/// A random memory-pass input: three to five small arenas with gaps
/// between them (some placeholders, about half destroy-tracked), a kernel of
/// unit-stride, strided and indexed loads and stores, a random VL per
/// instruction (unknown, zero, exact or the maximum, with or without a
/// known MVL) and a few phase ends. Accesses start in, near and between
/// the arenas, and a third of them continue where the last one ended, as
/// strip-mined loops do, so intervals coincide, nest and touch.
fn random_memory_case(
    rng: &mut DataGen,
) -> (
    IrKernel,
    Vec<VlState>,
    Option<usize>,
    Vec<Arena>,
    Vec<usize>,
) {
    let mut arenas = Vec::new();
    let mut start = 0x1000u64;
    for a in 0..in_range(rng, 3, 5) {
        let bytes = 8 * in_range(rng, 1, 24);
        let mut arena = Arena::new(format!("a{a}"), start, bytes);
        arena.placeholder = rng.next_u64().is_multiple_of(8);
        arena.destroy_tracked = rng.next_u64().is_multiple_of(2);
        arenas.push(arena);
        start += bytes + 8 * in_range(rng, 0, 4);
    }
    let mvl = (!rng.next_u64().is_multiple_of(4)).then(|| in_range(rng, 1, 8) as usize);
    let mut vl_at = Vec::new();
    let next_vl = |rng: &mut DataGen, vl_at: &mut Vec<VlState>| {
        let vl = match rng.next_u64() % 10 {
            0 => VlState::Unknown,
            1 | 2 => VlState::Exact(0),
            3 => VlState::Max,
            _ => VlState::Exact(in_range(rng, 1, 8) as usize),
        };
        vl_at.push(vl);
        vl.width(mvl)
    };
    let mut b = KernelBuilder::new("memory");
    b.set_vl(8);
    next_vl(rng, &mut vl_at);
    let index = b.vid();
    next_vl(rng, &mut vl_at);
    let mut value = b.vload(arenas[0].start);
    next_vl(rng, &mut vl_at);
    let mut cursor = arenas[0].start;
    for _ in 0..in_range(rng, 8, 120) {
        let arena = &arenas[in_range(rng, 0, arenas.len() as u64 - 1) as usize];
        let offset = 8 * in_range(rng, 0, (arena.end - arena.start) / 8 + 1);
        let base = match rng.next_u64() % 9 {
            0 => arena.start.saturating_sub(8) + in_range(rng, 0, 7),
            1 => arena.start + offset + in_range(rng, 1, 7),
            2..=4 => cursor,
            _ => arena.start + offset,
        };
        let stride = [8i64, 8, 8, 16, -8, 24, 0][in_range(rng, 0, 6) as usize];
        match rng.next_u64() % 6 {
            0 => value = b.vload(base),
            1 => value = b.vload_strided(base, stride),
            2 => value = b.vload_indexed(base, index),
            3 | 4 => b.vstore(value, base),
            _ if rng.next_u64().is_multiple_of(2) => b.vstore_strided(value, base, stride),
            _ => b.vstore_indexed(value, base, index),
        }
        if let Some(n) = next_vl(rng, &mut vl_at) {
            cursor = base + 8 * n as u64;
        }
    }
    let kernel = b.finish();
    let mut phase_ends: Vec<usize> = (0..in_range(rng, 0, 6))
        .map(|_| in_range(rng, 0, kernel.len() as u64) as usize)
        .collect();
    phase_ends.sort_unstable();
    (kernel, vl_at, mvl, arenas, phase_ends)
}

/// The linear memory pass gives the quadratic scan it replaced the same
/// diagnostics, equal in code, IR index, severity and message and in the
/// same order, on random kernels dense in overlapping, nested, touching
/// and zero-length intervals. Every memory finding shows up somewhere in
/// the cases, so none of the compared paths goes unexercised.
#[test]
fn the_linear_memory_pass_matches_the_quadratic_scan() {
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for case in 0..CASES * 16 {
        let mut rng = case_rng(case);
        let (kernel, vl_at, mvl, arenas, phase_ends) = random_memory_case(&mut rng);
        let mut want = Vec::new();
        reference_check_memory(&kernel, &vl_at, mvl, &arenas, &phase_ends, &mut want);
        let mut got = Vec::new();
        check_memory(&kernel, &vl_at, mvl, &arenas, &phase_ends, &mut got);
        assert_eq!(got, want, "case {case}: {} instructions", kernel.len());
        seen.extend(want.iter().map(|d| {
            let later = d.message.ends_with("(superseded by a later phase)");
            format!(
                "{} {}{}",
                d.code,
                d.severity,
                if later { " later" } else { "" }
            )
        }));
    }
    for finding in [
        "AVA201 error",
        "AVA202 error",
        "AVA002 error",
        "AVA003 error",
        "AVA103 info",
        "AVA103 info later",
    ] {
        assert!(seen.contains(finding), "{finding} never fired: {seen:?}");
    }
}
