//! The scenario layer: composable system configurations.
//!
//! The paper evaluates a fixed grid — three register-file organisations at
//! MVL ≤ 128 on one memory hierarchy (Tables II and III). This module keeps
//! those presets but opens every dimension as an independent axis:
//!
//! * [`ScenarioConfig`] is the *declarative* layer — a base organisation
//!   (NATIVE / AVA / RG) plus orthogonal overrides over the VPU (MVL up to
//!   512, P-VRF capacity, VVR pool, issue queues, ROB, VMU overhead) and the
//!   memory hierarchy (L1/L2 size and latency, DRAM bandwidth, VMU bus
//!   width). Every override records axis metadata that flows into
//!   [`RunReport`](crate::RunReport)s and the `--json` pipeline.
//! * [`SystemConfig`] is the *resolved* layer — the fully materialised
//!   scalar-core + VPU + hierarchy description the simulator executes. It is
//!   only produced by [`ScenarioConfig::resolve`].
//!
//! Axis-builder constructors expand into sweep grids:
//!
//! ```
//! use ava_sim::ScenarioConfig;
//!
//! // MVL extrapolation axis × L2-size axis = a 6-scenario grid.
//! let grid = ScenarioConfig::axis_l2_kib(
//!     &ScenarioConfig::axis_mvl(&[128, 256, 512]),
//!     &[512, 4096],
//! );
//! assert_eq!(grid.len(), 6);
//! assert_eq!(grid[2].label(), "AVA MVL=256 l2=512KiB");
//! let resolved = grid[2].resolve();
//! assert_eq!(resolved.mvl(), 256);
//! assert_eq!(resolved.memory.l2.size_bytes, 512 * 1024);
//! // Table I extrapolation holds the X8 physical-register floor.
//! assert_eq!(resolved.vpu.physical_regs(), 8);
//! ```

use ava_isa::{Lmul, MAX_MVL_ELEMS, MIN_MVL_ELEMS};
use ava_memory::HierarchyConfig;
use ava_scalar::ScalarConfig;
use ava_vpu::VpuConfig;

use crate::json::{object, Json};

/// Which of the three register-file organisations a system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemKind {
    /// NATIVE Xn: hardware built natively for `MVL = 16n`, VRF of `8n` KB.
    Native(usize),
    /// AVA Xn: the adaptable design reconfigured to `MVL = 16n`, 8 KB P-VRF.
    Ava(usize),
    /// RG-LMULn: the 8 KB baseline hardware with software register grouping.
    Rg(Lmul),
}

/// One recorded scenario override: the axis name and its numeric value.
/// Sizes are in KiB, latencies in cycles, bandwidths in bytes per cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Axis {
    /// Axis name ("mvl", "l2_kib", "vmu_bus", ...).
    pub name: &'static str,
    /// Axis value in the axis's natural unit.
    pub value: u64,
}

/// The physical-register floor the MVL-extrapolation axis maintains: the
/// paper's Table I ends at MVL = 128 with 8 physical registers in the 8 KB
/// P-VRF. Beyond that point the extrapolation holds the register count at
/// this X8 endpoint and grows the P-VRF minimally instead (fewer than ~4
/// registers cannot even keep the sources of a fused multiply-add resident).
pub const AVA_EXTRAPOLATION_PREG_FLOOR: usize = 8;

/// VPU-side overrides of a scenario (all optional).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct VpuOverrides {
    mvl: Option<usize>,
    pvrf_bytes: Option<usize>,
    vvr_count: Option<usize>,
    issue_queue_entries: Option<usize>,
    rob_entries: Option<usize>,
    mem_op_overhead: Option<u64>,
}

/// Memory-hierarchy overrides of a scenario (all optional).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct HierarchyOverrides {
    l1_kib: Option<usize>,
    l1_hit_latency: Option<u64>,
    l2_kib: Option<usize>,
    l2_hit_latency: Option<u64>,
    dram_bytes_per_cycle: Option<u64>,
    vmu_bus_bytes: Option<u64>,
}

/// A composable system scenario: a base organisation layered with
/// orthogonal VPU and memory-hierarchy overrides.
///
/// Construct a preset with [`ScenarioConfig::native_x`] /
/// [`ScenarioConfig::ava_x`] / [`ScenarioConfig::rg_lmul`], refine it with
/// the fluent `with_*` methods (each records an [`Axis`] and extends the
/// label), or expand whole grids with the `axis_*` builders. Resolve to the
/// executable [`SystemConfig`] with [`ScenarioConfig::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    base: SystemKind,
    vpu: VpuOverrides,
    memory: HierarchyOverrides,
    label: String,
    axes: Vec<Axis>,
}

impl ScenarioConfig {
    fn preset(base: SystemKind, label: String) -> Self {
        Self {
            base,
            vpu: VpuOverrides::default(),
            memory: HierarchyOverrides::default(),
            label,
            axes: Vec::new(),
        }
    }

    /// NATIVE Xn (n in {1, 2, 3, 4, 8}).
    #[must_use]
    pub fn native_x(n: usize) -> Self {
        Self::preset(SystemKind::Native(n), format!("NATIVE X{n}"))
    }

    /// AVA Xn (n in {1, 2, 3, 4, 8}).
    #[must_use]
    pub fn ava_x(n: usize) -> Self {
        Self::preset(SystemKind::Ava(n), format!("AVA X{n}"))
    }

    /// RG-LMULn (n in {1, 2, 4, 8}).
    #[must_use]
    pub fn rg_lmul(lmul: Lmul) -> Self {
        Self::preset(SystemKind::Rg(lmul), format!("RG-LMUL{}", lmul.factor()))
    }

    /// The five NATIVE configurations of Table II.
    #[must_use]
    pub fn all_native() -> Vec<Self> {
        [1, 2, 3, 4, 8].iter().map(|&n| Self::native_x(n)).collect()
    }

    /// The five AVA configurations of Table III.
    #[must_use]
    pub fn all_ava() -> Vec<Self> {
        [1, 2, 3, 4, 8].iter().map(|&n| Self::ava_x(n)).collect()
    }

    /// The four RG configurations of Table III.
    #[must_use]
    pub fn all_rg() -> Vec<Self> {
        Lmul::all().iter().map(|&l| Self::rg_lmul(l)).collect()
    }

    /// Every configuration evaluated in Figure 3, in presentation order:
    /// NATIVE X1..X8, RG-LMUL1..8, AVA X1..X8.
    #[must_use]
    pub fn all_evaluated() -> Vec<Self> {
        let mut v = Self::all_native();
        v.extend(Self::all_rg());
        v.extend(Self::all_ava());
        v
    }

    // ------------------------------------------------------------------
    // Axis builders: whole sweep axes in one call
    // ------------------------------------------------------------------

    /// The MVL-extrapolation axis: one AVA scenario per requested MVL, sized
    /// by the Table I path (`preg_count_for_mvl` over the P-VRF). Up to
    /// MVL = 128 this reproduces Table I exactly on the 8 KB P-VRF; beyond
    /// it the P-VRF grows just enough to hold the
    /// [`AVA_EXTRAPOLATION_PREG_FLOOR`] (16 KiB at 256, 32 KiB at 512).
    #[must_use]
    pub fn axis_mvl(mvls: &[usize]) -> Vec<Self> {
        mvls.iter().map(|&m| Self::ava_x(8).with_mvl(m)).collect()
    }

    /// Expands every base scenario along the L2-capacity axis (KiB).
    #[must_use]
    pub fn axis_l2_kib(bases: &[Self], kib: &[usize]) -> Vec<Self> {
        Self::expand(bases, kib, |s, &k| s.with_l2_kib(k))
    }

    /// Expands every base scenario along the L1-capacity axis (KiB).
    #[must_use]
    pub fn axis_l1_kib(bases: &[Self], kib: &[usize]) -> Vec<Self> {
        Self::expand(bases, kib, |s, &k| s.with_l1_kib(k))
    }

    /// Expands every base scenario along the VMU bus-width axis (bytes per
    /// cycle on the VPU-to-L2 interface; the paper uses 64 B = 512 bits).
    #[must_use]
    pub fn axis_vmu_bus(bases: &[Self], bytes: &[u64]) -> Vec<Self> {
        Self::expand(bases, bytes, |s, &b| s.with_vmu_bus_bytes(b))
    }

    /// Expands every base scenario along the DRAM-bandwidth axis (bytes per
    /// cycle of sustained streaming; the paper's DDR3 sustains ~12 B/cycle).
    #[must_use]
    pub fn axis_dram_bw(bases: &[Self], bytes_per_cycle: &[u64]) -> Vec<Self> {
        Self::expand(bases, bytes_per_cycle, |s, &b| s.with_dram_bandwidth(b))
    }

    /// Expands every base scenario along the VVR-pool axis (number of
    /// virtual vector registers the AVA renamer draws from; see
    /// [`ScenarioConfig::with_vvr_count`]). The bases must all be AVA
    /// scenarios — the pool is the AVA renamer's knob, NATIVE/RG rename
    /// from the physical registers.
    ///
    /// # Panics
    ///
    /// Panics (via `with_vvr_count`) on a non-AVA base or a count below the
    /// 32 architectural registers; callers translating manifests or flags
    /// validate first so their errors stay diagnosable.
    #[must_use]
    pub fn axis_vvr(bases: &[Self], counts: &[usize]) -> Vec<Self> {
        Self::expand(bases, counts, |s, &c| s.with_vvr_count(c))
    }

    fn expand<T>(bases: &[Self], values: &[T], apply: impl Fn(Self, &T) -> Self) -> Vec<Self> {
        bases
            .iter()
            .flat_map(|base| values.iter().map(|v| apply(base.clone(), v)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Fluent single-knob overrides
    // ------------------------------------------------------------------

    fn set_axis(mut self, name: &'static str, value: u64) -> Self {
        match self.axes.iter_mut().find(|a| a.name == name) {
            Some(a) => a.value = value,
            None => self.axes.push(Axis { name, value }),
        }
        self.rebuild_label();
        self
    }

    fn rebuild_label(&mut self) {
        let mut label = match (self.base, self.vpu.mvl) {
            (SystemKind::Native(n), None) => format!("NATIVE X{n}"),
            (SystemKind::Ava(n), None) => format!("AVA X{n}"),
            (SystemKind::Rg(l), _) => format!("RG-LMUL{}", l.factor()),
            (SystemKind::Native(_), Some(m)) => format!("NATIVE MVL={m}"),
            (SystemKind::Ava(_), Some(m)) => format!("AVA MVL={m}"),
        };
        for axis in &self.axes {
            let suffix = match axis.name {
                "mvl" => continue,   // folded into the base part above
                "iters" => continue, // workload shape, not a hardware knob
                "pvrf_kib" => format!("pvrf={}KiB", axis.value),
                "vvrs" => format!("vvrs={}", axis.value),
                "iq" => format!("iq={}", axis.value),
                "rob" => format!("rob={}", axis.value),
                "mem_op_overhead" => format!("memop={}", axis.value),
                "l1_kib" => format!("l1={}KiB", axis.value),
                "l1_lat" => format!("l1lat={}", axis.value),
                "l2_kib" => format!("l2={}KiB", axis.value),
                "l2_lat" => format!("l2lat={}", axis.value),
                "dram_bpc" => format!("dram={}B/c", axis.value),
                "vmu_bus" => format!("bus={}B", axis.value),
                other => format!("{}={}", other, axis.value),
            };
            label.push(' ');
            label.push_str(&suffix);
        }
        self.label = label;
    }

    /// Overrides the maximum vector length (a multiple of 16 up to 512).
    /// On an AVA base the P-VRF follows the Table I extrapolation (see
    /// [`ScenarioConfig::axis_mvl`]); on a NATIVE base the VRF scales
    /// proportionally as in Table II. RG bases reject the override — their
    /// MVL is the LMUL grouping itself.
    ///
    /// # Panics
    ///
    /// Panics on an RG base or an unsupported MVL.
    #[must_use]
    pub fn with_mvl(mut self, mvl: usize) -> Self {
        assert!(
            mvl.is_multiple_of(MIN_MVL_ELEMS) && (MIN_MVL_ELEMS..=MAX_MVL_ELEMS).contains(&mvl),
            "MVL must be a multiple of 16 in 16..=512, got {mvl}"
        );
        assert!(
            !matches!(self.base, SystemKind::Rg(_)),
            "RG's MVL is fixed by its LMUL grouping; use an AVA or NATIVE base"
        );
        self.vpu.mvl = Some(mvl);
        self.set_axis("mvl", mvl as u64)
    }

    /// Overrides the physical VRF capacity in KiB (otherwise derived from
    /// the base and the MVL override).
    #[must_use]
    pub fn with_pvrf_kib(mut self, kib: usize) -> Self {
        assert!(kib > 0, "P-VRF capacity must be non-zero");
        self.vpu.pvrf_bytes = Some(kib * 1024);
        self.set_axis("pvrf_kib", kib as u64)
    }

    /// Overrides the AVA first-level renaming pool (number of VVRs; the
    /// paper uses 64).
    ///
    /// # Panics
    ///
    /// Panics on a NATIVE/RG base — their rename pool is the physical
    /// register count, so the knob would silently do nothing while still
    /// advertising a "vvrs" axis in every report.
    #[must_use]
    pub fn with_vvr_count(mut self, vvrs: usize) -> Self {
        assert!(vvrs >= 32, "fewer VVRs than architectural registers");
        assert!(
            matches!(self.base, SystemKind::Ava(_)),
            "the VVR pool is an AVA knob; NATIVE/RG rename from the physical registers"
        );
        self.vpu.vvr_count = Some(vvrs);
        self.set_axis("vvrs", vvrs as u64)
    }

    /// Overrides both issue-queue depths (arithmetic and memory).
    #[must_use]
    pub fn with_issue_queues(mut self, entries: usize) -> Self {
        assert!(entries > 0, "issue queues need at least one entry");
        self.vpu.issue_queue_entries = Some(entries);
        self.set_axis("iq", entries as u64)
    }

    /// Overrides the reorder-buffer depth.
    #[must_use]
    pub fn with_rob_entries(mut self, entries: usize) -> Self {
        assert!(entries > 0, "the reorder buffer needs at least one entry");
        self.vpu.rob_entries = Some(entries);
        self.set_axis("rob", entries as u64)
    }

    /// Overrides the fixed per-vector-memory-instruction overhead (cycles).
    #[must_use]
    pub fn with_mem_op_overhead(mut self, cycles: u64) -> Self {
        self.vpu.mem_op_overhead = Some(cycles);
        self.set_axis("mem_op_overhead", cycles)
    }

    /// Overrides the L1 data-cache capacity in KiB.
    #[must_use]
    pub fn with_l1_kib(mut self, kib: usize) -> Self {
        assert!(kib > 0, "L1 capacity must be non-zero");
        self.memory.l1_kib = Some(kib);
        self.set_axis("l1_kib", kib as u64)
    }

    /// Overrides the L1 hit latency in cycles.
    #[must_use]
    pub fn with_l1_latency(mut self, cycles: u64) -> Self {
        self.memory.l1_hit_latency = Some(cycles);
        self.set_axis("l1_lat", cycles)
    }

    /// Overrides the shared-L2 capacity in KiB.
    #[must_use]
    pub fn with_l2_kib(mut self, kib: usize) -> Self {
        assert!(kib > 0, "L2 capacity must be non-zero");
        self.memory.l2_kib = Some(kib);
        self.set_axis("l2_kib", kib as u64)
    }

    /// Overrides the L2 hit latency in cycles.
    #[must_use]
    pub fn with_l2_latency(mut self, cycles: u64) -> Self {
        self.memory.l2_hit_latency = Some(cycles);
        self.set_axis("l2_lat", cycles)
    }

    /// Overrides the sustained DRAM streaming bandwidth (bytes per cycle).
    #[must_use]
    pub fn with_dram_bandwidth(mut self, bytes_per_cycle: u64) -> Self {
        assert!(bytes_per_cycle > 0, "DRAM bandwidth must be non-zero");
        self.memory.dram_bytes_per_cycle = Some(bytes_per_cycle);
        self.set_axis("dram_bpc", bytes_per_cycle)
    }

    /// Overrides the VMU-to-L2 bus width (bytes per cycle).
    #[must_use]
    pub fn with_vmu_bus_bytes(mut self, bytes: u64) -> Self {
        assert!(bytes > 0, "bus width must be non-zero");
        self.memory.vmu_bus_bytes = Some(bytes);
        self.set_axis("vmu_bus", bytes)
    }

    /// Records the solver iteration count as a first-class sweep axis, so
    /// runs over an iterated composite carry `"axes":{"iters":n}` in their
    /// JSON reports alongside the hardware knobs. Unlike the other
    /// overrides this is pure metadata — the unroll depth is baked into
    /// the `Composite::iterated` workload itself — so it changes no
    /// hardware parameter and stays out of the config label (solver sweeps
    /// at different depths keep comparable config names).
    #[must_use]
    pub fn with_iters(self, iters: usize) -> Self {
        assert!(iters >= 1, "an iterated solve needs at least one iteration");
        self.set_axis("iters", iters as u64)
    }

    // ------------------------------------------------------------------
    // Accessors and resolution
    // ------------------------------------------------------------------

    /// The base organisation this scenario layers over.
    #[must_use]
    pub fn base(&self) -> SystemKind {
        self.base
    }

    /// Display label ("AVA X4", "AVA MVL=256 l2=4096KiB", ...).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The recorded override axes, in application order.
    #[must_use]
    pub fn axes(&self) -> &[Axis] {
        &self.axes
    }

    /// Maximum vector length this scenario resolves to.
    #[must_use]
    pub fn mvl(&self) -> usize {
        self.vpu.mvl.unwrap_or(match self.base {
            SystemKind::Native(n) | SystemKind::Ava(n) => MIN_MVL_ELEMS * n,
            SystemKind::Rg(l) => MIN_MVL_ELEMS * l.factor(),
        })
    }

    /// Register-grouping factor the compiler targets (LMUL > 1 only for RG).
    #[must_use]
    pub fn compiler_lmul(&self) -> Lmul {
        match self.base {
            SystemKind::Rg(l) => l,
            _ => Lmul::M1,
        }
    }

    /// The resolved VPU configuration (shorthand for `resolve().vpu`, used
    /// by the energy/area models).
    #[must_use]
    pub fn vpu_config(&self) -> VpuConfig {
        self.resolve().vpu
    }

    /// Materialises the scenario into the executable [`SystemConfig`].
    ///
    /// # Panics
    ///
    /// Panics if an override combination is inconsistent (e.g. a cache
    /// capacity smaller than one way set).
    #[must_use]
    pub fn resolve(&self) -> SystemConfig {
        let mut vpu = match self.base {
            SystemKind::Native(n) => VpuConfig::native_x(n),
            SystemKind::Ava(n) => VpuConfig::ava_x(n),
            SystemKind::Rg(l) => VpuConfig::rg_lmul(l),
        };
        let mut kind = self.base;
        if let Some(mvl) = self.vpu.mvl {
            match self.base {
                SystemKind::Ava(_) => {
                    vpu = VpuConfig::ava_with_mvl(mvl);
                    // Table I extrapolation: hold the X8 physical-register
                    // floor, growing the P-VRF minimally past MVL = 128.
                    vpu.pvrf_bytes = (8 * 1024).max(mvl * 8 * AVA_EXTRAPOLATION_PREG_FLOOR);
                    kind = SystemKind::Ava(mvl / MIN_MVL_ELEMS);
                }
                SystemKind::Native(_) => {
                    // Table II rule: the VRF scales with the MVL, keeping 64
                    // physical registers.
                    vpu.mvl = mvl;
                    vpu.pvrf_bytes = 64 * mvl * 8;
                    vpu.name = format!("NATIVE MVL={mvl}");
                    kind = SystemKind::Native(mvl / MIN_MVL_ELEMS);
                }
                SystemKind::Rg(_) => unreachable!("with_mvl rejects RG bases"),
            }
        }
        if let Some(pvrf) = self.vpu.pvrf_bytes {
            vpu.pvrf_bytes = pvrf;
        }
        assert!(
            vpu.physical_regs() >= 1,
            "{}: the P-VRF must hold at least one register of {} elements",
            self.label,
            vpu.mvl
        );
        if let Some(vvrs) = self.vpu.vvr_count {
            vpu.vvr_count = vvrs;
        }
        if let Some(iq) = self.vpu.issue_queue_entries {
            vpu.arith_queue_entries = iq;
            vpu.mem_queue_entries = iq;
        }
        if let Some(rob) = self.vpu.rob_entries {
            vpu.rob_entries = rob;
        }
        if let Some(overhead) = self.vpu.mem_op_overhead {
            vpu.mem_op_overhead = overhead;
        }

        let mut memory = HierarchyConfig::default();
        if let Some(kib) = self.memory.l1_kib {
            memory.l1d.size_bytes = kib * 1024;
        }
        if let Some(lat) = self.memory.l1_hit_latency {
            memory.l1d.hit_latency = lat;
        }
        if let Some(kib) = self.memory.l2_kib {
            memory.l2.size_bytes = kib * 1024;
        }
        if let Some(lat) = self.memory.l2_hit_latency {
            memory.l2.hit_latency = lat;
        }
        if let Some(bpc) = self.memory.dram_bytes_per_cycle {
            memory.dram.bytes_per_cycle = bpc;
        }
        if let Some(bus) = self.memory.vmu_bus_bytes {
            memory.vmu_bus_bytes = bus;
        }
        for (cache, name) in [(&memory.l1d, "L1"), (&memory.l2, "L2")] {
            assert!(
                cache.size_bytes >= cache.line_bytes * cache.ways,
                "{}: {} capacity smaller than one full set",
                self.label,
                name
            );
        }

        SystemConfig {
            kind,
            label: self.label.clone(),
            axes: self.axes.clone(),
            vpu,
            scalar: ScalarConfig::default(),
            memory,
            compiler_lmul: self.compiler_lmul(),
        }
    }

    /// The axis metadata as an ordered JSON object (`{"mvl":256,...}`).
    #[must_use]
    pub fn axes_json(&self) -> Json {
        axes_to_json(&self.axes)
    }
}

/// Serialises recorded axes as an ordered JSON object.
pub(crate) fn axes_to_json(axes: &[Axis]) -> Json {
    let mut obj = object();
    for a in axes {
        obj = obj.field(a.name, a.value);
    }
    obj.finish()
}

/// The canonical configuration identity string used as the per-point key by
/// duplicate-point rejection and the result store's wall-time scan:
/// the display label extended with every recorded axis. The label alone is
/// *not* an identity — metadata axes like `iters` deliberately stay out of
/// it (solver sweeps at different depths keep comparable config names), yet
/// two such points simulate different work.
pub(crate) fn config_axes_key(label: &str, axes: &[Axis]) -> String {
    let mut key = String::from(label);
    key.push('|');
    for (i, a) in axes.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(a.name);
        key.push('=');
        key.push_str(&a.value.to_string());
    }
    key
}

/// The canonical workload identity string paired with [`config_axes_key`]
/// in the per-point key: the workload name extended with its element count.
/// The name alone is *not* an identity — one sweep may legitimately run the
/// same kernel at several problem sizes (the skewed-scheduling grids do),
/// and those points do not duplicate each other.
pub(crate) fn workload_identity(name: &str, elements: u64) -> String {
    format!("{name}#{elements}")
}

/// Maps an axis name parsed back from JSON onto the `&'static str` the
/// in-memory [`Axis`] carries. Returns `None` for names no `with_*` override
/// produces — a store entry carrying one was written by different code and
/// must be treated as a miss.
pub(crate) fn axis_static_name(name: &str) -> Option<&'static str> {
    const KNOWN: &[&str] = &[
        "mvl",
        "pvrf_kib",
        "vvrs",
        "iq",
        "rob",
        "mem_op_overhead",
        "l1_kib",
        "l1_lat",
        "l2_kib",
        "l2_lat",
        "dram_bpc",
        "vmu_bus",
        "iters",
    ];
    KNOWN.iter().find(|&&k| k == name).copied()
}

/// Parses an axes object (`{"mvl":256,...}`, as written by [`axes_to_json`])
/// back into the in-memory representation, preserving order.
///
/// # Errors
///
/// Returns `Err` on a non-object, an unknown axis name or a non-integer
/// value.
pub(crate) fn axes_from_json(json: &Json) -> Result<Vec<Axis>, String> {
    let entries = match json {
        Json::Obj(entries) => entries,
        other => return Err(format!("axes must be an object, got {other}")),
    };
    entries
        .iter()
        .map(|(name, value)| {
            let name = axis_static_name(name)
                .ok_or_else(|| format!("unknown axis name {name:?} in stored axes"))?;
            let value = value
                .as_u64()
                .ok_or_else(|| format!("axis {name} has a non-integer value"))?;
            Ok(Axis { name, value })
        })
        .collect()
}

/// A fully resolved system: scalar core + VPU + memory hierarchy + the
/// compiler configuration used to build binaries for it, plus the scenario
/// metadata (label and axes) it was resolved from. Produced by
/// [`ScenarioConfig::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Organisation and scale factor.
    pub kind: SystemKind,
    /// Scenario display label.
    pub label: String,
    /// Scenario override axes (empty for plain presets).
    pub axes: Vec<Axis>,
    /// VPU configuration.
    pub vpu: VpuConfig,
    /// Scalar-core configuration.
    pub scalar: ScalarConfig,
    /// Memory-hierarchy configuration.
    pub memory: HierarchyConfig,
    /// Register-grouping factor the compiler targets (LMUL>1 only for RG).
    pub compiler_lmul: Lmul,
}

impl SystemConfig {
    /// Short display label ("NATIVE X4", "AVA MVL=256 l2=512KiB", ...).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Maximum vector length in elements seen by software on this system.
    #[must_use]
    pub fn mvl(&self) -> usize {
        self.vpu.mvl
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalences_of_table_iii_hold() {
        // AVA Xn and NATIVE Xn expose the same MVL; RG-LMULn matches NATIVE Xn.
        for n in [1usize, 2, 4, 8] {
            assert_eq!(
                ScenarioConfig::native_x(n).mvl(),
                ScenarioConfig::ava_x(n).mvl()
            );
        }
        assert_eq!(
            ScenarioConfig::rg_lmul(Lmul::M8).mvl(),
            ScenarioConfig::native_x(8).mvl()
        );
        assert_eq!(
            ScenarioConfig::rg_lmul(Lmul::M2).mvl(),
            ScenarioConfig::native_x(2).mvl()
        );
    }

    #[test]
    fn compiler_lmul_matches_the_base_organisation() {
        assert_eq!(ScenarioConfig::native_x(8).compiler_lmul(), Lmul::M1);
        assert_eq!(ScenarioConfig::ava_x(8).compiler_lmul(), Lmul::M1);
        assert_eq!(ScenarioConfig::rg_lmul(Lmul::M4).compiler_lmul(), Lmul::M4);
    }

    #[test]
    fn evaluated_set_has_fourteen_configurations() {
        let all = ScenarioConfig::all_evaluated();
        assert_eq!(all.len(), 5 + 4 + 5);
        let labels: Vec<&str> = all.iter().map(ScenarioConfig::label).collect();
        assert!(labels.contains(&"NATIVE X3"));
        assert!(labels.contains(&"RG-LMUL4"));
        assert!(labels.contains(&"AVA X8"));
    }

    #[test]
    fn only_ava_configurations_have_an_mvrf() {
        assert!(ScenarioConfig::ava_x(4).vpu_config().mvrf_bytes() > 0);
        assert_eq!(ScenarioConfig::native_x(4).vpu_config().mvrf_bytes(), 0);
        assert_eq!(
            ScenarioConfig::rg_lmul(Lmul::M4).vpu_config().mvrf_bytes(),
            0
        );
    }

    #[test]
    fn presets_resolve_to_the_paper_tables() {
        let native8 = ScenarioConfig::native_x(8).resolve();
        assert_eq!(native8.vpu.pvrf_bytes, 64 * 1024);
        assert_eq!(native8.vpu.physical_regs(), 64);
        let ava8 = ScenarioConfig::ava_x(8).resolve();
        assert_eq!(ava8.vpu.pvrf_bytes, 8 * 1024);
        assert_eq!(ava8.vpu.physical_regs(), 8);
        let rg8 = ScenarioConfig::rg_lmul(Lmul::M8).resolve();
        assert_eq!(rg8.vpu.logical_regs, 4);
        assert_eq!(rg8.compiler_lmul, Lmul::M8);
        // Presets carry no axis metadata and the default hierarchy.
        assert!(ava8.axes.is_empty());
        assert_eq!(ava8.memory, HierarchyConfig::default());
    }

    #[test]
    fn mvl_axis_extrapolates_table1_with_the_preg_floor() {
        let axis = ScenarioConfig::axis_mvl(&[64, 128, 256, 512]);
        let resolved: Vec<SystemConfig> = axis.iter().map(ScenarioConfig::resolve).collect();
        // Within Table I the 8 KB P-VRF is untouched.
        assert_eq!(resolved[0].vpu.pvrf_bytes, 8 * 1024);
        assert_eq!(resolved[0].vpu.physical_regs(), 16);
        assert_eq!(resolved[1].vpu.pvrf_bytes, 8 * 1024);
        assert_eq!(resolved[1].vpu.physical_regs(), 8);
        // Beyond it the P-VRF grows minimally to hold the X8 floor.
        assert_eq!(resolved[2].vpu.pvrf_bytes, 16 * 1024);
        assert_eq!(resolved[2].vpu.physical_regs(), 8);
        assert_eq!(resolved[3].vpu.pvrf_bytes, 32 * 1024);
        assert_eq!(resolved[3].vpu.physical_regs(), 8);
        assert_eq!(axis[3].label(), "AVA MVL=512");
        assert_eq!(
            axis[3].axes(),
            &[Axis {
                name: "mvl",
                value: 512
            }]
        );
    }

    #[test]
    fn axis_builders_cross_every_base_with_every_value() {
        let grid =
            ScenarioConfig::axis_l2_kib(&ScenarioConfig::axis_mvl(&[128, 256]), &[512, 1024, 4096]);
        assert_eq!(grid.len(), 6);
        assert_eq!(grid[0].label(), "AVA MVL=128 l2=512KiB");
        assert_eq!(grid[5].label(), "AVA MVL=256 l2=4096KiB");
        assert_eq!(grid[5].resolve().memory.l2.size_bytes, 4096 * 1024);
        // Axis metadata lists both overrides in application order.
        assert_eq!(grid[5].axes().len(), 2);
        assert_eq!(grid[5].axes()[0].name, "mvl");
        assert_eq!(
            grid[5].axes()[1],
            Axis {
                name: "l2_kib",
                value: 4096
            }
        );
    }

    #[test]
    fn axis_vvr_sweeps_the_rename_pool_across_ava_bases() {
        let grid = ScenarioConfig::axis_vvr(&ScenarioConfig::axis_mvl(&[128, 256]), &[32, 64]);
        assert_eq!(grid.len(), 4);
        assert_eq!(grid[0].label(), "AVA MVL=128 vvrs=32");
        assert_eq!(grid[3].label(), "AVA MVL=256 vvrs=64");
        assert_eq!(grid[3].resolve().vpu.rename_pool(), 64);
        assert_eq!(
            grid[3].axes()[1],
            Axis {
                name: "vvrs",
                value: 64
            }
        );
    }

    #[test]
    fn hierarchy_overrides_resolve_into_the_config() {
        let s = ScenarioConfig::native_x(1)
            .with_l1_kib(64)
            .with_l1_latency(2)
            .with_l2_latency(20)
            .with_dram_bandwidth(24)
            .with_vmu_bus_bytes(128)
            .resolve();
        assert_eq!(s.memory.l1d.size_bytes, 64 * 1024);
        assert_eq!(s.memory.l1d.hit_latency, 2);
        assert_eq!(s.memory.l2.hit_latency, 20);
        assert_eq!(s.memory.dram.bytes_per_cycle, 24);
        assert_eq!(s.memory.vmu_bus_bytes, 128);
        assert_eq!(
            s.label(),
            "NATIVE X1 l1=64KiB l1lat=2 l2lat=20 dram=24B/c bus=128B"
        );
    }

    #[test]
    fn vpu_knob_overrides_resolve_into_the_config() {
        let s = ScenarioConfig::ava_x(8)
            .with_issue_queues(16)
            .with_rob_entries(128)
            .with_mem_op_overhead(0)
            .with_vvr_count(96)
            .resolve();
        assert_eq!(s.vpu.arith_queue_entries, 16);
        assert_eq!(s.vpu.mem_queue_entries, 16);
        assert_eq!(s.vpu.rob_entries, 128);
        assert_eq!(s.vpu.mem_op_overhead, 0);
        assert_eq!(s.vpu.rename_pool(), 96);
        assert_eq!(s.vpu.mvrf_bytes(), 96 * 128 * 8);
    }

    #[test]
    fn repeated_overrides_replace_the_axis_instead_of_duplicating() {
        let s = ScenarioConfig::ava_x(2).with_l2_kib(512).with_l2_kib(2048);
        assert_eq!(s.axes().len(), 1);
        assert_eq!(s.axes()[0].value, 2048);
        assert_eq!(s.label(), "AVA X2 l2=2048KiB");
    }

    #[test]
    fn explicit_pvrf_override_beats_the_extrapolation_rule() {
        let s = ScenarioConfig::ava_x(8).with_mvl(256).with_pvrf_kib(64);
        assert_eq!(s.resolve().vpu.physical_regs(), 32);
    }

    #[test]
    fn axes_json_is_an_ordered_object() {
        let s = ScenarioConfig::ava_x(8).with_mvl(256).with_l2_kib(512);
        assert_eq!(s.axes_json().to_string(), r#"{"mvl":256,"l2_kib":512}"#);
    }

    #[test]
    fn iters_axis_is_report_metadata_with_a_stable_label() {
        let base = ScenarioConfig::ava_x(8).with_mvl(256);
        let s = base.clone().with_iters(8);
        // Pure metadata: the label stays comparable across solver depths
        // and no hardware parameter moves...
        assert_eq!(s.label(), base.label());
        assert_eq!(s.resolve().vpu, base.resolve().vpu);
        // ...but the axis lands in the report JSON like any other knob.
        assert_eq!(s.axes_json().to_string(), r#"{"mvl":256,"iters":8}"#);
        let replaced = s.with_iters(16);
        assert_eq!(
            replaced
                .axes()
                .iter()
                .find(|a| a.name == "iters")
                .unwrap()
                .value,
            16
        );
    }

    #[test]
    #[should_panic(expected = "at least one iteration")]
    fn zero_iters_is_rejected_early() {
        let _ = ScenarioConfig::ava_x(8).with_iters(0);
    }

    #[test]
    #[should_panic(expected = "fixed by its LMUL")]
    fn rg_bases_reject_the_mvl_override() {
        let _ = ScenarioConfig::rg_lmul(Lmul::M4).with_mvl(256);
    }

    #[test]
    #[should_panic(expected = "multiple of 16")]
    fn unsupported_mvl_is_rejected_early() {
        let _ = ScenarioConfig::ava_x(1).with_mvl(100);
    }

    #[test]
    fn minimum_cache_sizes_still_resolve() {
        // 1 KiB is exactly one 16-way set of 64 B lines — the smallest L2
        // the KiB-granular API can express resolves to a valid cache.
        let s = ScenarioConfig::native_x(1).with_l2_kib(1).resolve();
        assert_eq!(s.memory.l2.sets(), 1);
    }
}
