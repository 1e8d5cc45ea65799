//! The scenario layer: composable system configurations.
//!
//! The paper evaluates a fixed grid — three register-file organisations at
//! MVL ≤ 128 on one memory hierarchy (Tables II and III). This module keeps
//! those presets but opens every dimension as an independent axis:
//!
//! * [`Knob`] is the axis table: one row per scenario knob — MVL (up to
//!   512), L2 and L1 capacity, DRAM bandwidth, VMU bus width, the AVA VVR
//!   pool, issue queues, ROB depth, VMU mem-op overhead and the solver's
//!   iteration count — holding its report name, manifest key, label
//!   suffix, range check and effect on the resolved system.
//! * [`ScenarioConfig`] is the *declarative* layer — a base organisation
//!   (NATIVE / AVA / RG) plus the knobs set on it, each recorded as axis
//!   metadata that flows into [`RunReport`](crate::RunReport)s and the
//!   `--json` pipeline.
//! * [`SystemConfig`] is the *resolved* layer — the fully materialised
//!   scalar-core + VPU + hierarchy description the simulator executes. It is
//!   only produced by [`ScenarioConfig::resolve`].
//!
//! [`ScenarioConfig::axis`] expands a knob into a sweep grid:
//!
//! ```
//! use ava_sim::{Knob, ScenarioConfig};
//!
//! // MVL extrapolation axis × L2-size axis = a 6-scenario grid.
//! let grid = ScenarioConfig::axis(
//!     &ScenarioConfig::axis_mvl(&[128, 256, 512]),
//!     Knob::L2_KIB,
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
    /// Axis name: the report name of its [`Knob`].
    pub name: &'static str,
    /// Axis value in the axis's natural unit.
    pub value: u64,
}

impl Axis {
    fn knob(&self) -> Knob {
        Knob::named(self.name).expect("recorded axes come from the knob table")
    }
}

/// The physical-register floor the MVL-extrapolation axis maintains: the
/// paper's Table I ends at MVL = 128 with 8 physical registers in the 8 KB
/// P-VRF. Beyond that point the extrapolation holds the register count at
/// this X8 endpoint and grows the P-VRF minimally instead (fewer than ~4
/// registers cannot even keep the sources of a fused multiply-add resident).
pub const AVA_EXTRAPOLATION_PREG_FLOOR: usize = 8;

/// One scenario knob: a row of the axis table [`Knob::ALL`]. Its report
/// name, manifest key, label suffix, range check and effect on the
/// resolved [`SystemConfig`] are written here once; the scenario layer,
/// the result store and the manifest schema all read them from the table.
#[derive(Debug, Clone, Copy)]
pub struct Knob {
    /// Report name: the [`Axis::name`] every report and store entry carries.
    pub name: &'static str,
    /// Key in a sensitivity manifest's `axes` block (`None`: a manifest
    /// cannot drive the knob).
    pub manifest_key: Option<&'static str>,
    /// Label text before and after the value; `None` keeps the knob out
    /// of the label.
    suffix: Option<(&'static str, &'static str)>,
    /// Range check of one value over a base organisation.
    range: fn(SystemKind, u64) -> Result<(), String>,
    /// Effect on the resolved system.
    effect: fn(&mut SystemConfig, u64),
}

impl Knob {
    /// Maximum vector length, a multiple of 16 up to 512. On an AVA base
    /// the P-VRF follows the Table I extrapolation (see
    /// [`ScenarioConfig::axis_mvl`]); on a NATIVE base the VRF scales
    /// proportionally as in Table II. RG bases reject it — their MVL is the
    /// LMUL grouping itself. Its label part replaces the preset's `Xn`.
    pub const MVL: Knob = Knob {
        name: "mvl",
        manifest_key: Some("mvl"),
        suffix: None,
        range: mvl_range,
        effect: mvl_effect,
    };
    /// Shared-L2 capacity in KiB.
    pub const L2_KIB: Knob = Knob {
        name: "l2_kib",
        manifest_key: Some("l2_kib"),
        suffix: Some(("l2=", "KiB")),
        range: positive,
        effect: |sys, kib| sys.memory.l2.size_bytes = kib as usize * 1024,
    };
    /// L1 data-cache capacity in KiB.
    pub const L1_KIB: Knob = Knob {
        name: "l1_kib",
        manifest_key: Some("l1_kib"),
        suffix: Some(("l1=", "KiB")),
        range: positive,
        effect: |sys, kib| sys.memory.l1d.size_bytes = kib as usize * 1024,
    };
    /// Sustained DRAM streaming bandwidth in bytes per cycle (the paper's
    /// DDR3 sustains ~12 B/cycle).
    pub const DRAM_BW: Knob = Knob {
        name: "dram_bpc",
        manifest_key: Some("dram_bw"),
        suffix: Some(("dram=", "B/c")),
        range: positive,
        effect: |sys, bpc| sys.memory.dram.bytes_per_cycle = bpc,
    };
    /// VMU-to-L2 bus width in bytes per cycle (the paper uses 64 B = 512
    /// bits).
    pub const VMU_BUS: Knob = Knob {
        name: "vmu_bus",
        manifest_key: Some("vmu_bus"),
        suffix: Some(("bus=", "B")),
        range: positive,
        effect: |sys, bytes| sys.memory.vmu_bus_bytes = bytes,
    };
    /// The AVA first-level renaming pool (number of VVRs; the paper uses
    /// 64), at least the 32 architectural registers. AVA bases only:
    /// NATIVE/RG rename from the physical registers, so the knob would do
    /// nothing there while still advertising a `vvrs` axis in every report.
    pub const VVRS: Knob = Knob {
        name: "vvrs",
        manifest_key: Some("vvrs"),
        suffix: Some(("vvrs=", "")),
        range: vvrs_range,
        effect: |sys, vvrs| sys.vpu.vvr_count = vvrs as usize,
    };
    /// Both issue-queue depths (arithmetic and memory).
    pub const ISSUE_QUEUES: Knob = Knob {
        name: "iq",
        manifest_key: None,
        suffix: Some(("iq=", "")),
        range: positive,
        effect: |sys, entries| {
            sys.vpu.arith_queue_entries = entries as usize;
            sys.vpu.mem_queue_entries = entries as usize;
        },
    };
    /// Reorder-buffer depth.
    pub const ROB: Knob = Knob {
        name: "rob",
        manifest_key: None,
        suffix: Some(("rob=", "")),
        range: positive,
        effect: |sys, entries| sys.vpu.rob_entries = entries as usize,
    };
    /// Fixed per-vector-memory-instruction overhead in cycles.
    pub const MEM_OP_OVERHEAD: Knob = Knob {
        name: "mem_op_overhead",
        manifest_key: None,
        suffix: Some(("memop=", "")),
        range: |_, _| Ok(()),
        effect: |sys, cycles| sys.vpu.mem_op_overhead = cycles,
    };
    /// The solver iteration count: pure report metadata, so runs over an
    /// iterated composite carry `"axes":{"iters":n}`. The unroll depth is
    /// baked into the `Composite::iterated` workload itself, so it changes
    /// no hardware parameter and stays out of the label (solver sweeps at
    /// different depths keep comparable config names).
    pub const ITERS: Knob = Knob {
        name: "iters",
        manifest_key: None,
        suffix: None,
        range: |_, iters| match iters {
            0 => Err("needs at least one iteration, got 0".to_string()),
            _ => Ok(()),
        },
        effect: |_, _| {},
    };

    /// The axis table. The knobs a manifest can drive come first, in
    /// sensitivity-grid order (outermost first).
    pub const ALL: [Knob; 10] = [
        Knob::MVL,
        Knob::L2_KIB,
        Knob::L1_KIB,
        Knob::DRAM_BW,
        Knob::VMU_BUS,
        Knob::VVRS,
        Knob::ISSUE_QUEUES,
        Knob::ROB,
        Knob::MEM_OP_OVERHEAD,
        Knob::ITERS,
    ];

    /// The knob whose report name is `name`.
    fn named(name: &str) -> Option<Knob> {
        Self::ALL.into_iter().find(|k| k.name == name)
    }

    /// The range check of `value` on a scenario over `base`.
    ///
    /// # Errors
    ///
    /// Returns the diagnostic without the knob's name in front, e.g.
    /// `values must be multiples of 16 in 16..=512, got 100`.
    pub fn check(&self, base: SystemKind, value: u64) -> Result<(), String> {
        (self.range)(base, value)
    }

    /// The label suffix of `value` (`dram=24B/c`), or `None` for the
    /// knobs that stay out of the label.
    fn label(&self, value: u64) -> Option<String> {
        self.suffix
            .map(|(before, after)| format!("{before}{value}{after}"))
    }
}

/// Knobs are identified by their report name.
impl PartialEq for Knob {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
    }
}

impl Eq for Knob {}

fn positive(_: SystemKind, value: u64) -> Result<(), String> {
    match value {
        0 => Err("values must be positive, got 0".to_string()),
        _ => Ok(()),
    }
}

fn mvl_range(base: SystemKind, mvl: u64) -> Result<(), String> {
    let (min, max) = (MIN_MVL_ELEMS as u64, MAX_MVL_ELEMS as u64);
    if !mvl.is_multiple_of(min) || !(min..=max).contains(&mvl) {
        return Err(format!(
            "values must be multiples of {min} in {min}..={max}, got {mvl}"
        ));
    }
    match base {
        SystemKind::Rg(_) => Err(
            "is fixed by its LMUL grouping on an RG base; use an AVA or NATIVE base".to_string(),
        ),
        _ => Ok(()),
    }
}

fn mvl_effect(sys: &mut SystemConfig, mvl: u64) {
    let mvl = mvl as usize;
    match sys.kind {
        SystemKind::Ava(_) => {
            sys.vpu = VpuConfig::ava_with_mvl(mvl);
            // Table I extrapolation: hold the X8 physical-register floor,
            // growing the P-VRF minimally past MVL = 128.
            sys.vpu.pvrf_bytes = (8 * 1024).max(mvl * 8 * AVA_EXTRAPOLATION_PREG_FLOOR);
            sys.kind = SystemKind::Ava(mvl / MIN_MVL_ELEMS);
        }
        SystemKind::Native(_) => {
            // Table II rule: the VRF scales with the MVL, keeping 64
            // physical registers.
            sys.vpu.mvl = mvl;
            sys.vpu.pvrf_bytes = 64 * mvl * 8;
            sys.vpu.name = format!("NATIVE MVL={mvl}");
            sys.kind = SystemKind::Native(mvl / MIN_MVL_ELEMS);
        }
        SystemKind::Rg(_) => unreachable!("the MVL range check rejects RG bases"),
    }
}

fn vvrs_range(base: SystemKind, vvrs: u64) -> Result<(), String> {
    if vvrs < 32 {
        return Err(format!(
            "values must be at least the 32 architectural registers, got {vvrs}"
        ));
    }
    match base {
        SystemKind::Ava(_) => Ok(()),
        _ => Err("is an AVA knob; NATIVE/RG rename from the physical registers".to_string()),
    }
}

/// A composable system scenario: a base organisation plus the [`Knob`]s
/// set on it, in the order they were set.
///
/// Construct a preset with [`ScenarioConfig::native_x`] /
/// [`ScenarioConfig::ava_x`] / [`ScenarioConfig::rg_lmul`], set a knob with
/// [`ScenarioConfig::with`] (it records an [`Axis`] and extends the label),
/// or expand whole grids with [`ScenarioConfig::axis`]. Resolve to the
/// executable [`SystemConfig`] with [`ScenarioConfig::resolve`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    base: SystemKind,
    axes: Vec<Axis>,
    /// Derived from `base` and `axes`; rebuilt by every setter.
    label: String,
}

impl ScenarioConfig {
    fn preset(base: SystemKind) -> Self {
        let mut preset = Self {
            base,
            axes: Vec::new(),
            label: String::new(),
        };
        preset.label = preset.build_label();
        preset
    }

    /// NATIVE Xn (n in {1, 2, 3, 4, 8}).
    #[must_use]
    pub fn native_x(n: usize) -> Self {
        Self::preset(SystemKind::Native(n))
    }

    /// AVA Xn (n in {1, 2, 3, 4, 8}).
    #[must_use]
    pub fn ava_x(n: usize) -> Self {
        Self::preset(SystemKind::Ava(n))
    }

    /// RG-LMULn (n in {1, 2, 4, 8}).
    #[must_use]
    pub fn rg_lmul(lmul: Lmul) -> Self {
        Self::preset(SystemKind::Rg(lmul))
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

    /// The MVL-extrapolation axis: one AVA scenario per requested MVL, sized
    /// by the Table I path (`preg_count_for_mvl` over the P-VRF). Up to
    /// MVL = 128 this reproduces Table I exactly on the 8 KB P-VRF; beyond
    /// it the P-VRF grows just enough to hold the
    /// [`AVA_EXTRAPOLATION_PREG_FLOOR`] (16 KiB at 256, 32 KiB at 512).
    #[must_use]
    pub fn axis_mvl(mvls: &[usize]) -> Vec<Self> {
        mvls.iter()
            .map(|&m| Self::ava_x(8).with(Knob::MVL, m as u64))
            .collect()
    }

    /// Expands every base scenario along `knob`: one scenario per value,
    /// base-major.
    ///
    /// # Panics
    ///
    /// Panics, as [`ScenarioConfig::with`] does, if the knob's range check
    /// rejects a value on a base.
    #[must_use]
    pub fn axis(bases: &[Self], knob: Knob, values: &[u64]) -> Vec<Self> {
        bases
            .iter()
            .flat_map(|base| values.iter().map(|&v| base.clone().with(knob, v)))
            .collect()
    }

    /// Sets `knob` to `value`: records it as an [`Axis`] (setting a knob
    /// again replaces its value in place) and rebuilds the label.
    ///
    /// # Panics
    ///
    /// Panics if the knob's range check rejects the value on this base;
    /// callers translating manifests run [`Knob::check`] first so their
    /// errors stay diagnosable.
    #[must_use]
    pub fn with(mut self, knob: Knob, value: u64) -> Self {
        if let Err(e) = knob.check(self.base, value) {
            panic!("{}: {} {e}", self.label, knob.name);
        }
        match self.axes.iter_mut().find(|a| a.name == knob.name) {
            Some(a) => a.value = value,
            None => self.axes.push(Axis {
                name: knob.name,
                value,
            }),
        }
        self.label = self.build_label();
        self
    }

    fn value_of(&self, knob: Knob) -> Option<u64> {
        self.axes
            .iter()
            .find(|a| a.name == knob.name)
            .map(|a| a.value)
    }

    fn build_label(&self) -> String {
        let mut label = match (self.base, self.value_of(Knob::MVL)) {
            (SystemKind::Native(n), None) => format!("NATIVE X{n}"),
            (SystemKind::Ava(n), None) => format!("AVA X{n}"),
            (SystemKind::Rg(l), _) => format!("RG-LMUL{}", l.factor()),
            (SystemKind::Native(_), Some(m)) => format!("NATIVE MVL={m}"),
            (SystemKind::Ava(_), Some(m)) => format!("AVA MVL={m}"),
        };
        for axis in &self.axes {
            if let Some(suffix) = axis.knob().label(axis.value) {
                label.push(' ');
                label.push_str(&suffix);
            }
        }
        label
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
        match (self.value_of(Knob::MVL), self.base) {
            (Some(mvl), _) => mvl as usize,
            (None, SystemKind::Native(n) | SystemKind::Ava(n)) => MIN_MVL_ELEMS * n,
            (None, SystemKind::Rg(l)) => MIN_MVL_ELEMS * l.factor(),
        }
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

    /// Materialises the scenario into the executable [`SystemConfig`]: the
    /// base preset with every recorded knob's effect applied. The MVL
    /// replaces the whole VPU preset, so it goes first whatever order the
    /// knobs were set in.
    ///
    /// # Panics
    ///
    /// Panics if a cache capacity is smaller than one way set.
    #[must_use]
    pub fn resolve(&self) -> SystemConfig {
        let mut sys = SystemConfig {
            kind: self.base,
            label: self.label.clone(),
            axes: self.axes.clone(),
            vpu: match self.base {
                SystemKind::Native(n) => VpuConfig::native_x(n),
                SystemKind::Ava(n) => VpuConfig::ava_x(n),
                SystemKind::Rg(l) => VpuConfig::rg_lmul(l),
            },
            scalar: ScalarConfig::default(),
            memory: HierarchyConfig::default(),
            compiler_lmul: self.compiler_lmul(),
        };
        let is_mvl = |a: &&Axis| a.name == Knob::MVL.name;
        let mvl_first = self.axes.iter().filter(is_mvl);
        for axis in mvl_first.chain(self.axes.iter().filter(|a| !is_mvl(a))) {
            (axis.knob().effect)(&mut sys, axis.value);
        }
        for (cache, name) in [(&sys.memory.l1d, "L1"), (&sys.memory.l2, "L2")] {
            assert!(
                cache.size_bytes >= cache.line_bytes * cache.ways,
                "{}: {} capacity smaller than one full set",
                self.label,
                name
            );
        }
        sys
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

/// Parses an axes object (`{"mvl":256,...}`, as written by [`axes_to_json`])
/// back into the in-memory representation, preserving order.
///
/// # Errors
///
/// Returns `Err` on a non-object, a name that is not in the knob table (a
/// store entry carrying one was written by different code and must be
/// treated as a miss) or a non-integer value.
pub(crate) fn axes_from_json(json: &Json) -> Result<Vec<Axis>, String> {
    let entries = match json {
        Json::Obj(entries) => entries,
        other => return Err(format!("axes must be an object, got {other}")),
    };
    entries
        .iter()
        .map(|(name, value)| {
            let name = Knob::named(name)
                .ok_or_else(|| format!("unknown axis name {name:?} in stored axes"))?
                .name;
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
    fn the_knob_table_pins_report_names_manifest_keys_and_label_suffixes() {
        // Report names key every stored result and every report's `axes`
        // object, manifest keys are the `axes` block's schema, and label
        // suffixes are part of every config name: none may drift.
        let pinned: Vec<(&str, Option<&str>, Option<String>)> = Knob::ALL
            .iter()
            .map(|k| (k.name, k.manifest_key, k.label(24)))
            .collect();
        let label = |s: &str| Some(s.to_string());
        assert_eq!(
            pinned,
            vec![
                ("mvl", Some("mvl"), None),
                ("l2_kib", Some("l2_kib"), label("l2=24KiB")),
                ("l1_kib", Some("l1_kib"), label("l1=24KiB")),
                ("dram_bpc", Some("dram_bw"), label("dram=24B/c")),
                ("vmu_bus", Some("vmu_bus"), label("bus=24B")),
                ("vvrs", Some("vvrs"), label("vvrs=24")),
                ("iq", None, label("iq=24")),
                ("rob", None, label("rob=24")),
                ("mem_op_overhead", None, label("memop=24")),
                ("iters", None, None),
            ]
        );
        for knob in Knob::ALL {
            assert_eq!(Knob::named(knob.name), Some(knob));
        }
        assert_eq!(Knob::named("pvrf_kib"), None);
    }

    #[test]
    fn axis_builders_cross_every_base_with_every_value() {
        let grid = ScenarioConfig::axis(
            &ScenarioConfig::axis_mvl(&[128, 256]),
            Knob::L2_KIB,
            &[512, 1024, 4096],
        );
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
        let grid = ScenarioConfig::axis(
            &ScenarioConfig::axis_mvl(&[128, 256]),
            Knob::VVRS,
            &[32, 64],
        );
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
            .with(Knob::L1_KIB, 64)
            .with(Knob::DRAM_BW, 24)
            .with(Knob::VMU_BUS, 128)
            .resolve();
        assert_eq!(s.memory.l1d.size_bytes, 64 * 1024);
        assert_eq!(s.memory.dram.bytes_per_cycle, 24);
        assert_eq!(s.memory.vmu_bus_bytes, 128);
        assert_eq!(s.label(), "NATIVE X1 l1=64KiB dram=24B/c bus=128B");
    }

    #[test]
    fn vpu_knob_overrides_resolve_into_the_config() {
        let s = ScenarioConfig::ava_x(8)
            .with(Knob::ISSUE_QUEUES, 16)
            .with(Knob::ROB, 128)
            .with(Knob::MEM_OP_OVERHEAD, 0)
            .with(Knob::VVRS, 96)
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
        let s = ScenarioConfig::ava_x(2)
            .with(Knob::L2_KIB, 512)
            .with(Knob::L2_KIB, 2048);
        assert_eq!(s.axes().len(), 1);
        assert_eq!(s.axes()[0].value, 2048);
        assert_eq!(s.label(), "AVA X2 l2=2048KiB");
    }

    #[test]
    fn the_mvl_resolves_first_whatever_order_the_knobs_were_set_in() {
        let late = ScenarioConfig::ava_x(8)
            .with(Knob::VVRS, 96)
            .with(Knob::MVL, 256);
        let early = ScenarioConfig::ava_x(8)
            .with(Knob::MVL, 256)
            .with(Knob::VVRS, 96);
        assert_eq!(late.label(), "AVA MVL=256 vvrs=96");
        assert_eq!(late.resolve().vpu, early.resolve().vpu);
        assert_eq!(late.resolve().vpu.rename_pool(), 96);
        assert_eq!(late.resolve().kind, SystemKind::Ava(16));
    }

    #[test]
    fn axes_json_is_an_ordered_object() {
        let s = ScenarioConfig::ava_x(8)
            .with(Knob::MVL, 256)
            .with(Knob::L2_KIB, 512);
        assert_eq!(
            axes_to_json(s.axes()).to_string(),
            r#"{"mvl":256,"l2_kib":512}"#
        );
    }

    #[test]
    fn iters_axis_is_report_metadata_with_a_stable_label() {
        let base = ScenarioConfig::ava_x(8).with(Knob::MVL, 256);
        let s = base.clone().with(Knob::ITERS, 8);
        // Pure metadata: the label stays comparable across solver depths
        // and no hardware parameter moves...
        assert_eq!(s.label(), base.label());
        assert_eq!(s.resolve().vpu, base.resolve().vpu);
        // ...but the axis lands in the report JSON like any other knob.
        assert_eq!(
            axes_to_json(s.axes()).to_string(),
            r#"{"mvl":256,"iters":8}"#
        );
        let replaced = s.with(Knob::ITERS, 16);
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
        let _ = ScenarioConfig::ava_x(8).with(Knob::ITERS, 0);
    }

    #[test]
    #[should_panic(expected = "fixed by its LMUL")]
    fn rg_bases_reject_the_mvl_override() {
        let _ = ScenarioConfig::rg_lmul(Lmul::M4).with(Knob::MVL, 256);
    }

    #[test]
    #[should_panic(expected = "vvrs is an AVA knob")]
    fn non_ava_bases_reject_the_vvr_pool() {
        let _ = ScenarioConfig::native_x(8).with(Knob::VVRS, 64);
    }

    #[test]
    #[should_panic(expected = "multiples of 16")]
    fn unsupported_mvl_is_rejected_early() {
        let _ = ScenarioConfig::ava_x(1).with(Knob::MVL, 100);
    }

    #[test]
    fn minimum_cache_sizes_still_resolve() {
        // 1 KiB is exactly one 16-way set of 64 B lines — the smallest L2
        // the KiB-granular API can express resolves to a valid cache.
        let s = ScenarioConfig::native_x(1).with(Knob::L2_KIB, 1).resolve();
        assert_eq!(s.memory.l2.sets(), 1);
    }
}
