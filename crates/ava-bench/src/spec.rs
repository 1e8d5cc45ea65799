//! Declarative experiment manifests.
//!
//! A manifest is a JSON document describing one experiment end to end —
//! which artefact to regenerate (`fig3`, `fig4`, `sensitivity`,
//! `ablation`, `tables`), which workloads and mixes to sweep, which
//! scenario axes to cross, how to execute (threads, result store) and what
//! to emit (JSON path, chart kind). The `experiments` binary is the one
//! entry point for every paper artefact: it drives the whole bench stack
//! from such a file, and the committed `experiments/*.json` manifests
//! regenerate every figure and table of the paper.
//!
//! The schema is parsed with the dependency-free [`ava_sim::json`] parser;
//! every schema error is a diagnostic naming the offending token and its
//! byte offset in the document — never a panic.
//!
//! ```
//! use ava_bench::spec::ExperimentSpec;
//!
//! let spec = ExperimentSpec::parse(
//!     "example",
//!     r#"{
//!         "artefact": "sensitivity",
//!         "workloads": ["axpy"],
//!         "axes": {"mvl": [128, 256], "l2_kib": [512]},
//!         "output": {"kind": "tables"}
//!     }"#,
//! )
//! .unwrap();
//! assert_eq!(spec.axes.mvl, vec![128, 256]);
//! assert!(ExperimentSpec::parse("bad", r#"{"artefact": "fig9"}"#)
//!     .unwrap_err()
//!     .contains("byte"));
//! ```

use ava_sim::json::{object, parse, Json};
use ava_sim::{Knob, SystemKind};
use ava_workloads::{check_kernel, kernel_defaults, SharedWorkload, KERNEL_NAMES};

use crate::{
    manifest_key, pipelined_mix, sensitivity_axes, solver_mix, HierarchyAxes, SENSITIVITY_L2_KIB,
    SENSITIVITY_MVLS,
};

/// Which paper artefact a manifest regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArtefactKind {
    /// Figure 3: per-application breakdowns over the fourteen evaluated
    /// systems.
    Fig3,
    /// Figure 4: area breakdown and performance per mm².
    Fig4,
    /// The sensitivity study: MVL × L2 (× optional hierarchy/VVR axes).
    Sensitivity,
    /// The microarchitectural ablation (issue queues, ROB, mem-op
    /// overhead).
    Ablation,
    /// Tables I, II–III and V, computed analytically without a sweep.
    Tables,
}

impl ArtefactKind {
    /// Every artefact, in the order diagnostics list them.
    pub const ALL: [ArtefactKind; 5] = [
        ArtefactKind::Fig3,
        ArtefactKind::Fig4,
        ArtefactKind::Sensitivity,
        ArtefactKind::Ablation,
        ArtefactKind::Tables,
    ];

    /// The manifest spelling of the artefact.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ArtefactKind::Fig3 => "fig3",
            ArtefactKind::Fig4 => "fig4",
            ArtefactKind::Sensitivity => "sensitivity",
            ArtefactKind::Ablation => "ablation",
            ArtefactKind::Tables => "tables",
        }
    }

    fn from_str(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|a| a.as_str() == s)
    }

    /// Whether a manifest picks this artefact's workloads: the ablation
    /// fixes its own and the tables run none.
    fn takes_workloads(self) -> bool {
        !matches!(self, ArtefactKind::Ablation | ArtefactKind::Tables)
    }

    /// The chart kinds this artefact's text output can be restricted to
    /// (the manifest `output.kind` field).
    /// Empty for artefacts with exactly one rendering.
    #[must_use]
    pub fn chart_kinds(self) -> &'static [&'static str] {
        match self {
            ArtefactKind::Fig3 => &["mem", "mix", "perf", "energy", "all"],
            ArtefactKind::Sensitivity => &["tables", "energy", "all"],
            ArtefactKind::Tables => &["table1", "table_configs", "table5", "all"],
            ArtefactKind::Fig4 | ArtefactKind::Ablation => &[],
        }
    }

    /// The default chart kind when a manifest does not pick one.
    #[must_use]
    pub fn default_chart(self) -> &'static str {
        match self {
            ArtefactKind::Fig3 | ArtefactKind::Tables => "all",
            ArtefactKind::Sensitivity => "tables",
            ArtefactKind::Fig4 | ArtefactKind::Ablation => "",
        }
    }
}

/// One workload (or composite mix) entry of a manifest: a registry name
/// plus optional size parameters. In a manifest this is either a bare
/// string (`"axpy"`) or an object (`{"name": "solver", "n": 8192,
/// "iters": 4}`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Registry name: a kernel from [`ava_workloads::KERNEL_NAMES`] or one
    /// of the composite mixes `pipelined` / `solver`.
    pub name: String,
    /// Primary problem size override.
    pub n: Option<usize>,
    /// Secondary parameter override (LavaMD neighbours, Particle Filter
    /// grid).
    pub m: Option<usize>,
    /// Unroll depth of the `solver` mix (rejected on every other name).
    pub iters: Option<usize>,
}

impl WorkloadSpec {
    /// A bare-name entry with all parameters at their registry defaults.
    #[must_use]
    pub fn named(name: &str) -> Self {
        Self {
            name: name.to_string(),
            n: None,
            m: None,
            iters: None,
        }
    }

    /// A name-plus-size entry.
    #[must_use]
    pub fn sized(name: &str, n: usize) -> Self {
        Self {
            n: Some(n),
            ..Self::named(name)
        }
    }

    fn to_json(&self) -> Json {
        if self.n.is_none() && self.m.is_none() && self.iters.is_none() {
            return Json::from(self.name.as_str());
        }
        let mut o = object().field("name", self.name.as_str());
        if let Some(n) = self.n {
            o = o.field("n", n);
        }
        if let Some(m) = self.m {
            o = o.field("m", m);
        }
        if let Some(iters) = self.iters {
            o = o.field("iters", iters);
        }
        o.finish()
    }
}

/// The mix registry: the name → constructor mapping manifests draw
/// workloads from. Kernel names resolve through
/// [`ava_workloads::build_kernel`]; the two composite mixes — `pipelined`
/// (the three-stage dataflow pipeline) and `solver` (the iterated somier
/// relaxation, parameterised by `iters`) — are wired here because they are
/// experiment-harness compositions, not kernels.
pub struct MixRegistry;

impl MixRegistry {
    /// Every name [`MixRegistry::build`] accepts.
    #[must_use]
    pub fn names() -> Vec<&'static str> {
        let mut names = KERNEL_NAMES.to_vec();
        names.push("pipelined");
        names.push("solver");
        names
    }

    /// Checks one workload entry's name and parameters without building
    /// it. Every rule of [`MixRegistry::build`] lives here, so a manifest
    /// parse rejects exactly what a build would.
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for an unknown name or a parameter that does
    /// not apply to it (`m` on a mix, `iters` on anything but `solver`, a
    /// kernel size [`ava_workloads::check_kernel`] rejects).
    pub fn check(spec: &WorkloadSpec) -> Result<(), String> {
        match spec.name.as_str() {
            "pipelined" => {
                if spec.m.is_some() {
                    return Err("workload \"pipelined\" takes no second parameter m".to_string());
                }
                if spec.iters.is_some() {
                    return Err("\"iters\" only applies to the \"solver\" mix".to_string());
                }
            }
            "solver" => {
                if spec.m.is_some() {
                    return Err("workload \"solver\" takes no second parameter m".to_string());
                }
            }
            name => {
                if spec.iters.is_some() {
                    return Err("\"iters\" only applies to the \"solver\" mix".to_string());
                }
                if kernel_defaults(name).is_none() {
                    return Err(format!(
                        "unknown workload {name:?} (known names: {})",
                        Self::names().join(", ")
                    ));
                }
                check_kernel(name, spec.n, spec.m)?;
            }
        }
        Ok(())
    }

    /// Builds one workload entry: [`MixRegistry::check`], then
    /// construction.
    ///
    /// # Errors
    ///
    /// As [`MixRegistry::check`].
    pub fn build(spec: &WorkloadSpec) -> Result<SharedWorkload, String> {
        Self::check(spec)?;
        Ok(match spec.name.as_str() {
            "pipelined" => pipelined_mix(spec.n.unwrap_or(4096)),
            "solver" => solver_mix(spec.n.unwrap_or(4096), spec.iters.unwrap_or(4)),
            name => ava_workloads::build_kernel(name, spec.n, spec.m)?,
        })
    }
}

/// The scenario-grid axes of a sensitivity manifest: the values of every
/// [`Knob`] with a manifest key, expanded into a grid by
/// [`crate::sensitivity_grid_with`]. `mvl` and `l2_kib` default to the
/// study's standard axes; the extra axes default to empty (not driven).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxesSpec {
    /// Maximum vector lengths ([`Knob::MVL`]).
    pub mvl: Vec<usize>,
    /// L2 capacities in KiB ([`Knob::L2_KIB`]).
    pub l2_kib: Vec<usize>,
    /// The optional extra axes (L1, DRAM bandwidth, VMU bus, VVR pool).
    pub extra: HierarchyAxes,
}

impl AxesSpec {
    /// Every axis with its values, in grid order (outermost first).
    pub(crate) fn driven(&self) -> Vec<(Knob, Vec<u64>)> {
        sensitivity_axes(&self.mvl, &self.l2_kib, &self.extra)
    }
}

impl Default for AxesSpec {
    fn default() -> Self {
        Self {
            mvl: SENSITIVITY_MVLS.to_vec(),
            l2_kib: SENSITIVITY_L2_KIB.to_vec(),
            extra: HierarchyAxes::default(),
        }
    }
}

/// The execution options of a manifest, mirroring the shared CLI flags
/// (`--threads`, `--store`, `--resume`). CLI flags override manifest values
/// field by field
/// ([`crate::cli::BenchArgs::apply_execution`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionSpec {
    /// Worker-thread cap for the sweep.
    pub threads: Option<usize>,
    /// Result-store directory.
    pub store: Option<String>,
    /// Assert the store already holds a checkpoint.
    pub resume: bool,
}

/// The output block of a manifest: where to write the JSON artefact and
/// which chart kind to render on stdout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputSpec {
    /// JSON artefact path (`--json` on the CLI overrides it).
    pub json: Option<String>,
    /// Chart kind (`None` = the artefact's default).
    pub kind: Option<String>,
}

/// One fully validated experiment manifest.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Optional display name.
    pub name: Option<String>,
    /// Which artefact to regenerate.
    pub artefact: ArtefactKind,
    /// The workload/mix entries to sweep, in order. Filled with the
    /// artefact's default pool when the manifest omits `workloads`.
    pub workloads: Vec<WorkloadSpec>,
    /// Restrict the sweep to the workload whose built name matches.
    pub app: Option<String>,
    /// Scenario-grid axes (sensitivity only).
    pub axes: AxesSpec,
    /// Execution options.
    pub execution: ExecutionSpec,
    /// Output artefacts.
    pub output: OutputSpec,
    /// Set by [`ExperimentSpec::scale_down`]: the driver additionally
    /// shrinks the dimensions the manifest cannot express (evaluated-system
    /// list, ablation study sizes) so CI smokes stay in the seconds range.
    pub reduced: bool,
}

/// The paper pool of Figure 3 / Figure 4 as explicit manifest entries (the
/// registry defaults of every kernel but `composite`).
#[must_use]
pub fn paper_workload_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::sized("axpy", 4096),
        WorkloadSpec::sized("blackscholes", 1024),
        WorkloadSpec {
            m: Some(2),
            ..WorkloadSpec::sized("lavamd2", 48)
        },
        WorkloadSpec {
            m: Some(64),
            ..WorkloadSpec::sized("particlefilter", 2048)
        },
        WorkloadSpec::sized("somier", 4096),
        WorkloadSpec::sized("swaptions", 1024),
    ]
}

/// The sensitivity-study pool as explicit manifest entries: the two DLP
/// extremes (Axpy streams, Blackscholes is register-hungry), the
/// memory-bound Somier, and the `composite` mix of all three sharing one
/// cache-warm hierarchy. Problem sizes are chosen so the working sets
/// (0.4–1 MiB) straddle the L2-capacity axis — small L2 configurations
/// actually miss.
#[must_use]
pub fn sensitivity_workload_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::sized("axpy", 32768),
        WorkloadSpec::sized("blackscholes", 8192),
        WorkloadSpec::sized("somier", 16384),
        WorkloadSpec::sized("composite", 16384),
    ]
}

impl ExperimentSpec {
    /// A spec with every field at the artefact's defaults — what a manifest
    /// containing only `{"artefact": "..."}` parses to.
    #[must_use]
    pub fn new(artefact: ArtefactKind) -> Self {
        Self {
            name: None,
            artefact,
            workloads: match artefact {
                ArtefactKind::Fig3 | ArtefactKind::Fig4 => paper_workload_specs(),
                ArtefactKind::Sensitivity => sensitivity_workload_specs(),
                // The ablation's (workload, base-config) pairs are the
                // studies themselves, not a pool; the tables run nothing.
                ArtefactKind::Ablation | ArtefactKind::Tables => Vec::new(),
            },
            app: None,
            axes: AxesSpec::default(),
            execution: ExecutionSpec::default(),
            output: OutputSpec::default(),
            reduced: false,
        }
    }

    /// Parses and validates a manifest. `label` names the source in
    /// diagnostics (conventionally the file path).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic for malformed JSON, an unknown field, an
    /// unknown artefact/workload/chart name, or an out-of-range value —
    /// each naming the offending token and its byte offset in `text`.
    pub fn parse(label: &str, text: &str) -> Result<Self, String> {
        let ctx = Ctx { label, text };
        let doc = parse(text).map_err(|e| format!("manifest {label}: {e}"))?;
        let Json::Obj(fields) = &doc else {
            return Err(format!("manifest {label}: the document must be an object"));
        };

        let artefact_str = doc
            .get("artefact")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("manifest {label}: missing required field \"artefact\""))?;
        let artefact = ArtefactKind::from_str(artefact_str).ok_or_else(|| {
            let names = ArtefactKind::ALL.map(ArtefactKind::as_str);
            let (last, rest) = names.split_last().expect("there are artefacts");
            ctx.fail(
                artefact_str,
                format!(
                    "unknown artefact {artefact_str:?} (expected {} or {last})",
                    rest.join(", ")
                ),
            )
        })?;
        let mut spec = Self::new(artefact);

        for (key, value) in fields {
            if artefact == ArtefactKind::Tables
                && matches!(key.as_str(), "workloads" | "app" | "axes" | "execution")
            {
                return Err(ctx.fail(
                    key,
                    format!("{key:?} does not apply to the tables artefact (it runs no sweep)"),
                ));
            }
            match key.as_str() {
                "artefact" => {}
                "name" => {
                    spec.name = Some(
                        value
                            .as_str()
                            .ok_or_else(|| ctx.fail(key, "\"name\" must be a string"))?
                            .to_string(),
                    );
                }
                "workloads" => {
                    if artefact == ArtefactKind::Ablation {
                        return Err(ctx.fail(
                            key,
                            "\"workloads\" does not apply to the ablation artefact \
                             (its studies fix their own workloads)",
                        ));
                    }
                    spec.workloads = parse_workloads(&ctx, value)?;
                }
                "app" => {
                    if matches!(artefact, ArtefactKind::Fig4 | ArtefactKind::Ablation) {
                        return Err(ctx.fail(
                            key,
                            format!(
                                "\"app\" does not apply to the {} artefact",
                                artefact.as_str()
                            ),
                        ));
                    }
                    spec.app = Some(
                        value
                            .as_str()
                            .ok_or_else(|| ctx.fail(key, "\"app\" must be a string"))?
                            .to_string(),
                    );
                }
                "axes" => {
                    if artefact != ArtefactKind::Sensitivity {
                        return Err(ctx.fail(
                            key,
                            format!(
                                "\"axes\" does not apply to the {} artefact \
                                 (its scenario grid is fixed)",
                                artefact.as_str()
                            ),
                        ));
                    }
                    spec.axes = parse_axes(&ctx, value)?;
                }
                "execution" => {
                    spec.execution = parse_execution(&ctx, value)?;
                }
                "output" => {
                    spec.output = parse_output(&ctx, value, artefact)?;
                }
                other => {
                    return Err(ctx.fail(
                        other,
                        format!(
                            "unknown field {other:?} (expected name, artefact, workloads, app, \
                             axes, execution or output)"
                        ),
                    ));
                }
            }
        }

        spec.validate(&ctx)?;
        Ok(spec)
    }

    /// Cross-field validation run by [`ExperimentSpec::parse`] once every
    /// field is read.
    fn validate(&self, ctx: &Ctx<'_>) -> Result<(), String> {
        if self.artefact.takes_workloads() && self.workloads.is_empty() {
            return Err(format!(
                "manifest {}: \"workloads\" needs at least one entry",
                ctx.label
            ));
        }
        let mut solver_entries = 0usize;
        for w in &self.workloads {
            // Check each entry up front so an unknown name or a stray
            // parameter fails at parse time with an offset, not mid-sweep.
            // Building is left to the driver, so each entry is constructed,
            // and a composite linted, once per process.
            MixRegistry::check(w).map_err(|e| ctx.fail(&w.name, e))?;
            if w.name == "solver" {
                solver_entries += 1;
            }
        }
        if solver_entries > 1 {
            // The unroll depth is recorded as one scenario axis for the
            // whole grid, so two solver entries with different depths would
            // mislabel every report.
            return Err(ctx.fail(
                "solver",
                "at most one \"solver\" entry per manifest (its \"iters\" is a grid-wide axis)",
            ));
        }
        if self.artefact == ArtefactKind::Sensitivity {
            if self.axes.mvl.is_empty() || self.axes.l2_kib.is_empty() {
                return Err(format!(
                    "manifest {}: axes \"{}\" and \"{}\" need at least one value each",
                    ctx.label,
                    manifest_key(Knob::MVL),
                    manifest_key(Knob::L2_KIB)
                ));
            }
            // Every point of the grid is an AVA scenario (the MVL axis's
            // preset), so each value is checked on an AVA base.
            for (knob, values) in self.axes.driven() {
                for value in values {
                    if let Err(e) = knob.check(SystemKind::Ava(8), value) {
                        return Err(ctx.fail(
                            &value.to_string(),
                            format!("\"{}\" {e}", manifest_key(knob)),
                        ));
                    }
                }
            }
        }
        if self.execution.resume && self.execution.store.is_none() {
            return Err(format!(
                "manifest {}: execution \"resume\" requires \"store\"",
                ctx.label
            ));
        }
        Ok(())
    }

    /// Emits the manifest back as JSON in canonical field order. Parsing
    /// the emitted document yields an equal spec (the round-trip contract
    /// of `tests/manifests.rs`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut o = object();
        if let Some(name) = &self.name {
            o = o.field("name", name.as_str());
        }
        o = o.field("artefact", self.artefact.as_str());
        if self.artefact.takes_workloads() {
            o = o.field(
                "workloads",
                self.workloads
                    .iter()
                    .map(WorkloadSpec::to_json)
                    .collect::<Json>(),
            );
        }
        if let Some(app) = &self.app {
            o = o.field("app", app.as_str());
        }
        if self.artefact == ArtefactKind::Sensitivity {
            let axes = self
                .axes
                .driven()
                .into_iter()
                .fold(object(), |axes, (knob, values)| {
                    axes.field(manifest_key(knob), values.into_iter().collect::<Json>())
                });
            o = o.field("axes", axes.finish());
        }
        if self.execution != ExecutionSpec::default() {
            let mut e = object();
            if let Some(threads) = self.execution.threads {
                e = e.field("threads", threads);
            }
            if let Some(store) = &self.execution.store {
                e = e.field("store", store.as_str());
            }
            if self.execution.resume {
                e = e.field("resume", true);
            }
            o = o.field("execution", e.finish());
        }
        if self.output != OutputSpec::default() {
            let mut out = object();
            if let Some(json) = &self.output.json {
                out = out.field("json", json.as_str());
            }
            if let Some(kind) = &self.output.kind {
                out = out.field("kind", kind.as_str());
            }
            o = o.field("output", out.finish());
        }
        o.finish()
    }

    /// Shrinks the experiment to CI-smoke size: the workload list drops to
    /// its first entry and every driven axis to its first value. The
    /// driver additionally truncates the dimensions a manifest cannot
    /// express (the fig3 evaluated-system list, the ablation study problem
    /// sizes) when this flag is set.
    pub fn scale_down(&mut self) {
        self.workloads.truncate(1);
        self.axes.mvl.truncate(1);
        self.axes.l2_kib.truncate(1);
        self.axes.extra.truncate(1);
        self.reduced = true;
    }

    /// The chart kind in effect (explicit `output.kind` or the artefact
    /// default).
    #[must_use]
    pub fn chart(&self) -> &str {
        self.output
            .kind
            .as_deref()
            .unwrap_or_else(|| self.artefact.default_chart())
    }
}

/// Diagnostic context: the manifest label plus its source text, so schema
/// errors can locate the offending token by byte offset.
struct Ctx<'a> {
    label: &'a str,
    text: &'a str,
}

impl Ctx<'_> {
    /// Formats `msg` with the byte offset of `token` in the source (the
    /// quoted form is preferred so values inside longer words do not
    /// mislead).
    fn fail(&self, token: &str, msg: impl std::fmt::Display) -> String {
        let quoted = format!("\"{token}\"");
        match self.text.find(&quoted).or_else(|| self.text.find(token)) {
            Some(pos) => format!("manifest {}: {msg} at byte {pos}", self.label),
            None => format!("manifest {}: {msg}", self.label),
        }
    }
}

fn positive_usize(ctx: &Ctx<'_>, value: &Json, what: &str) -> Result<usize, String> {
    match value.as_u64() {
        Some(n) if n >= 1 => Ok(n as usize),
        _ => Err(ctx.fail(what, format!("\"{what}\" needs a positive integer"))),
    }
}

fn usize_list(ctx: &Ctx<'_>, value: &Json, what: &str) -> Result<Vec<usize>, String> {
    let items = value.as_arr().ok_or_else(|| {
        ctx.fail(
            what,
            format!("axis \"{what}\" must be an array of integers"),
        )
    })?;
    items
        .iter()
        .map(|v| match v.as_u64() {
            Some(n) if n >= 1 => Ok(n as usize),
            _ => Err(ctx.fail(
                what,
                format!("axis \"{what}\" values must be positive integers"),
            )),
        })
        .collect()
}

fn parse_workloads(ctx: &Ctx<'_>, value: &Json) -> Result<Vec<WorkloadSpec>, String> {
    let items = value.as_arr().ok_or_else(|| {
        ctx.fail(
            "workloads",
            "\"workloads\" must be an array of names or {name, n, m, iters} objects",
        )
    })?;
    items
        .iter()
        .map(|item| match item {
            Json::Str(name) => Ok(WorkloadSpec::named(name)),
            Json::Obj(fields) => {
                let mut spec = WorkloadSpec::named("");
                for (key, v) in fields {
                    match key.as_str() {
                        "name" => {
                            spec.name = v
                                .as_str()
                                .ok_or_else(|| ctx.fail(key, "workload \"name\" must be a string"))?
                                .to_string();
                        }
                        "n" => spec.n = Some(positive_usize(ctx, v, "n")?),
                        "m" => spec.m = Some(positive_usize(ctx, v, "m")?),
                        "iters" => spec.iters = Some(positive_usize(ctx, v, "iters")?),
                        other => {
                            return Err(ctx.fail(
                                other,
                                format!(
                                "unknown workload field {other:?} (expected name, n, m or iters)"
                            ),
                            ))
                        }
                    }
                }
                if spec.name.is_empty() {
                    return Err(format!(
                        "manifest {}: every workload object needs a \"name\"",
                        ctx.label
                    ));
                }
                Ok(spec)
            }
            _ => Err(ctx.fail(
                "workloads",
                "\"workloads\" entries must be names or {name, n, m, iters} objects",
            )),
        })
        .collect()
}

fn parse_axes(ctx: &Ctx<'_>, value: &Json) -> Result<AxesSpec, String> {
    let Json::Obj(fields) = value else {
        return Err(ctx.fail("axes", "\"axes\" must be an object of axis-name arrays"));
    };
    let mut axes = AxesSpec::default();
    for (key, v) in fields {
        let Some(knob) = Knob::ALL
            .into_iter()
            .find(|k| k.manifest_key == Some(key.as_str()))
        else {
            let keys: Vec<&str> = Knob::ALL.iter().filter_map(|k| k.manifest_key).collect();
            let (last, rest) = keys.split_last().expect("the knob table has manifest keys");
            return Err(ctx.fail(
                key,
                format!(
                    "unknown axis {key:?} (expected {} or {last})",
                    rest.join(", ")
                ),
            ));
        };
        let values = usize_list(ctx, v, key)?;
        if knob == Knob::MVL {
            axes.mvl = values;
        } else if knob == Knob::L2_KIB {
            axes.l2_kib = values;
        } else {
            axes.extra
                .set(knob, values.into_iter().map(|x| x as u64).collect());
        }
    }
    Ok(axes)
}

fn parse_execution(ctx: &Ctx<'_>, value: &Json) -> Result<ExecutionSpec, String> {
    let Json::Obj(fields) = value else {
        return Err(ctx.fail("execution", "\"execution\" must be an object"));
    };
    let mut exec = ExecutionSpec::default();
    for (key, v) in fields {
        match key.as_str() {
            "threads" => exec.threads = Some(positive_usize(ctx, v, "threads")?),
            "store" => {
                exec.store = Some(
                    v.as_str()
                        .ok_or_else(|| ctx.fail(key, "execution \"store\" must be a path string"))?
                        .to_string(),
                );
            }
            "resume" => {
                exec.resume = v
                    .as_bool()
                    .ok_or_else(|| ctx.fail(key, "execution \"resume\" must be a boolean"))?;
            }
            other => {
                return Err(ctx.fail(
                    other,
                    format!(
                        "unknown execution field {other:?} (expected threads, store \
                         or resume)"
                    ),
                ))
            }
        }
    }
    Ok(exec)
}

fn parse_output(ctx: &Ctx<'_>, value: &Json, artefact: ArtefactKind) -> Result<OutputSpec, String> {
    let Json::Obj(fields) = value else {
        return Err(ctx.fail("output", "\"output\" must be an object"));
    };
    let mut output = OutputSpec::default();
    for (key, v) in fields {
        match key.as_str() {
            "json" => {
                output.json = Some(
                    v.as_str()
                        .ok_or_else(|| ctx.fail(key, "output \"json\" must be a path string"))?
                        .to_string(),
                );
            }
            "kind" => {
                let kind = v
                    .as_str()
                    .ok_or_else(|| ctx.fail(key, "output \"kind\" must be a string"))?;
                let allowed = artefact.chart_kinds();
                if allowed.is_empty() {
                    return Err(ctx.fail(
                        key,
                        format!(
                            "output \"kind\" does not apply to the {} artefact \
                             (it has a single rendering)",
                            artefact.as_str()
                        ),
                    ));
                }
                if !allowed.contains(&kind) {
                    return Err(ctx.fail(
                        kind,
                        format!(
                            "unknown chart kind {kind:?} for {} (expected {})",
                            artefact.as_str(),
                            allowed.join(", ")
                        ),
                    ));
                }
                output.kind = Some(kind.to_string());
            }
            other => {
                return Err(ctx.fail(
                    other,
                    format!("unknown output field {other:?} (expected json or kind)"),
                ))
            }
        }
    }
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_manifests_parse_to_the_artefact_defaults() {
        let spec = ExperimentSpec::parse("t", r#"{"artefact": "fig3"}"#).unwrap();
        assert_eq!(spec.artefact, ArtefactKind::Fig3);
        assert_eq!(spec.workloads, paper_workload_specs());
        assert_eq!(spec.chart(), "all");
        let spec = ExperimentSpec::parse("t", r#"{"artefact": "sensitivity"}"#).unwrap();
        assert_eq!(spec.workloads, sensitivity_workload_specs());
        assert_eq!(spec.axes.mvl, SENSITIVITY_MVLS.to_vec());
        assert_eq!(spec.chart(), "tables");
        let spec = ExperimentSpec::parse("t", r#"{"artefact": "ablation"}"#).unwrap();
        assert!(spec.workloads.is_empty());
        let spec = ExperimentSpec::parse("t", r#"{"artefact": "tables"}"#).unwrap();
        assert!(spec.workloads.is_empty());
        assert_eq!(spec.chart(), "all");
    }

    #[test]
    fn unknown_fields_and_names_carry_byte_offsets() {
        let text = r#"{"artefact": "fig3", "frobnicate": 1}"#;
        let err = ExperimentSpec::parse("t", text).unwrap_err();
        let offset = text.find("\"frobnicate\"").unwrap();
        assert!(
            err.contains("frobnicate") && err.contains(&format!("byte {offset}")),
            "{err}"
        );

        let text = r#"{"artefact": "fig3", "workloads": ["axpyz"]}"#;
        let err = ExperimentSpec::parse("t", text).unwrap_err();
        let offset = text.find("\"axpyz\"").unwrap();
        assert!(
            err.contains("axpyz") && err.contains(&format!("byte {offset}")),
            "{err}"
        );

        let err = ExperimentSpec::parse("t", r#"{"artefact": "fig9"}"#).unwrap_err();
        assert!(err.contains("fig9") && err.contains("byte"), "{err}");
        for kind in ArtefactKind::ALL {
            assert!(err.contains(kind.as_str()), "{err} must name {kind:?}");
        }
    }

    #[test]
    fn malformed_json_reports_the_parser_offset() {
        let err = ExperimentSpec::parse("t", "{\"artefact\": ").unwrap_err();
        assert!(err.contains("manifest t:") && err.contains("byte"), "{err}");
    }

    #[test]
    fn artefact_scoped_fields_are_rejected_elsewhere() {
        for (text, needle) in [
            (r#"{"artefact": "fig3", "axes": {"mvl": [128]}}"#, "axes"),
            (
                r#"{"artefact": "ablation", "workloads": ["axpy"]}"#,
                "workloads",
            ),
            (r#"{"artefact": "fig4", "app": "axpy"}"#, "app"),
            (r#"{"artefact": "fig4", "output": {"kind": "all"}}"#, "kind"),
            (
                r#"{"artefact": "fig3", "output": {"kind": "tables"}}"#,
                "tables",
            ),
        ] {
            let err = ExperimentSpec::parse("t", text).unwrap_err();
            assert!(err.contains(needle), "{text} -> {err}");
        }
    }

    #[test]
    fn axis_values_are_validated_like_the_legacy_flags() {
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "sensitivity", "axes": {"mvl": [100]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("multiples of") && err.contains("100"), "{err}");
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "sensitivity", "axes": {"vvrs": [16]}}"#,
        )
        .unwrap_err();
        assert!(err.contains("32 architectural registers"), "{err}");
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "sensitivity", "axes": {"l2_kib": []}}"#,
        )
        .unwrap_err();
        assert!(err.contains("at least one value"), "{err}");
    }

    #[test]
    fn solver_iters_is_scoped_to_the_solver_mix() {
        let spec = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "fig3", "workloads": [{"name": "solver", "n": 512, "iters": 3}]}"#,
        )
        .unwrap();
        assert_eq!(spec.workloads[0].iters, Some(3));
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "fig3", "workloads": [{"name": "axpy", "iters": 3}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("solver"), "{err}");
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "fig3", "workloads": ["solver", {"name": "solver", "iters": 2}]}"#,
        )
        .unwrap_err();
        assert!(err.contains("at most one"), "{err}");
    }

    #[test]
    fn execution_block_parses_and_cross_checks() {
        let spec = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "fig3", "execution": {"threads": 2, "store": "d", "resume": true}}"#,
        )
        .unwrap();
        assert_eq!(spec.execution.threads, Some(2));
        assert_eq!(spec.execution.store.as_deref(), Some("d"));
        assert!(spec.execution.resume);
        let err = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "fig3", "execution": {"resume": true}}"#,
        )
        .unwrap_err();
        assert!(err.contains("requires \"store\""), "{err}");
    }

    #[test]
    fn specs_round_trip_through_their_json_form() {
        let texts = [
            r#"{"artefact": "fig3", "workloads": ["axpy", {"name": "solver", "n": 512, "iters": 2}],
                "app": "iterated", "output": {"json": "out.json", "kind": "perf"}}"#,
            r#"{"name": "vvr", "artefact": "sensitivity",
                "axes": {"mvl": [128], "l2_kib": [512], "vvrs": [32, 64]},
                "execution": {"threads": 1}}"#,
            r#"{"artefact": "ablation"}"#,
            r#"{"artefact": "fig4"}"#,
            r#"{"artefact": "tables", "output": {"kind": "table5"}}"#,
        ];
        for text in texts {
            let spec = ExperimentSpec::parse("t", text).unwrap();
            let emitted = spec.to_json().to_string();
            let reparsed = ExperimentSpec::parse("t", &emitted).unwrap();
            assert_eq!(spec, reparsed, "round-trip changed the spec for {text}");
        }
    }

    #[test]
    fn scale_down_truncates_every_dimension() {
        let mut spec = ExperimentSpec::parse(
            "t",
            r#"{"artefact": "sensitivity",
                "axes": {"mvl": [128, 256, 512], "l2_kib": [256, 1024], "l1_kib": [16, 64]}}"#,
        )
        .unwrap();
        spec.scale_down();
        assert!(spec.reduced);
        assert_eq!(spec.workloads.len(), 1);
        assert_eq!(spec.axes.mvl, vec![128]);
        assert_eq!(spec.axes.l2_kib, vec![256]);
        assert_eq!(spec.axes.extra.values(Knob::L1_KIB), [16]);
    }

    /// Each registry rule fails the parse with the message `build` gives
    /// and the byte offset of the entry's name: parse only checks, and
    /// `build` checks through the same rules before it constructs.
    #[test]
    fn every_registry_rejection_fails_the_parse_at_the_entry_name() {
        let spec =
            |name: &str, n: Option<usize>, m: Option<usize>, iters: Option<usize>| WorkloadSpec {
                name: name.to_string(),
                n,
                m,
                iters,
            };
        let unknown = format!(
            "unknown workload \"nope\" (known names: {})",
            MixRegistry::names().join(", ")
        );
        for (entry, message) in [
            (
                spec("composite", Some(3), None, None),
                "workload \"composite\" needs n >= 4 to split across its phases, got 3",
            ),
            (
                spec("pipelined", None, Some(2), None),
                "workload \"pipelined\" takes no second parameter m",
            ),
            (
                spec("solver", Some(512), Some(2), None),
                "workload \"solver\" takes no second parameter m",
            ),
            (
                spec("pipelined", None, None, Some(2)),
                "\"iters\" only applies to the \"solver\" mix",
            ),
            (
                spec("composite", None, None, Some(2)),
                "\"iters\" only applies to the \"solver\" mix",
            ),
            (spec("nope", None, None, None), unknown.as_str()),
        ] {
            let text = format!(
                r#"{{"artefact": "fig3", "workloads": [{}]}}"#,
                entry.to_json()
            );
            let offset = text.find(&format!("\"{}\"", entry.name)).unwrap();
            assert_eq!(
                ExperimentSpec::parse("t", &text).unwrap_err(),
                format!("manifest t: {message} at byte {offset}"),
                "{text}"
            );
            assert_eq!(MixRegistry::check(&entry), Err(message.to_string()));
            assert_eq!(MixRegistry::build(&entry).err().as_deref(), Some(message));
        }
    }

    #[test]
    fn mix_registry_builds_kernels_and_mixes() {
        assert_eq!(
            MixRegistry::build(&WorkloadSpec::named("axpy"))
                .unwrap()
                .name(),
            "axpy"
        );
        assert_eq!(
            MixRegistry::build(&WorkloadSpec::sized("pipelined", 512))
                .unwrap()
                .name(),
            "pipelined"
        );
        let solver = MixRegistry::build(&WorkloadSpec {
            iters: Some(2),
            ..WorkloadSpec::sized("solver", 512)
        })
        .unwrap();
        assert_eq!(solver.name(), "iterated");
        assert!(MixRegistry::build(&WorkloadSpec::named("nope")).is_err());
        assert!(MixRegistry::names().contains(&"solver"));
    }
}
