//! Golden-diagnostic tests for the `ava-lint` static analyzer: the real
//! bugs hit while growing this repo — the PR 3 pre-`vsetvl` splat and the
//! PR 4 wrong-buffer rebase — reconstructed as deliberately broken kernels
//! and rejected *statically*, with their named diagnostics, before any
//! simulation runs. The flip side is locked down too: every shipped
//! workload and composite mix lints clean in deny mode across the MVL
//! range, so the analyzer can gate construction without false positives.

use std::fmt::Write as _;
use std::sync::Arc;

use ava::compiler::analysis::{analyze, AnalysisInput, Arena, Code, Severity};
use ava::compiler::ir::{IrInstr, IrOperand};
use ava::compiler::{IrKernel, KernelBuilder, RebaseRule, VirtReg};
use ava::isa::{Opcode, OperandList, VectorContext};
use ava::memory::MemoryHierarchy;
use ava::sim::ScenarioConfig;
use ava::workloads::{
    composite, Axpy, Blackscholes, BufferBindings, Composite, DataLayout, Fingerprint, LavaMd2,
    OutputValues, ParticleFilter, PlannedLayout, SharedWorkload, Somier, Swaptions, Workload,
    WorkloadSetup,
};
use ava_bench::spec::{MixRegistry, WorkloadSpec};

// ---------------------------------------------------------------------
// The PR 3 bug class: splat before any vsetvl
// ---------------------------------------------------------------------

/// The splat-before-`vsetvl` kernel shape that corrupted wide strips in
/// PR 3, caught statically as AVA001 at the splat's IR index.
#[test]
fn reconstructed_splat_bug_is_rejected_at_kernel_level() {
    let mut b = KernelBuilder::new("bad-splat");
    let c = b.vsplat(2.0); // the bug: VL is whatever the last kernel left
    b.set_vl(16);
    let x = b.vload(0x1000);
    let r = b.vfmul(x, c);
    b.vstore(r, 0x2000);

    let report = analyze(&b.finish(), &AnalysisInput::new(Some(16)));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::SplatBeforeSetVl)
        .expect("AVA001 must fire");
    assert_eq!(d.ir_index, 0);
    assert_eq!(d.severity, Severity::Error);
    assert!(!report.is_clean(Severity::Warn), "{report}");
    // The same kernel with the preamble in the right order is clean.
    let mut ok = KernelBuilder::new("ok-splat");
    ok.set_vl(16);
    let c = ok.vsplat(2.0);
    let x = ok.vload(0x1000);
    let r = ok.vfmul(x, c);
    ok.vstore(r, 0x2000);
    assert!(analyze(&ok.finish(), &AnalysisInput::new(Some(16))).is_clean(Severity::Info));
}

/// An axpy variant that splats a constant before its `vsetvl` preamble —
/// byte-for-byte the PR 3 bug, wrapped in a phase of a pipelined
/// composite.
struct SplatsTooEarly;

impl Workload for SplatsTooEarly {
    fn name(&self) -> &'static str {
        "axpy"
    }
    fn domain(&self) -> &'static str {
        "test"
    }
    fn elements(&self) -> usize {
        Axpy::new(256).elements()
    }
    fn data_layout(&self) -> DataLayout {
        Axpy::new(256).data_layout()
    }
    fn build_with_bindings(
        &self,
        mem: &mut MemoryHierarchy,
        ctx: &VectorContext,
        plan: &PlannedLayout,
        bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let part = Axpy::new(256).build_with_bindings(mem, ctx, plan, bindings);
        let mut b = KernelBuilder::new("axpy");
        let _ = b.vsplat(2.0); // before any vsetvl: the PR 3 bug
        let mut kernel = b.finish();
        kernel.concat_remapped(&part.kernel, &[]);
        WorkloadSetup { kernel, ..part }
    }
}

/// Deny-by-default at the composite constructor: the broken phase is
/// rejected with its named diagnostic the moment the composite is wired,
/// before any simulation (or even register allocation) runs.
#[test]
#[should_panic(expected = "AVA001")]
fn composite_construction_rejects_a_splat_before_vsetvl_phase() {
    let _ = Composite::pipelined(
        vec![Arc::new(SplatsTooEarly), Arc::new(Somier::new(256))],
        vec![composite::links(&[("y", "v")])],
    );
}

// ---------------------------------------------------------------------
// The PR 4 bug class: a rebase that misses its placeholder buffer
// ---------------------------------------------------------------------

/// The wrong-buffer rebase of PR 4, reconstructed at the kernel level: a
/// consumer generated against a placeholder input is concatenated with a
/// `RebaseRule` whose `old_base` names the wrong buffer, so the
/// placeholder accesses survive — AVA002, statically, where the runtime
/// symptom was a validation failure deep inside a sweep.
#[test]
fn reconstructed_wrong_buffer_rebase_is_rejected_statically() {
    let build_pipeline = |rebase: RebaseRule| {
        let mut prod = KernelBuilder::new("producer");
        prod.set_vl(8);
        let x = prod.vload(0x1000);
        let y = prod.vfadd(x, 1.0);
        prod.vstore(y, 0x2000);
        let mut kernel = prod.finish();
        let producer_end = kernel.len();

        let mut cons = KernelBuilder::new("consumer");
        cons.set_vl(8);
        let v = cons.vload(0x3000); // generated against the placeholder
        let r = cons.vfmul(v, v);
        cons.vstore(r, 0x4000);
        kernel.concat_remapped(&cons.finish(), &[rebase]);
        (kernel, producer_end)
    };
    let arenas = || {
        vec![
            Arena::new("p0.x", 0x1000, 0x40),
            Arena::new("p0.y", 0x2000, 0x40),
            // The consumer's planned input: a pipelined composite rebases
            // every access out of it, so any survivor is a wiring bug.
            Arena::new("p1.v", 0x3000, 0x40).as_placeholder(),
            Arena::new("p1.out", 0x4000, 0x40),
        ]
    };

    // The bug: old_base names a buffer the consumer never touches, so the
    // placeholder loads are left behind.
    let wrong = RebaseRule {
        old_base: 0x9000,
        bytes: 0x40,
        new_base: 0x2000,
    };
    let (kernel, producer_end) = build_pipeline(wrong);
    let input = AnalysisInput::new(Some(8))
        .with_arenas(arenas())
        .with_phase_ends(vec![producer_end]);
    let report = analyze(&kernel, &input);
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UncoveredPlaceholder)
        .expect("AVA002 must fire");
    assert_eq!(d.severity, Severity::Error);
    assert!(d.message.contains("p1.v"), "{d}");

    // The correct rule — placeholder onto the producer's output — is clean.
    let right = RebaseRule {
        old_base: 0x3000,
        bytes: 0x40,
        new_base: 0x2000,
    };
    let (kernel, producer_end) = build_pipeline(right);
    let input = AnalysisInput::new(Some(8))
        .with_arenas(arenas())
        .with_phase_ends(vec![producer_end]);
    assert!(analyze(&kernel, &input).is_clean(Severity::Info));
}

// ---------------------------------------------------------------------
// Carried-buffer destruction in an iterated composite
// ---------------------------------------------------------------------

/// A phase that overwrites its input array in place and then reads it back
/// within its own phase. As a solver body, the carried value is gone by the
/// time it is consumed; as a pipeline consumer, so is the linked producer
/// output its input is rebased onto.
struct DestroysItsCarry;

impl Workload for DestroysItsCarry {
    fn name(&self) -> &'static str {
        "badcarry"
    }
    fn domain(&self) -> &'static str {
        "test"
    }
    fn elements(&self) -> usize {
        16
    }
    fn data_layout(&self) -> DataLayout {
        let mut l = DataLayout::new();
        l.input("x", 16);
        l.output("xout", 16);
        l
    }
    fn build_with_bindings(
        &self,
        _mem: &mut MemoryHierarchy,
        _ctx: &VectorContext,
        plan: &PlannedLayout,
        _bindings: &BufferBindings,
    ) -> WorkloadSetup {
        let xa = plan.addr("x");
        let oa = plan.addr("xout");
        let mut b = KernelBuilder::new("badcarry");
        b.set_vl(16);
        let x = b.vload(xa);
        let y = b.vfadd(x, 1.0);
        b.vstore(y, xa); // destroys the carried array in place...
        let z = b.vload(xa); // ...then reads it back: AVA003
        b.vstore(z, oa);
        WorkloadSetup {
            kernel: b.finish(),
            checks: Vec::new(),
            strips: 1,
            outputs: vec![OutputValues {
                name: "xout".to_string(),
                base: oa,
                values: vec![0.0; 16],
            }],
            warm_ranges: Vec::new(),
            phase_marks: Vec::new(),
        }
    }
}

/// Construction rejects the reread with AVA003 whether the destroyed
/// array is carried between iterations or linked from a producer.
#[test]
fn construction_rejects_a_phase_destroying_its_carried_or_linked_input() {
    let carried = std::panic::catch_unwind(|| {
        Composite::iterated(
            Arc::new(DestroysItsCarry),
            2,
            composite::links(&[("xout", "x")]),
        )
    });
    let linked = std::panic::catch_unwind(|| {
        Composite::pipelined(
            vec![Arc::new(Axpy::new(16)), Arc::new(DestroysItsCarry)],
            vec![composite::links(&[("y", "x")])],
        )
    });
    for (what, outcome) in [("carried", carried), ("linked", linked)] {
        let panic = outcome.expect_err(what);
        let message = panic.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.contains("AVA003"), "{what}: {message}");
    }
}

// ---------------------------------------------------------------------
// The remaining codes, end to end through `analyze`
// ---------------------------------------------------------------------

#[test]
fn stale_lane_escape_is_a_warning_that_deny_mode_catches() {
    let mut b = KernelBuilder::new("stale");
    b.set_vl(4);
    let x = b.vload(0x1000);
    b.set_vl(16);
    let r = b.vfadd(x, 1.0); // lanes 4..16 stale
    b.vstore(r, 0x2000); // ...and materialised: AVA004
    let report = analyze(&b.finish(), &AnalysisInput::new(Some(16)));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::NarrowDefWideUse)
        .expect("AVA004 must fire");
    assert_eq!(d.severity, Severity::Warn);
    assert!(!report.is_clean(Severity::Warn), "deny mode must fail");
    assert!(report.is_clean(Severity::Error), "warn mode must pass");
}

#[test]
fn ssa_violations_report_use_before_def_and_redefinition() {
    let scalar_one: IrOperand = 1.0.into();
    let kernel = IrKernel {
        name: "ssa".to_string(),
        instrs: vec![
            IrInstr {
                opcode: Opcode::SetVl,
                dst: None,
                srcs: OperandList::EMPTY,
                mem: None,
                setvl_request: Some(8),
            },
            // v1 is read before anything defines it.
            IrInstr {
                opcode: Opcode::VFAdd,
                dst: Some(VirtReg(0)),
                srcs: OperandList::new(Opcode::VFAdd, &[IrOperand::Reg(VirtReg(1)), scalar_one]),
                mem: None,
                setvl_request: None,
            },
            // v0 is defined a second time.
            IrInstr {
                opcode: Opcode::VFAdd,
                dst: Some(VirtReg(0)),
                srcs: OperandList::new(Opcode::VFAdd, &[IrOperand::Reg(VirtReg(0)), scalar_one]),
                mem: None,
                setvl_request: None,
            },
        ],
        num_virt_regs: 2,
    };
    let report = analyze(&kernel, &AnalysisInput::new(Some(8)));
    assert!(report.has(Code::UseBeforeDef), "{report}");
    assert!(report.has(Code::Redefinition), "{report}");
    assert!(!report.is_clean(Severity::Error));

    // A definition nothing ever reads is the milder AVA104 warning.
    let mut b = KernelBuilder::new("unused");
    b.set_vl(8);
    let _ = b.vsplat(1.0);
    let x = b.vload(0x1000);
    b.vstore(x, 0x2000);
    let report = analyze(&b.finish(), &AnalysisInput::new(Some(8)));
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::UnusedDef)
        .expect("AVA104 must fire");
    assert_eq!(d.severity, Severity::Warn);
}

#[test]
fn dead_stores_are_informational_and_do_not_fail_deny_mode() {
    let mut b = KernelBuilder::new("dead");
    b.set_vl(8);
    let x = b.vload(0x1000);
    b.vstore(x, 0x2000);
    let y = b.vfadd(x, 1.0);
    b.vstore(y, 0x2000); // fully overwrites the first store: AVA103
    let report = analyze(
        &b.finish(),
        &AnalysisInput::new(Some(8)).with_arenas(vec![
            Arena::new("x", 0x1000, 0x40),
            Arena::new("y", 0x2000, 0x40),
        ]),
    );
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == Code::DeadStore)
        .expect("AVA103 must fire");
    assert_eq!(d.severity, Severity::Info);
    assert!(report.is_clean(Severity::Warn), "info must not gate deny");
}

#[test]
fn out_of_arena_and_straddling_accesses_are_errors() {
    let mut b = KernelBuilder::new("oob");
    b.set_vl(8);
    let stray = b.vload(0x9000); // no arena owns this: AVA201
    b.vstore(stray, 0x2000);
    let tail = b.vload(0x1020); // 8 lanes from 0x20 run past 0x40: AVA202
    b.vstore(tail, 0x2000);
    let report = analyze(
        &b.finish(),
        &AnalysisInput::new(Some(8)).with_arenas(vec![
            Arena::new("x", 0x1000, 0x40),
            Arena::new("y", 0x2000, 0x40),
        ]),
    );
    assert!(report.has(Code::OutOfArena), "{report}");
    assert!(report.has(Code::StraddlesArena), "{report}");
    assert!(!report.is_clean(Severity::Error));
}

// ---------------------------------------------------------------------
// No false positives: everything shipped lints clean in deny mode
// ---------------------------------------------------------------------

/// Every shipped workload and both composite mixes, verified across the
/// full MVL range (including the 512 extrapolation point), produce zero
/// warn-or-worse findings — the deny gate in the composite constructors
/// can never trip on correct code. The solver mix's body at its registry
/// size is checked standalone at every evaluated MVL as well.
#[test]
fn all_shipped_workloads_and_mixes_lint_clean_in_deny_mode() {
    let workloads: Vec<SharedWorkload> = vec![
        Arc::new(Axpy::new(1024)),
        Arc::new(Blackscholes::new(256)),
        Arc::new(LavaMd2::new(16, 2)),
        Arc::new(ParticleFilter::new(512, 32)),
        Arc::new(Somier::new(1024)),
        Arc::new(Swaptions::new(256)),
        Arc::new(Somier::relaxation(1024)),
        Arc::new(Composite::pipelined(
            vec![Arc::new(Axpy::new(1024)), Arc::new(Somier::new(1024))],
            vec![composite::links(&[("y", "v")])],
        )),
        Arc::new(Composite::iterated(
            Arc::new(Somier::relaxation(1024)),
            3,
            composite::links(&[("xout", "x"), ("vout", "v")]),
        )),
    ];
    let relaxation: SharedWorkload = Arc::new(Somier::relaxation(4096));
    let grid = workloads
        .iter()
        .flat_map(|w| [16, 64, 128, 512].map(|mvl| (w, mvl)))
        .chain(lint_mvls().into_iter().map(|mvl| (&relaxation, mvl)));
    for (w, mvl) in grid {
        let report = w.verify(mvl);
        assert!(
            report.is_clean(Severity::Warn),
            "{} at MVL {mvl} is not clean:\n{report}",
            w.name()
        );
    }
}

/// The MVLs of the fourteen evaluated configurations plus the Table I
/// MVL-512 extrapolation point.
fn lint_mvls() -> Vec<usize> {
    let mut configs = ScenarioConfig::all_evaluated();
    configs.extend(ScenarioConfig::axis_mvl(&[512]));
    let mut mvls: Vec<usize> = configs.iter().map(ScenarioConfig::mvl).collect();
    mvls.sort_unstable();
    mvls.dedup();
    mvls
}

/// Every finding, at every severity, of every registry kernel and mix at
/// its manifest defaults, verified at every [`lint_mvls`] MVL:
/// one line per workload and MVL, then one per rendered diagnostic.
fn registry_lint_text() -> String {
    let mut text = String::new();
    for name in MixRegistry::names() {
        let workload = MixRegistry::build(&WorkloadSpec::named(name)).unwrap();
        for mvl in lint_mvls() {
            let report = workload.verify(mvl);
            writeln!(text, "{name} at MVL {mvl}").unwrap();
            for d in &report.diagnostics {
                writeln!(text, "{d}").unwrap();
            }
        }
    }
    text
}

/// FNV-1a of [`registry_lint_text`], recorded before the memory pass
/// became linear. All 54 reports were clean then, at every severity, info
/// included; a faster lint must still say exactly that.
const REGISTRY_LINT_DIGEST: u64 = 0x35b0_a46d_b1bf_f69c;

/// Every registry kernel and mix (`composite`, `pipelined` and `solver`
/// included) reports the same findings, rendered byte for byte, at every
/// [`lint_mvls`] MVL.
#[test]
fn registry_lint_findings_are_pinned() {
    let text = registry_lint_text();
    let mut h = Fingerprint::new();
    h.write_bytes(text.as_bytes());
    assert_eq!(
        h.finish(),
        REGISTRY_LINT_DIGEST,
        "the lint's findings moved:\n{text}"
    );
}
